#include "serve/fleet.h"

#include <csignal>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/manifest.h"
#include "serve/server.h"
#include "store/import.h"
#include "store/record.h"
#include "store/store.h"
#include "util/json.h"
#include "util/log.h"

namespace sitam::serve {

namespace {

/// Whether a backend name runs the delta evaluator. "memo" is an alias of
/// "full" (the evaluator has no memo); it stays only because bench/e2e
/// still names it (ROADMAP item 7).
bool backend_delta_eval(const std::string& backend) {
  if (backend == "full" || backend == "memo") return false;
  if (backend == "delta") return true;
  throw std::invalid_argument("unknown backend '" + backend +
                              "' (expected full, memo or delta)");
}

/// Derived hit rates mirroring EvaluatorStats::*_rate(), recomputed from
/// the flattened counters so fleet records chart the same columns the
/// benchmark artifacts do.
void add_hit_rates(std::map<std::string, double>& metrics) {
  const auto it = metrics.find("stats.evaluations");
  if (it == metrics.end() || it->second <= 0.0) return;
  const double evaluations = it->second;
  const auto counter = [&metrics](const char* name) {
    const auto cit = metrics.find(name);
    return cit == metrics.end() ? 0.0 : cit->second;
  };
  // Every evaluation that avoided a full run is a delta hit, so the two
  // rates are one number.
  const double delta_hits = counter("stats.delta_hits");
  metrics["delta_hit_rate"] = delta_hits / evaluations;
  metrics["cache_hit_rate"] = delta_hits / evaluations;
}

/// Builds the store record for one completed cell. Everything here is a
/// pure function of (options, cell, result line bytes, build provenance),
/// which is what makes an interrupted-and-resumed store compare equal to
/// an uninterrupted one.
store::StoreRecord cell_record(const FleetOptions& options,
                               const FleetCell& cell,
                               const JsonValue& result,
                               const std::string& result_line) {
  store::StoreRecord record;
  record.manifest = obs::RunManifest::collect("sitam sweep-fleet");
  record.manifest.scenario = cell.scenario();
  record.manifest.seed = cell.seed;
  record.manifest.threads = options.threads;
  record.manifest.add_extra("soc", cell.soc);
  record.manifest.add_extra("w_max", std::to_string(cell.w_max));
  record.manifest.add_extra("backend", cell.backend);
  record.manifest.add_extra("nr", std::to_string(options.pattern_count));
  record.manifest.add_extra("parts", std::to_string(options.grouping));
  record.manifest.add_extra("restarts", std::to_string(options.restarts));
  record.scenario = cell.scenario();
  record.config_hash =
      store::store_hash_hex(fleet_cell_config(options, cell));
  record.result_digest = store::store_hash_hex(result_line);
  store::flatten_numeric_metrics(result, "", record.metrics);
  add_hit_rates(record.metrics);
  return record;
}

}  // namespace

std::string cell_request_line(const FleetOptions& options,
                              const FleetCell& cell) {
  const bool delta_eval = backend_delta_eval(cell.backend);
  JsonWriter json;
  json.begin_object()
      .kv("op", "optimize")
      .kv("id", cell.scenario())
      .kv("soc", cell.soc)
      .kv("wmax", std::int64_t{cell.w_max})
      .kv("nr", options.pattern_count)
      .kv("seed", static_cast<std::int64_t>(cell.seed))
      .kv("parts", std::int64_t{options.grouping})
      .kv("restarts", std::int64_t{options.restarts});
  if (!delta_eval) json.kv("no_delta", true);
  json.end_object();
  return json.str();
}

std::string FleetCell::scenario() const {
  std::ostringstream os;
  os << soc << "/w" << w_max << '/' << backend << "/seed" << seed;
  return os.str();
}

std::vector<FleetCell> build_fleet_grid(const FleetOptions& options) {
  if (options.socs.empty() || options.widths.empty() ||
      options.backends.empty() || options.seeds.empty()) {
    throw std::invalid_argument(
        "fleet grid axes (socs, widths, backends, seeds) must be non-empty");
  }
  for (const int width : options.widths) {
    if (width < 1) {
      throw std::invalid_argument("fleet widths must be >= 1");
    }
  }
  for (const std::string& backend : options.backends) {
    (void)backend_delta_eval(backend);  // Throws on an unknown name.
  }
  std::vector<FleetCell> grid;
  grid.reserve(options.socs.size() * options.widths.size() *
               options.backends.size() * options.seeds.size());
  for (const std::string& soc : options.socs) {
    for (const int width : options.widths) {
      for (const std::string& backend : options.backends) {
        for (const std::uint64_t seed : options.seeds) {
          grid.push_back(FleetCell{soc, width, backend, seed});
        }
      }
    }
  }
  return grid;
}

std::string fleet_cell_config(const FleetOptions& options,
                              const FleetCell& cell) {
  std::ostringstream os;
  os << "backend=" << cell.backend << ";nr=" << options.pattern_count
     << ";parts=" << options.grouping << ";restarts=" << options.restarts
     << ";seed=" << cell.seed << ";soc=" << cell.soc
     << ";wmax=" << cell.w_max;
  return os.str();
}

FleetSummary run_sweep_fleet(const FleetOptions& options) {
  if (options.store_path.empty()) {
    throw std::invalid_argument("sweep fleet requires a store path");
  }
  const std::vector<FleetCell> grid = build_fleet_grid(options);
  store::ResultStore results(options.store_path);
  const std::string git_describe =
      obs::RunManifest::collect("sitam sweep-fleet").git_describe;

  FleetSummary summary;
  summary.planned = static_cast<std::int64_t>(grid.size());

  // Resume: drop every cell the store already answers at this commit.
  std::map<std::string, FleetCell> pending;  // job id -> cell
  for (const FleetCell& cell : grid) {
    const store::StoreKey key{
        cell.scenario(), store::store_hash_hex(fleet_cell_config(options, cell)),
        git_describe};
    if (results.contains(key)) {
      ++summary.skipped;
      if (options.progress) {
        SITAM_INFO << "fleet: skip " << cell.scenario()
                   << " (already in store)";
      }
      continue;
    }
    pending.emplace(cell.scenario(), cell);
  }

  // Fleet-side response state; the server serializes sink calls, but the
  // main thread reads these after drain(), so take a real lock.
  std::mutex fleet_mutex;
  std::int64_t appends = 0;           // guarded_by(fleet_mutex)
  std::string append_error;           // guarded_by(fleet_mutex)
  FleetSummary* summary_ptr = &summary;

  ServerOptions server_options;
  server_options.threads = options.threads;
  server_options.progress = false;

  {
    JobServer server(
        server_options,
        [&options, &results, &pending, &fleet_mutex, &appends, &append_error,
         summary_ptr](const std::string& line) {
          const JsonValue root = parse_json(line);
          const JsonValue* type = root.find("type");
          const JsonValue* id = root.find("id");
          if (type == nullptr || id == nullptr || !id->is_string()) return;
          const std::lock_guard<std::mutex> lock(fleet_mutex);
          const auto cell_it = pending.find(id->as_string());
          if (cell_it == pending.end()) return;
          if (type->as_string() == "result") {
            const store::StoreRecord record =
                cell_record(options, cell_it->second, root, line);
            if (!results.append(record)) {
              if (append_error.empty()) {
                append_error = "store append failed for cell '" +
                               cell_it->second.scenario() + "'";
              }
              ++summary_ptr->failed;
              return;
            }
            ++summary_ptr->completed;
            if (options.progress) {
              SITAM_INFO << "fleet: done " << cell_it->second.scenario();
            }
            ++appends;
            if (options.crash_after > 0 && appends >= options.crash_after) {
              // Crash-injection hook: die exactly as a power loss would —
              // no destructor, no index flush, possibly mid-grid.
              std::raise(SIGKILL);
            }
          } else if (type->as_string() == "error") {
            const JsonValue* message = root.find("error");
            SITAM_WARN << "fleet: cell " << id->as_string() << " failed: "
                       << (message != nullptr && message->is_string()
                               ? message->as_string()
                               : std::string("unknown error"));
            ++summary_ptr->failed;
          }
        });
    for (const auto& [id, cell] : pending) {
      server.submit_line(cell_request_line(options, cell));
    }
    server.drain();
  }

  if (!append_error.empty()) {
    throw std::runtime_error(append_error);
  }
  return summary;
}

}  // namespace sitam::serve
