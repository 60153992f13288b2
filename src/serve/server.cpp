#include "serve/server.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/export.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "soc/benchmarks.h"
#include "soc/parser.h"
#include "store/record.h"
#include "store/store.h"
#include "util/log.h"

namespace sitam::serve {

namespace {

/// Maps a request onto the context's API. Throws std::invalid_argument for
/// an unknown benchmark name and SocParseError for bad inline soc text.
FlowRequest build_flow_request(const Request& request,
                               SitamContext& context) {
  FlowRequest flow;
  flow.mode = request.op == RequestOp::kSweep ? FlowMode::kSweep
                                              : FlowMode::kOptimize;
  if (!request.soc_text.empty()) {
    flow.soc = context.intern(parse_soc(request.soc_text));
  } else {
    const std::string name = request.soc.empty() ? "d695" : request.soc;
    const std::vector<std::string> names = benchmark_names();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      // Truncate the echo: a hostile megabyte name must not be amplified
      // into every error response.
      throw std::invalid_argument("unknown benchmark '" +
                                  name.substr(0, 64) +
                                  (name.size() > 64 ? "..." : "") +
                                  "' (inline SOCs go in 'soc_text')");
    }
    flow.soc = context.intern(load_benchmark(name));
  }
  flow.workload.pattern_count = request.pattern_count;
  flow.workload.seed = request.seed;
  flow.workload.groupings = request.groupings;
  flow.widths = request.widths;
  flow.optimizer.restarts = request.restarts;
  // The worker pool is the server's fan-out: a job's restarts stay on the
  // worker that runs it instead of nesting a pool inside every worker.
  flow.optimizer.threads = 1;
  flow.optimizer.delta_eval = request.delta_eval;
  return flow;
}

/// The ServerStats + ContextStats counters as ("group.name", value) pairs,
/// in the order both the `stats` response and the "serve.stats" record
/// list them.
std::vector<std::pair<std::string_view, std::int64_t>> stat_counters(
    const ServerStats& server, const ContextStats& context) {
  return {
      {"server.received", server.received},
      {"server.malformed", server.malformed},
      {"server.jobs", server.jobs},
      {"server.followers", server.followers},
      {"server.completed", server.completed},
      {"server.cancelled", server.cancelled},
      {"server.failed", server.failed},
      {"context.requests", context.requests},
      {"context.result_hits", context.result_hits},
      {"context.result_misses", context.result_misses},
      {"context.workload_hits", context.workload_hits},
      {"context.workload_misses", context.workload_misses},
      {"context.cancelled", context.cancelled},
      {"context.socs_interned", context.socs_interned},
  };
}

/// Reads the next line of `in` into `line`, newline excluded, keeping at
/// most kMaxRequestLineBytes of it: a longer line is consumed through its
/// newline and flagged `overlong`. Returns false at end of input.
bool read_bounded_line(std::istream& in, std::string& line, bool& overlong) {
  line.clear();
  overlong = false;
  std::streambuf& buffer = *in.rdbuf();
  for (;;) {
    const int c = buffer.sbumpc();
    if (c == std::char_traits<char>::eof()) return !line.empty() || overlong;
    if (c == '\n') return true;
    if (line.size() == kMaxRequestLineBytes) overlong = true;
    if (!overlong) line.push_back(static_cast<char>(c));
  }
}

}  // namespace

JobServer::JobServer(ServerOptions options, Sink sink)
    : options_(options),
      sink_(std::move(sink)),
      context_(options.context),
      pool_(options.threads == 0 ? ThreadPool::hardware_threads()
                                 : std::max(1, options.threads)) {
  if (!options_.stats_store_path.empty() && options_.stats_store_every > 0) {
    stats_store_ =
        std::make_unique<store::ResultStore>(options_.stats_store_path);
  }
}

JobServer::~JobServer() { drain(); }

void JobServer::emit(const std::string& line) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_(line);
}

bool JobServer::submit_line(const std::string& line) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.received;
    if (!accepting_) return false;
  }

  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& err) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.malformed;
    }
    emit(error_response("", err.what()));
    return true;
  }

  switch (request.op) {
    case RequestOp::kPing:
      emit(pong_response());
      return true;
    case RequestOp::kStats:
      write_stats_response();
      return true;
    case RequestOp::kShutdown: {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        accepting_ = false;
      }
      drain();
      emit(bye_response());
      return false;
    }
    case RequestOp::kCancel:
      handle_cancel(request);
      return true;
    case RequestOp::kOptimize:
    case RequestOp::kSweep:
      handle_job(std::move(request));
      return true;
  }
  return true;
}

void JobServer::reject_line(const std::string& error) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.received;
    ++stats_.malformed;
  }
  emit(error_response("", error));
}

void JobServer::handle_job(Request request) {
  std::shared_ptr<JobGroup> group;
  try {
    auto fresh = std::make_shared<JobGroup>();
    fresh->flow = build_flow_request(request, context_);
    fresh->flow.cancel = &fresh->token;
    fresh->key = SitamContext::request_key(fresh->flow);
    fresh->request = request;
    group = std::move(fresh);
  } catch (const std::exception& err) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed;
    }
    emit(error_response(request.id, err.what()));
    return;
  }

  bool leader = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (jobs_by_id_.find(request.id) != jobs_by_id_.end()) {
      ++stats_.failed;
      emit(error_response(request.id, "job id already in flight"));
      return;
    }
    ++stats_.jobs;
    if (!request.trace) {
      const auto it = groups_.find(group->key);
      if (it != groups_.end()) {
        // Dedupe: ride the in-flight computation instead of queuing one.
        it->second->members.push_back(request.id);
        jobs_by_id_[request.id] = it->second;
        ++stats_.followers;
        leader = false;
      }
    }
    if (leader) {
      group->members.push_back(request.id);
      if (!request.trace) groups_[group->key] = group;
      jobs_by_id_[request.id] = group;
      ++in_flight_;
    }
  }
  emit(ack_response(request));
  if (leader) {
    const JobPriority priority = request.priority;
    pool_.submit(priority, [this, group] { run_group(group); });
  }
}

void JobServer::handle_cancel(const Request& request) {
  std::shared_ptr<JobGroup> group;
  bool last = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_by_id_.find(request.id);
    if (it != jobs_by_id_.end()) {
      group = it->second;
      std::vector<std::string>& members = group->members;
      members.erase(std::remove(members.begin(), members.end(), request.id),
                    members.end());
      jobs_by_id_.erase(it);
      ++stats_.cancelled;
      if (members.empty()) {
        last = true;
        const auto git = groups_.find(group->key);
        if (git != groups_.end() && git->second == group) groups_.erase(git);
      }
    }
  }
  if (group == nullptr) {
    emit(error_response(request.id, "unknown job id"));
    return;
  }
  // The token fires only when the last member leaves: a follower keeps a
  // deduped computation alive — its result is still owed to someone.
  if (last) group->token.request();
  emit(cancelled_response(request.id));
}

void JobServer::run_group(const std::shared_ptr<JobGroup>& group) {
  if (options_.progress) {
    emit(progress_response(group->request.id, "running"));
  }

  FlowResult result;
  std::string extra;
  std::string error;
  bool ok = false;
  bool was_cancelled = false;
  try {
    if (group->request.trace) {
      // Exclusive: one TraceSession may exist process-wide, and the dump
      // must contain exactly this job's spans.
      const std::unique_lock<std::shared_mutex> trace_lock(trace_mutex_);
      obs::RunManifest manifest = obs::RunManifest::collect("sitam serve");
      manifest.scenario = group->flow.soc->name;
      manifest.seed = group->request.seed;
      manifest.threads = options_.threads;
      obs::TraceSession session;
      result = context_.run(group->flow);
      const obs::TraceDump dump = session.stop();
      JsonWriter json;
      json.begin_object();
      json.key("manifest");
      manifest.write(json);
      json.key("trace");
      obs::write_chrome_trace(json, dump, manifest);
      json.key("metrics");
      obs::write_metrics_json(json, dump, manifest);
      json.end_object();
      extra = json.str();
    } else {
      const std::shared_lock<std::shared_mutex> trace_lock(trace_mutex_);
      result = context_.run(group->flow);
    }
    ok = true;
  } catch (const Cancelled&) {
    was_cancelled = true;
  } catch (const std::exception& err) {
    error = err.what();
  }

  std::vector<std::string> members;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    members = std::move(group->members);
    group->members.clear();
    const auto it = groups_.find(group->key);
    if (it != groups_.end() && it->second == group) groups_.erase(it);
    for (const std::string& id : members) jobs_by_id_.erase(id);
    if (ok) {
      stats_.completed += static_cast<std::int64_t>(members.size());
    } else if (was_cancelled) {
      // Members cancelled one by one were counted in handle_cancel; any
      // stragglers here (e.g. a future shutdown-cancel path) count now.
      stats_.cancelled += static_cast<std::int64_t>(members.size());
    } else {
      stats_.failed += static_cast<std::int64_t>(members.size());
    }
  }
  for (const std::string& id : members) {
    if (ok) {
      emit(result_response(id, group->request, result, extra));
    } else if (was_cancelled) {
      emit(cancelled_response(id));
    } else {
      emit(error_response(id, error));
    }
  }

  maybe_snapshot_stats();

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
  }
  idle_.notify_all();
}

void JobServer::maybe_snapshot_stats() {
  if (stats_store_ == nullptr) return;
  ServerStats server;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // One snapshot per cadence boundary, even when a burst of completions
    // jumps several multiples at once.
    if (stats_.completed <
        (stats_snapshots_ + 1) * options_.stats_store_every) {
      return;
    }
    stats_snapshots_ = stats_.completed / options_.stats_store_every;
    server = stats_;
  }

  store::StoreRecord record;
  record.manifest = obs::RunManifest::collect("sitam serve");
  record.manifest.scenario = "serve.stats";
  record.manifest.threads = options_.threads;
  record.manifest.add_extra("stats_store_every",
                            std::to_string(options_.stats_store_every));
  record.scenario = "serve.stats";
  record.config_hash = store::store_hash_hex(
      "every=" + std::to_string(options_.stats_store_every) +
      ";threads=" + std::to_string(options_.threads));
  for (const auto& [name, value] : stat_counters(server, context_.stats())) {
    record.metrics[std::string(name)] = static_cast<double>(value);
  }
  {
    // The digest covers the metric payload: two snapshots with identical
    // counters digest identically.
    JsonWriter json;
    json.begin_object();
    for (const auto& [name, value] : record.metrics) json.kv(name, value);
    json.end_object();
    record.result_digest = store::store_hash_hex(json.str());
  }
  if (!stats_store_->append(record)) {
    SITAM_WARN << "serve: stats snapshot append failed for "
               << options_.stats_store_path;
  }
}

void JobServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

ServerStats JobServer::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void JobServer::write_stats_response() {
  JsonWriter json;
  json.begin_object().kv("type", "stats");
  std::string_view group;  // "server", then "context"
  for (const auto& [name, value] : stat_counters(stats(), context_.stats())) {
    const std::string_view prefix = name.substr(0, name.find('.'));
    if (prefix != group) {
      if (!group.empty()) json.end_object();
      group = prefix;
      json.key(group).begin_object();
    }
    json.kv(name.substr(group.size() + 1), value);
  }
  json.end_object();
  json.end_object();
  emit(json.str());
}

int serve_stream(std::istream& in, std::ostream& out,
                 const ServerOptions& options) {
  JobServer server(options, [&out](const std::string& line) {
    out << line << '\n' << std::flush;
  });
  std::string line;
  bool overlong = false;
  while (read_bounded_line(in, line, overlong)) {
    if (overlong) {
      server.reject_line("request line exceeds " +
                         std::to_string(kMaxRequestLineBytes) + " bytes");
      continue;
    }
    if (line.empty()) continue;
    if (!server.submit_line(line)) break;
  }
  server.drain();
  return 0;
}

}  // namespace sitam::serve
