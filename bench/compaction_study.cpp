// The §3 compaction study, three sections:
//   (a) kernel: the staged first-fit greedy sweep vs the sparse reference
//       sweep — identical output, measured speedup — and the staged count
//       on the caller vs on a pool of every hardware thread — identical
//       counts, measured speedup (both in BENCH_compaction.json);
//   (b) quality: the greedy sweep achieves compaction ratios similar to a
//       clique-covering approximation (first-fit coloring of the conflict
//       graph) at a fraction of the runtime;
//   (c) volume: the two-dimensional scheme reduces SI test data volume
//       substantially beyond pattern-count-only compaction.
//
// `--smoke` runs a reduced version of all three sections (small N_r, one
// timing repeat, no JSON artifact) — fast enough to live in the tier-1
// ctest suite as a bench smoke check. Any other flag is an error.
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "compaction_oracle.h"
#include "interconnect/terminal_space.h"
#include "obs/manifest.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace sitam;

namespace {

struct KernelRow {
  std::string soc;
  std::int64_t n_r = 0;
  double reference_seconds = 0.0;
  double staged_seconds = 0.0;
  std::size_t compacted = 0;
  bool identical = false;
};

/// One staged count of a whole raw set: on the caller, then on the pool.
struct StagedRow {
  std::string soc;
  std::int64_t n_r = 0;
  double caller_seconds = 0.0;
  double pool_seconds = 0.0;
  std::size_t compacted = 0;
  bool identical = false;
};

/// Best-of-`repeats` timing of `run` (the host is a shared box; the minimum
/// is the robust estimator of the undisturbed runtime).
template <typename F>
double best_of(int repeats, const F& run) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    run();
    const double seconds = watch.seconds();
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

void write_kernel_report(const std::string& path,
                         const std::vector<KernelRow>& rows,
                         const std::vector<StagedRow>& staged, int repeats,
                         int pool_threads) {
  obs::RunManifest manifest = obs::RunManifest::collect("compaction_study");
  manifest.seed = 0x20070604ULL;
  manifest.threads = pool_threads;
  manifest.add_extra("timing_repeats", std::to_string(repeats));

  JsonWriter json;
  json.begin_object();
  json.key("manifest");
  manifest.write(json);
  json.key("benchmark")
      .value("compact_greedy kernel: staged vs reference; staged count: "
             "caller vs pool");
  json.key("generator_seed").value(std::int64_t{0x20070604LL});
  json.key("timing_repeats").value(std::int64_t{repeats});
  json.key("rows").begin_array();
  for (const KernelRow& row : rows) {
    json.begin_object();
    json.key("soc").value(row.soc);
    json.key("n_r").value(row.n_r);
    json.key("reference_seconds").value(row.reference_seconds);
    // The key predates the staged kernel; kept so stored rows compare.
    json.key("packed_seconds").value(row.staged_seconds);
    json.key("speedup").value(row.staged_seconds > 0.0
                                  ? row.reference_seconds / row.staged_seconds
                                  : 0.0);
    json.key("compacted_count")
        .value(static_cast<std::int64_t>(row.compacted));
    json.key("output_identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.key("staged_rows").begin_array();
  for (const StagedRow& row : staged) {
    json.begin_object();
    json.key("soc").value(row.soc);
    json.key("n_r").value(row.n_r);
    json.key("caller_seconds").value(row.caller_seconds);
    json.key("pool_seconds").value(row.pool_seconds);
    json.key("pool_threads").value(std::int64_t{pool_threads});
    json.key("speedup").value(row.pool_seconds > 0.0
                                  ? row.caller_seconds / row.pool_seconds
                                  : 0.0);
    json.key("compacted_count")
        .value(static_cast<std::int64_t>(row.compacted));
    json.key("results_identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::ofstream out(path);
  out << json.str() << "\n";
  std::cout << "wrote " << path << "\n";
}

/// Min-of-`repeats` staged counts of every pattern on `executor`.
double time_staged_count(int repeats, std::span<const PatternView> views,
                         std::span<const std::uint32_t> all,
                         const TerminalSpace& ts, int bus_width,
                         Executor& executor, std::size_t& count) {
  return best_of(repeats, [&] {
    count = start_greedy_count(views, all, ts.total(), bus_width, executor)
                .get();
  });
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known({"smoke"});
  const bool smoke = args.has("smoke");
  const std::vector<std::int64_t> kernel_sizes =
      smoke ? std::vector<std::int64_t>{500, 2000}
            : std::vector<std::int64_t>{2000, 10000, 30000};
  const int repeats = smoke ? 1 : 3;

  std::cout << "== Staged first-fit kernel vs sparse reference sweep ==\n";
  TextTable kernel;
  kernel.add_column("SOC", Align::kLeft);
  kernel.add_column("N_r");
  kernel.add_column("reference (s)");
  kernel.add_column("staged (s)");
  kernel.add_column("speedup");
  kernel.add_column("compacted");
  kernel.add_column("identical");
  std::vector<KernelRow> kernel_rows;

  for (const char* soc_name : {"p34392", "p93791"}) {
    const Soc soc = load_benchmark(soc_name);
    const TerminalSpace ts(soc);
    for (const std::int64_t n_r : kernel_sizes) {
      Rng rng(0x20070604ULL);
      const RandomPatternConfig config;
      const auto patterns = generate_random_patterns(ts, n_r, config, rng);

      CompactionResult reference;
      const double reference_seconds = best_of(repeats, [&] {
        reference = sitam::testing::compact_greedy_reference(
            patterns, ts.total(), config.bus_width);
      });
      CompactionResult staged;
      const double staged_seconds = best_of(repeats, [&] {
        staged = compact_greedy(patterns, ts.total(), config.bus_width);
      });

      KernelRow row;
      row.soc = soc_name;
      row.n_r = n_r;
      row.reference_seconds = reference_seconds;
      row.staged_seconds = staged_seconds;
      row.compacted = staged.patterns.size();
      row.identical = reference.patterns == staged.patterns;
      kernel_rows.push_back(row);

      kernel.begin_row();
      kernel.cell(std::string(soc_name));
      kernel.cell(n_r);
      kernel.cell(reference_seconds, 3);
      kernel.cell(staged_seconds, 3);
      kernel.cell(staged_seconds > 0.0 ? reference_seconds / staged_seconds
                                       : 0.0,
                  2);
      kernel.cell(static_cast<std::int64_t>(row.compacted));
      kernel.cell(std::string(row.identical ? "yes" : "NO"));
    }
  }
  std::cout << kernel
            << "(same sweep decisions, 64 classes per conflict word)\n\n";

  const int pool_threads = ThreadPool::hardware_threads();
  std::cout << "== Staged count: caller vs pool of " << pool_threads
            << " ==\n";
  TextTable counts;
  counts.add_column("SOC", Align::kLeft);
  counts.add_column("N_r");
  counts.add_column("caller (s)");
  counts.add_column("pool (s)");
  counts.add_column("speedup");
  counts.add_column("compacted");
  counts.add_column("identical");
  std::vector<StagedRow> staged_rows;
  std::vector<std::int64_t> staged_sizes = kernel_sizes;
  if (!smoke) staged_sizes.push_back(100000);
  Executor caller(1);
  Executor pool(pool_threads);
  for (const char* soc_name : {"p34392", "p93791"}) {
    const Soc soc = load_benchmark(soc_name);
    const TerminalSpace ts(soc);
    for (const std::int64_t n_r : staged_sizes) {
      Rng rng(0x20070604ULL);
      const RandomPatternConfig config;
      const auto patterns = generate_random_patterns(ts, n_r, config, rng);
      const std::vector<PatternView> views = pattern_views(patterns);
      std::vector<std::uint32_t> all(views.size());
      std::iota(all.begin(), all.end(), std::uint32_t{0});

      StagedRow row;
      row.soc = soc_name;
      row.n_r = n_r;
      std::size_t on_pool = 0;
      row.caller_seconds = time_staged_count(
          repeats, views, all, ts, config.bus_width, caller, row.compacted);
      row.pool_seconds = time_staged_count(repeats, views, all, ts,
                                           config.bus_width, pool, on_pool);
      row.identical = on_pool == row.compacted;
      staged_rows.push_back(row);

      counts.begin_row();
      counts.cell(std::string(soc_name));
      counts.cell(n_r);
      counts.cell(row.caller_seconds, 3);
      counts.cell(row.pool_seconds, 3);
      counts.cell(row.pool_seconds > 0.0
                      ? row.caller_seconds / row.pool_seconds
                      : 0.0,
                  2);
      counts.cell(static_cast<std::int64_t>(row.compacted));
      counts.cell(std::string(row.identical ? "yes" : "NO"));
    }
  }
  std::cout << counts
            << "(one count of every pattern; (stage, chunk) tasks on the "
               "pool)\n\n";

  std::cout << "== Greedy sweep vs clique-cover approximation ==\n";
  TextTable quality;
  quality.add_column("SOC", Align::kLeft);
  quality.add_column("N_r");
  quality.add_column("greedy");
  quality.add_column("greedy (s)");
  quality.add_column("first-fit");
  quality.add_column("first-fit (s)");
  quality.add_column("ratio g/ff");

  for (const char* soc_name : {"p34392", "p93791"}) {
    const Soc soc = load_benchmark(soc_name);
    const TerminalSpace ts(soc);
    for (const std::int64_t n_r : kernel_sizes) {
      Rng rng(0x20070604ULL);
      const RandomPatternConfig config;
      const auto patterns =
          generate_random_patterns(ts, n_r, config, rng);
      const auto greedy =
          compact_greedy(patterns, ts.total(), config.bus_width);
      const auto first_fit =
          compact_first_fit(patterns, ts.total(), config.bus_width);
      quality.begin_row();
      quality.cell(std::string(soc_name));
      quality.cell(n_r);
      quality.cell(static_cast<std::int64_t>(greedy.stats.compacted_count));
      quality.cell(greedy.stats.seconds, 3);
      quality.cell(
          static_cast<std::int64_t>(first_fit.stats.compacted_count));
      quality.cell(first_fit.stats.seconds, 3);
      quality.cell(static_cast<double>(greedy.stats.compacted_count) /
                       static_cast<double>(first_fit.stats.compacted_count),
                   3);
    }
  }
  std::cout << quality
            << "(the paper: \"similar compaction ratios ... with "
               "significantly less computation time\")\n\n";

  std::cout << "== 1-D vs 2-D compaction: SI test data volume ==\n";
  TextTable volume;
  volume.add_column("SOC", Align::kLeft);
  volume.add_column("i");
  volume.add_column("patterns");
  volume.add_column("volume (bits)");
  volume.add_column("saved vs i=1 (%)");
  const std::int64_t volume_patterns = smoke ? 2000 : 20000;
  for (const char* soc_name : {"p34392", "p93791"}) {
    const Soc soc = load_benchmark(soc_name);
    const TerminalSpace ts(soc);
    Rng rng(0x20070604ULL);
    const RandomPatternConfig pattern_config;
    const auto patterns =
        generate_random_patterns(ts, volume_patterns, pattern_config, rng);
    const GroupingConfig grouping_config;
    std::int64_t base = 0;
    for (const int parts : {1, 2, 4, 8}) {
      const SiTestSet set =
          build_si_test_set(patterns, ts, parts, grouping_config);
      std::int64_t bits = 0;
      for (const SiTestGroup& g : set.groups) {
        std::int64_t length = 0;
        for (const int c : g.cores) {
          length += soc.modules[static_cast<std::size_t>(c)].woc();
        }
        bits += g.patterns * length;
      }
      if (parts == 1) base = bits;
      volume.begin_row();
      volume.cell(std::string(soc_name));
      volume.cell(static_cast<std::int64_t>(parts));
      volume.cell(set.total_patterns());
      volume.cell(bits);
      volume.cell(
          100.0 * static_cast<double>(base - bits) / static_cast<double>(base),
          2);
    }
  }
  std::cout << volume;

  if (!smoke) {
    write_kernel_report("BENCH_compaction.json", kernel_rows, staged_rows,
                        repeats, pool_threads);
  }

  for (const KernelRow& row : kernel_rows) {
    if (!row.identical) {
      std::cerr << "FAIL: staged kernel output diverged from the reference "
                   "sweep on "
                << row.soc << " N_r=" << row.n_r << "\n";
      return 1;
    }
  }
  for (const StagedRow& row : staged_rows) {
    if (!row.identical) {
      std::cerr << "FAIL: the staged count on the pool differs from the "
                   "count on the caller on "
                << row.soc << " N_r=" << row.n_r << "\n";
      return 1;
    }
  }
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
