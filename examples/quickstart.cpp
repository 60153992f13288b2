// Quickstart: optimize the test architecture of an embedded benchmark SOC
// for both core-internal logic and core-external interconnect SI faults.
//
//   quickstart [--soc=d695] [--wmax=16] [--nr=2000] [--seed=1]
//
// The flow is the public API end-to-end: prepare an SI workload (generate
// random vector pairs per the paper's §5 and compact them two-
// dimensionally), run the SI-aware TAM optimizer, and compare against the
// SI-oblivious TR-Architect baseline.
#include <cstdint>
#include <iostream>
#include <stdexcept>

#include "core/flow.h"
#include "core/report.h"
#include "soc/benchmarks.h"
#include "util/cli.h"

int main(int argc, char** argv) try {
  using namespace sitam;
  const CliArgs args(argc, argv);
  args.require_known({"soc", "wmax", "nr", "seed"});
  const std::string soc_name = args.get_or("soc", std::string("d695"));
  const int w_max = static_cast<int>(args.get_or("wmax", std::int64_t{16}));
  const std::int64_t n_r = args.get_or("nr", std::int64_t{2000});
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{1}));

  const Soc soc = load_benchmark(soc_name);
  std::cout << "SOC " << soc.name << ": " << soc.core_count()
            << " cores, total WOC " << soc.total_woc() << " bits\n\n";

  SiWorkloadConfig config;
  config.pattern_count = n_r;
  config.seed = seed;
  const SiWorkload workload = SiWorkload::prepare(soc, config);

  for (const int parts : workload.groupings()) {
    const SiTestSet& tests = workload.tests(parts);
    std::cout << "grouping i=" << parts << ": " << tests.total_patterns()
              << " compacted SI patterns in " << tests.groups.size()
              << " groups (from " << n_r << " raw)\n";
  }
  std::cout << "\n";

  const ExperimentOutcome outcome = run_experiment(workload, w_max);
  std::cout << "W_max = " << w_max << "\n";
  std::cout << "  T_[8] (SI-oblivious TR-Architect): " << outcome.t_baseline
            << " cc\n";
  for (std::size_t i = 0; i < outcome.per_grouping.size(); ++i) {
    std::cout << "  T_g" << workload.groupings()[i] << " = "
              << outcome.per_grouping[i].evaluation.t_soc << " cc\n";
  }
  std::cout << "  T_min = " << outcome.t_min << " cc (grouping i="
            << outcome.best_grouping << ")\n";
  std::cout << "  dT_[8] = " << outcome.delta_baseline_pct() << " %\n";
  std::cout << "  dT_g  = " << outcome.delta_g_pct() << " %\n\n";

  // Show the winning architecture in detail.
  for (std::size_t i = 0; i < outcome.per_grouping.size(); ++i) {
    if (workload.groupings()[i] != outcome.best_grouping) continue;
    const OptimizeResult& best = outcome.per_grouping[i];
    std::cout << describe_evaluation(best.architecture, best.evaluation,
                                     workload.tests(outcome.best_grouping));
  }
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
