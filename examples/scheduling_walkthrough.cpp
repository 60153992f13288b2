// Step-by-step walkthrough of Algorithm 1 (ScheduleSITest) on a hand-built
// TestRail architecture, with an ASCII Gantt chart of the resulting
// schedule. Shows how SI tests occupying disjoint rail sets overlap while
// conflicting ones serialize, and how the bottleneck TAM sets each test's
// duration.
//
//   scheduling_walkthrough [--soc=d695] [--wmax=16] [--nr=4000]
#include <algorithm>
#include <fstream>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/flow.h"
#include "core/gantt.h"
#include "soc/benchmarks.h"
#include "tam/evaluator.h"
#include "tam/optimizer.h"
#include "util/cli.h"

int main(int argc, char** argv) try {
  using namespace sitam;
  const CliArgs args(argc, argv);
  args.require_known({"soc", "wmax", "nr", "svg"});
  const std::string soc_name = args.get_or("soc", std::string("d695"));
  const int w_max = static_cast<int>(args.get_or("wmax", std::int64_t{16}));
  const std::int64_t n_r = args.get_or("nr", std::int64_t{4000});

  const Soc soc = load_benchmark(soc_name);
  SiWorkloadConfig config;
  config.pattern_count = n_r;
  config.groupings = {4};
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const SiTestSet& tests = workload.tests(4);

  std::cout << "SI test groups (i = 4):\n";
  for (const SiTestGroup& g : tests.groups) {
    std::cout << "  " << g.label << ": " << g.patterns
              << " compacted patterns over " << g.cores.size() << " cores"
              << (g.is_remainder ? " (remainder: loads every boundary)"
                                 : "")
              << "\n";
  }
  std::cout << "\n";

  const TestTimeTable table(soc, w_max);
  const OptimizeResult result = optimize_tam(soc, table, tests, w_max);
  const TamEvaluator evaluator(soc, table, tests);
  const Evaluation ev = evaluator.evaluate(result.architecture);

  std::cout << "optimized architecture (W_max = " << w_max
            << "): " << result.architecture.describe() << "\n";
  std::cout << "T_in = " << ev.t_in << " cc, T_si = " << ev.t_si
            << " cc, T_soc = " << ev.t_soc << " cc\n\n";

  std::cout << "Algorithm 1 trace (longest-first among schedulable):\n";
  for (const SiScheduleItem& item : ev.schedule.items) {
    const SiTestGroup& g = tests.groups[static_cast<std::size_t>(item.group)];
    std::cout << "  t=" << item.begin << ": start " << g.label << " for "
              << item.duration << " cc on rails {";
    for (std::size_t i = 0; i < item.rails.size(); ++i) {
      std::cout << (i ? "," : "") << "TAM" << item.rails[i] + 1;
    }
    std::cout << "}, bottleneck TAM" << item.bottleneck_rail + 1 << "\n";
  }
  std::cout << "\n";
  std::cout << "SI schedule Gantt (one row per rail, '.' = idle):\n"
            << ascii_si_gantt(ev, result.architecture, tests);
  if (const auto svg_path = args.get("svg")) {
    std::ofstream svg(*svg_path);
    svg << svg_test_gantt(ev, result.architecture, tests);
    std::cout << "\nwrote " << *svg_path << "\n";
  }
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
