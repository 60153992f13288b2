// Pins Algorithm 2's outcome, byte for byte, across its option space: for
// three synthetic SOCs and p34392/p93791, at W 8 and 24, under all 24
// EvaluatorOptions combinations and both mergeTAMs leftover rules (cheap
// scan, precise everywhere), four restarts each, the final T_soc and the
// architecture are written to tests/golden/alg2_outcomes.txt. Pruning and
// evaluation shortcuts may change which candidates get evaluated, never
// what Algorithm 2 returns, so any byte that moves here is a bug.
// Regenerate with
//   SITAM_UPDATE_GOLDEN=1 ctest -R alg2_golden_test
// only for an intended algorithm change, and record it in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden_file.h"
#include "tam/optimizer.h"
#include "tam_instances.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

using tamtest::Instance;

std::string outcomes() {
  std::vector<Instance> instances;
  instances.push_back(tamtest::synthetic(10, 3, 24, 0xb0d1ULL));
  instances.push_back(tamtest::synthetic(16, 4, 24, 0xb0d2ULL));
  instances.push_back(tamtest::synthetic(24, 2, 24, 0xb0d3ULL));
  instances.push_back(tamtest::benchmark("p34392", 4, 24));
  instances.push_back(tamtest::benchmark("p93791", 4, 24));
  std::ostringstream os;
  for (Instance& inst : instances) {
    assign_si_power(inst.tests, inst.soc, 1, 50);
    const TestTimeTable table(inst.soc, inst.w_max);
    for (const int w : {8, 24}) {
      for (const EvaluatorOptions& options :
           tamtest::option_variants(inst.tests)) {
        for (const bool fast : {true, false}) {
          OptimizerConfig config;
          config.evaluator = options;
          config.fast_candidate_scan = fast;
          config.restarts = 4;
          config.threads = 1;
          const OptimizeResult result =
              optimize_tam(inst.soc, table, inst.tests, w, config);
          os << inst.name << " W=" << w << " " << tamtest::describe(options)
             << (fast ? " scan=cheap" : " scan=precise")
             << " t_soc=" << result.evaluation.t_soc << " "
             << result.architecture.describe() << "\n";
        }
      }
    }
  }
  return os.str();
}

TEST(Alg2Golden, OutcomesMatchTheGoldenFile) {
  golden::expect_matches_golden("alg2_outcomes.txt", outcomes());
}

}  // namespace
}  // namespace sitam
