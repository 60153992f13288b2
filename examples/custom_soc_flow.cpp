// Define your own SOC in the `.soc` format, then run the complete SI-aware
// test architecture optimization flow on it.
//
//   custom_soc_flow [--file=my.soc] [--wmax=12] [--nr=3000]
//
// Without --file, a built-in example SOC description is used, which also
// documents the format.
#include <cstdint>
#include <iostream>
#include <stdexcept>

#include "core/flow.h"
#include "core/report.h"
#include "soc/parser.h"
#include "soc/writer.h"
#include "util/cli.h"

namespace {

// A hypothetical set-top-box SOC: a CPU, a DSP, two accelerators, DRAM and
// peripheral controllers, and a wrapped glue-logic block.
constexpr const char* kExampleSoc = R"(Soc stb7
# <id> <name>; ScanChains accepts "L" and "NxL" forms.
Module 1 cpu
  Inputs 96
  Outputs 128
  ScanChains 8x220
  Patterns 450
End

Module 2 dsp
  Inputs 64
  Outputs 64
  ScanChains 6x180
  Patterns 380
End

Module 3 video_acc
  Inputs 140
  Outputs 110
  ScanChains 12x150
  Patterns 260
End

Module 4 audio_acc
  Inputs 48
  Outputs 40
  ScanChains 4x90
  Patterns 210
End

Module 5 dram_ctrl
  Inputs 80
  Outputs 120
  ScanChains 2x60
  Patterns 150
End

Module 6 periph
  Inputs 56
  Outputs 72
  ScanChains 3x70
  Patterns 120
End

Module 7 glue
  Inputs 30
  Outputs 36
  Patterns 60
End
)";

}  // namespace

int main(int argc, char** argv) try {
  using namespace sitam;
  const CliArgs args(argc, argv);
  args.require_known({"wmax", "nr", "file"});
  const int w_max = static_cast<int>(args.get_or("wmax", std::int64_t{12}));
  const std::int64_t n_r = args.get_or("nr", std::int64_t{3000});

  Soc soc;
  if (const auto file = args.get("file")) {
    soc = load_soc_file(*file);
    std::cout << "loaded " << soc.name << " from " << *file << "\n\n";
  } else {
    soc = parse_soc(kExampleSoc);
    std::cout << "using the built-in example SOC; its .soc source:\n\n"
              << soc_to_text(soc) << "\n";
  }

  std::cout << soc.name << ": " << soc.core_count() << " wrapped cores, "
            << soc.total_test_data_volume() << " bits InTest volume, "
            << soc.total_woc() << " driver-side boundary cells\n\n";

  SiWorkloadConfig config;
  config.pattern_count = n_r;
  config.groupings = {1, 2, 4};
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const SweepResult sweep =
      run_sweep(workload, {w_max / 2, w_max, w_max * 2});

  std::cout << sweep_caption(sweep) << "\n" << render_paper_table(sweep);
  std::cout << "\nbest architecture at W_max = " << w_max << ":\n";
  const ExperimentOutcome& mid = sweep.rows[1];
  for (std::size_t i = 0; i < mid.per_grouping.size(); ++i) {
    if (workload.groupings()[i] != mid.best_grouping) continue;
    const OptimizeResult& best = mid.per_grouping[i];
    std::cout << describe_evaluation(best.architecture, best.evaluation,
                                     workload.tests(mid.best_grouping));
  }
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
