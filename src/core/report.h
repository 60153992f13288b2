// Rendering of sweep results in the layout of the paper's Tables 2 and 3.
#pragma once

#include <string>

#include "core/flow.h"
#include "util/table.h"

namespace sitam {

/// Builds the paper-style table: one row per W_max with T_[8], T_g_i per
/// grouping, T_min, ΔT_[8] (%) and ΔT_g (%).
[[nodiscard]] TextTable render_paper_table(const SweepResult& sweep);

/// Header line like "SOC p93791, N_r = 100000 (times in clock cycles)".
[[nodiscard]] std::string sweep_caption(const SweepResult& sweep);

/// Per-architecture detail: rails, widths, rail times and the SI schedule
/// of one outcome (used by examples and the Fig. 3 walkthrough).
[[nodiscard]] std::string describe_evaluation(const TamArchitecture& arch,
                                              const Evaluation& evaluation,
                                              const SiTestSet& tests);

/// One-line evaluator accounting, e.g.
/// "118 evaluations: 105 delta hits + 13 full ScheduleSITest runs (89.0 %
/// avoided)". A delta hit patches the previous schedule state instead of
/// running ScheduleSITest.
[[nodiscard]] std::string render_evaluator_stats(const EvaluatorStats& stats);

}  // namespace sitam
