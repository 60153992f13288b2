#include "core/report.h"

#include <iomanip>
#include <sstream>

namespace sitam {

TextTable render_paper_table(const SweepResult& sweep) {
  TextTable table;
  table.add_column("Wmax");
  table.add_column("T[8] (cc)");
  for (const int parts : sweep.groupings) {
    table.add_column("Tg" + std::to_string(parts) + " (cc)");
  }
  table.add_column("Tmin (cc)");
  table.add_column("dT[8] (%)");
  table.add_column("dTg (%)");

  for (const ExperimentOutcome& row : sweep.rows) {
    table.begin_row();
    table.cell(static_cast<std::int64_t>(row.w_max));
    table.cell(row.t_baseline);
    for (const OptimizeResult& result : row.per_grouping) {
      table.cell(result.evaluation.t_soc);
    }
    table.cell(row.t_min);
    table.cell(row.delta_baseline_pct(), 2);
    table.cell(row.delta_g_pct(), 2);
  }
  return table;
}

std::string sweep_caption(const SweepResult& sweep) {
  std::ostringstream os;
  os << "SOC " << sweep.soc_name << ", N_r = " << sweep.pattern_count
     << " (times in clock cycles)";
  return os.str();
}

std::string describe_evaluation(const TamArchitecture& arch,
                                const Evaluation& evaluation,
                                const SiTestSet& tests) {
  std::ostringstream os;
  os << "architecture: " << arch.describe() << "\n";
  os << "T_in = " << evaluation.t_in << " cc, T_si = " << evaluation.t_si
     << " cc, T_soc = " << evaluation.t_soc << " cc\n";
  os << "rails:\n";
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    os << "  TAM" << r + 1 << " (w=" << arch.rails[r].width
       << "): time_in=" << evaluation.rails[r].time_in
       << " time_si=" << evaluation.rails[r].time_si
       << " time_used=" << evaluation.rails[r].time_used << "\n";
  }
  os << "SI schedule:\n";
  for (const SiScheduleItem& item : evaluation.schedule.items) {
    const SiTestGroup& group =
        tests.groups[static_cast<std::size_t>(item.group)];
    os << "  " << group.label << ": [" << item.begin << ", " << item.end
       << ") on rails {";
    for (std::size_t i = 0; i < item.rails.size(); ++i) {
      if (i != 0) os << ',';
      os << "TAM" << item.rails[i] + 1;
    }
    os << "}, bottleneck TAM" << item.bottleneck_rail + 1 << "\n";
  }
  os << "T_si makespan = " << evaluation.schedule.makespan << " cc\n";
  return os.str();
}

std::string render_evaluator_stats(const EvaluatorStats& stats) {
  if (stats.evaluations == 0) {
    // Distinct empty-stats string: no hit-rate arithmetic on an empty
    // denominator and no misleading "0.0 % avoided" figure.
    return "0 evaluations (evaluator never invoked)";
  }
  std::ostringstream os;
  os << stats.evaluations << " evaluations: " << stats.delta_hits
     << " delta hits + " << stats.full_evaluations()
     << " full ScheduleSITest runs ("
     << std::fixed << std::setprecision(1) << 100.0 * stats.hit_rate()
     << " % avoided)";
  return os.str();
}

}  // namespace sitam
