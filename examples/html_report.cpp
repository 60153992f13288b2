// Generates a self-contained HTML report for one SOC: workload and
// compaction summary, the paper-style sweep table, the winning
// architecture with its rail utilization, and an inline SVG Gantt chart of
// the full test session.
//
//   html_report [--soc=d695] [--nr=4000] [--widths=8,16,32]
//               [--out=report.html]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/flow.h"
#include "core/gantt.h"
#include "core/report.h"
#include "soc/benchmarks.h"
#include "tam/area.h"
#include "tam/bounds.h"
#include "util/cli.h"

namespace {

using namespace sitam;

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known({"soc", "nr", "widths", "out"});
  const std::string soc_name = args.get_or("soc", std::string("d695"));
  const std::int64_t n_r = args.get_or("nr", std::int64_t{4000});
  const auto width_args = args.get_list_or("widths", {8, 16, 32});
  const std::string out_path =
      args.get_or("out", std::string("sitam_report.html"));

  const Soc soc = load_benchmark(soc_name);
  SiWorkloadConfig config;
  config.pattern_count = n_r;
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const std::vector<int> widths(width_args.begin(), width_args.end());
  const SweepResult sweep = run_sweep(workload, widths);

  // Pick the last (widest) row's winning architecture for the deep-dive.
  const ExperimentOutcome& focus = sweep.rows.back();
  const OptimizeResult* best = nullptr;
  for (std::size_t i = 0; i < focus.per_grouping.size(); ++i) {
    if (workload.groupings()[i] == focus.best_grouping) {
      best = &focus.per_grouping[i];
    }
  }
  const SiTestSet& tests = workload.tests(focus.best_grouping);
  const TestTimeTable table(soc, focus.w_max);
  const LowerBounds bounds =
      lower_bounds(soc, table, tests, focus.w_max);
  const WrapperArea area = soc_wrapper_area(soc, best->architecture);

  std::ostringstream html;
  html << "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\n"
       << "<title>sitam report: " << soc.name << "</title>\n"
       << "<style>body{font-family:sans-serif;max-width:960px;margin:2em "
          "auto;color:#222}pre{background:#f6f6f6;padding:1em;overflow-x:"
          "auto}h2{border-bottom:1px solid #ddd}</style></head><body>\n";
  html << "<h1>SI-aware test architecture report — " << soc.name
       << "</h1>\n";
  html << "<p>" << soc.core_count() << " wrapped cores, "
       << soc.total_test_data_volume() << " bits InTest volume, "
       << soc.total_woc() << " driver-side boundary cells. SI workload: "
       << n_r << " raw vector pairs (seed " << config.seed << ").</p>\n";

  html << "<h2>Two-dimensional compaction</h2><ul>\n";
  for (const int parts : workload.groupings()) {
    const SiTestSet& t = workload.tests(parts);
    html << "<li>i=" << parts << ": " << t.total_patterns()
         << " compacted patterns in " << t.groups.size() << " groups</li>\n";
  }
  html << "</ul>\n";

  html << "<h2>Sweep (" << sweep_caption(sweep) << ")</h2>\n<pre>"
       << html_escape(render_paper_table(sweep).str()) << "</pre>\n";

  html << "<h2>Winning architecture at W_max = " << focus.w_max
       << " (grouping i = " << focus.best_grouping << ")</h2>\n<pre>"
       << html_escape(describe_evaluation(best->architecture,
                                          best->evaluation, tests))
       << "</pre>\n";
  html << "<p>Architecture-independent lower bound: " << bounds.t_soc()
       << " cc (gap "
       << 100.0 *
              static_cast<double>(best->evaluation.t_soc - bounds.t_soc()) /
              static_cast<double>(best->evaluation.t_soc)
       << " %). SI wrapper hardware: " << area.si_extra_ge
       << " GE extra (" << area.overhead_pct()
       << " % over plain wrappers).</p>\n";

  html << "<h2>Test session</h2>\n"
       << svg_test_gantt(best->evaluation, best->architecture, tests)
       << "\n</body></html>\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << html.str();
  std::cout << "wrote " << out_path << " (" << html.str().size()
            << " bytes)\n";
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
