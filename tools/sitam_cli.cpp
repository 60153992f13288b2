// sitam — command-line front end to the library.
//
//   sitam benchmarks
//   sitam info     --soc=<name|file.soc>
//   sitam generate --cores=N [--seed=S] [--name=X]
//   sitam compact  --soc=<...> --nr=N [--parts=1,2,4,8]
//   sitam optimize --soc=<...> --wmax=W [--nr=N] [--parts=K] [--json]
//   sitam sweep    --soc=<...> [--widths=8,16,...] [--nr=N] [--json]
//
// --soc accepts an embedded benchmark name (see `sitam benchmarks`) or a
// path to a `.soc` file.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/flow.h"
#include "core/gantt.h"
#include "core/report.h"
#include "obs/export.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "store/import.h"
#include "store/report.h"
#include "store/store.h"
#include "soc/benchmarks.h"
#include "soc/itc02.h"
#include "soc/parser.h"
#include "soc/synth.h"
#include "soc/writer.h"
#include "tam/area.h"
#include "tam/bounds.h"
#include "tam/verify.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "wrapper/design.h"
#include "wrapper/report.h"

namespace {

using namespace sitam;

Soc resolve_soc(const CliArgs& args) {
  const std::string spec = args.get_or("soc", std::string("d695"));
  for (const std::string& name : benchmark_names()) {
    if (name == spec) return load_benchmark(name);
  }
  // A file: try the sitam dialect first, then the original ITC'02 format.
  // When neither parses it, report both parsers' messages: the file may be
  // a sitam-dialect file with one bad line, not an ITC'02 file at all.
  try {
    return load_soc_file(spec);
  } catch (const SocParseError& sitam_error) {
    try {
      return load_itc02_file(spec);
    } catch (const std::exception& itc02_error) {
      throw std::runtime_error(spec + ": not a sitam .soc file (" +
                               sitam_error.what() + ") nor an ITC'02 file (" +
                               itc02_error.what() + ")");
    }
  }
}

int cmd_benchmarks() {
  TextTable table;
  table.add_column("name", Align::kLeft);
  table.add_column("cores");
  table.add_column("scan flops");
  table.add_column("boundary cells");
  table.add_column("InTest volume (bits)");
  for (const std::string& name : benchmark_names()) {
    const Soc soc = load_benchmark(name);
    std::int64_t flops = 0;
    std::int64_t cells = 0;
    for (const Module& m : soc.modules) {
      flops += m.scan_flops();
      cells += m.boundary_cells();
    }
    table.begin_row();
    table.cell(name);
    table.cell(static_cast<std::int64_t>(soc.core_count()));
    table.cell(flops);
    table.cell(cells);
    table.cell(soc.total_test_data_volume());
  }
  std::cout << table;
  return 0;
}

int cmd_info(const CliArgs& args) {
  const Soc soc = resolve_soc(args);
  if (args.has("module")) {
    // Deep-dive into one module's wrapper.
    const int id =
        static_cast<int>(args.get_or("module", std::int64_t{1}));
    const Module& m = soc.module_by_id(id);
    const int width =
        static_cast<int>(args.get_or("width", std::int64_t{8}));
    std::cout << describe_wrapper(m, design_wrapper(m, width)) << "\n"
              << describe_pareto(m, std::max(width, 16));
    return 0;
  }
  std::cout << "SOC " << soc.name << ": " << soc.core_count()
            << " wrapped cores\n";
  TextTable table;
  table.add_column("id");
  table.add_column("name", Align::kLeft);
  table.add_column("in");
  table.add_column("out");
  table.add_column("bidir");
  table.add_column("chains");
  table.add_column("flops");
  table.add_column("patterns");
  table.add_column("T(w=1)");
  table.add_column("T(w=16)");
  for (const Module& m : soc.modules) {
    table.begin_row();
    table.cell(static_cast<std::int64_t>(m.id));
    table.cell(m.name);
    table.cell(static_cast<std::int64_t>(m.inputs));
    table.cell(static_cast<std::int64_t>(m.outputs));
    table.cell(static_cast<std::int64_t>(m.bidirs));
    table.cell(static_cast<std::int64_t>(m.scan_chains.size()));
    table.cell(m.scan_flops());
    table.cell(m.patterns);
    table.cell(intest_time(m, 1));
    table.cell(intest_time(m, 16));
  }
  std::cout << table;
  return 0;
}

int cmd_generate(const CliArgs& args) {
  SynthSocConfig config;
  config.cores = static_cast<int>(args.get_or("cores", std::int64_t{16}));
  config.name = args.get_or("name", std::string("synth"));
  Rng rng(static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{1})));
  const Soc soc = generate_soc(config, rng);
  std::cout << soc_to_text(soc);
  return 0;
}

int cmd_compact(const CliArgs& args) {
  const Soc soc = resolve_soc(args);
  SiWorkloadConfig config;
  config.pattern_count = args.get_or("nr", std::int64_t{10000});
  config.seed = static_cast<std::uint64_t>(
      args.get_or("seed", std::int64_t{0x20070604}));
  {
    auto parts = args.get_list_or("parts", {1, 2, 4, 8});
    config.groupings.assign(parts.begin(), parts.end());
  }
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  TextTable table;
  table.add_column("i");
  table.add_column("groups");
  table.add_column("compacted");
  table.add_column("raw");
  table.add_column("ratio");
  for (const int parts : workload.groupings()) {
    const SiTestSet& tests = workload.tests(parts);
    table.begin_row();
    table.cell(static_cast<std::int64_t>(parts));
    table.cell(static_cast<std::int64_t>(tests.groups.size()));
    table.cell(tests.total_patterns());
    table.cell(tests.total_raw_patterns());
    table.cell(static_cast<double>(tests.total_raw_patterns()) /
                   static_cast<double>(std::max<std::int64_t>(
                       1, tests.total_patterns())),
               2);
  }
  std::cout << table;
  return 0;
}

void architecture_json(JsonWriter& json, const TamArchitecture& arch,
                       const Evaluation& ev) {
  json.key("t_in").value(ev.t_in);
  json.key("t_si").value(ev.t_si);
  json.key("t_soc").value(ev.t_soc);
  json.key("rails").begin_array();
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    json.begin_object();
    json.key("width").value(std::int64_t{arch.rails[r].width});
    json.key("cores").begin_array();
    for (const int c : arch.rails[r].cores) json.value(std::int64_t{c});
    json.end_array();
    json.key("time_in").value(ev.rails[r].time_in);
    json.key("time_si").value(ev.rails[r].time_si);
    json.end_object();
  }
  json.end_array();
  json.key("schedule").begin_array();
  for (const SiScheduleItem& item : ev.schedule.items) {
    json.begin_object()
        .kv("group", std::int64_t{item.group})
        .kv("begin", item.begin)
        .kv("end", item.end)
        .kv("bottleneck_rail", std::int64_t{item.bottleneck_rail})
        .end_object();
  }
  json.end_array();
}

/// Standard --trace-out/--metrics-out wiring for the commands that run the
/// optimization pipeline; inert when neither flag is present.
obs::TraceEmitter trace_emitter(const CliArgs& args, const std::string& soc,
                                std::uint64_t seed, int threads) {
  obs::RunManifest manifest =
      obs::RunManifest::collect("sitam " + args.program());
  manifest.scenario = soc;
  manifest.seed = seed;
  manifest.threads = threads;
  return obs::TraceEmitter(args.get_or("trace-out", std::string()),
                           args.get_or("metrics-out", std::string()),
                           std::move(manifest));
}

OptimizerConfig optimizer_config(const CliArgs& args) {
  OptimizerConfig config;
  config.restarts =
      static_cast<int>(args.get_or("restarts", std::int64_t{1}));
  config.threads = static_cast<int>(args.get_or("threads", std::int64_t{0}));
  config.delta_eval = !args.has("no-delta");
  return config;
}

void stats_json(JsonWriter& json, const EvaluatorStats& stats) {
  json.key("evaluations").value(stats.evaluations);
  json.key("delta_hits").value(stats.delta_hits);
  json.key("cache_misses").value(stats.cache_misses);
  json.key("full_evaluations").value(stats.full_evaluations());
  json.key("cache_hit_rate").value(stats.hit_rate());
  json.key("delta_hit_rate").value(stats.delta_hit_rate());
}

void print_stats(const EvaluatorStats& stats) {
  std::cout << render_evaluator_stats(stats) << "\n";
}

/// --soc/--nr/--seed/--parts/--wmax|--widths into a FlowRequest — the one
/// place the CLI's flag surface maps onto the library's request surface.
FlowRequest flow_request(const CliArgs& args, SitamContext& context,
                         FlowMode mode, std::vector<int> widths,
                         std::vector<int> groupings) {
  FlowRequest request;
  request.mode = mode;
  request.soc = context.intern(resolve_soc(args));
  request.workload.pattern_count = args.get_or("nr", std::int64_t{10000});
  request.workload.groupings = std::move(groupings);
  request.workload.seed = static_cast<std::uint64_t>(
      args.get_or("seed", std::int64_t{0x20070604}));
  request.widths = std::move(widths);
  request.optimizer = optimizer_config(args);
  return request;
}

int cmd_optimize(const CliArgs& args) {
  // Thin wrapper over SitamContext: build the request, run it, print.
  const int w_max = static_cast<int>(args.get_or("wmax", std::int64_t{32}));
  const int parts = static_cast<int>(args.get_or("parts", std::int64_t{4}));
  SitamContext context;
  const FlowRequest request =
      flow_request(args, context, FlowMode::kOptimize, {w_max}, {parts});
  obs::TraceEmitter emitter = trace_emitter(
      args, request.soc->name, request.workload.seed,
      request.optimizer.threads);
  const FlowResult flow = context.run(request);
  const OptimizeResult& result = flow.optimize;
  if (!emitter.finish()) return 1;

  if (args.has("json")) {
    JsonWriter json;
    json.begin_object();
    json.key("soc").value(request.soc->name);
    json.key("w_max").value(std::int64_t{w_max});
    json.key("n_r").value(request.workload.pattern_count);
    json.key("parts").value(std::int64_t{parts});
    architecture_json(json, result.architecture, result.evaluation);
    stats_json(json, result.stats);
    json.key("lower_bound").value(flow.lower_bound);
    json.key("si_wrapper_extra_ge").value(flow.area.si_extra_ge);
    json.end_object();
    std::cout << json.str() << "\n";
    return 0;
  }
  std::cout << describe_evaluation(result.architecture, result.evaluation,
                                   flow.tests);
  print_stats(result.stats);
  std::cout << "lower bound (architecture-independent): " << flow.lower_bound
            << " cc\n";
  std::cout << "SI wrapper extra area: " << flow.area.si_extra_ge << " GE ("
            << flow.area.overhead_pct() << " % over plain wrappers)\n";
  return 0;
}

int cmd_verify(const CliArgs& args) {
  // Optimize, then re-check the result with the independent verifier —
  // the end-to-end self-test a downstream user can run on any SOC.
  const Soc soc = resolve_soc(args);
  const int w_max = static_cast<int>(args.get_or("wmax", std::int64_t{32}));
  const int parts = static_cast<int>(args.get_or("parts", std::int64_t{4}));
  SiWorkloadConfig config;
  config.pattern_count = args.get_or("nr", std::int64_t{5000});
  config.groupings = {parts};
  config.seed = static_cast<std::uint64_t>(
      args.get_or("seed", std::int64_t{0x20070604}));
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const SiTestSet& tests = workload.tests(parts);
  const TestTimeTable table(soc, w_max);
  const OptimizeResult result =
      optimize_tam(soc, table, tests, w_max, optimizer_config(args));
  auto problems = verify_evaluation(
      soc, table, tests, result.architecture, result.evaluation);
  for (std::string& problem : verify_stats(result.stats)) {
    problems.push_back(std::move(problem));
  }
  if (problems.empty()) {
    std::cout << "verified: " << soc.name << " W_max=" << w_max
              << " T_soc=" << result.evaluation.t_soc << " cc ("
              << result.architecture.rails.size() << " rails, "
              << tests.groups.size() << " SI groups)\n";
    return 0;
  }
  std::cerr << problems.size() << " violation(s):\n";
  for (const std::string& problem : problems) {
    std::cerr << "  " << problem << "\n";
  }
  return 1;
}

int cmd_gantt(const CliArgs& args) {
  const Soc soc = resolve_soc(args);
  const int w_max = static_cast<int>(args.get_or("wmax", std::int64_t{32}));
  const int parts = static_cast<int>(args.get_or("parts", std::int64_t{4}));
  SiWorkloadConfig config;
  config.pattern_count = args.get_or("nr", std::int64_t{10000});
  config.groupings = {parts};
  config.seed = static_cast<std::uint64_t>(
      args.get_or("seed", std::int64_t{0x20070604}));
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const SiTestSet& tests = workload.tests(parts);
  const TestTimeTable table(soc, w_max);
  const OptimizeResult result = optimize_tam(soc, table, tests, w_max);

  std::cout << result.architecture.describe() << "\n"
            << "T_in=" << result.evaluation.t_in
            << " T_si=" << result.evaluation.t_si
            << " T_soc=" << result.evaluation.t_soc << "\n\n"
            << ascii_si_gantt(result.evaluation, result.architecture, tests);
  if (const auto svg_path = args.get("svg")) {
    std::ofstream svg(*svg_path);
    if (!svg) {
      std::cerr << "cannot write " << *svg_path << "\n";
      return 1;
    }
    svg << svg_test_gantt(result.evaluation, result.architecture, tests);
    std::cout << "wrote " << *svg_path << "\n";
  }
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  const auto width_args =
      args.get_list_or("widths", {8, 16, 24, 32, 40, 48, 56, 64});
  SitamContext context;
  const FlowRequest request = flow_request(
      args, context, FlowMode::kSweep,
      std::vector<int>(width_args.begin(), width_args.end()),
      SiWorkloadConfig{}.groupings);
  obs::TraceEmitter emitter = trace_emitter(
      args, request.soc->name, request.workload.seed,
      request.optimizer.threads);
  const SweepResult sweep = context.run(request).sweep;
  if (!emitter.finish()) return 1;

  EvaluatorStats total;
  for (const ExperimentOutcome& row : sweep.rows) {
    for (const OptimizeResult& r : row.per_grouping) total += r.stats;
  }

  if (args.has("json")) {
    JsonWriter json;
    json.begin_object();
    json.key("soc").value(sweep.soc_name);
    json.key("n_r").value(sweep.pattern_count);
    json.key("rows").begin_array();
    for (const ExperimentOutcome& row : sweep.rows) {
      json.begin_object();
      json.key("w_max").value(std::int64_t{row.w_max});
      json.key("t_baseline").value(row.t_baseline);
      json.key("t_g").begin_array();
      for (const OptimizeResult& r : row.per_grouping) {
        json.value(r.evaluation.t_soc);
      }
      json.end_array();
      json.key("t_min").value(row.t_min);
      json.key("delta_baseline_pct").value(row.delta_baseline_pct());
      json.key("delta_g_pct").value(row.delta_g_pct());
      json.end_object();
    }
    json.end_array();
    stats_json(json, total);
    json.end_object();
    std::cout << json.str() << "\n";
    return 0;
  }
  std::cout << sweep_caption(sweep) << "\n" << render_paper_table(sweep);
  print_stats(total);
  return 0;
}

int cmd_serve(const CliArgs& args) {
  // Newline-delimited JSON job server on stdin/stdout; the protocol lives
  // in src/serve/protocol.h and docs/SERVER.md. Blocks until EOF or a
  // {"op":"shutdown"} request.
  serve::ServerOptions options;
  options.threads =
      static_cast<int>(args.get_or("threads", std::int64_t{2}));
  options.progress = !args.has("quiet");
  return serve::serve_stream(std::cin, std::cout, options);
}

int cmd_sweep_fleet(const CliArgs& args) {
  serve::FleetOptions options;
  options.socs = args.get_strings_or("socs", {"d695"});
  {
    const auto widths = args.get_list_or("wmax", {16, 32});
    options.widths.clear();
    for (const std::int64_t w : widths) {
      options.widths.push_back(static_cast<int>(w));
    }
  }
  options.backends = args.get_strings_or("backends", {"delta"});
  {
    const auto seeds = args.get_list_or("seeds", {0x20070604});
    options.seeds.clear();
    for (const std::int64_t s : seeds) {
      options.seeds.push_back(static_cast<std::uint64_t>(s));
    }
  }
  options.pattern_count = args.get_or("nr", std::int64_t{2000});
  options.grouping = static_cast<int>(args.get_or("parts", std::int64_t{4}));
  options.restarts =
      static_cast<int>(args.get_or("restarts", std::int64_t{1}));
  options.threads = static_cast<int>(args.get_or("threads", std::int64_t{2}));
  options.store_path = args.get_or("store-out", std::string());
  options.crash_after =
      static_cast<int>(args.get_or("crash-after", std::int64_t{0}));
  options.progress = args.has("progress");
  if (options.store_path.empty()) {
    std::cerr << "sweep-fleet requires --store-out=<results.jsonl>\n";
    return 2;
  }
  const serve::FleetSummary summary = serve::run_sweep_fleet(options);
  std::cout << "fleet: " << summary.planned << " cell(s) planned, "
            << summary.skipped << " already in store, " << summary.completed
            << " completed, " << summary.failed << " failed\n";
  return summary.failed == 0 ? 0 : 1;
}

int cmd_report(const CliArgs& args) {
  const std::string store_path = args.get_or("store", std::string());
  if (store_path.empty()) {
    std::cerr << "report requires --store=<results.jsonl>\n";
    return 2;
  }
  std::int64_t skipped = 0;
  const std::vector<store::StoreRecord> records =
      store::ResultStore::read_all(store_path, &skipped);
  if (skipped > 0) {
    std::cerr << "note: skipped " << skipped
              << " unparseable line(s) in " << store_path << "\n";
  }
  store::DashboardOptions options;
  options.scenario_filters = args.get_strings_or("scenario", {});
  const store::Dashboard dashboard =
      store::Dashboard::build(records, options);

  bool wrote = false;
  if (const auto md_path = args.get("out-md")) {
    std::ofstream out(*md_path);
    if (!out) {
      std::cerr << "cannot write " << *md_path << "\n";
      return 1;
    }
    out << store::render_dashboard_markdown(dashboard, options);
    std::cout << "wrote " << *md_path << "\n";
    wrote = true;
  }
  if (const auto json_path = args.get("out-json")) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "cannot write " << *json_path << "\n";
      return 1;
    }
    out << store::dashboard_json(dashboard) << "\n";
    std::cout << "wrote " << *json_path << "\n";
    wrote = true;
  }
  if (!wrote) {
    std::cout << store::render_dashboard_markdown(dashboard, options);
  }
  return 0;
}

int cmd_store_import(const CliArgs& args) {
  const std::string store_path = args.get_or("store", std::string());
  const std::vector<std::string> files = args.get_strings_or("files", {});
  if (store_path.empty() || files.empty()) {
    std::cerr << "store-import requires --store=<results.jsonl> "
                 "--files=<a.json,b.json,...>\n";
    return 2;
  }
  store::ResultStore results(store_path);
  for (const std::string& file : files) {
    const store::StoreRecord record = store::import_result_file(file);
    if (!results.append(record)) {
      std::cerr << "error: store append failed for " << file << "\n";
      return 1;
    }
    std::cout << "imported " << file << " as scenario '" << record.scenario
              << "' @ " << record.manifest.git_describe << "\n";
  }
  return 0;
}

/// Prints the usage text to `os` and returns `status`: stderr and 2 for a
/// usage error, stdout and 0 for --help.
int usage(std::ostream& os = std::cerr, int status = 2) {
  os
      << "usage: sitam <command> [--flags]\n"
         "  benchmarks                      list embedded benchmark SOCs\n"
         "  info     --soc=<name|file>      per-module details\n"
         "           [--module=ID --width=W] wrapper deep-dive\n"
         "  generate --cores=N [--seed=S]   emit a synthetic .soc\n"
         "  compact  --soc=... --nr=N       2-D compaction statistics\n"
         "  optimize --soc=... --wmax=W     optimize one architecture\n"
         "  sweep    --soc=... [--widths=]  paper-style table\n"
         "  gantt    --soc=... --wmax=W     schedule chart [--svg=out.svg]\n"
         "  verify   --soc=... --wmax=W     optimize + independent check\n"
         "  serve    [--threads=T --quiet]  JSON job server on stdin/stdout\n"
         "                                  (see docs/SERVER.md)\n"
         "  sweep-fleet --store-out=F       resumable experiment grid ->\n"
         "           [--socs=a,b --wmax=8,16 --backends=full,memo,delta\n"
         "            --seeds=1,2 --nr=N --parts=K --threads=T --progress]\n"
         "                                  JSONL store (docs/RESULT_STORE.md)\n"
         "  report   --store=F              per-commit regression dashboard\n"
         "           [--out-md=F --out-json=F --scenario=a,b]\n"
         "  store-import --store=F --files=a.json,b.json\n"
         "                                  backfill BENCH_*.json artifacts\n"
         "  (optimize/sweep accept --json --trace-out=F --metrics-out=F;\n"
         "   optimize/sweep/verify accept --restarts=N --no-delta\n"
         "   --threads=T (optimizer workers: default 0 = all cores, 1 = serial))\n";
  return status;
}

/// A subcommand with the flags it reads; any other flag is rejected before
/// the command runs.
struct Command {
  const char* name;
  int (*run)(const CliArgs&);
  std::vector<std::string> flags;
};

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Command> commands = {
      {"benchmarks", [](const CliArgs&) { return cmd_benchmarks(); }, {}},
      {"info", cmd_info, {"soc", "module", "width"}},
      {"generate", cmd_generate, {"cores", "name", "seed"}},
      {"compact", cmd_compact, {"soc", "nr", "seed", "parts"}},
      {"optimize",
       cmd_optimize,
       {"soc", "nr", "seed", "wmax", "parts", "restarts", "threads",
        "no-delta", "json", "trace-out", "metrics-out"}},
      {"sweep",
       cmd_sweep,
       {"soc", "nr", "seed", "widths", "restarts", "threads", "no-delta",
        "json", "trace-out", "metrics-out"}},
      {"gantt", cmd_gantt, {"soc", "nr", "seed", "wmax", "parts", "svg"}},
      {"verify",
       cmd_verify,
       {"soc", "nr", "seed", "wmax", "parts", "restarts", "threads",
        "no-delta"}},
      {"serve", cmd_serve, {"threads", "quiet"}},
      {"sweep-fleet",
       cmd_sweep_fleet,
       {"socs", "wmax", "backends", "seeds", "nr", "parts", "restarts",
        "threads", "store-out", "crash-after", "progress"}},
      {"report", cmd_report, {"store", "scenario", "out-md", "out-json"}},
      {"store-import", cmd_store_import, {"store", "files"}},
  };
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help") return usage(std::cout, 0);
  try {
    const CliArgs args(argc - 1, argv + 1);
    for (const Command& entry : commands) {
      if (command != entry.name) continue;
      if (args.has("help")) {
        usage(std::cout, 0);
        std::cout << "sitam " << entry.name << " accepts:";
        for (const std::string& flag : entry.flags) std::cout << " --" << flag;
        std::cout << "\n";
        return 0;
      }
      args.require_known(entry.flags);
      return entry.run(args);
    }
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}
