// Tests for tools/lint (sitam_lint): every rule ID fires exactly where a
// seeded fixture says it should, path scoping and exemptions hold, inline
// suppression and the allowlist round-trip, and the real repo tree lints
// clean (that last gate also runs as the `lint_repo` ctest).
#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace lint = sitam::lint;

namespace {

std::vector<std::string> rule_ids(const std::vector<lint::Finding>& findings) {
  std::vector<std::string> ids;
  ids.reserve(findings.size());
  for (const auto& f : findings) ids.push_back(f.rule);
  return ids;
}

std::filesystem::path fixtures_root() {
  return std::filesystem::path(LINT_FIXTURES_DIR);
}

}  // namespace

TEST(LintRules, CatalogueHasSixteenStableIds) {
  const auto rules = lint::rules();
  ASSERT_EQ(rules.size(), 16u);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const std::string id = i + 1 < 10 ? "SL00" + std::to_string(i + 1)
                                      : "SL0" + std::to_string(i + 1);
    EXPECT_EQ(rules[i].id, id) << "rule ids must be SL001..SL016 in order";
  }
}

TEST(LintRules, RawSimdIntrinsicsAnywhere) {
  const std::string text =
      "#include <immintrin.h>\n"
      "long long f(const long long* p) {\n"
      "  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));\n"
      "  return _mm256_extract_epi64(v, 0);\n"
      "}\n";
  const auto findings = lint::lint_source("src/core/x.cpp", text);
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"SL016", "SL016", "SL016"}));
  // No file is exempt, not even the former AVX2 kernel TU.
  EXPECT_EQ(rule_ids(lint::lint_source("src/pattern/packed_kernels_avx2.cpp",
                                       text)),
            (std::vector<std::string>{"SL016", "SL016", "SL016"}));
  // NEON families are matched too.
  const auto neon = lint::lint_source(
      "src/tam/y.cpp", "int g() { uint64x2_t v = vcombine_u64(a, b); }\n");
  EXPECT_EQ(rule_ids(neon), (std::vector<std::string>{"SL016"}));
  // Portable builtins are not intrinsics.
  EXPECT_TRUE(lint::lint_source("src/core/z.cpp",
                                "void h(const char* p) { "
                                "__builtin_prefetch(p); }\n")
                  .empty());
}

TEST(LintRules, BannedRandomnessSources) {
  const auto findings = lint::lint_source(
      "src/core/x.cpp", "int f() { return rand(); }\n"
                        "void g(unsigned s) { srand(s); }\n"
                        "int h() { return std::random_device{}(); }\n");
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"SL001", "SL001", "SL001"}));
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 3);
}

TEST(LintRules, RngImplementationIsExempt) {
  // Function-local (not static), so SL012 stays out of the picture and
  // only the SL001 random_device ban is in play.
  const std::string text =
      "unsigned entropy() { std::random_device d; return d(); }\n";
  EXPECT_TRUE(lint::lint_source("src/util/rng.cpp", text).empty());
  EXPECT_EQ(rule_ids(lint::lint_source("src/util/cli.cpp", text)),
            (std::vector<std::string>{"SL001"}));
}

TEST(LintRules, WallClockOnlyInStopwatchAndLog) {
  const std::string text =
      "long f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  EXPECT_TRUE(
      lint::lint_source("src/util/stopwatch.h", "#pragma once\n" + text)
          .empty());
  EXPECT_TRUE(lint::lint_source("src/util/log.cpp", text).empty());
  EXPECT_TRUE(
      lint::lint_source("src/obs/clock.h", "#pragma once\n" + text).empty());
  const auto findings = lint::lint_source("bench/table_common.cpp", text);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "SL002");
}

TEST(LintRules, ObsChronoOnlyInClockShim) {
  // Any mention of std::chrono in src/obs outside the shim: SL011.
  const auto findings = lint::lint_source(
      "src/obs/export.cpp",
      "#include <chrono>\n"
      "long us() { return std::chrono::microseconds(1).count(); }\n");
  EXPECT_EQ(rule_ids(findings), (std::vector<std::string>{"SL011", "SL011"}));
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);

  // The shim is the single blessed source (also exempt from SL002).
  EXPECT_TRUE(lint::lint_source(
                  "src/obs/clock.h",
                  "#pragma once\n"
                  "#include <chrono>\n"
                  "long now_ns() { return std::chrono::steady_clock::now()"
                  ".time_since_epoch().count(); }\n")
                  .empty());

  // SL011 is scoped to src/obs: <chrono> alone elsewhere is fine.
  EXPECT_TRUE(
      lint::lint_source("src/util/x.cpp", "#include <chrono>\n").empty());
  EXPECT_TRUE(
      lint::lint_source("tests/obs_test.cpp", "#include <chrono>\n").empty());
}

TEST(LintRules, PointerKeyedContainers) {
  // Instance fields, so SL012 (namespace-scope state) stays quiet.
  const auto findings = lint::lint_source(
      "src/core/x.cpp",
      "struct Tables {\n"
      "  std::map<Module*, int> by_ptr;\n"
      "  std::unordered_map<const Core*, long> pointers;\n"
      "  std::map<std::string, int> fine;\n"
      "  std::map<const char*, int> strings_fine;\n"
      "};\n");
  EXPECT_EQ(rule_ids(findings), (std::vector<std::string>{"SL003", "SL003"}));
}

TEST(LintRules, UnorderedIterationNeedsOutputSignature) {
  const std::string iterating =
      "long f(const std::unordered_map<int, long>& cells) {\n"
      "  long s = 0; for (auto& kv : cells) s += kv.second; return s;\n"
      "}\n";
  // Quiet TU: no output signature, no finding.
  EXPECT_TRUE(lint::lint_source("src/core/quiet.cpp", iterating).empty());
  // Same code plus a report include: SL004.
  const auto findings = lint::lint_source(
      "src/core/loud.cpp", "#include \"core/report.h\"\n" + iterating);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "SL004");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintRules, MutatingFunctionScopingAndSatisfaction) {
  const std::string unchecked =
      "namespace sitam {\n"
      "void Widget::grow(int n) {\n"
      "  a_ += n;\n"
      "  b_ += n;\n"
      "  c_ += n;\n"
      "}\n"
      "}\n";
  // Fires in src/tam and src/sitest .cpp files only.
  EXPECT_EQ(rule_ids(lint::lint_source("src/tam/w.cpp", unchecked)),
            (std::vector<std::string>{"SL005"}));
  EXPECT_EQ(rule_ids(lint::lint_source("src/sitest/w.cpp", unchecked)),
            (std::vector<std::string>{"SL005"}));
  EXPECT_TRUE(lint::lint_source("src/core/w.cpp", unchecked).empty());
  EXPECT_TRUE(lint::lint_source("src/tam/w.h",
                                "#pragma once\n" + unchecked)
                  .empty())
      << "SL005 is scoped to .cpp files";

  // A SITAM_CHECK, SITAM_DCHECK, or validating throw satisfies the rule.
  for (const char* guard :
       {"  SITAM_CHECK(n >= 0);\n", "  SITAM_DCHECK(n >= 0);\n",
        "  if (n < 0) throw std::invalid_argument(\"n\");\n"}) {
    const std::string checked = "namespace sitam {\n"
                                "void Widget::grow(int n) {\n" +
                                std::string(guard) +
                                "  a_ += n;\n"
                                "  b_ += n;\n"
                                "  c_ += n;\n"
                                "}\n"
                                "}\n";
    EXPECT_TRUE(lint::lint_source("src/tam/w.cpp", checked).empty())
        << "guard was: " << guard;
  }

  // Const members and const-ref free functions are not mutating.
  const std::string benign =
      "namespace sitam {\n"
      "int Widget::size() const {\n"
      "  int s = a_;\n"
      "  s += b_;\n"
      "  return s;\n"
      "}\n"
      "long sum(const std::vector<int>& v) {\n"
      "  long s = 0;\n"
      "  for (int x : v) s += x;\n"
      "  return s;\n"
      "}\n"
      "}\n";
  EXPECT_TRUE(lint::lint_source("src/tam/w.cpp", benign).empty());

  // A free function mutating an out-parameter is in scope.
  const std::string free_mutator =
      "namespace sitam {\n"
      "void renumber(std::vector<int>& ids) {\n"
      "  int next = 0;\n"
      "  for (auto& id : ids) id = next++;\n"
      "  ids.shrink_to_fit();\n"
      "}\n"
      "}\n";
  EXPECT_EQ(rule_ids(lint::lint_source("src/tam/w.cpp", free_mutator)),
            (std::vector<std::string>{"SL005"}));
}

TEST(LintRules, HeaderHygiene) {
  const auto no_guard = lint::lint_source("src/core/a.h", "struct A {};\n");
  ASSERT_EQ(no_guard.size(), 1u);
  EXPECT_EQ(no_guard[0].rule, "SL006");

  const auto using_ns = lint::lint_source(
      "src/core/b.h", "#pragma once\nusing namespace std;\n");
  ASSERT_EQ(using_ns.size(), 1u);
  EXPECT_EQ(using_ns[0].rule, "SL007");
  EXPECT_EQ(using_ns[0].line, 2);

  // .cpp files need neither guard nor the using restriction.
  EXPECT_TRUE(
      lint::lint_source("src/core/c.cpp", "using namespace std;\n").empty());
}

TEST(LintRules, IncludeHygiene) {
  const auto findings = lint::lint_source(
      "src/core/x.cpp",
      "#include \"../util/rng.h\"\n"
      "#include <stdio.h>\n"
      "#include \"core/flow.cpp\"\n"
      "#include <cstdio>\n"
      "#include \"util/rng.h\"\n");
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"SL008", "SL008", "SL008"}));
}

TEST(LintRules, FloatBannedInAccountingPathsOnly) {
  const std::string text = "#pragma once\nfloat ratio(long a, long b);\n";
  EXPECT_EQ(rule_ids(lint::lint_source("src/tam/t.h", text)),
            (std::vector<std::string>{"SL009"}));
  EXPECT_EQ(rule_ids(lint::lint_source("src/core/t.h", text)),
            (std::vector<std::string>{"SL009"}));
  EXPECT_TRUE(lint::lint_source("src/pattern/t.h", text).empty());
  EXPECT_TRUE(lint::lint_source("bench/t.cpp", text).empty());
}

TEST(LintRules, ImplementationDefinedRandomFacilities) {
  const auto findings = lint::lint_source(
      "tests/x.cpp",
      "#include <random>\n"
      "std::mt19937 gen(1);\n"
      "std::uniform_int_distribution<int> d(0, 9);\n"
      "std::shuffle(v.begin(), v.end(), gen);\n");
  EXPECT_EQ(rule_ids(findings), (std::vector<std::string>{
                                    "SL010", "SL010", "SL010", "SL010"}));
  EXPECT_TRUE(lint::lint_source(
                  "src/util/rng.h",
                  "#pragma once\nstd::mt19937 reference(1);\n")
                  .empty());
}

TEST(LintStripping, CommentsAndStringsAreIgnored) {
  // `const char* const`: a plain `const char*` global would be a mutable
  // pointer and trip SL012.
  EXPECT_TRUE(lint::lint_source("src/core/x.cpp",
                                "// rand() in a comment\n"
                                "/* srand(1); std::shuffle too */\n"
                                "const char* const s = \"rand()\";\n"
                                "const char* const r = R\"(srand(2))\";\n")
                  .empty());
}

TEST(LintSuppression, InlineDirectives) {
  // Same line.
  auto findings = lint::lint_source(
      "src/core/x.cpp", "int f() { return rand(); }  // sitam-lint: allow(SL001)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);

  // Previous line, list form, and wildcard.
  findings = lint::lint_source("src/core/x.cpp",
                               "// sitam-lint: allow(SL001,SL002)\n"
                               "int f() { return rand(); }\n"
                               "// sitam-lint: allow(*)\n"
                               "int g() { return rand(); }\n"
                               "int h() { return rand(); }\n");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_TRUE(findings[1].suppressed);
  EXPECT_FALSE(findings[2].suppressed) << "directives reach one line only";

  // A directive for a different rule does not suppress.
  findings = lint::lint_source(
      "src/core/x.cpp", "int f() { return rand(); }  // sitam-lint: allow(SL002)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(LintFixtures, EveryRuleFiresExactlyWhereSeeded) {
  lint::Options options;
  options.root = fixtures_root();
  options.paths = {fixtures_root()};
  options.skip_fixture_dirs = false;
  const lint::Report report = lint::run(options);

  using Expect = std::tuple<std::string, int, std::string>;
  const std::vector<Expect> expected = {
      {"src/core/sl002_clock.cpp", 7, "SL002"},
      {"src/core/sl004_unordered_out.cpp", 10, "SL004"},
      {"src/core/sl009_float.cpp", 5, "SL009"},
      {"src/core/sl009_float.cpp", 6, "SL009"},
      {"src/core/sl012_globals.cpp", 6, "SL012"},
      {"src/core/sl012_globals.cpp", 9, "SL012"},
      {"src/core/sl012_globals.cpp", 14, "SL012"},
      {"src/core/sl013_guarded.cpp", 14, "SL013"},
      {"src/core/sl015_cache.cpp", 11, "SL015"},
      {"src/hypergraph/sl010_random.cpp", 2, "SL010"},
      {"src/hypergraph/sl010_random.cpp", 7, "SL010"},
      {"src/hypergraph/sl010_random.cpp", 8, "SL010"},
      {"src/obs/sl011_chrono.cpp", 3, "SL011"},
      {"src/obs/sl011_chrono.cpp", 8, "SL011"},
      {"src/obs/sl011_chrono.cpp", 9, "SL002"},
      {"src/pattern/sl008_includes.cpp", 2, "SL008"},
      {"src/pattern/sl008_includes.cpp", 3, "SL008"},
      {"src/pattern/sl014_cycle_a.h", 5, "SL014"},
      {"src/sitest/sl014_cycle_b.h", 5, "SL014"},
      {"src/soc/sl007_using.h", 6, "SL007"},
      {"src/store/sl014_back_edge.h", 6, "SL014"},
      {"src/store/sl015_index.cpp", 12, "SL015"},
      {"src/tam/sl001_rng.cpp", 6, "SL001"},
      {"src/tam/sl001_rng.cpp", 8, "SL001"},
      {"src/tam/sl005_mutator.cpp", 7, "SL005"},
      {"src/tam/sl016_intrinsics.cpp", 2, "SL016"},
      {"src/tam/sl016_intrinsics.cpp", 7, "SL016"},
      {"src/tam/sl016_intrinsics.cpp", 8, "SL016"},
      {"src/tam/sl016_intrinsics.cpp", 9, "SL016"},
      {"src/util/sl003_ptrkey.cpp", 11, "SL003"},
      {"src/util/sl003_ptrkey.cpp", 12, "SL003"},
      {"src/util/sl014_back_edge.h", 5, "SL014"},
      {"src/wrapper/sl006_guard.h", 1, "SL006"},
  };
  std::vector<Expect> actual;
  for (const auto& f : report.findings) {
    actual.emplace_back(f.file, f.line, f.rule);
  }
  EXPECT_EQ(actual, expected);

  // The suppression fixture contributes only suppressed findings.
  ASSERT_EQ(report.suppressed.size(), 2u);
  for (const auto& f : report.suppressed) {
    EXPECT_EQ(f.file, "src/tam/suppressed.cpp");
    EXPECT_EQ(f.rule, "SL001");
  }
}

TEST(LintAllowlist, RoundTripAndStaleDetection) {
  lint::Options options;
  options.root = fixtures_root();
  options.paths = {fixtures_root()};
  options.skip_fixture_dirs = false;
  options.allowlist =
      lint::parse_allowlist(fixtures_root() / "allowlist.txt");
  ASSERT_EQ(options.allowlist.size(), 2u);
  EXPECT_EQ(options.allowlist[0].rule, "SL001");
  EXPECT_EQ(options.allowlist[0].path, "src/tam/sl001_rng.cpp");
  EXPECT_FALSE(options.allowlist[0].reason.empty());

  const lint::Report report = lint::run(options);

  // The two SL001 findings from sl001_rng.cpp moved to suppressed...
  for (const auto& f : report.findings) {
    EXPECT_FALSE(f.file == "src/tam/sl001_rng.cpp" && f.rule == "SL001");
  }
  int allowlisted = 0;
  for (const auto& f : report.suppressed) {
    if (f.file == "src/tam/sl001_rng.cpp" && f.rule == "SL001") ++allowlisted;
  }
  EXPECT_EQ(allowlisted, 2);

  // ...and the SL009 entry that matches nothing is reported stale.
  ASSERT_EQ(report.stale_allowlist.size(), 1u);
  EXPECT_EQ(report.stale_allowlist[0].rule, "SL009");
}

TEST(LintSemantic, MutableGlobalState) {
  const std::string text =
      "namespace sitam {\n"
      "int g_counter = 0;\n"
      "extern int declared_elsewhere;\n"
      "constexpr int kSize = 4;\n"
      "int bump() {\n"
      "  static int calls = 0;\n"
      "  return ++calls;\n"
      "}\n"
      "struct S {\n"
      "  static int shared_count;\n"
      "  int ok = 0;\n"
      "};\n"
      "}\n";
  const auto findings = lint::lint_source("src/core/g.cpp", text);
  EXPECT_EQ(rule_ids(findings),
            (std::vector<std::string>{"SL012", "SL012", "SL012"}));
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 2);   // namespace-scope mutable
  EXPECT_EQ(findings[1].line, 6);   // function-local static
  EXPECT_EQ(findings[2].line, 10);  // static data member
  // SL012 is scoped to src/: the same TU elsewhere is quiet.
  EXPECT_TRUE(lint::lint_source("tests/g.cpp", text).empty());
  EXPECT_TRUE(lint::lint_source("bench/g.cpp", text).empty());
}

TEST(LintSemantic, LockDisciplineGuardedFields) {
  const std::string text =
      "#include <mutex>\n"
      "namespace sitam {\n"
      "class Counter {\n"
      " public:\n"
      "  void add(long v) {\n"
      "    const std::lock_guard<std::mutex> lock(mutex_);\n"
      "    total_ += v;\n"
      "  }\n"
      "  long read_racy() const { return total_; }\n"
      "  long read_locked() const { return total_; }\n"
      " private:\n"
      "  long total_ = 0;  // guarded_by(mutex_)\n"
      "  mutable std::mutex mutex_;\n"
      "};\n"
      "}\n";
  const auto findings = lint::lint_source("src/core/counter.cpp", text);
  ASSERT_EQ(rule_ids(findings), (std::vector<std::string>{"SL013"}))
      << "locked access and the _locked suffix are exempt";
  EXPECT_EQ(findings[0].line, 9);
}

TEST(LintSemantic, UnboundedCacheGrowth) {
  // SL005 is scoped to tam/sitest, so src/core keeps this test on SL015.
  const std::string growing =
      "#include <map>\n"
      "namespace sitam {\n"
      "class LookupCache {\n"
      " public:\n"
      "  void put(int k, long v) { entries_.emplace(k, v); }\n"
      " private:\n"
      "  std::map<int, long> entries_;\n"
      "};\n"
      "}\n";
  const auto findings = lint::lint_source("src/core/c.cpp", growing);
  ASSERT_EQ(rule_ids(findings), (std::vector<std::string>{"SL015"}));
  EXPECT_EQ(findings[0].line, 5);

  const std::string bounded =
      "#include <map>\n"
      "namespace sitam {\n"
      "class LookupCache {\n"
      " public:\n"
      "  void put(int k, long v) {\n"
      "    if (entries_.size() > 8) entries_.clear();\n"
      "    entries_.emplace(k, v);\n"
      "  }\n"
      " private:\n"
      "  std::map<int, long> entries_;\n"
      "};\n"
      "}\n";
  EXPECT_TRUE(lint::lint_source("src/core/c.cpp", bounded).empty());
}

TEST(LintExplain, EveryRuleHasLongFormDocs) {
  for (const auto& rule : lint::rules()) {
    const char* doc = lint::explain(rule.id);
    ASSERT_NE(doc, nullptr) << rule.id;
    EXPECT_GT(std::string(doc).size(), 100u) << rule.id;
  }
  EXPECT_EQ(lint::explain("SL099"), nullptr);
  EXPECT_EQ(lint::explain("bogus"), nullptr);
}

TEST(LintIncremental, CacheHitsMissesAndStableFindings) {
  lint::Options options;
  options.root = fixtures_root();
  options.paths = {fixtures_root()};
  options.skip_fixture_dirs = false;
  const auto cache_file = std::filesystem::path(::testing::TempDir()) /
                          "sitam_lint_cache_test.txt";
  std::filesystem::remove(cache_file);
  options.cache_file = cache_file;

  const lint::Report cold = lint::run(options);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.cache_misses, cold.files_scanned);

  const lint::Report warm = lint::run(options);
  EXPECT_EQ(warm.cache_hits, warm.files_scanned);
  EXPECT_EQ(warm.cache_misses, 0);

  // Cached results replay bit-for-bit: same findings, same order — and
  // the cross-TU layering pass (always recomputed) agrees too.
  ASSERT_EQ(warm.findings.size(), cold.findings.size());
  for (std::size_t i = 0; i < warm.findings.size(); ++i) {
    EXPECT_EQ(warm.findings[i].file, cold.findings[i].file);
    EXPECT_EQ(warm.findings[i].line, cold.findings[i].line);
    EXPECT_EQ(warm.findings[i].rule, cold.findings[i].rule);
    EXPECT_EQ(warm.findings[i].message, cold.findings[i].message);
  }
  ASSERT_EQ(warm.subsystem_edges.size(), cold.subsystem_edges.size());
  std::filesystem::remove(cache_file);
}

TEST(LintArtifacts, SarifAndDotRendering) {
  lint::Options options;
  options.root = fixtures_root();
  options.paths = {fixtures_root()};
  options.skip_fixture_dirs = false;
  const lint::Report report = lint::run(options);

  std::ostringstream sarif_os;
  lint::write_sarif(sarif_os, report);
  const std::string sarif = sarif_os.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"SL014\""), std::string::npos);
  EXPECT_NE(sarif.find("sl013_guarded.cpp"), std::string::npos);

  const std::string dot = lint::render_subsystem_dot(report);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("util -> obs"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(LintAllowlist, MalformedFileThrows) {
  EXPECT_THROW(
      static_cast<void>(
          lint::parse_allowlist(fixtures_root() / "allowlist_bad.txt")),
      std::runtime_error);
  EXPECT_THROW(static_cast<void>(lint::parse_allowlist(
                   fixtures_root() / "no_such_allowlist.txt")),
               std::runtime_error);
}

// Exemption check for the incremental-evaluation TU layout: the delta
// evaluator split (tam/delta.*, the shared tam/schedule.* placement core,
// the delta bench and its tests) must lint clean with NO exemptions — no
// inline `sitam-lint: allow` directives and no allowlist entries. The
// mutating entry points carry real SITAM_CHECK/SITAM_DCHECK guards (SL005),
// so any future finding here means the layout regressed, not that the
// linter needs a new exception.
TEST(LintRepo, DeltaEvaluationTusNeedNoExemptions) {
  lint::Options options;
  options.root = std::filesystem::path(SITAM_REPO_ROOT);
  for (const char* file :
       {"src/tam/delta.h", "src/tam/delta.cpp", "src/tam/schedule.h",
        "src/tam/schedule.cpp", "bench/delta_eval_study.cpp",
        "tests/delta_eval_test.cpp"}) {
    const auto path = options.root / file;
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    options.paths.push_back(path);
  }
  const lint::Report report = lint::run(options);
  std::string listing;
  for (const auto& f : report.findings) {
    listing += f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n";
  }
  EXPECT_TRUE(report.findings.empty()) << listing;
  // "Clean" must not be achieved through suppression: zero inline
  // directives and zero allowlist entries cover these files.
  EXPECT_TRUE(report.suppressed.empty());
  EXPECT_EQ(report.files_scanned, 6);
}

// The tracing subsystem lints clean with zero inline directives; the only
// sanctioned exceptions are the SL012 singletons in obs.cpp (the registry,
// session and epoch that make src/obs a process-wide sink by design), which
// are carried by the audited repo allowlist. In particular SL011 keeps all
// time reads behind the clock shim and SL004 keeps the exporters on ordered
// containers, so traces and metrics files are byte-stable for a given run.
TEST(LintRepo, ObsTusNeedOnlySanctionedSingletons) {
  lint::Options options;
  options.root = std::filesystem::path(SITAM_REPO_ROOT);
  const auto obs_dir = options.root / "src/obs";
  ASSERT_TRUE(std::filesystem::is_directory(obs_dir)) << obs_dir;
  options.paths = {obs_dir};
  options.allowlist =
      lint::parse_allowlist(options.root / "tools/lint_allowlist.txt");
  const lint::Report report = lint::run(options);
  std::string listing;
  for (const auto& f : report.findings) {
    listing += f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n";
  }
  EXPECT_TRUE(report.findings.empty()) << listing;
  EXPECT_FALSE(report.suppressed.empty());
  for (const auto& f : report.suppressed) {
    EXPECT_EQ(f.rule, "SL012");
    EXPECT_EQ(f.file, "src/obs/obs.cpp");
  }
  EXPECT_GE(report.files_scanned, 8);
}

// The real tree must lint clean — the same gate as the `lint_repo` ctest,
// here with a precise failure message listing the offending findings.
TEST(LintRepo, WholeTreeIsClean) {
  lint::Options options;
  options.root = std::filesystem::path(SITAM_REPO_ROOT);
  for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
    const auto path = options.root / dir;
    if (std::filesystem::is_directory(path)) options.paths.push_back(path);
  }
  ASSERT_FALSE(options.paths.empty());
  const auto allowlist = options.root / "tools/lint_allowlist.txt";
  if (std::filesystem::exists(allowlist)) {
    options.allowlist = lint::parse_allowlist(allowlist);
  }
  const lint::Report report = lint::run(options);
  std::string listing;
  for (const auto& f : report.findings) {
    listing += f.file + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n";
  }
  EXPECT_TRUE(report.findings.empty()) << listing;
  EXPECT_TRUE(report.stale_allowlist.empty());
  EXPECT_GT(report.files_scanned, 100);

  // The declared subsystem DAG holds: the aggregated include graph has
  // edges (the tree is not trivially empty) and none of them is a
  // back-edge or part of a same-layer cycle.
  EXPECT_FALSE(report.subsystem_edges.empty());
  for (const auto& edge : report.subsystem_edges) {
    EXPECT_FALSE(edge.back_edge) << edge.from << " -> " << edge.to;
    EXPECT_FALSE(edge.in_cycle) << edge.from << " -> " << edge.to;
  }
}
