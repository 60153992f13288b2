// sitam-lint: repo-native static analysis for determinism, reentrancy and
// invariant hygiene.
//
// PR 1 made bit-identical parallel optimization a headline guarantee; this
// linter turns the conventions that guarantee rests on into enforced rules.
// It is a multi-pass analyzer without libclang: every file is stripped of
// comments and string literals, then (a) a fixed line-level rule table
// (SL001..SL011, plus SL016, which bans raw SIMD intrinsics in every file
// with no exemption) is matched against the remaining code, (b) a
// tokenizer-backed scope/symbol model per TU drives the semantic rules —
// SL012 mutable global state, SL013 `// guarded_by(m)` lock discipline,
// SL015 unbounded cache growth — and (c) a cross-TU pass over the include
// graph enforces the declared subsystem DAG (SL014) and renders it as DOT.
// Findings can be suppressed inline with
//
//   // sitam-lint: allow(SL004)            (this line or the next line)
//   // sitam-lint: allow(SL004,SL005)      (several rules)
//   // sitam-lint: allow(*)                (every rule)
//
// or per-file via an allowlist (tools/lint_allowlist.txt) whose entries
// carry a one-line justification. See docs/STATIC_ANALYSIS.md for the rule
// catalogue and the rationale behind each rule.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace sitam::lint {

/// One rule in the catalogue. `id` is stable ("SL001"); `summary` is the
/// one-line description printed by --list-rules.
struct Rule {
  const char* id;
  const char* summary;
};

/// The full rule table, ordered by id.
[[nodiscard]] std::span<const Rule> rules();

/// One diagnostic. `file` is the path exactly as the scanner saw it
/// (repo-relative when walking from a root), `line` is 1-based.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  /// True when an inline `sitam-lint: allow(...)` directive covers the
  /// finding. Allowlist suppression happens later, in run().
  bool suppressed = false;
};

/// One allowlist entry: `rule` (or "*") is exempted in `path`.
struct AllowlistEntry {
  std::string rule;
  std::string path;
  std::string reason;
};

struct Options {
  /// Scanned paths (files or directories), absolute or cwd-relative.
  std::vector<std::filesystem::path> paths;
  /// Paths in findings are reported relative to this root when possible.
  std::filesystem::path root = ".";
  std::vector<AllowlistEntry> allowlist;
  /// Skip directories named "lint_fixtures" (they contain deliberate
  /// violations for the linter's own tests). The lint tests disable this.
  bool skip_fixture_dirs = true;
  /// Incremental mode: load per-file results keyed by content hash from
  /// this file and re-lint only changed files. Empty = off. The cache is
  /// written back (updated and pruned) at the end of run().
  std::filesystem::path cache_file;
};

/// One aggregated edge of the subsystem include graph ("tam" -> "soc").
struct SubsystemEdge {
  std::string from;
  std::string to;
  int count = 0;         ///< Number of include sites.
  bool back_edge = false;  ///< Violates the declared layer order.
  bool in_cycle = false;   ///< Part of a same-layer subsystem cycle.
};

struct Report {
  std::vector<Finding> findings;    ///< Unsuppressed; sorted by file/line.
  std::vector<Finding> suppressed;  ///< Inline- or allowlist-suppressed.
  /// Allowlist entries that matched no finding this run (likely stale).
  std::vector<AllowlistEntry> stale_allowlist;
  int files_scanned = 0;
  /// Subsystem include graph over src/ (SL014 input; DOT artifact source).
  std::vector<SubsystemEdge> subsystem_edges;
  /// Incremental-mode bookkeeping (both zero when the cache is off).
  int cache_hits = 0;
  int cache_misses = 0;
};

/// Lints one in-memory source. `path` must use forward slashes and be
/// repo-relative (several rules are scoped by directory). Returns every
/// finding, including inline-suppressed ones (check Finding::suppressed);
/// the allowlist is applied by run(), not here.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               const std::string& text);

/// Walks Options::paths, lints every C++ source file (.h/.hpp/.cpp/.cc/
/// .cxx/.inl), applies the allowlist, and returns the combined report.
/// Directory traversal is sorted so output is deterministic.
[[nodiscard]] Report run(const Options& options);

/// Parses an allowlist file. Each non-comment line is
///   SLxxx <path> <justification...>
/// Throws std::runtime_error on a malformed line.
[[nodiscard]] std::vector<AllowlistEntry> parse_allowlist(
    const std::filesystem::path& file);

/// Prints findings as "file:line: [SLxxx] message", one per line.
void print_findings(std::ostream& os, std::span<const Finding> findings);

/// Long-form documentation for one rule id ("SL013"), or nullptr for an
/// unknown id. Backs the CLI's `--explain SLxxx`.
[[nodiscard]] const char* explain(const std::string& rule_id);

/// Renders Report::subsystem_edges as a Graphviz digraph: one node per
/// subsystem ranked by layer, edges labelled with include-site counts,
/// back-edges and cycle edges highlighted.
[[nodiscard]] std::string render_subsystem_dot(const Report& report);

/// Writes the report's unsuppressed findings as minimal SARIF 2.1.0 (one
/// run, rule metadata from rules(), result locations repo-relative).
void write_sarif(std::ostream& os, const Report& report);

}  // namespace sitam::lint
