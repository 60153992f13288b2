// Internal shared infrastructure for the sitam_lint passes: the
// comment/string stripper, identifier helpers, and the tokenizer-backed
// scope/symbol model (TuModel) the semantic rules (SL012/SL013/SL015) walk.
//
// This header is private to tools/lint — the public surface is lint.h.
//
// The model is deliberately heuristic: it is built by a single
// brace/statement scan over stripped code, not a real C++ parse. Known
// blind spots (documented in docs/STATIC_ANALYSIS.md): namespace-scope
// variables with parenthesized initializers look like function prototypes
// and are skipped, and constructors whose member-init lists use braces
// (`: x_{0}`) are not registered as functions. The repo's style (brace or
// `=` initialization for globals, parens in ctor-init lists) keeps both
// out of the way in practice.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace sitam::lint {

[[nodiscard]] bool ident_char(char c);

/// Comment/string-stripped view of a file: `code[i]` mirrors line i with
/// comments and literal contents blanked, `allow[i]` holds the rule ids an
/// inline directive enables on line i (a directive covers its own line and
/// the following line; "*" means every rule), and `guard[i]` holds the
/// mutex name a `// guarded_by(name)` annotation attaches to line i (same
/// own-line-plus-next coverage as allow directives).
struct Stripped {
  std::vector<std::string> raw;  ///< Original lines (for include paths).
  std::vector<std::string> code;
  std::vector<std::set<std::string>> allow;
  std::vector<std::string> guard;
};

[[nodiscard]] Stripped strip(const std::string& text);

/// Position of `word` in `line` as a whole identifier, or npos.
[[nodiscard]] std::size_t find_word(const std::string& line,
                                    const std::string& word,
                                    std::size_t from = 0);
[[nodiscard]] bool has_word(const std::string& line, const std::string& word);

/// True if `word` occurs as an identifier immediately followed by `(`
/// (ignoring whitespace) — i.e. looks like a call.
[[nodiscard]] bool has_call(const std::string& line, const std::string& word);

[[nodiscard]] bool starts_with(const std::string& s,
                               const std::string& prefix);
[[nodiscard]] bool ends_with(const std::string& s, const std::string& suffix);

/// First template argument of the `<...>` starting at `open` (index of
/// '<'), or "" if the line ends before it closes.
[[nodiscard]] std::string first_template_arg(const std::string& line,
                                             std::size_t open);

// ---------------------------------------------------------------------------
// Scope/symbol model.

/// A namespace-scope variable or a function-local static.
struct VarDecl {
  std::string name;
  std::string decl_text;  ///< Statement text up to the initializer.
  std::size_t line = 0;   ///< 0-based line of the statement's first token.
  bool is_static_local = false;  ///< static/thread_local inside a function.
  bool is_extern = false;
  bool is_const = false;  ///< const or constexpr anywhere in the decl.
};

/// A non-static or static data member.
struct FieldDecl {
  std::string name;
  std::string decl_text;
  std::size_t line = 0;
  std::string guard;  ///< Mutex name from `// guarded_by(...)`, "" if none.
  bool is_static = false;
  bool is_const = false;
};

struct ClassDecl {
  std::string name;  ///< "" for anonymous types.
  std::size_t body_begin = 0;  ///< Line of the opening '{'.
  std::size_t body_end = 0;
  std::vector<FieldDecl> fields;
};

/// A function definition (namespace-scope or in-class).
struct FunctionDecl {
  std::string qualifier;  ///< "C" for C::f or an in-class definition of C.
  std::string name;
  std::string signature;
  std::size_t body_begin = 0;  ///< Line of the opening '{'.
  std::size_t body_end = 0;
};

struct TuModel {
  std::vector<VarDecl> globals;        ///< Namespace-scope variables.
  std::vector<VarDecl> local_statics;  ///< Mutable statics inside functions.
  std::vector<ClassDecl> classes;
  std::vector<FunctionDecl> functions;
};

[[nodiscard]] TuModel build_model(const Stripped& file);

/// Appends a finding, honouring inline allow() directives on its line.
void emit_finding(const std::string& path, const Stripped& file,
                  std::size_t line_index, const char* rule,
                  std::string message, std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Semantic passes (SL012 / SL013 / SL015). All are scoped to src/ paths
// (the fixture tree mirrors src/, so fixtures engage them too).

/// SL012: namespace-scope mutable variables, mutable function-local
/// statics, non-const static data members.
void check_mutable_globals(const std::string& path, const Stripped& file,
                           const TuModel& model,
                           std::vector<Finding>& findings);

/// SL013: every access to a `// guarded_by(m)` field must sit inside a
/// lock_guard/unique_lock/scoped_lock scope on m. `extra_fields` carries
/// annotated fields from a sibling header so out-of-line member functions
/// in the .cpp are checked against the header's annotations.
void check_lock_discipline(const std::string& path, const Stripped& file,
                           const TuModel& model,
                           const std::vector<ClassDecl>& extra_classes,
                           std::vector<Finding>& findings);

/// SL015: cache-named containers (fields of *Cache/*Memo classes, or
/// members whose own name says cache/memo) with an insert path but no
/// eviction/clear anywhere in the TU.
void check_unbounded_growth(const std::string& path, const Stripped& file,
                            const TuModel& model,
                            const std::vector<ClassDecl>& extra_classes,
                            std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Layering (SL014).

/// One quote-include of a subsystem-relative target ("util/rng.h").
struct IncludeRef {
  int line = 0;  ///< 1-based.
  std::string target;
};

/// Subsystem-relative quote-includes of `file` (relative and angle
/// includes are skipped — SL008 owns those).
[[nodiscard]] std::vector<IncludeRef> scan_includes(const Stripped& file);

struct FileIncludes {
  std::string path;  ///< Normalized repo-relative path.
  std::vector<IncludeRef> includes;
};

/// Builds the subsystem graph from per-file include edges, flags DAG
/// back-edges and same-layer cycles (SL014), and fills `edges` for the
/// DOT artifact. SL014 findings never carry inline suppression (an
/// architecture violation is not a per-line concern); use the allowlist.
void check_layering(const std::vector<FileIncludes>& files,
                    std::vector<Finding>& findings,
                    std::vector<SubsystemEdge>& edges);

/// Layer of a subsystem name ("util" -> 0 ... "core" -> 5), or -1 when
/// the name is not part of the declared DAG.
[[nodiscard]] int subsystem_layer(const std::string& subsystem);

// ---------------------------------------------------------------------------
// Incremental lint cache.

/// FNV-1a 64-bit hash of a file's text.
[[nodiscard]] std::uint64_t text_hash(const std::string& text);

/// Per-file cached lint result, keyed by a combined content hash (own file
/// mixed with its sibling header, since SL013/SL015 read the header's
/// annotations). Findings are stored pre-allowlist.
struct CachedFile {
  std::uint64_t key = 0;
  std::vector<Finding> findings;       ///< Inline-suppression resolved.
  std::vector<IncludeRef> includes;
};

class LintCache {
 public:
  /// Loads `file` if it exists and its version header matches; otherwise
  /// starts empty. Never throws on a corrupt cache — it is only a cache.
  void load(const std::filesystem::path& file);

  /// Entry for `path` when its key matches, else nullptr.
  [[nodiscard]] const CachedFile* lookup(const std::string& path,
                                         std::uint64_t key) const;

  void update(const std::string& path, CachedFile entry);

  /// Drops entries for paths not seen this run, then writes the cache.
  void save(const std::filesystem::path& file,
            const std::vector<std::string>& seen_paths) const;

 private:
  std::map<std::string, CachedFile> entries_;
};

}  // namespace sitam::lint
