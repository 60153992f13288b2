#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "lint/model.h"

namespace sitam::lint {

namespace {

constexpr Rule kRules[] = {
    {"SL001",
     "banned RNG source (rand/srand/std::random_device) outside "
     "src/util/rng.*; all randomness flows through sitam::Rng"},
    {"SL002",
     "wall-clock read (std::chrono ...::now(), std::time, clock()) outside "
     "src/util/stopwatch.h and src/util/log.cpp"},
    {"SL003",
     "pointer-keyed associative container or std::hash<T*>: iteration and "
     "hash order depend on allocation addresses"},
    {"SL004",
     "iteration over std::unordered_map/std::unordered_set in a translation "
     "unit that writes reports, JSON, CSV, tables, or hashes"},
    {"SL005",
     "mutating function in src/tam or src/sitest without a "
     "SITAM_CHECK/SITAM_DCHECK or validating throw"},
    {"SL006", "header without #pragma once"},
    {"SL007", "using-namespace directive in a header"},
    {"SL008",
     "include hygiene: no \"..\"/\".\" relative includes, no .cpp includes, "
     "use <cstdio>-style headers instead of <stdio.h>"},
    {"SL009",
     "float in a test-time accounting path (src/tam, src/sitest, src/core, "
     "src/wrapper): use double or std::int64_t cycle counts"},
    {"SL010",
     "implementation-defined <random> facility (distributions, "
     "std::shuffle/std::sample, engines) outside src/util/rng.*"},
    {"SL011",
     "direct std::chrono use in src/obs outside the clock shim "
     "(src/obs/clock.h); trace timestamps flow through obs::trace_now_ns()"},
    {"SL012",
     "mutable global state (namespace-scope variable, function-local "
     "static, static data member) blocks reentrancy; sanctioned singletons "
     "are allowlisted"},
    {"SL013",
     "field annotated // guarded_by(m) accessed without an enclosing "
     "lock_guard/unique_lock/scoped_lock scope on m"},
    {"SL014",
     "subsystem include edge violates the declared DAG util -> obs -> "
     "{soc,interconnect,hypergraph} -> {pattern,sitest,wrapper} -> tam -> "
     "core"},
    {"SL015",
     "cache container with an insert path but no clear/erase/eviction "
     "grows without bound in a long-running service"},
    {"SL016",
     "raw SIMD intrinsic or vector type; the compaction probe is scalar "
     "and new vector code must first show a measured gain in bench/e2e"},
};

bool is_header_path(const std::string& path) {
  return ends_with(path, ".h") || ends_with(path, ".hpp") ||
         ends_with(path, ".inl");
}

struct Context {
  std::string path;  // Normalized, forward slashes.
  const Stripped& file;
  std::vector<Finding>& findings;

  void emit(std::size_t line_index, const char* rule, std::string message) {
    emit_finding(path, file, line_index, rule, std::move(message), findings);
  }
};

// ---------------------------------------------------------------------------
// SL001 / SL002 / SL010 — nondeterminism sources.

void check_rng_and_clock(Context& ctx) {
  const bool rng_exempt = starts_with(ctx.path, "src/util/rng.");
  const bool clock_exempt = ctx.path == "src/util/stopwatch.h" ||
                            ctx.path == "src/util/log.cpp" ||
                            ctx.path == "src/obs/clock.h";
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    const std::string& line = ctx.file.code[li];
    if (!rng_exempt) {
      for (const char* banned : {"rand", "srand", "random_device"}) {
        if (has_word(line, banned)) {
          ctx.emit(li, "SL001",
                   std::string("'") + banned +
                       "' is a banned randomness source; seed a sitam::Rng "
                       "(src/util/rng.h) instead");
        }
      }
      for (const char* facility :
           {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
            "default_random_engine", "ranlux24", "ranlux48", "knuth_b"}) {
        if (has_word(line, facility)) {
          ctx.emit(li, "SL010",
                   std::string("'") + facility +
                       "' bypasses sitam::Rng; all randomness must flow "
                       "through src/util/rng.h");
        }
      }
      for (const char* algo : {"shuffle", "sample"}) {
        const std::size_t at = find_word(line, algo);
        if (at != std::string::npos && at >= 5 &&
            line.compare(at - 5, 5, "std::") == 0) {
          ctx.emit(li, "SL010",
                   std::string("std::") + algo +
                       " is implementation-defined even with a fixed URBG; "
                       "use sitam::Rng::shuffle / Rng::sample_indices");
        }
      }
      // Identifiers ending in _distribution (<random> distributions are
      // not specified bit-exactly across standard libraries).
      std::size_t at = line.find("_distribution");
      while (at != std::string::npos) {
        const std::size_t after = at + 13;
        if ((after >= line.size() || !ident_char(line[after])) && at > 0 &&
            ident_char(line[at - 1])) {
          ctx.emit(li, "SL010",
                   "<random> distributions are not bit-exact across "
                   "standard libraries; use sitam::Rng distributions");
          break;
        }
        at = line.find("_distribution", at + 1);
      }
      if (line.find("#include") != std::string::npos &&
          line.find("<random>") != std::string::npos) {
        ctx.emit(li, "SL010",
                 "#include <random> outside src/util/rng.*; all randomness "
                 "flows through sitam::Rng");
      }
    }
    if (!clock_exempt) {
      const bool now_call = line.find("::now(") != std::string::npos ||
                            line.find(".now(") != std::string::npos;
      const bool time_call =
          line.find("std::time") != std::string::npos &&
          has_call(line, "time");
      const bool c_clock = has_call(line, "clock") ||
                           has_word(line, "gettimeofday") ||
                           has_word(line, "clock_gettime");
      if (now_call || time_call || c_clock) {
        ctx.emit(li, "SL002",
                 "wall-clock read; timing belongs in sitam::Stopwatch "
                 "(src/util/stopwatch.h) so results never depend on it");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SL003 — pointer-keyed containers / hashes.

void check_pointer_keys(Context& ctx) {
  static const char* kContainers[] = {"map",           "set",
                                      "multimap",      "multiset",
                                      "unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset", "hash"};
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    const std::string& line = ctx.file.code[li];
    for (const char* name : kContainers) {
      std::size_t at = find_word(line, name);
      while (at != std::string::npos) {
        const std::size_t open = at + std::string(name).size();
        if (open < line.size() && line[open] == '<') {
          const std::string key = first_template_arg(line, open);
          if (key.find('*') != std::string::npos &&
              key.find("char") == std::string::npos) {
            ctx.emit(li, "SL003",
                     std::string(name) + "<" + key +
                         ", ...>: pointer keys order/hash by allocation "
                         "address, which varies run to run");
            break;
          }
        }
        at = find_word(line, name, at + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SL004 — unordered-container iteration in an output-writing TU.

bool writes_output(const Stripped& file) {
  static const char* kIncludes[] = {
      "core/report.h", "wrapper/report.h", "util/json.h", "util/table.h",
      "sitest/io.h",   "soc/writer.h",     "core/gantt.h"};
  static const char* kWords[] = {"ostream",  "ofstream", "ostringstream",
                                 "fprintf",  "printf",   "cout",
                                 "to_json",  "to_csv",   "hash_combine"};
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    // Include targets live inside string literals, so match the raw line
    // (guarded by the stripped line: commented-out includes don't count).
    if (file.code[li].find("#include") != std::string::npos) {
      for (const char* inc : kIncludes) {
        if (file.raw[li].find(inc) != std::string::npos) return true;
      }
    }
    for (const char* word : kWords) {
      if (has_word(file.code[li], word)) return true;
    }
  }
  return false;
}

void check_unordered_iteration(Context& ctx) {
  if (!writes_output(ctx.file)) return;

  // Pass 1: names declared with an unordered container type. Template
  // arguments may spill over a line break, so peek ahead two lines.
  std::set<std::string> names;
  const auto& code = ctx.file.code;
  for (std::size_t li = 0; li < code.size(); ++li) {
    for (const char* type : {"unordered_map", "unordered_set",
                             "unordered_multimap", "unordered_multiset"}) {
      std::size_t at = find_word(code[li], type);
      if (at == std::string::npos) continue;
      std::string joined = code[li];
      for (std::size_t extra = 1; extra <= 2 && li + extra < code.size();
           ++extra) {
        joined += ' ' + code[li + extra];
      }
      at = find_word(joined, type);
      std::size_t i = at + std::string(type).size();
      if (i >= joined.size() || joined[i] != '<') continue;
      int depth = 0;
      for (; i < joined.size(); ++i) {
        if (joined[i] == '<') ++depth;
        if (joined[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      while (i < joined.size() &&
             (std::isspace(static_cast<unsigned char>(joined[i])) != 0 ||
              joined[i] == '&' || joined[i] == '*')) {
        ++i;
      }
      std::string name;
      while (i < joined.size() && ident_char(joined[i])) name += joined[i++];
      if (!name.empty()) names.insert(name);
    }
  }
  if (names.empty()) return;

  // Pass 2: iteration over a collected name.
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    for (const std::string& name : names) {
      bool iterates = false;
      if (has_word(line, "for")) {
        const std::size_t at = find_word(line, name);
        if (at != std::string::npos) {
          std::size_t j = at;
          while (j > 0 && std::isspace(static_cast<unsigned char>(
                              line[j - 1])) != 0) {
            --j;
          }
          if (j > 0 && line[j - 1] == ':' &&
              (j < 2 || line[j - 2] != ':')) {
            iterates = true;  // Ranged-for `: name)`.
          }
        }
      }
      for (const char* getter : {".begin(", ".cbegin(", ".rbegin("}) {
        const std::size_t at = line.find(name + getter);
        if (at != std::string::npos &&
            (at == 0 || !ident_char(line[at - 1]))) {
          iterates = true;
        }
      }
      if (iterates) {
        ctx.emit(li, "SL004",
                 "iteration over unordered container '" + name +
                     "' in a TU that writes reports/JSON/CSV/hashes; "
                     "iteration order is unspecified — sort keys first");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SL005 — mutating functions in src/tam & src/sitest must carry a check.

struct FunctionDef {
  std::string signature;  // Everything from the first signature line to '{'.
  std::size_t first_line = 0;
  std::size_t body_begin = 0;  // Line of the opening '{'.
  std::size_t body_end = 0;    // Line of the matching '}'.
};

/// Extremely small structural pass: finds top-level (namespace-scope)
/// function definitions by brace matching on stripped code. (SL005 only
/// cares about out-of-line definitions, so this stays simpler than the
/// full TuModel scan in model.cpp.)
std::vector<FunctionDef> find_functions(const Stripped& file) {
  std::vector<FunctionDef> defs;
  enum class Frame { kNamespace, kType, kFunction, kOther };
  std::vector<Frame> stack;
  std::string pending;
  std::size_t pending_line = 0;
  bool pending_active = false;
  FunctionDef current;
  bool in_function = false;
  std::size_t function_depth = 0;

  const auto& code = file.code;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    if (!line.empty() && line[0] == '#') continue;  // Preprocessor.
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '{') {
        Frame frame = Frame::kOther;
        const bool at_top =
            std::all_of(stack.begin(), stack.end(),
                        [](Frame f) { return f == Frame::kNamespace; });
        if (has_word(pending, "namespace")) {
          frame = Frame::kNamespace;
        } else if ((has_word(pending, "class") ||
                    has_word(pending, "struct") || has_word(pending, "enum") ||
                    has_word(pending, "union")) &&
                   pending.find('(') == std::string::npos) {
          frame = Frame::kType;
        } else if (at_top && pending.find('(') != std::string::npos &&
                   pending.find('=') == std::string::npos) {
          frame = Frame::kFunction;
          current = FunctionDef{};
          current.signature = pending;
          current.first_line = pending_line;
          current.body_begin = li;
          in_function = true;
          function_depth = stack.size();
        }
        stack.push_back(frame);
        pending.clear();
        pending_active = false;
      } else if (c == '}') {
        if (!stack.empty()) {
          const Frame frame = stack.back();
          stack.pop_back();
          if (in_function && frame == Frame::kFunction &&
              stack.size() == function_depth) {
            current.body_end = li;
            defs.push_back(current);
            in_function = false;
          }
        }
        pending.clear();
        pending_active = false;
      } else if (c == ';') {
        pending.clear();
        pending_active = false;
      } else {
        if (!pending_active &&
            std::isspace(static_cast<unsigned char>(c)) != 0) {
          continue;
        }
        if (!pending_active) {
          pending_active = true;
          pending_line = li;
        }
        pending.push_back(c);
      }
    }
    pending.push_back(' ');
  }
  return defs;
}

/// Name of the function: identifier right before the first '(' of the
/// parameter list. For "T C::f(" returns "f" with qualifier "C".
void signature_names(const std::string& sig, std::string* qualifier,
                     std::string* name) {
  const std::size_t paren = sig.find('(');
  if (paren == std::string::npos) return;
  std::size_t end = paren;
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(sig[end - 1])) != 0) {
    --end;
  }
  std::size_t begin = end;
  while (begin > 0 && ident_char(sig[begin - 1])) --begin;
  *name = sig.substr(begin, end - begin);
  if (begin >= 2 && sig[begin - 1] == ':' && sig[begin - 2] == ':') {
    std::size_t qe = begin - 2;
    std::size_t qb = qe;
    while (qb > 0 && (ident_char(sig[qb - 1]) || sig[qb - 1] == '>' ||
                      sig[qb - 1] == '<')) {
      --qb;
    }
    *qualifier = sig.substr(qb, qe - qb);
  }
}

/// Parameter list between the function's '(' and its matching ')'.
std::string parameter_list(const std::string& sig) {
  const std::size_t open = sig.find('(');
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = open; i < sig.size(); ++i) {
    if (sig[i] == '(') ++depth;
    if (sig[i] == ')' && --depth == 0) {
      return sig.substr(open + 1, i - open - 1);
    }
  }
  return sig.substr(open + 1);
}

/// Text after the parameter list's closing ')' (cv-qualifiers, noexcept,
/// trailing return, ctor-initializers).
std::string after_parameters(const std::string& sig) {
  const std::size_t open = sig.find('(');
  if (open == std::string::npos) return "";
  int depth = 0;
  for (std::size_t i = open; i < sig.size(); ++i) {
    if (sig[i] == '(') ++depth;
    if (sig[i] == ')' && --depth == 0) return sig.substr(i + 1);
  }
  return "";
}

bool has_mutable_ref_param(const std::string& params) {
  int depth = 0;
  std::string param;
  std::vector<std::string> parts;
  for (const char c : params) {
    if (c == '<' || c == '(' || c == '[') ++depth;
    if (c == '>' || c == ')' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      parts.push_back(param);
      param.clear();
    } else {
      param.push_back(c);
    }
  }
  parts.push_back(param);
  for (const std::string& p : parts) {
    const std::size_t amp = p.find('&');
    if (amp == std::string::npos) continue;
    if (amp + 1 < p.size() && p[amp + 1] == '&') continue;  // Rvalue ref.
    if (!has_word(p, "const")) return true;
  }
  return false;
}

void check_mutating_functions(Context& ctx) {
  const bool in_scope = (starts_with(ctx.path, "src/tam/") ||
                         starts_with(ctx.path, "src/sitest/")) &&
                        ends_with(ctx.path, ".cpp");
  if (!in_scope) return;

  for (const FunctionDef& def : find_functions(ctx.file)) {
    std::string qualifier;
    std::string name;
    signature_names(def.signature, &qualifier, &name);
    if (name.empty() || starts_with(name, "operator")) continue;
    if (!qualifier.empty() && qualifier == name) continue;  // Constructor.
    if (!name.empty() && name[0] == '~') continue;          // Destructor.

    const std::string after = after_parameters(def.signature);
    const std::string before_init = after.substr(0, after.find(':'));
    const bool is_member = def.signature.find("::") != std::string::npos &&
                           !qualifier.empty();
    bool mutating = false;
    if (is_member) {
      mutating = !has_word(before_init, "const");
    } else {
      mutating = has_mutable_ref_param(parameter_list(def.signature));
    }
    if (!mutating) continue;

    int body_lines = 0;
    bool has_check = false;
    for (std::size_t li = def.body_begin; li <= def.body_end &&
                                          li < ctx.file.code.size();
         ++li) {
      const std::string& line = ctx.file.code[li];
      if (line.find_first_not_of(" \t{}") != std::string::npos) ++body_lines;
      if (line.find("SITAM_CHECK") != std::string::npos ||
          line.find("SITAM_DCHECK") != std::string::npos ||
          has_word(line, "throw")) {
        has_check = true;
      }
    }
    if (body_lines < 3 || has_check) continue;  // Trivial setter or checked.

    // Honour a directive on the signature line (or the line above it).
    ctx.emit(def.first_line, "SL005",
             "mutating function '" +
                 (qualifier.empty() ? name : qualifier + "::" + name) +
                 "' has no SITAM_CHECK/SITAM_DCHECK or validating throw");
  }
}

// ---------------------------------------------------------------------------
// SL006 / SL007 — header hygiene.

void check_header_rules(Context& ctx) {
  if (!is_header_path(ctx.path)) return;
  bool pragma_once = false;
  for (const std::string& line : ctx.file.code) {
    if (line.find("#pragma") != std::string::npos &&
        line.find("once") != std::string::npos) {
      pragma_once = true;
      break;
    }
  }
  if (!pragma_once) {
    ctx.emit(0, "SL006", "header is missing #pragma once");
  }
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    const std::string& line = ctx.file.code[li];
    if (has_word(line, "using") && has_word(line, "namespace")) {
      ctx.emit(li, "SL007",
               "using-namespace in a header leaks into every includer");
    }
  }
}

// ---------------------------------------------------------------------------
// SL008 — include hygiene.

void check_includes(Context& ctx) {
  static const char* kCCompat[] = {
      "assert.h", "ctype.h",  "errno.h",  "float.h",  "inttypes.h",
      "limits.h", "locale.h", "math.h",   "setjmp.h", "signal.h",
      "stdarg.h", "stddef.h", "stdint.h", "stdio.h",  "stdlib.h",
      "string.h", "time.h",   "wchar.h"};
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    if (ctx.file.code[li].find("#include") == std::string::npos) continue;
    // Quote-include targets are string literals, blanked in the stripped
    // view; extract them from the raw line instead.
    const std::string& line = ctx.file.raw[li];
    const std::size_t inc = line.find("#include");
    if (inc == std::string::npos) continue;
    std::size_t open = line.find_first_of("<\"", inc);
    if (open == std::string::npos) continue;
    const char close_ch = line[open] == '<' ? '>' : '"';
    const std::size_t close = line.find(close_ch, open + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(open + 1, close - open - 1);
    if (starts_with(target, "../") || starts_with(target, "./") ||
        target.find("/../") != std::string::npos) {
      ctx.emit(li, "SL008",
               "relative include '" + target +
                   "'; include subsystem-relative paths (e.g. \"util/rng.h\")");
    }
    if (ends_with(target, ".cpp") || ends_with(target, ".cc")) {
      ctx.emit(li, "SL008", "never #include an implementation file");
    }
    if (line[open] == '<') {
      for (const char* legacy : kCCompat) {
        if (target == legacy) {
          ctx.emit(li, "SL008",
                   "use <c" + target.substr(0, target.size() - 2) +
                       "> instead of <" + target + ">");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SL009 — float in accounting paths.

void check_float(Context& ctx) {
  const bool in_scope =
      starts_with(ctx.path, "src/tam/") || starts_with(ctx.path, "src/sitest/") ||
      starts_with(ctx.path, "src/core/") || starts_with(ctx.path, "src/wrapper/");
  if (!in_scope) return;
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    if (has_word(ctx.file.code[li], "float")) {
      ctx.emit(li, "SL009",
               "float in a test-time accounting path; cycle counts are "
               "std::int64_t and ratios are double");
    }
  }
}

// ---------------------------------------------------------------------------
// SL011 — src/obs takes timestamps only through its clock shim.

void check_obs_clock(Context& ctx) {
  const bool in_scope =
      starts_with(ctx.path, "src/obs/") && ctx.path != "src/obs/clock.h";
  if (!in_scope) return;
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    if (has_word(ctx.file.code[li], "chrono")) {
      ctx.emit(li, "SL011",
               "std::chrono in src/obs outside the clock shim; take "
               "timestamps from obs::trace_now_ns() (src/obs/clock.h) so "
               "every trace event shares one monotonic epoch");
    }
  }
}

// ---------------------------------------------------------------------------
// SL016 — raw SIMD intrinsics anywhere.

void check_simd_intrinsics(Context& ctx) {
  // No file is exempt: AVX2/NEON plane-sweep kernels were timed against
  // the scalar probe end to end, lost, and were deleted. Vector code comes
  // back only with a measured bench/e2e gain. __builtin_prefetch and
  // __builtin_cpu_supports are portable builtins, not intrinsics, and are
  // deliberately not matched here.
  static constexpr const char* kMarkers[] = {
      // x86 intrinsic headers, vector types, and intrinsic prefixes.
      "immintrin.h", "x86intrin.h", "emmintrin.h", "tmmintrin.h",
      "smmintrin.h", "avxintrin.h", "__m128", "__m256", "__m512", "_mm_",
      "_mm256_", "_mm512_",
      // NEON header, vector-type suffix pattern stand-ins, and the
      // intrinsic families a plane-sweep kernel would reach for.
      "arm_neon.h", "vld1q_", "vst1q_", "vcombine_u", "vcreate_u",
      "vgetq_lane_", "vsetq_lane_", "vandq_u", "vorrq_u", "veorq_u",
      "vaddq_u", "uint64x2_t", "uint32x4_t", "uint16x8_t", "uint8x16_t",
  };
  for (std::size_t li = 0; li < ctx.file.code.size(); ++li) {
    const std::string& line = ctx.file.code[li];
    for (const char* marker : kMarkers) {
      const std::size_t at = line.find(marker);
      if (at != std::string::npos && (at == 0 || !ident_char(line[at - 1]))) {
        ctx.emit(li, "SL016",
                 "raw SIMD intrinsic/vector type; the compaction probe "
                 "is scalar-only — new vector code must first show a "
                 "measured end-to-end gain in bench/e2e");
        break;
      }
    }
  }
}

std::string normalize(const std::filesystem::path& p) {
  std::string s = p.generic_string();
  while (starts_with(s, "./")) s = s.substr(2);
  return s;
}

bool lintable_file(const std::filesystem::path& p) {
  static const char* kExtensions[] = {".h", ".hpp", ".cpp", ".cc", ".cxx",
                                      ".inl"};
  const std::string ext = p.extension().string();
  return std::any_of(std::begin(kExtensions), std::end(kExtensions),
                     [&](const char* e) { return ext == e; });
}

/// Per-file lint result: findings (inline suppression resolved, allowlist
/// not yet applied) plus the subsystem-relative include edges the cross-TU
/// layering pass consumes. Exactly what the incremental cache stores.
struct FileResult {
  std::vector<Finding> findings;
  std::vector<IncludeRef> includes;
};

/// Full per-file analysis. `sibling_text` is the same-stem header of a
/// .cpp (nullptr when there is none): its guarded_by annotations and
/// class definitions extend the SL013/SL015 passes, since members are
/// declared in the header but used out-of-line in the .cpp.
FileResult lint_file(const std::string& path, const std::string& text,
                     const std::string* sibling_text) {
  FileResult result;
  const Stripped stripped = strip(text);
  Context ctx{path, stripped, result.findings};
  check_rng_and_clock(ctx);
  check_pointer_keys(ctx);
  check_unordered_iteration(ctx);
  check_mutating_functions(ctx);
  check_header_rules(ctx);
  check_includes(ctx);
  check_float(ctx);
  check_obs_clock(ctx);
  check_simd_intrinsics(ctx);

  const TuModel model = build_model(stripped);
  std::vector<ClassDecl> extra_classes;
  if (sibling_text != nullptr) {
    extra_classes = build_model(strip(*sibling_text)).classes;
  }
  check_mutable_globals(path, stripped, model, result.findings);
  check_lock_discipline(path, stripped, model, extra_classes,
                        result.findings);
  check_unbounded_growth(path, stripped, model, extra_classes,
                         result.findings);

  result.includes = scan_includes(stripped);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

/// Same-stem header path of a .cpp ("src/tam/evaluator.cpp" ->
/// "src/tam/evaluator.h" / ".hpp"), looked up in the scanned set.
std::string sibling_header_path(
    const std::string& path,
    const std::map<std::string, std::size_t>& by_path) {
  if (!ends_with(path, ".cpp") && !ends_with(path, ".cc")) return "";
  const std::size_t dot = path.rfind('.');
  for (const char* ext : {".h", ".hpp"}) {
    const std::string candidate = path.substr(0, dot) + ext;
    if (by_path.count(candidate) != 0) return candidate;
  }
  return "";
}

}  // namespace

std::span<const Rule> rules() { return kRules; }

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& text) {
  return lint_file(path, text, nullptr).findings;
}

std::vector<AllowlistEntry> parse_allowlist(
    const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) {
    throw std::runtime_error("sitam_lint: cannot open allowlist: " +
                             file.string());
  }
  std::vector<AllowlistEntry> entries;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos || line[b] == '#') continue;
    std::istringstream fields(line);
    AllowlistEntry entry;
    fields >> entry.rule >> entry.path;
    std::getline(fields, entry.reason);
    const std::size_t rb = entry.reason.find_first_not_of(" \t");
    entry.reason = rb == std::string::npos ? "" : entry.reason.substr(rb);
    const bool rule_ok =
        entry.rule == "*" ||
        std::any_of(std::begin(kRules), std::end(kRules),
                    [&](const Rule& r) { return entry.rule == r.id; });
    if (!rule_ok || entry.path.empty() || entry.reason.empty()) {
      throw std::runtime_error(
          "sitam_lint: bad allowlist line " + std::to_string(line_no) +
          " (want: SLxxx <path> <justification>): " + line);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

Report run(const Options& options) {
  Report report;

  // Collect files: explicit files always; directories walked recursively
  // with sorted, deterministic order.
  std::vector<std::filesystem::path> files;
  for (const auto& path : options.paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::filesystem::path> in_dir;
      for (std::filesystem::recursive_directory_iterator it(
               path, std::filesystem::directory_options::skip_permission_denied,
               ec),
           end;
           it != end; ++it) {
        const std::filesystem::path& entry = it->path();
        const std::string base = entry.filename().string();
        if (it->is_directory()) {
          if (base == ".git" || starts_with(base, "build") ||
              (options.skip_fixture_dirs && base == "lint_fixtures")) {
            it.disable_recursion_pending();
          }
          continue;
        }
        if (lintable_file(entry)) in_dir.push_back(entry);
      }
      std::sort(in_dir.begin(), in_dir.end());
      files.insert(files.end(), in_dir.begin(), in_dir.end());
    } else if (std::filesystem::exists(path, ec)) {
      files.push_back(path);
    } else {
      throw std::runtime_error("sitam_lint: no such path: " + path.string());
    }
  }

  // Stage 1: read every file up front. The sibling-header pass and the
  // layering pass both need the whole set before per-file analysis.
  struct FileEntry {
    std::string path;  ///< Normalized repo-relative path.
    std::string text;
  };
  std::vector<FileEntry> entries;
  std::map<std::string, std::size_t> by_path;
  entries.reserve(files.size());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      throw std::runtime_error("sitam_lint: cannot read " + file.string());
    }
    std::ostringstream text;
    text << in.rdbuf();

    std::error_code ec;
    std::filesystem::path rel =
        std::filesystem::relative(file, options.root, ec);
    if (ec || rel.empty() || rel.generic_string().rfind("..", 0) == 0) {
      rel = file;
    }
    FileEntry entry;
    entry.path = normalize(rel);
    entry.text = text.str();
    if (by_path.count(entry.path) != 0) continue;  // Path listed twice.
    by_path.emplace(entry.path, entries.size());
    entries.push_back(std::move(entry));
  }

  const bool incremental = !options.cache_file.empty();
  LintCache cache;
  if (incremental) cache.load(options.cache_file);

  // Stage 2: per-file analysis (or cache hit). The cache key mixes the
  // sibling header's hash into the file's own, so editing a header
  // invalidates the .cpp entries that read its annotations.
  std::vector<Finding> findings;  ///< Pre-allowlist, inline resolved.
  std::vector<FileIncludes> all_includes;
  std::vector<std::string> seen_paths;
  for (const FileEntry& entry : entries) {
    ++report.files_scanned;
    seen_paths.push_back(entry.path);

    const std::string sibling = sibling_header_path(entry.path, by_path);
    const std::string* sibling_text =
        sibling.empty() ? nullptr : &entries[by_path.at(sibling)].text;
    std::uint64_t key = text_hash(entry.text);
    if (sibling_text != nullptr) {
      key = key * 1099511628211ULL ^ text_hash(*sibling_text);
    }

    if (incremental) {
      if (const CachedFile* hit = cache.lookup(entry.path, key)) {
        ++report.cache_hits;
        findings.insert(findings.end(), hit->findings.begin(),
                        hit->findings.end());
        all_includes.push_back(FileIncludes{entry.path, hit->includes});
        continue;
      }
      ++report.cache_misses;
    }

    FileResult result = lint_file(entry.path, entry.text, sibling_text);
    if (incremental) {
      cache.update(entry.path, CachedFile{key, result.findings,
                                          result.includes});
    }
    findings.insert(findings.end(),
                    std::make_move_iterator(result.findings.begin()),
                    std::make_move_iterator(result.findings.end()));
    all_includes.push_back(
        FileIncludes{entry.path, std::move(result.includes)});
  }

  // Stage 3: cross-TU layering over the aggregated include graph. Always
  // recomputed — the edges are cached per file, the graph verdict is not.
  check_layering(all_includes, findings, report.subsystem_edges);

  // Stage 4: allowlist application, then a global deterministic sort.
  std::vector<bool> allowlist_used(options.allowlist.size(), false);
  for (Finding& f : findings) {
    if (!f.suppressed) {
      for (std::size_t i = 0; i < options.allowlist.size(); ++i) {
        const AllowlistEntry& entry = options.allowlist[i];
        if (entry.path == f.file &&
            (entry.rule == "*" || entry.rule == f.rule)) {
          f.suppressed = true;
          allowlist_used[i] = true;
          break;
        }
      }
    }
    (f.suppressed ? report.suppressed : report.findings)
        .push_back(std::move(f));
  }
  const auto order = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  };
  std::sort(report.findings.begin(), report.findings.end(), order);
  std::sort(report.suppressed.begin(), report.suppressed.end(), order);
  for (std::size_t i = 0; i < options.allowlist.size(); ++i) {
    if (!allowlist_used[i]) {
      report.stale_allowlist.push_back(options.allowlist[i]);
    }
  }

  if (incremental) cache.save(options.cache_file, seen_paths);
  return report;
}

void print_findings(std::ostream& os, std::span<const Finding> findings) {
  for (const Finding& f : findings) {
    os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
       << '\n';
  }
}

}  // namespace sitam::lint
