// Long-form rule documentation for `sitam_lint --explain SLxxx` — the
// catalogue teaches itself. Keep these in sync with
// docs/STATIC_ANALYSIS.md (the doc carries the same rationale plus
// examples).
#include "lint/lint.h"

namespace sitam::lint {

namespace {

struct Doc {
  const char* id;
  const char* text;
};

constexpr Doc kDocs[] = {
    {"SL001",
     "Banned randomness source (rand/srand/std::random_device).\n\n"
     "Bit-identical schedules across machines and thread counts are a\n"
     "headline guarantee; every random draw must flow through the seeded\n"
     "sitam::Rng (src/util/rng.h). Only src/util/rng.* may touch the\n"
     "underlying sources.\n"},
    {"SL002",
     "Wall-clock read outside src/util/stopwatch.h / src/util/log.cpp.\n\n"
     "A result that depends on what time it is cannot be reproduced.\n"
     "Timing for reports goes through sitam::Stopwatch; trace timestamps\n"
     "go through obs::trace_now_ns() (see SL011). Neither may steer any\n"
     "optimization decision.\n"},
    {"SL003",
     "Pointer-keyed associative container or std::hash<T*>.\n\n"
     "Iteration and hash order then depend on allocation addresses, which\n"
     "vary run to run and break deterministic output. Key by a stable id\n"
     "(core index, rail index) instead.\n"},
    {"SL004",
     "Unordered-container iteration in a TU that writes output.\n\n"
     "std::unordered_map/set iteration order is unspecified; in a TU that\n"
     "writes reports, JSON, CSV, tables, or hashes, that order leaks into\n"
     "bytes users diff. Sort keys first or use std::map.\n"},
    {"SL005",
     "Mutating function in src/tam or src/sitest without a\n"
     "SITAM_CHECK/SITAM_DCHECK or validating throw.\n\n"
     "The timing model and schedule transforms carry paper-sourced\n"
     "invariants (DESIGN.md); a mutator that validates nothing will\n"
     "corrupt state long before a test notices. Assert the invariant the\n"
     "mutation preserves.\n"},
    {"SL006",
     "Header without #pragma once.\n\n"
     "Double inclusion is an ODR time bomb; the repo standardizes on\n"
     "#pragma once over include guards.\n"},
    {"SL007",
     "using-namespace directive in a header.\n\n"
     "It leaks into every includer and changes overload resolution at a\n"
     "distance. Headers qualify names explicitly.\n"},
    {"SL008",
     "Include hygiene: no \"..\"/\".\" relative includes, no .cpp\n"
     "includes, use <cstdio>-style headers instead of <stdio.h>.\n\n"
     "Subsystem-relative paths (\"util/rng.h\") keep the include graph\n"
     "analyzable — SL014's layering pass is built on them.\n"},
    {"SL009",
     "float in a test-time accounting path (src/tam, src/sitest,\n"
     "src/core, src/wrapper).\n\n"
     "Cycle counts are exact integers (std::int64_t); float's 24-bit\n"
     "mantissa silently rounds them and double-vs-float mixtures produce\n"
     "platform-dependent totals. Ratios use double.\n"},
    {"SL010",
     "Implementation-defined <random> facility outside src/util/rng.*.\n\n"
     "std::shuffle, distributions and engines are not specified\n"
     "bit-exactly across standard libraries — the same seed gives\n"
     "different schedules on libstdc++ vs libc++. sitam::Rng implements\n"
     "fixed algorithms.\n"},
    {"SL011",
     "Direct std::chrono use in src/obs outside the clock shim.\n\n"
     "Every trace event must share one monotonic epoch or spans from\n"
     "different threads cannot be aligned; obs::trace_now_ns()\n"
     "(src/obs/clock.h) is the single source.\n"},
    {"SL012",
     "Mutable global state: namespace-scope non-const variables, mutable\n"
     "function-local statics, non-const static data members.\n\n"
     "ROADMAP item 1 turns the flow facade into a long-running service\n"
     "where many optimization requests share one process. Every mutable\n"
     "global is a datarace and a cross-request leak waiting to happen.\n"
     "Sanctioned singletons (the obs trace registry, the log level) live\n"
     "in tools/lint_allowlist.txt with a justification; everything else\n"
     "takes state as a parameter.\n\n"
     "Known blind spot: a namespace-scope variable with a parenthesized\n"
     "initializer parses like a prototype and is skipped — use = or {}\n"
     "initialization (the repo style) for globals.\n"},
    {"SL013",
     "Lock discipline: a field annotated `// guarded_by(m)` accessed\n"
     "outside a lock_guard/unique_lock/scoped_lock scope on m.\n\n"
     "Annotate shared fields at their declaration:\n\n"
     "    std::deque<QueuedTask> queue_;  // guarded_by(mutex_)\n\n"
     "The checker verifies every access — bare or this-> inside member\n"
     "functions of the owning class, object.field / object->field\n"
     "anywhere in the TU — sits below a lock statement on that mutex in\n"
     "the same function. Constructors, destructors and functions whose\n"
     "name ends in _locked (caller holds the lock) are exempt. A .cpp\n"
     "file is also checked against annotations in its same-stem sibling\n"
     "header.\n"},
    {"SL014",
     "Subsystem layering: the include graph over src/ must respect the\n"
     "declared DAG\n\n"
     "    util -> obs -> {soc, interconnect, hypergraph, store}\n"
     "         -> {pattern, sitest, wrapper} -> tam -> core -> serve\n\n"
     "(an arrow means \"may be depended on by\"). A lower layer including\n"
     "a higher one is a back-edge; mutual includes between same-layer\n"
     "subsystems are a cycle. Either makes the flow facade impossible to\n"
     "librarify. Break back-edges with dependency inversion — see\n"
     "src/util/obs_hooks.h, which is how util reports thread-pool\n"
     "metrics without including obs. The graph is emitted as a DOT\n"
     "artifact (--dot=FILE).\n"},
    {"SL015",
     "Unbounded cache growth: a cache container with an insert path but\n"
     "no eviction.\n\n"
     "In a long-running service an uncapped memo table is a slow memory\n"
     "leak. The heuristic: container fields of *Cache*/*Memo* classes\n"
     "(and member-style identifiers whose own name says cache/memo) that\n"
     "are inserted into somewhere in the TU must also be cleared, erased,\n"
     "or reassigned somewhere in the TU. StageCache's LRU eviction\n"
     "(src/core/stage_cache.h, trim_locked) is the repo's reference\n"
     "pattern. Inside src/store the rule also covers *index*/*idx*-named\n"
     "containers: the result store's derived index grows per record and\n"
     "must keep a clear/rebuild path (StoreIndex::clear is the\n"
     "reference).\n"},
    {"SL016",
     "Raw SIMD intrinsics anywhere in the tree.\n\n"
     "The compaction conflict probe (pattern/packed.h) is scalar-only.\n"
     "AVX2 and NEON kernels once sat behind a runtime-dispatch table; timed\n"
     "end to end in bench/e2e they lost to the scalar probe on the tables\n"
     "workload and were deleted. New vector code must first show a\n"
     "measured gain in bench/e2e, with identical exact metrics, before this\n"
     "rule is relaxed for it. An intrinsic also breaks builds whose\n"
     "baseline ISA lacks the instruction. Matched: x86/NEON intrinsic\n"
     "headers, __m128/__m256/__m512, _mm*_ prefixes, and the NEON\n"
     "v*q_/uintNxM_t families. Portable builtins (__builtin_prefetch,\n"
     "__builtin_cpu_supports) stay allowed.\n"},
};

}  // namespace

const char* explain(const std::string& rule_id) {
  for (const Doc& doc : kDocs) {
    if (rule_id == doc.id) return doc.text;
  }
  return nullptr;
}

}  // namespace sitam::lint
