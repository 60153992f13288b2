// Test- and bench-only oracle for the vertical compaction of
// src/pattern/compaction.h: the historical sparse-list greedy sweep, run
// the direct way — seed a compacted pattern with the first uncompacted
// one, sweep every following pattern, merge each compatible one, repeat.
// compact_greedy must reproduce its output byte for byte; compaction_study
// and micro_benchmarks time the kernel against it.
#pragma once

#include <span>

#include "pattern/compaction.h"
#include "pattern/pattern.h"

namespace sitam::testing {

/// The sparse sweep (per-care-bit checks against an epoch-stamped dense
/// accumulator), with compact_greedy's dimension and id checks. Frozen as
/// the byte-identity oracle; do not optimize.
[[nodiscard]] CompactionResult compact_greedy_reference(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width);

}  // namespace sitam::testing
