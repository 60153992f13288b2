// Independent verification of an Evaluation against a TAM architecture and
// SI test set.
//
// The evaluator and the verifier are deliberately separate code paths: the
// verifier recomputes nothing from the evaluator's internals, it only
// checks the published result against the model's invariants —
//  * the architecture is a valid partition of the SOC at the right width,
//  * per-rail InTest slots are contiguous and use the right durations,
//  * every non-empty SI group is scheduled exactly once, for its correct
//    duration, on exactly the rails hosting its cores,
//  * no rail hosts two overlapping SI tests; with interleaving, no SI test
//    overlaps the InTest of a rail it occupies,
//  * power budget and exclusive-bus constraints hold at every start time,
//  * the reported totals (t_in, t_si, t_soc, makespan) are consistent.
//
// Returns a list of human-readable violations (empty = verified). Used as
// an optimizer postcondition in tests and by the CLI.
#pragma once

#include <string>
#include <vector>

#include "sitest/group.h"
#include "soc/soc.h"
#include "tam/architecture.h"
#include "tam/evaluator.h"
#include "wrapper/design.h"

namespace sitam {

[[nodiscard]] std::vector<std::string> verify_evaluation(
    const Soc& soc, const TestTimeTable& table, const SiTestSet& tests,
    const TamArchitecture& arch, const Evaluation& evaluation,
    const EvaluatorOptions& options = {});

/// Sanity-checks evaluator counters: non-negative, cache_hits + delta hits
/// + misses equal to the total evaluation count, and a non-empty count when a
/// result was produced. Same contract as verify_evaluation: a list of
/// human-readable violations, empty = verified.
[[nodiscard]] std::vector<std::string> verify_stats(
    const EvaluatorStats& stats);

/// Field-by-field comparison of a DeltaEvaluator result against the full
/// ScheduleSITest reference for the same architecture: totals, per-rail
/// times, InTest slots and every schedule item must be bit-identical (the
/// delta path replays the shared placement loop, so there is no tolerance).
/// Returns human-readable mismatches, empty = identical. The delta path
/// runs this on every hit under SITAM_DCHECK; the differential tests run it
/// unconditionally.
[[nodiscard]] std::vector<std::string> verify_delta_consistency(
    const Evaluation& delta, const Evaluation& reference);

}  // namespace sitam
