// TestRail TAM architecture types.
//
// A TestRail architecture partitions the SOC's cores over a set of rails;
// each rail has a fixed width and tests its cores sequentially (the wrapper
// boundaries of the cores on a rail are daisy-chained, with bypass for
// cores not involved in the current test). The paper uses TestRail rather
// than Test Bus because it naturally supports the parallel ExTest that SI
// testing requires.
//
// Incremental content hashing (DESIGN.md §"wall-clock engineering"): the
// delta evaluator matches rails between consecutive candidate architectures
// by a dual 64-bit content hash of (width, core set). Rehashing every rail
// on every evaluation used to dominate the delta path, so each TestRail now
// carries the hash as cached state: two commutative sums of per-core
// SplitMix64 terms, updated in O(1) by the mutation helpers below and
// carried along by copies (the optimizers copy the incumbent into reused
// candidate storage and touch 1–2 rails, or move a core in place and undo
// the move, which restores the sums exactly). The width does not enter the
// sums — it is mixed in only by the final content_hash() step — so the
// optimizer's innermost move, the ±1-wire probe, needs no hash maintenance
// at all. Code that mutates `cores` directly (bulk construction, tests)
// must call invalidate_hash(); content_hash() cross-checks its cache
// against the from-scratch recomputation under SITAM_DCHECK, so a missed
// invalidation fails loudly in Debug and sanitizer runs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace sitam {

/// Dual 64-bit rail content hash. Both halves must match for two rails to
/// be treated as identical, so a false match needs a simultaneous 128-bit
/// collision.
struct RailHash {
  std::uint64_t key = 0;
  std::uint64_t check = 0;

  friend bool operator==(const RailHash&, const RailHash&) = default;
};

struct TestRail {
  std::vector<int> cores;  ///< 0-based core indices, kept sorted.
  int width = 1;           ///< TAM wires assigned to this rail.
  int id = -1;             ///< Stable identity for optimizer bookkeeping
                           ///< (survives re-sorting; fresh after merges).

  /// Inserts `core` at its sorted position, updating the hash cache in
  /// O(1) when it is warm.
  void insert_core(int core);

  /// Removes `core` (which must be present), updating the hash cache in
  /// O(1) when it is warm.
  void erase_core(int core);

  /// Merges `other`'s cores into this rail (both stay sorted; the core
  /// sets must be disjoint, as rails of one architecture always are). The
  /// commutative hash sums make the merged cache the sum of the two caches
  /// when both are warm. Merges backward in place: no temporary buffer.
  void merge_cores_from(const TestRail& other);

  /// Content hash of (width, core set), served from the incremental cache;
  /// a cold cache recomputes the sums in one pass over `cores`. Width is
  /// mixed in here, not in the cached sums, so width changes never touch
  /// the cache. Cross-checked against the from-scratch reference under
  /// SITAM_DCHECK.
  [[nodiscard]] RailHash content_hash() const;

  /// Warms the incremental cache (one pass over `cores` when cold) and
  /// returns the raw commutative sums. The delta evaluator matches rails on
  /// the quadruple (sum0, sum1, width, |cores|) directly — equality of the
  /// quadruple implies equality of the finalized dual hash, so this is the
  /// same match with zero SplitMix64 rounds on the warm path. Inline so the
  /// delta match pass pays a predicted branch and two loads per rail, not a
  /// call. Cross-checked against the from-scratch reference under
  /// SITAM_DCHECK (the cross-check lives in the out-of-line helpers so the
  /// release fast path stays two instructions).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> hash_sums() const {
    if (!hash_valid_) rehash_cores();
#if SITAM_DCHECKS_ENABLED
    check_hash_cache();
#endif
    return {hash_sum0_, hash_sum1_};
  }

  /// Marks the hash cache cold after a direct mutation of `cores`.
  void invalidate_hash() const { hash_valid_ = false; }

  /// Cold path of hash_sums(): one pass over `cores`. Out of line.
  void rehash_cores() const;

  /// Debug-only: verifies the warm cache against the from-scratch
  /// reference, catching mutation sites that bypassed the helpers.
  void check_hash_cache() const;

  // Commutative per-core term sums (u64 wraparound). Cache state, not part
  // of the rail's value — touch only via the helpers above. Public (with
  // the trailing underscore marking them internal) so TestRail stays an
  // aggregate; mutable because computing the hash of a const rail warms
  // the cache, which is not an observable state change.
  mutable std::uint64_t hash_sum0_ = 0;
  mutable std::uint64_t hash_sum1_ = 0;
  mutable bool hash_valid_ = false;
};

/// From-scratch reference for TestRail::content_hash(): recomputes the
/// commutative sums over `rail.cores` and finalizes with the width. The
/// incremental cache must agree with this after any helper sequence — the
/// SITAM_DCHECK in content_hash() and the randomized-move tests enforce it.
[[nodiscard]] RailHash rail_content_hash_reference(const TestRail& rail);

struct TamArchitecture {
  std::vector<TestRail> rails;

  [[nodiscard]] int total_width() const;
  [[nodiscard]] int core_count() const;

  /// Map core -> rail index; entries are -1 for cores on no rail.
  /// `num_cores` sizes the map.
  [[nodiscard]] std::vector<int> rail_of_core(int num_cores) const;

  /// Checks that rails form a partition of [0, num_cores) and that every
  /// width is >= 1; throws std::invalid_argument otherwise.
  void validate(int num_cores) const;

  /// One-line description like "{0,3|w=4} {1,2,4|w=2}".
  [[nodiscard]] std::string describe() const;
};

}  // namespace sitam
