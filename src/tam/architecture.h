// TestRail TAM architecture types.
//
// A TestRail architecture partitions the SOC's cores over a set of rails;
// each rail has a fixed width and tests its cores sequentially (the wrapper
// boundaries of the cores on a rail are daisy-chained, with bypass for
// cores not involved in the current test). The paper uses TestRail rather
// than Test Bus because it naturally supports the parallel ExTest that SI
// testing requires.
//
// A TestRail is the plain {cores, width, id} aggregate of the paper's
// Fig. 4 and caches nothing: any code may edit `cores` directly (keeping
// it sorted), and every consumer, the delta evaluator included, reads the
// current content.
#pragma once

#include <string>
#include <vector>

namespace sitam {

struct TestRail {
  std::vector<int> cores;  ///< 0-based core indices, kept sorted.
  int width = 1;           ///< TAM wires assigned to this rail.
  int id = -1;             ///< Stable identity for optimizer bookkeeping
                           ///< (survives re-sorting; fresh after merges).

  /// Inserts `core` at its sorted position.
  void insert_core(int core);

  /// Removes `core` (which must be present).
  void erase_core(int core);

  /// Merges `other`'s cores into this rail (both stay sorted; the core
  /// sets must be disjoint, as rails of one architecture always are).
  /// Merges backward in place: no temporary buffer.
  void merge_cores_from(const TestRail& other);
};

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
