// ITC'02-style SOC description.
//
// A Soc is a flat collection of wrapped modules (embedded cores). Each module
// carries the test-set parameters the DAC'07 optimization consumes: terminal
// counts, internal scan-chain lengths and the InTest pattern count. Hierarchy
// in the original ITC'02 files is flattened, matching the paper ("without
// loss of generality, we do not consider hierarchy").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sitam {

/// One embedded core (or wrapped user-defined logic block).
struct Module {
  int id = 0;               ///< 1-based id, unique within the SOC.
  std::string name;         ///< Human-readable name (e.g. "s38417").
  int inputs = 0;           ///< Functional input terminals.
  int outputs = 0;          ///< Functional output terminals.
  int bidirs = 0;           ///< Bidirectional terminals.
  std::vector<int> scan_chains;  ///< Internal scan-chain lengths.
  std::int64_t patterns = 0;     ///< External (scan) InTest pattern count.
  /// At-speed BIST cycles (ITC'02 tests with ScanUse no): applied through
  /// the same wrapper session but without TAM shifting, so they add a
  /// width-independent term to the core's InTest time.
  std::int64_t bist_patterns = 0;

  /// Wrapper input cells: one per input + one per bidir.
  [[nodiscard]] int wic() const { return inputs + bidirs; }
  /// Wrapper output cells: one per output + one per bidir.
  [[nodiscard]] int woc() const { return outputs + bidirs; }
  /// Total wrapper boundary cells.
  [[nodiscard]] int boundary_cells() const { return wic() + woc(); }
  /// Total internal scan flip-flops.
  [[nodiscard]] std::int64_t scan_flops() const;
  /// Longest internal scan chain (0 if combinational).
  [[nodiscard]] int max_scan_chain() const;
  /// Scan-in/out bit volume of one InTest pattern on a 1-bit TAM.
  [[nodiscard]] std::int64_t test_data_volume() const {
    return (scan_flops() + boundary_cells()) * patterns;
  }

  friend bool operator==(const Module&, const Module&) = default;
};

/// A system chip: a named set of wrapped modules.
struct Soc {
  std::string name;
  std::vector<Module> modules;

  [[nodiscard]] int core_count() const {
    return static_cast<int>(modules.size());
  }
  /// Module lookup by 1-based id; throws std::out_of_range if absent.
  [[nodiscard]] const Module& module_by_id(int id) const;
  /// Sum of woc() over all modules — the full SI pattern length (bits).
  [[nodiscard]] std::int64_t total_woc() const;
  [[nodiscard]] std::int64_t total_wic() const;
  /// Total InTest data volume (serial, 1-bit TAM).
  [[nodiscard]] std::int64_t total_test_data_volume() const;

  friend bool operator==(const Soc&, const Soc&) = default;
};

/// Structural validation; throws std::invalid_argument with a precise
/// message on the first violated constraint (duplicate ids, negative
/// counts, empty name, zero-length scan chains, ...).
void validate(const Soc& soc);

/// Deterministic 64-bit hash of everything the test flow reads from the
/// model: name, module order, per-module terminals, scan-chain lengths and
/// pattern counts. Two SOCs with equal hashes are (up to hash collision)
/// interchangeable inputs — the interning key of the SitamContext arena
/// and part of every workload/request cache key.
[[nodiscard]] std::uint64_t soc_structure_hash(const Soc& soc);

}  // namespace sitam
