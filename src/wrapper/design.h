// IEEE-1500-style test wrapper design.
//
// Implements the `Combine` procedure of Marinissen, Goel & Lousberg
// ("Wrapper Design for Embedded Core Test", ITC 2000), which the DAC'07
// paper reuses for InTest-mode wrappers: internal scan chains are packed
// onto `width` wrapper scan chains with Largest-Processing-Time/Best-Fit-
// Decreasing, then wrapper input (WIC) and output (WOC) cells are spread to
// balance the scan-in and scan-out paths.
//
// A wrapper scan chain is ordered  WICs -> internal scan chains -> WOCs,
// so its scan-in length is (input cells + flops) and its scan-out length is
// (flops + output cells).
//
// In SI (ExTest) mode the wrapper chains contain boundary cells only; the
// paper assumes balanced chains, i.e. a per-pattern WOC load of
// ceil(woc / width) on a width-bit TAM.
#pragma once

#include <cstdint>
#include <vector>

#include "soc/soc.h"
#include "util/check.h"

namespace sitam {

/// One wrapper scan chain under construction / in a finished design.
struct WrapperChain {
  std::vector<int> internal_chains;  ///< Lengths of packed scan chains.
  int input_cells = 0;               ///< WICs placed on this chain.
  int output_cells = 0;              ///< WOCs placed on this chain.

  [[nodiscard]] std::int64_t flops() const;
  [[nodiscard]] std::int64_t scan_in_length() const {
    return input_cells + flops();
  }
  [[nodiscard]] std::int64_t scan_out_length() const {
    return flops() + output_cells;
  }
};

/// A finished InTest wrapper design for one core at one TAM width.
struct WrapperDesign {
  int width = 0;                     ///< TAM width the design targets.
  std::vector<WrapperChain> chains;  ///< Exactly `width` chains (some may
                                     ///< be empty when the core is small).
  std::int64_t scan_in = 0;          ///< max over chains of scan-in length.
  std::int64_t scan_out = 0;         ///< max over chains of scan-out length.

  /// InTest application time for `patterns` test patterns:
  ///   T = (1 + max(si, so)) * p + min(si, so)
  /// (pipelined scan: shift-out of pattern i overlaps shift-in of i+1).
  [[nodiscard]] std::int64_t test_time(std::int64_t patterns) const;
};

/// Builds a balanced wrapper for `module` on a `width`-bit TAM.
/// Throws std::invalid_argument if width <= 0.
[[nodiscard]] WrapperDesign design_wrapper(const Module& module, int width);

/// InTest time of `module` on a `width`-bit TAM (wrapper via Combine).
[[nodiscard]] std::int64_t intest_time(const Module& module, int width);

/// Per-pattern WOC scan length of `module` in SI mode on a `width`-bit TAM.
[[nodiscard]] std::int64_t si_woc_shift(const Module& module, int width);

/// Per-pattern WIC capture/shift-out length in SI mode (receiver side).
[[nodiscard]] std::int64_t si_wic_shift(const Module& module, int width);

/// Smallest width w* <= width with intest_time(m, w*) == intest_time(m,
/// width): the Pareto-optimal width (extra wires beyond w* are wasted).
[[nodiscard]] int pareto_width(const Module& module, int width);

/// Classic interconnect shorts/opens ExTest time (NOT the SI test): a
/// handful of boundary-scan patterns, each loading every core's WOCs over
/// the full TAM width:
///   T = (patterns + 1) * ceil(total_woc / width) + 2 * patterns.
/// The paper's §2 premise in one number — this is negligible next to
/// InTest, which is why classic flows could ignore ExTest until SI faults
/// made it expensive. Throws std::invalid_argument for width < 1 or
/// patterns < 0.
[[nodiscard]] std::int64_t extest_shorts_opens_time(const Soc& soc,
                                                    int width,
                                                    std::int64_t patterns = 4);

/// Precomputed per-core test-time tables for widths 1..max_width. The TAM
/// optimizer evaluates thousands of candidate architectures; this makes a
/// per-core lookup O(1). Both lookups are flat-array loads and inline —
/// they sit on the innermost loops of schedule evaluation (the delta
/// evaluator's dirty-rail InTest sums and CalculateSITestTime's per-core
/// WOC shifts), where an out-of-line call plus a 64-bit division per core
/// was a measurable slice of the evaluation.
///
/// A table holds every width up to max_width exactly, so one table at the
/// largest width of a sweep serves every smaller width. Its rows (one per
/// core) are independent: a table built with kRowsLater has each row
/// filled by fill_row, on any thread, before the first lookup.
class TestTimeTable {
 public:
  struct RowsLater {};
  static constexpr RowsLater kRowsLater{};

  /// Throws std::invalid_argument if max_width <= 0.
  TestTimeTable(const Soc& soc, int max_width);
  /// The same table with no row filled yet.
  TestTimeTable(const Soc& soc, int max_width, RowsLater);

  /// Computes core `core`'s row (`soc` is the SOC the table was made for).
  void fill_row(const Soc& soc, int core);

  [[nodiscard]] int core_count() const { return core_count_; }
  [[nodiscard]] int max_width() const { return max_width_; }

  /// InTest time of core `core` (0-based index into Soc::modules) at
  /// `width`; widths above max_width() clamp (time is non-increasing).
  [[nodiscard]] std::int64_t intest(int core, int width) const {
    check_core(core);
    SITAM_CHECK_MSG(width >= 1, "width " << width << " must be >= 1");
    const int w = width < max_width_ ? width : max_width_;
    return intest_[static_cast<std::size_t>(core) *
                       static_cast<std::size_t>(max_width_) +
                   static_cast<std::size_t>(w - 1)];
  }

  /// min over w' <= width of intest(core, w'): the non-increasing envelope
  /// of the InTest column, equal to intest() wherever the table is
  /// monotone. A lower bound on the InTest time of the core at any width
  /// up to `width` (the mergeTAMs partner bound reads it).
  [[nodiscard]] std::int64_t intest_floor(int core, int width) const {
    check_core(core);
    SITAM_CHECK_MSG(width >= 1, "width " << width << " must be >= 1");
    const int w = width < max_width_ ? width : max_width_;
    return intest_floor_[static_cast<std::size_t>(core) *
                             static_cast<std::size_t>(max_width_) +
                         static_cast<std::size_t>(w - 1)];
  }

  /// ceil(woc / width) for core `core`.
  [[nodiscard]] std::int64_t woc_shift(int core, int width) const {
    check_core(core);
    SITAM_CHECK_MSG(width >= 1, "width " << width << " must be >= 1");
    if (width <= max_width_) {
      return woc_shift_[static_cast<std::size_t>(core) *
                            static_cast<std::size_t>(max_width_) +
                        static_cast<std::size_t>(width - 1)];
    }
    // Uncommon: a width beyond the table (no clamp — the shift keeps
    // shrinking past max_width, unlike the InTest time).
    const std::int64_t woc = woc_[static_cast<std::size_t>(core)];
    return (woc + width - 1) / width;
  }

 private:
  void check_core(int core) const {
    SITAM_CHECK_MSG(core >= 0 && core < core_count_,
                    "core index " << core << " out of range [0, "
                                  << core_count_ << ")");
  }

  int max_width_;
  int core_count_ = 0;
  std::vector<std::int64_t> intest_;     // [core * max_width + width-1]
  std::vector<std::int64_t> intest_floor_;  // prefix minimum of intest_
  std::vector<std::int64_t> woc_shift_;  // [core * max_width + width-1]
  std::vector<int> woc_;                 // [core]
};

}  // namespace sitam
