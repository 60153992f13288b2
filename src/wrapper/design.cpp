#include "wrapper/design.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/check.h"

namespace sitam {

std::int64_t WrapperChain::flops() const {
  return std::accumulate(internal_chains.begin(), internal_chains.end(),
                         std::int64_t{0});
}

std::int64_t WrapperDesign::test_time(std::int64_t patterns) const {
  if (patterns <= 0) return 0;
  const std::int64_t longer = std::max(scan_in, scan_out);
  const std::int64_t shorter = std::min(scan_in, scan_out);
  return (1 + longer) * patterns + shorter;
}

namespace {

/// Distributes `units` unit-length cells over chains with base lengths
/// `base`, minimizing the maximum of (base + assigned); returns the
/// assignment. This is water-filling and is exactly what adding the cells
/// one at a time to the current argmin chain produces, in O(w log w).
std::vector<std::int64_t> distribute_units(
    const std::vector<std::int64_t>& base, std::int64_t units) {
  std::vector<std::int64_t> add(base.size(), 0);
  if (units == 0 || base.empty()) return add;

  // Binary search the lowest water level L whose capacity covers `units`.
  const auto capacity = [&](std::int64_t level) {
    std::int64_t cap = 0;
    for (const std::int64_t b : base) cap += std::max<std::int64_t>(0, level - b);
    return cap;
  };
  std::int64_t lo = *std::min_element(base.begin(), base.end());
  std::int64_t hi = *std::max_element(base.begin(), base.end()) +
                    (units + static_cast<std::int64_t>(base.size()) - 1) /
                        static_cast<std::int64_t>(base.size()) +
                    1;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (capacity(mid) >= units) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::int64_t level = lo;

  // Fill every chain to (level - 1), then hand out the remainder one cell
  // each; which chains get the extra cell does not change the maximum.
  std::int64_t remaining = units;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const std::int64_t take =
        std::min(remaining, std::max<std::int64_t>(0, (level - 1) - base[i]));
    add[i] = take;
    remaining -= take;
  }
  for (std::size_t i = 0; i < base.size() && remaining > 0; ++i) {
    if (base[i] + add[i] < level) {
      ++add[i];
      --remaining;
    }
  }
  SITAM_CHECK_MSG(remaining == 0, "water-filling failed to place all cells");
  return add;
}

}  // namespace

WrapperDesign design_wrapper(const Module& module, int width) {
  if (width <= 0) {
    throw std::invalid_argument("design_wrapper: width must be positive");
  }
  WrapperDesign design;
  design.width = width;
  design.chains.resize(static_cast<std::size_t>(width));

  // Phase 1: pack internal scan chains, longest first, each onto the
  // wrapper chain with the fewest flops so far (LPT rule of `Combine`).
  std::vector<int> sorted = module.scan_chains;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<std::int64_t> flops(static_cast<std::size_t>(width), 0);
  for (const int len : sorted) {
    const auto target = static_cast<std::size_t>(std::distance(
        flops.begin(), std::min_element(flops.begin(), flops.end())));
    design.chains[target].internal_chains.push_back(len);
    flops[target] += len;
  }

  // Phase 2: spread WICs to balance scan-in paths (input cells + flops).
  const std::vector<std::int64_t> wic_add =
      distribute_units(flops, module.wic());
  // Phase 3: spread WOCs to balance scan-out paths (flops + output cells).
  const std::vector<std::int64_t> woc_add =
      distribute_units(flops, module.woc());

  for (std::size_t i = 0; i < design.chains.size(); ++i) {
    design.chains[i].input_cells = static_cast<int>(wic_add[i]);
    design.chains[i].output_cells = static_cast<int>(woc_add[i]);
    design.scan_in =
        std::max(design.scan_in, design.chains[i].scan_in_length());
    design.scan_out =
        std::max(design.scan_out, design.chains[i].scan_out_length());
  }
  return design;
}

std::int64_t intest_time(const Module& module, int width) {
  // Scan patterns stream through the wrapper; BIST cycles run at speed on
  // top, independent of TAM width.
  return design_wrapper(module, width).test_time(module.patterns) +
         module.bist_patterns;
}

std::int64_t si_woc_shift(const Module& module, int width) {
  if (width <= 0) {
    throw std::invalid_argument("si_woc_shift: width must be positive");
  }
  const std::int64_t woc = module.woc();
  return (woc + width - 1) / width;
}

std::int64_t si_wic_shift(const Module& module, int width) {
  if (width <= 0) {
    throw std::invalid_argument("si_wic_shift: width must be positive");
  }
  const std::int64_t wic = module.wic();
  return (wic + width - 1) / width;
}

std::int64_t extest_shorts_opens_time(const Soc& soc, int width,
                                      std::int64_t patterns) {
  if (width < 1) {
    throw std::invalid_argument(
        "extest_shorts_opens_time: width must be >= 1");
  }
  if (patterns < 0) {
    throw std::invalid_argument(
        "extest_shorts_opens_time: negative patterns");
  }
  const std::int64_t shift = (soc.total_woc() + width - 1) / width;
  return (patterns + 1) * shift + 2 * patterns;
}

int pareto_width(const Module& module, int width) {
  if (width <= 0) {
    throw std::invalid_argument("pareto_width: width must be positive");
  }
  const std::int64_t time_at_width = intest_time(module, width);
  int best = width;
  // Test time is non-increasing in width, so binary search applies.
  int lo = 1;
  int hi = width;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (intest_time(module, mid) == time_at_width) {
      best = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

TestTimeTable::TestTimeTable(const Soc& soc, int max_width)
    : TestTimeTable(soc, max_width, kRowsLater) {
  for (int c = 0; c < core_count_; ++c) fill_row(soc, c);
}

TestTimeTable::TestTimeTable(const Soc& soc, int max_width, RowsLater)
    : max_width_(max_width),
      core_count_(static_cast<int>(soc.modules.size())) {
  if (max_width <= 0) {
    throw std::invalid_argument("TestTimeTable: max_width must be positive");
  }
  const auto widths = static_cast<std::size_t>(max_width);
  intest_.resize(soc.modules.size() * widths);
  intest_floor_.resize(soc.modules.size() * widths);
  woc_shift_.resize(soc.modules.size() * widths);
  woc_.resize(soc.modules.size());
}

void TestTimeTable::fill_row(const Soc& soc, int core) {
  check_core(core);
  const auto c = static_cast<std::size_t>(core);
  const auto widths = static_cast<std::size_t>(max_width_);
  const Module& m = soc.modules[c];
  const std::int64_t woc = m.woc();
  std::int64_t running_min = std::numeric_limits<std::int64_t>::max();
  for (int w = 1; w <= max_width_; ++w) {
    const std::int64_t t = intest_time(m, w);
    running_min = std::min(running_min, t);
    intest_[c * widths + static_cast<std::size_t>(w - 1)] = t;
    intest_floor_[c * widths + static_cast<std::size_t>(w - 1)] = running_min;
    woc_shift_[c * widths + static_cast<std::size_t>(w - 1)] =
        (woc + w - 1) / w;
  }
  woc_[c] = m.woc();
}

}  // namespace sitam
