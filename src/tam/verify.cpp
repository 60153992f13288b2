#include "tam/verify.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace sitam {

namespace {

class Verifier {
 public:
  Verifier(const Soc& soc, const TestTimeTable& table,
           const SiTestSet& tests, const TamArchitecture& arch,
           const Evaluation& ev, const EvaluatorOptions& options)
      : soc_(soc),
        table_(table),
        tests_(tests),
        arch_(arch),
        ev_(ev),
        options_(options) {}

  std::vector<std::string> run() {
    check_architecture();
    if (!problems_.empty()) return problems_;  // everything else depends
    check_intest();
    check_si_items();
    check_conflicts();
    check_totals();
    return problems_;
  }

 private:
  template <typename... Parts>
  void fail(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    problems_.push_back(os.str());
  }

  void check_architecture() {
    try {
      arch_.validate(soc_.core_count());
    } catch (const std::invalid_argument& err) {
      fail("architecture invalid: ", err.what());
    }
    if (ev_.rails.size() != arch_.rails.size()) {
      fail("evaluation has ", ev_.rails.size(), " rail records for ",
           arch_.rails.size(), " rails");
    }
  }

  void check_intest() {
    // Rebuild expected per-rail InTest times and check slots.
    std::vector<std::int64_t> cursor(arch_.rails.size(), 0);
    std::size_t slot_index = 0;
    for (std::size_t r = 0; r < arch_.rails.size(); ++r) {
      for (const int core : arch_.rails[r].cores) {
        if (slot_index >= ev_.intest.size()) {
          fail("missing InTest slot for core ", core);
          return;
        }
        const InTestSlot& slot = ev_.intest[slot_index++];
        if (slot.core != core || slot.rail != static_cast<int>(r)) {
          fail("InTest slot ", slot_index - 1, " is (core ", slot.core,
               ", rail ", slot.rail, "), expected (core ", core, ", rail ",
               r, ")");
          continue;
        }
        if (slot.begin != cursor[r]) {
          fail("core ", core, " InTest begins at ", slot.begin,
               ", expected ", cursor[r]);
        }
        const std::int64_t expected =
            table_.intest(core, arch_.rails[r].width);
        if (slot.end - slot.begin != expected) {
          fail("core ", core, " InTest lasts ", slot.end - slot.begin,
               " cc, expected ", expected);
        }
        cursor[r] = slot.begin + expected;
      }
      if (ev_.rails[r].time_in != cursor[r]) {
        fail("rail ", r, " time_in is ", ev_.rails[r].time_in,
             ", recomputed ", cursor[r]);
      }
    }
    if (slot_index != ev_.intest.size()) {
      fail("evaluation has ", ev_.intest.size() - slot_index,
           " extra InTest slots");
    }
  }

  void check_si_items() {
    const auto rail_of_core = arch_.rail_of_core(soc_.core_count());
    std::map<int, int> seen;  // group index -> item count
    for (const SiScheduleItem& item : ev_.schedule.items) {
      if (item.group < 0 ||
          item.group >= static_cast<int>(tests_.groups.size())) {
        fail("schedule item references unknown group ", item.group);
        continue;
      }
      ++seen[item.group];
      const SiTestGroup& group =
          tests_.groups[static_cast<std::size_t>(item.group)];

      // Expected involved rails + duration (recomputed independently).
      std::map<int, std::pair<std::int64_t, std::int64_t>> per_rail;
      for (const int core : group.cores) {
        const int rail = rail_of_core[static_cast<std::size_t>(core)];
        auto& [shift, cores] = per_rail[rail];
        shift += (soc_.modules[static_cast<std::size_t>(core)].woc() +
                  arch_.rails[static_cast<std::size_t>(rail)].width - 1) /
                 arch_.rails[static_cast<std::size_t>(rail)].width;
        ++cores;
      }
      std::vector<int> expected_rails;
      std::int64_t expected_duration = 0;
      for (const auto& [rail, data] : per_rail) {
        expected_rails.push_back(rail);
        std::int64_t t;
        if (options_.style == ArchitectureStyle::kTestBus) {
          t = group.patterns * (data.first + kBusSwitchCycles * data.second) +
              data.first + kSiApplyCycles * group.patterns;
        } else {
          t = (group.patterns + 1) * data.first +
              kSiApplyCycles * group.patterns;
        }
        expected_duration = std::max(expected_duration, t);
      }
      if (item.rails != expected_rails) {
        fail("group ", group.label, " scheduled on wrong rail set");
      }
      if (item.duration != expected_duration) {
        fail("group ", group.label, " duration ", item.duration,
             ", recomputed ", expected_duration);
      }
      if (item.end != item.begin + item.duration || item.begin < 0) {
        fail("group ", group.label, " has inconsistent begin/end");
      }
      if (options_.interleave_phases) {
        for (const int rail : item.rails) {
          if (item.begin <
              ev_.rails[static_cast<std::size_t>(rail)].time_in) {
            fail("group ", group.label, " starts at ", item.begin,
                 " before rail ", rail, " finished InTest");
          }
        }
      }
    }
    for (std::size_t g = 0; g < tests_.groups.size(); ++g) {
      const int expected = tests_.groups[g].patterns > 0 ? 1 : 0;
      const auto it = seen.find(static_cast<int>(g));
      const int actual = it == seen.end() ? 0 : it->second;
      if (actual != expected) {
        fail("group ", tests_.groups[g].label, " scheduled ", actual,
             " times, expected ", expected);
      }
    }
  }

  void check_conflicts() {
    const auto& items = ev_.schedule.items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        const bool overlap =
            items[i].begin < items[j].end && items[j].begin < items[i].end;
        if (!overlap) continue;
        const bool share = std::any_of(
            items[i].rails.begin(), items[i].rails.end(), [&](int r) {
              return std::find(items[j].rails.begin(), items[j].rails.end(),
                               r) != items[j].rails.end();
            });
        if (share) {
          fail("SI tests ", i, " and ", j, " overlap on a shared rail");
        }
        if (options_.exclusive_bus) {
          const bool both_bus =
              tests_.groups[static_cast<std::size_t>(items[i].group)]
                  .uses_bus &&
              tests_.groups[static_cast<std::size_t>(items[j].group)]
                  .uses_bus;
          if (both_bus) {
            fail("bus-using SI tests ", i, " and ", j, " overlap");
          }
        }
      }
      if (options_.power_budget > 0) {
        std::int64_t concurrent = 0;
        for (const SiScheduleItem& other : items) {
          if (other.begin <= items[i].begin &&
              items[i].begin < other.end) {
            concurrent +=
                tests_.groups[static_cast<std::size_t>(other.group)].power;
          }
        }
        if (concurrent > options_.power_budget) {
          fail("power ", concurrent, " exceeds budget ",
               options_.power_budget, " at t=", items[i].begin);
        }
      }
    }
  }

  void check_totals() {
    std::int64_t max_in = 0;
    for (const RailTimes& rail : ev_.rails) {
      max_in = std::max(max_in, rail.time_in);
      if (rail.time_used != rail.time_in + rail.time_si) {
        fail("rail time_used != time_in + time_si");
      }
    }
    if (ev_.t_in != max_in) fail("t_in is not the max rail InTest time");
    std::int64_t max_end = 0;
    for (const SiScheduleItem& item : ev_.schedule.items) {
      max_end = std::max(max_end, item.end);
    }
    if (ev_.schedule.makespan != max_end) {
      fail("makespan ", ev_.schedule.makespan, " != max item end ",
           max_end);
    }
    const std::int64_t expected_soc =
        options_.interleave_phases
            ? std::max(ev_.t_in, ev_.schedule.makespan)
            : ev_.t_in + ev_.schedule.makespan;
    if (ev_.t_soc != expected_soc) {
      fail("t_soc ", ev_.t_soc, " != expected ", expected_soc);
    }
  }

  const Soc& soc_;
  const TestTimeTable& table_;
  const SiTestSet& tests_;
  const TamArchitecture& arch_;
  const Evaluation& ev_;
  const EvaluatorOptions& options_;
  std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> verify_evaluation(const Soc& soc,
                                           const TestTimeTable& table,
                                           const SiTestSet& tests,
                                           const TamArchitecture& arch,
                                           const Evaluation& evaluation,
                                           const EvaluatorOptions& options) {
  Verifier verifier(soc, table, tests, arch, evaluation, options);
  return verifier.run();
}

std::vector<std::string> verify_stats(const EvaluatorStats& stats) {
  std::vector<std::string> problems;
  const auto fail = [&problems](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    problems.push_back(os.str());
  };
  if (stats.evaluations < 0 || stats.cache_hits < 0 ||
      stats.delta_hits < 0 || stats.cache_misses < 0) {
    fail("negative evaluator counter: evaluations=", stats.evaluations,
         " hits=", stats.cache_hits, " delta_hits=", stats.delta_hits,
         " misses=", stats.cache_misses);
  }
  if (stats.cache_hits + stats.delta_hits + stats.cache_misses !=
      stats.evaluations) {
    fail("cache_hits + delta hits + misses = ",
         stats.cache_hits + stats.delta_hits + stats.cache_misses,
         " does not add up to ", stats.evaluations, " evaluations");
  }
  if (stats.evaluations == 0) {
    fail("no evaluations recorded: an optimizer result always evaluates "
         "at least its final architecture");
  }
  return problems;
}

std::vector<std::string> verify_delta_consistency(
    const Evaluation& delta, const Evaluation& reference) {
  std::vector<std::string> problems;
  const auto fail = [&problems](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    problems.push_back(os.str());
  };
  if (delta.t_in != reference.t_in) {
    fail("t_in ", delta.t_in, " != reference ", reference.t_in);
  }
  if (delta.t_si != reference.t_si) {
    fail("t_si ", delta.t_si, " != reference ", reference.t_si);
  }
  if (delta.t_soc != reference.t_soc) {
    fail("t_soc ", delta.t_soc, " != reference ", reference.t_soc);
  }
  if (delta.schedule.makespan != reference.schedule.makespan) {
    fail("makespan ", delta.schedule.makespan, " != reference ",
         reference.schedule.makespan);
  }
  if (delta.rails.size() != reference.rails.size()) {
    fail("rail count ", delta.rails.size(), " != reference ",
         reference.rails.size());
  } else {
    for (std::size_t r = 0; r < delta.rails.size(); ++r) {
      if (delta.rails[r].time_in != reference.rails[r].time_in ||
          delta.rails[r].time_si != reference.rails[r].time_si ||
          delta.rails[r].time_used != reference.rails[r].time_used) {
        fail("rail ", r, " times (", delta.rails[r].time_in, ", ",
             delta.rails[r].time_si, ", ", delta.rails[r].time_used,
             ") != reference (", reference.rails[r].time_in, ", ",
             reference.rails[r].time_si, ", ", reference.rails[r].time_used,
             ")");
      }
    }
  }
  if (delta.intest.size() != reference.intest.size()) {
    fail("InTest slot count ", delta.intest.size(), " != reference ",
         reference.intest.size());
  } else {
    for (std::size_t i = 0; i < delta.intest.size(); ++i) {
      const InTestSlot& a = delta.intest[i];
      const InTestSlot& b = reference.intest[i];
      if (a.core != b.core || a.rail != b.rail || a.begin != b.begin ||
          a.end != b.end) {
        fail("InTest slot ", i, " (core ", a.core, ", rail ", a.rail, ", [",
             a.begin, ", ", a.end, ")) != reference (core ", b.core,
             ", rail ", b.rail, ", [", b.begin, ", ", b.end, "))");
      }
    }
  }
  if (delta.schedule.items.size() != reference.schedule.items.size()) {
    fail("schedule item count ", delta.schedule.items.size(),
         " != reference ", reference.schedule.items.size());
  } else {
    for (std::size_t i = 0; i < delta.schedule.items.size(); ++i) {
      const SiScheduleItem& a = delta.schedule.items[i];
      const SiScheduleItem& b = reference.schedule.items[i];
      if (a.group != b.group || a.begin != b.begin || a.end != b.end ||
          a.duration != b.duration ||
          a.bottleneck_rail != b.bottleneck_rail || a.rails != b.rails) {
        fail("schedule item ", i, " (group ", a.group, ", [", a.begin, ", ",
             a.end, "), btn ", a.bottleneck_rail, ") != reference (group ",
             b.group, ", [", b.begin, ", ", b.end, "), btn ",
             b.bottleneck_rail, ")");
      }
    }
  }
  return problems;
}

}  // namespace sitam
