// Kill-and-resume proof for `sitam sweep-fleet` (src/serve/fleet.h): a
// fleet SIGKILLed mid-sweep via the --crash-after hook leaves a store
// with exactly the cells that completed; relaunching with the same flags
// runs exactly the missing cells; and the resumed store is
// record-for-record identical (up to append order) to one uninterrupted
// run. The crash leg spawns the real CLI binary (SITAM_CLI_PATH) because
// SIGKILL must take down a whole process; resume and reference legs run
// in-process so the FleetSummary counters can be asserted directly.
#include "serve/fleet.h"
#include "store/store.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace serve = sitam::serve;
namespace store = sitam::store;

namespace {

/// The 4-cell grid both legs run: d695 x {8, 12} x {full, delta} x seed 7.
/// Must agree with the flag string in the crash leg below — config hashes
/// are computed from these values.
serve::FleetOptions grid_options(std::string store_path) {
  serve::FleetOptions options;
  options.socs = {"d695"};
  options.widths = {8, 12};
  options.backends = {"full", "delta"};
  options.seeds = {7};
  options.pattern_count = 200;
  options.grouping = 2;
  options.restarts = 1;
  options.threads = 2;
  options.store_path = std::move(store_path);
  return options;
}

std::string fresh_store_path(const std::string& name) {
  const auto path = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(path);
  return path.string();
}

/// Every record line in the store, as an order-independent multiset.
std::multiset<std::string> record_lines(const std::string& path) {
  std::int64_t skipped = -1;
  const auto records = store::ResultStore::read_all(path, &skipped);
  EXPECT_EQ(skipped, 0) << path;
  std::multiset<std::string> lines;
  for (const auto& record : records) lines.insert(record.to_line());
  return lines;
}

}  // namespace

TEST(FleetResume, KilledSweepResumesExactlyTheMissingCells) {
  const std::string crash_path = fresh_store_path("fleet_crash.jsonl");
  const std::string clean_path = fresh_store_path("fleet_clean.jsonl");

  // Leg 1 — the crash: the CLI kills itself (SIGKILL, no cleanup) after
  // two cell appends, exactly the mid-sweep power loss the store's
  // resumability contract covers.
  const std::string crash_cmd =
      std::string(SITAM_CLI_PATH) +
      " sweep-fleet --socs=d695 --wmax=8,12 --backends=full,delta --seeds=7"
      " --nr=200 --parts=2 --restarts=1 --threads=2 --crash-after=2"
      " --store-out=" + crash_path + " >/dev/null 2>&1";
  const int crash_status = std::system(crash_cmd.c_str());
  EXPECT_NE(crash_status, 0) << "the crash hook must kill the process";
  {
    std::int64_t skipped = -1;
    const auto partial =
        store::ResultStore::read_all(crash_path, &skipped);
    EXPECT_EQ(partial.size(), 2u)
        << "exactly the appends before the SIGKILL survive";
    EXPECT_EQ(skipped, 0);
  }

  // Leg 2 — the resume: same grid, same store; only the two missing
  // cells may run.
  const serve::FleetSummary resumed =
      serve::run_sweep_fleet(grid_options(crash_path));
  EXPECT_EQ(resumed.planned, 4);
  EXPECT_EQ(resumed.skipped, 2);
  EXPECT_EQ(resumed.completed, 2);
  EXPECT_EQ(resumed.failed, 0);

  // Leg 3 — the reference: one uninterrupted run of the same grid into a
  // fresh store. The resumed store must match it record-for-record.
  const serve::FleetSummary clean =
      serve::run_sweep_fleet(grid_options(clean_path));
  EXPECT_EQ(clean.planned, 4);
  EXPECT_EQ(clean.completed, 4);
  EXPECT_EQ(clean.failed, 0);
  EXPECT_EQ(record_lines(crash_path), record_lines(clean_path))
      << "crash + resume must converge on the uninterrupted run's records";

  // A further relaunch is a pure no-op: every cell is satisfied.
  const serve::FleetSummary again =
      serve::run_sweep_fleet(grid_options(crash_path));
  EXPECT_EQ(again.planned, 4);
  EXPECT_EQ(again.skipped, 4);
  EXPECT_EQ(again.completed, 0);
}
