// Sharded sweep fleet: fans a (SOC x W_max x backend x seed) experiment
// grid over the JSON job server's worker pool and writes every completed
// cell into a persistent ResultStore (store/store.h).
//
// The fleet is *resumable*: each cell's identity is a StoreKey —
// (scenario, config_hash, git_describe) — and before submitting anything
// the driver queries the store index and drops cells that already have a
// record at this commit. Kill the fleet at any point (power loss, SIGKILL,
// a --crash-after test hook) and relaunch it with the same flags: only the
// missing cells run, and the final store is record-for-record identical
// (up to append order) to one uninterrupted run, because cell records are
// built exclusively from deterministic bytes — the server's result line,
// whose payload is a pure function of the request.
//
// The "backend" axis selects the evaluator the cell runs under: "full"
// runs every evaluation through the full timing model, "delta" puts the
// incremental delta evaluator in front of it — the two legs
// BENCH_delta.json compares. "memo" is an alias of "full", kept only
// because bench/e2e still names it. See docs/RESULT_STORE.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sitam::serve {

/// The experiment grid plus fleet mechanics. Every result-affecting field
/// is folded into each cell's config hash.
struct FleetOptions {
  std::vector<std::string> socs = {"d695"};
  std::vector<int> widths = {16, 32};             ///< W_max per cell.
  std::vector<std::string> backends = {"delta"};  ///< full | memo | delta.
  std::vector<std::uint64_t> seeds = {0x20070604ULL};
  std::int64_t pattern_count = 2000;
  int grouping = 4;
  int restarts = 1;
  /// Job-server worker threads (0 = one per hardware thread). Not part of
  /// cell identity: thread count never changes results.
  int threads = 2;
  /// JSONL store every completed cell is appended to. Required.
  std::string store_path;
  /// Crash-injection test hook: raise SIGKILL after this many cell
  /// appends (0 = never). Exercises exactly the mid-sweep power-loss
  /// path the resumability contract covers.
  int crash_after = 0;
  /// Log per-cell skip/complete lines.
  bool progress = false;
};

/// One grid cell. The scenario string is the cell's human-readable
/// identity and doubles as its job id on the server.
struct FleetCell {
  std::string soc;
  int w_max = 0;
  std::string backend;
  std::uint64_t seed = 0;

  /// "d695/w16/delta/seed537199108" — unique per cell within one grid.
  [[nodiscard]] std::string scenario() const;
};

/// What one fleet launch did. planned == skipped + completed + failed
/// unless the process was killed mid-run (which is the point of the
/// crash_after hook).
struct FleetSummary {
  std::int64_t planned = 0;    ///< Grid cells in the cartesian product.
  std::int64_t skipped = 0;    ///< Already in the store at this commit.
  std::int64_t completed = 0;  ///< Ran and appended this launch.
  std::int64_t failed = 0;     ///< Server answered with an error line.
};

/// The full cartesian product in deterministic order (socs outermost,
/// seeds innermost). Throws std::invalid_argument for an empty axis or an
/// unknown backend name.
[[nodiscard]] std::vector<FleetCell> build_fleet_grid(
    const FleetOptions& options);

/// Config-hash input for `cell`: every result-affecting knob, canonically
/// ordered. Hash this with store_hash_hex to get the StoreKey config_hash.
[[nodiscard]] std::string fleet_cell_config(const FleetOptions& options,
                                            const FleetCell& cell);

/// The request line `cell` submits to the job server. The job id is the
/// scenario string, so every response maps straight back to its cell.
/// Throws std::invalid_argument for an unknown backend name.
[[nodiscard]] std::string cell_request_line(const FleetOptions& options,
                                            const FleetCell& cell);

/// Runs the fleet: opens the store, skips satisfied cells, fans the rest
/// over a JobServer, appends one record per completed cell. Throws
/// std::invalid_argument when store_path is empty or the grid is invalid,
/// and std::runtime_error when the store cannot be opened or a completed
/// cell cannot be appended (a result the store did not accept must stop
/// the fleet loudly, not leak past it).
FleetSummary run_sweep_fleet(const FleetOptions& options);

}  // namespace sitam::serve
