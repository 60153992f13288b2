// Regression dashboard over a result store: per-scenario, per-commit
// metric trends rendered as Markdown (for humans and CI artifacts) and
// JSON (for tooling). The input is simply every record read from a store
// — `sitam report` wires ResultStore::read_all into build().
//
// Grouping: records with the same (scenario, git_describe, config_hash)
// collapse into one row (the latest record wins per metric, which matches
// append order = run order); rows are listed in first-append order per
// scenario, so the table reads top-to-bottom as commit history. A row's
// identity fields come verbatim from the embedded RunManifest — the
// report never synthesizes provenance.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "store/record.h"

namespace sitam {
class JsonWriter;
}  // namespace sitam

namespace sitam::store {

struct DashboardOptions {
  /// Substring filters on the scenario key; empty = every scenario.
  std::vector<std::string> scenario_filters;
  /// Metrics promoted to Markdown table columns (when present in the
  /// scenario); every metric is always in the JSON document.
  std::vector<std::string> highlight = {
      "t_soc",          "seconds",        "speedup",
      "delta_hit_rate", "cache_hit_rate", "compaction_ratio",
  };
};

/// One (commit, config) row of a scenario's trend.
struct CommitRow {
  std::string git_describe;
  std::string program;
  std::string build_type;
  std::string config_hash;
  std::int64_t record_count = 0;  ///< Records collapsed into this row.
  std::map<std::string, double> metrics;  ///< Latest value per metric.
};

struct ScenarioTrend {
  std::string scenario;
  std::vector<CommitRow> rows;  ///< First-append order (= run order).
};

struct Dashboard {
  std::vector<ScenarioTrend> scenarios;  ///< Sorted by scenario key.
  std::int64_t records = 0;  ///< Records that entered the dashboard.

  /// Builds the dashboard from records in append order.
  [[nodiscard]] static Dashboard build(
      const std::vector<StoreRecord>& records,
      const DashboardOptions& options = {});
};

/// GitHub-flavoured Markdown: one section per scenario, one table row per
/// (commit, config), highlighted metrics as columns with a delta-vs-
/// previous-row percentage where both values exist.
[[nodiscard]] std::string render_dashboard_markdown(
    const Dashboard& dashboard, const DashboardOptions& options = {});

/// Machine-readable document: every row with its full metric map.
void write_dashboard_json(JsonWriter& json, const Dashboard& dashboard);
[[nodiscard]] std::string dashboard_json(const Dashboard& dashboard);

/// Deterministic number rendering shared by the Markdown table and tests:
/// integers print exactly, other values with six significant digits.
[[nodiscard]] std::string format_metric(double value);

}  // namespace sitam::store
