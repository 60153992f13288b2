// Wire protocol of the sitam job server: newline-delimited JSON, one
// request object in, one or more response objects out per request.
//
// Requests (`op` selects the operation):
//
//   {"op":"optimize","id":"j1","soc":"d695","wmax":16,"nr":2000}
//   {"op":"sweep","id":"j2","soc":"mini5","widths":[2,4],"parts":[1,2]}
//   {"op":"cancel","id":"j1"}
//   {"op":"ping"}  {"op":"stats"}  {"op":"shutdown"}
//
// Responses are tagged by "type": "ack" (job queued), "progress" (job
// picked up by a worker), "result" (terminal payload; its bytes are a pure
// function of the request, so identical requests produce identical result
// lines up to the echoed id), "cancelled", "error", "pong", "stats",
// "bye". Parsing is strict (see util/json.h): malformed input of any kind
// becomes one "error" line, never a crash and never a half-applied
// request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/context.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace sitam::serve {

/// Operations a request line can carry.
enum class RequestOp {
  kOptimize,  ///< One width, one grouping -> FlowMode::kOptimize.
  kSweep,     ///< Width x grouping table -> FlowMode::kSweep.
  kCancel,    ///< Cooperatively cancel a queued/running job by id.
  kPing,      ///< Liveness probe.
  kStats,     ///< Server + context counters.
  kShutdown,  ///< Stop accepting input; drain and exit the serve loop.
};

/// One parsed request line. Defaults mirror the CLI's flag defaults.
struct Request {
  RequestOp op = RequestOp::kPing;
  std::string id;        ///< Client-chosen job id (optimize/sweep/cancel).
  std::string soc;       ///< Embedded benchmark name...
  std::string soc_text;  ///< ...or an inline `.soc` document (exactly one).
  std::int64_t pattern_count = 10000;
  std::uint64_t seed = 0x20070604ULL;
  std::vector<int> groupings = {4};
  std::vector<int> widths = {32};
  int restarts = 1;
  bool delta_eval = true;
  JobPriority priority = JobPriority::kNormal;
  /// Record a per-job trace: the result line gains "manifest", "trace"
  /// (Chrome trace-event JSON) and "metrics" objects covering exactly this
  /// job's work. Traced jobs run exclusively (one TraceSession at a time)
  /// and are never deduped against other jobs.
  bool trace = false;
};

/// Upper limits of a job request's numeric fields (docs/SERVER.md), so one
/// line cannot ask for unbounded work or memory. Each sits far above what
/// the paper's experiments and the fleet send.
inline constexpr std::int64_t kMaxPatternCount = 1'000'000;  ///< `nr`
inline constexpr int kMaxRestarts = 1024;                    ///< `restarts`
inline constexpr std::size_t kMaxWidthCount = 64;  ///< entries of `widths`
inline constexpr int kMaxWidth = 1024;  ///< each width, and `wmax`
inline constexpr std::size_t kMaxPartsCount = 64;  ///< entries of `parts`
inline constexpr int kMaxParts = 1024;             ///< each grouping i

/// Parses one request line. Throws JsonParseError for malformed JSON
/// (including duplicate keys, bad UTF-8, over-deep nesting) and
/// std::invalid_argument for schema violations: non-object root, unknown
/// fields, missing/oversized ids, bad enum strings, non-positive widths,
/// and a value or list over its limit above (the message names the field
/// and the limit).
[[nodiscard]] Request parse_request(const std::string& line);

// ---- Response envelopes (single-line JSON, no trailing newline) --------

[[nodiscard]] std::string error_response(const std::string& id,
                                         const std::string& message);
[[nodiscard]] std::string ack_response(const Request& request);
[[nodiscard]] std::string progress_response(const std::string& id,
                                            const std::string& stage);
[[nodiscard]] std::string cancelled_response(const std::string& id);
[[nodiscard]] std::string pong_response();
[[nodiscard]] std::string bye_response();

/// The terminal payload for an optimize/sweep job. Deterministic: given
/// the same request (and the bit-identical FlowResult the context
/// guarantees), the returned bytes are identical, which is what the
/// concurrency tests compare across thread counts. `extra_json` (empty or
/// a ready-made JSON object) is spliced in under "observability" — the
/// per-job trace/metrics envelope, deliberately outside the deterministic
/// comparison surface.
[[nodiscard]] std::string result_response(const std::string& id,
                                          const Request& request,
                                          const FlowResult& result,
                                          const std::string& extra_json);

}  // namespace sitam::serve
