// Structural validator for exported Chrome trace-event JSON: the
// bench_smoke_trace gate uses it to prove a trace will load in Perfetto /
// chrome://tracing before anyone opens it there. Checks: the document
// parses with util/json's strict parse_json (so a duplicate key is a parse
// error), "traceEvents" is an array of well-formed events (string ph/name,
// integer pid/tid, numeric non-negative ts/dur on "X" events), and ts is
// monotone non-decreasing within every (pid, tid) track.
#pragma once

#include <string>
#include <vector>

namespace sitam::obs {

struct TraceVerifyResult {
  bool ok = false;
  int events = 0;        ///< Total traceEvents seen.
  int span_events = 0;   ///< "X" events among them.
  int tracks = 0;        ///< Distinct (pid, tid) pairs with span events.
  std::vector<std::string> problems;  ///< Empty iff ok.

  /// All problems joined with newlines ("" when ok).
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] TraceVerifyResult verify_chrome_trace(const std::string& text);
[[nodiscard]] TraceVerifyResult verify_chrome_trace_file(
    const std::string& path);

}  // namespace sitam::obs
