// Low-overhead, thread-safe tracing & metrics.
//
// One TraceSession may be active at a time. While it is, the SITAM_* macros
// record scoped spans, counters, and log2-bucket histograms into per-thread
// buffers: a fixed-capacity span buffer (overflow counts drops, never
// reallocates) and dense per-metric-id arrays. The hot path touches only
// thread-local state — one relaxed atomic load to test for an active
// session, no locks, no allocation after a thread's first event — so
// instrumented code runs contention-free and the macros cost one predicted
// branch when no session is active. A mutex is taken only on the cold
// paths: interning a metric name (once per call site per process), a
// thread's first event in a session, thread exit, and session stop, which
// drains every thread's buffers into a TraceDump.
//
// Instrumentation must never affect results: the macros record, they do not
// steer. With no session active the pipeline's output is bit-identical to
// an uninstrumented build for any thread count.
//
// Sessions must be stopped from a point where no instrumented work is in
// flight (after joining workers / collecting futures) — the same discipline
// the deterministic pipeline already follows. Timestamps come exclusively
// from obs/clock.h (see SL011).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

namespace sitam::obs {

/// Sentinel for "span carries no integer argument".
inline constexpr std::int64_t kNoSpanArg =
    std::numeric_limits<std::int64_t>::min();

/// One closed span on one thread's track.
struct SpanEvent {
  const char* name = nullptr;  ///< String literal from the call site.
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg = kNoSpanArg;
};

/// Count / sum / min / max plus power-of-two buckets: bucket 0 holds
/// values <= 0, bucket b >= 1 holds values with bit_width b, i.e.
/// 2^(b-1) <= v < 2^b (values needing more than 63 bits clamp to 63).
struct HistogramData {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::array<std::int64_t, 64> buckets{};

  void record(std::int64_t value) noexcept;
  void merge(const HistogramData& other) noexcept;
  /// Quantile estimate for q in [0, 1]: the fractional rank q*(count-1)
  /// is located in its bucket and interpolated linearly across the
  /// bucket's value range, then clamped to [min, max] (so single-sample
  /// and single-bucket-edge cases are exact). Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// All spans recorded by one thread during a session.
struct TrackDump {
  int tid = 0;         ///< 1-based, in order of first event in the session.
  std::string label;   ///< Role label ("main", "pool-worker", ...).
  std::vector<SpanEvent> spans;  ///< Sorted by (begin_ns, longer-first).
  std::int64_t dropped_spans = 0;
};

/// Counters and histograms aggregated across all threads, keyed by the
/// interned metric name (sorted — safe to iterate into reports).
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, HistogramData> histograms;
  std::int64_t dropped_spans = 0;  ///< Total across threads.

  /// Counter value, or 0 when the name was never bumped.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
};

/// Everything one session recorded.
struct TraceDump {
  std::vector<TrackDump> tracks;  ///< Sorted by tid.
  MetricsSnapshot metrics;
};

struct TraceConfig {
  /// Max spans kept per thread; later spans are counted as dropped.
  std::size_t span_capacity_per_thread = std::size_t{1} << 15;
};

namespace detail {

/// Session epoch: odd while a session is active; a session start and its
/// stop each increment it. Relaxed loads gate the hot path.
extern std::atomic<std::uint64_t> g_epoch;

[[nodiscard]] int intern_metric(const char* name);
void counter_add(int id, std::int64_t delta) noexcept;
void histogram_record(int id, std::int64_t value) noexcept;
void span_close(const char* name, std::int64_t begin_ns, std::int64_t arg,
                std::uint64_t epoch) noexcept;

}  // namespace detail

/// True while a TraceSession is active (the macro fast-path gate).
[[nodiscard]] inline bool active() noexcept {
  return (detail::g_epoch.load(std::memory_order_relaxed) & 1U) != 0U;
}

/// Records events for the current thread while alive; stop() (or the
/// destructor) deactivates recording and drains every thread's buffers.
class TraceSession {
 public:
  explicit TraceSession(TraceConfig config = {});
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  ~TraceSession();

  /// Deactivates the session and collects everything recorded. Call with
  /// no instrumented work in flight. Throws if already stopped.
  TraceDump stop();

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

 private:
  bool stopped_ = false;
};

/// Labels the calling thread's track in subsequent dumps ("pool-worker",
/// ...). `label` must be a string literal or otherwise outlive the
/// process. Cheap; callable with or without an active session.
void set_current_thread_label(const char* label) noexcept;

/// RAII span. Opens (reads the clock) only when a session is active at
/// construction; closes into the same session's buffers, or is dropped if
/// that session ended mid-span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      std::int64_t arg = kNoSpanArg) noexcept {
    const std::uint64_t e =
        detail::g_epoch.load(std::memory_order_relaxed);
    if ((e & 1U) != 0U) {
      name_ = name;
      arg_ = arg;
      epoch_ = e;
      begin_ns_ = trace_now_ns();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (name_ != nullptr) {
      detail::span_close(name_, begin_ns_, arg_, epoch_);
    }
  }

  /// Replaces the argument, for a span whose value is known only once its
  /// work is done (a streamed count learns its input size at the end).
  void set_arg(std::int64_t arg) noexcept { arg_ = arg; }

 private:
  const char* name_ = nullptr;  ///< Null when no session was active.
  std::int64_t begin_ns_ = 0;
  std::int64_t arg_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace sitam::obs

#define SITAM_OBS_CONCAT_INNER(a, b) a##b
#define SITAM_OBS_CONCAT(a, b) SITAM_OBS_CONCAT_INNER(a, b)

/// Scoped span covering the rest of the enclosing block. `name` must be a
/// string literal ("subsystem.noun.verb", see docs/OBSERVABILITY.md).
#define SITAM_TRACE_SPAN(name) \
  ::sitam::obs::ScopedSpan SITAM_OBS_CONCAT(sitam_obs_span_, __LINE__)(name)

/// Span carrying one integer argument (restart index, width, ...).
#define SITAM_TRACE_SPAN_ARG(name, arg_value)                    \
  ::sitam::obs::ScopedSpan SITAM_OBS_CONCAT(sitam_obs_span_,     \
                                            __LINE__)((name),    \
                                                      (arg_value))

/// Adds `delta` to the named counter. The name is interned once per call
/// site (function-local static), so the steady-state cost is one branch,
/// one relaxed load, and one thread-local array add.
#define SITAM_COUNTER(name, delta)                                        \
  do {                                                                    \
    if (::sitam::obs::active()) {                                         \
      static const int sitam_obs_id_ =                                    \
          ::sitam::obs::detail::intern_metric(name);                      \
      ::sitam::obs::detail::counter_add(                                  \
          sitam_obs_id_, static_cast<std::int64_t>(delta));               \
    }                                                                     \
  } while (false)

/// Records `value` into the named log2-bucket histogram.
#define SITAM_HISTOGRAM(name, value)                                      \
  do {                                                                    \
    if (::sitam::obs::active()) {                                         \
      static const int sitam_obs_id_ =                                    \
          ::sitam::obs::detail::intern_metric(name);                      \
      ::sitam::obs::detail::histogram_record(                             \
          sitam_obs_id_, static_cast<std::int64_t>(value));               \
    }                                                                     \
  } while (false)
