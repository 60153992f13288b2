// Async batched job server over one shared SitamContext.
//
// JobServer is transport-agnostic: feed it request lines with
// submit_line() (safe from any number of client threads) and it pushes
// response lines into the sink you hand it — the blocking serve_stream()
// wrapper wires that to an istream/ostream pair (the `sitam serve`
// stdin/stdout mode; a local socket works the same way).
//
// Batching/dedupe: optimize/sweep jobs are keyed by
// SitamContext::request_key. A job whose key matches one already in
// flight becomes a *follower* of that job group — no second optimization
// runs; when the leader finishes, every member gets its own result line
// (identical bytes up to the echoed id). Jobs that miss the in-flight map
// can still hit the context's result memo, and jobs that share only a
// workload prepare it once, so identical work is shared across the whole
// server lifetime, not just across concurrent arrivals.
//
// Cancellation is cooperative: `cancel` marks one member id done; the
// underlying computation's CancelToken fires only when every member has
// been cancelled, and the optimizer unwinds at its next check point.
//
// Per-job tracing: a `"trace":true` job runs under its own obs
// TraceSession. Only one session may exist process-wide, so traced jobs
// take the write side of a shared mutex (all other jobs hold the read
// side) — they run exclusively, and are never deduped, since their
// response embeds the trace of their own run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/context.h"
#include "serve/protocol.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sitam::store {
class ResultStore;
}  // namespace sitam::store

namespace sitam::serve {

struct ServerOptions {
  /// Worker threads (0 = one per hardware thread).
  int threads = 2;
  /// Emit a "progress" line when a worker picks a job up.
  bool progress = true;
  /// When non-empty (and stats_store_every > 0), the server appends a
  /// "serve.stats" record — the ServerStats + ContextStats counters as a
  /// metric map — into this result store every stats_store_every
  /// completed jobs. Cadence is keyed to job completions, not wall
  /// clock, so a snapshot schedule is reproducible for a given request
  /// stream. See docs/RESULT_STORE.md.
  std::string stats_store_path;
  std::int64_t stats_store_every = 0;
};

/// Longest request line serve_stream reads, newline excluded: far above
/// the inline soc_text of any real SOC. A longer line is answered with an
/// error envelope and skipped through its newline, never held whole.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{8} << 20;

/// Monotonic protocol-level counters (the context has its own; see
/// ContextStats). Snapshot via JobServer::stats().
struct ServerStats {
  std::int64_t received = 0;    ///< Lines fed to submit_line.
  std::int64_t malformed = 0;   ///< Lines answered with an error.
  std::int64_t jobs = 0;        ///< optimize/sweep requests accepted.
  std::int64_t followers = 0;   ///< Jobs deduped onto an in-flight group.
  std::int64_t completed = 0;   ///< Result lines emitted.
  std::int64_t cancelled = 0;   ///< Members cancelled before completion.
  std::int64_t failed = 0;      ///< Jobs that ended in an error line.
};

class JobServer {
 public:
  /// Receives every response line (no trailing newline). Called from
  /// worker and client threads, but never concurrently — the server
  /// serializes emission, so the sink needs no locking of its own.
  using Sink = std::function<void(const std::string& line)>;

  JobServer(ServerOptions options, Sink sink);
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;
  /// Drains in-flight jobs before returning.
  ~JobServer();

  /// Handles one request line; responses arrive through the sink (for
  /// ping/stats/errors synchronously, for jobs asynchronously). Returns
  /// false once a shutdown request has been processed — the serve loop's
  /// signal to stop reading.
  bool submit_line(const std::string& line);

  /// Counts and answers, with an error envelope carrying `error`, a line
  /// the transport refused to read in full (serve_stream's overlong lines).
  void reject_line(const std::string& error);

  /// Blocks until no job is queued or running.
  void drain();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] ContextStats context_stats() const { return context_.stats(); }

 private:
  /// One deduped unit of work: the leader's request plus every member id
  /// still expecting a response. The context's single-flight result cache
  /// would also share the computation, but only this layer knows member
  /// ids and per-member cancellation, and a follower here never occupies a
  /// worker thread.
  struct JobGroup {
    FlowRequest flow;        ///< Built once, shared by all members.
    Request request;         ///< Leader's parsed request (for envelopes).
    std::uint64_t key = 0;   ///< SitamContext::request_key(flow).
    CancelToken token;       ///< Fires when every member is cancelled.
    std::vector<std::string> members;  // guarded_by(mutex_)
  };

  void handle_job(Request request);
  void handle_cancel(const Request& request);
  /// A pool task: runs `group` and answers its members. Never throws.
  void run_group(const std::shared_ptr<JobGroup>& group);
  void emit(const std::string& line);
  void write_stats_response();
  /// Appends one "serve.stats" record when a snapshot cadence boundary
  /// was crossed; no-op when the store is disabled.
  void maybe_snapshot_stats();

  const ServerOptions options_;
  Sink sink_;
  std::mutex sink_mutex_;  ///< Serializes sink_ calls.

  SitamContext context_;  ///< Internally locked.

  bool accepting_ = true;                                // guarded_by(mutex_)
  std::int64_t in_flight_ = 0;                           // guarded_by(mutex_)
  std::map<std::uint64_t, std::shared_ptr<JobGroup>> groups_;  // guarded_by(mutex_)
  std::map<std::string, std::shared_ptr<JobGroup>> jobs_by_id_;  // guarded_by(mutex_)
  ServerStats stats_;                                    // guarded_by(mutex_)
  std::int64_t stats_snapshots_ = 0;                     // guarded_by(mutex_)
  mutable std::mutex mutex_;
  /// Open only when options_.stats_store_path is set; appends are the
  /// store's own critical section, never taken under mutex_.
  std::unique_ptr<store::ResultStore> stats_store_;
  /// Signalled when in_flight_ reaches zero; notifying needs no lock.
  std::condition_variable idle_;
  /// Traced jobs hold the write side (exclusive TraceSession), everyone
  /// else the read side.
  std::shared_mutex trace_mutex_;

  ThreadPool pool_;  ///< Last member: destroyed (joined) first.
};

/// Reads request lines from `in` until EOF or a shutdown request,
/// emitting response lines to `out` (flushed per line). Returns 0.
int serve_stream(std::istream& in, std::ostream& out,
                 const ServerOptions& options);

}  // namespace sitam::serve
