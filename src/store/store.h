// ResultStore: an append-only, crash-tolerant JSONL experiment store.
//
// One record (see store/record.h) is one line of JSON. Appends are a
// single positional-append write of the full line, so concurrent writers
// — threads in one process or separate processes sharing the file —
// interleave whole lines, never bytes. The store is never truncated or
// rewritten: a crash mid-append leaves at most one torn tail line, which
// readers detect (it fails to parse) and skip, and which the next writer
// isolates by starting its append with a newline when the file does not
// end in one. Everything derived (the index, dashboards) can always be
// rebuilt from the JSONL alone.
//
// The index maps StoreKey — (scenario, config_hash, git_describe) — to
// the number of records carrying that key. It is what makes sweeps
// resumable: a re-launched sweep asks contains() per grid cell and runs
// only the missing ones. The index is one scan of the JSONL when the
// store opens, plus this instance's own appends; nothing derived is
// persisted, so no second copy can disagree with the file. contains()
// answers for the store as of open plus this instance's appends: a record
// another writer appends later is seen by the next open. See
// docs/RESULT_STORE.md.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "store/record.h"

namespace sitam::store {

/// Derived key -> record-count map. Rebuildable from the JSONL at any
/// time; bounded by the number of distinct keys in the store file (clear()
/// + rebuild is the reset path, which also keeps SL015 honest).
class StoreIndex {
 public:
  void add(const StoreKey& key) { ++entries_[key]; }
  [[nodiscard]] bool contains(const StoreKey& key) const {
    return entries_.find(key) != entries_.end();
  }
  [[nodiscard]] std::int64_t count(const StoreKey& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  std::map<StoreKey, std::int64_t> entries_;
};

/// What opening a store found. `skipped_lines` counts unparseable lines
/// (torn tails from crashes, foreign-schema records); they are ignored,
/// never fatal.
struct StoreOpenStats {
  std::int64_t records = 0;
  std::int64_t skipped_lines = 0;
};

class ResultStore {
 public:
  /// Opens (creating if absent) the JSONL at `path` for appending and
  /// builds the index with one scan of it. Throws std::runtime_error when
  /// the file cannot be opened for append.
  explicit ResultStore(std::string path);
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  /// Closes the file.
  ~ResultStore();

  /// Appends one record as a single atomic line write and indexes it.
  /// Returns false (after logging a warning) when the write fails; the
  /// index is only updated on success. Thread-safe. Throws
  /// std::invalid_argument if the record's key fields contain a tab or a
  /// newline: records also come from outside files (`sitam store-import`),
  /// and the line-based Markdown dashboard prints each key field inside one
  /// line (a scenario heading, a commit table row).
  bool append(const StoreRecord& record);

  /// True when at least one record with this key is in the store.
  [[nodiscard]] bool contains(const StoreKey& key) const;
  /// Number of records with this key.
  [[nodiscard]] std::int64_t count(const StoreKey& key) const;

  [[nodiscard]] StoreOpenStats open_stats() const;
  [[nodiscard]] std::int64_t records_appended() const;
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Does nothing and returns true: the index is not persisted. Kept only
  /// for bench/e2e's profiler, which calls it after its append.
  bool flush_index() { return true; }

  /// Reads every valid record in `path` in append order. Lines that fail
  /// to parse are counted into `*skipped_lines` (when non-null) and
  /// skipped. A missing file reads as empty.
  [[nodiscard]] static std::vector<StoreRecord> read_all(
      const std::string& path, std::int64_t* skipped_lines = nullptr);

 private:
  const std::string path_;
  int fd_ = -1;  ///< Append-only descriptor; -1 after a failed open.

  mutable std::mutex mutex_;
  StoreIndex index_;                 // guarded_by(mutex_)
  StoreOpenStats open_stats_;        // guarded_by(mutex_)
  std::int64_t appended_ = 0;        // guarded_by(mutex_)
  bool needs_leading_newline_ = false;  // guarded_by(mutex_)
};

}  // namespace sitam::store
