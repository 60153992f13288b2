#include "store/store.h"

#include <cerrno>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/log.h"

namespace sitam::store {

namespace {

constexpr const char* kSidecarMagic = "sitam-store-index v1";

/// Sidecar entries are rewritten every this many appends (and on flush /
/// destruction); between rewrites the sidecar is merely stale, which the
/// next open detects by its byte cover and repairs with a scan.
constexpr std::int64_t kSidecarFlushInterval = 64;

/// The sidecar is tab-separated; a key field carrying a tab or newline
/// would corrupt it (and a newline would corrupt the JSONL framing story
/// for humans reading it).
void validate_sidecar_safe(const std::string& value, const char* field) {
  if (value.find('\t') != std::string::npos ||
      value.find('\n') != std::string::npos ||
      value.find('\r') != std::string::npos) {
    throw std::invalid_argument(std::string("store record field '") + field +
                                "' must not contain tabs or newlines");
  }
}

std::int64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

/// Writes `text`, retrying on EINTR and short writes, and returns how
/// many bytes landed: all of them, or fewer when a write fails (ENOSPC,
/// EFBIG, ...) or makes no progress. With O_APPEND the first write lands
/// atomically at the end of file; a short write is what a full disk or a
/// file-size limit leaves.
std::size_t write_fully(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

}  // namespace

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open result store '" + path_ +
                             "' for append");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  load_or_rebuild_index_locked();
}

ResultStore::~ResultStore() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (appends_since_flush_ > 0) flush_index_locked();
  }
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::load_or_rebuild_index_locked() {
  const std::int64_t store_bytes = file_size_or_zero(path_);
  if (store_bytes > 0) {
    std::ifstream tail(path_, std::ios::binary);
    tail.seekg(store_bytes - 1);
    char last = '\n';
    if (tail.get(last)) needs_leading_newline_ = last != '\n';
  }

  // Try the sidecar: valid only when it covers the file byte-for-byte.
  std::ifstream sidecar(index_path_for(path_));
  if (sidecar) {
    std::string magic;
    std::string bytes_line;
    if (std::getline(sidecar, magic) && magic == kSidecarMagic &&
        std::getline(sidecar, bytes_line) &&
        bytes_line.rfind("bytes ", 0) == 0) {
      std::int64_t covered = -1;
      try {
        covered = std::stoll(bytes_line.substr(6));
      } catch (const std::exception&) {
        covered = -1;
      }
      if (covered == store_bytes) {
        StoreIndex loaded;
        std::int64_t records = 0;
        std::string line;
        bool ok = true;
        while (std::getline(sidecar, line)) {
          if (line.empty()) continue;
          std::istringstream fields(line);
          StoreKey key;
          std::string count_text;
          if (!std::getline(fields, key.scenario, '\t') ||
              !std::getline(fields, key.config_hash, '\t') ||
              !std::getline(fields, key.git_describe, '\t') ||
              !std::getline(fields, count_text)) {
            ok = false;
            break;
          }
          std::int64_t n = 0;
          try {
            n = std::stoll(count_text);
          } catch (const std::exception&) {
            ok = false;
            break;
          }
          for (std::int64_t i = 0; i < n; ++i) loaded.add(key);
          records += n;
        }
        if (ok) {
          index_ = std::move(loaded);
          open_stats_.records = records;
          open_stats_.skipped_lines = 0;
          open_stats_.index_from_sidecar = true;
          return;
        }
      }
    }
  }

  // Sidecar missing, stale, or corrupt: rebuild from the JSONL.
  index_.clear();
  std::int64_t skipped = 0;
  const std::vector<StoreRecord> records = read_all(path_, &skipped);
  for (const StoreRecord& record : records) index_.add(record.key());
  open_stats_.records = static_cast<std::int64_t>(records.size());
  open_stats_.skipped_lines = skipped;
  open_stats_.index_from_sidecar = false;
  flush_index_locked();
}

bool ResultStore::append(const StoreRecord& record) {
  validate_sidecar_safe(record.scenario, "scenario");
  validate_sidecar_safe(record.config_hash, "config_hash");
  validate_sidecar_safe(record.manifest.git_describe,
                        "manifest.git_describe");
  const std::string line = record.to_line();

  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return false;
  std::string buffer;
  buffer.reserve(line.size() + 2);
  // Isolate a torn tail left by a crashed writer: starting this append on
  // a fresh line turns the torn bytes into one unparseable line readers
  // skip, without ever truncating data another process may be appending.
  if (needs_leading_newline_) buffer += '\n';
  buffer += line;
  buffer += '\n';
  const std::size_t written = write_fully(fd_, buffer);
  if (written < buffer.size()) {
    // The bytes that landed end the file now: unless they end a line,
    // the next append must start a fresh one, or it is glued onto them.
    if (written > 0) needs_leading_newline_ = buffer[written - 1] != '\n';
    SITAM_WARN << "result store append to " << path_ << " failed";
    return false;
  }
  needs_leading_newline_ = false;
  index_.add(record.key());
  ++appended_;
  ++appends_since_flush_;
  if (appends_since_flush_ >= kSidecarFlushInterval) flush_index_locked();
  return true;
}

bool ResultStore::contains(const StoreKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.contains(key);
}

std::int64_t ResultStore::count(const StoreKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.count(key);
}

StoreIndex ResultStore::index_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_;
}

StoreOpenStats ResultStore::open_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_stats_;
}

std::int64_t ResultStore::records_appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

bool ResultStore::flush_index() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return flush_index_locked();
}

bool ResultStore::flush_index_locked() {
  // The recorded byte cover must never exceed what the index has seen, so
  // measure the file *before* serializing (another process may append in
  // between; the sidecar then reads as stale and the next open rescans —
  // the safe direction).
  const std::int64_t store_bytes = file_size_or_zero(path_);
  const std::string sidecar_path = index_path_for(path_);
  const std::string tmp_path = sidecar_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out << kSidecarMagic << '\n' << "bytes " << store_bytes << '\n';
    for (const auto& [key, n] : index_.entries()) {
      out << key.scenario << '\t' << key.config_hash << '\t'
          << key.git_describe << '\t' << n << '\n';
    }
    if (!out) {
      SITAM_WARN << "cannot write store index sidecar " << tmp_path;
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, sidecar_path, ec);
  if (ec) {
    SITAM_WARN << "cannot move store index sidecar into place: "
               << ec.message();
    return false;
  }
  appends_since_flush_ = 0;
  return true;
}

std::vector<StoreRecord> ResultStore::read_all(const std::string& path,
                                               std::int64_t* skipped_lines) {
  std::vector<StoreRecord> records;
  std::int64_t skipped = 0;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      records.push_back(StoreRecord::parse(line));
    } catch (const std::exception&) {
      // Torn tail from a crashed append, or a foreign/newer schema:
      // counted and skipped, never fatal — the store stays readable.
      ++skipped;
    }
  }
  if (skipped_lines != nullptr) *skipped_lines = skipped;
  return records;
}

std::string ResultStore::index_path_for(const std::string& path) {
  return path + ".idx";
}

}  // namespace sitam::store
