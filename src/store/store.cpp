#include "store/store.h"

#include <cerrno>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/log.h"

namespace sitam::store {

namespace {

/// Key fields must stay on one line with no tabs: records also come from
/// outside files (`sitam store-import`), and the line-based Markdown
/// dashboard prints each key field inside one line.
void validate_key_field(const std::string& value, const char* field) {
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
  const std::int64_t store_bytes = file_size_or_zero(path_);
  if (store_bytes > 0) {
    std::ifstream tail(path_, std::ios::binary);
    tail.seekg(store_bytes - 1);
    char last = '\n';
    if (tail.get(last)) needs_leading_newline_ = last != '\n';
  }
  std::int64_t skipped = 0;
  const std::vector<StoreRecord> records = read_all(path_, &skipped);
  for (const StoreRecord& record : records) index_.add(record.key());
  open_stats_.records = static_cast<std::int64_t>(records.size());
  open_stats_.skipped_lines = skipped;
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

bool ResultStore::append(const StoreRecord& record) {
  validate_key_field(record.scenario, "scenario");
  validate_key_field(record.config_hash, "config_hash");
  validate_key_field(record.manifest.git_describe, "manifest.git_describe");
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

StoreOpenStats ResultStore::open_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_stats_;
}

std::int64_t ResultStore::records_appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
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

}  // namespace sitam::store
