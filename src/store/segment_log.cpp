#include "store/segment_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace fs = std::filesystem;

namespace tiera {

namespace {

constexpr std::uint8_t kTypePut = 1;
constexpr std::uint8_t kTypeTombstone = 2;
constexpr std::size_t kRecordHeader = 4 + 1 + 4 + 4;

std::uint64_t record_size(std::size_t key_len, std::size_t value_len) {
  return kRecordHeader + key_len + value_len;
}

Status errno_status(const char* op) {
  return Status::Internal(std::string("segment log ") + op + ": " +
                          std::strerror(errno));
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

Status pread_all(int fd, std::uint8_t* out, std::size_t len,
                 std::uint64_t offset) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, out + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("pread");
    }
    if (n == 0) return Status::Internal("segment log: short read");
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

// Appends one framed record to `out`.
void encode_record(std::uint8_t type, std::string_view key, ByteView value,
                   Bytes& out) {
  const std::size_t start = out.size();
  out.resize(start + kRecordHeader);
  out[start + 4] = type;
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto value_len = static_cast<std::uint32_t>(value.size());
  std::memcpy(out.data() + start + 5, &key_len, 4);
  std::memcpy(out.data() + start + 9, &value_len, 4);
  append(out, key);
  append(out, value);
  const std::uint32_t crc =
      crc32c(ByteView(out.data() + start + 4, out.size() - start - 4));
  std::memcpy(out.data() + start, &crc, 4);
}

void bump(Counter* counter, std::uint64_t n = 1) {
  if (counter) counter->inc(n);
}

}  // namespace

SegmentLog::SegmentLog(std::string directory, SegmentLogOptions options,
                       SegmentLogHooks hooks)
    : directory_(std::move(directory)),
      options_(options),
      hooks_(std::move(hooks)),
      journal_(
          [this](ByteView batch, std::uint64_t records) {
            return flush_batch(batch, records);
          },
          GroupCommitter::Options{
              .max_batch_bytes = options.batch_bytes,
              // Lingering only buys anything when each batch pays an fsync.
              .max_wait = options.sync ? options.batch_wait
                                       : Duration::zero()}) {
  if (hooks_.on_error) journal_.set_error_observer(hooks_.on_error);
}

SegmentLog::~SegmentLog() {
  std::unique_lock lock(mu_);
  for (auto& [segment, fd] : segment_fds_) ::close(fd);
  segment_fds_.clear();
}

std::string SegmentLog::segment_path(std::uint64_t segment) const {
  return directory_ + "/seg-" + std::to_string(segment) + ".log";
}

Result<std::unique_ptr<SegmentLog>> SegmentLog::open(
    std::string directory, SegmentLogOptions options, SegmentLogHooks hooks) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (!fs::is_directory(directory, ec)) {
    return Status::InvalidArgument("segment log: " + directory +
                                   " is not a directory");
  }
  std::unique_ptr<SegmentLog> log(
      new SegmentLog(std::move(directory), options, std::move(hooks)));

  // Collect existing segment numbers; everything else in the directory is
  // the caller's problem (FileTier migrates legacy per-object files).
  std::vector<std::uint64_t> segments;
  for (const auto& entry : fs::directory_iterator(log->directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= 8 || name.rfind("seg-", 0) != 0 ||
        name.substr(name.size() - 4) != ".log") {
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const std::string digits = name.substr(4, name.size() - 8);
    const unsigned long long n = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end == digits.c_str() || *end != '\0' || n == 0) continue;
    segments.push_back(n);
  }
  std::sort(segments.begin(), segments.end());

  std::unique_lock lock(log->mu_);
  for (const std::uint64_t segment : segments) {
    TIERA_RETURN_IF_ERROR(log->replay_segment(segment));
  }
  TIERA_RETURN_IF_ERROR(log->switch_to_segment_locked(
      segments.empty() ? 1 : segments.back()));
  lock.unlock();
  return log;
}

Status SegmentLog::replay_segment(std::uint64_t segment) {
  const std::string path = segment_path(segment);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open for replay");
  Bytes data;
  {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return errno_status("read for replay");
      }
      if (n == 0) break;
      data.insert(data.end(), buf, buf + n);
    }
  }
  ::close(fd);

  std::size_t pos = 0;
  std::size_t valid_end = 0;
  while (pos + kRecordHeader <= data.size()) {
    std::uint32_t crc, key_len, value_len;
    std::memcpy(&crc, data.data() + pos, 4);
    const std::uint8_t type = data[pos + 4];
    std::memcpy(&key_len, data.data() + pos + 5, 4);
    std::memcpy(&value_len, data.data() + pos + 9, 4);
    const std::uint64_t body = std::uint64_t(key_len) + value_len;
    if (pos + kRecordHeader + body > data.size()) break;  // torn tail
    const ByteView payload(data.data() + pos + 4, 1 + 8 + body);
    if (crc32c(payload) != crc) break;  // corrupt tail: stop here
    if (type != kTypePut && type != kTypeTombstone) break;
    const std::string_view key(
        reinterpret_cast<const char*>(data.data() + pos + kRecordHeader),
        key_len);
    index_locked(type, key,
                 LogLocation{.segment = segment,
                             .offset = pos + kRecordHeader + key_len,
                             .length = value_len});
    pos += kRecordHeader + body;
    valid_end = pos;
  }
  log_bytes_ += valid_end;
  if (valid_end < data.size()) {
    TIERA_LOG(kWarn, "store")
        << "segment log discarding " << (data.size() - valid_end)
        << " torn/corrupt bytes at tail of " << path;
    if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return errno_status("truncate");
    }
  }
  return Status::Ok();
}

void SegmentLog::index_locked(std::uint8_t type, std::string_view key,
                              const LogLocation& loc) {
  std::string owned(key);
  auto it = index_.find(owned);
  if (it != index_.end()) {
    dead_bytes_ += record_size(key.size(), it->second.length);
  }
  if (type == kTypeTombstone) {
    dead_bytes_ += record_size(key.size(), 0);  // the tombstone itself
    if (it != index_.end()) index_.erase(it);
  } else if (it != index_.end()) {
    it->second = loc;
  } else {
    index_.emplace(std::move(owned), loc);
  }
}

Status SegmentLog::switch_to_segment_locked(std::uint64_t segment) {
  auto it = segment_fds_.find(segment);
  if (it == segment_fds_.end()) {
    const int fd = ::open(segment_path(segment).c_str(),
                          O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return errno_status("open segment");
    it = segment_fds_.emplace(segment, fd).first;
  }
  struct stat st {};
  if (::fstat(it->second, &st) != 0) return errno_status("fstat");
  current_segment_ = segment;
  current_offset_ = static_cast<std::uint64_t>(st.st_size);
  write_fd_ = it->second;
  flushed_end_.store(current_offset_, std::memory_order_release);
  return Status::Ok();
}

Status SegmentLog::write_current(ByteView bytes) {
  if (!write_all(write_fd_, bytes.data(), bytes.size())) {
    return errno_status("write");
  }
  flushed_end_.fetch_add(bytes.size(), std::memory_order_release);
  return Status::Ok();
}

// The group-commit flush: one write (and one fsync on a synced log) for a
// whole batch of staged records. Runs outside mu_, but never while
// write_fd_ changes: every segment switch drains the committer first.
Status SegmentLog::flush_batch(ByteView batch, std::uint64_t records) {
  // A failed write leaves the file shorter than the staged offsets assume,
  // so a later batch would land under earlier records' locations. The
  // committer's error is sticky; the log writes nothing more either.
  if (flush_failed_) {
    return Status::Internal("segment log: closed by an earlier failed write");
  }
  bump(hooks_.batches);
  bump(hooks_.records, records);
  Status status = write_current(batch);
  if (status.ok() && options_.sync) {
    if (::fsync(write_fd_) == 0) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
      bump(hooks_.fsyncs);
    } else {
      status = errno_status("fsync");
    }
  }
  flush_failed_ = !status.ok();
  return status;
}

Status SegmentLog::append_record(std::uint8_t type, std::string_view key,
                                 ByteView value) {
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(mu_);
    if (type == kTypeTombstone && !index_.count(std::string(key))) {
      return Status::NotFound("segment log: no such key");
    }
    if (current_offset_ >= options_.segment_bytes) {
      // A batch never straddles segments: flush the old one out first.
      TIERA_RETURN_IF_ERROR(journal_.drain());
      TIERA_RETURN_IF_ERROR(switch_to_segment_locked(current_segment_ + 1));
    }
    Bytes record;
    encode_record(type, key, value, record);
    index_locked(type, key,
                 LogLocation{.segment = current_segment_,
                             .offset = current_offset_ + kRecordHeader +
                                       key.size(),
                             .length = static_cast<std::uint32_t>(
                                 value.size())});
    current_offset_ += record.size();
    log_bytes_ += record.size();
    // Staged under mu_, so journal order matches index order.
    seq = journal_.stage(as_view(record));
    TIERA_RETURN_IF_ERROR(maybe_compact_locked());
  }
  return journal_.commit(seq);
}

Status SegmentLog::put(std::string_view key, ByteView value) {
  return append_record(kTypePut, key, value);
}

Status SegmentLog::erase(std::string_view key) {
  return append_record(kTypeTombstone, key, {});
}

Result<Bytes> SegmentLog::get(std::string_view key) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(std::string(key));
  if (it == index_.end()) return Status::NotFound("segment log: no such key");
  return read_locked(it->second);
}

Result<Bytes> SegmentLog::read_locked(const LogLocation& loc) const {
  // The record may be staged by a writer that has not committed yet; write
  // it out rather than pread bytes that are not there.
  if (loc.segment == current_segment_ &&
      loc.offset + loc.length >
          flushed_end_.load(std::memory_order_acquire)) {
    TIERA_RETURN_IF_ERROR(journal_.drain());
  }
  auto it = segment_fds_.find(loc.segment);
  if (it == segment_fds_.end()) {
    return Status::Internal("segment log: no such segment");
  }
  Bytes out(loc.length);
  TIERA_RETURN_IF_ERROR(pread_all(it->second, out.data(), loc.length,
                                  loc.offset));
  return out;
}

std::optional<std::uint32_t> SegmentLog::value_size(
    std::string_view key) const {
  std::shared_lock lock(mu_);
  auto it = index_.find(std::string(key));
  if (it == index_.end()) return std::nullopt;
  return it->second.length;
}

std::size_t SegmentLog::size() const {
  std::shared_lock lock(mu_);
  return index_.size();
}

void SegmentLog::for_each(
    const std::function<bool(std::string_view, std::uint32_t)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [key, loc] : index_) {
    if (!fn(key, loc.length)) return;
  }
}

Status SegmentLog::scan(
    std::string_view prefix,
    const std::function<bool(std::string_view, ByteView)>& fn) const {
  std::shared_lock lock(mu_);
  for (const auto& [key, loc] : index_) {
    if (!key.starts_with(prefix)) continue;
    auto value = read_locked(loc);
    if (!value.ok()) return value.status();
    if (!fn(key, as_view(*value))) break;
  }
  return Status::Ok();
}

Status SegmentLog::sync() {
  TIERA_RETURN_IF_ERROR(journal_.drain());
  std::shared_lock lock(mu_);
  if (::fsync(write_fd_) != 0) return errno_status("fsync");
  return Status::Ok();
}

Status SegmentLog::maybe_compact_locked() {
  if (dead_bytes_ == 0 || log_bytes_ < options_.compact_min_bytes ||
      static_cast<double>(dead_bytes_) <
          kCompactDeadRatio * static_cast<double>(log_bytes_)) {
    return Status::Ok();
  }
  return compact_locked();
}

Status SegmentLog::compact() {
  std::unique_lock lock(mu_);
  return compact_locked();
}

Status SegmentLog::compact_locked() {
  // Staged records belong in the old segments; flush them before write_fd_
  // moves on.
  TIERA_RETURN_IF_ERROR(journal_.drain());
  bump(hooks_.compactions);
  // Copy the live set into fresh segments numbered after the current one.
  // Replay applies segments in order, so the copies (newest) win over the
  // stale records even if a crash leaves both generations on disk. The
  // copies bypass the committer: they are a rewrite, not new records.
  const std::uint64_t first_new = current_segment_ + 1;
  const std::uint64_t old_bytes = log_bytes_;
  TIERA_RETURN_IF_ERROR(switch_to_segment_locked(first_new));

  std::vector<LogLocation> moved;
  moved.reserve(index_.size());
  std::uint64_t new_bytes = 0;
  const Status copied = [&]() -> Status {
    Bytes out;
    Bytes value;
    for (const auto& [key, loc] : index_) {
      value.resize(loc.length);
      TIERA_RETURN_IF_ERROR(pread_all(segment_fds_.at(loc.segment),
                                      value.data(), loc.length, loc.offset));
      if (current_offset_ >= options_.segment_bytes) {
        TIERA_RETURN_IF_ERROR(write_current(as_view(out)));
        out.clear();
        TIERA_RETURN_IF_ERROR(switch_to_segment_locked(current_segment_ + 1));
      }
      moved.push_back({.segment = current_segment_,
                       .offset = current_offset_ + kRecordHeader + key.size(),
                       .length = loc.length});
      encode_record(kTypePut, key, as_view(value), out);
      current_offset_ += record_size(key.size(), loc.length);
      new_bytes += record_size(key.size(), loc.length);
      if (out.size() >= options_.batch_bytes) {
        TIERA_RETURN_IF_ERROR(write_current(as_view(out)));
        out.clear();
      }
    }
    return write_current(as_view(out));
  }();
  if (!copied.ok()) {
    // The index still points at the old segments, which stay; resync the
    // append offset with what actually reached the new one.
    (void)switch_to_segment_locked(current_segment_);
    return copied;
  }

  // Make the copies durable before deleting their sources.
  for (auto it = segment_fds_.lower_bound(first_new);
       it != segment_fds_.end(); ++it) {
    if (::fsync(it->second) != 0) return errno_status("compact fsync");
  }
  for (auto it = segment_fds_.begin();
       it != segment_fds_.end() && it->first < first_new;) {
    ::close(it->second);
    ::unlink(segment_path(it->first).c_str());
    it = segment_fds_.erase(it);
  }
  auto next = moved.begin();
  for (auto& [key, loc] : index_) loc = *next++;
  log_bytes_ = new_bytes;
  dead_bytes_ = 0;
  TIERA_LOG(kInfo, "store") << "segment log " << directory_ << " compacted "
                            << old_bytes << " -> " << new_bytes << " bytes ("
                            << index_.size() << " records)";
  return Status::Ok();
}

Status SegmentLog::wipe() {
  std::unique_lock lock(mu_);
  // Nothing may be in flight when write_fd_ goes away; a sticky journal
  // error does not stop the wipe.
  (void)journal_.drain();
  for (auto& [segment, fd] : segment_fds_) {
    ::close(fd);
    ::unlink(segment_path(segment).c_str());
  }
  segment_fds_.clear();
  index_.clear();
  log_bytes_ = 0;
  dead_bytes_ = 0;
  return switch_to_segment_locked(1);
}

std::uint64_t SegmentLog::log_bytes() const {
  std::shared_lock lock(mu_);
  return log_bytes_;
}

std::uint64_t SegmentLog::dead_bytes() const {
  std::shared_lock lock(mu_);
  return dead_bytes_;
}

SegmentLog::JournalStats SegmentLog::journal_stats() const {
  const GroupCommitter::Stats s = journal_.stats();
  return {.batches = s.batches,
          .records = s.records,
          .fsyncs = fsyncs_.load(std::memory_order_relaxed),
          .max_batch_records = s.max_batch_records};
}

}  // namespace tiera
