// Append-only segment log: the one CRC-framed log under Tiera's own state.
//
// Both durable stores sit on it: MetaDb (the metadata journal, one log at
// `data_dir/metadata.db/`) and the file-backed tiers (one log per tier
// directory). The log is a small key-value store in its own right:
//
//   * framing — CRC-framed records, rolled across segment files;
//   * index   — key -> location of the latest value, plus the dead-byte
//               count of overwritten records and tombstones;
//   * replay  — on open, every segment is read in order to rebuild the
//               index; a torn or corrupt tail is truncated away;
//   * commit  — every append goes through a GroupCommitter; a synced log
//               lingers for followers and fsyncs each batch once;
//   * compaction — once the log passes compact_min_bytes with at least
//               kCompactDeadRatio of it dead, the live set is rewritten into
//               fresh segments (stop-the-world, on the appending thread).
//
// Layout: `directory/seg-<n>.log`, each up to segment_bytes of
//   u32 crc (over type..value) | u8 type (1=put, 2=tombstone) |
//   u32 key_len | u32 value_len | key | value
//
// Values stay on disk; reads look the key up and pread the value under a
// shared lock, so they never seek the write fd and run concurrently with
// each other. A read whose record is staged but not yet written drains the
// committer first, so no reader ever sees unwritten bytes.
//
// A failed write or fsync fails the log closed: it writes nothing more, every
// later append fails, and so does a read of any record staged after the
// failure. Reads of records written before it still work. Reopening replays
// what reached the disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/group_commit.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace tiera {

struct SegmentLogOptions {
  // Roll to a fresh segment once the current one reaches this size.
  std::uint64_t segment_bytes = 64ull << 20;
  // Auto-compaction waits until the log is at least this big.
  std::uint64_t compact_min_bytes = 8ull << 20;
  // fsync every group-commit batch before acknowledging its records.
  bool sync = false;
  // Group commit: flush once this many bytes are staged...
  std::uint64_t batch_bytes = 256 << 10;
  // ...or after the batch leader has lingered this long for followers.
  // Applies only to a synced log; unsynced appends go straight to the OS
  // page cache.
  Duration batch_wait = std::chrono::microseconds(200);
};

// What a log reports to its owner as it works. MetaDb wires its
// `tiera_metadb_*` series and the flight recorder here; FileTier wires
// nothing, so tier traffic never shows up in the journal's books.
struct SegmentLogHooks {
  Counter* batches = nullptr;
  Counter* records = nullptr;
  Counter* fsyncs = nullptr;
  Counter* compactions = nullptr;
  // Called once when the committer first fails to flush.
  std::function<void(const Status&)> on_error;
};

// Where a value lives. `offset`/`length` frame the value bytes themselves
// (not the record header), so reads are a single pread.
struct LogLocation {
  std::uint64_t segment = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

class SegmentLog {
 public:
  // Auto-compaction fires once dead bytes reach this share of the log. The
  // compare is >=: after one full overwrite generation the log is exactly
  // half dead, and a strict compare would stall right at the boundary.
  static constexpr double kCompactDeadRatio = 0.5;

  // Opens (creating if needed) the log under `directory` and replays every
  // segment in order. Fails if `directory` exists but is not a directory.
  static Result<std::unique_ptr<SegmentLog>> open(std::string directory,
                                                  SegmentLogOptions options =
                                                      {},
                                                  SegmentLogHooks hooks = {});
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  // Both return once the record is committed (and fsynced, when synced).
  Status put(std::string_view key, ByteView value);
  // NotFound (and nothing appended) when the key is not live.
  Status erase(std::string_view key);

  Result<Bytes> get(std::string_view key) const;
  std::optional<std::uint32_t> value_size(std::string_view key) const;
  std::size_t size() const;

  // Visit every live key (with its value length / value) under the shared
  // lock; `fn` returning false stops the walk. `scan` reads only the values
  // of keys starting with `prefix`, and stops at the first failed read.
  void for_each(
      const std::function<bool(std::string_view, std::uint32_t)>& fn) const;
  Status scan(std::string_view prefix,
              const std::function<bool(std::string_view, ByteView)>& fn) const;

  // Drain the committer, then fsync the current segment.
  Status sync();
  // Rewrite the live set into fresh segments. Old segments are deleted once
  // the copies are fsynced, so a crash mid-compaction replays to the same
  // live set (newer segments win during replay).
  Status compact();
  // Delete every segment and start over from an empty log.
  Status wipe();

  // Total record bytes across all segments (live + dead), and the dead part.
  std::uint64_t log_bytes() const;
  std::uint64_t dead_bytes() const;

  struct JournalStats {
    std::uint64_t batches = 0;
    std::uint64_t records = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t max_batch_records = 0;
  };
  JournalStats journal_stats() const;
  // Lock-free watchdog probes (see GroupCommitter).
  std::uint64_t journal_batches() const { return journal_.flushed_batches(); }
  std::uint64_t journal_pending() const { return journal_.pending_records(); }

 private:
  SegmentLog(std::string directory, SegmentLogOptions options,
             SegmentLogHooks hooks);

  std::string segment_path(std::uint64_t segment) const;
  Status replay_segment(std::uint64_t segment);
  // Points the index at a put's new location (or drops a tombstoned key),
  // counting whatever record it supersedes as dead.
  void index_locked(std::uint8_t type, std::string_view key,
                    const LogLocation& loc);
  // Makes `segment` current: opens its fd, points the committer at it and
  // takes its on-disk size as the append offset. Requires mu_ held
  // exclusively and the committer drained.
  Status switch_to_segment_locked(std::uint64_t segment);
  // The single append path: rolls, stages, indexes and commits one record.
  Status append_record(std::uint8_t type, std::string_view key,
                       ByteView value);
  Status write_current(ByteView bytes);
  Status flush_batch(ByteView batch, std::uint64_t records);
  Status maybe_compact_locked();
  Status compact_locked();
  Result<Bytes> read_locked(const LogLocation& loc) const;

  const std::string directory_;
  const SegmentLogOptions options_;
  const SegmentLogHooks hooks_;

  // Appends, rolls, compaction and wipe take the lock exclusively; reads
  // share it (pread is position-less, so concurrent reads never interfere).
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, LogLocation> index_;
  std::map<std::uint64_t, int> segment_fds_;  // all fds are O_RDWR|O_APPEND
  std::uint64_t current_segment_ = 1;
  std::uint64_t current_offset_ = 0;  // staged size of the current segment
  std::uint64_t log_bytes_ = 0;
  std::uint64_t dead_bytes_ = 0;

  // The committer's view of the current segment. The flush runs outside
  // mu_; write_fd_ only changes under mu_ with the committer drained, so no
  // flush is in flight when it does. flushed_end_ is how much of the
  // current segment has actually been written.
  int write_fd_ = -1;
  std::atomic<std::uint64_t> flushed_end_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  // Set by the first failed flush; only flush_batch (which the committer
  // never runs concurrently with itself) touches it.
  bool flush_failed_ = false;
  // Declared last: the flush function touches the members above. Mutable
  // because a read past flushed_end_ drains it.
  mutable GroupCommitter journal_;
};

}  // namespace tiera
