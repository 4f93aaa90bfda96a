// metadb: embedded durable key-value store.
//
// Plays the role BerkeleyDB plays in the Tiera prototype: the control layer
// persists all object metadata here so an instance can restart without losing
// track of where objects live. MetaDb is a thin client of one SegmentLog
// (store/segment_log.h) rooted at its path: the log owns the CRC framing,
// replay with torn-tail truncation, the key -> location index, group commit
// and compaction. `path` is a directory of `seg-<n>.log` files; values stay
// on disk and are read back with pread. Single-process, thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "store/segment_log.h"

namespace tiera {

struct MetaDbOptions {
  // fsync after every acknowledged append. Off by default: the paper's
  // durability story for metadata is periodic persistence, and tests
  // exercise both modes. With group commit, "every write" means every
  // acknowledged batch — no put/erase returns before its record is synced,
  // but concurrent writers share one fsync.
  bool sync_every_write = false;
  // Minimum log size before auto-compaction triggers (the dead-byte ratio
  // is SegmentLog::kCompactDeadRatio).
  std::uint64_t auto_compact_min_bytes = 1 << 20;
  // Group commit: flush once this many bytes are staged...
  std::uint64_t journal_batch_bytes = 256 << 10;
  // ...or after the batch leader has lingered this long for followers.
  // Only applies when sync_every_write is on; unsynced appends go straight
  // to the OS page cache so a process crash loses nothing it would not
  // have lost before.
  Duration journal_batch_wait = std::chrono::microseconds(200);
};

class MetaDb {
 public:
  ~MetaDb();

  MetaDb(const MetaDb&) = delete;
  MetaDb& operator=(const MetaDb&) = delete;

  // Opens (creating if needed) the database directory at `path`. Replays
  // the log; torn/corrupt tail records are discarded (crash recovery).
  // A path that is not a directory (such as a single-file database from
  // before the log was shared) is an error, never an empty database.
  static Result<std::unique_ptr<MetaDb>> open(std::string path,
                                              MetaDbOptions options = {});

  Status put(std::string_view key, ByteView value);
  Status put(std::string_view key, std::string_view value) {
    return put(key, as_view(value));
  }
  Result<Bytes> get(std::string_view key) const;
  Status erase(std::string_view key);
  bool contains(std::string_view key) const;

  // Visit every live (key, value); `fn` returning false stops the scan.
  // Values are read from disk: a failed read stops the scan and is
  // returned, so a caller never mistakes a partial scan for a full one.
  Status scan(const std::function<bool(std::string_view, ByteView)>& fn) const;
  Status scan_prefix(
      std::string_view prefix,
      const std::function<bool(std::string_view, ByteView)>& fn) const;

  std::size_t size() const;
  std::uint64_t log_bytes() const;
  std::uint64_t dead_bytes() const;

  // Rewrite the log with only live records.
  Status compact();
  // Flush + fsync the log.
  Status sync();

  const std::string& path() const { return path_; }

  // Group-commit telemetry (also exported as the
  // tiera_metadb_group_commit_{batches,records,fsyncs}_total counters).
  using JournalStats = SegmentLog::JournalStats;
  JournalStats journal_stats() const { return log_->journal_stats(); }

  // Lock-free watchdog probes: flushed-batch progress and staged-but-
  // unflushed records (see GroupCommitter). journal_stats() takes the
  // journal lock and must not be used from the watchdog thread.
  std::uint64_t journal_batches() const { return log_->journal_batches(); }
  std::uint64_t journal_pending() const { return log_->journal_pending(); }

 private:
  struct Metrics {
    Counter* puts;
    Counter* gets;
    Counter* erases;
    Gauge* log_bytes;
    Gauge* live_keys;
  };

  MetaDb(std::string path, Metrics metrics, std::unique_ptr<SegmentLog> log);

  void update_gauges();

  const std::string path_;
  // Registry series (`tiera_metadb_*`), looked up once at open. The
  // group-commit and compaction series are bumped by the log itself.
  const Metrics metrics_;
  const std::unique_ptr<SegmentLog> log_;
};

}  // namespace tiera
