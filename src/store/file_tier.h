// File-backed tiers: the EBS-like block store and the S3-like object store.
//
// Each tier is a thin client of one SegmentLog (store/segment_log.h) under
// the tier directory: the log owns the key index, the dead-byte count and
// compaction, and replays itself on open, so contents survive process
// restarts — the durability property that distinguishes these tiers from
// memory/ephemeral ones. Tier logs never fsync on the hot path (the paper's
// durability story for tier contents is the tier hierarchy itself) and
// compact once they pass 8 MiB with half their bytes dead. Directories
// written by the old one-file-per-object format are migrated into the log
// on open.
//
// BlockTier optionally models the instance's OS buffer cache: a bounded LRU
// of recently touched objects whose hits are charged memory-like latency
// instead of disk latency. The paper's baselines lean on this effect
// ("requests can be served from the local instance's buffer cache"), and the
// TPC-W experiment explicitly shrinks instance RAM to defeat it.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>

#include "store/segment_log.h"
#include "store/sharded_map.h"
#include "store/tier.h"

namespace tiera {

class FileTier : public Tier {
 public:
  // `directory` is created if missing; existing objects are loaded (index
  // only; bytes stay on disk until read).
  FileTier(std::string name, TierKind kind, std::uint64_t capacity_bytes,
           std::string directory, LatencyModel latency, TierPricing pricing);

  // Drop every stored object (used by tests and by EphemeralTier::reboot).
  void wipe();

  // Segment-log footprint, live + dead record bytes.
  std::uint64_t log_bytes() const;

 protected:
  Status store_raw(std::string_view key, ByteView value) override;
  Result<Bytes> load_raw(std::string_view key) const override;
  Status erase_raw(std::string_view key) override;
  bool contains_raw(std::string_view key) const override;
  std::optional<std::uint64_t> size_raw(std::string_view key) const override;
  std::size_t count_raw() const override;
  void keys_raw(
      const std::function<void(std::string_view)>& fn) const override;

 private:
  void migrate_legacy_files();

  const std::string directory_;
  std::unique_ptr<SegmentLog> log_;  // null if the log failed to open
};

class BlockTier final : public FileTier {
 public:
  BlockTier(std::string name, std::uint64_t capacity_bytes,
            std::string directory,
            LatencyModel latency = LatencyModel::ebs(),
            TierPricing pricing = default_pricing());

  // 2014 EBS standard volume: $0.10/GB-month provisioned + I/O charges.
  static TierPricing default_pricing() {
    return {.dollars_per_gb_month = 0.10,
            .dollars_per_io = 0.05 / 1e6,
            .bill_by_capacity = true};
  }

  // Enable the OS-buffer-cache model with the given capacity (0 disables).
  void set_page_cache_bytes(std::uint64_t bytes);
  std::uint64_t page_cache_bytes() const;
  double cache_hit_rate() const;

 protected:
  // Cache hits are charged RAM-copy latency instead of disk latency; both
  // reads and writes populate the modelled cache (Linux-like behaviour).
  Duration sample_read_delay(std::string_view key, std::uint64_t bytes,
                             Rng& rng) override;
  Duration sample_write_delay(std::string_view key, std::uint64_t bytes,
                              Rng& rng) override;

 private:
  struct CacheState {
    std::list<std::string> lru;  // front = most recent
    std::unordered_map<std::string, std::pair<std::list<std::string>::iterator,
                                              std::uint64_t>>
        entries;
    std::uint64_t bytes = 0;
    std::uint64_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  bool cache_touch(std::string_view key, std::uint64_t size) const;

  mutable std::mutex cache_mu_;
  mutable CacheState cache_;
};

class ObjectTier final : public FileTier {
 public:
  ObjectTier(std::string name, std::uint64_t capacity_bytes,
             std::string directory,
             LatencyModel latency = LatencyModel::s3(),
             TierPricing pricing = default_pricing());

  // 2014 S3: $0.03/GB-month stored, $5/1M PUT, $0.4/1M GET, $0.12/GB
  // transfer out.
  static TierPricing default_pricing() {
    return {.dollars_per_gb_month = 0.03,
            .dollars_per_put = 5.0 / 1e6,
            .dollars_per_get = 0.4 / 1e6,
            .dollars_per_gb_egress = 0.12,
            .bill_by_capacity = false};
  }
};

// Instance store: performance like a block device, but contents (and cost)
// vanish with the instance. Pure RAM here — there is nothing durable about
// it worth putting on disk.
class EphemeralTier final : public Tier {
 public:
  EphemeralTier(std::string name, std::uint64_t capacity_bytes,
                LatencyModel latency = LatencyModel::ephemeral());

  void reboot() override {
    map_.clear();
    reset_usage();
  }

 protected:
  Status store_raw(std::string_view key, ByteView value) override;
  Result<Bytes> load_raw(std::string_view key) const override;
  Status erase_raw(std::string_view key) override;
  bool contains_raw(std::string_view key) const override;
  std::optional<std::uint64_t> size_raw(std::string_view key) const override;
  std::size_t count_raw() const override;
  void keys_raw(
      const std::function<void(std::string_view)>& fn) const override;

 private:
  ShardedMap map_;
};

}  // namespace tiera
