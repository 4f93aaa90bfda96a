// MetadataStore: the control layer's view of every object.
//
// Mirrors the prototype's BerkeleyDB-backed metadata layer: a sharded
// in-memory map for the hot path plus optional metadb persistence so an
// instance restart recovers object locations. Only put/update/erase write
// to the journal, and each logs the whole record (or its erase). The
// *_in_memory calls and record_access change the map alone; their changes
// reach the journal with the object's next logged put/update, and a
// restart before that loses them. Access statistics (access_count,
// last_access) are only ever written that way, so after a restart they
// read as of the object's last logged change. Also maintains:
//   * a per-tier recency list giving O(1) `tierX.oldest` / `tierX.newest`
//     (the selectors behind the paper's LRU/MRU policies, Fig. 5), and
//   * a content-hash reference-count table backing the storeOnce dedup
//     response (Fig. 12).
#pragma once

#include <array>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/object_meta.h"
#include "metadb/metadb.h"

namespace tiera {

class MetadataStore {
 public:
  // `db` may be null (purely in-memory metadata, used by most benches).
  explicit MetadataStore(std::unique_ptr<MetaDb> db = nullptr);

  // Attach persistence after construction (instance init path).
  void attach_db(std::unique_ptr<MetaDb> db) { db_ = std::move(db); }

  // Null when metadata is purely in-memory. Exposed so the watchdog can
  // probe journal progress (flushed batches vs staged records).
  MetaDb* db() { return db_.get(); }

  // Loads persisted metadata (no-op without a db). Call once before use.
  Status recover();

  // --- Object records --------------------------------------------------------
  std::optional<ObjectMeta> get(std::string_view id) const;
  bool contains(std::string_view id) const;

  // Insert or overwrite the full record, and log it.
  Status put(const ObjectMeta& meta);
  void put_in_memory(const ObjectMeta& meta);

  // Read-modify-write under the shard lock, then log the changed record;
  // returns NotFound when absent. `fn` returning false aborts without
  // writing.
  Status update(std::string_view id,
                const std::function<bool(ObjectMeta&)>& fn);
  Status update_in_memory(std::string_view id,
                          const std::function<bool(ObjectMeta&)>& fn);

  // A read served `id` from `tier`: bumps its access statistics and moves
  // it to the most-recent end of `tier` (bump_in_tier rules). Never logged.
  void record_access(std::string_view id, std::string_view tier);

  // Logs the erase only when the journal holds the record: an object that
  // was never logged leaves no trace.
  Status erase(std::string_view id);

  std::size_t size() const;

  // Snapshot scan (copies records out; cheap at middleware scales).
  void for_each(const std::function<void(const ObjectMeta&)>& fn) const;

  // All ids matching a predicate.
  std::vector<std::string> select(
      const std::function<bool(const ObjectMeta&)>& pred) const;

  // --- Per-tier recency (LRU/MRU selectors) ---------------------------------
  // Record that `id` was inserted into or accessed in `tier` (moves to the
  // most-recent end).
  void touch_in_tier(std::string_view tier, std::string_view id);
  // Moves `id` to the most-recent end of `tier` only if it is listed there.
  // Reads use this: they run outside the object's stripe, so a move out of
  // the tier may land between the read and the bump, and re-adding the
  // entry then would leave an LRU victim that eviction can never move.
  void bump_in_tier(std::string_view tier, std::string_view id);
  void remove_from_tier(std::string_view tier, std::string_view id);
  void drop_tier(std::string_view tier);

  // `excluding` skips one id (eviction policies must never pick the object
  // whose insertion triggered them — its stale copy may top the LRU list).
  std::optional<std::string> oldest_in_tier(
      std::string_view tier, std::string_view excluding = {}) const;
  std::optional<std::string> newest_in_tier(
      std::string_view tier, std::string_view excluding = {}) const;
  std::size_t count_in_tier(std::string_view tier) const;

  // --- storeOnce content index ----------------------------------------------
  // Registers a reference to `hash` from object `id`. Returns true when this
  // is the first reference (the caller must store the bytes).
  bool add_content_ref(std::string_view hash, std::string_view id);
  // Drops a reference; returns true when it was the last one (the caller
  // should delete the content-addressed bytes).
  bool drop_content_ref(std::string_view hash, std::string_view id);
  std::size_t content_ref_count(std::string_view hash) const;
  std::vector<std::string> content_ref_ids(std::string_view hash) const;

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, ObjectMeta> map;
  };
  Shard& shard_for(std::string_view id);
  const Shard& shard_for(std::string_view id) const;

  Status persist(const ObjectMeta& meta);
  Status unpersist(std::string_view id);

  std::array<Shard, kShards> shards_;

  struct TierLru {
    std::list<std::string> order;  // front = newest
    std::unordered_map<std::string, std::list<std::string>::iterator> pos;
  };
  mutable std::mutex lru_mu_;
  std::unordered_map<std::string, TierLru> tier_lru_;

  mutable std::mutex content_mu_;
  std::unordered_map<std::string, std::set<std::string>> content_refs_;

  std::unique_ptr<MetaDb> db_;
};

}  // namespace tiera
