#include "core/metadata_store.h"

#include <array>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "obs/stage.h"

namespace tiera {

namespace {
constexpr std::string_view kDbPrefix = "obj/";
}

MetadataStore::MetadataStore(std::unique_ptr<MetaDb> db)
    : db_(std::move(db)) {}

MetadataStore::Shard& MetadataStore::shard_for(std::string_view id) {
  return shards_[fnv1a64(id) % kShards];
}

const MetadataStore::Shard& MetadataStore::shard_for(
    std::string_view id) const {
  return shards_[fnv1a64(id) % kShards];
}

Status MetadataStore::recover() {
  if (!db_) return Status::Ok();
  Status status = Status::Ok();
  const auto load = [&](std::string_view key, ByteView value) {
    (void)key;
    Result<ObjectMeta> meta = ObjectMeta::decode(value);
    if (!meta.ok()) {
      status = meta.status();
      return false;
    }
    Shard& shard = shard_for(meta->id);
    {
      std::lock_guard lock(shard.mu);
      shard.map[meta->id] = *meta;
    }
    // Rebuild recency and content indexes (ordering by last_access is
    // approximated by insertion order of the scan; good enough after a
    // restart, the lists re-sort themselves with use).
    for (const auto& tier : meta->locations) {
      touch_in_tier(tier, meta->id);
    }
    if (!meta->content_hash.empty()) {
      add_content_ref(meta->content_hash, meta->id);
    }
    return true;
  };
  // A scan that stops on a failed read must fail the open: recovering only
  // part of the metadata would lose objects without a word.
  TIERA_RETURN_IF_ERROR(db_->scan_prefix(kDbPrefix, load));
  return status;
}

Status MetadataStore::persist(const ObjectMeta& meta) {
  if (!db_) return Status::Ok();
  StageTimer stage(Stage::kMetadataLookup);
  return db_->put(std::string(kDbPrefix) + meta.id, as_view(meta.encode()));
}

Status MetadataStore::unpersist(std::string_view id) {
  if (!db_) return Status::Ok();
  StageTimer stage(Stage::kMetadataLookup);
  const std::string key = std::string(kDbPrefix) + std::string(id);
  if (!db_->contains(key)) return Status::Ok();
  Status s = db_->erase(key);
  return s.is_not_found() ? Status::Ok() : s;
}

std::optional<ObjectMeta> MetadataStore::get(std::string_view id) const {
  StageTimer stage(Stage::kMetadataLookup);
  const Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(std::string(id));
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

bool MetadataStore::contains(std::string_view id) const {
  StageTimer stage(Stage::kMetadataLookup);
  const Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mu);
  return shard.map.count(std::string(id)) > 0;
}

Status MetadataStore::put(const ObjectMeta& meta) {
  put_in_memory(meta);
  return persist(meta);
}

void MetadataStore::put_in_memory(const ObjectMeta& meta) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(meta.id);
  std::lock_guard lock(shard.mu);
  shard.map[meta.id] = meta;
}

Status MetadataStore::update(std::string_view id,
                             const std::function<bool(ObjectMeta&)>& fn) {
  std::optional<ObjectMeta> changed;
  TIERA_RETURN_IF_ERROR(update_in_memory(id, [&](ObjectMeta& cur) {
    if (!fn(cur)) return false;
    changed = cur;
    return true;
  }));
  return changed ? persist(*changed) : Status::Ok();
}

Status MetadataStore::update_in_memory(
    std::string_view id, const std::function<bool(ObjectMeta&)>& fn) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(std::string(id));
  if (it == shard.map.end()) return Status::NotFound("object metadata");
  fn(it->second);
  return Status::Ok();
}

void MetadataStore::record_access(std::string_view id, std::string_view tier) {
  const Status found = update_in_memory(id, [](ObjectMeta& cur) {
    cur.access_count += 1;
    cur.last_access = now();
    return true;
  });
  if (found.ok()) bump_in_tier(tier, id);
}

Status MetadataStore::erase(std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(id);
  {
    std::lock_guard lock(shard.mu);
    if (shard.map.erase(std::string(id)) == 0) {
      return Status::NotFound("object metadata");
    }
  }
  return unpersist(id);
}

std::size_t MetadataStore::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

void MetadataStore::for_each(
    const std::function<void(const ObjectMeta&)>& fn) const {
  StageTimer stage(Stage::kMetadataLookup);
  for (const auto& shard : shards_) {
    std::vector<ObjectMeta> snapshot;
    {
      std::lock_guard lock(shard.mu);
      snapshot.reserve(shard.map.size());
      for (const auto& [id, meta] : shard.map) snapshot.push_back(meta);
    }
    for (const auto& meta : snapshot) fn(meta);
  }
}

std::vector<std::string> MetadataStore::select(
    const std::function<bool(const ObjectMeta&)>& pred) const {
  std::vector<std::string> ids;
  for_each([&](const ObjectMeta& meta) {
    if (pred(meta)) ids.push_back(meta.id);
  });
  return ids;
}

void MetadataStore::touch_in_tier(std::string_view tier, std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  std::lock_guard lock(lru_mu_);
  TierLru& lru = tier_lru_[std::string(tier)];
  auto it = lru.pos.find(std::string(id));
  if (it != lru.pos.end()) {
    lru.order.splice(lru.order.begin(), lru.order, it->second);
  } else {
    lru.order.emplace_front(id);
    lru.pos[std::string(id)] = lru.order.begin();
  }
}

void MetadataStore::bump_in_tier(std::string_view tier, std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  std::lock_guard lock(lru_mu_);
  auto lit = tier_lru_.find(std::string(tier));
  if (lit == tier_lru_.end()) return;
  auto it = lit->second.pos.find(std::string(id));
  if (it == lit->second.pos.end()) return;
  lit->second.order.splice(lit->second.order.begin(), lit->second.order,
                           it->second);
}

void MetadataStore::remove_from_tier(std::string_view tier,
                                     std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  std::lock_guard lock(lru_mu_);
  auto lit = tier_lru_.find(std::string(tier));
  if (lit == tier_lru_.end()) return;
  auto it = lit->second.pos.find(std::string(id));
  if (it == lit->second.pos.end()) return;
  lit->second.order.erase(it->second);
  lit->second.pos.erase(it);
}

void MetadataStore::drop_tier(std::string_view tier) {
  std::lock_guard lock(lru_mu_);
  tier_lru_.erase(std::string(tier));
}

std::optional<std::string> MetadataStore::oldest_in_tier(
    std::string_view tier, std::string_view excluding) const {
  std::lock_guard lock(lru_mu_);
  auto it = tier_lru_.find(std::string(tier));
  if (it == tier_lru_.end()) return std::nullopt;
  for (auto rit = it->second.order.rbegin(); rit != it->second.order.rend();
       ++rit) {
    if (*rit != excluding) return *rit;
  }
  return std::nullopt;
}

std::optional<std::string> MetadataStore::newest_in_tier(
    std::string_view tier, std::string_view excluding) const {
  std::lock_guard lock(lru_mu_);
  auto it = tier_lru_.find(std::string(tier));
  if (it == tier_lru_.end()) return std::nullopt;
  for (const auto& id : it->second.order) {
    if (id != excluding) return id;
  }
  return std::nullopt;
}

std::size_t MetadataStore::count_in_tier(std::string_view tier) const {
  std::lock_guard lock(lru_mu_);
  auto it = tier_lru_.find(std::string(tier));
  return it == tier_lru_.end() ? 0 : it->second.order.size();
}

bool MetadataStore::add_content_ref(std::string_view hash,
                                    std::string_view id) {
  std::lock_guard lock(content_mu_);
  auto& refs = content_refs_[std::string(hash)];
  const bool first = refs.empty();
  refs.insert(std::string(id));
  return first;
}

bool MetadataStore::drop_content_ref(std::string_view hash,
                                     std::string_view id) {
  std::lock_guard lock(content_mu_);
  auto it = content_refs_.find(std::string(hash));
  if (it == content_refs_.end()) return false;
  it->second.erase(std::string(id));
  if (it->second.empty()) {
    content_refs_.erase(it);
    return true;
  }
  return false;
}

std::size_t MetadataStore::content_ref_count(std::string_view hash) const {
  std::lock_guard lock(content_mu_);
  auto it = content_refs_.find(std::string(hash));
  return it == content_refs_.end() ? 0 : it->second.size();
}

std::vector<std::string> MetadataStore::content_ref_ids(
    std::string_view hash) const {
  std::lock_guard lock(content_mu_);
  auto it = content_refs_.find(std::string(hash));
  if (it == content_refs_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace tiera
