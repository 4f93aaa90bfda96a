#include "store/file_tier.h"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/logging.h"

namespace fs = std::filesystem;

namespace tiera {

namespace {

// RAM-copy latency for a modelled page-cache hit.
LatencyModel cache_hit_model() {
  return {.read_base = from_ms(0.02),
          .write_base = from_ms(0.02),
          .read_per_mb = from_ms(0.4),
          .write_per_mb = from_ms(0.4),
          .jitter = 0.10};
}

Status log_unavailable(const std::string& tier) {
  return Status::Internal(tier + ": segment log unavailable");
}

}  // namespace

FileTier::FileTier(std::string name, TierKind kind,
                   std::uint64_t capacity_bytes, std::string directory,
                   LatencyModel latency, TierPricing pricing)
    : Tier(std::move(name), kind, capacity_bytes, latency, pricing),
      directory_(std::move(directory)) {
  auto log = SegmentLog::open(directory_);
  if (!log.ok()) {
    TIERA_LOG(kError, "store") << this->name() << " segment log open failed: "
                               << log.status().to_string();
    return;
  }
  log_ = std::move(log).value();
  migrate_legacy_files();
  std::uint64_t total = 0;
  log_->for_each([&](std::string_view, std::uint32_t length) {
    total += length;
    return true;
  });
  reset_usage();
  add_reloaded_usage(total);
  if (log_->size() > 0) {
    TIERA_LOG(kInfo, "store") << this->name() << " reloaded " << log_->size()
                              << " objects (" << total << " bytes) from "
                              << directory_;
  }
}

// One-time import of directories written by the old one-file-per-object
// format (filename = hex key, or hex prefix + sha when too long): append
// each file's bytes to the log, then remove the file.
void FileTier::migrate_legacy_files() {
  std::error_code ec;
  std::size_t migrated = 0;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string hex = entry.path().filename().string();
    if (hex.rfind("seg-", 0) == 0) continue;
    std::string key;
    bool decodable = hex.find('-') == std::string::npos && hex.size() % 2 == 0;
    if (decodable) {
      key.reserve(hex.size() / 2);
      for (std::size_t i = 0; decodable && i + 1 < hex.size(); i += 2) {
        auto nibble = [&](char c) -> int {
          if (c >= '0' && c <= '9') return c - '0';
          if (c >= 'a' && c <= 'f') return c - 'a' + 10;
          return -1;
        };
        const int hi = nibble(hex[i]);
        const int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
          decodable = false;
          break;
        }
        key.push_back(static_cast<char>((hi << 4) | lo));
      }
    }
    if (!decodable) key = hex;
    std::ifstream in(entry.path(), std::ios::binary);
    Bytes value((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    if (!in && !in.eof()) continue;
    if (!log_->put(key, as_view(value)).ok()) continue;
    fs::remove(entry.path(), ec);
    ++migrated;
  }
  if (migrated > 0) {
    TIERA_LOG(kInfo, "store") << name() << " migrated " << migrated
                              << " legacy object files into the segment log";
  }
}

Status FileTier::store_raw(std::string_view key, ByteView value) {
  if (!log_) return log_unavailable(name());
  return log_->put(key, value);
}

Result<Bytes> FileTier::load_raw(std::string_view key) const {
  if (!log_) return log_unavailable(name());
  return log_->get(key);
}

Status FileTier::erase_raw(std::string_view key) {
  if (!log_) return log_unavailable(name());
  const Status status = log_->erase(key);
  return status.is_not_found() ? Status::Ok() : status;
}

bool FileTier::contains_raw(std::string_view key) const {
  return size_raw(key).has_value();
}

std::optional<std::uint64_t> FileTier::size_raw(std::string_view key) const {
  if (!log_) return std::nullopt;
  return log_->value_size(key);
}

std::size_t FileTier::count_raw() const { return log_ ? log_->size() : 0; }

void FileTier::keys_raw(
    const std::function<void(std::string_view)>& fn) const {
  if (!log_) return;
  log_->for_each([&](std::string_view key, std::uint32_t) {
    fn(key);
    return true;
  });
}

void FileTier::wipe() {
  if (log_) (void)log_->wipe();
  reset_usage();
}

std::uint64_t FileTier::log_bytes() const {
  return log_ ? log_->log_bytes() : 0;
}

// --- BlockTier --------------------------------------------------------------

BlockTier::BlockTier(std::string name, std::uint64_t capacity_bytes,
                     std::string directory, LatencyModel latency,
                     TierPricing pricing)
    : FileTier(std::move(name), TierKind::kBlock, capacity_bytes,
               std::move(directory), latency, pricing) {
  // A block volume has a bounded effective queue depth; memory and object
  // services scale out and stay unlimited.
  set_io_slots(8);
}

void BlockTier::set_page_cache_bytes(std::uint64_t bytes) {
  std::lock_guard lock(cache_mu_);
  cache_.capacity = bytes;
  while (cache_.bytes > cache_.capacity && !cache_.lru.empty()) {
    const std::string& victim = cache_.lru.back();
    auto it = cache_.entries.find(victim);
    cache_.bytes -= it->second.second;
    cache_.entries.erase(it);
    cache_.lru.pop_back();
  }
}

std::uint64_t BlockTier::page_cache_bytes() const {
  std::lock_guard lock(cache_mu_);
  return cache_.capacity;
}

double BlockTier::cache_hit_rate() const {
  std::lock_guard lock(cache_mu_);
  const std::uint64_t total = cache_.hits + cache_.misses;
  return total ? static_cast<double>(cache_.hits) /
                     static_cast<double>(total)
               : 0.0;
}

bool BlockTier::cache_touch(std::string_view key, std::uint64_t size) const {
  std::lock_guard lock(cache_mu_);
  if (cache_.capacity == 0) return false;
  auto it = cache_.entries.find(std::string(key));
  if (it != cache_.entries.end()) {
    cache_.lru.splice(cache_.lru.begin(), cache_.lru, it->second.first);
    ++cache_.hits;
    return true;
  }
  ++cache_.misses;
  if (size > cache_.capacity) return false;  // too big to cache
  cache_.lru.emplace_front(key);
  cache_.entries[std::string(key)] = {cache_.lru.begin(), size};
  cache_.bytes += size;
  while (cache_.bytes > cache_.capacity && !cache_.lru.empty()) {
    const std::string victim = cache_.lru.back();
    auto vit = cache_.entries.find(victim);
    cache_.bytes -= vit->second.second;
    cache_.entries.erase(vit);
    cache_.lru.pop_back();
  }
  return false;
}

Duration BlockTier::sample_read_delay(std::string_view key,
                                      std::uint64_t bytes, Rng& rng) {
  if (cache_touch(key, bytes)) {
    return cache_hit_model().sample_read(bytes, rng);
  }
  return Tier::sample_read_delay(key, bytes, rng);
}

Duration BlockTier::sample_write_delay(std::string_view key,
                                       std::uint64_t bytes, Rng& rng) {
  // Writes always pay the device (EBS acknowledges at the volume), but they
  // warm the modelled cache for subsequent reads.
  cache_touch(key, bytes);
  return Tier::sample_write_delay(key, bytes, rng);
}

// --- ObjectTier -------------------------------------------------------------

ObjectTier::ObjectTier(std::string name, std::uint64_t capacity_bytes,
                       std::string directory, LatencyModel latency,
                       TierPricing pricing)
    : FileTier(std::move(name), TierKind::kObject, capacity_bytes,
               std::move(directory), latency, pricing) {}

// --- EphemeralTier ----------------------------------------------------------

EphemeralTier::EphemeralTier(std::string name, std::uint64_t capacity_bytes,
                             LatencyModel latency)
    : Tier(std::move(name), TierKind::kEphemeral, capacity_bytes, latency,
           TierPricing{}) {
  set_io_slots(8);  // local disk: bounded queue depth, like a block volume
}

Status EphemeralTier::store_raw(std::string_view key, ByteView value) {
  map_.put(key, value);
  return Status::Ok();
}

Result<Bytes> EphemeralTier::load_raw(std::string_view key) const {
  auto value = map_.get(key);
  if (!value) return Status::NotFound(name() + ": no such object");
  return std::move(*value);
}

Status EphemeralTier::erase_raw(std::string_view key) {
  map_.erase(key);
  return Status::Ok();
}

bool EphemeralTier::contains_raw(std::string_view key) const {
  return map_.contains(key);
}

std::optional<std::uint64_t> EphemeralTier::size_raw(
    std::string_view key) const {
  return map_.size_of(key);
}

std::size_t EphemeralTier::count_raw() const { return map_.size(); }

void EphemeralTier::keys_raw(
    const std::function<void(std::string_view)>& fn) const {
  map_.for_each_key(fn);
}

}  // namespace tiera
