// In-process replays of the op stream on the layers below TieraInstance,
// each on a fresh structure preloaded with version 0 of every key.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench.h"
#include "core/metadata_store.h"
#include "store/file_tier.h"
#include "store/mem_tier.h"

namespace perfbench {
namespace {

// MetadataStore with a MetaDb attached, under the workload's sync setting.
// A PUT writes the object's full record (what TieraInstance::put persists);
// a GET bumps its access count (what TieraInstance::get does). The layer
// holds no values, so GETs return no bytes to check.
class MetadataExecutor final : public Executor {
 public:
  MetadataExecutor(tiera::MetadataStore& store, std::string tier)
      : store_(store), tier_(std::move(tier)) {}
  bool holds_values() const override { return false; }
  tiera::Status put(const std::string& id, tiera::ByteView v) override {
    tiera::ObjectMeta meta;
    meta.id = id;
    meta.size = v.size();
    meta.locations = {tier_};
    meta.created = meta.last_access = tiera::now();
    return store_.put(meta);
  }
  tiera::Result<tiera::Bytes> get(const std::string& id) override {
    tiera::Status s = store_.update(id, [](tiera::ObjectMeta& m) {
      ++m.access_count;
      m.last_access = tiera::now();
      return true;
    });
    if (!s.ok()) return s;
    return tiera::Bytes{};
  }

 private:
  tiera::MetadataStore& store_;
  std::string tier_;
};

class TierExecutor final : public Executor {
 public:
  explicit TierExecutor(tiera::Tier& tier) : tier_(tier) {}
  tiera::Status put(const std::string& id, tiera::ByteView v) override {
    return tier_.put(id, v);
  }
  tiera::Result<tiera::Bytes> get(const std::string& id) override {
    return tier_.get(id);
  }

 private:
  tiera::Tier& tier_;
};

// A layer that cannot even be set up leaves nothing to measure.
[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void preload_executor(const Workload& w, Executor& exec) {
  std::vector<std::uint8_t> value(kValueBytes);
  for (std::uint32_t key = 0; key < w.objects; ++key) {
    fill_value(key, 0, value.data());
    const tiera::Status s = exec.put(object_id(key), tiera::ByteView(value));
    if (!s.ok()) fail("layer preload: " + s.to_string());
  }
}

// Runs the seeded streams from their start for `seconds`, one executor
// from `make()` per client.
Tally replay(const Workload& w, std::uint64_t seed, double seconds,
             const std::function<std::unique_ptr<Executor>()>& make) {
  auto streams = make_streams(w, seed);
  std::vector<std::unique_ptr<Executor>> execs;
  for (std::uint32_t c = 0; c < kClients; ++c) execs.push_back(make());
  return run_phase(streams, execs, {.seconds = seconds});
}

}  // namespace

Metrics replay_metadb(const Workload& w, std::uint64_t seed, double seconds,
                      const std::string& dir, Tally& tally) {
  tiera::MetaDbOptions options;
  options.sync_every_write = w.journal_sync;
  auto db = tiera::MetaDb::open(fresh_dir(dir) + "/metadata.db", options);
  if (!db.ok()) fail("metadb open: " + db.status().to_string());
  tiera::MetadataStore store(std::move(db).value());
  const std::string tier = "tier1";
  MetadataExecutor loader(store, tier);
  preload_executor(w, loader);
  const Tally t = replay(w, seed, seconds, [&] {
    return std::make_unique<MetadataExecutor>(store, tier);
  });
  tally.merge(t);
  return {{"metadb.put_us", quantile(t.put_us, 0.5), "us"},
          {"metadb.update_us", quantile(t.get_us, 0.5), "us"}};
}

Metrics replay_mem_tier(const Workload& w, std::uint64_t seed, double seconds,
                        Tally& tally) {
  // Sized to hold every object: this measures the bare tier, not eviction.
  tiera::MemTier tier("tier1:Memcached", 2ull * w.objects * kValueBytes);
  TierExecutor loader(tier);
  preload_executor(w, loader);
  const Tally t = replay(w, seed, seconds,
                         [&] { return std::make_unique<TierExecutor>(tier); });
  tally.merge(t);
  return {{"store.mem.get_us", quantile(t.get_us, 0.5), "us"},
          {"store.mem.put_us", quantile(t.put_us, 0.5), "us"}};
}

Metrics replay_file_tier(const Workload& w, std::uint64_t seed,
                         double seconds, const std::string& dir,
                         Tally& tally) {
  auto tier = std::make_unique<tiera::BlockTier>(
      "tier2:EBS", w.file_tier_bytes, fresh_dir(dir));
  TierExecutor loader(*tier);
  preload_executor(w, loader);
  const std::uint64_t written0 = bytes_written_by_process();
  const Tally t = replay(w, seed, seconds,
                         [&] { return std::make_unique<TierExecutor>(*tier); });
  const std::uint64_t written = bytes_written_by_process() - written0;
  tally.merge(t);
  const double live = static_cast<double>(w.objects) * kValueBytes;
  const double put_bytes = static_cast<double>(t.put_attempted) * kValueBytes;
  Metrics out = {
      {"store.file.get_us", quantile(t.get_us, 0.5), "us"},
      {"store.file.put_us", quantile(t.put_us, 0.5), "us"},
      {"store.file.log_bytes_per_live_byte",
       static_cast<double>(tier->log_bytes()) / live, "ratio"},
      {"store.file.bytes_written_per_put_byte",
       put_bytes > 0 ? static_cast<double>(written) / put_bytes : 0.0,
       "ratio"},
  };
  tier.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

}  // namespace perfbench
