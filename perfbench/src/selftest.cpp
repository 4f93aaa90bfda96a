// Self-test of the benchmark's own machinery:
//   - the op stream is a function of the seed: the same seed gives the
//     identical stream (keys, op types, versions), another seed a different
//     one;
//   - each workload's PUT share matches its definition within kMixTolerance,
//     and keys stay inside the issuing client's partition;
//   - values round-trip and the checker rejects corrupt or foreign bytes;
//   - the version model accepts only acknowledged (or indeterminate) PUTs,
//     and the output check flags a layer that loses acknowledged PUTs;
//   - read_hot GETs all hit tier1.
//
//   perfbench_selftest <scratch-data-dir>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

using namespace perfbench;

namespace {

// Absolute tolerance on a workload's PUT share over kMixOps ops: more than
// ten binomial standard deviations at the largest share (0.5).
constexpr double kMixTolerance = 0.01;
constexpr int kMixOps = 200000;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<Op> take(ClientStream& s, int n) {
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) ops.push_back(s.next());
  return ops;
}

bool same(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].put != b[i].put || a[i].key != b[i].key ||
        a[i].version != b[i].version) {
      return false;
    }
  }
  return true;
}

void test_streams(const Workload& w) {
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ClientStream a(w, 7, c), b(w, 7, c), other(w, 8, c);
    const auto ops = take(a, 20000);
    expect(same(ops, take(b, 20000)),
           w.name + " client " + std::to_string(c) + ": seed 7 repeats");
    expect(!same(ops, take(other, 20000)),
           w.name + " client " + std::to_string(c) + ": seed 8 differs");
  }
  ClientStream s(w, 3, 1);
  std::vector<std::uint32_t> last(w.objects, 0);
  int puts = 0;
  bool partitioned = true, versions_step = true;
  for (const Op& op : take(s, kMixOps)) {
    partitioned &= op.key < w.objects && op.key % kClients == 1;
    if (op.put) {
      ++puts;
      versions_step &= op.version == last[op.key] + 1;
      last[op.key] = op.version;
    }
  }
  const double share = static_cast<double>(puts) / kMixOps;
  char what[160];
  std::snprintf(what, sizeof(what), "%s: PUT share %.4f within %.2f of %.2f",
                w.name.c_str(), share, kMixTolerance, w.put_fraction);
  expect(share > w.put_fraction - kMixTolerance &&
             share < w.put_fraction + kMixTolerance,
         what);
  expect(partitioned, w.name + ": keys stay in the client's partition");
  expect(versions_step, w.name + ": each PUT writes the key's next version");
}

void test_skew() {
  // read_hot is zipfian: its hottest key draws far more than a uniform 1/n.
  for (const Workload& w : workloads()) {
    ClientStream s(w, 5, 0);
    std::vector<int> hits(w.objects, 0);
    for (const Op& op : take(s, kMixOps)) ++hits[op.key];
    int top = 0;
    for (int h : hits) top = std::max(top, h);
    const double top_share = static_cast<double>(top) / kMixOps;
    const double uniform = 1.0 / static_cast<double>(s.owned_keys());
    if (w.dist == KeyDist::kZipfian) {
      expect(top_share > 50 * uniform, w.name + ": hottest key is hot");
    } else {
      expect(top_share < 3 * uniform, w.name + ": no key is hot");
    }
  }
}

void test_values_and_model() {
  std::vector<std::uint8_t> v(kValueBytes);
  fill_value(42, 3, v.data());
  const auto ok = decode_value(42, v.data(), v.size());
  expect(ok && *ok == 3, "value round-trips key 42 version 3");
  expect(!decode_value(44, v.data(), v.size()), "value of another key fails");
  v[1000] ^= 1;
  expect(!decode_value(42, v.data(), v.size()), "corrupt value fails");
  expect(!decode_value(42, v.data(), 100), "short value fails");

  const Workload& w = *find_workload("write_durable");
  ClientStream s(w, 9, 0);
  Op put;
  do {
    put = s.next();
  } while (!put.put);
  expect(s.version_allowed(put.key, 0), "preloaded version 0 expected");
  s.put_done(put, false);
  expect(s.version_allowed(put.key, 0) &&
             s.version_allowed(put.key, put.version),
         "failed PUT: old and indeterminate versions both allowed");
  s.put_done(put, true);
  expect(!s.version_allowed(put.key, 0) &&
             s.version_allowed(put.key, put.version),
         "acknowledged PUT replaces the expected version");
}

// A map-backed layer that acknowledges every PUT but, when `lose` is set,
// silently drops every 7th one: the output check must notice.
struct MapLayer final : Executor {
  explicit MapLayer(bool lose) : lose(lose) {}
  tiera::Status put(const std::string& id, tiera::ByteView v) override {
    if (!lose || ++puts % 7 != 0) data[id] = tiera::Bytes(v.begin(), v.end());
    return tiera::Status::Ok();
  }
  tiera::Result<tiera::Bytes> get(const std::string& id) override {
    auto it = data.find(id);
    if (it == data.end()) return tiera::Status::NotFound(id);
    return it->second;
  }
  bool lose;
  int puts = 0;
  std::map<std::string, tiera::Bytes> data;
};

void test_checker() {
  const Workload& w = *find_workload("write_durable");
  for (bool lose : {false, true}) {
    auto streams = make_streams(w, 4);
    std::vector<std::unique_ptr<Executor>> execs;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      auto layer = std::make_unique<MapLayer>(false);
      std::vector<std::uint8_t> v(kValueBytes);
      for (std::uint32_t slot = 0; slot < streams[c].owned_keys(); ++slot) {
        const std::uint32_t key = streams[c].key_of(slot);
        fill_value(key, 0, v.data());
        (void)layer->put(object_id(key), tiera::ByteView(v));
      }
      layer->lose = lose;
      execs.push_back(std::move(layer));
    }
    const Tally t = run_phase(streams, execs, {.ops_per_client = 20000});
    expect(lose ? t.mismatches > 0 : t.mismatches == 0,
           lose ? "checker flags GETs after lost acknowledged PUTs"
                : "checker passes a faithful layer");
  }
}

// Fraction of GETs served by tier1 over `ops` in-process ops per client.
double tier1_hit_ratio(const Workload& w, const std::string& dir,
                       std::uint64_t ops) {
  auto instance = make_instance(w, fresh_dir(dir));
  if (!instance.ok() || !preload(**instance, w)) return -1;
  auto execs = instance_executors(**instance);
  auto streams = make_streams(w, 1);
  tiera::MetricsRegistry::global().collect();
  const std::uint64_t hits0 =
      counter("tiera_instance_tier_hits_total", {{"tier", "tier1"}});
  const Tally t = run_phase(streams, execs,
                            {.ops_per_client = ops, .record = false});
  (*instance)->control().drain();
  tiera::MetricsRegistry::global().collect();
  const std::uint64_t hits =
      counter("tiera_instance_tier_hits_total", {{"tier", "tier1"}}) - hits0;
  expect(t.mismatches == 0, w.name + ": in-process GETs pass the check");
  instance->reset();
  fresh_dir(dir);
  return t.get_attempted
             ? static_cast<double>(hits) / static_cast<double>(t.get_attempted)
             : -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch-data-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  tiera::set_log_level(tiera::LogLevel::kOff);
  tiera::set_time_scale(0.0);

  for (const Workload& w : workloads()) test_streams(w);
  test_skew();
  test_values_and_model();
  test_checker();

  char what[128];
  const double hot = tier1_hit_ratio(*find_workload("read_hot"), dir, 5000);
  std::snprintf(what, sizeof(what), "read_hot: %.1f%% of GETs hit tier1",
                100.0 * hot);
  expect(hot >= 0.999, what);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
