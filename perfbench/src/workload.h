// Workload model shared by the benchmark and its self-test: the two named
// workloads, the seeded per-client op stream, 4 KiB values that encode their
// key and version, and the per-key version model every GET is checked
// against.
//
// Each client owns the keys with `key % clients == client`, so it alone
// writes them and "the last acknowledged PUT" of a key is well defined no
// matter how the clients interleave.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kValueBytes = 4096;
inline constexpr std::uint32_t kClients = 2;

enum class KeyDist { kUniform, kZipfian };

// Both workloads serve a MemcachedEBS instance.
struct Workload {
  std::string name;
  bool journal_sync;
  std::uint32_t objects;
  std::uint64_t mem_tier_bytes;
  std::uint64_t file_tier_bytes;
  double put_fraction;
  KeyDist dist;
  // Untimed ops per client before anything is measured. A fixed count makes
  // the store's state (and so disk_bytes_per_live_byte) the same for a seed
  // whatever the host speed. Each is a few seconds of load, so latency has
  // levelled off before timing starts, and leaves the FileTier log well
  // short of its 50%-dead compaction trigger: measured right at the
  // trigger, the footprint reads 1x or 2x depending on thread interleaving.
  std::uint64_t warmup_ops;
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"read_hot", false, 20000, 1ull << 30, 1ull << 30, 0.05,
       KeyDist::kZipfian, 30000},
      {"write_durable", true, 4000, 1ull << 30, 1ull << 30, 0.50,
       KeyDist::kUniform, 2000},
  };
  return all;
}

inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// YCSB zipfian (Gray et al.) over [0, n), theta 0.99. Ranks are scrambled
// by a fixed bijection so the hot keys spread over the keyspace.
class Zipfian {
 public:
  explicit Zipfian(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
    // An odd multiplier far from n's factors makes rank -> slot a bijection
    // whenever gcd(mult, n) == 1.
    mult_ = 2654435761ull % n;
    while (mult_ < 2 || std::gcd(mult_, n) != 1) ++mult_;
  }

  std::uint64_t next(double u) const {
    const double uz = u * zetan_;
    std::uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < half_pow_theta_) {
      rank = 1;
    } else {
      rank = static_cast<std::uint64_t>(
          static_cast<double>(n_) *
          std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return (rank * mult_ + 7) % n_;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_theta_ = 0;
  std::uint64_t mult_ = 1;
};

struct Op {
  bool put = false;
  std::uint32_t key = 0;
  std::uint32_t version = 0;  // PUT: the version written; GET: unused
};

// One client's infinite, seeded op stream plus its version model. The
// stream (key, op type, PUT version) depends only on (seed, workload,
// client); the model tracks which versions a GET may legitimately return.
class ClientStream {
 public:
  ClientStream(const Workload& w, std::uint64_t seed, std::uint32_t client)
      : w_(w),
        client_(client),
        owned_(w.objects / kClients),
        rng_(seed * 0x100000001B3ull + client * 0x9E3779B97F4A7C15ull + 1),
        issued_(owned_, 0),
        acked_(owned_, 0),
        uncertain_(owned_) {
    if (w.dist == KeyDist::kZipfian) zipf_.emplace(owned_);
  }

  std::uint32_t owned_keys() const { return owned_; }
  std::uint32_t key_of(std::uint32_t slot) const {
    return slot * kClients + client_;
  }

  Op next() {
    const double u_op = unit();
    const double u_key = unit();
    const std::uint32_t slot =
        zipf_ ? static_cast<std::uint32_t>(zipf_->next(u_key))
              : static_cast<std::uint32_t>(u_key * owned_);
    Op op;
    op.put = u_op < w_.put_fraction;
    op.key = key_of(std::min(slot, owned_ - 1));
    if (op.put) op.version = ++issued_[slot_of(op.key)];
    return op;
  }

  // Outcome of a PUT: acknowledged versions become the expected value; a
  // failed PUT's effect is indeterminate, so GETs may return it as well.
  void put_done(const Op& op, bool ok) {
    const std::uint32_t slot = slot_of(op.key);
    if (ok) {
      acked_[slot] = op.version;
      uncertain_[slot].clear();
    } else {
      uncertain_[slot].push_back(op.version);
    }
  }

  bool version_allowed(std::uint32_t key, std::uint32_t version) const {
    const std::uint32_t slot = slot_of(key);
    if (version == acked_[slot]) return true;
    const auto& u = uncertain_[slot];
    return std::find(u.begin(), u.end(), version) != u.end();
  }

 private:
  std::uint32_t slot_of(std::uint32_t key) const { return key / kClients; }
  double unit() {
    return static_cast<double>(splitmix64(rng_) >> 11) * 0x1.0p-53;
  }

  const Workload& w_;
  std::uint32_t client_;
  std::uint32_t owned_;
  std::uint64_t rng_;
  std::optional<Zipfian> zipf_;
  std::vector<std::uint32_t> issued_;
  std::vector<std::uint32_t> acked_;
  std::vector<std::vector<std::uint32_t>> uncertain_;
};

inline std::string object_id(std::uint32_t key) {
  return "obj-" + std::to_string(key);
}

// 4 KiB value: little-endian key and version, then a fill derived from both.
inline void fill_value(std::uint32_t key, std::uint32_t version,
                       std::uint8_t* out) {
  std::memcpy(out, &key, 4);
  std::memcpy(out + 4, &version, 4);
  std::uint64_t state = (static_cast<std::uint64_t>(key) << 32) | version;
  for (std::size_t i = 8; i < kValueBytes; i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out + i, &word, 8);
  }
}

// Checks that `bytes` is an intact value of `key`; returns its version.
inline std::optional<std::uint32_t> decode_value(std::uint32_t key,
                                                 const std::uint8_t* bytes,
                                                 std::size_t size) {
  if (size != kValueBytes) return std::nullopt;
  std::uint32_t k = 0, v = 0;
  std::memcpy(&k, bytes, 4);
  std::memcpy(&v, bytes + 4, 4);
  if (k != key) return std::nullopt;
  std::uint8_t expected[kValueBytes];
  fill_value(k, v, expected);
  if (std::memcmp(expected, bytes, kValueBytes) != 0) return std::nullopt;
  return v;
}

}  // namespace perfbench
