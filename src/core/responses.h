// The response catalogue of Table 1, plus the conditional wrapper used by
// eviction policies (Fig. 5) and small utility responses.
//
// Responses are thin, thread-safe wrappers over TieraInstance engine
// operations; each corresponds one-to-one with a verb in the specification
// language.
#pragma once

#include <functional>
#include <optional>

#include "common/crypto.h"
#include "common/rate_limiter.h"
#include "core/policy.h"

namespace tiera {

// store(what: S, to: tiers) / storeOnce(...): places object bytes. storeOnce
// only stores bytes whose content is unique (dedup via content hashing).
class StoreResponse final : public Response {
 public:
  StoreResponse(Selector what, std::vector<std::string> to, bool once = false)
      : what_(std::move(what)), to_(std::move(to)), once_(once) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  std::vector<std::string> to_;
  bool once_;
};

// retrieve(what: S): touches/prefetches objects from their tiers.
class RetrieveResponse final : public Response {
 public:
  explicit RetrieveResponse(Selector what) : what_(std::move(what)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
};

// copy(what: S, to: tiers, bandwidth: B/s): replicates objects, optionally
// throttled (the Fig. 14 knob).
class CopyResponse final : public Response {
 public:
  CopyResponse(Selector what, std::vector<std::string> to,
               double bandwidth_bytes_per_sec = 0)
      : what_(std::move(what)),
        to_(std::move(to)),
        limiter_(bandwidth_bytes_per_sec) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  std::vector<std::string> to_;
  RateLimiter limiter_;
};

// move(what: S, to: tiers, bandwidth: B/s): copy + remove from the selector's
// source tier (or from every other tier when the selector names none).
class MoveResponse final : public Response {
 public:
  MoveResponse(Selector what, std::vector<std::string> to,
               double bandwidth_bytes_per_sec = 0)
      : what_(std::move(what)),
        to_(std::move(to)),
        limiter_(bandwidth_bytes_per_sec) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  std::vector<std::string> to_;
  RateLimiter limiter_;
};

// delete(what: S, from: tiers): drops bytes from the named tiers (all tiers
// when empty); an object with no remaining location disappears entirely.
class DeleteResponse final : public Response {
 public:
  DeleteResponse(Selector what, std::vector<std::string> from = {})
      : what_(std::move(what)), from_(std::move(from)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  std::vector<std::string> from_;
};

class EncryptResponse final : public Response {
 public:
  EncryptResponse(Selector what, std::string_view passphrase)
      : what_(std::move(what)), key_(derive_key(passphrase)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  ChaChaKey key_;
};

class DecryptResponse final : public Response {
 public:
  DecryptResponse(Selector what, std::string_view passphrase)
      : what_(std::move(what)), key_(derive_key(passphrase)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  ChaChaKey key_;
};

class CompressResponse final : public Response {
 public:
  explicit CompressResponse(Selector what) : what_(std::move(what)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
};

class UncompressResponse final : public Response {
 public:
  explicit UncompressResponse(Selector what) : what_(std::move(what)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
};

// grow(what: tier, increment: P%): expands a tier. `provisioning_delay`
// models the time to spawn the backing node (≈1 min in the paper's Fig. 16);
// `remap_fraction` of the tier's replicated objects are invalidated after the
// resize (consistent-hash remapping → the paper's cache-miss spike).
class GrowResponse final : public Response {
 public:
  GrowResponse(std::string tier, double percent,
               Duration provisioning_delay = Duration::zero(),
               double remap_fraction = 0.0)
      : tier_(std::move(tier)),
        percent_(percent),
        provisioning_delay_(provisioning_delay),
        remap_fraction_(remap_fraction) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  std::string tier_;
  double percent_;
  Duration provisioning_delay_;
  double remap_fraction_;
};

class ShrinkResponse final : public Response {
 public:
  ShrinkResponse(std::string tier, double percent)
      : tier_(std::move(tier)), percent_(percent) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  std::string tier_;
  double percent_;
};

// prefetch(what: get.object, lookahead: K, to: tiers) — predictive data
// migration (the paper's §6: "predictive data and migration/prefetching").
// When the accessed object is a chunk in FileAdapter naming
// (`<file>#<index>`), the next K chunks are copied toward the fast tier in
// the background, so sequential file scans stay ahead of the reader.
class PrefetchResponse final : public Response {
 public:
  PrefetchResponse(std::size_t lookahead, std::vector<std::string> to)
      : lookahead_(lookahead), to_(std::move(to)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  std::size_t lookahead_;
  std::vector<std::string> to_;
};

// snapshot(what: S, name: "label"[, to: tiers]) — immutable point-in-time
// copies (`<id>@snap/<label>`); one of the responses the paper plans to add
// beyond Table 1 ("data snapshotting, and object versioning").
class SnapshotResponse final : public Response {
 public:
  SnapshotResponse(Selector what, std::string name,
                   std::vector<std::string> to = {})
      : what_(std::move(what)), name_(std::move(name)), to_(std::move(to)) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  std::string name_;
  std::vector<std::string> to_;
};

// `insert.object.dirty = true;` style assignments inside responses.
class SetDirtyResponse final : public Response {
 public:
  SetDirtyResponse(Selector what, bool dirty)
      : what_(std::move(what)), dirty_(dirty) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;

 private:
  Selector what_;
  bool dirty_;
};

// if (condition) { responses } — executed while the condition holds (bounded;
// stops when an iteration makes no progress), which gives the paper's
// eviction idiom its intended make-room semantics.
class ConditionalResponse final : public Response {
 public:
  ConditionalResponse(Condition condition, ResponseList body,
                      std::size_t max_iterations = 100000)
      : condition_(std::move(condition)),
        body_(std::move(body)),
        max_iterations_(max_iterations) {}
  Status execute(EventContext& ctx) override;
  std::string describe() const override;
  bool checks_fit() const override;

 private:
  Condition condition_;
  ResponseList body_;
  std::size_t max_iterations_;
};

// Arbitrary code response: the extension point for applications (and the
// failover monitor); also handy in tests.
class CallbackResponse final : public Response {
 public:
  CallbackResponse(std::string label,
                   std::function<Status(EventContext&)> fn)
      : label_(std::move(label)), fn_(std::move(fn)) {}
  Status execute(EventContext& ctx) override { return fn_(ctx); }
  std::string describe() const override { return "callback(" + label_ + ")"; }

 private:
  std::string label_;
  std::function<Status(EventContext&)> fn_;
};

// Convenience builders keep instance definitions terse.
ResponsePtr make_store(Selector what, std::vector<std::string> to);
ResponsePtr make_store_once(Selector what, std::vector<std::string> to);
ResponsePtr make_copy(Selector what, std::vector<std::string> to,
                      double bandwidth_bps = 0);
ResponsePtr make_move(Selector what, std::vector<std::string> to,
                      double bandwidth_bps = 0);
ResponsePtr make_delete(Selector what, std::vector<std::string> from = {});
ResponsePtr make_evict_lru(std::string from_tier, std::string to_tier);
ResponsePtr make_evict_mru(std::string from_tier, std::string to_tier);
ResponsePtr make_grow(std::string tier, double percent,
                      Duration provisioning_delay = Duration::zero(),
                      double remap_fraction = 0.0);

}  // namespace tiera
