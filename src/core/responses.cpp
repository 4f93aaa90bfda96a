#include "core/responses.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "core/instance.h"

namespace tiera {

namespace {
std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}
}  // namespace

// --- StoreResponse -----------------------------------------------------------

Status StoreResponse::execute(EventContext& ctx) {
  const std::vector<std::string> ids = what_.resolve(ctx);
  Status last = Status::Ok();
  for (const auto& id : ids) {
    std::shared_ptr<const Bytes> payload;
    if (id == ctx.object_id && ctx.payload) {
      payload = ctx.payload;
    }
    const Status s =
        ctx.instance->engine_store(id, payload, to_, once_, &ctx);
    if (!s.ok()) {
      last = s;
      if (ctx.placement_error.ok()) ctx.placement_error = s;
    }
  }
  return last;
}

std::string StoreResponse::describe() const {
  return std::string(once_ ? "storeOnce" : "store") + "(what: " +
         what_.describe() + ", to: " + join(to_) + ")";
}

// --- RetrieveResponse --------------------------------------------------------

Status RetrieveResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_retrieve(what_.resolve(ctx));
}

std::string RetrieveResponse::describe() const {
  return "retrieve(what: " + what_.describe() + ")";
}

// --- CopyResponse ------------------------------------------------------------

Status CopyResponse::execute(EventContext& ctx) {
  const Status s = ctx.instance->engine_copy(
      what_.resolve(ctx), to_, limiter_.unlimited() ? nullptr : &limiter_,
      &ctx);
  if (!s.ok() && ctx.placement_error.ok()) ctx.placement_error = s;
  return s;
}

std::string CopyResponse::describe() const {
  std::ostringstream out;
  out << "copy(what: " << what_.describe() << ", to: " << join(to_);
  if (!limiter_.unlimited()) {
    out << ", bandwidth: " << limiter_.bytes_per_second() << "B/s";
  }
  out << ")";
  return out.str();
}

// --- MoveResponse ------------------------------------------------------------

Status MoveResponse::execute(EventContext& ctx) {
  // The source tier is implied by the selector (move what is *in tier X* to
  // Y removes it from X); selectors without a tier move from everywhere.
  std::vector<std::string> from;
  if (!what_.tier.empty()) from.push_back(what_.tier);
  return ctx.instance->engine_move(what_.resolve(ctx), to_, from,
                                   limiter_.unlimited() ? nullptr : &limiter_,
                                   &ctx);
}

std::string MoveResponse::describe() const {
  std::ostringstream out;
  out << "move(what: " << what_.describe() << ", to: " << join(to_);
  if (!limiter_.unlimited()) {
    out << ", bandwidth: " << limiter_.bytes_per_second() << "B/s";
  }
  out << ")";
  return out.str();
}

// --- DeleteResponse ----------------------------------------------------------

Status DeleteResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_delete(what_.resolve(ctx), from_, &ctx);
}

std::string DeleteResponse::describe() const {
  std::string out = "delete(what: " + what_.describe();
  if (!from_.empty()) out += ", from: " + join(from_);
  return out + ")";
}

// --- Encrypt / Decrypt -------------------------------------------------------

Status EncryptResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_encrypt(what_.resolve(ctx), key_);
}

std::string EncryptResponse::describe() const {
  return "encrypt(what: " + what_.describe() + ", key: ***)";
}

Status DecryptResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_decrypt(what_.resolve(ctx), key_);
}

std::string DecryptResponse::describe() const {
  return "decrypt(what: " + what_.describe() + ", key: ***)";
}

// --- Compress / Uncompress ---------------------------------------------------

Status CompressResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_compress(what_.resolve(ctx));
}

std::string CompressResponse::describe() const {
  return "compress(what: " + what_.describe() + ")";
}

Status UncompressResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_uncompress(what_.resolve(ctx));
}

std::string UncompressResponse::describe() const {
  return "uncompress(what: " + what_.describe() + ")";
}

// --- Grow / Shrink -----------------------------------------------------------

Status GrowResponse::execute(EventContext& ctx) {
  TIERA_RETURN_IF_ERROR(
      ctx.instance->engine_grow(tier_, percent_, provisioning_delay_));
  if (remap_fraction_ > 0) {
    ctx.instance->remap_invalidate(tier_, remap_fraction_);
  }
  ++ctx.mutations;
  return Status::Ok();
}

std::string GrowResponse::describe() const {
  std::ostringstream out;
  out << "grow(what: " << tier_ << ", increment: " << percent_ << "%)";
  return out.str();
}

Status ShrinkResponse::execute(EventContext& ctx) {
  ++ctx.mutations;
  return ctx.instance->engine_shrink(tier_, percent_);
}

std::string ShrinkResponse::describe() const {
  std::ostringstream out;
  out << "shrink(what: " << tier_ << ", decrement: " << percent_ << "%)";
  return out.str();
}

// --- Prefetch ----------------------------------------------------------------

Status PrefetchResponse::execute(EventContext& ctx) {
  // Chunk naming from the POSIX layer: "<file>#<index>". Non-chunk objects
  // have no successor to prefetch.
  const std::string& id = ctx.object_id;
  const auto hash_at = id.rfind('#');
  if (hash_at == std::string::npos || hash_at + 1 >= id.size()) {
    return Status::Ok();
  }
  const std::string base = id.substr(0, hash_at + 1);
  std::uint64_t index = 0;
  for (std::size_t i = hash_at + 1; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return Status::Ok();  // not a chunk
    index = index * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  std::vector<std::string> ahead;
  ahead.reserve(lookahead_);
  for (std::size_t k = 1; k <= lookahead_; ++k) {
    const std::string next = base + std::to_string(index + k);
    if (ctx.instance->contains(next)) ahead.push_back(next);
  }
  if (ahead.empty()) return Status::Ok();
  return ctx.instance->engine_copy(ahead, to_, nullptr, &ctx);
}

std::string PrefetchResponse::describe() const {
  std::ostringstream out;
  out << "prefetch(what: get.object, lookahead: " << lookahead_
      << ", to: " << join(to_) << ")";
  return out.str();
}

// --- Snapshot ----------------------------------------------------------------

Status SnapshotResponse::execute(EventContext& ctx) {
  const Status s =
      ctx.instance->engine_snapshot(what_.resolve(ctx), name_, to_);
  if (s.ok()) ++ctx.mutations;
  return s;
}

std::string SnapshotResponse::describe() const {
  std::string out =
      "snapshot(what: " + what_.describe() + ", name: \"" + name_ + "\"";
  if (!to_.empty()) out += ", to: " + join(to_);
  return out + ")";
}

// --- SetDirty ----------------------------------------------------------------

Status SetDirtyResponse::execute(EventContext& ctx) {
  return ctx.instance->engine_set_dirty(what_.resolve(ctx), dirty_);
}

std::string SetDirtyResponse::describe() const {
  return what_.describe() + ".dirty = " + (dirty_ ? "true" : "false");
}

// --- ConditionalResponse -----------------------------------------------------

Status ConditionalResponse::execute(EventContext& ctx) {
  Status last = Status::Ok();
  for (std::size_t iteration = 0; iteration < max_iterations_; ++iteration) {
    if (!condition_.evaluate(ctx)) return last;
    const std::uint64_t mutations_before = ctx.mutations;
    for (const auto& response : body_) {
      const Status s = response->execute(ctx);
      if (!s.ok()) last = s;
    }
    // No progress: a plain one-shot `if` body, or eviction that cannot free
    // space. Either way, repeating would loop forever.
    if (ctx.mutations == mutations_before) return last;
  }
  return last;
}

bool ConditionalResponse::checks_fit() const {
  if (condition_.kind == Condition::Kind::kTierCannotFit) return true;
  return std::any_of(body_.begin(), body_.end(),
                     [](const ResponsePtr& r) { return r->checks_fit(); });
}

std::string ConditionalResponse::describe() const {
  std::string out = "if (" + condition_.describe() + ") { ";
  for (const auto& response : body_) out += response->describe() + "; ";
  return out + "}";
}

// --- Builders ----------------------------------------------------------------

ResponsePtr make_store(Selector what, std::vector<std::string> to) {
  return std::make_unique<StoreResponse>(std::move(what), std::move(to));
}

ResponsePtr make_store_once(Selector what, std::vector<std::string> to) {
  return std::make_unique<StoreResponse>(std::move(what), std::move(to),
                                         /*once=*/true);
}

ResponsePtr make_copy(Selector what, std::vector<std::string> to,
                      double bandwidth_bps) {
  return std::make_unique<CopyResponse>(std::move(what), std::move(to),
                                        bandwidth_bps);
}

ResponsePtr make_move(Selector what, std::vector<std::string> to,
                      double bandwidth_bps) {
  return std::make_unique<MoveResponse>(std::move(what), std::move(to),
                                        bandwidth_bps);
}

ResponsePtr make_delete(Selector what, std::vector<std::string> from) {
  return std::make_unique<DeleteResponse>(std::move(what), std::move(from));
}

ResponsePtr make_evict_lru(std::string from_tier, std::string to_tier) {
  ResponseList body;
  body.push_back(std::make_unique<MoveResponse>(
      Selector::oldest_in(from_tier), std::vector<std::string>{to_tier}));
  return std::make_unique<ConditionalResponse>(
      Condition::tier_cannot_fit(from_tier), std::move(body));
}

ResponsePtr make_evict_mru(std::string from_tier, std::string to_tier) {
  ResponseList body;
  body.push_back(std::make_unique<MoveResponse>(
      Selector::newest_in(from_tier), std::vector<std::string>{to_tier}));
  return std::make_unique<ConditionalResponse>(
      Condition::tier_cannot_fit(from_tier), std::move(body));
}

ResponsePtr make_grow(std::string tier, double percent,
                      Duration provisioning_delay, double remap_fraction) {
  return std::make_unique<GrowResponse>(std::move(tier), percent,
                                        provisioning_delay, remap_fraction);
}

}  // namespace tiera
