// Policy building blocks: selectors ("what"), conditions, responses, rules.
//
// A Rule is one `event : response { ... }` pair from an instance
// specification. The control layer evaluates rule events and executes the
// attached responses, which act on objects chosen by Selectors.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/status.h"
#include "core/events.h"
#include "obs/metrics.h"

namespace tiera {

class TieraInstance;

// Context handed to responses when an event fires. For action events it
// names the object and (for inserts) carries the payload.
struct EventContext {
  TieraInstance* instance = nullptr;

  // Action-event fields.
  std::string object_id;
  std::shared_ptr<const Bytes> payload;  // insert payload (may be null)
  std::string action_tier;               // tier named by the action, if any

  // Set true by placement responses so PUT knows the object was stored.
  bool stored = false;
  // Tiers the object was stored into during this event (drives the second
  // matching pass for `insert.into == tierX` rules).
  std::vector<std::string> stored_tiers;
  // Incremented by any response that moved/added/removed bytes; the
  // conditional-loop executor uses it to detect progress.
  std::uint64_t mutations = 0;
  // Attribution totals the engine maintains while responses run: bytes
  // written into tiers and distinct objects mutated. The control layer
  // diffs them around each rule execution to feed that rule's
  // bytes-moved/objects-touched counters, and the instance mirrors them
  // into `tiera_instance_policy_*` so stats totals reconcile with per-tier
  // sums.
  std::uint64_t bytes_moved = 0;
  std::uint64_t objects_touched = 0;
  // The rule whose responses are currently executing (set by the control
  // layer right before the response loop). Engine ops use it to attribute
  // data-movement spend per rule in the CostMeter; 0 = no rule context
  // (e.g. the default-placement fallback).
  std::uint64_t rule_id = 0;
  std::string rule_name;
  // First error reported by a foreground placement/replication response.
  // PUT acknowledges only writes whose whole synchronous policy succeeded
  // (a write-through copy to a failed tier fails the PUT, as in Fig. 17).
  Status placement_error = Status::Ok();
  // Set by an overwriting PUT. The first store of its payload clears it and
  // drops every location it did not write (they hold the previous bytes).
  // Shared, so background copies of this context clear it only once.
  std::shared_ptr<std::atomic<bool>> overwrite_pending;
};

// --- Selectors ---------------------------------------------------------------

// Describes which objects a response acts on. Mirrors the "what:" argument
// forms appearing in the paper's specs:
//   insert.object                       -> kActionObject
//   object.location == tierX [&& ...]   -> kFilter with in_tier
//   tierX.oldest / tierX.newest         -> kOldest / kNewest
//   "literal-id"                        -> kById
struct Selector {
  enum class Pick { kActionObject, kById, kOldest, kNewest, kFilter };

  Pick pick = Pick::kFilter;
  std::string id;                        // kById
  std::string tier;                      // kOldest/kNewest; kFilter location
  std::optional<bool> dirty;             // kFilter: object.dirty == ...
  std::optional<std::string> tag;        // kFilter: object.tag == ...

  static Selector action_object() {
    Selector s;
    s.pick = Pick::kActionObject;
    return s;
  }
  static Selector by_id(std::string object_id) {
    Selector s;
    s.pick = Pick::kById;
    s.id = std::move(object_id);
    return s;
  }
  static Selector oldest_in(std::string tier) {
    Selector s;
    s.pick = Pick::kOldest;
    s.tier = std::move(tier);
    return s;
  }
  static Selector newest_in(std::string tier) {
    Selector s;
    s.pick = Pick::kNewest;
    s.tier = std::move(tier);
    return s;
  }
  static Selector in_tier(std::string tier,
                          std::optional<bool> dirty = std::nullopt,
                          std::optional<std::string> tag = std::nullopt) {
    Selector s;
    s.pick = Pick::kFilter;
    s.tier = std::move(tier);
    s.dirty = dirty;
    s.tag = std::move(tag);
    return s;
  }
  static Selector all() { return Selector{}; }
  static Selector with_tag(std::string tag) {
    Selector s;
    s.tag = std::move(tag);
    return s;
  }

  // Resolve to object ids in the context of a firing event.
  std::vector<std::string> resolve(EventContext& ctx) const;
  std::string describe() const;
};

// --- Conditions --------------------------------------------------------------

// Guard for conditional responses (`if (tier1.filled) { ... }` in Fig. 5).
struct Condition {
  enum class Kind {
    kAlways,
    // Tier cannot fit the insert payload (or is at/over the fraction when no
    // payload is in context). This is what `tierX.filled` means inside an
    // insert-event response.
    kTierCannotFit,
    kTierFillAtLeast,   // fill fraction >= threshold
    kTierUsedAtLeast,   // used bytes   >= threshold
  };

  Kind kind = Kind::kAlways;
  std::string tier;
  double threshold = 1.0;

  static Condition always() { return {}; }
  static Condition tier_cannot_fit(std::string tier) {
    return {Kind::kTierCannotFit, std::move(tier), 1.0};
  }
  static Condition tier_fill_at_least(std::string tier, double fraction) {
    return {Kind::kTierFillAtLeast, std::move(tier), fraction};
  }
  static Condition tier_used_at_least(std::string tier, double bytes) {
    return {Kind::kTierUsedAtLeast, std::move(tier), bytes};
  }

  bool evaluate(const EventContext& ctx) const;
  std::string describe() const;
};

// --- Responses ---------------------------------------------------------------

class Response {
 public:
  virtual ~Response() = default;
  virtual Status execute(EventContext& ctx) = 0;
  virtual std::string describe() const = 0;
  // True when the response tests whether an object fits a tier and acts on
  // the answer (the make-room idiom); see Rule::checks_fit.
  virtual bool checks_fit() const { return false; }
};

using ResponsePtr = std::unique_ptr<Response>;
using ResponseList = std::vector<ResponsePtr>;

// --- Rules -------------------------------------------------------------------

// Per-rule attribution, registered in the global MetricsRegistry under
// `tiera_rule_*{rule="<id>",name="<name>"}` when the control layer assigns
// the rule its id. The registry owns the series; this struct caches the
// pointers (hot path: one atomic per update) and keeps the last error text
// for the `top` view.
struct RuleStats {
  Counter* fires = nullptr;
  Counter* errors = nullptr;
  Counter* bytes_moved = nullptr;
  Counter* objects_touched = nullptr;
  LatencyHistogram* latency = nullptr;

  void record_error(std::string_view message) {
    std::lock_guard lock(mu_);
    last_error_.assign(message);
  }
  std::string last_error() const {
    std::lock_guard lock(mu_);
    return last_error_;
  }

 private:
  mutable std::mutex mu_;
  std::string last_error_;
};

struct Rule {
  std::uint64_t id = 0;  // assigned by the control layer
  std::string name;      // optional human label
  EventDef event;
  ResponseList responses;
  // Some response checks tier fit (set by ControlLayer::add_rule). The
  // control layer passes such rules through its fit gate, and when another
  // rule fills the room one's eviction freed before its store lands (the
  // store fails with CapacityExceeded), runs it again from the top.
  bool checks_fit = false;

  // Runtime state for threshold rules: armed means the threshold may fire on
  // the next crossing. (Edge-triggered semantics.)
  std::shared_ptr<std::atomic<bool>> armed =
      std::make_shared<std::atomic<bool>>(true);
  // Runtime state for timer rules: next wall-clock deadline.
  std::shared_ptr<std::atomic<std::int64_t>> next_deadline_ns =
      std::make_shared<std::atomic<std::int64_t>>(0);
  // Runtime threshold value (advances for sliding thresholds).
  std::shared_ptr<std::atomic<double>> threshold_state =
      std::make_shared<std::atomic<double>>(0);
  // Attribution series; populated by ControlLayer::add_rule.
  std::shared_ptr<RuleStats> stats;
};

}  // namespace tiera
