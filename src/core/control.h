// ControlLayer: evaluates events and dispatches responses (§2.2, §3).
//
// Implementation mirrors the paper's prototype: a dedicated thread examines
// timer events; threshold events are evaluated when mutations touch the
// attributes they watch; action events fire in the thread servicing the
// client request. Foreground responses run inline (they gate the request);
// background responses are handed to the response thread pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"

namespace tiera {

class TieraInstance;

class ControlLayer {
 public:
  ControlLayer(TieraInstance& instance, std::size_t response_threads,
               Duration timer_tick);
  ~ControlLayer();

  ControlLayer(const ControlLayer&) = delete;
  ControlLayer& operator=(const ControlLayer&) = delete;

  void start();
  void stop();

  // --- Rule management (dynamic: usable while serving) ----------------------
  std::uint64_t add_rule(Rule rule);
  Status remove_rule(std::uint64_t rule_id);
  void clear_rules();
  std::size_t rule_count() const;
  // True while some foreground rule fires on GET: such a rule can write,
  // so a GET may then wait on the journal (TieraInstance::reads_may_wait).
  bool has_foreground_get_rules() const {
    return foreground_get_rules_.load(std::memory_order_relaxed) > 0;
  }

  // --- Event entry points ----------------------------------------------------
  // Which action rules a dispatch pass considers. PUT runs two passes:
  // unfiltered rules first (placement logic), then tier-filtered rules for
  // the tiers the object actually landed in.
  enum class MatchScope { kUnfilteredOnly, kFilteredOnly, kBoth };

  void on_action(ActionType action, EventContext& ctx,
                 const std::vector<std::string>& tiers_touched,
                 MatchScope scope = MatchScope::kBoth);

  // Re-evaluate all threshold rules (call after any mutation).
  void evaluate_thresholds();

  // Ask the timer thread to run evaluate_thresholds() on its next tick.
  // Safe from any context — in particular from a circuit breaker changing
  // state inside a tier op that a response is running while holding an
  // object stripe, where evaluating (and firing rules) inline could
  // deadlock.
  void request_threshold_evaluation();

  // Wait until queued background responses have drained (tests/benches).
  void drain();

  std::uint64_t events_fired() const { return events_fired_.load(); }
  std::uint64_t responses_failed() const { return responses_failed_.load(); }

  // Point-in-time per-rule attribution, for the `top` view and kStats.
  struct RuleActivity {
    std::uint64_t id = 0;
    std::string name;
    std::string event;  // EventDef::describe()
    std::uint64_t fires = 0;
    std::uint64_t errors = 0;
    std::uint64_t bytes_moved = 0;
    std::uint64_t objects_touched = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    std::string last_error;
  };
  std::vector<RuleActivity> rule_activity() const;

  // Watchdog probes: monotonic tick counter for the timer loop, and the
  // response pool whose completed()/queue_depth() the watchdog samples.
  std::uint64_t timer_ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }
  bool timer_running() const {
    return running_.load(std::memory_order_relaxed);
  }
  ThreadPool& pool() { return response_pool_; }

 private:
  void execute_rule(const std::shared_ptr<Rule>& rule, EventContext ctx);
  void run_responses(const std::shared_ptr<Rule>& rule, EventContext& ctx);
  // How many times run_responses runs a Rule::checks_fit rule whose room
  // was taken before it could fill it. The last attempt runs exclusively.
  static constexpr int kFitAttempts = 4;

  // Orders Rule::checks_fit rules. Foreground and background rules never
  // run at the same time; rules of one side run alongside each other. A
  // rule that keeps losing its room re-runs exclusively, alone. Foreground
  // rules go before background ones, and an exclusive entry before both.
  // A thread already inside passes straight through (a rule may fire
  // another inline), so it never waits on itself.
  class FitGate {
   public:
    enum class Side { kForeground, kBackground, kExclusive };
    void enter(Side side);
    void leave(Side side);
    // True when the calling thread holds exactly one pass, so it can trade
    // it for an exclusive one without waiting on itself.
    static bool outermost();

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    int foreground_ = 0;
    int background_ = 0;
    bool exclusive_ = false;
    int foreground_waiting_ = 0;
    int exclusive_waiting_ = 0;
  };

  void timer_loop();
  // Recounts foreground GET rules after rules_ changed (rules_mu_ held).
  void count_foreground_get_rules_locked();
  bool action_rule_matches(const Rule& rule, ActionType action,
                           const EventContext& ctx,
                           std::string_view tier) const;

  TieraInstance& instance_;
  ThreadPool response_pool_;
  // Declared after the pool it watches so it is destroyed first.
  PoolMetrics response_pool_metrics_{response_pool_};
  const Duration timer_tick_;

  mutable std::shared_mutex rules_mu_;
  std::vector<std::shared_ptr<Rule>> rules_;
  std::atomic<std::size_t> foreground_get_rules_{0};
  FitGate fit_gate_;
  std::atomic<std::uint64_t> next_rule_id_{1};

  std::atomic<bool> running_{false};
  std::atomic<bool> thresholds_requested_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::thread timer_thread_;

  std::atomic<std::uint64_t> events_fired_{0};
  std::atomic<std::uint64_t> responses_failed_{0};

  // Registry series (`tiera_control_*`): queue depth / in-flight responses
  // gauges, event + failure counters, response execution latency.
  struct Metrics {
    Counter* events_fired;
    Counter* responses_failed;
    Counter* rules_evaluated;
    Gauge* queue_depth;
    Gauge* pool_active_workers;
    Gauge* active_responses;
    Gauge* rules;
    LatencyHistogram* response_latency;
  };
  Metrics metrics_;
};

}  // namespace tiera
