// Runtime shared by the served run and the per-layer replays: a closed-loop
// phase runner with per-op latency capture and output checking, instance
// set-up, and small readers for the process-wide metrics registry.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/instance.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// One client's view of a layer: the PUT/GET surface every layer offers.
struct Executor {
  virtual ~Executor() = default;
  // False for layers that keep no values (the metadata store): their GETs
  // are checked for success only.
  virtual bool holds_values() const { return true; }
  virtual tiera::Status put(const std::string& id, tiera::ByteView value) = 0;
  virtual tiera::Result<tiera::Bytes> get(const std::string& id) = 0;
};

// kClients callers of one in-process TieraInstance.
std::vector<std::unique_ptr<Executor>> instance_executors(
    tiera::TieraInstance& instance);

// Op counts and latencies of one phase, per op type.
struct Tally {
  std::uint64_t get_attempted = 0, get_failed = 0;
  std::uint64_t put_attempted = 0, put_failed = 0;
  std::uint64_t mismatches = 0;  // GETs whose bytes the model rejects
  std::vector<double> get_us, put_us;

  void merge(const Tally& o);
  std::uint64_t attempted() const { return get_attempted + put_attempted; }
  std::uint64_t failed() const { return get_failed + put_failed; }
};

// Which ops of the stream a phase executes (the others are consumed and
// skipped, so the stream and its versions stay the same).
enum class OpFilter { kAll, kGetsOnly, kPutsOnly };

struct PhaseLimits {
  std::uint64_t ops_per_client = 0;  // stop after this many executed ops...
  double seconds = 0;                // ...or after this long (when > 0)
  bool record = true;                // keep per-op latencies
  OpFilter filter = OpFilter::kAll;
};

// Runs every stream on its own thread against its executor until the
// limits are hit; returns the merged tally.
Tally run_phase(std::vector<ClientStream>& streams,
                std::vector<std::unique_ptr<Executor>>& executors,
                const PhaseLimits& limits);

std::vector<ClientStream> make_streams(const Workload& w, std::uint64_t seed);

// Exact quantile (q in [0,1]) and mean of a sample; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

// The workload's instance on `data_dir`, tierad's telemetry defaults.
tiera::Result<tiera::InstancePtr> make_instance(const Workload& w,
                                                const std::string& data_dir);
// Writes version 0 of every key through TieraInstance::put, then drains
// the control layer. Returns false if any PUT failed.
bool preload(tiera::TieraInstance& instance, const Workload& w);

// --- process and registry readers ------------------------------------------
std::uint64_t counter(const std::string& name,
                      const tiera::MetricsRegistry::Labels& labels = {});
// Sum and count of a registry latency histogram, for means over deltas.
struct HistSnap {
  double sum_ms = 0;
  std::uint64_t count = 0;

  HistSnap operator-(const HistSnap& o) const {
    return {sum_ms - o.sum_ms, count - o.count};
  }
  HistSnap& operator+=(const HistSnap& o) {
    sum_ms += o.sum_ms;
    count += o.count;
    return *this;
  }
  double mean_ms() const {
    return count ? sum_ms / static_cast<double>(count) : 0.0;
  }
};
HistSnap histogram(const std::string& name,
                   const tiera::MetricsRegistry::Labels& labels = {});

// Keeps every CPU busy at SCHED_IDLE priority while alive. A vCPU with
// nothing to run halts, and waking it goes through the hypervisor; on a
// contended host that wake-up waits its turn, and a served request makes
// four thread hand-offs. On the shared 4-vCPU VM this put 20-25% steal on
// the halting vCPUs and raised read_hot's GET p50 by half, moving with the
// neighbours' load. A SCHED_IDLE thread runs only when nothing else is
// runnable and is preempted on every wake-up, so it keeps the vCPU from
// halting without taking time from the benchmark or the server.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

double peak_rss_mb();
std::uint64_t bytes_written_by_process();  // /proc/self/io wchar
std::uint64_t dir_bytes(const std::string& dir);
std::string fresh_dir(const std::string& path);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Per-layer replays on fresh structures (layers.cpp). Each returns its
// metrics and adds its ops to `tally`.
Metrics replay_metadb(const Workload& w, std::uint64_t seed, double seconds,
                      const std::string& dir, Tally& tally);
Metrics replay_mem_tier(const Workload& w, std::uint64_t seed, double seconds,
                        Tally& tally);
Metrics replay_file_tier(const Workload& w, std::uint64_t seed,
                         double seconds, const std::string& dir,
                         Tally& tally);

}  // namespace perfbench
