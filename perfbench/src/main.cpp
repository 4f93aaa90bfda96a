// Tiera end-to-end benchmark.
//
// Serves a real TieraServer over loopback and drives it with closed-loop
// RemoteTieraClient callers (one connection each), on one of two
// workloads (workload.h). Every GET is checked against the generator's
// per-key version model.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer metrics: the served run again with the
// in-server stage books recording every op, paired with untraced slices of
// the same run, then the same op stream replayed in-process on each layer's
// public API (TieraInstance, MetadataStore+MetaDb, MemTier, FileTier), so a
// layer's cost is the gap to the layer below. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/logging.h"
#include "net/tiera_service.h"
#include "obs/flight_recorder.h"
#include "obs/stage.h"

using namespace perfbench;

namespace {

// Reactor geometry pinned so results do not depend on the host's CPU count.
constexpr std::size_t kLoops = 2;
constexpr std::size_t kShards = 4;
// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;
constexpr long kTmpfsMagic = 0x01021994;  // statfs f_type of tmpfs
constexpr double kWindowSeconds = 0.5;  // see run_end_to_end
// The shipped default stage-sampling rate (TIERA_STAGE_SAMPLE_N).
constexpr std::uint64_t kDefaultStageSample = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir = ".bench_build/perfbench-data";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val);
    } else if (key == "--trace") {
      a.trace = std::atoi(val);
    } else if (key == "--data-dir") {
      a.data_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

class RpcExecutor final : public Executor {
 public:
  explicit RpcExecutor(std::unique_ptr<tiera::RemoteTieraClient> c)
      : client_(std::move(c)) {}
  tiera::Status put(const std::string& id, tiera::ByteView v) override {
    return client_->put(id, v);
  }
  tiera::Result<tiera::Bytes> get(const std::string& id) override {
    return client_->get(id);
  }

 private:
  std::unique_ptr<tiera::RemoteTieraClient> client_;
};

// A set-up instance being served on loopback.
struct Served {
  tiera::InstancePtr instance;
  std::unique_ptr<tiera::TieraServer> server;
};

bool set_up(const Workload& w, const std::string& dir, Served& out) {
  auto instance = make_instance(w, fresh_dir(dir));
  if (!instance.ok()) {
    std::fprintf(stderr, "instance: %s\n",
                 instance.status().to_string().c_str());
    return false;
  }
  out.instance = std::move(instance).value();
  if (!preload(*out.instance, w)) {
    std::fprintf(stderr, "preload: a PUT failed\n");
    return false;
  }
  tiera::ReactorOptions reactor;
  reactor.loops = kLoops;
  reactor.shards = kShards;
  out.server = std::make_unique<tiera::TieraServer>(*out.instance, 0, reactor);
  if (!out.server->start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return false;
  }
  return true;
}

void tear_down(Served& s) {
  if (s.server) s.server->stop();
  s.server.reset();
  s.instance.reset();
  // Hand freed arenas back to the OS, so a discarded set-up does not raise
  // the next one's footprint and peak_rss_mb stays one instance's peak.
  malloc_trim(0);
}

bool connect_clients(const Served& s,
                     std::vector<std::unique_ptr<Executor>>& out) {
  for (std::uint32_t c = 0; c < kClients; ++c) {
    auto client = tiera::RemoteTieraClient::connect("127.0.0.1",
                                                     s.server->port());
    if (!client.ok()) return false;
    out.push_back(std::make_unique<RpcExecutor>(std::move(client).value()));
  }
  return true;
}

void print_tally(const char* phase, const Tally& t) {
  std::printf("%-14s get: %llu attempted, %llu failed | "
              "put: %llu attempted, %llu failed | mismatches %llu\n",
              phase, static_cast<unsigned long long>(t.get_attempted),
              static_cast<unsigned long long>(t.get_failed),
              static_cast<unsigned long long>(t.put_attempted),
              static_cast<unsigned long long>(t.put_failed),
              static_cast<unsigned long long>(t.mismatches));
}

void print_windows(const char* name, const std::vector<double>& values) {
  std::printf("%-14s", name);
  for (double v : values) std::printf(" %.1f", v);
  std::printf("\n");
}

void print_result(const Tally& checked, const Metrics& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checked.mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checked.attempted());
  json += ", \"failed\": " + std::to_string(checked.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- end-to-end run (tracing off) -------------------------------------------

int run_end_to_end(const Workload& w, const Args& a) {
  const std::string dir = a.data_dir + "/" + w.name;
  std::vector<double> setup_s;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) tear_down(served);
    const auto t0 = Clock::now();
    if (!set_up(w, dir, served)) return 1;
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  std::vector<std::unique_ptr<Executor>> clients;
  if (!connect_clients(served, clients)) return 1;
  auto streams = make_streams(w, a.seed);
  Tally all = run_phase(streams, clients,
                        {.ops_per_client = w.warmup_ops, .record = false});
  // Footprints are read here, after set-up and the fixed warm-up, not at
  // the end: the served process's anonymous memory keeps growing with ops
  // (about 23 MB over 30 s of read_hot), so an end-of-run reading would
  // track how many ops the host's speed allowed in the timed phase.
  const double rss_mb = peak_rss_mb();
  const double disk_ratio =
      static_cast<double>(dir_bytes(dir)) /
      (static_cast<double>(w.objects) * static_cast<double>(kValueBytes));

  // Timed phase: back-to-back half-second windows. Each latency metric is
  // the median of the windows' medians, so a burst of host noise in one
  // window moves it little.
  const int windows =
      std::max(1, static_cast<int>(a.seconds / kWindowSeconds + 0.5));
  Tally timed;  // op counts only: samples are dropped once summarised
  std::vector<double> get_p50s, put_p50s;
  std::size_t gets = 0, puts = 0;
  for (int i = 0; i < windows; ++i) {
    Tally t = run_phase(streams, clients, {.seconds = kWindowSeconds});
    get_p50s.push_back(quantile(t.get_us, 0.5));
    put_p50s.push_back(quantile(t.put_us, 0.5));
    gets += t.get_us.size();
    puts += t.put_us.size();
    t.get_us = {};
    t.put_us = {};
    timed.merge(t);
  }
  clients.clear();
  tear_down(served);
  print_tally("warmup", all);
  print_tally("timed", timed);
  std::printf("windows        %d of %.1f s: %zu GET and %zu PUT samples\n",
              windows, kWindowSeconds, gets, puts);
  print_windows("get_p50_us", get_p50s);
  print_windows("put_p50_us", put_p50s);
  all.merge(timed);

  print_result(all, {
      {"get_p50_us", quantile(get_p50s, 0.5), "us"},
      {"put_p50_us", quantile(put_p50s, 0.5), "us"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"disk_bytes_per_live_byte", disk_ratio, "ratio"},
  });
  return 0;
}

// --- traced run (per-layer metrics) -----------------------------------------

// Registry counters read around the traced served phases.
struct ServedCounters {
  std::uint64_t gets = 0, get_misses = 0, tier1_hits = 0, fires = 0;
  std::uint64_t policy_bytes = 0, responses_failed = 0, shed = 0;
  std::uint64_t backpressure = 0;
  HistSnap responses_sojourn, shard_sojourn;
  std::map<std::string, std::pair<std::uint64_t, double>> stages;

  static ServedCounters read() {
    tiera::MetricsRegistry::global().collect();
    ServedCounters c;
    c.gets = counter("tiera_instance_gets_total");
    c.get_misses = counter("tiera_instance_get_misses_total");
    c.tier1_hits =
        counter("tiera_instance_tier_hits_total", {{"tier", "tier1"}});
    c.fires = counter("tiera_control_events_fired_total");
    c.policy_bytes = counter("tiera_instance_policy_bytes_total");
    c.responses_failed = counter("tiera_control_responses_failed_total");
    c.shed = counter("tiera_admission_shed_total");
    c.backpressure = counter("tiera_rpc_backpressure_pauses_total");
    c.responses_sojourn =
        histogram("tiera_pool_sojourn_ms", {{"pool", "tiera-responses"}});
    for (std::size_t i = 0; i < kShards; ++i) {
      c.shard_sojourn += histogram(
          "tiera_pool_sojourn_ms", {{"pool", "rpc-shard-" + std::to_string(i)}});
    }
    for (const auto& row : tiera::stage_breakdown()) {
      c.stages[row.op + "/" + row.stage] = {row.count, row.sum_ms};
    }
    return c;
  }

  // Accumulates (after - before) into *this.
  void add_delta(const ServedCounters& before, const ServedCounters& after) {
    gets += after.gets - before.gets;
    get_misses += after.get_misses - before.get_misses;
    tier1_hits += after.tier1_hits - before.tier1_hits;
    fires += after.fires - before.fires;
    policy_bytes += after.policy_bytes - before.policy_bytes;
    responses_failed += after.responses_failed - before.responses_failed;
    shed += after.shed - before.shed;
    backpressure += after.backpressure - before.backpressure;
    responses_sojourn += after.responses_sojourn - before.responses_sojourn;
    shard_sojourn += after.shard_sojourn - before.shard_sojourn;
    for (const auto& [key, v] : after.stages) {
      auto it = before.stages.find(key);
      const auto b = it == before.stages.end()
                         ? std::pair<std::uint64_t, double>{0, 0}
                         : it->second;
      auto& acc = stages[key];
      acc.first += v.first - b.first;
      acc.second += v.second - b.second;
    }
  }

  double stage_mean_us(const std::string& op, const std::string& stage) const {
    auto it = stages.find(op + "/" + stage);
    if (it == stages.end() || it->second.first == 0) return 0;
    return it->second.second * 1000.0 /
           static_cast<double>(it->second.first);
  }
};

// Journal counters read around the in-process TieraInstance batches.
struct JournalCounters {
  std::uint64_t records = 0, fsyncs = 0, compactions = 0;
  static JournalCounters read() {
    return {counter("tiera_metadb_group_commit_records_total"),
            counter("tiera_metadb_group_commit_fsyncs_total"),
            counter("tiera_metadb_compactions_total")};
  }
  JournalCounters operator-(const JournalCounters& o) const {
    return {records - o.records, fsyncs - o.fsyncs,
            compactions - o.compactions};
  }
};

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string metric_stage_name(const char* stage) {
  std::string s = stage;
  for (char& ch : s) {
    if (ch == '.') ch = '_';
  }
  return s;
}

int run_traced(const Workload& w, const Args& a) {
  const std::string dir = a.data_dir + "/" + w.name;
  Served served;
  if (!set_up(w, dir, served)) return 1;
  std::vector<std::unique_ptr<Executor>> clients;
  if (!connect_clients(served, clients)) return 1;
  auto streams = make_streams(w, a.seed);
  Tally checked = run_phase(streams, clients,
                            {.ops_per_client = w.warmup_ops, .record = false});

  // Served run: alternate untraced and traced slices (A B A B), so the
  // tracing overhead is a paired comparison within one run.
  const double slice = a.seconds * 0.125;
  Tally untraced, traced;
  ServedCounters served_delta;
  for (int round = 0; round < 2; ++round) {
    tiera::set_stage_sample_every(kDefaultStageSample);
    untraced.merge(run_phase(streams, clients, {.seconds = slice}));
    tiera::set_stage_sample_every(1);
    const ServedCounters before = ServedCounters::read();
    traced.merge(run_phase(streams, clients, {.seconds = slice}));
    served_delta.add_delta(before, ServedCounters::read());
  }
  clients.clear();
  served.server->stop();
  served.server.reset();

  // Core: the same streams, in-process on the served instance, with the
  // stage books still recording every op so core and net compare alike.
  tiera::set_stage_sample_every(1);
  tiera::TieraInstance& instance = *served.instance;
  auto direct = instance_executors(instance);
  const JournalCounters j0 = JournalCounters::read();
  const Tally core = run_phase(streams, direct, {.seconds = a.seconds * 0.15});
  const JournalCounters mixed = JournalCounters::read() - j0;
  const JournalCounters j1 = JournalCounters::read();
  const Tally core_gets = run_phase(
      streams, direct,
      {.seconds = a.seconds * 0.05, .record = false,
       .filter = OpFilter::kGetsOnly});
  const JournalCounters gets_only = JournalCounters::read() - j1;
  const JournalCounters j2 = JournalCounters::read();
  const Tally core_puts = run_phase(
      streams, direct,
      {.seconds = a.seconds * 0.05, .record = false,
       .filter = OpFilter::kPutsOnly});
  const JournalCounters puts_only = JournalCounters::read() - j2;
  instance.control().drain();
  double log_bytes_per_key = 0;
  if (tiera::MetaDb* db = instance.metadata().db()) {
    log_bytes_per_key = per(static_cast<double>(db->log_bytes()),
                            static_cast<double>(db->size()));
  }
  tiera::set_stage_sample_every(kDefaultStageSample);
  served.instance.reset();

  // Layers below the instance, each on fresh structures.
  Tally below;
  const Metrics metadb =
      replay_metadb(w, a.seed, a.seconds * 0.1, dir + "-metadb", below);
  const Metrics mem = replay_mem_tier(w, a.seed, a.seconds * 0.05, below);
  const Metrics file =
      replay_file_tier(w, a.seed, a.seconds * 0.1, dir + "-file", below);

  for (const Tally* t : std::initializer_list<const Tally*>{
           &untraced, &traced, &core, &core_gets, &core_puts}) {
    checked.merge(*t);
  }
  checked.merge(below);
  print_tally("untraced", untraced);
  print_tally("traced", traced);
  print_tally("core", core);
  print_tally("layers-below", below);

  const double net_get = quantile(traced.get_us, 0.5);
  const double net_put = quantile(traced.put_us, 0.5);
  const double core_get = quantile(core.get_us, 0.5);
  const double core_put = quantile(core.put_us, 0.5);
  const double untraced_get = quantile(untraced.get_us, 0.5);
  const ServedCounters& d = served_delta;
  const double served_ops = static_cast<double>(traced.attempted());

  Metrics m = {
      {"net.get_us", net_get, "us"},
      {"net.put_us", net_put, "us"},
      {"net.get_p99_us", quantile(traced.get_us, 0.99), "us"},
      {"net.put_p99_us", quantile(traced.put_us, 0.99), "us"},
      {"net.self_get_us", net_get - core_get, "us"},
      {"net.self_put_us", net_put - core_put, "us"},
      {"net.unbooked_get_us",
       mean(traced.get_us) - d.stage_mean_us("get", "total"), "us"},
      {"net.unbooked_put_us",
       mean(traced.put_us) - d.stage_mean_us("put", "total"), "us"},
      {"net.shard_sojourn_ms", d.shard_sojourn.mean_ms(), "ms"},
      {"net.backpressure_pauses", static_cast<double>(d.backpressure),
       "count"},
      {"core.get_us", core_get, "us"},
      {"core.put_us", core_put, "us"},
  };
  for (const char* op : {"get", "put", "background"}) {
    for (int s = 0; s < tiera::kStageSlotCount; ++s) {
      const char* stage = tiera::stage_name(static_cast<tiera::Stage>(s));
      m.push_back({"core.stage." + metric_stage_name(stage) + "." + op + "_us",
                   d.stage_mean_us(op, stage), "us"});
    }
  }
  m.insert(m.end(), {
      {"core.tier1_hit_ratio",
       per(static_cast<double>(d.tier1_hits), static_cast<double>(d.gets)),
       "ratio"},
      {"core.get_misses", static_cast<double>(d.get_misses), "count"},
      {"core.rule_fires_per_op", per(static_cast<double>(d.fires), served_ops),
       "1/op"},
      {"core.policy_bytes_per_op",
       per(static_cast<double>(d.policy_bytes), served_ops), "B/op"},
      {"core.responses_sojourn_ms", d.responses_sojourn.mean_ms(), "ms"},
      {"core.responses_failed", static_cast<double>(d.responses_failed),
       "count"},
      {"core.admission_shed", static_cast<double>(d.shed), "count"},
      {"metadb.records_per_get",
       per(static_cast<double>(gets_only.records),
           static_cast<double>(core_gets.get_attempted)),
       "1/op"},
      {"metadb.records_per_put",
       per(static_cast<double>(puts_only.records),
           static_cast<double>(core_puts.put_attempted)),
       "1/op"},
      {"metadb.fsyncs_per_put",
       per(static_cast<double>(puts_only.fsyncs),
           static_cast<double>(core_puts.put_attempted)),
       "1/op"},
      {"metadb.records_per_fsync",
       per(static_cast<double>(mixed.records),
           static_cast<double>(mixed.fsyncs)),
       "ratio"},
      {"metadb.compactions_per_kop",
       per(1000.0 * static_cast<double>(mixed.compactions),
           static_cast<double>(core.attempted())),
       "1/kop"},
      {"metadb.log_bytes_per_live_key", log_bytes_per_key, "B"},
  });
  for (const Metrics* layer : {&metadb, &mem, &file}) {
    m.insert(m.end(), layer->begin(), layer->end());
  }
  m.push_back({"obs.trace_overhead_get_pct",
               untraced_get > 0 ? 100.0 * (net_get - untraced_get) /
                                      untraced_get
                                : 0.0,
               "%"});
  print_result(checked, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <read_hot|write_durable> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--data-dir <dir>]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  tiera::set_log_level(tiera::LogLevel::kOff);
  tiera::set_time_scale(0.0);
  tiera::FlightRecorder::global().set_enabled(true);
  tiera::set_stage_sample_every(kDefaultStageSample);
  struct statfs fs {};
  const bool tmpfs = statfs(fresh_dir(args.data_dir).c_str(), &fs) == 0 &&
                     fs.f_type == kTmpfsMagic;
  std::printf("data_dir_fs    %s\n", tmpfs ? "tmpfs" : "not tmpfs");
  int rc = 0;
  {
    IdleSpinners spinners;
    rc = args.trace ? run_traced(*w, args) : run_end_to_end(*w, args);
  }
  fresh_dir(args.data_dir);
  return rc;
}
