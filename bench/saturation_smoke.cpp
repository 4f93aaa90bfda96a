// CI saturation gate for the event-driven request core.
//
// Drives a mixed PUT/GET load end-to-end (RemoteTieraClient -> epoll
// reactor -> per-core shards for the synced PUTs, the loop itself for the
// GETs -> instance -> group-committed journal) from
// 1, 4 and then 8 client threads, each on its own connection, with
// journal_sync on so every acknowledged write rides a group-commit fsync.
// Asserts:
//   - zero request errors at both concurrency levels (hard)
//   - fsyncs stay well below one per record: fsyncs * 4 < records (hard)
//   - the journal logs at most one record per acknowledged PUT, so none
//     for GETs: records <= PUTs in the 8-thread phase (hard)
//   - 4-thread QPS does not collapse below half of 1-thread QPS (hard)
//   - 4-thread QPS >= 3x 1-thread QPS -- only when TIERA_SATURATION_STRICT=1
//     (the scaling gate needs real cores; CI containers often pin us to one)
// Writes a small report to the path given on the command line so CI can
// upload it as an artifact.
//
//   $ ./saturation_smoke [saturation_report.txt]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/responses.h"
#include "core/templates.h"
#include "net/tiera_service.h"
#include "obs/metrics.h"

using namespace tiera;

namespace {

constexpr auto kRunTime = std::chrono::milliseconds(1200);

std::uint64_t counter_value(const char* name) {
  return MetricsRegistry::global().counter(name).value();
}

// Runs `threads` client workers against the server for kRunTime and
// returns aggregate QPS; `puts` receives the number of acknowledged PUTs.
// Each worker owns one connection and a private keyspace, so scaling is
// limited by the server, not by client locking.
double run_load(std::uint16_t port, int threads,
                std::atomic<std::uint64_t>& errors, std::uint64_t* puts) {
  std::atomic<std::uint64_t> acked_puts{0};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  const Bytes payload = make_payload(4096, 3);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto client = RemoteTieraClient::connect("127.0.0.1", port);
      if (!client.ok()) {
        errors.fetch_add(1);
        return;
      }
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const auto deadline = std::chrono::steady_clock::now() + kRunTime;
      std::uint64_t i = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string key =
            "s" + std::to_string(t) + "-" + std::to_string(i % 256);
        if (!(*client)->put(key, as_view(payload)).ok()) {
          errors.fetch_add(1);
          break;
        }
        acked_puts.fetch_add(1);
        if (!(*client)->get(key).ok()) {
          errors.fetch_add(1);
          break;
        }
        ops.fetch_add(2);
        ++i;
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  *puts = acked_puts.load();
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start);
  return static_cast<double>(ops.load()) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  set_time_scale(0.0);
  const char* report_path = argc > 1 ? argv[1] : "saturation_report.txt";

  auto instance = make_memcached_ebs_instance(
      {.data_dir = bench::scratch_dir("saturation-smoke"),
       .persist_metadata = true,
       .journal_sync = true,
       .track_heat = false},
      1ull << 30, 1ull << 30);
  if (!instance.ok()) {
    std::fprintf(stderr, "FAIL: instance creation: %s\n",
                 instance.status().to_string().c_str());
    return 1;
  }
  // Pin the geometry rather than inheriting hardware_concurrency: a 1-CPU
  // CI container would otherwise get one shard, serializing every request
  // and making fsync coalescing structurally impossible. fsync waits are
  // I/O, not CPU, so four shards overlap their journal appends even on one
  // core -- which is exactly what the coalescing gate measures.
  ReactorOptions reactor;
  reactor.loops = 2;
  reactor.shards = 8;
  TieraServer server(**instance, 0, reactor);
  if (!server.start().ok()) {
    std::fprintf(stderr, "FAIL: server start\n");
    return 1;
  }
  const std::size_t loops = server.loop_count();
  const std::size_t shards = server.shard_count();

  std::atomic<std::uint64_t> errors{0};
  std::uint64_t puts = 0;
  const double qps1 = run_load(server.port(), 1, errors, &puts);

  const double qps4 = run_load(server.port(), 4, errors, &puts);

  // The coalescing gate is judged on a genuinely saturated phase: with N
  // concurrent committers the best possible records/fsync ratio is ~N (one
  // record per writer per batch), so 4 writers top out right at the gate.
  // Eight writers leave headroom; a serial client commits alone by
  // definition and would only dilute the ratio.
  const std::uint64_t records0 =
      counter_value("tiera_metadb_group_commit_records_total");
  const std::uint64_t fsyncs0 =
      counter_value("tiera_metadb_group_commit_fsyncs_total");
  const std::uint64_t requests0 = counter_value("tiera_rpc_requests_total");
  const std::uint64_t inline0 =
      counter_value("tiera_rpc_inline_requests_total");
  const double qps8 = run_load(server.port(), 8, errors, &puts);
  const std::uint64_t records =
      counter_value("tiera_metadb_group_commit_records_total") - records0;
  const std::uint64_t fsyncs =
      counter_value("tiera_metadb_group_commit_fsyncs_total") - fsyncs0;
  // Routing split of the same phase: requests a loop ran to completion
  // (GETs: nothing in them waits on the synced journal) against those
  // handed to a shard (the synced PUTs).
  const std::uint64_t inlined =
      counter_value("tiera_rpc_inline_requests_total") - inline0;
  const std::uint64_t offloaded =
      counter_value("tiera_rpc_requests_total") - requests0 - inlined;
  server.stop();

  const bool strict = []() {
    const char* env = std::getenv("TIERA_SATURATION_STRICT");
    return env != nullptr && env[0] == '1';
  }();

  bool ok = true;
  if (errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu request errors\n",
                 static_cast<unsigned long long>(errors.load()));
    ok = false;
  }
  if (records == 0 || fsyncs == 0) {
    std::fprintf(stderr, "FAIL: journal idle (records=%llu fsyncs=%llu); "
                         "journal_sync load did not reach the group "
                         "committer\n",
                 static_cast<unsigned long long>(records),
                 static_cast<unsigned long long>(fsyncs));
    ok = false;
  } else if (fsyncs * 4 >= records) {
    std::fprintf(stderr, "FAIL: group commit not coalescing: fsyncs=%llu "
                         "records=%llu (gate: fsyncs*4 < records)\n",
                 static_cast<unsigned long long>(fsyncs),
                 static_cast<unsigned long long>(records));
    ok = false;
  }
  if (records > puts) {
    std::fprintf(stderr, "FAIL: journal logs more than one record per PUT: "
                         "records=%llu puts=%llu (gate: records <= puts)\n",
                 static_cast<unsigned long long>(records),
                 static_cast<unsigned long long>(puts));
    ok = false;
  }
  if (qps4 < 0.5 * qps1) {
    std::fprintf(stderr, "FAIL: throughput collapses under concurrency "
                         "(qps1=%.0f qps4=%.0f)\n", qps1, qps4);
    ok = false;
  }
  if (strict && qps4 < 3.0 * qps1) {
    std::fprintf(stderr, "FAIL (strict): qps4=%.0f < 3x qps1=%.0f\n",
                 qps4, qps1);
    ok = false;
  }

  std::string report;
  report += "saturation_smoke\n";
  report += "loops: " + std::to_string(loops) + "\n";
  report += "shards: " + std::to_string(shards) + "\n";
  report += "qps_threads_1: " + std::to_string(qps1) + "\n";
  report += "qps_threads_4: " + std::to_string(qps4) + "\n";
  report += "qps_threads_8: " + std::to_string(qps8) + "\n";
  report += "journal_records: " + std::to_string(records) + "\n";
  report += "journal_fsyncs: " + std::to_string(fsyncs) + "\n";
  report += "acked_puts: " + std::to_string(puts) + "\n";
  report += "inline_requests: " + std::to_string(inlined) + "\n";
  report += "offloaded_requests: " + std::to_string(offloaded) + "\n";
  report += "records_per_put: " +
            std::to_string(puts ? static_cast<double>(records) /
                                      static_cast<double>(puts)
                                : 0.0) + "\n";
  report += "records_per_fsync: " +
            std::to_string(fsyncs ? static_cast<double>(records) /
                                        static_cast<double>(fsyncs)
                                  : 0.0) + "\n";
  report += std::string("strict_scaling_gate: ") +
            (strict ? "enforced" : "skipped (TIERA_SATURATION_STRICT!=1)") +
            "\n";
  report += std::string("result: ") + (ok ? "PASS" : "FAIL") + "\n";
  std::fputs(report.c_str(), stdout);
  if (std::FILE* f = std::fopen(report_path, "w")) {
    std::fwrite(report.data(), 1, report.size(), f);
    std::fclose(f);
  }

  std::printf("%s\n", ok ? "SATURATION-SMOKE PASS" : "SATURATION-SMOKE FAIL");
  return ok ? 0 : 1;
}
