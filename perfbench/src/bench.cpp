#include "bench.h"

#include <pthread.h>
#include <sched.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/templates.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

class InstanceExecutor final : public Executor {
 public:
  explicit InstanceExecutor(tiera::TieraInstance& i) : instance_(i) {}
  tiera::Status put(const std::string& id, tiera::ByteView v) override {
    return instance_.put(id, v);
  }
  tiera::Result<tiera::Bytes> get(const std::string& id) override {
    return instance_.get(id);
  }

 private:
  tiera::TieraInstance& instance_;
};

}  // namespace

std::vector<std::unique_ptr<Executor>> instance_executors(
    tiera::TieraInstance& instance) {
  std::vector<std::unique_ptr<Executor>> out;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    out.push_back(std::make_unique<InstanceExecutor>(instance));
  }
  return out;
}

void Tally::merge(const Tally& o) {
  get_attempted += o.get_attempted;
  get_failed += o.get_failed;
  put_attempted += o.put_attempted;
  put_failed += o.put_failed;
  mismatches += o.mismatches;
  get_us.insert(get_us.end(), o.get_us.begin(), o.get_us.end());
  put_us.insert(put_us.end(), o.put_us.begin(), o.put_us.end());
}

namespace {

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void run_client(ClientStream& stream, Executor& exec,
                const PhaseLimits& limits, Clock::time_point deadline,
                Tally& tally) {
  std::vector<std::uint8_t> value(kValueBytes);
  std::uint64_t executed = 0;
  for (;;) {
    if (limits.ops_per_client > 0 && executed >= limits.ops_per_client) break;
    // The clock is read once per op anyway; check the deadline every 16.
    if (limits.seconds > 0 && (executed & 15) == 0 && Clock::now() >= deadline) {
      break;
    }
    const Op op = stream.next();
    if ((op.put && limits.filter == OpFilter::kGetsOnly) ||
        (!op.put && limits.filter == OpFilter::kPutsOnly)) {
      continue;
    }
    ++executed;
    const std::string id = object_id(op.key);
    if (op.put) {
      fill_value(op.key, op.version, value.data());
      const auto t0 = Clock::now();
      const tiera::Status s =
          exec.put(id, tiera::ByteView(value.data(), value.size()));
      const auto t1 = Clock::now();
      stream.put_done(op, s.ok());
      ++tally.put_attempted;
      if (!s.ok()) {
        ++tally.put_failed;
      } else if (limits.record) {
        tally.put_us.push_back(micros(t0, t1));
      }
    } else {
      const auto t0 = Clock::now();
      const tiera::Result<tiera::Bytes> r = exec.get(id);
      const auto t1 = Clock::now();
      ++tally.get_attempted;
      if (!r.ok()) {
        ++tally.get_failed;
        continue;
      }
      if (exec.holds_values()) {
        const auto version = decode_value(op.key, r->data(), r->size());
        if (!version || !stream.version_allowed(op.key, *version)) {
          ++tally.mismatches;
        }
      }
      if (limits.record) tally.get_us.push_back(micros(t0, t1));
    }
  }
}

}  // namespace

Tally run_phase(std::vector<ClientStream>& streams,
                std::vector<std::unique_ptr<Executor>>& executors,
                const PhaseLimits& limits) {
  std::vector<Tally> tallies(streams.size());
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limits.seconds));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back([&, i] {
      run_client(streams[i], *executors[i], limits, deadline, tallies[i]);
    });
  }
  for (auto& t : threads) t.join();
  Tally total;
  for (const auto& t : tallies) total.merge(t);
  return total;
}

std::vector<ClientStream> make_streams(const Workload& w, std::uint64_t seed) {
  std::vector<ClientStream> streams;
  for (std::uint32_t c = 0; c < kClients; ++c) streams.emplace_back(w, seed, c);
  return streams;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

tiera::Result<tiera::InstancePtr> make_instance(const Workload& w,
                                                const std::string& data_dir) {
  tiera::TemplateOptions opts;
  opts.data_dir = data_dir;
  opts.persist_metadata = true;
  opts.journal_sync = w.journal_sync;
  opts.track_heat = true;
  return tiera::make_memcached_ebs_instance(opts, w.mem_tier_bytes,
                                            w.file_tier_bytes);
}

bool preload(tiera::TieraInstance& instance, const Workload& w) {
  // One writer: extra writer threads made peak RSS vary by up to 20% from
  // run to run.
  bool ok = true;
  std::vector<std::uint8_t> value(kValueBytes);
  for (std::uint32_t key = 0; key < w.objects; ++key) {
    fill_value(key, 0, value.data());
    ok &= instance.put(object_id(key), tiera::ByteView(value)).ok();
  }
  instance.control().drain();
  return ok;
}

std::uint64_t counter(const std::string& name,
                      const tiera::MetricsRegistry::Labels& labels) {
  return tiera::MetricsRegistry::global().counter(name, labels).value();
}

HistSnap histogram(const std::string& name,
                   const tiera::MetricsRegistry::Labels& labels) {
  const auto& h = tiera::MetricsRegistry::global().histogram(name, labels);
  return {h.sum_ms(), h.count()};
}

namespace {

std::uint64_t proc_field(const char* path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtoull(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

IdleSpinners::IdleSpinners() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();  // spare a hyperthread sibling
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

double peak_rss_mb() {
  return static_cast<double>(proc_field("/proc/self/status", "VmHWM:")) /
         1024.0;
}

std::uint64_t bytes_written_by_process() {
  return proc_field("/proc/self/io", "wchar:");
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  return path;
}

}  // namespace perfbench
