// Exit-path table: every PUT/GET/DELETE exit reaches each per-op sink
// (InstanceStats, latency histograms, the SLO engine, the request tracer and
// the flight recorder) exactly as the table in DESIGN.md §6 says. Each row
// forces one exit on a fresh instance and asserts the exact delta of every
// column. The PUT whose metadata record fails to commit needs a journal
// that fails, so it has its own forked test below the table.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <functional>
#include <ostream>
#include <string>

#include "core/instance.h"
#include "core/responses.h"
#include "obs/flight_recorder.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

constexpr const char* kObject = "obj";
constexpr const char* kSlo = "errors";

// Every column of the table, read at one instant.
struct Columns {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t removes = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t failures = 0;
  std::uint64_t ops = 0;
  std::uint64_t put_hist = 0;
  std::uint64_t get_hist = 0;
  std::uint64_t delete_hist = 0;
  std::uint64_t slo_samples = 0;
};

enum class Verb { kPut, kGet, kDelete };

struct Row {
  const char* name;
  // Prepares the instance (stores the object, breaks a tier, ...). May
  // replace the instance through `reopen`.
  std::function<void(TieraInstance&, const std::function<TieraInstance&()>&)>
      setup;
  Verb verb;
  const char* id;  // object the op under test addresses
  StatusCode code;
  Columns delta;
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class OpRecordTest : public ::testing::TestWithParam<Row> {
 protected:
  TieraInstance& open() {
    instance_.reset();
    InstanceConfig config;
    config.name = "oprec";
    config.data_dir = dir_.sub("inst");
    config.tiers = {{"EBS", "tier1", 1 << 20}, {"EBS", "tier2", 1 << 20}};
    config.persist_metadata = true;
    config.trace_requests = true;
    auto created = TieraInstance::create(std::move(config));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    instance_ = std::move(created).value();
    SloSpec slo;
    slo.name = kSlo;
    slo.signal = SloSignal::kErrorRate;
    slo.target_fraction = 0.5;
    EXPECT_TRUE(instance_->add_slo(slo).ok());
    return *instance_;
  }

  Columns read() {
    InstanceStats& s = instance_->stats();
    Columns c;
    c.puts = s.puts.load();
    c.gets = s.gets.load();
    c.removes = s.removes.load();
    c.get_misses = s.get_misses.load();
    c.failures = s.failures.load();
    c.ops = s.ops.total();
    c.put_hist = s.put_latency.count();
    c.get_hist = s.get_latency.count();
    c.delete_hist = s.delete_latency.count();
    for (const SloStatus& status : instance_->slo().status()) {
      if (status.name == kSlo) c.slo_samples = status.samples;
    }
    return c;
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
  InstancePtr instance_;
};

void store_object(TieraInstance& instance) {
  ASSERT_TRUE(instance.put(kObject, as_view(make_payload(512, 1))).ok());
}

// Replaces the object's at-rest bytes in tier1 behind the instance's back.
void clobber_at_rest(TieraInstance& instance) {
  const auto meta = instance.stat(kObject);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(instance.tier("tier1")
                  ->put(meta->storage_key(), as_view(make_payload(64, 9)))
                  .ok());
}

void fail_stop(TieraInstance& instance, const char* label) {
  instance.tier(label)->inject_failure(FailureMode::kFailStop);
}

const Row kRows[] = {
    {"PutNoTierAccepts",
     [](TieraInstance& in, auto&) { fail_stop(in, "tier1"); },
     Verb::kPut, kObject, StatusCode::kUnavailable,
     {.puts = 1, .failures = 1, .ops = 1, .put_hist = 1, .slo_samples = 1}},
    {"PutReplicaOnFailedTier",
     [](TieraInstance& in, auto&) {
       Rule rule;
       rule.event = EventDef::on_insert();
       rule.responses.push_back(
           make_store(Selector::action_object(), {"tier1"}));
       rule.responses.push_back(
           make_store(Selector::action_object(), {"tier2"}));
       in.add_rule(std::move(rule));
       fail_stop(in, "tier2");
     },
     Verb::kPut, kObject, StatusCode::kUnavailable,
     {.puts = 1, .failures = 1, .ops = 1, .put_hist = 1, .slo_samples = 1}},
    {"GetOk", [](TieraInstance& in, auto&) { store_object(in); }, Verb::kGet,
     kObject, StatusCode::kOk,
     {.gets = 1, .ops = 1, .get_hist = 1, .slo_samples = 1}},
    {"GetNotFound", [](TieraInstance&, auto&) {}, Verb::kGet, "ghost",
     StatusCode::kNotFound, {.get_misses = 1}},
    {"GetTierFailed",
     [](TieraInstance& in, auto&) {
       store_object(in);
       fail_stop(in, "tier1");
     },
     Verb::kGet, kObject, StatusCode::kUnavailable,
     {.failures = 1, .slo_samples = 1}},
    // A restart forgets the registered key; the metadata still says the
    // at-rest bytes are encrypted.
    {"GetEncryptedNoKey",
     [](TieraInstance& in, auto& reopen) {
       store_object(in);
       ASSERT_TRUE(in.engine_encrypt({kObject}, derive_key("k")).ok());
       reopen();
     },
     Verb::kGet, kObject, StatusCode::kCorruption,
     {.failures = 1, .slo_samples = 1}},
    {"GetEncryptedCorrupt",
     [](TieraInstance& in, auto&) {
       store_object(in);
       ASSERT_TRUE(in.engine_encrypt({kObject}, derive_key("k")).ok());
       clobber_at_rest(in);
     },
     Verb::kGet, kObject, StatusCode::kCorruption,
     {.failures = 1, .slo_samples = 1}},
    {"GetCompressedCorrupt",
     [](TieraInstance& in, auto&) {
       store_object(in);
       ASSERT_TRUE(in.engine_compress({kObject}).ok());
       clobber_at_rest(in);
     },
     Verb::kGet, kObject, StatusCode::kCorruption,
     {.failures = 1, .slo_samples = 1}},
    {"DeleteOk", [](TieraInstance& in, auto&) { store_object(in); },
     Verb::kDelete, kObject, StatusCode::kOk,
     {.removes = 1, .ops = 1, .delete_hist = 1}},
    {"DeleteNotFound", [](TieraInstance&, auto&) {}, Verb::kDelete, "ghost",
     StatusCode::kNotFound, {}},
    {"DeleteEngineError",
     [](TieraInstance& in, auto&) {
       store_object(in);
       fail_stop(in, "tier1");
     },
     Verb::kDelete, kObject, StatusCode::kUnavailable, {.failures = 1}},
};

TEST_P(OpRecordTest, EveryColumnMovesOnceAsTheTableSays) {
  const Row& row = GetParam();
  TieraInstance* instance = &open();
  const std::function<TieraInstance&()> reopen = [&]() -> TieraInstance& {
    instance = &open();
    return *instance;
  };
  row.setup(*instance, reopen);
  if (HasFatalFailure()) return;

  const Columns before = read();
  const std::uint64_t spans_before = instance->tracer().total_recorded();
  // Flight labels keep 23 characters; row names are unique well before.
  const std::string tenant = std::string(row.name).substr(0, 23);
  set_flight_tenant(tenant);
  StatusCode code = StatusCode::kOk;
  TraceOp trace_op = TraceOp::kPut;
  FlightOp flight_op = FlightOp::kPut;
  switch (row.verb) {
    case Verb::kPut:
      code = instance->put(row.id, as_view(make_payload(512, 2))).code();
      break;
    case Verb::kGet:
      code = instance->get(row.id).status().code();
      trace_op = TraceOp::kGet;
      flight_op = FlightOp::kGet;
      break;
    case Verb::kDelete:
      code = instance->remove(row.id).code();
      trace_op = TraceOp::kDelete;
      flight_op = FlightOp::kDelete;
      break;
  }
  set_flight_tenant({});
  ASSERT_EQ(code, row.code);

  const Columns after = read();
  EXPECT_EQ(after.puts - before.puts, row.delta.puts);
  EXPECT_EQ(after.gets - before.gets, row.delta.gets);
  EXPECT_EQ(after.removes - before.removes, row.delta.removes);
  EXPECT_EQ(after.get_misses - before.get_misses, row.delta.get_misses);
  EXPECT_EQ(after.failures - before.failures, row.delta.failures);
  EXPECT_EQ(after.ops - before.ops, row.delta.ops);
  EXPECT_EQ(after.put_hist - before.put_hist, row.delta.put_hist);
  EXPECT_EQ(after.get_hist - before.get_hist, row.delta.get_hist);
  EXPECT_EQ(after.delete_hist - before.delete_hist, row.delta.delete_hist);
  EXPECT_EQ(after.slo_samples - before.slo_samples, row.delta.slo_samples);

  // Rules the op fires add their own event/response spans; the request
  // itself is the one root span of its verb, recorded last.
  const std::uint64_t new_spans =
      instance->tracer().total_recorded() - spans_before;
  const auto spans = instance->tracer().snapshot(new_spans);
  int root_spans = 0;
  for (const auto& span : spans) {
    if (span.op == TraceOp::kPut || span.op == TraceOp::kGet ||
        span.op == TraceOp::kDelete) {
      ++root_spans;
    }
  }
  EXPECT_EQ(root_spans, 1);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().op, trace_op);
  EXPECT_STREQ(spans.back().object_id, row.id);
  EXPECT_EQ(spans.back().ok, row.code == StatusCode::kOk);

  int flight_ops = 0;
  for (const FlightEvent& ev : FlightRecorder::global().merged()) {
    if (ev.kind != FlightKind::kOp || tenant != ev.label) continue;
    ++flight_ops;
    EXPECT_EQ(ev.verb, static_cast<std::uint8_t>(flight_op));
    EXPECT_EQ(ev.status, static_cast<std::uint8_t>(row.code));
  }
  EXPECT_EQ(flight_ops, 1);
}

INSTANTIATE_TEST_SUITE_P(Exits, OpRecordTest, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

// A PUT whose one metadata record fails to commit takes the PUT failure
// row: it returns non-OK and counts in `failures`. Runs in a child so the
// file-size limit that fails the journal write (EFBIG) stays out of the
// test process; the tier is in memory, so only the journal hits the limit.
TEST(OpRecordJournalTest, PutFailsWhenItsMetadataRecordFailsToCommit) {
  TempDir dir;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    set_time_scale(0.0);
    InstanceConfig config;
    config.name = "oprec-journal";
    config.data_dir = dir.sub("inst");
    config.tiers = {{"Memcached", "tier1", 1 << 20}};
    config.persist_metadata = true;
    config.journal_sync = true;
    auto created = TieraInstance::create(std::move(config));
    if (!created.ok()) _exit(1);
    TieraInstance& in = **created;
    if (!in.put(kObject, as_view(make_payload(512, 1))).ok()) _exit(2);
    rlimit limit{};
    if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    const rlimit capped{.rlim_cur = in.metadata().db()->log_bytes(),
                        .rlim_max = limit.rlim_max};
    if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) _exit(3);
    const std::uint64_t failures = in.stats().failures.load();
    const std::uint64_t puts = in.stats().puts.load();
    if (in.put("new", as_view(make_payload(512, 2))).ok()) _exit(4);
    if (in.put(kObject, as_view(make_payload(512, 3))).ok()) _exit(5);
    if (in.stats().failures.load() != failures + 2) _exit(6);
    if (in.stats().puts.load() != puts + 2) _exit(7);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace tiera
