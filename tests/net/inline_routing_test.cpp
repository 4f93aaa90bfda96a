// Which thread serves a Tiera request: data verbs that cannot wait run to
// completion on the event loop that decoded them; verbs that can wait (a
// synced journal's fsync, a modelled tier delay) go to a shard, and a
// connection's requests never overtake each other.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/profile_stack.h"
#include "core/instance.h"
#include "net/async_client.h"
#include "net/tiera_service.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

// A foreground response that records the name of the thread it ran on.
class ThreadProbe : public Response {
 public:
  explicit ThreadProbe(std::string* last, std::mutex* mu)
      : last_(last), mu_(mu) {}
  Status execute(EventContext&) override {
    const char* name = this_thread_profile_stack().name();
    std::lock_guard lock(*mu_);
    *last_ = name != nullptr ? name : "";
    return Status::Ok();
  }
  std::string describe() const override { return "thread-probe"; }

 private:
  std::string* last_;
  std::mutex* mu_;
};

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::uint64_t inline_requests() {
  return MetricsRegistry::global()
      .counter("tiera_rpc_inline_requests_total")
      .value();
}

// One instance served on loopback, with one probe rule per action type.
struct Served {
  explicit Served(bool journal_sync,
                  Duration batch_wait = std::chrono::microseconds(200),
                  std::size_t loops = 2) {
    InstanceConfig config;
    config.data_dir = dir.sub("inst");
    config.tiers = {{"Memcached", "tier1", 8 << 20}};
    config.persist_metadata = true;
    config.journal_sync = journal_sync;
    config.journal_batch_wait = batch_wait;
    instance = std::move(TieraInstance::create(std::move(config))).value();
    ReactorOptions options;
    options.loops = loops;
    options.shards = 2;
    server = std::make_unique<TieraServer>(*instance, 0, options);
    EXPECT_TRUE(server->start().ok());
    client = std::move(RemoteTieraClient::connect("127.0.0.1", server->port()))
                 .value();
  }
  ~Served() { server->stop(); }

  std::uint64_t add_probe(ActionType action, bool background = false) {
    Rule rule;
    rule.event = EventDef::on_action(action);
    rule.event.background = background;
    rule.responses.push_back(std::make_unique<ThreadProbe>(&last, &mu));
    return instance->add_rule(std::move(rule));
  }
  void add_probes() {
    add_probe(ActionType::kInsert);
    get_rule = add_probe(ActionType::kGet);
    add_probe(ActionType::kDelete);
  }
  // The thread the last probe ran on; clears it.
  std::string served_by() {
    std::lock_guard lock(mu);
    return std::exchange(last, {});
  }

  TempDir dir;
  std::mutex mu;  // declared before the instance: its rules point here
  std::string last;
  std::uint64_t get_rule = 0;
  InstancePtr instance;
  std::unique_ptr<TieraServer> server;
  std::unique_ptr<RemoteTieraClient> client;
};

TEST(InlineRoutingTest, UnsyncedVerbsRunOnTheirLoopAtTimeScaleZero) {
  ZeroLatencyScope zero;
  Served s(/*journal_sync=*/false);
  s.add_probes();
  const Bytes payload = make_payload(4096, 1);

  std::uint64_t before = inline_requests();
  ASSERT_TRUE(s.client->put("k", as_view(payload)).ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-loop-"));
  ASSERT_TRUE(s.client->get("k").ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-loop-"));
  ASSERT_TRUE(s.client->add_tags("k", {"t"}).ok());
  ASSERT_TRUE(s.client->stat("k").ok());
  ASSERT_TRUE(s.client->remove("k").ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-loop-"));
  EXPECT_EQ(inline_requests() - before, 5u);

  // Admin verbs never run on a loop.
  before = inline_requests();
  ASSERT_TRUE(s.client->list_tiers().ok());
  EXPECT_EQ(inline_requests(), before);
}

TEST(InlineRoutingTest, SyncedWritesAndWritingGetsRunOnShards) {
  ZeroLatencyScope zero;
  Served s(/*journal_sync=*/true);
  s.add_probes();
  const Bytes payload = make_payload(4096, 2);

  std::uint64_t before = inline_requests();
  ASSERT_TRUE(s.client->put("k", as_view(payload)).ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-shard-"));
  // A foreground GET rule may write, so a GET may wait on the journal.
  ASSERT_TRUE(s.client->get("k").ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-shard-"));
  ASSERT_TRUE(s.client->add_tags("k", {"t"}).ok());
  ASSERT_TRUE(s.client->remove("k").ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-shard-"));
  EXPECT_EQ(inline_requests(), before);

  // Without a foreground GET rule a GET cannot wait, even on a synced
  // journal; a background GET rule runs off the request path.
  ASSERT_TRUE(s.client->put("k", as_view(payload)).ok());
  ASSERT_TRUE(s.instance->remove_rule(s.get_rule).ok());
  s.add_probe(ActionType::kGet, /*background=*/true);
  before = inline_requests();
  ASSERT_TRUE(s.client->get("k").ok());
  ASSERT_TRUE(s.client->stat("k").ok());
  EXPECT_EQ(inline_requests() - before, 2u);
  s.instance->control().drain();
}

TEST(InlineRoutingTest, EveryDataVerbRunsOnAShardWhenDelaysAreModelled) {
  ZeroLatencyScope scaled(1e-4);
  Served s(/*journal_sync=*/false);
  s.add_probes();
  const Bytes payload = make_payload(4096, 3);

  const std::uint64_t before = inline_requests();
  ASSERT_TRUE(s.client->put("k", as_view(payload)).ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-shard-"));
  ASSERT_TRUE(s.client->get("k").ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-shard-"));
  ASSERT_TRUE(s.client->add_tags("k", {"t"}).ok());
  ASSERT_TRUE(s.client->stat("k").ok());
  ASSERT_TRUE(s.client->remove("k").ok());
  EXPECT_TRUE(starts_with(s.served_by(), "rpc-shard-"));
  EXPECT_EQ(inline_requests(), before);
}

Bytes put_request(std::string_view id, std::string_view value) {
  WireWriter w;
  w.str(id);
  w.bytes(as_view(value));
  w.u32(0);  // no tags
  return w.take();
}

Bytes get_request(std::string_view id) {
  WireWriter w;
  w.str(id);
  return w.take();
}

TEST(InlineRoutingTest, PipelinedGetSeesTheSyncedPutBeforeIt) {
  ZeroLatencyScope zero;
  Served s(/*journal_sync=*/true);
  auto client = AsyncRpcClient::connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(client.ok());
  for (int round = 0; round < 200; ++round) {
    const std::string value = "v" + std::to_string(round);
    std::promise<Status> put_done;
    std::promise<std::pair<Status, std::string>> get_done;
    // The PUT waits on the journal on a shard; the GET behind it on the
    // same connection must not run ahead on the loop.
    ASSERT_TRUE((*client)
                    ->call_async(static_cast<std::uint8_t>(TieraMethod::kPut),
                                 as_view(put_request("k", value)),
                                 [&](Status status, Bytes) {
                                   put_done.set_value(status);
                                 })
                    .ok());
    ASSERT_TRUE((*client)
                    ->call_async(static_cast<std::uint8_t>(TieraMethod::kGet),
                                 as_view(get_request("k")),
                                 [&](Status status, Bytes body) {
                                   get_done.set_value(
                                       {status, to_string(as_view(body))});
                                 })
                    .ok());
    ASSERT_TRUE(put_done.get_future().get().ok());
    const auto [status, got] = get_done.get_future().get();
    ASSERT_TRUE(status.ok()) << status.to_string();
    ASSERT_EQ(got, value) << "round " << round;
  }
}

TEST(InlineRoutingTest, LoopAnswersOtherConnectionsWhileASyncedPutWaits) {
  ZeroLatencyScope zero;
  // One loop, and a group commit that lingers a full second for followers:
  // a synced PUT holds its shard that long.
  Served s(/*journal_sync=*/true, std::chrono::seconds(1), /*loops=*/1);
  ASSERT_TRUE(s.instance->put("hot", as_view(make_payload(4096, 4))).ok());

  auto writer = AsyncRpcClient::connect("127.0.0.1", s.server->port());
  ASSERT_TRUE(writer.ok());
  std::promise<Status> put_done;
  std::future<Status> put_result = put_done.get_future();
  ASSERT_TRUE((*writer)
                  ->call_async(static_cast<std::uint8_t>(TieraMethod::kPut),
                               as_view(put_request("cold", "payload")),
                               [&](Status status, Bytes) {
                                 put_done.set_value(status);
                               })
                  .ok());
  // Wait until the PUT has staged its journal record and is lingering.
  MetaDb* db = s.instance->metadata().db();
  ASSERT_NE(db, nullptr);
  for (int i = 0; i < 500 && db->journal_pending() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(db->journal_pending(), 0u);

  // The loop is free: another connection's GET is answered while the PUT
  // still waits for its fsync.
  ASSERT_TRUE(s.client->get("hot").ok());
  EXPECT_EQ(put_result.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_TRUE(put_result.get().ok());
}

}  // namespace
}  // namespace tiera
