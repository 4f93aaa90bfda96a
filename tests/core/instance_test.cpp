#include "core/instance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/responses.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

class InstanceTest : public ::testing::Test {
 protected:
  InstancePtr make_two_tier(bool with_placement_rule = true) {
    InstanceConfig config;
    config.name = "test";
    config.data_dir = dir_.sub("inst");
    config.tiers = {{"Memcached", "tier1", 1 << 20},
                    {"EBS", "tier2", 1 << 20}};
    auto instance = TieraInstance::create(std::move(config));
    EXPECT_TRUE(instance.ok()) << instance.status().to_string();
    if (with_placement_rule) {
      Rule rule;
      rule.event = EventDef::on_insert();
      rule.responses.push_back(
          make_store(Selector::action_object(), {"tier1"}));
      (*instance)->add_rule(std::move(rule));
    }
    return std::move(instance).value();
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};


TEST_F(InstanceTest, PutGetRoundTrip) {
  auto instance = make_two_tier();
  const Bytes payload = make_payload(4096, 1);
  ASSERT_TRUE(instance->put("obj", as_view(payload)).ok());
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(instance->contains("obj"));
  EXPECT_EQ(instance->object_count(), 1u);
}

TEST_F(InstanceTest, GetMissingIsNotFound) {
  auto instance = make_two_tier();
  EXPECT_TRUE(instance->get("ghost").status().is_not_found());
  EXPECT_EQ(instance->stats().get_misses.load(), 1u);
}

TEST_F(InstanceTest, PlacementRuleStoresInConfiguredTier) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->in_tier("tier1"));
  EXPECT_FALSE(meta->in_tier("tier2"));
  EXPECT_EQ(instance->tier("tier1")->object_count(), 1u);
  EXPECT_EQ(instance->tier("tier2")->object_count(), 0u);
}

TEST_F(InstanceTest, DefaultPlacementWithoutRules) {
  auto instance = make_two_tier(/*with_placement_rule=*/false);
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->in_tier("tier1"));  // first tier fallback
}

TEST_F(InstanceTest, OverwriteReplacesContent) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const Bytes v2 = make_payload(200, 2);
  ASSERT_TRUE(instance->put("obj", as_view(v2)).ok());
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
  EXPECT_EQ(instance->object_count(), 1u);
  EXPECT_EQ(instance->tier("tier1")->used(), 200u);
}

// A move that runs after an overwrite read the old metadata but before it
// stored the new bytes (forced here by an insert rule ahead of placement;
// in service, a background demotion) copies the old bytes. The overwrite
// drops that copy; left behind, a later move would find the object already
// in tier2 and keep the old bytes there.
TEST_F(InstanceTest, OverwriteDropsCopiesMadeBeforeItsStore) {
  auto instance = make_two_tier(/*with_placement_rule=*/false);
  Rule demote;
  demote.event = EventDef::on_insert();
  demote.responses.push_back(std::make_unique<CallbackResponse>(
      "demote", [](EventContext& ctx) {
        const auto meta = ctx.instance->stat(ctx.object_id);
        if (!meta.ok() || !meta->in_tier("tier1")) return Status::Ok();
        return ctx.instance->engine_move({ctx.object_id}, {"tier2"},
                                         {"tier1"}, nullptr, nullptr);
      }));
  instance->add_rule(std::move(demote));
  Rule place;
  place.event = EventDef::on_insert();
  place.responses.push_back(make_store(Selector::action_object(), {"tier1"}));
  instance->add_rule(std::move(place));

  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const Bytes v2 = make_payload(100, 2);
  ASSERT_TRUE(instance->put("obj", as_view(v2)).ok());
  auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->locations, std::set<std::string>{"tier1"});
  EXPECT_FALSE(instance->tier("tier2")->contains("obj"));

  ASSERT_TRUE(
      instance->engine_move({"obj"}, {"tier2"}, {"tier1"}, nullptr, nullptr)
          .ok());
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
}

// A placement that makes room and then fills it can lose the room to
// another rule in between (in a live instance, a background promote). The
// store then fails with CapacityExceeded, and the control layer runs the
// rule again instead of failing the PUT.
TEST_F(InstanceTest, FitRuleRerunsWhenItsRoomIsTaken) {
  InstanceConfig config;
  config.name = "test";
  config.data_dir = dir_.sub("inst");
  config.tiers = {{"Memcached", "tier1", 4 * 1024}, {"EBS", "tier2", 1 << 20}};
  auto created = TieraInstance::create(std::move(config));
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  InstancePtr instance = std::move(created).value();
  int runs = 0;
  Rule place;
  place.event = EventDef::on_insert();
  place.responses.push_back(make_evict_lru("tier1", "tier2"));
  place.responses.push_back(std::make_unique<CallbackResponse>(
      "steal-room-once", [&](EventContext& ctx) {
        if (ctx.object_id != "new" || runs++ > 0) return Status::Ok();
        return ctx.instance->engine_store(
            "thief", std::make_shared<const Bytes>(make_payload(1024, 9)),
            {"tier1"}, /*dedup=*/false, nullptr);
      }));
  place.responses.push_back(make_store(Selector::action_object(), {"tier1"}));
  instance->add_rule(std::move(place));

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(instance->put("old" + std::to_string(i),
                              as_view(make_payload(1024, i)))
                    .ok());
  }
  const Status put = instance->put("new", as_view(make_payload(1024, 7)));
  EXPECT_TRUE(put.ok()) << put.to_string();
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(instance->stat("new")->in_tier("tier1"));
  EXPECT_TRUE(instance->stat("thief")->in_tier("tier1"));
  EXPECT_LE(instance->tier("tier1")->used(),
            instance->tier("tier1")->capacity());
}

// Foreground and background fit-checking rules never run at the same time,
// so a background promote cannot take the room a placement just made.
TEST_F(InstanceTest, FitGateKeepsForegroundAndBackgroundFitRulesApart) {
  auto instance = make_two_tier(/*with_placement_rule=*/false);
  std::atomic<int> foreground{0};
  std::atomic<int> background{0};
  std::atomic<int> background_runs{0};
  std::atomic<bool> overlap{false};
  const auto hold = [&](std::atomic<int>& mine, std::atomic<int>& other) {
    return [&](EventContext&) {
      ++mine;
      if (other.load() > 0) overlap = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (other.load() > 0) overlap = true;
      --mine;
      return Status::Ok();
    };
  };
  Rule place;
  place.event = EventDef::on_insert();
  place.responses.push_back(make_evict_lru("tier1", "tier2"));
  place.responses.push_back(std::make_unique<CallbackResponse>(
      "foreground", hold(foreground, background)));
  place.responses.push_back(make_store(Selector::action_object(), {"tier1"}));
  instance->add_rule(std::move(place));
  Rule promote;
  promote.event =
      EventDef::on_action(ActionType::kGet, "tier2").in_background();
  promote.responses.push_back(make_evict_lru("tier1", "tier2"));
  promote.responses.push_back(std::make_unique<CallbackResponse>(
      "background", [&, body = hold(background, foreground)](
                        EventContext& ctx) {
        ++background_runs;
        return body(ctx);
      }));
  instance->add_rule(std::move(promote));

  const Bytes payload = make_payload(100, 1);
  ASSERT_TRUE(instance->put("cold", as_view(payload)).ok());
  ASSERT_TRUE(instance->engine_move({"cold"}, {"tier2"}, {"tier1"}, nullptr,
                                    nullptr)
                  .ok());
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(instance->get("cold").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(instance->put("p" + std::to_string(i), as_view(payload)).ok());
  }
  reader.join();
  instance->control().drain();
  EXPECT_FALSE(overlap.load());
  EXPECT_GT(background_runs.load(), 0);
}

TEST_F(InstanceTest, RemoveDeletesEverywhere) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier2"}, nullptr, nullptr).ok());
  ASSERT_TRUE(instance->remove("obj").ok());
  EXPECT_FALSE(instance->contains("obj"));
  EXPECT_EQ(instance->tier("tier1")->object_count(), 0u);
  EXPECT_EQ(instance->tier("tier2")->object_count(), 0u);
  EXPECT_TRUE(instance->remove("obj").is_not_found());
}

TEST_F(InstanceTest, TagsStoredAndQueryable) {
  auto instance = make_two_tier();
  ASSERT_TRUE(
      instance->put("tmp1", as_view(make_payload(10, 1)), {"tmp"}).ok());
  ASSERT_TRUE(instance->put("keep", as_view(make_payload(10, 2))).ok());
  ASSERT_TRUE(instance->add_tags("keep", {"gold", "db"}).ok());
  const auto meta = instance->stat("keep");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->has_tag("gold"));
  EXPECT_TRUE(meta->has_tag("db"));
  EXPECT_FALSE(meta->has_tag("tmp"));
  const auto tagged = instance->metadata().select(
      [](const ObjectMeta& m) { return m.has_tag("tmp"); });
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(tagged[0], "tmp1");
}

TEST_F(InstanceTest, AccessMetadataUpdatedOnGet) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(10, 1))).ok());
  const auto before = instance->stat("obj");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->access_count, 0u);
  ASSERT_TRUE(instance->get("obj").ok());
  ASSERT_TRUE(instance->get("obj").ok());
  const auto after = instance->stat("obj");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->access_count, 2u);
  EXPECT_GE(after->last_access, before->last_access);
}

// The instance holds one GET key: encrypting under a second key fails and
// encrypts nothing, so objects encrypted under the first still read back.
TEST_F(InstanceTest, EncryptUnderASecondKeyFailsClosed) {
  auto instance = make_two_tier();
  const Bytes a = make_payload(256, 1);
  const Bytes b = make_payload(256, 2);
  ASSERT_TRUE(instance->put("a", as_view(a)).ok());
  ASSERT_TRUE(instance->put("b", as_view(b)).ok());
  ASSERT_TRUE(instance->engine_encrypt({"a"}, derive_key("one")).ok());
  const Status second = instance->engine_encrypt({"b"}, derive_key("two"));
  EXPECT_EQ(second.code(), StatusCode::kInvalidArgument)
      << second.to_string();
  EXPECT_FALSE(instance->stat("b")->encrypted);
  auto got_a = instance->get("a");
  ASSERT_TRUE(got_a.ok()) << got_a.status().to_string();
  EXPECT_EQ(*got_a, a);
  auto got_b = instance->get("b");
  ASSERT_TRUE(got_b.ok()) << got_b.status().to_string();
  EXPECT_EQ(*got_b, b);
  // The registered key still encrypts.
  EXPECT_TRUE(instance->engine_encrypt({"b"}, derive_key("one")).ok());
  EXPECT_TRUE(instance->stat("b")->encrypted);
  got_b = instance->get("b");
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(*got_b, b);
}

TEST_F(InstanceTest, DirtyClearedByDurableCopy) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(10, 1))).ok());
  EXPECT_TRUE(instance->stat("obj")->dirty);  // only in volatile Memcached
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier2"}, nullptr, nullptr).ok());
  EXPECT_FALSE(instance->stat("obj")->dirty);
}

TEST_F(InstanceTest, ReadsFallThroughOnTierFailure) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(64, 1))).ok());
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier2"}, nullptr, nullptr).ok());
  instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok()) << got.status().to_string();  // served from tier2
  instance->tier("tier1")->heal();
}

TEST_F(InstanceTest, GetFailsWhenAllLocationsDown) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(64, 1))).ok());
  instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
  EXPECT_TRUE(instance->get("obj").status().is_unavailable());
  EXPECT_GT(instance->stats().failures.load(), 0u);
}

TEST_F(InstanceTest, PutFailsWhenPlacementTierDown) {
  auto instance = make_two_tier();
  instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
  const Status s = instance->put("obj", as_view(make_payload(64, 1)));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(instance->contains("obj"));  // no dangling metadata
}

TEST_F(InstanceTest, AddAndRemoveTierAtRuntime) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->add_tier({"S3", "tier3", 1 << 20}).ok());
  EXPECT_EQ(instance->tiers().size(), 3u);
  EXPECT_TRUE(instance->add_tier({"S3", "tier3", 1}).ok() == false);
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(10, 1))).ok());
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier3"}, nullptr, nullptr).ok());
  ASSERT_TRUE(instance->remove_tier("tier3").ok());
  EXPECT_EQ(instance->tier("tier3"), nullptr);
  const auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->in_tier("tier3"));
  EXPECT_TRUE(instance->remove_tier("tier9").is_not_found());
}

TEST_F(InstanceTest, StatsTrackOps) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("a", as_view(make_payload(10, 1))).ok());
  ASSERT_TRUE(instance->get("a").ok());
  ASSERT_TRUE(instance->remove("a").ok());
  EXPECT_EQ(instance->stats().puts.load(), 1u);
  EXPECT_EQ(instance->stats().gets.load(), 1u);
  EXPECT_EQ(instance->stats().removes.load(), 1u);
  EXPECT_EQ(instance->stats().put_latency.count(), 1u);
}

TEST_F(InstanceTest, MonthlyCostReflectsTiers) {
  auto instance = make_two_tier();
  const double cost = instance->monthly_cost();
  // 1 MB Memcached at $19/GB + 1 MB EBS at $0.10/GB.
  EXPECT_NEAR(cost, (19.0 + 0.10) / 1024.0, 0.001);
  EXPECT_EQ(instance->cost_breakdown().size(), 2u);
}

TEST_F(InstanceTest, PersistedMetadataRecoversAfterRestart) {
  const Bytes payload = make_payload(128, 5);
  {
    InstanceConfig config;
    config.data_dir = dir_.sub("persist");
    config.persist_metadata = true;
    config.tiers = {{"EBS", "tier1", 1 << 20}};
    auto instance = TieraInstance::create(std::move(config));
    ASSERT_TRUE(instance.ok());
    ASSERT_TRUE(
        (*instance)->put("obj", as_view(payload), {"important"}).ok());
  }
  InstanceConfig config;
  config.data_dir = dir_.sub("persist");
  config.persist_metadata = true;
  config.tiers = {{"EBS", "tier1", 1 << 20}};
  auto instance = TieraInstance::create(std::move(config));
  ASSERT_TRUE(instance.ok());
  const auto meta = (*instance)->stat("obj");
  ASSERT_TRUE(meta.ok()) << meta.status().to_string();
  EXPECT_TRUE(meta->in_tier("tier1"));
  EXPECT_TRUE(meta->has_tag("important"));
  auto got = (*instance)->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
}

TEST_F(InstanceTest, ConcurrentClientsKeepConsistency) {
  auto instance = make_two_tier();
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const std::string id = "o" + std::to_string(t) + "-" +
                               std::to_string(i);
        const Bytes payload = make_payload(128, t * 1000 + i);
        if (!instance->put(id, as_view(payload)).ok()) errors.fetch_add(1);
        auto got = instance->get(id);
        if (!got.ok() || *got != payload) errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(instance->object_count(), 800u);
}

TEST_F(InstanceTest, RemapInvalidateDropsReplicatedObjectsOnly) {
  auto instance = make_two_tier();
  for (int i = 0; i < 50; ++i) {
    const std::string id = "r" + std::to_string(i);
    ASSERT_TRUE(instance->put(id, as_view(make_payload(64, i))).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(
          instance->engine_copy({id}, {"tier2"}, nullptr, nullptr).ok());
    }
  }
  const std::size_t invalidated =
      instance->remap_invalidate("tier1", 1.0, /*seed=*/1);
  EXPECT_EQ(invalidated, 25u);  // only the replicated half is droppable
  // Every object is still readable (singletons from tier1, rest from tier2).
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(instance->get("r" + std::to_string(i)).ok()) << i;
  }
}

}  // namespace
}  // namespace tiera
