// Metadata journal traffic per request: GETs log nothing, and each PUT or
// DELETE logs one record, on a MemcachedEBS-shaped instance (every PUT is
// stored to a Memcached tier and an EBS tier) with a synced journal. Access
// statistics are not journaled, so a restart reads them as of the object's
// last logged change.
#include <gtest/gtest.h>

#include <string>

#include "core/templates.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

class JournalTrafficTest : public ::testing::Test {
 protected:
  TieraInstance& open() {
    instance_.reset();
    auto created = make_memcached_ebs_instance(
        {.data_dir = dir_.sub("inst"),
         .persist_metadata = true,
         .journal_sync = true,
         .track_heat = false},
        1 << 20, 1 << 20);
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    instance_ = std::move(created).value();
    return *instance_;
  }

  std::uint64_t records() {
    return instance_->metadata().db()->journal_stats().records;
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
  InstancePtr instance_;
};

TEST_F(JournalTrafficTest, GetsLogNothingPutsAndDeletesLogOneRecord) {
  TieraInstance& in = open();
  const Bytes payload = make_payload(1024, 1);

  std::uint64_t before = records();
  ASSERT_TRUE(in.put("obj", as_view(payload), {"color=red"}).ok());
  EXPECT_EQ(records() - before, 1u) << "new-object PUT";

  before = records();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(in.get("obj").ok());
  EXPECT_EQ(records() - before, 0u) << "5 GETs";

  before = records();
  ASSERT_TRUE(in.put("obj", as_view(make_payload(2048, 2))).ok());
  EXPECT_EQ(records() - before, 1u) << "overwrite PUT";

  before = records();
  ASSERT_TRUE(in.remove("obj").ok());
  EXPECT_EQ(records() - before, 1u) << "DELETE";
  EXPECT_FALSE(in.contains("obj"));
}

TEST_F(JournalTrafficTest, ReopenRestoresTheLastLoggedRecord) {
  TieraInstance& in = open();
  ASSERT_TRUE(in.put("obj", as_view(make_payload(1024, 1)), {"a", "b"}).ok());
  const auto logged = in.stat("obj");
  ASSERT_TRUE(logged.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(in.get("obj").ok());
  const auto live = in.stat("obj");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->access_count, logged->access_count + 3);

  TieraInstance& reopened = open();
  const auto recovered = reopened.stat("obj");
  ASSERT_TRUE(recovered.ok());
  // The GETs since the PUT are gone; everything the PUT logged is back.
  EXPECT_EQ(recovered->access_count, logged->access_count);
  EXPECT_EQ(recovered->last_access, logged->last_access);
  EXPECT_EQ(recovered->locations, logged->locations);
  EXPECT_EQ(recovered->locations, (std::set<std::string>{"tier1", "tier2"}));
  EXPECT_EQ(recovered->size, 1024u);
  EXPECT_EQ(recovered->tags, (std::set<std::string>{"a", "b"}));
  EXPECT_FALSE(recovered->dirty);
}

TEST_F(JournalTrafficTest, PutThatNoTierAcceptsLeavesNoRecord) {
  TieraInstance& in = open();
  in.tier("tier1")->inject_failure(FailureMode::kFailStop);
  in.tier("tier2")->inject_failure(FailureMode::kFailStop);
  const std::uint64_t before = records();
  EXPECT_FALSE(in.put("obj", as_view(make_payload(1024, 1))).ok());
  EXPECT_EQ(records() - before, 0u);
  EXPECT_FALSE(in.contains("obj"));

  TieraInstance& reopened = open();
  EXPECT_FALSE(reopened.contains("obj"));
}

}  // namespace
}  // namespace tiera
