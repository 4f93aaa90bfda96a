#include "metadb/metadb.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;

TEST(MetaDbTest, PutGetErase) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->put("key", "value").ok());
  auto got = (*db)->get("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(as_view(*got)), "value");
  EXPECT_TRUE((*db)->contains("key"));
  ASSERT_TRUE((*db)->erase("key").ok());
  EXPECT_FALSE((*db)->contains("key"));
  EXPECT_TRUE((*db)->get("key").status().is_not_found());
}

TEST(MetaDbTest, OverwriteKeepsLatest) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->put("k", "v1").ok());
  ASSERT_TRUE((*db)->put("k", "v2").ok());
  EXPECT_EQ(to_string(as_view(*(*db)->get("k"))), "v2");
  EXPECT_EQ((*db)->size(), 1u);
}

TEST(MetaDbTest, EraseMissingIsNotFound) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->erase("ghost").is_not_found());
}

TEST(MetaDbTest, PersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    auto db = MetaDb::open(path);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*db)->put("key" + std::to_string(i),
                             "value" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE((*db)->erase("key50").ok());
  }
  auto db = MetaDb::open(path);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->size(), 99u);
  EXPECT_FALSE((*db)->contains("key50"));
  EXPECT_EQ(to_string(as_view(*(*db)->get("key7"))), "value7");
}

TEST(MetaDbTest, RecoversFromTornTail) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    auto db = MetaDb::open(path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->put("a", "1").ok());
    ASSERT_TRUE((*db)->put("b", "2").ok());
  }
  // Simulate a crash mid-append: chop a few bytes off the tail.
  {
    const std::string seg = path + "/seg-1.log";
    std::error_code ec;
    const auto size = std::filesystem::file_size(seg, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(seg, size - 3, ec);
    ASSERT_FALSE(ec);
  }
  auto db = MetaDb::open(path);
  ASSERT_TRUE(db.ok()) << db.status().to_string();
  EXPECT_TRUE((*db)->contains("a"));
  EXPECT_FALSE((*db)->contains("b"));  // torn record discarded
  // And the db stays writable after truncation.
  EXPECT_TRUE((*db)->put("c", "3").ok());
}

TEST(MetaDbTest, RecoversFromCorruptTail) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    auto db = MetaDb::open(path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->put("a", "1").ok());
    ASSERT_TRUE((*db)->put("b", "2").ok());
  }
  {
    // Flip a byte inside the second record's payload.
    std::fstream f(path + "/seg-1.log",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  auto db = MetaDb::open(path);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->contains("a"));
  EXPECT_FALSE((*db)->contains("b"));
}

TEST(MetaDbTest, ScanVisitsAllLiveRecords) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*db)->put("k" + std::to_string(i), "v").ok());
  }
  int seen = 0;
  Status scanned = (*db)->scan([&](std::string_view, ByteView) {
    ++seen;
    return true;
  });
  EXPECT_TRUE(scanned.ok());
  EXPECT_EQ(seen, 10);
  // Early stop.
  seen = 0;
  scanned = (*db)->scan([&](std::string_view, ByteView) {
    ++seen;
    return seen < 3;
  });
  EXPECT_TRUE(scanned.ok());
  EXPECT_EQ(seen, 3);
}

TEST(MetaDbTest, ScanPrefixFilters) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->put("obj/1", "a").ok());
  ASSERT_TRUE((*db)->put("obj/2", "b").ok());
  ASSERT_TRUE((*db)->put("cfg/1", "c").ok());
  int seen = 0;
  const Status scanned =
      (*db)->scan_prefix("obj/", [&](std::string_view key, ByteView) {
        EXPECT_EQ(key.substr(0, 4), "obj/");
        ++seen;
        return true;
      });
  EXPECT_TRUE(scanned.ok());
  EXPECT_EQ(seen, 2);
}

TEST(MetaDbTest, CompactShrinksLogAndPreservesData) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  const Bytes big(1000, 0x55);
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE((*db)->put("hot", as_view(big)).ok());
  }
  const auto before = (*db)->log_bytes();
  EXPECT_GT((*db)->dead_bytes(), 0u);
  ASSERT_TRUE((*db)->compact().ok());
  EXPECT_LT((*db)->log_bytes(), before);
  EXPECT_EQ((*db)->dead_bytes(), 0u);
  EXPECT_EQ(to_string(as_view(*(*db)->get("hot"))).size(), big.size());
  // Still writable and still durable after compaction.
  ASSERT_TRUE((*db)->put("post", "compact").ok());
}

TEST(MetaDbTest, AutoCompactionTriggers) {
  TempDir dir;
  MetaDbOptions options;
  options.auto_compact_min_bytes = 10'000;
  auto db = MetaDb::open(dir.sub("db"), options);
  ASSERT_TRUE(db.ok());
  const Bytes big(1000, 0x66);
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE((*db)->put("hot", as_view(big)).ok());
  }
  // Log must have been rewritten at least once: far smaller than 200 KB.
  EXPECT_LT((*db)->log_bytes(), 100'000u);
  EXPECT_EQ((*db)->size(), 1u);
}

// One full overwrite generation of same-size values leaves the log exactly
// half dead; that boundary must compact, not stall.
TEST(MetaDbTest, OneOverwriteGenerationCompacts) {
  TempDir dir;
  MetaDbOptions options;
  options.auto_compact_min_bytes = 10'000;
  auto db = MetaDb::open(dir.sub("db"), options);
  ASSERT_TRUE(db.ok());
  Counter& compactions =
      MetricsRegistry::global().counter("tiera_metadb_compactions_total");
  const std::uint64_t before = compactions.value();
  const Bytes value(100, 0x11);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->put("k" + std::to_string(100 + i), as_view(value)).ok());
  }
  const std::uint64_t live = (*db)->log_bytes();
  ASSERT_GE(live, options.auto_compact_min_bytes);
  EXPECT_EQ(compactions.value(), before);
  const Bytes same_size(100, 0x22);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*db)->put("k" + std::to_string(100 + i), as_view(same_size)).ok());
  }
  EXPECT_EQ(compactions.value(), before + 1);
  EXPECT_EQ((*db)->log_bytes(), live);
  EXPECT_EQ((*db)->dead_bytes(), 0u);
  EXPECT_EQ(*(*db)->get("k150"), same_size);
}

// metadata.db used to be a single file; the log is now a directory. An old
// file must fail the open rather than come up as an empty database.
TEST(MetaDbTest, OpenRejectsOldSingleFileDatabase) {
  TempDir dir;
  const std::string path = dir.sub("metadata.db");
  {
    auto db = MetaDb::open(dir.sub("scratch"));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->put("a", "1").ok());
  }
  std::filesystem::copy_file(dir.sub("scratch") + "/seg-1.log", path);
  auto db = MetaDb::open(path);
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(std::filesystem::is_regular_file(path));
}

TEST(MetaDbTest, CompactedLogReopens) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    auto db = MetaDb::open(path);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)->put("k" + std::to_string(i % 5), "v").ok());
    }
    ASSERT_TRUE((*db)->compact().ok());
  }
  auto db = MetaDb::open(path);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->size(), 5u);
}

TEST(MetaDbTest, SyncEveryWriteMode) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  auto db = MetaDb::open(dir.sub("db"), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->put("k", "v").ok());
  ASSERT_TRUE((*db)->sync().ok());
}

TEST(MetaDbTest, BinaryKeysAndValues) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  Bytes value = {0x00, 0xFF, 0x01, 0x00, 0x7F};
  const std::string key("\x00\x01weird", 7);
  ASSERT_TRUE((*db)->put(key, as_view(value)).ok());
  auto got = (*db)->get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
}

TEST(MetaDbTest, EmptyValueAllowed) {
  TempDir dir;
  auto db = MetaDb::open(dir.sub("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->put("empty", ByteView{}).ok());
  auto got = (*db)->get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

}  // namespace
}  // namespace tiera
