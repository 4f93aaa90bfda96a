#include "core/metadata_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;

ObjectMeta make_meta(const std::string& id, std::uint64_t size = 100) {
  ObjectMeta m;
  m.id = id;
  m.size = size;
  m.created = m.last_access = now();
  return m;
}

TEST(ObjectMetaTest, EncodeDecodeRoundTrip) {
  ObjectMeta m = make_meta("object-1", 4096);
  m.access_count = 17;
  m.dirty = true;
  m.locations = {"tier1", "tier3"};
  m.tags = {"tmp", "db"};
  m.compressed = true;
  m.encrypted = true;
  m.content_hash = "abc123";
  auto decoded = ObjectMeta::decode(as_view(m.encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, m.id);
  EXPECT_EQ(decoded->size, m.size);
  EXPECT_EQ(decoded->access_count, m.access_count);
  EXPECT_EQ(decoded->dirty, m.dirty);
  EXPECT_EQ(decoded->locations, m.locations);
  EXPECT_EQ(decoded->tags, m.tags);
  EXPECT_EQ(decoded->compressed, m.compressed);
  EXPECT_EQ(decoded->encrypted, m.encrypted);
  EXPECT_EQ(decoded->content_hash, m.content_hash);
  EXPECT_EQ(decoded->last_access, m.last_access);
}

TEST(ObjectMetaTest, DecodeRejectsTruncated) {
  const Bytes encoded = make_meta("x").encode();
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                          encoded.size() / 2}) {
    auto r = ObjectMeta::decode(ByteView(encoded.data(), cut));
    EXPECT_FALSE(r.ok()) << cut;
  }
}

TEST(ObjectMetaTest, StorageKeyUsesContentHashWhenSet) {
  ObjectMeta m = make_meta("id");
  EXPECT_EQ(m.storage_key(), "id");
  m.content_hash = "deadbeef";
  EXPECT_EQ(m.storage_key(), "cas:deadbeef");
}

TEST(MetadataStoreTest, CrudAndSelect) {
  MetadataStore store;
  ASSERT_TRUE(store.put(make_meta("a")).ok());
  ASSERT_TRUE(store.put(make_meta("b")).ok());
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.update("a", [](ObjectMeta& m) {
    m.dirty = true;
    return true;
  }).ok());
  EXPECT_TRUE(store.get("a")->dirty);
  const auto dirty =
      store.select([](const ObjectMeta& m) { return m.dirty; });
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], "a");
  ASSERT_TRUE(store.erase("a").ok());
  EXPECT_FALSE(store.contains("a"));
  EXPECT_TRUE(store.erase("a").is_not_found());
  EXPECT_TRUE(store.update("a", [](ObjectMeta&) { return true; })
                  .is_not_found());
}

TEST(MetadataStoreTest, UpdateAbortKeepsOldValue) {
  MetadataStore store;
  ASSERT_TRUE(store.put(make_meta("a", 1)).ok());
  ASSERT_TRUE(store.update("a", [](ObjectMeta& m) {
    m.size = 999;
    return false;  // abort
  }).ok());
  // The mutation ran on the stored record but was not persisted; for the
  // in-memory map the contract is "fn returning false skips persistence".
  EXPECT_TRUE(store.contains("a"));
}

TEST(MetadataStoreTest, TierLruOrdering) {
  MetadataStore store;
  store.touch_in_tier("t", "a");
  store.touch_in_tier("t", "b");
  store.touch_in_tier("t", "c");
  EXPECT_EQ(*store.oldest_in_tier("t"), "a");
  EXPECT_EQ(*store.newest_in_tier("t"), "c");
  store.touch_in_tier("t", "a");  // refresh
  EXPECT_EQ(*store.oldest_in_tier("t"), "b");
  EXPECT_EQ(*store.newest_in_tier("t"), "a");
  store.remove_from_tier("t", "b");
  EXPECT_EQ(*store.oldest_in_tier("t"), "c");
  EXPECT_EQ(store.count_in_tier("t"), 2u);
  store.drop_tier("t");
  EXPECT_FALSE(store.oldest_in_tier("t").has_value());
}

// A read bumps recency outside the object's stripe, after a move out of
// the tier may have landed: the bump must not list the object again.
TEST(MetadataStoreTest, BumpRefreshesButNeverAdds) {
  MetadataStore store;
  store.touch_in_tier("t", "a");
  store.touch_in_tier("t", "b");
  store.bump_in_tier("t", "a");
  EXPECT_EQ(*store.oldest_in_tier("t"), "b");
  EXPECT_EQ(*store.newest_in_tier("t"), "a");
  store.remove_from_tier("t", "a");
  store.bump_in_tier("t", "a");
  store.bump_in_tier("other", "a");
  EXPECT_EQ(store.count_in_tier("t"), 1u);
  EXPECT_EQ(store.count_in_tier("other"), 0u);
  EXPECT_EQ(*store.newest_in_tier("t"), "b");
}

TEST(MetadataStoreTest, EmptyTierHasNoExtremes) {
  MetadataStore store;
  EXPECT_FALSE(store.oldest_in_tier("none").has_value());
  EXPECT_FALSE(store.newest_in_tier("none").has_value());
  EXPECT_EQ(store.count_in_tier("none"), 0u);
}

TEST(MetadataStoreTest, ContentRefCounting) {
  MetadataStore store;
  EXPECT_TRUE(store.add_content_ref("h1", "a"));   // first ref
  EXPECT_FALSE(store.add_content_ref("h1", "b"));  // duplicate content
  EXPECT_EQ(store.content_ref_count("h1"), 2u);
  EXPECT_FALSE(store.drop_content_ref("h1", "a"));  // one ref remains
  EXPECT_TRUE(store.drop_content_ref("h1", "b"));   // last ref
  EXPECT_EQ(store.content_ref_count("h1"), 0u);
  EXPECT_FALSE(store.drop_content_ref("h1", "ghost"));
}

TEST(MetadataStoreTest, PersistsThroughMetaDb) {
  TempDir dir;
  {
    auto db = MetaDb::open(dir.sub("meta"));
    ASSERT_TRUE(db.ok());
    MetadataStore store(std::move(db).value());
    ObjectMeta m = make_meta("persisted", 512);
    m.locations = {"tier1"};
    m.tags = {"keep"};
    m.content_hash = "h42";
    ASSERT_TRUE(store.put(m).ok());
    ASSERT_TRUE(store.put(make_meta("dropped")).ok());
    ASSERT_TRUE(store.erase("dropped").ok());
  }
  auto db = MetaDb::open(dir.sub("meta"));
  ASSERT_TRUE(db.ok());
  MetadataStore store(std::move(db).value());
  ASSERT_TRUE(store.recover().ok());
  EXPECT_EQ(store.size(), 1u);
  const auto m = store.get("persisted");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size, 512u);
  EXPECT_TRUE(m->in_tier("tier1"));
  EXPECT_TRUE(m->has_tag("keep"));
  // Recovery rebuilds the recency and content indexes.
  EXPECT_EQ(*store.oldest_in_tier("tier1"), "persisted");
  EXPECT_EQ(store.content_ref_count("h42"), 1u);
}

// Memory-only changes log nothing: the object's next logged record carries
// them, and a restart before it loses them. Erasing an object that was
// never logged leaves no tombstone.
TEST(MetadataStoreTest, MemoryOnlyChangesRideTheNextLoggedRecord) {
  TempDir dir;
  const auto open = [&] {
    auto db = MetaDb::open(dir.sub("meta"));
    EXPECT_TRUE(db.ok());
    auto store = std::make_unique<MetadataStore>(std::move(db).value());
    EXPECT_TRUE(store->recover().ok());
    return store;
  };
  const auto records = [](MetadataStore& store) {
    return store.db()->journal_stats().records;
  };
  {
    auto store = open();
    ObjectMeta m = make_meta("obj");
    m.locations = {"t"};
    ASSERT_TRUE(store->put(m).ok());
    store->touch_in_tier("t", "obj");
    store->touch_in_tier("t", "other");
    const std::uint64_t logged = records(*store);
    store->record_access("obj", "t");
    store->record_access("obj", "t");
    ASSERT_TRUE(store
                    ->update_in_memory("obj",
                                       [](ObjectMeta& cur) {
                                         cur.tags.insert("soft");
                                         return true;
                                       })
                    .ok());
    store->put_in_memory(make_meta("ghost"));
    ASSERT_TRUE(store->erase("ghost").ok());
    EXPECT_EQ(records(*store), logged);
    EXPECT_EQ(store->get("obj")->access_count, 2u);
    EXPECT_EQ(*store->newest_in_tier("t"), "obj");
  }
  {
    auto store = open();
    EXPECT_EQ(store->size(), 1u);
    const auto m = store->get("obj");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->access_count, 0u);
    EXPECT_FALSE(m->has_tag("soft"));
    store->record_access("obj", "t");
    const std::uint64_t logged = records(*store);
    ASSERT_TRUE(store
                    ->update("obj",
                             [](ObjectMeta& cur) {
                               cur.size = 7;
                               return true;
                             })
                    .ok());
    EXPECT_EQ(records(*store), logged + 1);
  }
  auto store = open();
  const auto m = store->get("obj");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size, 7u);
  EXPECT_EQ(m->access_count, 1u);
}

TEST(MetadataStoreTest, RecoverFailsWhenAValueCannotBeRead) {
  TempDir dir;
  {
    auto db = MetaDb::open(dir.sub("meta"));
    ASSERT_TRUE(db.ok());
    MetadataStore store(std::move(db).value());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.put(make_meta("obj" + std::to_string(i))).ok());
    }
  }
  auto db = MetaDb::open(dir.sub("meta"));
  ASSERT_TRUE(db.ok());
  // Cut the segment under the open log: the index still points at every
  // record, but most values can no longer be read.
  std::filesystem::resize_file(dir.sub("meta") + "/seg-1.log", 64);
  MetadataStore store(std::move(db).value());
  EXPECT_FALSE(store.recover().ok());
}

TEST(MetadataStoreTest, ConcurrentTouchAndSelect) {
  MetadataStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.put(make_meta("o" + std::to_string(i))).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    while (!stop.load()) {
      (void)store.select([](const ObjectMeta&) { return true; });
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        const std::string id = "o" + std::to_string((i * 7 + t) % 100);
        store.touch_in_tier("t", id);
        (void)store.update(id, [](ObjectMeta& m) {
          m.access_count++;
          return true;
        });
      }
    });
  }
  for (std::size_t i = 1; i < threads.size(); ++i) threads[i].join();
  stop.store(true);
  threads[0].join();
  EXPECT_EQ(store.count_in_tier("t"), 100u);
}

}  // namespace
}  // namespace tiera
