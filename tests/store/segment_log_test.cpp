// The append-only segment log under MetaDb and the file tiers: replay,
// torn-tail truncation, rolling, compaction, group commit and concurrent
// read/write safety.
#include "store/segment_log.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <thread>

#include "test_util.h"

namespace tiera {
namespace {

namespace fs = std::filesystem;
using testing::TempDir;

TEST(SegmentLogTest, AppendReadRoundTrip) {
  TempDir dir;
  auto log = SegmentLog::open(dir.sub("log"));
  ASSERT_TRUE(log.ok());

  const Bytes v1 = make_payload(512, 1);
  ASSERT_TRUE((*log)->put("a", as_view(v1)).ok());
  EXPECT_EQ((*log)->value_size("a"), 512u);
  auto got = (*log)->get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v1);

  // Empty values are legal (zero-length objects exist in the tier tests).
  ASSERT_TRUE((*log)->put("e", {}).ok());
  auto got_empty = (*log)->get("e");
  ASSERT_TRUE(got_empty.ok());
  EXPECT_TRUE(got_empty->empty());
}

TEST(SegmentLogTest, ReplayRebuildsLiveSetAcrossReopen) {
  TempDir dir;
  const std::string path = dir.sub("log");
  {
    auto log = SegmentLog::open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->put("a", as_view(make_payload(100, 1))).ok());
    ASSERT_TRUE((*log)->put("b", as_view(make_payload(200, 2))).ok());
    ASSERT_TRUE((*log)->put("a", as_view(make_payload(300, 3))).ok());
    ASSERT_TRUE((*log)->erase("b").ok());
  }
  auto log = SegmentLog::open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->size(), 1u);  // b deleted, a overwritten
  auto got = (*log)->get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, make_payload(300, 3));  // latest generation wins
  // The overwritten put, b's put and b's tombstone are all dead weight.
  EXPECT_EQ((*log)->dead_bytes(), (13u + 1 + 100) + (13u + 1 + 200) +
                                      (13u + 1));
}

TEST(SegmentLogTest, TornTailIsTruncatedOnReplay) {
  TempDir dir;
  const std::string path = dir.sub("log");
  {
    auto log = SegmentLog::open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->put("good", as_view(make_payload(64, 1))).ok());
  }
  // Simulate a crash mid-append: half a record at the tail.
  const std::string seg = path + "/seg-1.log";
  const auto full_size = fs::file_size(seg);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    out.write("\x13\x37\x13\x37torn", 8);
  }
  auto log = SegmentLog::open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->size(), 1u);
  EXPECT_TRUE((*log)->get("good").ok());
  // The torn bytes are physically gone, so the next append lands cleanly.
  EXPECT_EQ(fs::file_size(seg), full_size);
  ASSERT_TRUE((*log)->put("next", as_view(make_payload(32, 2))).ok());
}

TEST(SegmentLogTest, CorruptRecordStopsReplayAtLastGoodRecord) {
  TempDir dir;
  const std::string path = dir.sub("log");
  {
    auto log = SegmentLog::open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->put("keep", as_view(make_payload(64, 1))).ok());
    ASSERT_TRUE((*log)->put("flip", as_view(make_payload(64, 2))).ok());
  }
  // Flip a byte inside the second record's value: its CRC fails and replay
  // must stop after "keep" (and truncate the bad tail away).
  const std::string seg = path + "/seg-1.log";
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-10, std::ios::end);
    f.put('\xFF');
  }
  auto log = SegmentLog::open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->size(), 1u);
  EXPECT_TRUE((*log)->value_size("keep").has_value());
}

TEST(SegmentLogTest, RollsToNewSegmentsAndReplaysInOrder) {
  TempDir dir;
  const std::string path = dir.sub("log");
  SegmentLogOptions options;
  options.segment_bytes = 4 << 10;  // tiny segments force rolls
  {
    auto log = SegmentLog::open(path, options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 32; ++i) {
      const std::string key = "k" + std::to_string(i % 8);
      ASSERT_TRUE((*log)->put(key, as_view(make_payload(512, i))).ok());
    }
  }
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) ++segments;
  }
  EXPECT_GT(segments, 1u);

  auto log = SegmentLog::open(path, options);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->size(), 8u);
  // Replay applied segments in order: each key resolves to its last write.
  for (int k = 0; k < 8; ++k) {
    const std::string key = "k" + std::to_string(k);
    auto got = (*log)->get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, make_payload(512, 24 + k)) << key;
  }
}

TEST(SegmentLogTest, CompactionDropsDeadBytesAndPreservesValues) {
  TempDir dir;
  auto log = SegmentLog::open(dir.sub("log"));
  ASSERT_TRUE(log.ok());
  for (int gen = 0; gen < 10; ++gen) {
    for (int k = 0; k < 4; ++k) {
      const std::string key = "k" + std::to_string(k);
      ASSERT_TRUE(
          (*log)->put(key, as_view(make_payload(1024, gen * 4 + k))).ok());
    }
  }
  const std::uint64_t before = (*log)->log_bytes();

  ASSERT_TRUE((*log)->compact().ok());
  EXPECT_LT((*log)->log_bytes(), before / 2);  // 9 of 10 generations dropped
  EXPECT_EQ((*log)->dead_bytes(), 0u);
  for (int k = 0; k < 4; ++k) {
    const std::string key = "k" + std::to_string(k);
    auto got = (*log)->get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, make_payload(1024, 36 + k)) << key;
  }
  // Appends continue cleanly after compaction.
  ASSERT_TRUE((*log)->put("post", as_view(make_payload(64, 99))).ok());
}

TEST(SegmentLogTest, WipeClearsDiskAndStartsOver) {
  TempDir dir;
  const std::string path = dir.sub("log");
  auto log = SegmentLog::open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->put("a", as_view(make_payload(128, 1))).ok());
  ASSERT_TRUE((*log)->wipe().ok());
  EXPECT_EQ((*log)->log_bytes(), 0u);
  EXPECT_EQ((*log)->size(), 0u);
  ASSERT_TRUE((*log)->put("b", as_view(make_payload(64, 2))).ok());
  EXPECT_TRUE((*log)->get("b").ok());

  auto reopened = SegmentLog::open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 1u);
}

TEST(SegmentLogTest, ConcurrentAppendersAndReaders) {
  TempDir dir;
  auto log = SegmentLog::open(dir.sub("log"));
  ASSERT_TRUE(log.ok());

  // Seed a stable key each reader hammers while writers append.
  ASSERT_TRUE((*log)->put("stable", as_view(make_payload(256, 7))).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        const std::string key = "w" + std::to_string(w) + "-" +
                                std::to_string(i);
        if (!(*log)->put(key, as_view(make_payload(128, i))).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto got = (*log)->get(key);
        if (!got.ok() || *got != make_payload(128, i)) failures.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        auto got = (*log)->get("stable");
        if (!got.ok() || *got != make_payload(256, 7)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// A synced log lingers before writing a batch, so a put's record sits
// staged — indexed but not yet on disk — for the whole linger. A reader of
// that key in the window must get the new value, not a short read.
TEST(SegmentLogTest, ReaderOfStagedRecordSeesNewValue) {
  TempDir dir;
  SegmentLogOptions options;
  options.sync = true;
  options.batch_wait = std::chrono::milliseconds(300);
  auto log = SegmentLog::open(dir.sub("log"), options);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->put("k", as_view(make_payload(64, 1))).ok());

  const Bytes next = make_payload(4096, 2);
  std::thread writer(
      [&] { EXPECT_TRUE((*log)->put("k", as_view(next)).ok()); });
  while ((*log)->journal_pending() == 0) std::this_thread::yield();
  // The record is staged and its batch leader is lingering.
  EXPECT_EQ((*log)->value_size("k"), 4096u);
  auto got = (*log)->get("k");
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, next);
  EXPECT_EQ((*log)->journal_stats().records, 2u);
}

// A failed write fails the log closed: it writes nothing more (a later
// batch would land under the failed records' locations), every later append
// fails, and so does a read of any record staged after the failure, until
// the log is reopened; reopening replays what did reach the disk. Runs in a
// child so the file-size limit that makes the write fail (EFBIG) stays out
// of the test process.
TEST(SegmentLogTest, FailedWriteFailsTheLogClosedUntilReopen) {
  TempDir dir;
  const std::string path = dir.sub("log");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    auto log = SegmentLog::open(path);
    if (!log.ok()) _exit(1);
    if (!(*log)->put("a", as_view(make_payload(100, 1))).ok()) _exit(2);
    rlimit limit{};
    if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    const rlimit capped{.rlim_cur = (*log)->log_bytes(),
                        .rlim_max = limit.rlim_max};
    if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) _exit(3);
    if ((*log)->put("b", as_view(make_payload(100, 2))).ok()) _exit(4);
    // The disk has room again, but the log stays failed.
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(3);
    if ((*log)->put("c", as_view(make_payload(100, 3))).ok()) _exit(5);
    if ((*log)->get("b").ok() || (*log)->get("c").ok()) _exit(6);
    // Records written before the failure still read back.
    auto a = (*log)->get("a");
    if (!a.ok() || *a != make_payload(100, 1)) _exit(7);
    log->reset();
    auto reopened = SegmentLog::open(path);
    if (!reopened.ok()) _exit(8);
    if (!(*reopened)->get("a").ok() || (*reopened)->get("b").ok()) _exit(9);
    if (!(*reopened)->put("c", as_view(make_payload(100, 3))).ok()) _exit(10);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace tiera
