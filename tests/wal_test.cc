#include "src/persist/wal.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"

namespace cuckoo {
namespace persist {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_wal_XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (const std::string& name : ListFilesWithPrefix(path, "")) {
      RemoveFile(path + "/" + name);
    }
    ::rmdir(path.c_str());
  }
};

std::vector<WalRecord> ReplayAll(const std::string& dir, std::uint64_t start_lsn,
                                 WalReplayStats* stats, bool* ok,
                                 bool truncate_tail = true) {
  std::vector<WalRecord> records;
  std::string error;
  *ok = ReplayWal(dir, start_lsn, truncate_tail,
                  [&](const WalRecord& r) { records.push_back(r); }, stats, &error);
  if (!*ok && error.empty()) {
    ADD_FAILURE() << "ReplayWal failed without an error message";
  }
  return records;
}

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 100; ++i) {
      const std::string key = "key" + std::to_string(i);
      const std::uint64_t lsn =
          wal.Append(WalRecord::Type::kSet, key, "value" + std::to_string(i),
                     /*flags=*/7, /*expires_at=*/0, /*cas_id=*/i + 1);
      EXPECT_EQ(lsn, static_cast<std::uint64_t>(i + 1));
      wal.WaitDurable(lsn);
    }
    wal.Append(WalRecord::Type::kDelete, "key3", {}, 0, 0, 0);
    EXPECT_TRUE(wal.Flush());
    EXPECT_EQ(wal.DurableLsn(), 101u);
    wal.Shutdown();
  }
  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 1, &stats, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(records.size(), 101u);
  EXPECT_EQ(stats.records_applied, 101u);
  EXPECT_EQ(stats.next_lsn, 102u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_EQ(records[5].key, "key5");
  EXPECT_EQ(records[5].data, "value5");
  EXPECT_EQ(records[5].flags, 7u);
  EXPECT_EQ(records[5].cas_id, 6u);
  EXPECT_EQ(records[100].type, WalRecord::Type::kDelete);
  EXPECT_EQ(records[100].key, "key3");
  EXPECT_TRUE(records[100].data.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);  // strictly sequential
  }
}

TEST(WalTest, EmptyDirectoryReplaysNothing) {
  TempDir dir;
  WalReplayStats stats;
  bool ok = false;
  EXPECT_TRUE(ReplayAll(dir.path, 1, &stats, &ok).empty());
  EXPECT_TRUE(ok);
  EXPECT_EQ(stats.next_lsn, 1u);
  EXPECT_EQ(stats.segments, 0u);
}

TEST(WalTest, EmptySegmentIsValid) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    ASSERT_TRUE(wal.Open(options, 42));
    wal.Shutdown();  // header only, zero records
  }
  WalReplayStats stats;
  bool ok = false;
  EXPECT_TRUE(ReplayAll(dir.path, 1, &stats, &ok).empty());
  EXPECT_TRUE(ok);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_EQ(stats.next_lsn, 42u);  // continues where the segment would have
}

TEST(WalTest, TornTailIsTruncatedAndReplayIsIdempotent) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 10; ++i) {
      wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "k" + std::to_string(i), "v",
                                 0, 0, i + 1));
    }
    wal.Shutdown();
  }
  // Simulate a torn write: half a record of garbage at the end of the file.
  std::vector<std::string> segments = ListFilesWithPrefix(dir.path, "wal-");
  ASSERT_EQ(segments.size(), 1u);
  const std::string seg_path = dir.path + "/" + segments.back();
  const std::uint64_t good_size = FileSize(seg_path);
  {
    AppendFile f;
    ASSERT_TRUE(f.Open(seg_path, /*truncate=*/false));
    ASSERT_TRUE(f.Append("torn-write-garbage-bytes"));
  }

  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 1, &stats, &ok);
  ASSERT_TRUE(ok);  // torn tail is tolerated, not an error
  EXPECT_EQ(records.size(), 10u);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(FileSize(seg_path), good_size);  // tail dropped on disk

  // Second replay over the truncated file: same records, clean tail.
  WalReplayStats stats2;
  std::vector<WalRecord> records2 = ReplayAll(dir.path, 1, &stats2, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(records2.size(), 10u);
  EXPECT_FALSE(stats2.truncated_tail);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, records2[i].lsn);
    EXPECT_EQ(records[i].key, records2[i].key);
  }
}

TEST(WalTest, BitFlippedRecordAtTailIsTornNotCorrupt) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 5; ++i) {
      wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i),
                                 "payload", 0, 0, i + 1));
    }
    wal.Shutdown();
  }
  std::vector<std::string> segments = ListFilesWithPrefix(dir.path, "wal-");
  ASSERT_EQ(segments.size(), 1u);
  const std::string seg_path = dir.path + "/" + segments.back();
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(seg_path, &bytes));
  bytes[bytes.size() - 4] ^= 0x20;  // flip a bit inside the LAST record
  ASSERT_TRUE(WriteFileAtomic(seg_path, bytes));

  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 1, &stats, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(records.size(), 4u);  // the flipped record is dropped as torn
  EXPECT_TRUE(stats.truncated_tail);
}

TEST(WalTest, BitFlippedRecordMidLogIsUnrecoverable) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 20; ++i) {
      wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i),
                                 "some-payload-bytes", 0, 0, i + 1));
    }
    wal.Shutdown();
  }
  std::vector<std::string> segments = ListFilesWithPrefix(dir.path, "wal-");
  ASSERT_EQ(segments.size(), 1u);
  const std::string seg_path = dir.path + "/" + segments.back();
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(seg_path, &bytes));
  // Flip a bit in the FIRST record's payload (just past header + frame).
  bytes[internal::kWalHeaderSize + internal::kRecordFrameSize + 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(seg_path, bytes));

  WalReplayStats stats;
  std::string error;
  std::vector<WalRecord> records;
  const bool ok = ReplayWal(dir.path, 1, /*truncate_torn_tail=*/false,
                            [&](const WalRecord& r) { records.push_back(r); }, &stats,
                            &error);
  // Damage in the LAST segment is treated as a tail cut from the damage
  // point: nothing after it is applied, and the loss is visible to the
  // operator via truncated_tail + a large torn_tail_bytes (19 whole records
  // here), rather than silently skipping the bad record and replaying the
  // rest out of context.
  ASSERT_TRUE(ok);
  EXPECT_EQ(records.size(), 0u);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_GT(stats.torn_tail_bytes, 19u * 8u);
}

TEST(WalTest, BitFlipInNonFinalSegmentFailsReplay) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    options.segment_bytes = 64;  // rotate after every batch
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 6; ++i) {
      // Flush each record so rotation happens between appends.
      wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i),
                                 "data-bytes-to-exceed-segment", 0, 0, i + 1));
      ASSERT_TRUE(wal.Flush());
    }
    wal.Shutdown();
  }
  std::vector<std::string> segments = ListFilesWithPrefix(dir.path, "wal-");
  ASSERT_GE(segments.size(), 2u);
  const std::string first_path = dir.path + "/" + segments.front();
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(first_path, &bytes));
  ASSERT_GT(bytes.size(), internal::kWalHeaderSize + internal::kRecordFrameSize + 2);
  bytes[internal::kWalHeaderSize + internal::kRecordFrameSize + 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(first_path, bytes));

  WalReplayStats stats;
  std::string error;
  const bool ok = ReplayWal(dir.path, 1, /*truncate_torn_tail=*/false,
                            [](const WalRecord&) {}, &stats, &error);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(error.empty());
}

TEST(WalTest, RotationKeepsLsnContinuityAcrossSegments) {
  TempDir dir;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    options.segment_bytes = 256;
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 50; ++i) {
      wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i),
                                 std::string(64, 'x'), 0, 0, i + 1));
    }
    wal.Shutdown();
  }
  EXPECT_GE(ListFilesWithPrefix(dir.path, "wal-").size(), 2u);
  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 1, &stats, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(records.size(), 50u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
}

TEST(WalTest, RemoveSegmentsBelowDropsCoveredSegments) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options;
  options.dir = dir.path;
  options.fsync_policy = FsyncPolicy::kAlways;
  options.segment_bytes = 128;
  ASSERT_TRUE(wal.Open(options, 1));
  for (int i = 0; i < 40; ++i) {
    wal.WaitDurable(
        wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i), std::string(64, 'y'),
                   0, 0, i + 1));
  }
  ASSERT_TRUE(wal.Flush());
  const std::size_t before = ListFilesWithPrefix(dir.path, "wal-").size();
  ASSERT_GE(before, 3u);

  wal.RemoveSegmentsBelow(20);  // a snapshot at LSN 20 covers 1..20
  const std::size_t after = ListFilesWithPrefix(dir.path, "wal-").size();
  EXPECT_LT(after, before);

  // Replay from 21 must still see every record 21..40.
  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 21, &stats, &ok);
  ASSERT_TRUE(ok);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().lsn, 21u);
  EXPECT_EQ(records.back().lsn, 40u);
  EXPECT_LE(stats.anchor_lsn, 21u);  // no gap: 21 still covered
  wal.Shutdown();
}

// The non-blocking wait: under kAlways the callback runs once, after the
// covering group commit (or inline when the LSN is already durable); under
// kEverySec it runs inline.
TEST(WalTest, NotifyDurableRunsOnceTheCoveringCommitLands) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options;
  options.dir = dir.path;
  options.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(wal.Open(options, 1));
  std::atomic<std::uint64_t> through{0};
  std::atomic<int> calls{0};
  auto record = [&](std::uint64_t durable_through) {
    through.store(durable_through);
    calls.fetch_add(1);
  };

  wal.HoldSyncForTesting(true);
  const std::uint64_t lsn = wal.Append(WalRecord::Type::kSet, "k", "v", 0, 0, 1);
  bool durable = true;
  EXPECT_FALSE(wal.DurableNow(lsn, &durable));  // the fsync is still due
  wal.NotifyDurable(lsn, record);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), 0);
  wal.HoldSyncForTesting(false);
  for (int spin = 0; spin < 5000 && calls.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_GE(through.load(), lsn);
  EXPECT_TRUE(wal.DurableNow(lsn, &durable));
  EXPECT_TRUE(durable);

  wal.NotifyDurable(lsn, record);  // already durable: inline
  EXPECT_EQ(calls.load(), 2);
  EXPECT_GE(through.load(), lsn);
  wal.Shutdown();

  TempDir dir2;
  WriteAheadLog everysec;
  options.dir = dir2.path;
  options.fsync_policy = FsyncPolicy::kEverySec;
  ASSERT_TRUE(everysec.Open(options, 1));
  const std::uint64_t lsn2 = everysec.Append(WalRecord::Type::kSet, "k", "v", 0, 0, 1);
  EXPECT_TRUE(everysec.DurableNow(lsn2, &durable));
  EXPECT_TRUE(durable);
  everysec.NotifyDurable(lsn2, record);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(through.load(), lsn2);
  everysec.Shutdown();
}

// The sync hook (the value-log sync under fsync=always) runs before the
// batch's fsync; its failure fails the whole batch — no record of it is
// ever acked — and leaves the log in its sticky error state.
TEST(WalTest, FailedSyncHookFailsTheWholeBatch) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options;
  options.dir = dir.path;
  options.fsync_policy = FsyncPolicy::kAlways;
  std::atomic<bool> hook_fails{false};
  std::atomic<int> hook_calls{0};
  wal.SetSyncHook([&] {
    hook_calls.fetch_add(1);
    return !hook_fails.load();
  });
  ASSERT_TRUE(wal.Open(options, 1));
  EXPECT_TRUE(wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "healthy", "v", 0, 0, 1)));
  EXPECT_GE(hook_calls.load(), 1);
  const std::uint64_t durable_before = wal.DurableLsn();

  hook_fails.store(true);
  wal.HoldSyncForTesting(true);  // pile three records into one batch
  const std::uint64_t first = wal.Append(WalRecord::Type::kSet, "a", "v", 0, 0, 2);
  wal.Append(WalRecord::Type::kSet, "b", "v", 0, 0, 3);
  const std::uint64_t last = wal.Append(WalRecord::Type::kSet, "c", "v", 0, 0, 4);
  std::atomic<std::uint64_t> through{UINT64_MAX};
  wal.NotifyDurable(last, [&](std::uint64_t durable_through) { through.store(durable_through); });
  wal.HoldSyncForTesting(false);
  EXPECT_FALSE(wal.WaitDurable(first));
  for (int spin = 0; spin < 5000 && through.load() == UINT64_MAX; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LT(through.load(), first);
  EXPECT_EQ(wal.DurableLsn(), durable_before);
  EXPECT_TRUE(wal.InErrorState());
  bool durable = true;
  EXPECT_TRUE(wal.DurableNow(last, &durable));
  EXPECT_FALSE(durable);
  wal.Shutdown();
}

TEST(WalTest, IoErrorIsStickyAndFailsWaitDurable) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options;
  options.dir = dir.path;
  options.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(wal.Open(options, 1));
  EXPECT_TRUE(wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "healthy", "v", 0, 0, 1)));

  wal.InjectIoErrorForTesting();
  // The record whose batch hit the I/O failure must NOT be promised durable.
  EXPECT_FALSE(wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "lost", "v", 0, 0, 2)));
  // The error is sticky: durability stays refused (instead of silently acking
  // with fsync disabled) until the log is reopened.
  EXPECT_FALSE(wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "after", "v", 0, 0, 3)));
  EXPECT_FALSE(wal.Flush());
  EXPECT_TRUE(wal.InErrorState());
  EXPECT_TRUE(wal.Stats().io_error);
  wal.Shutdown();
}

// One ack rule for every form: an LSN an fsync covered before the log
// failed stays durable, one past the watermark is refused, whether asked
// blocking, lock-free or by callback.
TEST(WalTest, EveryAckFormAgreesAfterAnIoError) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options;
  options.dir = dir.path;
  options.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(wal.Open(options, 1));
  const std::uint64_t healthy = wal.Append(WalRecord::Type::kSet, "healthy", "v", 0, 0, 1);
  ASSERT_TRUE(wal.WaitDurable(healthy));
  wal.InjectIoErrorForTesting();
  const std::uint64_t lost = wal.Append(WalRecord::Type::kSet, "lost", "v", 0, 0, 2);
  EXPECT_FALSE(wal.WaitDurable(lost));
  ASSERT_TRUE(wal.InErrorState());

  for (const std::uint64_t lsn : {healthy, lost}) {
    const bool expected = lsn == healthy;
    EXPECT_EQ(wal.WaitDurable(lsn), expected) << lsn;
    bool durable = !expected;
    EXPECT_TRUE(wal.DurableNow(lsn, &durable)) << lsn;
    EXPECT_EQ(durable, expected) << lsn;
    std::uint64_t through = UINT64_MAX;
    wal.NotifyDurable(lsn, [&](std::uint64_t durable_through) { through = durable_through; });
    ASSERT_NE(through, UINT64_MAX) << "decided inline once the log failed";
    EXPECT_EQ(lsn <= through, expected) << lsn;
  }
  wal.Shutdown();
}

TEST(WalTest, RotationFsyncAdvancesDurableLsnUnderNonePolicy) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options;
  options.dir = dir.path;
  options.fsync_policy = FsyncPolicy::kNone;
  options.segment_bytes = 128;  // rotate almost immediately
  ASSERT_TRUE(wal.Open(options, 1));
  for (int i = 0; i < 40; ++i) {
    wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i), std::string(64, 'z'), 0,
               0, i + 1);
  }
  // kNone never fsyncs on the batch path, so only the pre-rotation fsync can
  // advance durable_lsn — it must, since the rotated-out data is on disk.
  for (int spin = 0; spin < 500 && wal.DurableLsn() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(wal.DurableLsn(), 0u);
  EXPECT_GE(wal.Stats().segments_created, 2u);
  EXPECT_GT(wal.Stats().fsyncs, 0u);
  wal.Shutdown();
}

TEST(WalTest, ReplayAnchorsPastStaleSegmentsBelowStartLsn) {
  TempDir dir;
  {
    // Old log: durable LSNs 1..10.
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 1));
    for (int i = 0; i < 10; ++i) {
      wal.WaitDurable(
          wal.Append(WalRecord::Type::kSet, "old" + std::to_string(i), "v", 0, 0, i + 1));
    }
    wal.Shutdown();
  }
  {
    // A log reopened after recovering from a snapshot at LSN 25 that was
    // ahead of the durable WAL tail (crash under fsync=everysec/none before
    // the post-snapshot flush): segment wal-26 now sits next to wal-1 with
    // LSNs 11..25 existing nowhere but inside the snapshot.
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 26));
    for (int i = 0; i < 5; ++i) {
      wal.WaitDurable(
          wal.Append(WalRecord::Type::kSet, "new" + std::to_string(i), "v", 0, 0, i + 1));
    }
    wal.Shutdown();
  }
  // With the snapshot covering everything below 26, replay anchors at wal-26
  // and ignores the stale segment instead of tripping the continuity check.
  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 26, &stats, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().lsn, 26u);
  EXPECT_EQ(records.back().lsn, 30u);
  EXPECT_EQ(stats.segments_ignored, 1u);
  EXPECT_EQ(stats.anchor_lsn, 26u);

  // Without a snapshot covering the hole, the missing LSNs are real data
  // loss: replay from 1 must still fail loudly.
  WalReplayStats stats2;
  std::string error;
  EXPECT_FALSE(ReplayWal(dir.path, 1, /*truncate_torn_tail=*/false,
                         [](const WalRecord&) {}, &stats2, &error));
  EXPECT_NE(error.find("discontinuity"), std::string::npos) << error;
}

TEST(WalTest, ConcurrentAppendersGetSequentialLsnsAndGroupCommits) {
  TempDir dir;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    WriteAheadLog wal;
    WalOptions options;
    options.dir = dir.path;
    options.fsync_policy = FsyncPolicy::kAlways;
    ASSERT_TRUE(wal.Open(options, 1));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
          wal.WaitDurable(wal.Append(WalRecord::Type::kSet, key, "v", 0, 0, 1));
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    const WalStats stats = wal.Stats();
    EXPECT_EQ(stats.records_appended, static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(stats.durable_lsn, static_cast<std::uint64_t>(kThreads) * kPerThread);
    // Group commit: with 8 threads blocked on fsync, each fsync covers
    // multiple records, so there are strictly fewer fsyncs than acks.
    EXPECT_LT(stats.fsyncs, stats.records_appended);
    EXPECT_GT(stats.max_batch_records, 1u);
    wal.Shutdown();
  }
  WalReplayStats stats;
  bool ok = false;
  std::vector<WalRecord> records = ReplayAll(dir.path, 1, &stats, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);  // no gaps, no duplicates, in order
    ++seen[records[i].key];
  }
  EXPECT_EQ(seen.size(), records.size());  // every key exactly once
}

}  // namespace
}  // namespace persist
}  // namespace cuckoo
