// WalTailer over a live fsync=always log: the writer keeps zero fill ahead
// of its records, so a tailer that reads past the last written frame sees
// zeros the writer later overwrites.
#include "src/persist/wal_tailer.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "src/persist/wal.h"

namespace cuckoo {
namespace persist {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_tailer_XXXXXX";
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

WalOptions AlwaysOptions(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  return options;
}

std::string ValueFor(std::uint64_t lsn) {
  return std::string(1024, static_cast<char>('a' + lsn % 26));
}

// A tailer that looked past the last record (here: a watermark one ahead of
// the writer) has read zero fill. The record the writer then puts there must
// still be delivered, not skipped.
TEST(WalTailerTest, RereadsZeroFillTheWriterOverwrote) {
  TempDir dir;
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(AlwaysOptions(dir.path), 1));
  ASSERT_TRUE(wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "k1", "v1", 0, 0, 1)));
  ASSERT_GT(wal.Stats().prefill_bytes, 0u);

  WalTailer tailer;
  std::string error;
  ASSERT_TRUE(tailer.Open(dir.path, 1, &error)) << error;
  WalRecord record;
  ASSERT_EQ(tailer.Next(wal.WrittenLsn(), &record, &error), WalTailer::Result::kRecord);
  EXPECT_EQ(record.key, "k1");
  EXPECT_EQ(tailer.Next(wal.WrittenLsn() + 1, &record, &error), WalTailer::Result::kCaughtUp)
      << error;

  ASSERT_TRUE(wal.WaitDurable(wal.Append(WalRecord::Type::kSet, "k2", "v2", 0, 0, 2)));
  ASSERT_EQ(tailer.Next(wal.WrittenLsn(), &record, &error), WalTailer::Result::kRecord)
      << error;
  EXPECT_EQ(record.lsn, 2u);
  EXPECT_EQ(record.key, "k2");
  EXPECT_EQ(record.data, "v2");
  wal.Shutdown();
}

// A tailer following a live log through prefill chunk boundaries and
// segment rotations delivers every record exactly once, in LSN order.
TEST(WalTailerTest, FollowsALiveAlwaysLogThroughChunksAndRotations) {
  TempDir dir;
  WriteAheadLog wal;
  WalOptions options = AlwaysOptions(dir.path);
  options.segment_bytes = 2 * internal::kWalPrefillChunk;
  ASSERT_TRUE(wal.Open(options, 1));
  constexpr std::uint64_t kRecords = 5000;  // ~5.3 MiB: chunks and rotations

  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      const std::uint64_t lsn = wal.Append(WalRecord::Type::kSet, "key" + std::to_string(i),
                                           ValueFor(i), 0, 0, i);
      if (i % 16 == 0) {
        wal.WaitDurable(lsn);  // many small group commits, each its own write()
      }
    }
    wal.Flush();
  });

  WalTailer tailer;
  std::string error;
  ASSERT_TRUE(tailer.Open(dir.path, 1, &error)) << error;
  std::uint64_t next = 1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (next <= kRecords && std::chrono::steady_clock::now() < deadline) {
    WalRecord record;
    const WalTailer::Result r = tailer.Next(wal.WrittenLsn(), &record, &error);
    ASSERT_NE(r, WalTailer::Result::kError) << error;
    if (r == WalTailer::Result::kCaughtUp) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(record.lsn, next);
    ASSERT_EQ(record.key, "key" + std::to_string(next));
    ASSERT_EQ(record.data, ValueFor(next));
    ++next;
  }
  writer.join();
  EXPECT_EQ(next, kRecords + 1) << "tailer stalled";
  WalRecord extra;
  EXPECT_EQ(tailer.Next(wal.WrittenLsn(), &extra, &error), WalTailer::Result::kCaughtUp);
  const WalStats stats = wal.Stats();
  EXPECT_GE(stats.segments_created, 3u);
  EXPECT_GE(stats.prefill_bytes, 2 * internal::kWalPrefillChunk);
  wal.Shutdown();
}

}  // namespace
}  // namespace persist
}  // namespace cuckoo
