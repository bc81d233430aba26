// Regression tests for MapStats' snapshot consistency contract (stats.h):
// the paired counters with a subset relationship must never read torn —
// a concurrent Read() may be stale, but can never report more lookup hits
// than lookups or more path invalidations than path searches. The torn
// variant (plain relaxed increments on both sides) reproduces within
// milliseconds under this load, so these tests guard the release/acquire
// pairing of IncrementRelease/SumAcquire.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cuckoo/cuckoo_map.h"
#include "src/cuckoo/flat_cuckoo_map.h"
#include "src/cuckoo/general_cuckoo_map.h"
#include "src/cuckoo/stats.h"

namespace cuckoo {
namespace {

TEST(MapStatsTest, SubsetInvariantsHoldUnderConcurrentSnapshots) {
  MapStats stats;
  constexpr int kRecorders = 4;
  constexpr std::int64_t kOpsPerThread = 200000;
  std::atomic<bool> stop{false};

  // Every recorded lookup is a hit and every path search an invalidation:
  // the worst case for the invariant, since the dependent counter trails the
  // base one by exactly one store on every single op.
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&stats] {
      for (std::int64_t i = 0; i < kOpsPerThread; ++i) {
        stats.RecordLookup(/*hit=*/true);
        stats.RecordPathSearch();
        stats.RecordPathInvalidation();
      }
    });
  }

  std::atomic<std::uint64_t> snapshots_taken{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const MapStatsSnapshot s = stats.Read();
        ASSERT_LE(s.lookup_hits, s.lookups)
            << "torn snapshot: more hits than lookups";
        ASSERT_LE(s.path_invalidations, s.path_searches)
            << "torn snapshot: more invalidations than searches";
        snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& th : recorders) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_GT(snapshots_taken.load(), 0u);

  // Quiesced: totals are exact.
  const MapStatsSnapshot s = stats.Read();
  const std::int64_t expected = kRecorders * kOpsPerThread;
  EXPECT_EQ(s.lookups, expected);
  EXPECT_EQ(s.lookup_hits, expected);
  EXPECT_EQ(s.path_searches, expected);
  EXPECT_EQ(s.path_invalidations, expected);
  EXPECT_DOUBLE_EQ(s.PathInvalidationRate(), 1.0);
}

TEST(MapStatsTest, LatencyProfilingSwitchGatesTheSampledTimers) {
  MapStats stats;
  stats.SetLatencyProfiling(false);
  EXPECT_FALSE(stats.LatencyProfilingEnabled());
  for (int i = 0; i < 512; ++i) {
    EXPECT_EQ(stats.MaybeStartLookupTimer(), 0u) << "timer fired while profiling off";
    EXPECT_EQ(stats.MaybeStartInsertTimer(), 0u) << "timer fired while profiling off";
  }
  EXPECT_EQ(stats.Read().lookup_ns.Count(), 0u);

  stats.SetLatencyProfiling(true);
  int fired = 0;
  for (int i = 0; i < 512; ++i) {
    const std::uint64_t start = stats.MaybeStartLookupTimer();
    if (start != 0) {
      ++fired;
      stats.FinishLookupTimer(start);
    }
  }
  // 1-in-64 sampling: any 512 consecutive ticks fire exactly 8 times,
  // whatever phase the thread-local counter started at.
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(stats.Read().lookup_ns.Count(), static_cast<std::uint64_t>(fired));
}

// Regression: lookup and insert must sample from independent gate counters.
// With a single shared counter, a strict insert/lookup alternation (exactly
// what RunMixedFill produces at 50% inserts) aliases with the even sampling
// period — every sample lands on the insert path and the lookup histogram
// stays empty forever.
TEST(MapStatsTest, AlternatingOpsFeedBothLatencyHistograms) {
  MapStats stats;
  stats.SetLatencyProfiling(true);
  for (int i = 0; i < 64 * 64; ++i) {
    stats.FinishInsertTimer(stats.MaybeStartInsertTimer());
    stats.FinishLookupTimer(stats.MaybeStartLookupTimer());
  }
  const MapStatsSnapshot s = stats.Read();
  EXPECT_EQ(s.insert_ns.Count(), 64u);
  EXPECT_EQ(s.lookup_ns.Count(), 64u)
      << "lookup sampling starved by a shared gate counter";
}

TEST(MapStatsTest, PathLengthHistogramClampsAtTheOverflowBucket) {
  MapStats stats;
  stats.RecordPathLength(3);
  stats.RecordPathLength(3);
  stats.RecordPathLength(5000);  // beyond MemC3's 250-hop cap: clamped
  const MapStatsSnapshot s = stats.Read();
  EXPECT_EQ(s.path_length_hist[3], 2);
  EXPECT_EQ(s.path_length_hist[kPathHistogramBuckets - 1], 1);
  EXPECT_EQ(s.MaxPathLength(), static_cast<std::int64_t>(kPathHistogramBuckets - 1));
}

TEST(MapStatsTest, SnapshotMergeAggregatesAcrossInstances) {
  MapStats a;
  MapStats b;
  a.RecordLookup(true);
  a.RecordLookup(false);
  a.RecordBatchHits(4);
  b.RecordLookup(true);
  b.RecordExpansionPauseNanos(1000);
  MapStatsSnapshot merged = a.Read();
  merged.Merge(b.Read());
  EXPECT_EQ(merged.lookups, 3);
  EXPECT_EQ(merged.lookup_hits, 2);
  EXPECT_EQ(merged.batch_hits.Count(), 1u);
  EXPECT_EQ(merged.expansion_pause_ns.Count(), 1u);
}

TEST(MapStatsTest, ResetZeroesCountersAndHistograms) {
  MapStats stats;
  stats.RecordLookup(true);
  stats.RecordPathLength(2);
  stats.RecordBatchHits(8);
  stats.Reset();
  const MapStatsSnapshot s = stats.Read();
  EXPECT_EQ(s.lookups, 0);
  EXPECT_EQ(s.lookup_hits, 0);
  EXPECT_EQ(s.path_length_hist[2], 0);
  EXPECT_EQ(s.batch_hits.Count(), 0u);
}

// One definition of the path-length histogram for every table: the engine
// records the displacements of each successful insert exactly once, 0 when
// the item went straight into a free slot — never once per executed path,
// and never for a migrator's paths.
template <typename MapT>
void ExpectOneHistogramEntryPerInsert(MapT& map, std::uint64_t keys) {
  for (std::uint64_t k = 0; k < keys; ++k) {
    ASSERT_EQ(map.Insert(k, k), InsertResult::kOk) << k;
  }
  const MapStatsSnapshot s = map.Stats();
  std::int64_t entries = 0;
  for (std::int64_t n : s.path_length_hist) {
    entries += n;
  }
  EXPECT_EQ(entries, s.inserts);
  EXPECT_EQ(s.inserts, static_cast<std::int64_t>(keys));
  EXPECT_GT(s.path_length_hist[0], 0) << "most inserts land without displacement";
  EXPECT_GT(s.MaxPathLength(), 0) << "the fill never displaced anything";
}

TEST(MapStatsTest, PathLengthHistogramCountsEachInsertOnceCuckooMap) {
  CuckooMap<std::uint64_t, std::uint64_t>::Options o;
  o.initial_bucket_count_log2 = 4;
  CuckooMap<std::uint64_t, std::uint64_t> map(o);
  ExpectOneHistogramEntryPerInsert(map, 20000);
}

TEST(MapStatsTest, PathLengthHistogramCountsEachInsertOnceGeneralMap) {
  // 8-way from 16 buckets: stop-the-world growth while the table has fewer
  // buckets than stripes, then incremental windows whose migrator runs its
  // own path searches.
  using Map = GeneralCuckooMap<std::uint64_t, std::uint64_t, DefaultHash<std::uint64_t>,
                               std::equal_to<std::uint64_t>, 8>;
  Map::Options o;
  o.initial_bucket_count_log2 = 4;
  Map map(o);
  ExpectOneHistogramEntryPerInsert(map, 20000);
  EXPECT_GT(map.Stats().migrations_started, 0);
}

TEST(MapStatsTest, PathLengthHistogramCountsEachInsertOnceFlatMap) {
  FlatOptions o;
  o.bucket_count_log2 = 12;  // 16384 slots, filled to 85%
  FlatCuckooMap<std::uint64_t, std::uint64_t> map(o);
  ExpectOneHistogramEntryPerInsert(map, 14000);
}

}  // namespace
}  // namespace cuckoo
