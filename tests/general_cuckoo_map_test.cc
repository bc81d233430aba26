// GeneralCuckooMap (§7 generality extension): arbitrary-type keys/values,
// locked reads, move-based displacement, and expansion with live non-trivial
// elements.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/cuckoo/general_cuckoo_map.h"

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

using StringMap = GeneralCuckooMap<std::string, std::string>;

TEST(GeneralCuckooMapTest, StringRoundTrip) {
  StringMap map;
  EXPECT_EQ(map.Insert(std::string("hello"), std::string("world")), InsertResult::kOk);
  EXPECT_EQ(map.Insert(std::string("hello"), std::string("again")), InsertResult::kKeyExists);
  std::string v;
  ASSERT_TRUE(map.Find("hello", &v));
  EXPECT_EQ(v, "world");
  EXPECT_TRUE(map.Update("hello", "mundo"));
  map.Find("hello", &v);
  EXPECT_EQ(v, "mundo");
  EXPECT_TRUE(map.Erase("hello"));
  EXPECT_FALSE(map.Contains("hello"));
  EXPECT_EQ(map.Size(), 0u);
}

TEST(GeneralCuckooMapTest, WithValueBatchAgreesWithSingularLookups) {
  StringMap map;
  constexpr std::size_t kN = 1000;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(map.Insert("key" + std::to_string(i), "value" + std::to_string(i)),
              InsertResult::kOk);
  }
  // Batch sizes around the pipeline depth (8) exercise lead-in/lead-out.
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                            std::size_t{64}}) {
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < batch; ++i) {
      // Every other key is a miss.
      keys.push_back(i % 2 == 0 ? "key" + std::to_string(i) : "absent" + std::to_string(i));
    }
    std::vector<std::string> got(batch);
    std::vector<bool> hit(batch, false);
    std::size_t hits =
        map.WithValueBatch(keys.data(), keys.size(), [&](std::size_t i, const std::string& v) {
          got[i] = v;
          hit[i] = true;
        });
    EXPECT_EQ(hits, (batch + 1) / 2);
    for (std::size_t i = 0; i < batch; ++i) {
      std::string single;
      ASSERT_EQ(map.Find(keys[i], &single), static_cast<bool>(hit[i])) << keys[i];
      if (hit[i]) {
        EXPECT_EQ(got[i], single);
      }
    }
  }
}

TEST(GeneralCuckooMapTest, WithValueBatchResidentKeysNeverMissedDuringInserts) {
  StringMap map;
  constexpr std::size_t kResident = 512;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kResident; ++i) {
    keys.push_back("resident" + std::to_string(i));
    ASSERT_EQ(map.Insert(keys.back(), "v"), InsertResult::kOk);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::size_t hits = map.WithValueBatch(keys.data(), keys.size(),
                                            [](std::size_t, const std::string&) {});
      misses.fetch_add(kResident - hits, std::memory_order_relaxed);
    }
  });
  // Writer churns other keys, forcing displacements and expansions.
  for (std::size_t i = 0; i < 20000; ++i) {
    map.Upsert("churn" + std::to_string(i % 4096), std::string(16, 'x'));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(misses.load(), 0u) << "resident keys must never be missed by batched reads";
}

TEST(GeneralCuckooMapTest, LongStringsSurviveDisplacementAndExpansion) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 4;  // tiny: forces displacements + expansions
  StringMap map(o);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    std::string key = "key-" + std::to_string(i) + std::string(i % 50, 'k');
    std::string value = "value-" + std::to_string(i) + std::string(i % 100, 'v');
    ASSERT_EQ(map.Insert(std::move(key), std::move(value)), InsertResult::kOk) << i;
  }
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kN));
  EXPECT_GT(map.Stats().expansions, 5);
  for (int i = 0; i < kN; ++i) {
    std::string key = "key-" + std::to_string(i) + std::string(i % 50, 'k');
    std::string expected = "value-" + std::to_string(i) + std::string(i % 100, 'v');
    std::string v;
    ASSERT_TRUE(map.Find(key, &v)) << i;
    ASSERT_EQ(v, expected) << i;
  }
}

TEST(GeneralCuckooMapTest, MoveOnlyValues) {
  GeneralCuckooMap<std::uint64_t, std::unique_ptr<std::string>> map;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(map.Insert(i, std::make_unique<std::string>("v" + std::to_string(i))),
              InsertResult::kOk);
  }
  // Find() would require copying; WithValue reads in place.
  int checked = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    bool hit = map.WithValue(i, [&](const std::unique_ptr<std::string>& p) {
      EXPECT_EQ(*p, "v" + std::to_string(i));
      ++checked;
    });
    ASSERT_TRUE(hit) << i;
  }
  EXPECT_EQ(checked, 1000);
  // Mutate through WithValueMut.
  EXPECT_TRUE(map.WithValueMut(42, [](std::unique_ptr<std::string>& p) { *p += "!"; }));
  map.WithValue(42, [](const std::unique_ptr<std::string>& p) { EXPECT_EQ(*p, "v42!"); });
  EXPECT_TRUE(map.Erase(42));
  EXPECT_FALSE(map.Contains(42));
}

TEST(GeneralCuckooMapTest, UpsertOverwrites) {
  StringMap map;
  EXPECT_EQ(map.Upsert(std::string("k"), std::string("1")), InsertResult::kOk);
  EXPECT_EQ(map.Upsert(std::string("k"), std::string("2")), InsertResult::kKeyExists);
  std::string v;
  map.Find("k", &v);
  EXPECT_EQ(v, "2");
  EXPECT_EQ(map.Size(), 1u);
}

TEST(GeneralCuckooMapTest, ModelEquivalenceRandomOps) {
  GeneralCuckooMap<std::string, std::uint64_t> map;
  std::unordered_map<std::string, std::uint64_t> model;
  Xorshift128Plus rng(31);
  for (int step = 0; step < 30000; ++step) {
    std::string key = "k" + std::to_string(rng.NextBelow(800));
    std::uint64_t value = rng.Next();
    switch (rng.NextBelow(4)) {
      case 0: {
        bool fresh = model.emplace(key, value).second;
        ASSERT_EQ(map.Insert(key, value) == InsertResult::kOk, fresh);
        break;
      }
      case 1: {
        bool existed = model.find(key) != model.end();
        ASSERT_EQ(map.Update(key, value), existed);
        if (existed) {
          model[key] = value;
        }
        break;
      }
      case 2:
        ASSERT_EQ(map.Erase(key), model.erase(key) > 0);
        break;
      case 3: {
        std::uint64_t v = 0;
        auto it = model.find(key);
        ASSERT_EQ(map.Find(key, &v), it != model.end());
        if (it != model.end()) {
          ASSERT_EQ(v, it->second);
        }
        break;
      }
    }
  }
  ASSERT_EQ(map.Size(), model.size());
  for (const auto& [key, value] : model) {
    std::uint64_t v;
    ASSERT_TRUE(map.Find(key, &v));
    ASSERT_EQ(v, value);
  }
}

TEST(GeneralCuckooMapTest, EraseIfConditional) {
  GeneralCuckooMap<std::string, int> map;
  map.Insert(std::string("k"), 5);
  EXPECT_FALSE(map.EraseIf("k", [](const int& v) { return v > 10; }));
  EXPECT_TRUE(map.Contains("k")) << "failed predicate must not erase";
  EXPECT_TRUE(map.EraseIf("k", [](const int& v) { return v == 5; }));
  EXPECT_FALSE(map.Contains("k"));
  EXPECT_FALSE(map.EraseIf("k", [](const int&) { return true; })) << "absent key";
}

TEST(GeneralCuckooMapTest, EraseIfIsAtomicWithConcurrentReplacement) {
  // Threads replace a key's value and conditionally erase stale values; the
  // predicate runs under the bucket lock, so a fresh value must never be
  // deleted by a staleness check.
  GeneralCuckooMap<std::string, std::uint64_t> map;
  map.Insert(std::string("slot"), 1);
  std::atomic<bool> stop{false};
  std::thread refresher([&] {
    std::uint64_t generation = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      map.Upsert(std::string("slot"), generation);
      generation += 2;  // refresher writes even generations
    }
  });
  std::thread reaper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // "Stale" = odd generation; the refresher only writes even ones after
      // the initial 1, so after the first refresh nothing should qualify.
      map.EraseIf("slot", [](const std::uint64_t& v) { return v % 2 == 1; });
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  refresher.join();
  reaper.join();
  // The key must still exist with an even generation (the initial odd value
  // may have been legitimately reaped once).
  std::uint64_t v = 0;
  if (map.Find("slot", &v)) {
    EXPECT_EQ(v % 2, 0u);
  }
  // The map survived the race intact and stays fully usable.
  EXPECT_EQ(map.Upsert(std::string("slot"), 42u) == InsertResult::kOk ||
                map.Contains("slot"),
            true);
}

TEST(GeneralCuckooMapTest, ConcurrentStringWritersAndReaders) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 8;
  StringMap map(o);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = std::to_string(t) + ":" + std::to_string(i);
        EXPECT_EQ(map.Insert(key, "v" + key), InsertResult::kOk);
        // Immediately read back a key this thread owns.
        std::string v;
        EXPECT_TRUE(map.Find(key, &v));
        EXPECT_EQ(v, "v" + key);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(GeneralCuckooMapTest, ConcurrentReadersDuringDisplacements) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 9;
  o.auto_expand = false;  // keep buckets fixed -> displacement traffic
  StringMap map(o);
  constexpr int kResident = 1400;  // ~68% of 2048 slots at B=4
  for (int i = 0; i < kResident; ++i) {
    ASSERT_EQ(map.Insert("res" + std::to_string(i), std::to_string(i)), InsertResult::kOk);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::thread reader([&] {
    int i = 0;
    std::string v;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!map.Find("res" + std::to_string(i % kResident), &v)) {
        misses.fetch_add(1);
      }
      ++i;
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < 550; ++i) {
      map.Insert("extra" + std::to_string(i), "x");
    }
  });
  writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST(GeneralCuckooMapTest, ForEachVisitsEverythingExactlyOnce) {
  StringMap map;
  for (int i = 0; i < 500; ++i) {
    map.Insert("k" + std::to_string(i), std::to_string(i));
  }
  std::unordered_map<std::string, int> seen;
  map.ForEach([&](const std::string& k, std::string& v) {
    ++seen[k];
    v += "!";  // mutation through ForEach must stick
  });
  EXPECT_EQ(seen.size(), 500u);
  for (const auto& [k, count] : seen) {
    EXPECT_EQ(count, 1) << k;
  }
  std::string v;
  ASSERT_TRUE(map.Find("k123", &v));
  EXPECT_EQ(v, "123!");
}

TEST(GeneralCuckooMapTest, ReserveAvoidsExpansions) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 4;
  StringMap map(o);
  map.Reserve(10000);
  const std::int64_t reserve_expansions = map.Stats().expansions;
  EXPECT_GT(reserve_expansions, 0) << "Reserve itself grows the table";
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(map.Insert("k" + std::to_string(i), "v"), InsertResult::kOk);
  }
  EXPECT_EQ(map.Stats().expansions, reserve_expansions)
      << "the reserved fill must trigger no further growth";
}

TEST(GeneralCuckooMapTest, ClearDestroysElements) {
  // Track destructions through a shared_ptr payload.
  auto token = std::make_shared<int>(7);
  {
    GeneralCuckooMap<std::uint64_t, std::shared_ptr<int>> map;
    for (std::uint64_t i = 0; i < 100; ++i) {
      map.Insert(i, token);
    }
    EXPECT_EQ(token.use_count(), 101);
    map.Clear();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(map.Size(), 0u);
    map.Insert(1, token);
    EXPECT_EQ(token.use_count(), 2);
  }
  // Destructor releases remaining elements.
  EXPECT_EQ(token.use_count(), 1);
}

// ----- Incremental expansion ------------------------------------------------

// Poll until every opened migration window has drained (the background
// migrator runs on its own schedule).
template <typename Map>
void WaitForMigrationsToComplete(const Map& map) {
  for (int i = 0; i < 10000; ++i) {
    const MapStatsSnapshot s = map.Stats();
    if (s.migrations_completed == s.migrations_started) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "migration window never drained";
}

TEST(GeneralCuckooMapTest, IncrementalExpansionKeepsEveryKeyVisible) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 6;  // 64 buckets
  o.stripe_count = 8;               // 64 % 8 == 0: incremental from the start
  StringMap map(o);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 6000;
  std::atomic<int> writers_done{0};
  std::atomic<int> reader_misses{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        std::string key = "w" + std::to_string(w) + ":" + std::to_string(i);
        EXPECT_EQ(map.Insert(key, "v" + key), InsertResult::kOk);
        // Read-your-writes must hold across the two-core window: the key may
        // still sit in the draining core or have just been piggybacked over.
        std::string v;
        EXPECT_TRUE(map.Find(key, &v)) << key;
        EXPECT_EQ(v, "v" + key);
      }
      writers_done.fetch_add(1);
    });
  }
  // A reader hammering each writer's older keys while cores swap under it.
  threads.emplace_back([&] {
    std::string v;
    int i = 0;
    while (writers_done.load() < kWriters) {
      std::string key = "w" + std::to_string(i % kWriters) + ":" + std::to_string(i % 100);
      if (map.Contains(key) && !map.Find(key, &v)) {
        reader_misses.fetch_add(1);
      }
      ++i;
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(reader_misses.load(), 0);
  EXPECT_EQ(map.Size(), static_cast<std::size_t>(kWriters * kPerWriter));
  const MapStatsSnapshot stats = map.Stats();
  EXPECT_GT(stats.migrations_started, 0) << "expansions must have gone incremental";
  WaitForMigrationsToComplete(map);
  // Every key must still be present after the old cores fully drained.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      std::string key = "w" + std::to_string(w) + ":" + std::to_string(i);
      std::string v;
      ASSERT_TRUE(map.Find(key, &v)) << key;
      ASSERT_EQ(v, "v" + key);
    }
  }
}

TEST(GeneralCuckooMapTest, MigrationGaugesReportCompletedDrain) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 6;
  o.stripe_count = 8;
  StringMap map(o);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_EQ(map.Insert("k" + std::to_string(i), "v"), InsertResult::kOk);
  }
  WaitForMigrationsToComplete(map);
  const MapStatsSnapshot stats = map.Stats();
  ASSERT_GT(stats.migrations_started, 0);
  EXPECT_EQ(stats.migrations_completed, stats.migrations_started);
  EXPECT_GT(stats.migrated_entries, 0) << "the drain must have moved residents";
  // The progress gauge pair describes the last window: fully drained.
  EXPECT_GT(stats.migration_buckets_total, 0);
  EXPECT_EQ(stats.migration_buckets_done, stats.migration_buckets_total);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(map.Contains("k" + std::to_string(i))) << i;
  }
}

TEST(GeneralCuckooMapTest, StopTheWorldFallbackWhenIncrementalDisabled) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 4;
  o.stripe_count = 2048;  // more stripes than the 1024 buckets the table grows to
  StringMap map(o);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_EQ(map.Insert("k" + std::to_string(i), std::to_string(i)), InsertResult::kOk);
  }
  const MapStatsSnapshot stats = map.Stats();
  EXPECT_GT(stats.expansions, 0);
  EXPECT_EQ(stats.migrations_started, 0) << "misaligned stripes must force stop-the-world";
  for (int i = 0; i < 3000; ++i) {
    std::string v;
    ASSERT_TRUE(map.Find("k" + std::to_string(i), &v)) << i;
    ASSERT_EQ(v, std::to_string(i));
  }
}

TEST(GeneralCuckooMapTest, UnalignedTablesFallBackThenGoIncremental) {
  // 16 buckets with 64 stripes: 16 % 64 != 0, so the first expansions are
  // stop-the-world; once the table reaches 64 buckets the alignment
  // invariant holds and expansion goes online.
  StringMap::Options o;
  o.initial_bucket_count_log2 = 4;
  o.stripe_count = 64;
  StringMap map(o);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_EQ(map.Insert("k" + std::to_string(i), "v"), InsertResult::kOk);
  }
  const MapStatsSnapshot stats = map.Stats();
  EXPECT_GT(stats.expansions, stats.migrations_started)
      << "the sub-stripe-count expansions must have been stop-the-world";
  EXPECT_GT(stats.migrations_started, 0)
      << "expansions past 64 buckets must have gone incremental";
  WaitForMigrationsToComplete(map);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(map.Contains("k" + std::to_string(i))) << i;
  }
}

TEST(GeneralCuckooMapTest, ClearDuringOpenMigrationWindow) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 6;
  o.stripe_count = 8;
  o.help_drain_buckets = 1;  // keep windows open longer
  StringMap map(o);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(map.Insert("r" + std::to_string(round) + ":" + std::to_string(i), "v"),
                InsertResult::kOk);
    }
    // Clear may land mid-window: it must cancel the migrator, empty both
    // cores, and leave the map reusable.
    map.Clear();
    EXPECT_EQ(map.Size(), 0u);
    EXPECT_FALSE(map.Contains("r" + std::to_string(round) + ":0"));
  }
}

TEST(GeneralCuckooMapTest, MoveOnlyValuesSurviveIncrementalExpansion) {
  using MoveOnlyMap = GeneralCuckooMap<std::uint64_t, std::unique_ptr<std::string>>;
  MoveOnlyMap::Options o;
  o.initial_bucket_count_log2 = 6;
  o.stripe_count = 8;
  MoveOnlyMap map(o);
  constexpr std::uint64_t kN = 4000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(map.Insert(i, std::make_unique<std::string>(std::to_string(i))),
              InsertResult::kOk);
  }
  WaitForMigrationsToComplete(map);
  EXPECT_GT(map.Stats().migrations_started, 0);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(map.WithValue(
        i, [&](const std::unique_ptr<std::string>& p) { EXPECT_EQ(*p, std::to_string(i)); }))
        << i;
  }
}

struct SnapshotSink {
  template <typename A, typename B>
  void operator()(const A&, const B&) const {}
};

// Dependent context: a requires-expression over a non-dependent type makes
// the failed call a hard error instead of evaluating to false.
template <typename M>
constexpr bool kSnapshotable =
    requires(const M& m, SnapshotSink s) { m.TrySnapshotBuckets(s); };

TEST(GeneralCuckooMapTest, SnapshotUnavailableForMoveOnlyElements) {
  // The displacement side log stores copies; for move-only K/V the walk
  // would silently drop displaced elements, so the overload must not exist
  // (detectable, rather than silently incomplete snapshots).
  using MoveOnlyMap = GeneralCuckooMap<std::uint64_t, std::unique_ptr<std::string>>;
  using CopyableMap = GeneralCuckooMap<std::uint64_t, std::string>;
  static_assert(!kSnapshotable<MoveOnlyMap>,
                "TrySnapshotBuckets must be constrained away for move-only V");
  static_assert(kSnapshotable<CopyableMap>,
                "TrySnapshotBuckets must remain available for copyable K/V");
}

TEST(GeneralCuckooMapTest, FixedSizeReportsTableFull) {
  StringMap::Options o;
  o.initial_bucket_count_log2 = 4;  // 64 slots
  o.auto_expand = false;
  StringMap map(o);
  int inserted = 0;
  while (map.Insert("k" + std::to_string(inserted), "v") == InsertResult::kOk) {
    ++inserted;
  }
  EXPECT_GT(inserted, 40);  // >60% of 64 slots at B=4
  EXPECT_GT(map.Stats().insert_failures, 0);
}

}  // namespace
}  // namespace cuckoo
