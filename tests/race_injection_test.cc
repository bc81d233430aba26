// Deterministic race tests driven by the schedule-perturbation test points
// (src/common/test_points.h). Each test arms a handler inside one of the
// protocol windows and performs a conflicting operation there, forcing the
// exact interleaving the §4.3.1/§4.4 validation machinery exists to survive:
//
//   * a cuckoo path invalidated between discovery and execution (Appendix B),
//   * an optimistic reader invalidated between snapshot and validation,
//   * a reversed-argument bucket-pair lock ordered by the canonical stripe
//     discipline instead of deadlocking.
//
// The whole file is inert unless built with -DCUCKOO_ENABLE_TEST_POINTS=1
// (the tsan/asan/ubsan/debug presets); the release tier then just reports
// skipped tests.
#include "src/common/test_points.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/debug_checks.h"
#include "src/common/striped_locks.h"
#include "src/cuckoo/cuckoo_map.h"
#include "src/cuckoo/flat_cuckoo_map.h"
#include "src/cuckoo/general_cuckoo_map.h"
#include "src/cuckoo/types.h"

#if !CUCKOO_ENABLE_TEST_POINTS

TEST(RaceInjectionTest, RequiresTestPoints) {
  GTEST_SKIP() << "built without CUCKOO_ENABLE_TEST_POINTS; use the tsan/asan/"
                  "ubsan/debug presets to run the deterministic race tests";
}

#else

namespace cuckoo {
namespace {

using testpoints::ScopedHandler;

// ---------------------------------------------------------------------------
// 1. Path invalidated between discovery and execution (CuckooMap, §4.3.1).
//
// The inserting thread discovers a cuckoo path with no lock held. Before it
// takes the first displacement lock, the armed handler erases every item in
// the table, so every hop's source tag is gone. ExecutePath's per-hop
// validation must fail (counted as a path invalidation), and the retried
// insert must succeed against the now-empty table.
TEST(RaceInjectionTest, PathInvalidatedBetweenDiscoveryAndExecution) {
  using Map = CuckooMap<std::uint64_t, std::uint64_t>;
  Map::Options opts;
  opts.initial_bucket_count_log2 = 4;  // 16 buckets * 8 slots = 128 slots
  opts.auto_expand = false;            // keep the table crowded
  Map map(opts);

  // Fill to ~90% so fresh inserts reliably need a cuckoo path.
  std::vector<std::uint64_t> resident;
  for (std::uint64_t k = 1; map.Size() < 115 && k < 100000; ++k) {
    if (map.Insert(k, k) == InsertResult::kOk) {
      resident.push_back(k);
    }
  }
  ASSERT_GE(map.Size(), 100u) << "BFS should pack a 128-slot table past 100";

  const std::int64_t invalidations_before = map.Stats().path_invalidations;

  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kInsertAfterPathDiscovery,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        for (std::uint64_t k : resident) {
          map.Erase(k);  // consumes every path's source slots
        }
      },
      /*max_fires=*/1);

  // Probe keys until one actually needs a path search (free slots left by the
  // fill may absorb the first few).
  std::uint64_t probe = 1'000'000;
  InsertResult last = InsertResult::kOk;
  for (int i = 0; fired.load(std::memory_order_relaxed) == 0 && i < 10000; ++i) {
    last = map.Insert(probe, probe);
    ++probe;
  }
  ASSERT_EQ(fired.load(), 1) << "no insert ever reached the path-discovery window";
  EXPECT_EQ(last, InsertResult::kOk) << "insert must survive the invalidated path";

  EXPECT_GE(map.Stats().path_invalidations, invalidations_before + 1)
      << "the erased path must fail validate-and-execute";
  for (std::uint64_t k : resident) {
    EXPECT_FALSE(map.Contains(k));
  }
  map.AssertInvariants();
}

// Same window for FlatCuckooMap's Algorithm 2 ("lock after discovering a
// cuckoo path"): the handler fires between SearchPath and taking the global
// lock, erases the table, and ExecutePathLocked must reject the stale path.
TEST(RaceInjectionTest, FlatMapLockLaterPathInvalidated) {
  FlatOptions opts;
  opts.bucket_count_log2 = 4;  // 16 buckets * 4 slots = 64 slots
  opts.search_mode = SearchMode::kBfs;
  opts.lock_after_discovery = true;
  FlatCuckooMap<std::uint64_t, std::uint64_t> map(opts);

  std::vector<std::uint64_t> resident;
  for (std::uint64_t k = 1; map.Size() < 55 && k < 100000; ++k) {
    if (map.Insert(k, k) == InsertResult::kOk) {
      resident.push_back(k);
    }
  }
  ASSERT_GE(map.Size(), 48u);

  const std::int64_t invalidations_before = map.Stats().path_invalidations;

  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kInsertAfterPathDiscovery,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        for (std::uint64_t k : resident) {
          map.Erase(k);
        }
      },
      /*max_fires=*/1);

  std::uint64_t probe = 1'000'000;
  InsertResult last = InsertResult::kOk;
  for (int i = 0; fired.load(std::memory_order_relaxed) == 0 && i < 10000; ++i) {
    last = map.Insert(probe, probe);
    ++probe;
  }
  ASSERT_EQ(fired.load(), 1);
  EXPECT_EQ(last, InsertResult::kOk);
  EXPECT_GE(map.Stats().path_invalidations, invalidations_before + 1);
  for (std::uint64_t k : resident) {
    EXPECT_FALSE(map.Contains(k));
  }
}

// ---------------------------------------------------------------------------
// 2. Optimistic reader invalidated mid-read (§4.4 seqlock validation).
//
// The handler runs on the reading thread between its version snapshot and the
// data read, and overwrites the value it is about to load. Validation must
// fail (version bumped), the read must retry, and the retry must return the
// new value — never a torn or stale one.
TEST(RaceInjectionTest, ReaderRetriesWhenWriterInvalidatesAfterSnapshot) {
  using Map = CuckooMap<std::uint64_t, std::uint64_t>;
  Map::Options opts;
  opts.initial_bucket_count_log2 = 8;
  Map map(opts);
  ASSERT_EQ(map.Insert(1, 100), InsertResult::kOk);

  const std::int64_t retries_before = map.Stats().read_retries;
  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kReadAfterVersionSnapshot,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(map.Update(1, 200));
      },
      /*max_fires=*/1);

  std::uint64_t out = 0;
  ASSERT_TRUE(map.Find(1, &out));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(out, 200u) << "retried read must observe the concurrent update";
  EXPECT_GE(map.Stats().read_retries, retries_before + 1)
      << "the version bump must invalidate the in-flight read";
}

// Same protocol, second window: the writer slips in after the reader already
// copied the (stale) value but before validation. The stale copy must be
// discarded by the version check.
TEST(RaceInjectionTest, ReaderDiscardsStaleValueCopiedBeforeValidation) {
  using Map = CuckooMap<std::uint64_t, std::uint64_t>;
  Map::Options opts;
  opts.initial_bucket_count_log2 = 8;
  Map map(opts);
  ASSERT_EQ(map.Insert(7, 100), InsertResult::kOk);

  const std::int64_t retries_before = map.Stats().read_retries;
  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kReadBeforeValidate,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(map.Update(7, 300));
      },
      /*max_fires=*/1);

  std::uint64_t out = 0;
  ASSERT_TRUE(map.Find(7, &out));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(out, 300u) << "the pre-update copy must not escape validation";
  EXPECT_GE(map.Stats().read_retries, retries_before + 1);
}

// FlatCuckooMap shares the same seqlock read protocol; cover it too.
TEST(RaceInjectionTest, FlatMapReaderRetriesOnConcurrentUpdate) {
  FlatOptions opts;
  opts.bucket_count_log2 = 8;
  FlatCuckooMap<std::uint64_t, std::uint64_t> map(opts);
  ASSERT_EQ(map.Insert(1, 100), InsertResult::kOk);

  const std::int64_t retries_before = map.Stats().read_retries;
  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kReadAfterVersionSnapshot,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(map.Update(1, 200));
      },
      /*max_fires=*/1);

  std::uint64_t out = 0;
  ASSERT_TRUE(map.Find(1, &out));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(out, 200u);
  EXPECT_GE(map.Stats().read_retries, retries_before + 1);
}

// ---------------------------------------------------------------------------
// 3. Stripe-ordered double lock (§4.4 deadlock avoidance).
//
// Thread A locks the pair (2, 5) and is held inside the window between its
// two acquisitions (holding stripe 2, not yet stripe 5). Thread B then locks
// the same pair with the arguments REVERSED. Because LockPair canonicalizes
// to ascending stripe order, B also starts with stripe 2, blocks behind A,
// and the classic AB/BA deadlock cannot form: A finishes both acquisitions
// strictly before B gets either lock.
TEST(RaceInjectionTest, StripeOrderedDoubleLockCannotDeadlock) {
  LockStripes stripes(16);
  constexpr std::size_t kLow = 2;   // bucket 2 -> stripe 2
  constexpr std::size_t kHigh = 5;  // bucket 5 -> stripe 5

  std::atomic<bool> a_in_window{false};
  std::atomic<bool> b_attempting{false};
  std::atomic<bool> a_locked_both{false};
  std::atomic<bool> b_locked_both{false};

  // One-shot: fires on thread A only (B's pass through the window is budget-
  // exhausted). Holds A inside the window until B has committed to its
  // reversed acquisition, then lingers so B is really blocked on stripe 2.
  ScopedHandler handler(
      TestPoint::kPairLockBetweenAcquires,
      [&] {
#if CUCKOO_DEBUG_CHECKS
        EXPECT_EQ(debug::HeldStripeCount(&stripes), 1u);
#endif
        a_in_window.store(true, std::memory_order_release);
        while (!b_attempting.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_FALSE(b_locked_both.load(std::memory_order_acquire))
            << "B must not own the pair while A sits between its acquisitions";
      },
      /*max_fires=*/1);

  std::thread a([&] {
    stripes.LockPair(kLow, kHigh);
    a_locked_both.store(true, std::memory_order_release);
    // B is blocked on stripe 2 (its canonical first lock) until we release.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(b_locked_both.load(std::memory_order_acquire));
    stripes.UnlockPair(kLow, kHigh);
  });

  std::thread b([&] {
    while (!a_in_window.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    b_attempting.store(true, std::memory_order_release);
    stripes.LockPair(kHigh, kLow);  // reversed arguments, same canonical order
    EXPECT_TRUE(a_locked_both.load(std::memory_order_acquire))
        << "A must complete both acquisitions before B gets either stripe";
    b_locked_both.store(true, std::memory_order_release);
    stripes.UnlockPair(kHigh, kLow);
  });

  a.join();
  b.join();
  EXPECT_TRUE(b_locked_both.load());
  // Both threads released via UnlockPair: each stripe's version advanced twice
  // and no lock bit is left behind.
  EXPECT_EQ(stripes.Stripe(kLow).AwaitVersion(), 2u);
  EXPECT_EQ(stripes.Stripe(kHigh).AwaitVersion(), 2u);
}

// ---------------------------------------------------------------------------
// 4. Expansion allocates the fresh core OUTSIDE the writer-visible pause.
//
// kExpansionCoreAllocated fires after the first-attempt core is allocated
// (and zeroed) but before any stripe is taken. The handler performs a table
// read from inside the window: if the allocation ever regresses to inside
// the AllGuard hold, the read self-deadlocks (the expanding thread already
// owns every stripe / has every seqlock version odd) and the test hangs
// instead of passing. The pause histogram must meanwhile have recorded one
// sample per expansion — the pause accounting survives the hoist.
TEST(RaceInjectionTest, CuckooMapExpansionAllocatesCoreOutsidePause) {
  using Map = CuckooMap<std::uint64_t, std::uint64_t>;
  Map::Options opts;
  opts.initial_bucket_count_log2 = 4;  // tiny: first fill forces an expansion
  Map map(opts);
  ASSERT_EQ(map.Insert(42, 4242), InsertResult::kOk);

  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kExpansionCoreAllocated,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t out = 0;
        EXPECT_TRUE(map.Find(42, &out)) << "reads must run during core allocation";
        EXPECT_EQ(out, 4242u);
      },
      /*max_fires=*/1);

  for (std::uint64_t k = 100; fired.load(std::memory_order_relaxed) == 0 && k < 100000;
       ++k) {
    ASSERT_NE(map.Insert(k, k), InsertResult::kTableFull);
  }
  ASSERT_EQ(fired.load(), 1) << "the fill never triggered an expansion";
  const auto stats = map.Stats();
  EXPECT_GT(stats.expansions, 0);
  EXPECT_EQ(stats.expansion_pause_ns.Count(),
            static_cast<std::uint64_t>(stats.expansions))
      << "each expansion must still record exactly one pause sample";
}

// Same window for GeneralCuckooMap, both expansion flavors. Locked reads make
// the deadlock-on-regression even more direct: Contains() takes the bucket's
// stripe, which the expanding thread would already hold.
TEST(RaceInjectionTest, GeneralMapStopTheWorldExpansionAllocatesCoreOutsidePause) {
  using Map = GeneralCuckooMap<std::uint64_t, std::uint64_t>;
  Map::Options opts;
  opts.initial_bucket_count_log2 = 4;
  opts.stripe_count = 64;  // more stripes than buckets: growth stays stop-the-world
  Map map(opts);
  ASSERT_EQ(map.Insert(42, 4242), InsertResult::kOk);

  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kExpansionCoreAllocated,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        EXPECT_TRUE(map.Contains(42)) << "locked reads must run during allocation";
      },
      /*max_fires=*/1);

  for (std::uint64_t k = 100; fired.load(std::memory_order_relaxed) == 0 && k < 100000;
       ++k) {
    ASSERT_NE(map.Insert(k, k), InsertResult::kTableFull);
  }
  ASSERT_EQ(fired.load(), 1);
  const auto stats = map.Stats();
  EXPECT_GT(stats.expansions, 0);
  EXPECT_EQ(stats.migrations_started, 0);
  EXPECT_EQ(stats.expansion_pause_ns.Count(),
            static_cast<std::uint64_t>(stats.expansions));
}

TEST(RaceInjectionTest, GeneralMapIncrementalExpansionAllocatesCoreOutsidePause) {
  using Map = GeneralCuckooMap<std::uint64_t, std::uint64_t>;
  Map::Options opts;
  opts.initial_bucket_count_log2 = 6;
  opts.stripe_count = 8;  // aligned from the start: expansion goes incremental
  Map map(opts);
  ASSERT_EQ(map.Insert(42, 4242), InsertResult::kOk);

  std::atomic<int> fired{0};
  ScopedHandler handler(
      TestPoint::kExpansionCoreAllocated,
      [&] {
        fired.fetch_add(1, std::memory_order_relaxed);
        EXPECT_TRUE(map.Contains(42));
      },
      /*max_fires=*/1);

  for (std::uint64_t k = 100; fired.load(std::memory_order_relaxed) == 0 && k < 100000;
       ++k) {
    ASSERT_NE(map.Insert(k, k), InsertResult::kTableFull);
  }
  ASSERT_EQ(fired.load(), 1);
  const auto stats = map.Stats();
  EXPECT_GT(stats.migrations_started, 0) << "the expansion must have gone incremental";
  EXPECT_EQ(stats.expansion_pause_ns.Count(),
            static_cast<std::uint64_t>(stats.expansions));
}

}  // namespace
}  // namespace cuckoo

#endif  // CUCKOO_ENABLE_TEST_POINTS
