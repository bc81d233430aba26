// API conformance: every map type in the repo must agree on the semantics of
// the shared interface (Insert / duplicate handling / Find / Update / Upsert
// / Erase / Size), verified through one typed suite — plus a deterministic
// randomized fuzz harness replaying seeded op sequences against a
// std::unordered_map oracle (see MapFuzzTest below).
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/baselines/chaining_map.h"
#include "src/baselines/concurrent_chaining_map.h"
#include "src/baselines/dense_map.h"
#include "src/baselines/global_lock_map.h"
#include "src/common/random.h"
#include "src/common/spinlock.h"
#include "src/cuckoo/clock_cache.h"
#include "src/cuckoo/cuckoo_map.h"
#include "src/cuckoo/flat_cuckoo_map.h"
#include "src/cuckoo/general_cuckoo_map.h"
#include "src/common/file_util.h"
#include "src/cuckoo/sharded_map.h"
#include "src/cuckoo/simd_probe.h"
#include "src/kvserver/kv_service.h"
#include "src/store/tiered_store.h"

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

using K = std::uint64_t;
using V = std::uint64_t;

// Uniform construction across heterogeneous constructors.
template <typename MapT>
std::unique_ptr<MapT> MakeMap() {
  return std::make_unique<MapT>();
}

template <>
std::unique_ptr<CuckooMap<K, V>> MakeMap() {
  CuckooMap<K, V>::Options o;
  o.initial_bucket_count_log2 = 10;
  return std::make_unique<CuckooMap<K, V>>(o);
}

template <>
std::unique_ptr<FlatCuckooMap<K, V>> MakeMap() {
  FlatOptions o;
  o.bucket_count_log2 = 13;  // 32K slots: BulkRoundTrip must fit
  o.lock_after_discovery = true;
  o.search_mode = SearchMode::kBfs;
  return std::make_unique<FlatCuckooMap<K, V>>(o);
}

template <>
std::unique_ptr<GeneralCuckooMap<K, V>> MakeMap() {
  GeneralCuckooMap<K, V>::Options o;
  o.initial_bucket_count_log2 = 10;
  return std::make_unique<GeneralCuckooMap<K, V>>(o);
}

template <typename MapT>
class MapConformanceTest : public ::testing::Test {
 protected:
  std::unique_ptr<MapT> map_ = MakeMap<MapT>();
};

using MapTypes = ::testing::Types<
    CuckooMap<K, V>, FlatCuckooMap<K, V>, GeneralCuckooMap<K, V>, ChainingMap<K, V>,
    DenseMap<K, V>, ConcurrentChainingMap<K, V>,
    GlobalLockMap<ChainingMap<K, V>, std::mutex>, GlobalLockMap<DenseMap<K, V>, SpinLock>>;
TYPED_TEST_SUITE(MapConformanceTest, MapTypes);

TYPED_TEST(MapConformanceTest, EmptyMapSemantics) {
  auto& map = *this->map_;
  EXPECT_EQ(map.Size(), 0u);
  V v;
  EXPECT_FALSE(map.Find(1, &v));
  EXPECT_FALSE(map.Contains(1));
  EXPECT_FALSE(map.Erase(1));
  EXPECT_FALSE(map.Update(1, 2));
}

TYPED_TEST(MapConformanceTest, InsertIsFirstWriterWins) {
  auto& map = *this->map_;
  EXPECT_EQ(map.Insert(K{10}, V{100}), InsertResult::kOk);
  EXPECT_EQ(map.Insert(K{10}, V{200}), InsertResult::kKeyExists);
  V v = 0;
  ASSERT_TRUE(map.Find(10, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(map.Size(), 1u);
}

TYPED_TEST(MapConformanceTest, UpsertIsLastWriterWins) {
  auto& map = *this->map_;
  EXPECT_EQ(map.Upsert(K{10}, V{1}), InsertResult::kOk);
  EXPECT_EQ(map.Upsert(K{10}, V{2}), InsertResult::kKeyExists);
  V v = 0;
  ASSERT_TRUE(map.Find(10, &v));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(map.Size(), 1u);
}

TYPED_TEST(MapConformanceTest, UpdateOnlyTouchesExisting) {
  auto& map = *this->map_;
  EXPECT_FALSE(map.Update(K{5}, V{1}));
  EXPECT_EQ(map.Size(), 0u);
  map.Insert(K{5}, V{1});
  EXPECT_TRUE(map.Update(K{5}, V{9}));
  V v = 0;
  map.Find(5, &v);
  EXPECT_EQ(v, 9u);
}

TYPED_TEST(MapConformanceTest, EraseThenReinsert) {
  auto& map = *this->map_;
  map.Insert(K{7}, V{70});
  EXPECT_TRUE(map.Erase(7));
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_FALSE(map.Contains(7));
  EXPECT_EQ(map.Insert(K{7}, V{71}), InsertResult::kOk);
  V v = 0;
  ASSERT_TRUE(map.Find(7, &v));
  EXPECT_EQ(v, 71u);
}

TYPED_TEST(MapConformanceTest, BulkRoundTrip) {
  auto& map = *this->map_;
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(map.Insert(K{i}, V{i ^ 0xabcdu}), InsertResult::kOk) << i;
  }
  EXPECT_EQ(map.Size(), kN);
  V v = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(map.Find(i, &v)) << i;
    ASSERT_EQ(v, i ^ 0xabcdu);
  }
  // Erase every third key, verify the rest untouched.
  for (std::uint64_t i = 0; i < kN; i += 3) {
    ASSERT_TRUE(map.Erase(i));
  }
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(map.Find(i, &v), i % 3 != 0) << i;
  }
}

TYPED_TEST(MapConformanceTest, HeapBytesIsPositiveAndGrows) {
  auto& map = *this->map_;
  std::size_t before = map.HeapBytes();
  EXPECT_GT(before, 0u);
  for (std::uint64_t i = 0; i < 50000; ++i) {
    map.Insert(K{i}, V{i});
  }
  EXPECT_GE(map.HeapBytes(), before);
}

// ---------------------------------------------------------------------------
// Deterministic randomized fuzz: one seeded op-sequence generator replayed
// against each cuckoo map variant and a std::unordered_map oracle. Every op
// outcome (return value, looked-up value, size) must match the oracle; a
// divergence fails with the seed and the minimal failing prefix so the run
// reproduces exactly via CUCKOO_FUZZ_SEED=<seed>.
// ---------------------------------------------------------------------------

enum class FuzzOp : std::uint8_t {
  kInsert,
  kUpsert,
  kUpdate,
  kErase,
  kFind,
  kContains,
  kClear,
  kStats,  // snapshot the stats mid-sequence; checks cross-counter invariants
};

struct FuzzStep {
  FuzzOp op;
  K key = 0;
  V value = 0;
};

// Small keyspace so insert/erase/update constantly collide on live keys.
// Expansion-phase runs widen it so the live set outgrows a tiny initial
// table and forces mid-sequence doublings.
constexpr std::uint64_t kFuzzKeySpace = 1024;

std::vector<FuzzStep> GenerateFuzzOps(std::uint64_t seed, std::size_t count,
                                      std::uint64_t key_space = kFuzzKeySpace) {
  Xorshift128Plus rng(Mix64(seed ^ 0x5eedf00du));
  std::vector<FuzzStep> steps;
  steps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FuzzStep s;
    const std::uint64_t roll = rng.NextBelow(1000);
    if (roll < 300) {
      s.op = FuzzOp::kInsert;
    } else if (roll < 450) {
      s.op = FuzzOp::kUpsert;
    } else if (roll < 550) {
      s.op = FuzzOp::kUpdate;
    } else if (roll < 750) {
      s.op = FuzzOp::kErase;
    } else if (roll < 950) {
      s.op = FuzzOp::kFind;
    } else if (roll < 980) {
      s.op = FuzzOp::kContains;
    } else if (roll < 998) {
      s.op = FuzzOp::kStats;
    } else {
      s.op = FuzzOp::kClear;
    }
    s.key = rng.NextBelow(key_space);
    s.value = rng.Next();
    steps.push_back(s);
  }
  return steps;
}

const char* FuzzOpName(FuzzOp op) {
  switch (op) {
    case FuzzOp::kInsert: return "insert";
    case FuzzOp::kUpsert: return "upsert";
    case FuzzOp::kUpdate: return "update";
    case FuzzOp::kErase: return "erase";
    case FuzzOp::kFind: return "find";
    case FuzzOp::kContains: return "contains";
    case FuzzOp::kClear: return "clear";
    case FuzzOp::kStats: return "stats";
  }
  return "?";
}

constexpr std::size_t kNoDivergence = static_cast<std::size_t>(-1);

// Replay steps[0..n) against a fresh map and oracle. Returns the index of the
// first diverging op (kNoDivergence if none) and a description in *what.
template <typename MapT, typename Factory>
std::size_t ReplayPrefix(const std::vector<FuzzStep>& steps, std::size_t n,
                         std::string* what, const Factory& make) {
  auto map = make();
  std::unordered_map<K, V> oracle;
  auto diverge = [&](std::size_t i, const std::string& msg) {
    *what = std::string(FuzzOpName(steps[i].op)) + " key=" +
            std::to_string(steps[i].key) + ": " + msg;
    return i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const FuzzStep& s = steps[i];
    switch (s.op) {
      case FuzzOp::kInsert: {
        const bool existed = oracle.count(s.key) != 0;
        const InsertResult r = map->Insert(s.key, s.value);
        if (r == InsertResult::kTableFull) {
          return diverge(i, "table full");
        }
        if ((r == InsertResult::kKeyExists) != existed) {
          return diverge(i, existed ? "inserted over live key" : "phantom key blocked insert");
        }
        if (!existed) {
          oracle.emplace(s.key, s.value);
        }
        break;
      }
      case FuzzOp::kUpsert: {
        const bool existed = oracle.count(s.key) != 0;
        const InsertResult r = map->Upsert(s.key, s.value);
        if (r == InsertResult::kTableFull) {
          return diverge(i, "table full");
        }
        if ((r == InsertResult::kKeyExists) != existed) {
          return diverge(i, "upsert existence mismatch");
        }
        oracle[s.key] = s.value;
        break;
      }
      case FuzzOp::kUpdate: {
        const bool existed = oracle.count(s.key) != 0;
        if (map->Update(s.key, s.value) != existed) {
          return diverge(i, "update existence mismatch");
        }
        if (existed) {
          oracle[s.key] = s.value;
        }
        break;
      }
      case FuzzOp::kErase: {
        const bool existed = oracle.count(s.key) != 0;
        if (map->Erase(s.key) != existed) {
          return diverge(i, "erase existence mismatch");
        }
        oracle.erase(s.key);
        break;
      }
      case FuzzOp::kFind: {
        V v = 0;
        const bool found = map->Find(s.key, &v);
        auto it = oracle.find(s.key);
        if (found != (it != oracle.end())) {
          return diverge(i, found ? "found erased key" : "lost live key");
        }
        if (found && v != it->second) {
          return diverge(i, "stale value: got " + std::to_string(v) + " want " +
                                std::to_string(it->second));
        }
        break;
      }
      case FuzzOp::kContains: {
        if (map->Contains(s.key) != (oracle.count(s.key) != 0)) {
          return diverge(i, "contains mismatch");
        }
        break;
      }
      case FuzzOp::kClear: {
        map->Clear();
        oracle.clear();
        if (map->Size() != 0) {
          return diverge(i, "nonzero size after clear");
        }
        break;
      }
      case FuzzOp::kStats: {
        const MapStatsSnapshot st = map->Stats();
        // The Read() consistency contract (stats.h): dependent counters never
        // exceed their base counters in one snapshot.
        if (st.lookup_hits > st.lookups) {
          return diverge(i, "stats: hits > lookups");
        }
        if (st.path_invalidations > st.path_searches) {
          return diverge(i, "stats: invalidations > searches");
        }
        break;
      }
    }
    if (map->Size() != oracle.size()) {
      return diverge(i, "size " + std::to_string(map->Size()) + " want " +
                            std::to_string(oracle.size()));
    }
  }
  // Full sweep: every oracle entry must be present with its exact value.
  for (const auto& [key, value] : oracle) {
    V v = 0;
    if (!map->Find(key, &v) || v != value) {
      *what = "final sweep: key " + std::to_string(key) + " wrong/missing";
      return n == 0 ? 0 : n - 1;
    }
  }
  return kNoDivergence;
}

template <typename MapT, typename Factory>
void RunFuzzWith(std::uint64_t seed, std::size_t op_count, std::uint64_t key_space,
                 const Factory& make) {
  const std::vector<FuzzStep> steps = GenerateFuzzOps(seed, op_count, key_space);
  std::string what;
  const std::size_t bad = ReplayPrefix<MapT>(steps, steps.size(), &what, make);
  if (bad == kNoDivergence) {
    return;
  }
  // Minimize: binary-search the shortest prefix that still diverges (the
  // replay is deterministic, so a failing prefix stays failing).
  std::size_t lo = 0;           // prefix of lo ops passes
  std::size_t hi = bad + 1;     // prefix of hi ops fails
  std::string prefix_what;
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::string w;
    if (ReplayPrefix<MapT>(steps, mid, &w, make) != kNoDivergence) {
      hi = mid;
      prefix_what = w;
    } else {
      lo = mid;
    }
  }
  std::string tail;
  const std::size_t first = hi > 16 ? hi - 16 : 0;
  for (std::size_t i = first; i < hi; ++i) {
    tail += "\n  [" + std::to_string(i) + "] " + FuzzOpName(steps[i].op) + " key=" +
            std::to_string(steps[i].key) + " value=" + std::to_string(steps[i].value);
  }
  FAIL() << "fuzz divergence (" << (prefix_what.empty() ? what : prefix_what)
         << ")\n  seed=" << seed << " minimal failing prefix=" << hi << " ops"
         << "\n  reproduce: CUCKOO_FUZZ_SEED=" << seed
         << " ctest -R MapFuzzTest --output-on-failure\n  last ops of the minimal prefix:"
         << tail;
}

template <typename MapT>
void RunFuzz(std::uint64_t seed, std::size_t op_count) {
  RunFuzzWith<MapT>(seed, op_count, kFuzzKeySpace, [] { return MakeMap<MapT>(); });
}

// Seed override for reproducing a printed failure.
std::uint64_t FuzzSeed(std::uint64_t default_seed) {
  const char* env = std::getenv("CUCKOO_FUZZ_SEED");
  if (env == nullptr || *env == '\0') {
    return default_seed;
  }
  return std::strtoull(env, nullptr, 10);
}

template <typename MapT>
class MapFuzzTest : public ::testing::Test {};

template <>
std::unique_ptr<ShardedMap<K, V>> MakeMap() {
  return std::make_unique<ShardedMap<K, V>>();
}

using FuzzMapTypes = ::testing::Types<CuckooMap<K, V>, GeneralCuckooMap<K, V>,
                                      FlatCuckooMap<K, V>, ShardedMap<K, V>>;
TYPED_TEST_SUITE(MapFuzzTest, FuzzMapTypes);

TYPED_TEST(MapFuzzTest, SeededOpSequencesMatchOracle) {
  // >= 100k ops per map type, split across independent seeds so one bad
  // interleaving cannot hide behind an early unrelated divergence.
  for (std::uint64_t round = 0; round < 4; ++round) {
    RunFuzz<TypeParam>(FuzzSeed(0xc0ffee00 + round), 30000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Forced-expansion fuzz phases: the same oracle harness, but starting from a
// tiny table with a keyspace wide enough that the live set doubles the table
// several times mid-sequence. Expansion is no longer a rare corner — every
// seeded run crosses multiple windows with finds/erases/upserts landing on
// both sides of the rehash (or, for the aligned GeneralCuckooMap config, on
// both cores of an open incremental migration window).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kExpandKeySpace = 16384;

TEST(MapFuzzExpansionTest, GeneralMapIncrementalExpansionMatchesOracle) {
  auto make = [] {
    GeneralCuckooMap<K, V>::Options o;
    o.initial_bucket_count_log2 = 4;  // 64 slots: the fuzz fill doubles it ~8x
    o.stripe_count = 8;               // 16 % 8 == 0: every expansion is online
    return std::make_unique<GeneralCuckooMap<K, V>>(o);
  };
  for (std::uint64_t round = 0; round < 2; ++round) {
    RunFuzzWith<GeneralCuckooMap<K, V>>(FuzzSeed(0xe49a4d00 + round), 30000,
                                        kExpandKeySpace, make);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(MapFuzzExpansionTest, GeneralMapStopTheWorldExpansionMatchesOracle) {
  auto make = [] {
    GeneralCuckooMap<K, V>::Options o;
    o.initial_bucket_count_log2 = 4;
    // More stripes than the table has buckets when it last grows (the key
    // space fits 8192 buckets, so the last expansion starts from 4096):
    // every expansion is misaligned, which pins the stop-the-world path.
    o.stripe_count = 8192;
    return std::make_unique<GeneralCuckooMap<K, V>>(o);
  };
  RunFuzzWith<GeneralCuckooMap<K, V>>(FuzzSeed(0xe49a4dff), 30000, kExpandKeySpace, make);

  // The same configuration filled with the whole key space grows only
  // stop-the-world.
  auto map = make();
  for (K k = 0; k < kExpandKeySpace; ++k) {
    ASSERT_EQ(map->Insert(k, k), InsertResult::kOk);
  }
  EXPECT_GT(map->Stats().expansions, 0);
  EXPECT_EQ(map->Stats().migrations_started, 0);
}

// ---------------------------------------------------------------------------
// One HeapBytes() rule for both growable maps: every core the map still holds
// mapped counts — the live core and each retired one (for GeneralCuckooMap,
// the draining core of an open window among them).
// ---------------------------------------------------------------------------

template <typename MapT>
void ExpectHeapBytesCountRetiredCores(std::size_t live_buckets) {
  using Core = typename MapT::Core;
  typename MapT::Options o;
  o.initial_bucket_count_log2 = 4;
  MapT map(o);
  for (K k = 0; map.SlotCount() < live_buckets * MapT::kSlotsPerBucket; ++k) {
    ASSERT_EQ(map.Insert(k, k), InsertResult::kOk);
  }
  const std::size_t live_log2 = 4 + static_cast<std::size_t>(map.Stats().expansions);
  ASSERT_EQ(map.SlotCount(), (std::size_t{1} << live_log2) * MapT::kSlotsPerBucket)
      << "every expansion must have doubled the table exactly once";
  std::size_t cores = Core(live_log2).HeapBytes();
  for (std::size_t log2 = 4; log2 < live_log2; ++log2) {
    cores += Core(log2).HeapBytes();
  }
  EXPECT_GE(map.HeapBytes(), cores);
}

TEST(HeapBytesTest, CuckooMapCountsLiveAndRetiredCores) {
  ExpectHeapBytesCountRetiredCores<CuckooMap<K, V>>(1024);
}

TEST(HeapBytesTest, GeneralMapCountsLiveAndRetiredCores) {
  // Grows past the default stripe count, so the last doublings run through
  // incremental migration windows.
  ExpectHeapBytesCountRetiredCores<GeneralCuckooMap<K, V>>(8192);
}

// ---------------------------------------------------------------------------
// Dispatch-level conformance: the same seeded oracle fuzz, forced to each
// probe kernel the host supports (scalar / SSE2 / AVX2). Identical seeds per
// level, so any kernel whose candidate masks diverge from the scalar path —
// a missed slot, a phantom match from a zeroed filler lane, a swapped
// dual-bucket half — shows up as an oracle divergence with the usual minimal
// repro. Unsupported levels are skipped, not failed (CI also pins
// CUCKOO_FORCE_PROBE=scalar on one matrix leg so the fallback runs the whole
// suite, not just this fuzz).
// ---------------------------------------------------------------------------

class MapFuzzProbeLevelTest : public ::testing::TestWithParam<simd::ProbeLevel> {
 protected:
  void SetUp() override {
    if (!simd::ProbeLevelSupported(GetParam())) {
      GTEST_SKIP() << simd::ProbeLevelName(GetParam()) << " not supported on this host";
    }
    prev_ = simd::SetProbeLevelForTesting(GetParam());
  }
  void TearDown() override { simd::SetProbeLevelForTesting(prev_); }

 private:
  simd::ProbeLevel prev_ = simd::ProbeLevel::kScalar;
};

TEST_P(MapFuzzProbeLevelTest, SeededOpSequencesMatchOracle) {
  const std::uint64_t seed = FuzzSeed(0x51bd0000);  // same ops at every level
  RunFuzz<CuckooMap<K, V>>(seed, 20000);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  RunFuzz<FlatCuckooMap<K, V>>(seed, 20000);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  RunFuzz<GeneralCuckooMap<K, V>>(seed, 20000);
}

TEST_P(MapFuzzProbeLevelTest, ExpansionPhasesMatchOracle) {
  auto make = [] {
    CuckooMap<K, V>::Options o;
    o.initial_bucket_count_log2 = 4;
    return std::make_unique<CuckooMap<K, V>>(o);
  };
  RunFuzzWith<CuckooMap<K, V>>(FuzzSeed(0x51bd1000), 20000, kExpandKeySpace, make);
}

// ClockCache runs the same SIMD probe kernels through the engine. It evicts,
// so the oracle is weaker than the maps': a Get returns either nothing or the
// last value Set for the key, a deleted key reads absent until it is Set
// again, and at quiescence Bytes() is the sum of the live entries' charges.
TEST_P(MapFuzzProbeLevelTest, ClockCacheSetGetDeleteMatchesOracle) {
  ClockCache<K, V>::Options o;
  o.bucket_count_log2 = 4;   // 128 slots for 512 keys: constant CLOCK eviction
  o.capacity_bytes = 4000;   // charges of 1..64: byte evictions too
  ClockCache<K, V> cache(o);
  struct Entry {
    bool live = false;  // Set since the last Delete (eviction may still drop it)
    V value = 0;
    std::size_t charge = 0;
  };
  constexpr std::uint64_t kKeys = 512;
  std::vector<Entry> oracle(kKeys);
  Xorshift128Plus rng(Mix64(FuzzSeed(0x51bd2000)));
  for (int i = 0; i < 20000; ++i) {
    const K key = rng.NextBelow(kKeys);
    Entry& e = oracle[key];
    const std::uint64_t roll = rng.NextBelow(10);
    if (roll < 4) {
      const V value = rng.Next();
      const std::size_t charge = 1 + rng.NextBelow(64);
      ASSERT_TRUE(cache.Set(key, value, charge)) << "op " << i;
      e = Entry{true, value, charge};
    } else if (roll < 5) {
      const bool erased = cache.Delete(key);
      ASSERT_TRUE(e.live || !erased) << "op " << i << ": deleted a key never set";
      e.live = false;
    } else {
      V v = 0;
      if (cache.Get(key, &v)) {
        ASSERT_TRUE(e.live) << "op " << i << ": deleted key " << key << " read back";
        ASSERT_EQ(v, e.value) << "op " << i << ": stale value for key " << key;
      }
    }
  }
  std::uint64_t live_bytes = 0;
  std::size_t live_entries = 0;
  for (K key = 0; key < kKeys; ++key) {
    V v = 0;
    if (cache.Get(key, &v)) {
      ASSERT_TRUE(oracle[key].live) << key;
      ASSERT_EQ(v, oracle[key].value) << key;
      live_bytes += oracle[key].charge;
      ++live_entries;
    }
  }
  EXPECT_EQ(cache.Bytes(), live_bytes);
  EXPECT_EQ(cache.Size(), live_entries);
  EXPECT_LE(cache.Bytes(), o.capacity_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, MapFuzzProbeLevelTest,
                         ::testing::Values(simd::ProbeLevel::kScalar,
                                           simd::ProbeLevel::kSse2,
                                           simd::ProbeLevel::kAvx2),
                         [](const ::testing::TestParamInfo<simd::ProbeLevel>& param) {
                           return std::string(simd::ProbeLevelName(param.param));
                         });

TEST(MapFuzzExpansionTest, CuckooMapExpansionMatchesOracle) {
  auto make = [] {
    CuckooMap<K, V>::Options o;
    o.initial_bucket_count_log2 = 4;
    return std::make_unique<CuckooMap<K, V>>(o);
  };
  RunFuzzWith<CuckooMap<K, V>>(FuzzSeed(0xe49a4e01), 30000, kExpandKeySpace, make);
}

// ---------------------------------------------------------------------------
// Tiered-store oracle fuzz: the same seeded-replay idea, one level up. A
// KvService backed by a TieredStore (tiny tiering threshold, tiny hot cache)
// is driven through the text protocol against a std::unordered_map oracle.
// Values straddle the threshold, so every sequence interleaves inline RAM
// entries with value-log location records; the cache is small enough that
// GETs constantly fall through to cold disk reads (exercised through BOTH the
// synchronous path and the parked StartFetches/FinishDeferred path), and GC
// compactions run mid-sequence through the service's real relocation hook.
// The oracle never knows which tier served a byte — it must not matter.
// ---------------------------------------------------------------------------

struct TieredFuzzHarness {
  std::string dir;
  store::TieredStore tier;
  std::unique_ptr<KvService> service;
  KvService::Connection conn;

  TieredFuzzHarness()
      : dir(MakeTempDir()), service(nullptr), conn(nullptr) {
    store::TieredStoreOptions t;
    t.dir = dir;
    t.threshold_bytes = 32;          // most "large" fuzz values tier out
    t.segment_bytes = 16384;         // several segments => GC has targets
    t.cache_capacity_bytes = 2048;   // a handful of hot values, heavy churn
    t.reader_threads = 2;
    std::string error;
    EXPECT_TRUE(tier.Open(t, &error)) << error;
    KvService::Options so;
    so.tier = &tier;
    service = std::make_unique<KvService>(so);
    conn = service->Connect();
    tier.SetGcHooks(
        [this](const std::string& key, const store::ValueLocation& old_loc,
               std::string_view data) {
          return service->RelocateTiered(key, old_loc, data);
        },
        [this] { return tier.SyncLog(); });
  }
  ~TieredFuzzHarness() {
    service.reset();
    tier.Close();
    for (const std::string& name : ListFilesWithPrefix(dir, "")) {
      RemoveFile(dir + "/" + name);
    }
    ::rmdir(dir.c_str());
  }

  static std::string MakeTempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_tierfuzz_XXXXXX";
    const char* p = ::mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr);
    return tmpl;
  }

  // Drive one command through the async-aware path: parked GETs resolve via
  // StartFetches + FinishDeferred exactly as the socket server does.
  std::string Roundtrip(const std::string& command) {
    std::string out;
    std::shared_ptr<KvService::DeferredGet> deferred;
    KvService::Connection::DriveStatus st = conn.Drive(command, &out, &deferred);
    while (st == KvService::Connection::DriveStatus::kSuspended) {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      service->StartFetches(deferred, [&] {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
        cv.notify_one();
      });
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return done; });
      }
      service->FinishDeferred(*deferred, &out);
      deferred.reset();
      st = conn.Drive("", &out, &deferred);
    }
    EXPECT_FALSE(conn.Broken());
    return out;
  }
};

struct TieredOracleEntry {
  std::string value;
  std::uint32_t flags = 0;
};

std::string TieredFuzzValue(Xorshift128Plus& rng, bool large) {
  const std::size_t size = large ? 64 + rng.NextBelow(512) : rng.NextBelow(32);
  std::string v(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    // Printable, CRLF-free payload bytes so the text protocol stays framed.
    v[i] = static_cast<char>('!' + rng.NextBelow(94));
  }
  return v;
}

void RunTieredKvFuzz(std::uint64_t seed, std::size_t op_count) {
  TieredFuzzHarness h;
  std::unordered_map<std::string, TieredOracleEntry> oracle;
  Xorshift128Plus rng(Mix64(seed ^ 0x71e2edull));
  constexpr std::uint64_t kKeySpace = 64;

  for (std::size_t i = 0; i < op_count; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBelow(kKeySpace));
    const std::uint64_t roll = rng.NextBelow(1000);
    if (roll < 400) {  // set: half inline, half tiered
      TieredOracleEntry e;
      e.flags = static_cast<std::uint32_t>(rng.NextBelow(1000));
      e.value = TieredFuzzValue(rng, rng.NextBelow(2) == 0);
      const std::string r = h.Roundtrip("set " + key + " " + std::to_string(e.flags) +
                                        " 0 " + std::to_string(e.value.size()) + "\r\n" +
                                        e.value + "\r\n");
      ASSERT_EQ(r, "STORED\r\n") << "seed=" << seed << " op=" << i;
      oracle[key] = std::move(e);
    } else if (roll < 500) {  // delete
      const bool existed = oracle.count(key) != 0;
      const std::string r = h.Roundtrip("delete " + key + "\r\n");
      ASSERT_EQ(r, existed ? "DELETED\r\n" : "NOT_FOUND\r\n")
          << "seed=" << seed << " op=" << i << " key=" << key;
      oracle.erase(key);
    } else if (roll < 980) {  // get: must match the oracle byte-for-byte
      const std::string r = h.Roundtrip("get " + key + "\r\n");
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        ASSERT_EQ(r, "END\r\n") << "seed=" << seed << " op=" << i << " phantom " << key;
      } else {
        const std::string want = "VALUE " + key + " " + std::to_string(it->second.flags) +
                                 " " + std::to_string(it->second.value.size()) + "\r\n" +
                                 it->second.value + "\r\nEND\r\n";
        ASSERT_EQ(r, want) << "seed=" << seed << " op=" << i << " key=" << key
                           << " (tiered bytes diverged from oracle)";
      }
    } else {  // compact: relocations must be invisible to every later GET
      h.tier.RunGcOnce(/*trigger_override=*/0.3);
    }
  }

  // Final sweep: every oracle entry readable with exact bytes, then a GC
  // storm followed by a re-sweep — compaction must never lose or tear.
  for (int storm = 0; h.tier.RunGcOnce(0.05) && storm < 64; ++storm) {
  }
  for (const auto& [key, entry] : oracle) {
    const std::string r = h.Roundtrip("get " + key + "\r\n");
    ASSERT_NE(r.find("VALUE " + key + " "), std::string::npos)
        << "seed=" << seed << " lost " << key << " after GC storm";
    ASSERT_NE(r.find(entry.value), std::string::npos)
        << "seed=" << seed << " torn value for " << key;
  }
  const store::TieredStoreStats stats = h.tier.Stats();
  EXPECT_GT(stats.tiered_sets, 0u) << "fuzz never exercised the tiered path";
  EXPECT_GT(stats.disk_reads, 0u) << "fuzz never went to disk";
}

TEST(TieredKvFuzzTest, SeededOpSequencesMatchOracle) {
  for (std::uint64_t round = 0; round < 2; ++round) {
    RunTieredKvFuzz(FuzzSeed(0x71e2ed00 + round), 4000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace cuckoo
