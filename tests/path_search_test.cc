#include "src/cuckoo/path_search.h"

#include <cstdint>

#include "src/common/random.h"
#include "src/cuckoo/engine.h"
#include "src/cuckoo/table_core.h"

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

using Core = TableCore<std::uint64_t, std::uint64_t, 4>;

// Fill every slot of every bucket with tag `tag`.
void FillAll(Core& core, std::uint8_t tag) {
  for (std::size_t b = 0; b < core.bucket_count(); ++b) {
    for (int s = 0; s < 4; ++s) {
      core.WriteSlot(b, s, tag, b * 4 + s, 0);
    }
  }
}

TEST(MaxBfsPathLengthTest, MatchesPaperExamples) {
  // §4.3.2: "As used in MemC3, B = 4, M = 2000 ... LBFS = 5."
  EXPECT_EQ(MaxBfsPathLength(4, 2000), 5u);
  // Eq. 2 for the repo's default 8-way table.
  EXPECT_EQ(MaxBfsPathLength(8, 2000), 4u);
  EXPECT_EQ(MaxBfsPathLength(16, 2000), 3u);
  EXPECT_EQ(MaxBfsPathLength(2, 2000), 9u);
}

TEST(MaxBfsPathLengthTest, MonotonicInBudget) {
  for (int b : {2, 4, 8, 16}) {
    std::size_t prev = 0;
    for (std::size_t m : {100u, 1000u, 10000u, 100000u}) {
      std::size_t len = MaxBfsPathLength(b, m);
      EXPECT_GE(len, prev);
      prev = len;
    }
  }
}

TEST(BfsSearchTest, FindsHoleInRootBucket) {
  Core core(6);
  CuckooPath path;
  ASSERT_TRUE(BfsSearch(core, 3, 9, 2000, false, &path));
  EXPECT_EQ(path.hops.size(), 1u);
  EXPECT_EQ(path.Displacements(), 0u);
  EXPECT_TRUE(path.hops[0].bucket == 3 || path.hops[0].bucket == 9);
  EXPECT_EQ(core.Tag(path.hops[0].bucket, path.hops[0].slot), 0);
}

TEST(BfsSearchTest, PathHopsAreChainedThroughAltBuckets) {
  Core core(6);
  FillAll(core, 1);
  // Punch one hole a couple of displacements away from bucket 5.
  std::size_t b = 5;
  std::size_t next = core.AltBucket(b, core.Tag(b, 0));
  std::size_t nextnext = core.AltBucket(next, core.Tag(next, 0));
  core.DestroySlot(nextnext, 2);

  CuckooPath path;
  std::size_t other = core.AltBucket(5, 0x55) == nextnext ? 1 : core.AltBucket(5, 0x55);
  ASSERT_TRUE(BfsSearch(core, 5, other, 100000, false, &path));
  ASSERT_GE(path.hops.size(), 1u);
  // Validate the chain invariant: each hop's item moves to the next hop's
  // bucket, which must be its tag-derived alternate.
  for (std::size_t i = 0; i + 1 < path.hops.size(); ++i) {
    const PathHop& from = path.hops[i];
    const PathHop& to = path.hops[i + 1];
    EXPECT_EQ(core.AltBucket(from.bucket, from.tag), to.bucket) << "hop " << i;
    EXPECT_NE(from.tag, 0) << "interior hops reference occupied slots";
  }
  // Final hop is the hole.
  const PathHop& hole = path.hops.back();
  EXPECT_EQ(core.Tag(hole.bucket, hole.slot), 0);
}

TEST(BfsSearchTest, FailsWhenBudgetExhausted) {
  Core core(6);
  FillAll(core, 1);
  // Single hole, tiny budget that cannot reach it.
  core.DestroySlot(0, 0);
  CuckooPath path;
  // Roots chosen far from bucket 0 in the tag-1 displacement graph.
  EXPECT_FALSE(BfsSearch(core, 33, 47, 8, false, &path));
}

TEST(BfsSearchTest, RespectsEq2Bound) {
  // Fill tables of each associativity to capacity and check every discovered
  // path obeys the analytic bound.
  Core core(8);
  Xorshift128Plus rng(1);
  std::uint64_t key = 0;
  const std::size_t kBudget = 2000;
  const std::size_t bound = MaxBfsPathLength(4, kBudget);
  for (;;) {
    HashedKey h = HashedKey::From(Mix64(key));
    std::size_t b1 = h.Bucket1(core.mask);
    std::size_t b2 = core.AltBucket(b1, h.tag);
    int s1 = core.FindEmptySlot(b1);
    int s2 = core.FindEmptySlot(b2);
    if (s1 >= 0) {
      core.WriteSlot(b1, s1, h.tag, key, 0);
    } else if (s2 >= 0) {
      core.WriteSlot(b2, s2, h.tag, key, 0);
    } else {
      CuckooPath path;
      if (!BfsSearch(core, b1, b2, kBudget, true, &path)) {
        break;  // table full
      }
      ASSERT_LE(path.Displacements(), bound);
      for (std::size_t i = path.hops.size() - 1; i-- > 0;) {
        core.MoveSlot(path.hops[i].bucket, path.hops[i].slot, path.hops[i + 1].bucket,
                      path.hops[i + 1].slot);
      }
      core.WriteSlot(path.hops[0].bucket, path.hops[0].slot, h.tag, key, 0);
    }
    ++key;
  }
  // 4-way cuckoo should exceed 90% occupancy (footnote 1 of the paper).
  EXPECT_GT(static_cast<double>(key) / static_cast<double>(core.slot_count()), 0.9);
}

TEST(ExecutePathExclusiveTest, EmptyPathFailsWithoutTouchingTable) {
  // Regression: the hop loop counts down from hops.size() - 1; an empty path
  // used to underflow to SIZE_MAX and walk out of bounds.
  Core core(4);
  CuckooPath empty;
  EXPECT_FALSE(ExecutePath(core, empty));
  for (std::size_t b = 0; b < core.bucket_count(); ++b) {
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(core.Tag(b, s), 0);
    }
  }
}

TEST(ExecutePathExclusiveTest, SingleHopPathIsANoOpSuccess) {
  // A one-hop path is just the hole itself: nothing to displace.
  Core core(4);
  CuckooPath path;
  path.hops.push_back(PathHop{2, 1, 0});
  EXPECT_TRUE(ExecutePath(core, path));
  EXPECT_EQ(core.Tag(2, 1), 0);
}

TEST(ExecutePathExclusiveTest, ExecutesValidatedDisplacements) {
  Core core(4);
  // Place one item in bucket 3 slot 0 and describe the path moving it into
  // the (empty) slot 1 of its alternate bucket.
  const std::uint8_t tag = 7;
  core.WriteSlot(3, 0, tag, 42, 99);
  const std::size_t alt = core.AltBucket(3, tag);
  CuckooPath path;
  path.hops.push_back(PathHop{3, 0, tag});
  path.hops.push_back(PathHop{alt, 1, 0});
  ASSERT_TRUE(ExecutePath(core, path));
  EXPECT_EQ(core.Tag(3, 0), 0);
  EXPECT_EQ(core.Tag(alt, 1), tag);
  EXPECT_EQ(core.KeyRef(alt, 1), 42u);
}

TEST(ExecutePathExclusiveTest, FailsWhenHopValidationFails) {
  Core core(4);
  CuckooPath path;
  // Source slot is empty (tag mismatch): validation must fail, not move.
  path.hops.push_back(PathHop{3, 0, 7});
  path.hops.push_back(PathHop{5, 1, 0});
  EXPECT_FALSE(ExecutePath(core, path));
  EXPECT_EQ(core.Tag(5, 1), 0);
}

TEST(DfsSearchTest, FindsHoleInRootBucket) {
  Core core(6);
  Xorshift128Plus rng(2);
  CuckooPath path;
  ASSERT_TRUE(DfsSearch(core, 7, 11, 250, rng, &path));
  EXPECT_EQ(path.Displacements(), 0u);
}

TEST(DfsSearchTest, PathChainsThroughAltBuckets) {
  Core core(6);
  FillAll(core, 3);
  std::size_t b = 2;
  std::size_t hole_bucket = core.AltBucket(b, 3);
  core.DestroySlot(hole_bucket, 1);
  Xorshift128Plus rng(3);
  CuckooPath path;
  ASSERT_TRUE(DfsSearch(core, 2, 2 ^ 1, 250, rng, &path));
  for (std::size_t i = 0; i + 1 < path.hops.size(); ++i) {
    EXPECT_EQ(core.AltBucket(path.hops[i].bucket, path.hops[i].tag), path.hops[i + 1].bucket);
  }
}

TEST(DfsSearchTest, GivesUpAtMaxPathLength) {
  Core core(4);
  FillAll(core, 1);  // no hole anywhere
  Xorshift128Plus rng(4);
  CuckooPath path;
  EXPECT_FALSE(DfsSearch(core, 0, 1, 50, rng, &path));
}

TEST(DfsSearchTest, TreatsConcurrentlyEmptiedSlotAsHole) {
  Core core(4);
  FillAll(core, 1);
  // A slot whose tag reads 0 mid-walk is taken as the hole (models racing
  // with an erase). Clear a slot in the root's alternate.
  std::size_t alt = core.AltBucket(6, 1);
  core.DestroySlot(alt, 3);
  Xorshift128Plus rng(5);
  CuckooPath path;
  ASSERT_TRUE(DfsSearch(core, 6, alt, 250, rng, &path));
  EXPECT_EQ(core.Tag(path.hops.back().bucket, path.hops.back().slot), 0);
}

TEST(SearchComparisonTest, BfsPathsAreShorterThanDfsAtHighLoad) {
  // The quantitative heart of §4.3.2: at high occupancy DFS random walks are
  // orders of magnitude longer than BFS paths over the same table.
  Core core(10);
  // Fill to ~94% using direct placement.
  Xorshift128Plus rng(7);
  std::uint64_t key = 0;
  std::size_t target = core.slot_count() * 94 / 100;
  std::size_t placed = 0;
  while (placed < target) {
    HashedKey h = HashedKey::From(Mix64(key++));
    std::size_t b1 = h.Bucket1(core.mask);
    std::size_t b2 = core.AltBucket(b1, h.tag);
    int s = core.FindEmptySlot(b1);
    std::size_t b = b1;
    if (s < 0) {
      s = core.FindEmptySlot(b2);
      b = b2;
    }
    if (s >= 0) {
      core.WriteSlot(b, s, h.tag, key, 0);
      ++placed;
      continue;
    }
    CuckooPath path;
    if (!BfsSearch(core, b1, b2, 2000, false, &path)) {
      break;
    }
    for (std::size_t i = path.hops.size() - 1; i-- > 0;) {
      core.MoveSlot(path.hops[i].bucket, path.hops[i].slot, path.hops[i + 1].bucket,
                    path.hops[i + 1].slot);
    }
    core.WriteSlot(path.hops[0].bucket, path.hops[0].slot, h.tag, key, 0);
    ++placed;
  }

  // Compare discovered path lengths (without executing them).
  std::uint64_t bfs_total = 0;
  std::uint64_t dfs_total = 0;
  int samples = 0;
  for (int i = 0; i < 200; ++i) {
    HashedKey h = HashedKey::From(Mix64(key + i));
    std::size_t b1 = h.Bucket1(core.mask);
    std::size_t b2 = core.AltBucket(b1, h.tag);
    if (core.FindEmptySlot(b1) >= 0 || core.FindEmptySlot(b2) >= 0) {
      continue;
    }
    CuckooPath bfs_path;
    CuckooPath dfs_path;
    if (BfsSearch(core, b1, b2, 2000, false, &bfs_path) &&
        DfsSearch(core, b1, b2, 250, rng, &dfs_path)) {
      bfs_total += bfs_path.Displacements();
      dfs_total += dfs_path.Displacements();
      ++samples;
    }
  }
  ASSERT_GT(samples, 10);
  EXPECT_LT(bfs_total, dfs_total) << "BFS must find shorter paths in aggregate";
}

}  // namespace
}  // namespace cuckoo
