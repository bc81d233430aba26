// Cuckoo-path discovery: the paper's breadth-first search (§4.3.2) and the
// MemC3-style greedy random-walk DFS it replaces.
//
// Both searchers run *without any lock held* (§4.3.1's "lock after discovering
// a cuckoo path"): they read tags racily and produce a path that the caller
// must validate hop-by-hop under bucket locks before executing.
#ifndef SRC_CUCKOO_PATH_SEARCH_H_
#define SRC_CUCKOO_PATH_SEARCH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/cuckoo/simd_probe.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

// One hop of a cuckoo path: the item in `bucket`/`slot` (whose partial key was
// `tag` at discovery time) will be displaced to the next hop's bucket/slot.
// The final hop of a path is the empty slot (its tag field is 0).
struct PathHop {
  std::size_t bucket;
  int slot;
  std::uint8_t tag;
};

struct CuckooPath {
  // hops.size() == displacements + 1; hops.back() is the empty slot.
  std::vector<PathHop> hops;

  std::size_t Displacements() const noexcept { return hops.empty() ? 0 : hops.size() - 1; }
  void Clear() noexcept { hops.clear(); }
};

// Eq. 2: maximum BFS path length for a B-way table when up to M slots may be
// examined: L_BFS = ceil(log_B(M/2 - M/(2B) + 1)).
constexpr std::size_t MaxBfsPathLength(int b, std::size_t max_slots_examined) noexcept {
  // Evaluate B + B^2 + ... + B^L >= M/2 without floating point.
  double m = static_cast<double>(max_slots_examined);
  double target = m / 2.0 - m / (2.0 * b) + 1.0;
  std::size_t len = 0;
  double power = 1.0;
  while (power < target) {
    power *= b;
    ++len;
  }
  return len == 0 ? 1 : len;
}

// Breadth-first search for an empty slot reachable from `b1` or `b2`,
// examining at most `max_slots` slots. Returns false if the table is too full
// (no empty slot within budget). With `prefetch`, each discovered frontier
// bucket's tag line is prefetched as soon as its parent slot is scanned —
// possible only under BFS because "the schedule of buckets to visit is
// predictable".
template <typename Core>
bool BfsSearch(const Core& core, std::size_t b1, std::size_t b2, std::size_t max_slots,
               bool prefetch, CuckooPath* out) {
  constexpr int kB = Core::kSlotsPerBucket;
  struct Node {
    std::size_t bucket;
    std::int32_t parent;  // index into arena, or -1 for a root
    std::int8_t slot_from_parent;
    // Tag observed when this edge was explored. The path must carry THIS tag,
    // not a re-read: this node's bucket is AltBucket(parent, tag_from_parent),
    // and if the slot's occupant changes concurrently, execute-time validation
    // must fail rather than move the new occupant to a stale destination.
    std::uint8_t tag_from_parent;
  };

  // The arena doubles as the FIFO queue. Capacity bounds total buckets
  // enqueued; each popped bucket examines kB slots against the budget.
  // Thread-local so the hot insert path performs no allocation once warm.
  static thread_local std::vector<Node> arena;
  arena.clear();
  arena.reserve(max_slots / static_cast<std::size_t>(kB) + 2 * static_cast<std::size_t>(kB) + 4);
  arena.push_back(Node{b1, -1, 0, 0});
  arena.push_back(Node{b2, -1, 0, 0});

  std::size_t slots_examined = 0;
  for (std::size_t head = 0; head < arena.size(); ++head) {
    const Node node = arena[head];
    if (slots_examined + static_cast<std::size_t>(kB) > max_slots) {
      return false;
    }
    slots_examined += static_cast<std::size_t>(kB);

    // One snapshot + vectorized hole scan per frontier bucket. The edge
    // expansion below reuses the same snapshot, so a bucket judged full is
    // expanded with exactly the tags that judgment saw — a concurrent erase
    // can't yield a frontier edge with tag 0 (whose AltBucket would be
    // nonsense). Races are otherwise fine: the path is validated hop-by-hop
    // under locks before execution.
    const simd::TagGroup<kB> tags = core.LoadTagsVector(node.bucket);
    const int hole = simd::FirstSlot(simd::EmptySlotMask<kB>(tags));
    if (hole >= 0) {
      // Found a hole: reconstruct the path root -> ... -> hole.
      out->Clear();
      out->hops.push_back(PathHop{node.bucket, hole, 0});
      std::int32_t cur = static_cast<std::int32_t>(head);
      while (arena[cur].parent >= 0) {
        const Node& child = arena[cur];
        const Node& parent = arena[child.parent];
        out->hops.push_back(
            PathHop{parent.bucket, child.slot_from_parent, child.tag_from_parent});
        cur = child.parent;
      }
      // Hops were collected hole-first; reverse into execution order.
      std::reverse(out->hops.begin(), out->hops.end());
      return true;
    }

    // Bucket full: each slot's item leads to its alternate bucket.
    for (int s = 0; s < kB; ++s) {
      const std::uint8_t tag = tags.bytes[s];
      std::size_t next = core.AltBucket(node.bucket, tag);
      if (prefetch) {
        core.PrefetchTags(next);
      }
      arena.push_back(
          Node{next, static_cast<std::int32_t>(head), static_cast<std::int8_t>(s), tag});
    }
  }
  return false;
}

// MemC3's search: greedy random displacement, tracking two paths in parallel
// (one rooted at each candidate bucket) and completing when either finds an
// empty slot. Caps each path at `max_path_len` hops.
template <typename Core>
bool DfsSearch(const Core& core, std::size_t b1, std::size_t b2, int max_path_len,
               Xorshift128Plus& rng, CuckooPath* out) {
  constexpr int kB = Core::kSlotsPerBucket;
  struct Walk {
    CuckooPath path;
    std::size_t bucket;
    bool dead = false;
  };
  Walk walks[2];
  walks[0].bucket = b1;
  walks[1].bucket = b2;
  walks[0].path.hops.reserve(16);
  walks[1].path.hops.reserve(16);

  for (;;) {
    bool all_dead = true;
    for (Walk& w : walks) {
      if (w.dead) {
        continue;
      }
      all_dead = false;

      // Empty slot in the current bucket completes this walk.
      int empty = core.FindEmptySlot(w.bucket);
      if (empty >= 0) {
        w.path.hops.push_back(PathHop{w.bucket, empty, 0});
        *out = std::move(w.path);
        return true;
      }
      if (static_cast<int>(w.path.hops.size()) >= max_path_len) {
        w.dead = true;
        continue;
      }
      // Kick a random victim toward its alternate bucket.
      int victim = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(kB)));
      std::uint8_t tag = core.Tag(w.bucket, victim);
      if (tag == 0) {
        // Raced with a concurrent erase: the slot is empty now. Take it.
        w.path.hops.push_back(PathHop{w.bucket, victim, 0});
        *out = std::move(w.path);
        return true;
      }
      w.path.hops.push_back(PathHop{w.bucket, victim, tag});
      w.bucket = core.AltBucket(w.bucket, tag);
    }
    if (all_dead) {
      return false;
    }
  }
}

// The path-search knobs every table shares (§4.3.2).
struct SearchParams {
  std::size_t max_slots = 2000;  // M: slots BFS may examine before "too full"
  bool prefetch = true;          // BFS prefetches each frontier bucket's tags
  SearchMode mode = SearchMode::kBfs;
  int dfs_max_path_len = 250;  // per-walk hop cap of the DFS ablation (MemC3's)
};

// The DFS walk's victim choices, one generator per thread.
inline Xorshift128Plus& SearchRng() {
  thread_local Xorshift128Plus rng(Mix64(0xc0ffeeull + CurrentThreadId()));
  return rng;
}

// Discover a path from b1/b2 to a free slot with the configured searcher.
template <typename Core>
bool SearchPath(const Core& core, std::size_t b1, std::size_t b2, const SearchParams& params,
                CuckooPath* out) {
  if (params.mode == SearchMode::kBfs) {
    return BfsSearch(core, b1, b2, params.max_slots, params.prefetch, out);
  }
  return DfsSearch(core, b1, b2, params.dfs_max_path_len, SearchRng(), out);
}

}  // namespace cuckoo

#endif  // SRC_CUCKOO_PATH_SEARCH_H_
