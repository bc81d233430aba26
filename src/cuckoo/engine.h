// The cuckoo engine: the one copy of the probe, path and insert machinery
// all four tables (CuckooMap, GeneralCuckooMap, ClockCache, FlatCuckooMap)
// run on — the two-bucket tag probe, the optimistic seqlock read, the batch
// prefetch pipeline, validated path execution, the lock-after-discovery
// insert loop and the exclusive insert / stop-the-world rehash.
//
// Everything is templated on the slot storage. TableCore (trivially copyable
// slots, optimistic readers) and GeneralCore (placement-new slots, locked
// readers) share the TagArray probe surface (table_core.h) and one slot
// vocabulary: Key, Value, ConstructSlot, DestroySlot, MoveSlot, PrefetchSlot.
// OptimisticFind also needs TableCore's tear-tolerant LoadKey / LoadValue.
// What stays in each table is its own policy: CuckooMap's core swap and
// LockedView, GeneralCuckooMap's migration window and snapshot walk,
// ClockCache's CLOCK eviction and byte charges, FlatCuckooMap's global-lock
// Algorithm 1/2 inserts.
#ifndef SRC_CUCKOO_ENGINE_H_
#define SRC_CUCKOO_ENGINE_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/hash.h"
#include "src/common/striped_locks.h"
#include "src/common/test_points.h"
#include "src/cuckoo/path_search.h"
#include "src/cuckoo/simd_probe.h"
#include "src/cuckoo/stats.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

struct SlotRef {
  std::size_t bucket = 0;
  int slot = 0;
};

// Where a key sits, as seen under a lock covering its buckets.
template <typename Core>
struct Found {
  Core* core = nullptr;  // null when the key is absent
  SlotRef at{};
  // Set by an insert lookup hook that itself moved items into the locked
  // buckets (GeneralCuckooMap's piggyback migration): the pair lock must then
  // be released with a version bump even when the insert places nothing.
  bool moved = false;
};

// log2 of a core's bucket count (always a power of two).
template <typename Core>
std::size_t CoreLog2(const Core& core) noexcept {
  return static_cast<std::size_t>(std::countr_zero(core.bucket_count()));
}

// ----- Probes -----------------------------------------------------------------

// The two-bucket tag probe: one vector compare answers both buckets (bits
// [0, B) are b1's tag matches, [B, 2B) are b2's) and the candidates are
// walked in probe order. Stops at the first candidate for which
// `match(bucket, slot)` holds and stores it in *at. The tag snapshots are
// tear-tolerant; callers either hold the buckets' locks or validate after.
template <typename Core, typename Match>
bool ProbePair(const Core& core, std::size_t b1, std::size_t b2, std::uint8_t tag,
               Match&& match, SlotRef* at) {
  constexpr int kB = Core::kSlotsPerBucket;
  std::uint32_t cand =
      simd::MatchTagMask2<kB>(core.LoadTagsVector(b1), core.LoadTagsVector(b2), tag);
  while (cand != 0) {
    const int bit = simd::NextCandidate(&cand);
    const SlotRef c{bit < kB ? b1 : b2, bit < kB ? bit : bit - kB};
    if (match(c.bucket, c.slot)) {
      *at = c;
      return true;
    }
  }
  return false;
}

// Locate `key` in b1/b2 while holding a lock that covers both (or any
// exclusive access).
template <typename Core, typename K, typename Eq>
Found<Core> FindKey(Core& core, std::size_t b1, std::size_t b2, std::uint8_t tag, const K& key,
                    const Eq& eq) {
  Found<Core> f;
  auto is_key = [&](std::size_t b, int s) { return eq(std::as_const(core).Key(b, s), key); };
  if (ProbePair(core, b1, b2, tag, is_key, &f.at)) {
    f.core = &core;
  }
  return f;
}

// The optimistic read (§4.2): snapshot both stripe versions, probe with
// tear-tolerant loads, then validate the versions and that `current()` still
// returns the probed core (a growable table may have swapped it). Retries
// until one validation holds, counting each failure as a read retry. On a
// hit the value is copied to *out and, when `at` is non-null, the slot it was
// read from is stored there (valid as of the validation only).
template <typename Current, typename K, typename V, typename Eq>
bool OptimisticFind(const LockStripes& stripes, MapStats& stats, Current&& current,
                    const HashedKey& h, const K& key, const Eq& eq, bool prefetch, V* out,
                    SlotRef* at = nullptr) {
  for (;;) {
    const auto* core = current();
    const std::size_t b1 = h.Bucket1(core->mask);
    const std::size_t b2 = core->AltBucket(b1, h.tag);
    const std::size_t s1 = stripes.StripeFor(b1);
    const std::size_t s2 = stripes.StripeFor(b2);
    auto is_key = [&](std::size_t b, int s) { return eq(core->LoadKey(b, s), key); };
    SlotRef hit;
    V value{};

    const std::uint64_t v1 = stripes.Stripe(s1).AwaitVersion();
    const std::uint64_t v2 = (s2 == s1) ? v1 : stripes.Stripe(s2).AwaitVersion();
    // Window: a writer committing here must make the validation below fail.
    CUCKOO_TEST_POINT(TestPoint::kReadAfterVersionSnapshot);
    if (prefetch) {
      core->PrefetchBucket(b2);
    }
    const bool found = ProbePair(*core, b1, b2, h.tag, is_key, &hit);
    if (found) {
      value = core->LoadValue(hit.bucket, hit.slot);
    }
    CUCKOO_TEST_POINT(TestPoint::kReadBeforeValidate);
    std::atomic_thread_fence(std::memory_order_acquire);
    const bool valid = current() == core && stripes.Stripe(s1).LoadRaw() == v1 &&
                       stripes.Stripe(s2).LoadRaw() == v2;
    if (valid) {
      if (found) {
        *out = value;
        if (at != nullptr) {
          *at = hit;
        }
      }
      return found;
    }
    stats.RecordReadRetry();
  }
}

// Batched lookup with software pipelining (MemC3-style, retuned for the
// vector probe): kDepth keys ahead, hash and pull only the two tag lines;
// kPeek keys ahead (when those lines have likely arrived), racily movemask
// them and prefetch the key/value lines of tag-matched candidates only —
// most misses match no tag and skip their bucket lines entirely. The peek is
// a pure prefetch hint: it may race with writers or a core swap (it resolves
// buckets against the core `current()` returns, so indices stay in range).
// `probe(i, hashed_key)` does the real, synchronized lookup of keys[i] and
// returns whether it hit. Records every lookup and the batch's hit count;
// returns the hit count.
template <typename K, typename Hasher, typename Current, typename Probe>
std::size_t PipelinedProbe(const K* keys, std::size_t count, const Hasher& hasher,
                           MapStats& stats, Current&& current, Probe&& probe) {
  constexpr std::size_t kDepth = 8;  // hash + tag-line prefetch distance
  constexpr std::size_t kPeek = 4;   // candidate key/value prefetch distance
  HashedKey ring[kDepth];

  auto stage = [&](std::size_t i) {
    const HashedKey& h = ring[i % kDepth] = HashedKey::From(hasher(keys[i]));
    const auto* core = current();
    const std::size_t b1 = h.Bucket1(core->mask);
    core->PrefetchTags(b1);
    core->PrefetchTags(core->AltBucket(b1, h.tag));
  };
  auto peek = [&](std::size_t i) {
    const HashedKey& h = ring[i % kDepth];
    const auto* core = current();
    const std::size_t b1 = h.Bucket1(core->mask);
    auto prefetch = [&](std::size_t b, int s) {
      core->PrefetchSlot(b, s);
      return false;  // visit every candidate
    };
    SlotRef unused;
    ProbePair(*core, b1, core->AltBucket(b1, h.tag), h.tag, prefetch, &unused);
  };

  for (std::size_t i = 0; i < (count < kDepth ? count : kDepth); ++i) {
    stage(i);
  }
  for (std::size_t i = 0; i < (count < kPeek ? count : kPeek); ++i) {
    peek(i);
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Probe before staging: ring[i % kDepth] is the slot stage(i + kDepth)
    // would overwrite. peek(i + kPeek) reads an entry staged kDepth - kPeek
    // iterations ago, untouched until stage(i + kDepth + kPeek).
    const bool hit = probe(i, ring[i % kDepth]);
    stats.RecordLookup(hit);
    hits += hit ? 1 : 0;
    if (i + kDepth < count) {
      stage(i + kDepth);
    }
    if (i + kPeek < count) {
      peek(i + kPeek);
    }
  }
  // Distribution of hits per batched (prefetch-pipelined) lookup call.
  stats.RecordBatchHits(hits);
  return hits;
}

// ----- Locking ----------------------------------------------------------------

// Run `fn(core, b1, b2, guard)` with the bucket pair of `h` locked in the
// core `current()` returns, re-resolving if a growth swapped the core while
// we waited. `fn` may release the guard early with ReleaseNoModify();
// otherwise the release bumps the stripe versions (a modification).
template <typename Current, typename Fn>
decltype(auto) WithKeyPair(LockStripes& stripes, Current&& current, const HashedKey& h,
                           Fn&& fn) {
  for (;;) {
    auto* core = current();
    const std::size_t b1 = h.Bucket1(core->mask);
    const std::size_t b2 = core->AltBucket(b1, h.tag);
    PairGuard guard(stripes, b1, b2);
    if (current() != core) {
      guard.ReleaseNoModify();
      continue;
    }
    return fn(*core, b1, b2, guard);
  }
}

// ----- Path execution ---------------------------------------------------------

// Per-hop lock policies for ExecutePath: `lock(from_bucket, to_bucket, hop)`
// runs `hop()` (validate + move, returns whether it moved) under whatever the
// policy holds, and returns its result.

// The caller already excludes every writer (all stripes or a global lock
// held, or a core nobody else can see).
struct ExclusiveHops {
  template <typename Hop>
  bool operator()(std::size_t, std::size_t, Hop&& hop) const {
    return hop();
  }
};

// Lock each hop's bucket pair. `still_current()` must hold under the lock
// (the core was not swapped since discovery); a hop that fails releases
// without a version bump.
template <typename StillCurrent>
auto PairLocked(LockStripes& stripes, StillCurrent still_current) {
  return [&stripes, still_current](std::size_t from, std::size_t to, auto&& hop) {
    PairGuard guard(stripes, from, to);
    if (!still_current() || !hop()) {
      guard.ReleaseNoModify();
      return false;
    }
    return true;
  };
}

struct NoMoveHook {
  template <typename Core>
  void operator()(Core&, const PathHop&, const PathHop&) const noexcept {}
};

// Validate-and-execute every displacement of `path`, from the hole backwards
// ("move holes backwards", Algorithm 2's VALIDATE_EXECUTE decomposed per
// §4.4). A hop is valid while its source slot still holds the tag seen at
// discovery — the tag alone fixes the alternate bucket, so the move stays
// correct — and its destination is still free. The destination is written
// before the source is cleared, so the item is never missing (§4.2).
// `on_move(core, from, to)` runs after each move, under the hop's lock.
//
// Returns false at the first invalid hop. Executed hops are individually
// correct displacements, so the caller simply searches again. Validation is
// needed even under exclusive access: a BFS cycle or a random walk can name
// one slot twice. An empty path moves nothing and fails (the countdown from
// hops.size() - 1 would otherwise underflow).
template <typename Core, typename HopLock = ExclusiveHops, typename OnMove = NoMoveHook>
bool ExecutePath(Core& core, const CuckooPath& path, HopLock&& lock = HopLock{},
                 OnMove&& on_move = OnMove{}) {
  if (path.hops.empty()) {
    return false;
  }
  for (std::size_t i = path.hops.size() - 1; i-- > 0;) {
    const PathHop& from = path.hops[i];
    const PathHop& to = path.hops[i + 1];
    const bool moved = lock(from.bucket, to.bucket, [&] {
      if (from.tag == 0 || core.Tag(from.bucket, from.slot) != from.tag ||
          core.Tag(to.bucket, to.slot) != 0) {
        return false;
      }
      core.MoveSlot(from.bucket, from.slot, to.bucket, to.slot);
      on_move(core, from, to);
      return true;
    });
    if (!moved) {
      return false;
    }
  }
  return true;
}

// ----- Concurrent insert ------------------------------------------------------

// The paper's insert (§4.3.1 "lock after discovering a cuckoo path", §4.4):
// lock the key's bucket pair, check for the key, take a free slot if either
// bucket has one; otherwise unlock, discover a path with no lock held,
// execute it hop by hop under pair locks, and retry. The histogram records
// the displacements of each successful insert once (0 when it went straight
// into a free slot).
//
// Hooks (lookup, overwrite and place run under the key's pair lock, on_move
// under its hop's pair lock, the others under no lock):
//   current()             the core to insert into (re-read every retry)
//   lookup(core, b1, b2)  Found<Core>: where the key already is, if anywhere
//   overwrite(core, at)   the key exists: replace its value (return true) or
//                         leave the table untouched (false)
//   place(core, at)       construct the new item in the free slot `at`
//   on_full(core)         no path within budget: make room (grow, evict) and
//                         return true to retry, or false for kTableFull
//   on_move(core, f, t)   one executed displacement (see ExecutePath)
template <typename Current, typename Lookup, typename Overwrite, typename Place,
          typename OnFull, typename OnMove = NoMoveHook>
InsertResult InsertLoop(LockStripes& stripes, MapStats& stats, const SearchParams& search,
                        const HashedKey& h, Current&& current, Lookup&& lookup,
                        Overwrite&& overwrite, Place&& place, OnFull&& on_full,
                        OnMove&& on_move = OnMove{}) {
  std::size_t displaced = 0;  // displacements executed for this insert
  CuckooPath path;            // reused across retries to avoid reallocation
  for (;;) {
    const std::optional<InsertResult> done = WithKeyPair(
        stripes, current, h,
        [&](auto& core, std::size_t b1, std::size_t b2,
            PairGuard& guard) -> std::optional<InsertResult> {
          const auto found = lookup(core, b1, b2);
          if (found.core != nullptr) {
            if (!overwrite(*found.core, found.at)) {
              guard.ReleaseNoModify();
            }
            return InsertResult::kKeyExists;
          }
          for (std::size_t b : {b1, b2}) {
            const int s = core.FindEmptySlot(b);
            if (s >= 0) {
              place(core, SlotRef{b, s});
              return InsertResult::kOk;
            }
          }
          if (!found.moved) {
            guard.ReleaseNoModify();
          }
          return std::nullopt;
        });
    if (done.has_value()) {
      // Counted after the pair lock is released: the histogram bucket is a
      // line every inserting thread writes.
      if (*done == InsertResult::kOk) {
        stats.RecordInsert();
        stats.RecordPathLength(displaced);
      } else {
        stats.RecordDuplicateInsert();
      }
      return *done;
    }

    // Both buckets full: discover a cuckoo path with no lock held (§4.3.1).
    auto* core = current();
    const std::size_t b1 = h.Bucket1(core->mask);
    const std::size_t b2 = core->AltBucket(b1, h.tag);
    stats.RecordPathSearch();
    path.Clear();
    if (!SearchPath(*core, b1, b2, search, &path)) {
      if (on_full(core)) {
        continue;
      }
      stats.RecordInsertFailure();
      return InsertResult::kTableFull;
    }
    // Window between discovery and the first displacement lock: concurrent
    // writers may consume the hole or move path items; ExecutePath's per-hop
    // validation must then fail (Appendix B).
    CUCKOO_TEST_POINT(TestPoint::kInsertAfterPathDiscovery);
    auto count_move = [&](auto& c, const PathHop& from, const PathHop& to) {
      stats.RecordDisplacements(1);
      on_move(c, from, to);
    };
    if (ExecutePath(*core, path, PairLocked(stripes, [&] { return current() == core; }),
                    count_move)) {
      // A slot is now free in b1 or b2 (unless stolen); retry the fast path.
      displaced += path.Displacements();
    } else {
      stats.RecordPathInvalidation();
    }
  }
}

// ----- Exclusive insert and rehash --------------------------------------------

// Insert with every other writer excluded (expansion rehash, LockedView,
// a force-finished migration): no locks, BFS discovery, validated execution.
// Returns false when no path exists within the search budget; `key` and
// `value` are consumed only on success.
template <typename Core, typename KArg, typename VArg>
bool ExclusiveInsert(Core& core, const HashedKey& h, KArg&& key, VArg&& value,
                     const SearchParams& search) {
  CuckooPath path;
  for (;;) {
    const std::size_t b1 = h.Bucket1(core.mask);
    const std::size_t b2 = core.AltBucket(b1, h.tag);
    for (std::size_t b : {b1, b2}) {
      const int s = core.FindEmptySlot(b);
      if (s >= 0) {
        core.ConstructSlot(b, s, h.tag, std::forward<KArg>(key), std::forward<VArg>(value));
        return true;
      }
    }
    if (!BfsSearch(core, b1, b2, search.max_slots, search.prefetch, &path)) {
      return false;
    }
    const PathHop& hole = path.hops.front();
    if (!ExecutePath(core, path) || core.Tag(hole.bucket, hole.slot) != 0) {
      continue;  // self-overlapping path; table perturbed, search again
    }
    core.ConstructSlot(hole.bucket, hole.slot, h.tag, std::forward<KArg>(key),
                       std::forward<VArg>(value));
    return true;
  }
}

// Move every item of `from` into `to` by exclusive insert; stops at the first
// insert that fails, leaving that item (and the rest) in `from`.
template <typename Core, typename HashOf>
bool MoveItems(Core& from, Core& to, const HashOf& hash_of, const SearchParams& search) {
  for (std::size_t b = 0; b < from.bucket_count(); ++b) {
    for (int s = 0; s < Core::kSlotsPerBucket; ++s) {
      if (from.Tag(b, s) == 0) {
        continue;
      }
      const HashedKey h = hash_of(std::as_const(from).Key(b, s));
      if (!ExclusiveInsert(to, h, std::move(from.Key(b, s)), std::move(from.Value(b, s)),
                           search)) {
        return false;
      }
      from.DestroySlot(b, s);
    }
  }
  return true;
}

// Stop-the-world rehash of `from` into `fresh` (the caller holds every
// stripe; `fresh` is allocated by the caller, ideally before the pause).
// When a rehash fails (pathological collisions) the items already moved go
// back into `from` — there is always room, they came from there — and the
// rehash is retried one size larger. Returns the core that now holds every
// item; `from` is left empty.
template <typename Core, typename HashOf>
std::unique_ptr<Core> RehashInto(Core& from, std::unique_ptr<Core> fresh, const HashOf& hash_of,
                                 const SearchParams& search, bool hugepages) {
  std::size_t log2 = CoreLog2(*fresh);
  while (!MoveItems(from, *fresh, hash_of, search)) {
    const bool recovered = MoveItems(*fresh, from, hash_of, search);
    assert(recovered && "recovery insert cannot fail: every item came from `from`");
    (void)recovered;
    fresh = std::make_unique<Core>(++log2, hugepages);
  }
  return fresh;
}

// The key -> HashedKey function the rehash needs, from a table's hasher.
template <typename Hash>
auto HashOf(const Hash& hasher) {
  return [&hasher](const auto& key) { return HashedKey::From(hasher(key)); };
}

// Capacity rule for Reserve(): slots needed for `n` items to fit below ~95%
// occupancy, plus one bucket of slack.
constexpr std::size_t ReserveSlots(std::size_t n, int slots_per_bucket) noexcept {
  return static_cast<std::size_t>(static_cast<double>(n) / 0.95) +
         static_cast<std::size_t>(slots_per_bucket);
}

}  // namespace cuckoo

#endif  // SRC_CUCKOO_ENGINE_H_
