// FlatCuckooMap — the optimistic concurrent cuckoo table of MemC3 [8], plus
// the paper's incremental optimizations exposed as knobs so the §6.1 factor
// analysis can be reproduced variant by variant:
//
//   knob                        paper label
//   ------------------------    --------------------------------------------
//   (all knobs off, kDfs)       "cuckoo" — multi-reader/single-writer MemC3
//   lock_after_discovery        "+lock later" (Algorithm 2 vs Algorithm 1)
//   search_mode = kBfs          "+BFS"
//   prefetch                    "+prefetch"
//   GlobalLock = glibc elision  "+TSX-glibc"
//   GlobalLock = tuned elision  "+TSX*"
//
// The table is fixed-size (like MemC3; inserts return kTableFull when no path
// exists), B-way set-associative, and uses striped version counters so reads
// never take the global lock. All writes serialize through one GlobalLock —
// the template parameter that the elision wrappers plug into. The probes,
// path search and path execution are the shared engine's (engine.h); what
// is this table's own is the two global-lock insert protocols.
#ifndef SRC_CUCKOO_FLAT_CUCKOO_MAP_H_
#define SRC_CUCKOO_FLAT_CUCKOO_MAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "src/common/cpu.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/per_thread_counter.h"
#include "src/common/spinlock.h"
#include "src/common/striped_locks.h"
#include "src/common/test_points.h"
#include "src/common/thread_annotations.h"
#include "src/cuckoo/engine.h"
#include "src/cuckoo/path_search.h"
#include "src/cuckoo/stats.h"
#include "src/cuckoo/table_core.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

// No-op lock for the single-thread "all locks disabled" rows of Figure 5a.
// Still a capability so ScopedLock<NullLock> instantiations type-check under
// thread-safety analysis; "acquiring" it costs nothing.
struct CAPABILITY("null_lock") NullLock {
  void lock() noexcept ACQUIRE() {}
  void unlock() noexcept RELEASE() {}
  bool try_lock() noexcept TRY_ACQUIRE(true) { return true; }
  bool is_locked() const noexcept { return false; }
};

struct FlatOptions {
  std::size_t bucket_count_log2 = 16;
  // Version-counter stripes for optimistic reads (MemC3 used 1K-8K entries).
  std::size_t version_stripe_count = LockStripes::kDefaultStripeCount;
  std::size_t max_search_slots = 2000;  // M, for BFS
  int dfs_max_path_len = 250;           // MemC3's cap
  SearchMode search_mode = SearchMode::kDfs;
  // false = Algorithm 1 (search inside the critical section);
  // true  = Algorithm 2 ("lock after discovering a cuckoo path").
  bool lock_after_discovery = false;
  bool prefetch = false;
  // Request 2 MB huge-page backing for the table arrays (advisory; large
  // cores only — see src/common/page_alloc.h).
  bool hugepages = false;
};

template <typename K, typename V, typename GlobalLock = SpinLock,
          typename Hash = DefaultHash<K>, typename KeyEqual = std::equal_to<K>, int B = 4>
class FlatCuckooMap {
 public:
  using KeyType = K;
  using ValueType = V;
  using Core = TableCore<K, V, B>;
  static constexpr int kSlotsPerBucket = B;

  explicit FlatCuckooMap(FlatOptions opts = FlatOptions{}, Hash hasher = Hash{},
                         KeyEqual eq = KeyEqual{})
      : opts_(opts),
        hasher_(std::move(hasher)),
        eq_(std::move(eq)),
        search_{opts.max_search_slots, opts.prefetch, opts.search_mode, opts.dfs_max_path_len},
        versions_(opts.version_stripe_count),
        core_(opts.bucket_count_log2, opts.hugepages) {
    stats_.SetHugepageBytes(core_.hugepage_bytes());
  }

  FlatCuckooMap(const FlatCuckooMap&) = delete;
  FlatCuckooMap& operator=(const FlatCuckooMap&) = delete;

  // ----- Lookup (optimistic, never takes the global lock) -------------------

  bool Find(const K& key, V* out) const {
    const std::uint64_t t0 = stats_.MaybeStartLookupTimer();
    const bool found = OptimisticFind(versions_, stats_, Current(), HashedKey::From(hasher_(key)),
                                      key, eq_, /*prefetch=*/false, out);
    stats_.RecordLookup(found);
    stats_.FinishLookupTimer(t0);
    return found;
  }

  bool Contains(const K& key) const {
    V ignored;
    return Find(key, &ignored);
  }

  // ----- Insert --------------------------------------------------------------

  InsertResult Insert(const K& key, const V& value) {
    return DoInsert(key, value, /*overwrite=*/false);
  }

  // Insert or overwrite: kOk if inserted, kKeyExists if overwritten,
  // kTableFull on failure.
  InsertResult Upsert(const K& key, const V& value) {
    return DoInsert(key, value, /*overwrite=*/true);
  }

  bool Update(const K& key, const V& value) {
    return ModifyExisting(key, [&](SlotRef at) { core_.WriteValue(at.bucket, at.slot, value); });
  }

  bool Erase(const K& key) {
    return ModifyExisting(key, [&](SlotRef at) {
      core_.DestroySlot(at.bucket, at.slot);
      size_.Decrement();
      stats_.RecordErase();
    });
  }

  // Remove all items (capacity retained). Serializes against writers via the
  // global lock; each bucket's version bump makes optimistic readers retry.
  void Clear() {
    ScopedLock<GlobalLock> g(lock_);
    for (std::size_t bucket = 0; bucket < core_.bucket_count(); ++bucket) {
      PairGuard bump(versions_, bucket, bucket);
      for (int s = 0; s < B; ++s) {
        if (core_.Tag(bucket, s) != 0) {
          core_.DestroySlot(bucket, s);
        }
      }
    }
    size_.Reset();
  }

  // ----- Capacity / introspection --------------------------------------------

  std::size_t Size() const noexcept {
    std::int64_t n = size_.Sum();
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }
  std::size_t SlotCount() const noexcept { return core_.slot_count(); }
  double LoadFactor() const noexcept {
    return static_cast<double>(Size()) / static_cast<double>(SlotCount());
  }
  std::size_t HeapBytes() const noexcept {
    return core_.HeapBytes() + versions_.stripe_count() * sizeof(PaddedVersionLock);
  }

  MapStatsSnapshot Stats() const { return stats_.Read(); }
  void ResetStats() { stats_.Reset(); }
  // Toggle the sampled lookup/insert latency timers (counters stay on).
  void SetLatencyProfiling(bool enabled) { stats_.SetLatencyProfiling(enabled); }
  const FlatOptions& options() const noexcept { return opts_; }

  // The global write lock, exposed so benches can read elision statistics off
  // an ElidedLock instantiation.
  GlobalLock& global_lock() noexcept { return lock_; }
  const GlobalLock& global_lock() const noexcept { return lock_; }

 private:
  // Every write bumps the version stripes of the buckets it touches, so
  // optimistic readers retry: a PairGuard over versions_ (the writer already
  // holds the global lock, so the stripe acquisition is uncontended).

  auto Current() const {
    return [this] { return &core_; };
  }

  // Under the global lock, apply `fn(at)` to the slot holding `key`, with
  // its version stripe bumped. Returns false if the key is absent.
  template <typename Fn>
  bool ModifyExisting(const K& key, Fn&& fn) {
    const HashedKey h = HashedKey::From(hasher_(key));
    const std::size_t b1 = h.Bucket1(core_.mask);
    ScopedLock<GlobalLock> g(lock_);
    const Found<Core> f = FindKey(core_, b1, core_.AltBucket(b1, h.tag), h.tag, key, eq_);
    if (f.core == nullptr) {
      return false;
    }
    PairGuard bump(versions_, f.at.bucket, f.at.bucket);
    fn(f.at);
    return true;
  }

  // One insert's arguments, threaded through the two protocols.
  struct InsertOp {
    HashedKey h;
    std::size_t b1;
    std::size_t b2;
    const K& key;
    const V& value;
    bool overwrite;  // Upsert: replace the value of an existing key
  };

  InsertResult DoInsert(const K& key, const V& value, bool overwrite) {
    const std::uint64_t t0 = stats_.MaybeStartInsertTimer();
    const HashedKey h = HashedKey::From(hasher_(key));
    const std::size_t b1 = h.Bucket1(core_.mask);
    const InsertOp op{h, b1, core_.AltBucket(b1, h.tag), key, value, overwrite};
    const InsertResult r = opts_.lock_after_discovery ? InsertLockLater(op) : InsertLockFirst(op);
    stats_.FinishInsertTimer(t0);
    return r;
  }

  // Under the global lock: whether the key is present, overwriting its value
  // if the op asks to.
  bool Existing(const InsertOp& op) REQUIRES(lock_) {
    const Found<Core> f = FindKey(core_, op.b1, op.b2, op.h.tag, op.key, eq_);
    if (f.core == nullptr) {
      return false;
    }
    if (op.overwrite) {
      PairGuard bump(versions_, f.at.bucket, f.at.bucket);
      core_.WriteValue(f.at.bucket, f.at.slot, op.value);
    }
    stats_.RecordDuplicateInsert();
    return true;
  }

  // Under the global lock: the duplicate check, then a free slot in b1/b2.
  // nullopt when the key is absent and both buckets are full.
  std::optional<InsertResult> AddIfRoom(const InsertOp& op, std::size_t displaced)
      REQUIRES(lock_) {
    if (Existing(op)) {
      return InsertResult::kKeyExists;
    }
    for (std::size_t b : {op.b1, op.b2}) {
      const int s = core_.FindEmptySlot(b);
      if (s >= 0) {
        Place(op, SlotRef{b, s}, displaced);
        return InsertResult::kOk;
      }
    }
    return std::nullopt;
  }

  // Construct the new item in the free slot `at`; `displaced` items were
  // moved to make room for it.
  void Place(const InsertOp& op, SlotRef at, std::size_t displaced) REQUIRES(lock_) {
    PairGuard bump(versions_, at.bucket, at.bucket);
    core_.ConstructSlot(at.bucket, at.slot, op.h.tag, op.key, op.value);
    size_.Increment();
    stats_.RecordInsert();
    stats_.RecordPathLength(displaced);
  }

  bool SearchPath(std::size_t b1, std::size_t b2, CuckooPath* path) {
    stats_.RecordPathSearch();
    return cuckoo::SearchPath(core_, b1, b2, search_, path);
  }

  // Execute `path` while holding the global lock, validating every hop before
  // moving it (engine.h ExecutePath; each hop bumps its pair's versions).
  // Validation is needed even in lock-first mode: a random-walk (or cyclic
  // BFS) path can reference the same slot twice. Hops executed before a
  // failed validation are individually correct displacements, so the table
  // stays consistent and the caller simply searches again.
  bool ExecutePathLocked(const CuckooPath& path) REQUIRES(lock_) {
    return ExecutePath(core_, path, PairLocked(versions_, [] { return true; }),
                       [this](Core&, const PathHop&, const PathHop&) {
                         stats_.RecordDisplacements(1);
                       });
  }

  // Algorithm 1: the whole Insert (duplicate check, path search, execution)
  // is one critical section.
  InsertResult InsertLockFirst(const InsertOp& op) {
    ScopedLock<GlobalLock> g(lock_);
    if (const auto r = AddIfRoom(op, 0)) {
      return *r;
    }
    std::size_t displaced = 0;
    for (;;) {
      CuckooPath path;
      if (!SearchPath(op.b1, op.b2, &path)) {
        stats_.RecordInsertFailure();
        return InsertResult::kTableFull;
      }
      // A failure is only possible via a self-overlapping path (no concurrent
      // writers under the global lock); the partial execution perturbed the
      // table, so the next search finds a different path.
      const PathHop& hole = path.hops.front();
      if (!ExecutePathLocked(path) || core_.Tag(hole.bucket, hole.slot) != 0) {
        stats_.RecordPathInvalidation();
        continue;
      }
      displaced += path.Displacements();
      Place(op, SlotRef{hole.bucket, hole.slot}, displaced);
      return InsertResult::kOk;
    }
  }

  // Algorithm 2: search for the cuckoo path outside the critical section, then
  // validate-and-execute under the lock, restarting if the path went stale.
  InsertResult InsertLockLater(const InsertOp& op) {
    std::size_t displaced = 0;
    for (;;) {
      // Unlocked availability probe (Algorithm 2 lines 3-8).
      if (core_.FindEmptySlot(op.b1) >= 0 || core_.FindEmptySlot(op.b2) >= 0) {
        ScopedLock<GlobalLock> g(lock_);
        if (const auto r = AddIfRoom(op, displaced)) {
          return *r;
        }
        // Probe raced with another writer filling the bucket; fall through.
      }

      CuckooPath path;
      if (!SearchPath(op.b1, op.b2, &path)) {
        // Confirm fullness (and absence) under the lock before giving up.
        ScopedLock<GlobalLock> g(lock_);
        if (const auto r = AddIfRoom(op, displaced)) {
          return *r;
        }
        stats_.RecordInsertFailure();
        return InsertResult::kTableFull;
      }

      // Window between discovery and taking the lock (Algorithm 2): the path
      // may be invalidated by writers that slip in here.
      CUCKOO_TEST_POINT(TestPoint::kInsertAfterPathDiscovery);
      {
        ScopedLock<GlobalLock> g(lock_);
        if (Existing(op)) {
          return InsertResult::kKeyExists;
        }
        // A zero-hop path's free slot may have been taken before we locked.
        const PathHop& hole = path.hops.front();
        if (!ExecutePathLocked(path) ||
            (path.hops.size() == 1 && core_.Tag(hole.bucket, hole.slot) != 0)) {
          stats_.RecordPathInvalidation();
          continue;  // rediscover (Algorithm 2's while loop)
        }
        displaced += path.Displacements();
        Place(op, SlotRef{hole.bucket, hole.slot}, displaced);
        return InsertResult::kOk;
      }
    }
  }

  FlatOptions opts_;
  Hash hasher_;
  KeyEqual eq_;
  SearchParams search_;
  mutable LockStripes versions_;
  Core core_;
  mutable GlobalLock lock_;
  PerThreadCounter size_;
  mutable MapStats stats_;
};

}  // namespace cuckoo

#endif  // SRC_CUCKOO_FLAT_CUCKOO_MAP_H_
