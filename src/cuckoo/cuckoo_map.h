// CuckooMap — the paper's "cuckoo+" table (§4): a multi-reader/multi-writer
// B-way set-associative cuckoo hash table with
//
//   * optimistic lock-free reads validated by striped version counters,
//   * BFS cuckoo-path discovery performed entirely outside critical sections,
//   * per-displacement validate-and-execute under fine-grained bucket-pair
//     locks (at most L_BFS = 5 short critical sections per insert at the
//     default M = 2000, B = 8),
//   * striped spinlocks whose high-order bit doubles as the lock (§4.4),
//   * optional whole-table expansion (the §7 libcuckoo extension), and
//   * a LockedView exclusive iteration facility (also §7).
//
// Thread safety: all public member functions are safe to call concurrently
// except construction, destruction, and Clear()/Rehash() racing with reads
// that began before the call (see the retired-core note below).
#ifndef SRC_CUCKOO_CUCKOO_MAP_H_
#define SRC_CUCKOO_CUCKOO_MAP_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/debug_checks.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/striped_locks.h"
#include "src/common/test_points.h"
#include "src/common/thread_annotations.h"
#include "src/cuckoo/engine.h"
#include "src/cuckoo/path_search.h"
#include "src/cuckoo/stats.h"
#include "src/cuckoo/table_core.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

template <typename K, typename V, typename Hash = DefaultHash<K>,
          typename KeyEqual = std::equal_to<K>, int B = 8>
class CuckooMap {
 public:
  using KeyType = K;
  using ValueType = V;
  using Core = TableCore<K, V, B>;
  static constexpr int kSlotsPerBucket = B;

  struct Options {
    // log2 of the initial bucket count; slots = buckets * B.
    std::size_t initial_bucket_count_log2 = 16;
    // Lock-stripe table size (the paper's default is 2048).
    std::size_t stripe_count = LockStripes::kDefaultStripeCount;
    // M: maximum slots examined per path search before declaring "too full".
    std::size_t max_search_slots = 2000;
    // Per-walk hop cap for the DFS ablation mode (MemC3 used 250).
    int dfs_max_path_len = 250;
    SearchMode search_mode = SearchMode::kBfs;
    ReadMode read_mode = ReadMode::kOptimistic;
    bool prefetch = true;
    // Grow (×2 rehash) instead of returning kTableFull when a path search
    // fails. MemC3/the paper's eval table is fixed-size; libcuckoo grows.
    bool auto_expand = true;
    // Request 2 MB huge-page backing for the table arrays (advisory; large
    // cores only — see src/common/page_alloc.h).
    bool hugepages = false;
  };

  explicit CuckooMap(Options opts = Options{}, Hash hasher = Hash{}, KeyEqual eq = KeyEqual{})
      : opts_(opts),
        hasher_(std::move(hasher)),
        eq_(std::move(eq)),
        search_{opts.max_search_slots, opts.prefetch, opts.search_mode, opts.dfs_max_path_len},
        stripes_(opts.stripe_count),
        core_(new Core(opts.initial_bucket_count_log2, opts.hugepages)) {
    stripes_.SetContentionCounter(stats_.ContentionCounter());
    stats_.SetHugepageBytes(core_.load(std::memory_order_relaxed)->hugepage_bytes());
  }

  CuckooMap(const CuckooMap&) = delete;
  CuckooMap& operator=(const CuckooMap&) = delete;

  ~CuckooMap() { delete core_.load(std::memory_order_relaxed); }

  // ----- Lookup ------------------------------------------------------------

  // Copy the value for `key` into *out. Returns false if absent.
  bool Find(const K& key, V* out) const {
    const std::uint64_t t0 = stats_.MaybeStartLookupTimer();
    const bool hit = FindHashed(HashedKey::From(hasher_(key)), key, out);
    stats_.RecordLookup(hit);
    stats_.FinishLookupTimer(t0);
    return hit;
  }

  bool Contains(const K& key) const {
    V ignored;
    return Find(key, &ignored);
  }

  // Batched lookup with software pipelining (engine.h PipelinedProbe):
  // hashes and prefetches run ahead of the probes, hiding DRAM latency on
  // out-of-cache tables. Writes per-key results into values[] and found[];
  // returns the hit count. Concurrency-safe like Find.
  std::size_t FindBatch(const K* keys, std::size_t count, V* values, bool* found) const {
    return PipelinedProbe(keys, count, hasher_, stats_, Current(),
                          [&](std::size_t i, const HashedKey& h) {
                            return found[i] = FindHashed(h, keys[i], &values[i]);
                          });
  }

  // ----- Mutation ----------------------------------------------------------

  // Insert key -> value. kKeyExists leaves the existing mapping untouched.
  InsertResult Insert(const K& key, const V& value) {
    return DoInsert(key, value, [](Core&, SlotRef) { return false; });
  }

  // Insert or overwrite. Returns kOk (inserted), kKeyExists (overwritten), or
  // kTableFull.
  InsertResult Upsert(const K& key, const V& value) {
    return DoInsert(key, value, [&](Core& core, SlotRef at) {
      core.WriteValue(at.bucket, at.slot, value);
      return true;
    });
  }

  // Atomically modify the value of `key` in place with `fn(V&)` while holding
  // its bucket locks, or insert `initial` if absent (libcuckoo's upsert).
  // Returns kOk if inserted, kKeyExists if modified, kTableFull on failure.
  template <typename Fn>
  InsertResult UpsertWith(const K& key, Fn&& fn, const V& initial) {
    return DoInsert(key, initial, [&](Core& core, SlotRef at) {
      // Load/modify/store through the relaxed accessors rather than handing
      // `fn` a reference: a concurrent optimistic reader may be copying these
      // bytes, and the mutation must stay tear-tolerant.
      V v = core.LoadValue(at.bucket, at.slot);
      fn(v);
      core.WriteValue(at.bucket, at.slot, v);
      return true;
    });
  }

  // Overwrite the value of an existing key. Returns false if absent.
  bool Update(const K& key, const V& value) {
    const HashedKey h = HashedKey::From(hasher_(key));
    return WithKey(h, key, [&](const Found<Core>& f, PairGuard& guard) {
      if (f.core == nullptr) {
        guard.ReleaseNoModify();
        return false;
      }
      f.core->WriteValue(f.at.bucket, f.at.slot, value);
      return true;
    });
  }

  // Remove `key`. Returns true if it was present.
  bool Erase(const K& key) {
    const HashedKey h = HashedKey::From(hasher_(key));
    return WithKey(h, key, [&](const Found<Core>& f, PairGuard& guard) {
      if (f.core == nullptr) {
        guard.ReleaseNoModify();
        return false;
      }
      f.core->DestroySlot(f.at.bucket, f.at.slot);
      size_.Decrement();
      stats_.RecordErase();
      return true;
    });
  }

  // ----- Capacity ----------------------------------------------------------

  std::size_t Size() const noexcept {
    std::int64_t n = size_.Sum();
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  std::size_t SlotCount() const noexcept {
    return core_.load(std::memory_order_acquire)->slot_count();
  }

  std::size_t BucketCount() const noexcept {
    return core_.load(std::memory_order_acquire)->bucket_count();
  }

  double LoadFactor() const noexcept {
    return static_cast<double>(Size()) / static_cast<double>(SlotCount());
  }

  // Grow until at least `n` items fit below ~95% occupancy.
  void Reserve(std::size_t n) {
    while (SlotCount() < ReserveSlots(n, B)) {
      Expand(core_.load(std::memory_order_acquire));
    }
  }

  // Remove all items (buckets and capacity retained).
  void Clear() {
    MutexLock maintenance(maintenance_mutex_);
    AllGuard all(stripes_);
    DestroyAll(*core_.load(std::memory_order_relaxed));
    size_.Reset();
  }

  // Approximate heap usage: live core + stripes + every retired core, which
  // stays mapped until destruction for reader safety (see retired_).
  std::size_t HeapBytes() const noexcept {
    std::size_t bytes = core_.load(std::memory_order_acquire)->HeapBytes() +
                        stripes_.stripe_count() * sizeof(PaddedVersionLock);
    return bytes + retired_bytes_.load(std::memory_order_relaxed);
  }

  // ----- Introspection -----------------------------------------------------

  MapStatsSnapshot Stats() const { return stats_.Read(); }
  void ResetStats() { stats_.Reset(); }
  // Toggle the sampled lookup/insert latency timers (counters stay on).
  void SetLatencyProfiling(bool enabled) { stats_.SetLatencyProfiling(enabled); }
  const Options& options() const noexcept { return opts_; }

  // Maximum cuckoo-path length the BFS can produce at the configured M (Eq. 2).
  std::size_t MaxBfsDepth() const noexcept {
    return MaxBfsPathLength(B, opts_.max_search_slots);
  }

  // Full-table invariant check for tests: acquires every stripe, then
  // verifies per-slot key/tag/bucket consistency and the size counter.
  // Aborts with a diagnostic on violation (active in all build types).
  void AssertInvariants() {
    MutexLock maintenance(maintenance_mutex_);
    AllGuard all(stripes_);
    Core* core = core_.load(std::memory_order_relaxed);
    core->AssertInvariants(static_cast<std::int64_t>(Size()));
    for (std::size_t bkt = 0; bkt < core->bucket_count(); ++bkt) {
      for (int s = 0; s < B; ++s) {
        const std::uint8_t tag = core->Tag(bkt, s);
        if (tag == 0) {
          continue;
        }
        const HashedKey h = HashedKey::From(hasher_(core->KeyRef(bkt, s)));
        CUCKOO_CHECK(h.tag == tag, "stored tag must be the key's partial key");
        const std::size_t b1 = h.Bucket1(core->mask);
        CUCKOO_CHECK(bkt == b1 || bkt == core->AltBucket(b1, h.tag),
                     "item must reside in one of its two candidate buckets");
      }
    }
  }

  // ----- Exclusive view (§7 libcuckoo-style iteration) ----------------------

  // Holds every lock stripe for its lifetime: all concurrent operations block.
  //
  // Thread-safety analysis cannot track scoped capabilities stored as
  // members (it models them as function-local only), so the constructor and
  // the lock-requiring methods are excluded from analysis; the guard members
  // still provide the actual exclusion for the view's whole lifetime.
  class LockedView {
   public:
    explicit LockedView(CuckooMap& map) NO_THREAD_SAFETY_ANALYSIS
        : map_(map), maintenance_(map.maintenance_mutex_), all_(map.stripes_) {
      core_ = map_.core_.load(std::memory_order_relaxed);
    }
    LockedView(const LockedView&) = delete;
    LockedView& operator=(const LockedView&) = delete;

    class Iterator {
     public:
      using value_type = std::pair<const K&, V&>;

      Iterator(Core* core, std::size_t bucket, int slot) noexcept
          : core_(core), bucket_(bucket), slot_(slot) {
        SkipToOccupied();
      }

      value_type operator*() const noexcept {
        return {core_->KeyRef(bucket_, slot_), core_->MutableValueRef(bucket_, slot_)};
      }

      Iterator& operator++() noexcept {
        ++slot_;
        SkipToOccupied();
        return *this;
      }

      bool operator==(const Iterator& other) const noexcept {
        return bucket_ == other.bucket_ && slot_ == other.slot_;
      }
      bool operator!=(const Iterator& other) const noexcept { return !(*this == other); }

     private:
      void SkipToOccupied() noexcept {
        while (bucket_ < core_->bucket_count()) {
          if (slot_ >= B) {
            slot_ = 0;
            ++bucket_;
            continue;
          }
          if (core_->Tag(bucket_, slot_) != 0) {
            return;
          }
          ++slot_;
        }
        slot_ = 0;  // canonical end() state
      }

      Core* core_;
      std::size_t bucket_;
      int slot_;
    };

    Iterator begin() noexcept { return Iterator(core_, 0, 0); }
    Iterator end() noexcept { return Iterator(core_, core_->bucket_count(), 0); }

    std::size_t Size() const noexcept { return map_.Size(); }

    bool Find(const K& key, V* out) const NO_THREAD_SAFETY_ANALYSIS {
      const Found<Core> f = FindIn(key);
      if (f.core == nullptr) {
        return false;
      }
      *out = core_->Value(f.at.bucket, f.at.slot);
      return true;
    }

    // Exclusive insert; never expands (the view pins the core). Returns
    // kTableFull if no path exists.
    InsertResult Insert(const K& key, const V& value) NO_THREAD_SAFETY_ANALYSIS {
      if (FindIn(key).core != nullptr) {
        return InsertResult::kKeyExists;
      }
      if (!ExclusiveInsert(*core_, HashedKey::From(map_.hasher_(key)), key, value,
                           map_.search_)) {
        return InsertResult::kTableFull;
      }
      map_.size_.Increment();
      return InsertResult::kOk;
    }

    bool Erase(const K& key) NO_THREAD_SAFETY_ANALYSIS {
      const Found<Core> f = FindIn(key);
      if (f.core == nullptr) {
        return false;
      }
      core_->DestroySlot(f.at.bucket, f.at.slot);
      map_.size_.Decrement();
      return true;
    }

   private:
    Found<Core> FindIn(const K& key) const {
      const HashedKey h = HashedKey::From(map_.hasher_(key));
      const std::size_t b1 = h.Bucket1(core_->mask);
      return FindKey(*core_, b1, core_->AltBucket(b1, h.tag), h.tag, key, map_.eq_);
    }

    CuckooMap& map_;
    MutexLock maintenance_;
    AllGuard all_;
    Core* core_;
  };

  LockedView Lock() { return LockedView(*this); }

 private:
  // The live core, as every operation resolves it.
  auto Current() const {
    return [this] { return core_.load(std::memory_order_acquire); };
  }

  bool FindHashed(const HashedKey& h, const K& key, V* out) const {
    if (opts_.read_mode == ReadMode::kOptimistic) {
      return OptimisticFind(stripes_, stats_, Current(), h, key, eq_, opts_.prefetch, out);
    }
    return WithKey(h, key, [&](const Found<Core>& f, PairGuard& guard) {
      if (f.core != nullptr) {
        *out = f.core->Value(f.at.bucket, f.at.slot);
      }
      guard.ReleaseNoModify();
      return f.core != nullptr;
    });
  }

  // Run `fn(found, guard)` with the key's bucket pair locked.
  template <typename Fn>
  bool WithKey(const HashedKey& h, const K& key, Fn&& fn) const {
    return WithKeyPair(stripes_, Current(), h,
                       [&](Core& core, std::size_t b1, std::size_t b2, PairGuard& guard) {
                         return fn(FindKey(core, b1, b2, h.tag, key, eq_), guard);
                       });
  }

  // `overwrite(core, at)` decides what happens to an existing key (see
  // InsertLoop).
  template <typename Overwrite>
  InsertResult DoInsert(const K& key, const V& value, Overwrite&& overwrite) {
    const std::uint64_t t0 = stats_.MaybeStartInsertTimer();
    const HashedKey h = HashedKey::From(hasher_(key));
    const InsertResult r = InsertLoop(
        stripes_, stats_, search_, h, Current(),
        [&](Core& core, std::size_t b1, std::size_t b2) {
          return FindKey(core, b1, b2, h.tag, key, eq_);
        },
        overwrite,
        [&](Core& core, SlotRef at) {
          core.ConstructSlot(at.bucket, at.slot, h.tag, key, value);
          size_.Increment();
        },
        [this](Core* core) {
          if (opts_.auto_expand) {
            Expand(core);
          }
          return opts_.auto_expand;
        });
    stats_.FinishInsertTimer(t0);
    return r;
  }

  // ----- Expansion -----------------------------------------------------------

  // Double the table (re-doubling if the rehash itself fails). No-op if
  // another thread already replaced `expected_core`.
  void Expand(Core* expected_core) {
    MutexLock maintenance(maintenance_mutex_);
    if (core_.load(std::memory_order_acquire) != expected_core) {
      return;  // somebody else expanded while we waited
    }
    // First-attempt core allocated (and zeroed) before the stripes are
    // taken: the multi-MB clear is the bulk of a large expansion's wall time
    // and must not extend the writer-visible pause. (Retry allocations after
    // a failed rehash are rare enough to stay inside.)
    auto fresh = std::make_unique<Core>(CoreLog2(*expected_core) + 1, opts_.hugepages);
    CUCKOO_TEST_POINT(TestPoint::kExpansionCoreAllocated);
    // Expansion pause = the full-table lock hold: every writer (and locked
    // reader) is stalled from here until the stripes release.
    const std::uint64_t pause_start = NowNanos();
    AllGuard all(stripes_);
    Core* old_core = core_.load(std::memory_order_relaxed);
    fresh = RehashInto(*old_core, std::move(fresh), HashOf(hasher_), search_, opts_.hugepages);
    retired_bytes_.fetch_add(old_core->HeapBytes(), std::memory_order_relaxed);
    retired_.emplace_back(old_core);
    stats_.SetHugepageBytes(fresh->hugepage_bytes());
    core_.store(fresh.release(), std::memory_order_release);
    stats_.RecordExpansion();
    stats_.RecordExpansionPauseNanos(NowNanos() - pause_start);
  }

  Options opts_;
  Hash hasher_;
  KeyEqual eq_;
  SearchParams search_;
  mutable LockStripes stripes_;
  std::atomic<Core*> core_;
  // Serializes expansion / Clear / LockedView creation against each other.
  Mutex maintenance_mutex_;
  // Old cores are kept until destruction: an optimistic reader may still be
  // dereferencing one (its version validation will fail and it will retry,
  // but the bytes must remain mapped). Bounded by a geometric series — total
  // retired bytes are at most the live core's size.
  std::vector<std::unique_ptr<Core>> retired_ GUARDED_BY(maintenance_mutex_);
  std::atomic<std::size_t> retired_bytes_{0};
  PerThreadCounter size_;
  mutable MapStats stats_;
};

}  // namespace cuckoo

#endif  // SRC_CUCKOO_CUCKOO_MAP_H_
