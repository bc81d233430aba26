// GeneralCuckooMap — the §7 "libcuckoo release" generality extension:
//
//   "The libcuckoo library offers an easy-to-use interface that supports
//    variable length key value pairs of arbitrary types, including those with
//    pointers or strings, provides iterators, and dynamically resizes itself
//    as it fills. The price of this generality is that it uses locks for
//    reads as well as writes ... at the cost of a 5-20% slowdown."
//
// Compared with CuckooMap:
//   * keys/values may be any movable types (std::string, std::vector,
//     std::unique_ptr, ...) — elements live in aligned raw storage and are
//     placement-constructed / destroyed per slot;
//   * every operation (including Find) takes the bucket-pair lock, so there
//     is no optimistic read protocol and no trivially-copyable requirement;
//   * displacements move-construct elements bucket-to-bucket;
//   * old cores are retired (kept allocated until destruction) when the
//     table grows: the unlocked BFS path search may still be scanning one;
//     once drained they hold no live elements, and their total size is
//     bounded by the live core's;
//   * expansion is incremental when the table is large enough (see Expand):
//     the doubled core is published lock-free, a background migrator drains
//     the old core bucket-by-bucket under the ordinary stripe locks, writers
//     piggyback-migrate the buckets they touch, and operations consult both
//     cores (live first, then the draining one) until a per-bucket migrated
//     bitmap says the old bucket is permanently empty. The protocol relies on
//     a stripe-alignment invariant: when old_bucket_count is a multiple of
//     the stripe count, an old bucket b and both of its images in the doubled
//     core (b and b + old_bucket_count) share one stripe, and the alternate
//     buckets of any element with a given tag are pairwise stripe-equal too —
//     so the ordinary pair lock for a key covers that key's buckets in BOTH
//     cores at once. Small tables fall back to the stop-the-world rehash.
//
// The cuckoo algorithm itself is the shared engine (engine.h): tag-directed
// BFS path discovery outside the critical section, per-displacement
// validate-and-execute under striped bucket-pair locks. What is this map's
// own is the migration window and the fuzzy snapshot walk.
#ifndef SRC_CUCKOO_GENERAL_CUCKOO_MAP_H_
#define SRC_CUCKOO_GENERAL_CUCKOO_MAP_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/page_alloc.h"
#include "src/common/striped_locks.h"
#include "src/common/test_points.h"
#include "src/common/thread_annotations.h"
#include "src/cuckoo/engine.h"
#include "src/cuckoo/path_search.h"
#include "src/cuckoo/stats.h"
#include "src/cuckoo/table_core.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

namespace internal {

// B-way bucket storage for non-trivial types: the shared tag array
// (table_core.h TagArray, 0 = empty) plus uninitialized aligned storage for
// keys and values. Lifetime is managed per-slot with placement new; the
// owner must destroy occupied slots before the core is released (the
// destructor destroys any that are left).
//
// Storage is a PageBlock (anonymous mmap for large cores, optionally with
// 2 MB huge-page backing) on purpose: the kernel's zero pages ARE the
// "every slot empty" state, so a doubled core materializes in O(1) work and
// each page is faulted in by the first operation that touches it — not by
// the one writer whose insert happened to trigger the expansion. (With
// value-initialized storage, zeroing the x2 array was the dominant term of
// the expansion stall.) Bucket stays an implicit-lifetime type, so the
// zeroed block itself starts the array's lifetime.
template <typename K, typename V, int B>
struct GeneralCore : TagArray<B> {
  using TagArray<B>::SetTag;
  using TagArray<B>::Tag;

  struct Bucket {
    alignas(K) unsigned char key_storage[B][sizeof(K)];
    alignas(V) unsigned char value_storage[B][sizeof(V)];
  };
  static_assert(std::is_trivially_copyable_v<Bucket> &&
                    std::is_trivially_default_constructible_v<Bucket>,
                "zeroed storage must be able to start the bucket array's lifetime");

  explicit GeneralCore(std::size_t bucket_count_log2, bool want_hugepages = false)
      : TagArray<B>(bucket_count_log2, want_hugepages),
        block_(this->bucket_count() * sizeof(Bucket), want_hugepages),
        buckets(static_cast<Bucket*>(block_.data())) {}

  GeneralCore(const GeneralCore&) = delete;
  GeneralCore& operator=(const GeneralCore&) = delete;

  ~GeneralCore() {
    // Trivially destructible slots need no per-slot teardown, and skipping
    // the walk means a never-touched (calloc-lazy) region is never faulted
    // in just to be freed. (Clear() and canceled migrations need the tags
    // actually zeroed, so they always call DestroyAll.)
    if constexpr (!(std::is_trivially_destructible_v<K> &&
                    std::is_trivially_destructible_v<V>)) {
      DestroyAll(*this);
    }
  }

  std::size_t HeapBytes() const noexcept {
    return this->bucket_count() * sizeof(Bucket) + this->slot_count();
  }

  // Bytes granted MADV_HUGEPAGE backing (0 unless requested and honored).
  std::size_t hugepage_bytes() const noexcept {
    return this->tag_block_.hugepage_bytes() + block_.hugepage_bytes();
  }

  K& Key(std::size_t bucket, int slot) noexcept {
    return *std::launder(reinterpret_cast<K*>(buckets[bucket].key_storage[slot]));
  }
  const K& Key(std::size_t bucket, int slot) const noexcept {
    return *std::launder(reinterpret_cast<const K*>(buckets[bucket].key_storage[slot]));
  }
  V& Value(std::size_t bucket, int slot) noexcept {
    return *std::launder(reinterpret_cast<V*>(buckets[bucket].value_storage[slot]));
  }
  const V& Value(std::size_t bucket, int slot) const noexcept {
    return *std::launder(reinterpret_cast<const V*>(buckets[bucket].value_storage[slot]));
  }

  template <typename KArg, typename VArg>
  void ConstructSlot(std::size_t bucket, int slot, std::uint8_t tag, KArg&& key, VArg&& value) {
    ::new (static_cast<void*>(buckets[bucket].key_storage[slot])) K(std::forward<KArg>(key));
    ::new (static_cast<void*>(buckets[bucket].value_storage[slot])) V(std::forward<VArg>(value));
    SetTag(bucket, slot, tag);
  }

  void DestroySlot(std::size_t bucket, int slot) noexcept {
    Key(bucket, slot).~K();
    Value(bucket, slot).~V();
    SetTag(bucket, slot, 0);
  }

  // Move the element in (from, from_slot) to the empty (to, to_slot).
  void MoveSlot(std::size_t from, int from_slot, std::size_t to, int to_slot) {
    ConstructSlot(to, to_slot, Tag(from, from_slot), std::move(Key(from, from_slot)),
                  std::move(Value(from, from_slot)));
    DestroySlot(from, from_slot);
  }

  // Targeted prefetch for one movemask candidate: the key and value storage
  // lines of a specific slot (the batch pipeline calls this only for slots
  // whose tag already matched).
  void PrefetchSlot(std::size_t bucket, int slot) const noexcept {
    PrefetchRead(&buckets[bucket].key_storage[slot]);
    PrefetchRead(&buckets[bucket].value_storage[slot]);
  }

  PageBlock block_;
  Bucket* buckets;
};

}  // namespace internal

template <typename K, typename V, typename Hash = DefaultHash<K>,
          typename KeyEqual = std::equal_to<K>, int B = 4>
class GeneralCuckooMap {
 public:
  using KeyType = K;
  using ValueType = V;
  using Core = internal::GeneralCore<K, V, B>;
  static constexpr int kSlotsPerBucket = B;

  struct Options {
    std::size_t initial_bucket_count_log2 = 8;
    std::size_t stripe_count = LockStripes::kDefaultStripeCount;
    std::size_t max_search_slots = 2000;
    bool prefetch = true;
    // Growth is online (a two-core migration window) whenever the
    // stripe-alignment invariant holds: old_bucket_count % stripe_count == 0.
    // Tables with fewer buckets than stripes use the stop-the-world rehash.
    bool auto_expand = true;
    // Old-core buckets a writer drains inline when its insert needs more room
    // while a migration window is still open (backpressure on the window).
    std::size_t help_drain_buckets = 64;
    // Request 2 MB huge-page backing for the bucket array (advisory; large
    // cores only — see src/common/page_alloc.h).
    bool hugepages = false;
  };

  explicit GeneralCuckooMap(Options opts = Options{}, Hash hasher = Hash{},
                            KeyEqual eq = KeyEqual{})
      : opts_(opts),
        hasher_(std::move(hasher)),
        eq_(std::move(eq)),
        search_{opts.max_search_slots, opts.prefetch},
        stripes_(opts.stripe_count),
        core_(std::make_unique<Core>(opts.initial_bucket_count_log2, opts.hugepages)) {
    stripes_.SetContentionCounter(stats_.ContentionCounter());
    stats_.SetHugepageBytes(core_->hugepage_bytes());
    core_snapshot_.store(core_.get(), std::memory_order_release);
  }

  GeneralCuckooMap(const GeneralCuckooMap&) = delete;
  GeneralCuckooMap& operator=(const GeneralCuckooMap&) = delete;

  ~GeneralCuckooMap() {
    MutexLock maintenance(maintenance_mutex_);
    StopMigratorLocked();
    // Elements still split across the live and draining (retired) cores are
    // destroyed by the cores' own destructors.
  }

  // ----- Lookup (locked) -----------------------------------------------------

  // Copy the value out. Requires V copyable; use WithValue for move-only V.
  bool Find(const K& key, V* out) const {
    static_assert(std::is_copy_assignable_v<V>,
                  "Find copies the value; use WithValue() for move-only types");
    bool hit = WithValue(key, [out](const V& v) { *out = v; });
    return hit;
  }

  bool Contains(const K& key) const {
    return WithValue(key, [](const V&) {});
  }

  // Apply `fn(const V&)` to the mapped value under the bucket locks.
  // Returns false (fn not called) if the key is absent.
  template <typename Fn>
  bool WithValue(const K& key, Fn&& fn) const {
    const std::uint64_t t0 = stats_.MaybeStartLookupTimer();
    const bool found = VisitLocked(HashedKey::From(hasher_(key)), key, fn);
    stats_.RecordLookup(found);
    stats_.FinishLookupTimer(t0);
    return found;
  }

  // Batched lookup with software pipelining (engine.h PipelinedProbe, the
  // §4.3.2 prefetch insight applied to the locked read path): the bucket pair
  // is already in cache when its pair lock is taken. `fn(i, const V&)` is
  // called under the bucket locks for every key that is present; returns the
  // hit count. Concurrency-safe like WithValue; each probe is individually
  // atomic (the batch as a whole is not a snapshot).
  template <typename Fn>
  std::size_t WithValueBatch(const K* keys, std::size_t count, Fn&& fn) const {
    return PipelinedProbe(keys, count, hasher_, stats_, Current(),
                          [&](std::size_t i, const HashedKey& h) {
                            auto visit = [&](const V& v) { fn(i, v); };
                            return VisitLocked(h, keys[i], visit);
                          });
  }

  // Apply `fn(V&)` to the mapped value (mutable) under the bucket locks.
  template <typename Fn>
  bool WithValueMut(const K& key, Fn&& fn) {
    return WithFound(HashedKey::From(hasher_(key)), key,
                     [&](const Found<Core>& f, PairGuard& guard) {
                       if (f.core == nullptr) {
                         guard.ReleaseNoModify();
                         return false;
                       }
                       fn(f.core->Value(f.at.bucket, f.at.slot));
                       return true;  // guard bumps versions on destruction
                     });
  }

  // ----- Mutation ------------------------------------------------------------

  template <typename KArg, typename VArg>
  InsertResult Insert(KArg&& key, VArg&& value) {
    return DoInsert(std::forward<KArg>(key), std::forward<VArg>(value),
                    /*overwrite_existing=*/false, [](const V&) {}, [](const V&) {});
  }

  template <typename KArg, typename VArg>
  InsertResult Upsert(KArg&& key, VArg&& value) {
    return DoInsert(std::forward<KArg>(key), std::forward<VArg>(value),
                    /*overwrite_existing=*/true, [](const V&) {}, [](const V&) {});
  }

  // Upsert, invoking `then(const V& stored)` while the bucket-pair lock is
  // still held whenever the table was actually modified (fresh insert or
  // overwrite). Durability layers use this to assign a WAL sequence number
  // inside the critical section, so log order matches per-key table order
  // (two racing SETs on one key serialize identically in both).
  template <typename KArg, typename VArg, typename Then>
  InsertResult UpsertThen(KArg&& key, VArg&& value, Then&& then) {
    return DoInsert(std::forward<KArg>(key), std::forward<VArg>(value),
                    /*overwrite_existing=*/true, [](const V&) {},
                    std::forward<Then>(then));
  }

  // UpsertThen that also exposes the value being replaced: on an overwrite,
  // `on_old(const V& old)` runs under the pair guard immediately before the
  // old value is destroyed (never on a fresh insert). Tiered stores use this
  // to release external resources (e.g. value-log space) the old value
  // referenced — reading it after the upsert would be too late, the slot
  // has already been reassigned.
  template <typename KArg, typename VArg, typename OnOld, typename Then>
  InsertResult UpsertReplaceThen(KArg&& key, VArg&& value, OnOld&& on_old, Then&& then) {
    return DoInsert(std::forward<KArg>(key), std::forward<VArg>(value),
                    /*overwrite_existing=*/true, std::forward<OnOld>(on_old),
                    std::forward<Then>(then));
  }

  bool Update(const K& key, V value) {
    return WithValueMut(key, [&value](V& v) { v = std::move(value); });
  }

  bool Erase(const K& key) {
    return EraseIf(key, [](const V&) { return true; });
  }

  // Remove `key` only if `pred(const V&)` holds, atomically under the bucket
  // locks (e.g. erase-if-still-expired for TTL caches). Returns true iff the
  // entry was removed.
  template <typename Pred>
  bool EraseIf(const K& key, Pred&& pred) {
    return EraseIfThen(key, std::forward<Pred>(pred), [] {});
  }

  // EraseIf, invoking `after()` under the bucket-pair lock right after the
  // slot is destroyed (same WAL-ordering rationale as UpsertThen).
  template <typename Pred, typename After>
  bool EraseIfThen(const K& key, Pred&& pred, After&& after) {
    return WithFound(HashedKey::From(hasher_(key)), key,
                     [&](const Found<Core>& f, PairGuard& guard) {
                       if (f.core == nullptr ||
                           !pred(std::as_const(*f.core).Value(f.at.bucket, f.at.slot))) {
                         guard.ReleaseNoModify();
                         return false;
                       }
                       f.core->DestroySlot(f.at.bucket, f.at.slot);
                       size_.fetch_sub(1, std::memory_order_relaxed);
                       stats_.RecordErase();
                       after();
                       return true;
                     });
  }

  // ----- Capacity ------------------------------------------------------------

  std::size_t Size() const noexcept { return size_.load(std::memory_order_relaxed); }
  std::size_t SlotCount() const noexcept {
    MutexLock g(maintenance_mutex_);
    return core_->slot_count();
  }
  double LoadFactor() const noexcept {
    MutexLock g(maintenance_mutex_);
    return static_cast<double>(Size()) / static_cast<double>(core_->slot_count());
  }
  // Approximate heap usage: live core + stripes + every retired core (the
  // draining core of an open window among them), which stays mapped until
  // destruction for the unlocked path search (see retired_).
  std::size_t HeapBytes() const noexcept {
    MutexLock g(maintenance_mutex_);
    std::size_t bytes = core_->HeapBytes() + stripes_.stripe_count() * sizeof(PaddedVersionLock);
    for (const auto& retired : retired_) {
      bytes += retired->HeapBytes();
    }
    return bytes;
  }

  // Grow until at least `n` items fit below ~95% occupancy.
  void Reserve(std::size_t n) {
    while (SlotCount() < ReserveSlots(n, B)) {
      Expand(nullptr);
    }
  }

  void Clear() {
    MutexLock maintenance(maintenance_mutex_);
    StopMigratorLocked();
    AllGuard all(stripes_);
    if (migration_state_ != nullptr) {
      // A canceled migration leaves elements split across both cores; empty
      // the old (already retired) one — stale readers may still probe it and
      // find only zero tags.
      DestroyAll(*migration_state_->old_core);
      retired_migrations_.push_back(std::move(migration_state_));
    }
    DestroyAll(*core_);
    size_.store(0, std::memory_order_relaxed);
  }

  MapStatsSnapshot Stats() const { return stats_.Read(); }
  void ResetStats() { stats_.Reset(); }
  // Toggle the sampled lookup/insert latency timers (counters stay on).
  void SetLatencyProfiling(bool enabled) { stats_.SetLatencyProfiling(enabled); }
  const Options& options() const noexcept { return opts_; }

  // ----- Online (fuzzy) snapshot walk ---------------------------------------

  // Counters describing one TrySnapshotBuckets walk (for durability stats).
  struct SnapshotWalkStats {
    std::uint64_t buckets = 0;
    std::uint64_t entries = 0;
    std::uint64_t empty_skips = 0;      // buckets skipped by version validation
    std::uint64_t lock_fallbacks = 0;   // blocking Lock() after K failed tries
    std::uint64_t displaced_entries = 0;  // entries re-emitted from the move log
  };

  // Visit a fuzzy snapshot of the table while writers keep running. Unlike
  // ForEach, no global lock is ever taken: the walk holds at most one stripe
  // lock at a time, so a writer contends only on the single stripe currently
  // being copied. Per bucket:
  //
  //   * Empty buckets are skipped optimistically: tag bytes are read lock-free
  //     and validated against the stripe's §4.4 version counter (the same
  //     snapshot/validate discipline the optimistic read path uses). No lock.
  //   * Occupied buckets fall back to the stripe lock — keys and values here
  //     own heap memory (std::string, ...), so copying them outside the lock
  //     would race with a concurrent DestroySlot (the very race the locked
  //     read protocol of this §7 generality layer exists to prevent). The
  //     acquisition itself is optimistic: TryLock up to `lock_retries` times,
  //     then a blocking Lock() as the fallback.
  //
  // Cuckoo displacements can move an element from a not-yet-visited bucket
  // into an already-visited one, which would make the walk miss it entirely;
  // while a walk is active, every displacement and migration move records the
  // moved element (LogDisplaced, the engine's on-move hook) into a side log
  // that is drained (re-emitted through `fn`) after the last bucket.
  // Duplicate emissions are possible and expected — consumers load snapshots
  // with upsert semantics and WAL replay fixes up any stale copy.
  //
  // `fn(const K&, const V&)` is invoked on copies, outside any lock. Returns
  // false (walk must be retried by the caller, e.g. after rewinding its
  // output file) if an expansion swapped the core mid-walk; bucket indices
  // are not comparable across cores.
  //
  // Constrained (not just asserted) to copy-constructible K/V: the
  // displacement side log holds copies, and a map of move-only elements
  // would silently drop every displaced element from the snapshot if this
  // overload existed for it. The requires-clause makes "this map cannot be
  // snapshotted" detectable (`requires { m.TrySnapshotBuckets(...) }` is
  // false) rather than a hard error inside the body.
  template <typename Fn>
  bool TrySnapshotBuckets(Fn&& fn, int lock_retries = 8,
                          SnapshotWalkStats* stats_out = nullptr) const
    requires(std::is_copy_constructible_v<K> && std::is_copy_constructible_v<V>)
  {
    MutexLock one_walk(snapshot_walk_mutex_);
    {
      MutexLock g(displaced_mutex_);
      displaced_log_.clear();
    }
    snapshot_active_.store(true, std::memory_order_release);
    SnapshotWalkStats stats;
    const bool ok = WalkBuckets(fn, lock_retries, &stats);
    snapshot_active_.store(false, std::memory_order_release);
    if (ok) {
      // Drain the displacement log: anything cuckooed across the walk
      // frontier is emitted here (possibly a second time — harmless).
      std::vector<std::pair<K, V>> moved;
      {
        MutexLock g(displaced_mutex_);
        moved.swap(displaced_log_);
      }
      for (const auto& [key, value] : moved) {
        fn(key, value);
      }
      stats.displaced_entries = moved.size();
      stats.entries += moved.size();
    }
    if (stats_out != nullptr) {
      *stats_out = stats;
    }
    return ok;
  }

  // Visit every element exclusively (all stripes held). During a migration
  // window elements are split across the live and draining cores; both are
  // visited (a key lives in exactly one of them).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    MutexLock maintenance(maintenance_mutex_);
    AllGuard all(stripes_);
    Core* draining = migration_state_ != nullptr ? migration_state_->old_core : nullptr;
    for (Core* core : {core_.get(), draining}) {
      if (core == nullptr) {
        continue;
      }
      for (std::size_t b = 0; b < core->bucket_count(); ++b) {
        for (int s = 0; s < B; ++s) {
          if (core->Tag(b, s) != 0) {
            fn(const_cast<const K&>(core->Key(b, s)), core->Value(b, s));
          }
        }
      }
    }
  }

 private:
  // State of one incremental expansion: the old core being drained, the live
  // core that replaced it, and a bitmap recording which old buckets are
  // permanently empty. Retired (kept allocated) after the window closes, like
  // retired_ cores: a stale reader may still hold the pointer it loaded from
  // migration_ and probe the bitmap or the old core's tags.
  struct MigrationState {
    Core* old_core;
    Core* new_core;
    std::size_t old_bucket_count;
    // One bit per old-core bucket, set once the bucket is permanently empty.
    // All transitions (and the tag stores they summarize) happen under the
    // bucket's stripe lock, so relaxed accesses are ordered by the lock;
    // bits are monotone 0 -> 1, so a stale unlocked read only costs a
    // redundant probe of an empty bucket.
    std::unique_ptr<std::atomic<std::uint64_t>[]> migrated_words;
    // Round-robin cursor handing out help-drain chunks to writers.
    std::atomic<std::size_t> help_cursor{0};
    std::atomic<bool> cancel{false};
    std::atomic<bool> complete{false};

    MigrationState(Core* old_c, Core* new_c)
        : old_core(old_c),
          new_core(new_c),
          old_bucket_count(old_c->bucket_count()),
          migrated_words(new std::atomic<std::uint64_t>[(old_bucket_count + 63) / 64]) {
      for (std::size_t w = 0; w < (old_bucket_count + 63) / 64; ++w) {
        migrated_words[w].store(0, std::memory_order_relaxed);
      }
    }

    bool BucketMigrated(std::size_t b) const noexcept {
      return ((migrated_words[b >> 6].load(std::memory_order_relaxed) >> (b & 63)) & 1u) != 0;
    }
    // Returns true if this call set the bit (exactly one marker wins).
    bool MarkMigrated(std::size_t b) noexcept {
      const std::uint64_t bit = std::uint64_t{1} << (b & 63);
      return (migrated_words[b >> 6].fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
    }
  };

  // Everything an operation needs inside one bucket-pair critical section.
  // During a migration window `ms` is non-null and (ob1, ob2) are the key's
  // buckets in the draining core; the stripe pair locked for (b1, b2) covers
  // them too — the window only opens when old_bucket_count is a multiple of
  // the stripe count, so b and b & old_mask share a stripe, and the two
  // cores' alternate buckets (bucket ^ f(tag), masked) are stripe-equal as
  // well.
  struct PairView {
    Core* core;
    std::size_t b1, b2;
    MigrationState* ms;
    std::size_t ob1, ob2;

    // False once both old buckets are drained: the old core can no longer
    // hold this key and operations skip probing it.
    bool OldMayHold() const noexcept {
      return ms != nullptr && !(ms->BucketMigrated(ob1) && ms->BucketMigrated(ob2));
    }
  };

  // The live core, as every operation resolves it.
  auto Current() const {
    return [this] { return core_snapshot_.load(std::memory_order_acquire); };
  }

  // The key's view of the locked bucket pair in `core`. Honors the migration
  // window only when the loaded state matches the core: a mismatched (stale)
  // pairing would resolve old-core buckets against the wrong mask. Ignoring a
  // mismatch is always safe — a state whose new_core is not the validated
  // core is either already fully drained (its old core holds only zero tags)
  // or belongs to a core this operation can no longer be running against
  // (the switch publishes migration_ before core_snapshot_, and the pair
  // lock's validation pins the core for the whole critical section).
  PairView ViewOf(Core& core, std::size_t b1, std::size_t b2) const {
    PairView view{&core, b1, b2, nullptr, 0, 0};
    MigrationState* ms = migration_.load(std::memory_order_acquire);
    if (ms != nullptr && ms->new_core == &core) {
      view.ms = ms;
      view.ob1 = b1 & ms->old_core->mask;
      view.ob2 = b2 & ms->old_core->mask;
    }
    return view;
  }

  // Two-core probe: live core first, then the draining core unless its
  // bitmap says this key's old buckets are empty. A key lives in at most one
  // core (fresh inserts go live-only; migration moves, never copies).
  Found<Core> FindInView(const PairView& v, std::uint8_t tag, const K& key) const {
    Found<Core> f = FindKey(*v.core, v.b1, v.b2, tag, key, eq_);
    if (f.core == nullptr && v.OldMayHold()) {
      f = FindKey(*v.ms->old_core, v.ob1, v.ob2, tag, key, eq_);
    }
    return f;
  }

  // Run `fn(found, guard)` with the key's bucket pair locked (engine.h
  // WithKeyPair), `found` locating the key in either core. `fn` may release
  // the guard early; otherwise its destructor bumps the stripe versions.
  template <typename Fn>
  decltype(auto) WithFound(const HashedKey& h, const K& key, Fn&& fn) const {
    return WithKeyPair(stripes_, Current(), h,
                       [&](Core& core, std::size_t b1, std::size_t b2, PairGuard& guard) {
                         return fn(FindInView(ViewOf(core, b1, b2), h.tag, key), guard);
                       });
  }

  // Locked read: `fn(const V&)` on the key's value, if present.
  template <typename Fn>
  bool VisitLocked(const HashedKey& h, const K& key, Fn& fn) const {
    return WithFound(h, key, [&](const Found<Core>& f, PairGuard& guard) {
      if (f.core != nullptr) {
        fn(std::as_const(*f.core).Value(f.at.bucket, f.at.slot));
      }
      guard.ReleaseNoModify();
      return f.core != nullptr;
    });
  }

  // `after(const V& stored)` runs under the pair guard at every point where
  // the table was modified (overwrite or fresh construct) — see UpsertThen.
  // `on_old(const V& old)` runs just before an overwrite destroys the
  // previous value — see UpsertReplaceThen.
  template <typename KArg, typename VArg, typename OnOld, typename After>
  InsertResult DoInsert(KArg&& key, VArg&& value, bool overwrite_existing, OnOld&& on_old,
                        After&& after) {
    const std::uint64_t t0 = stats_.MaybeStartInsertTimer();
    const HashedKey h = HashedKey::From(hasher_(key));
    const InsertResult r = InsertLoop(
        stripes_, stats_, search_, h, Current(),
        [&](Core& core, std::size_t b1, std::size_t b2) {
          const PairView v = ViewOf(core, b1, b2);
          Found<Core> f = FindInView(v, h.tag, key);
          // Piggyback-migrate: while the stripes are held anyway, drain the
          // same-tag residents of the touched old buckets (bounded work, no
          // path search — their candidate buckets are under these stripes).
          if (f.core == nullptr && v.OldMayHold()) {
            f.moved = PiggybackMigrateLocked(v, h.tag) > 0;
          }
          return f;
        },
        [&](Core& where, SlotRef at) {
          if (!overwrite_existing) {
            return false;
          }
          // Overwrite in place, even when the slot still lives in the
          // draining core — the migrator will carry the new value over.
          on_old(std::as_const(where).Value(at.bucket, at.slot));
          where.Value(at.bucket, at.slot) = V(std::forward<VArg>(value));
          after(std::as_const(where).Value(at.bucket, at.slot));
          return true;
        },
        [&](Core& core, SlotRef at) {
          core.ConstructSlot(at.bucket, at.slot, h.tag, std::forward<KArg>(key),
                             std::forward<VArg>(value));
          size_.fetch_add(1, std::memory_order_relaxed);
          after(std::as_const(core).Value(at.bucket, at.slot));
        },
        [this](Core* core) {
          if (opts_.auto_expand) {
            Expand(core);
          }
          return opts_.auto_expand;
        },
        [this](Core& core, const PathHop&, const PathHop& to) {
          LogDisplaced(core, to.bucket, to.slot);
        });
    stats_.FinishInsertTimer(t0);
    return r;
  }

  // The on-move hook of every concurrent move: a displacement (or a
  // migration move) can carry an element from a bucket an active snapshot
  // walk has not reached into one it already visited, hiding it from the
  // walk; log a copy so TrySnapshotBuckets can re-emit it. Caller holds a
  // lock covering the bucket, so the copy is race-free.
  void LogDisplaced(const Core& core, std::size_t bucket, int slot) const {
    if (!snapshot_active_.load(std::memory_order_acquire)) {
      return;
    }
    if constexpr (std::is_copy_constructible_v<K> && std::is_copy_constructible_v<V>) {
      MutexLock g(displaced_mutex_);
      displaced_log_.emplace_back(core.Key(bucket, slot), core.Value(bucket, slot));
    } else {
      // TrySnapshotBuckets is constrained to copyable K/V, so no walk can be
      // active on a map whose elements cannot be logged.
      assert(!"snapshot walk active on a map with non-copyable elements");
    }
  }

  // One pass over every bucket for TrySnapshotBuckets: the live core, then —
  // if a migration window is open — the draining core, whose unmigrated
  // buckets still hold elements. Holds at most one stripe lock at a time;
  // returns false if an expansion swapped the core mid-walk (the caller
  // retries the whole snapshot). Elements migrated across the walk frontier
  // are re-emitted from the displacement log, like any other displacement.
  template <typename Fn>
  bool WalkBuckets(Fn& fn, int lock_retries, SnapshotWalkStats* stats) const {
    Core* core = core_snapshot_.load(std::memory_order_acquire);
    MigrationState* ms = migration_.load(std::memory_order_acquire);
    if (ms != nullptr && ms->new_core != core) {
      // Mid-switch or stale pairing; if the switch lands mid-walk the
      // per-bucket core validation below forces a retry, and a completed
      // stale window has nothing left to walk.
      ms = nullptr;
    }
    const std::uint64_t epoch = force_finish_epoch_.load(std::memory_order_acquire);
    // Prologue: acquire+release every stripe once (one at a time, no version
    // bump). The lock-free empty-skip below means a writer might otherwise
    // displace elements without ever observing snapshot_active_ == true: the
    // flag store alone has no release/acquire edge to a writer that takes no
    // lock we hold. After this round, any writer critical section that starts
    // later acquires a stripe whose lock word we released after setting the
    // flag, so it observes the flag and logs its displacements.
    for (std::size_t s = 0; s < stripes_.stripe_count(); ++s) {
      stripes_.LockStripe(s);
      stripes_.UnlockStripeNoModify(s);
    }
    if (!WalkCoreBuckets(core, core, epoch, fn, lock_retries, stats)) {
      return false;
    }
    if (ms != nullptr &&
        !WalkCoreBuckets(ms->old_core, core, epoch, fn, lock_retries, stats)) {
      return false;
    }
    return true;
  }

  // Walk every bucket of `target` (which is either the live core or the
  // draining core; either way each bucket shares a stripe with its live-core
  // images, so the per-stripe discipline covers both). `live` anchors the
  // validity checks: if core_snapshot_ moves off it, or a force-finished
  // migration bumps the epoch (bulk moves that bypass the displacement log),
  // the walk aborts and the snapshot retries.
  // Excluded from thread-safety analysis: the single-stripe walk (TryLock
  // retry loop with a blocking-Lock fallback, then an early-return unlock
  // path) is exactly the conditional-acquisition control flow the analysis
  // cannot join; the stripe-order runtime checks cover it instead.
  template <typename Fn>
  bool WalkCoreBuckets(Core* target, Core* live, std::uint64_t epoch, Fn& fn,
                       int lock_retries, SnapshotWalkStats* stats) const
      NO_THREAD_SAFETY_ANALYSIS {
    std::vector<std::pair<K, V>> copies;
    for (std::size_t b = 0; b < target->bucket_count(); ++b) {
      ++stats->buckets;
      const std::size_t stripe = stripes_.StripeFor(b);
      // Optimistic empty check: tag bytes are atomics, readable lock-free;
      // the stripe version validates that no writer touched the stripe while
      // we looked (same seqlock discipline as the optimistic read path).
      const std::uint64_t v1 = stripes_.Stripe(stripe).AwaitVersion();
      bool empty = true;
      for (int s = 0; s < B && empty; ++s) {
        empty = target->Tag(b, s) == 0;
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (empty && stripes_.Stripe(stripe).LoadRaw() == v1) {
        if (core_snapshot_.load(std::memory_order_acquire) != live ||
            force_finish_epoch_.load(std::memory_order_acquire) != epoch) {
          return false;
        }
        ++stats->empty_skips;
        continue;
      }
      // Occupied (or contended): copy under the stripe lock — K/V may own
      // heap memory, so an unlocked copy would race with DestroySlot.
      bool locked = false;
      for (int attempt = 0; attempt < lock_retries && !locked; ++attempt) {
        locked = stripes_.TryLockStripe(stripe);
        if (!locked) {
          CpuRelax();
        }
      }
      if (!locked) {
        stripes_.LockStripe(stripe);
        ++stats->lock_fallbacks;
      }
      if (core_snapshot_.load(std::memory_order_relaxed) != live ||
          force_finish_epoch_.load(std::memory_order_relaxed) != epoch) {
        stripes_.UnlockStripeNoModify(stripe);
        return false;
      }
      copies.clear();
      for (int s = 0; s < B; ++s) {
        if (target->Tag(b, s) != 0) {
          copies.emplace_back(const_cast<const Core&>(*target).Key(b, s),
                              const_cast<const Core&>(*target).Value(b, s));
        }
      }
      stripes_.UnlockStripeNoModify(stripe);
      for (const auto& [key, value] : copies) {
        fn(key, value);
      }
      stats->entries += copies.size();
    }
    return true;
  }

  // Grow the table. When the stripe-alignment invariant holds the expansion
  // is online: the doubled core and
  // a MigrationState are published without taking a single stripe — the
  // writer-visible pause is just that publication — and the old core drains
  // through the background migrator plus writer piggybacking. Otherwise the
  // stop-the-world rehash runs (with the first-attempt allocation hoisted
  // out of the pause).
  void Expand(Core* expected_core) {
    if (migration_.load(std::memory_order_acquire) != nullptr) {
      // A window is already open; the table has already doubled. Contribute a
      // bounded chunk of drain work as backpressure, then let the caller
      // retry against the live core.
      HelpDrain();
      return;
    }
    {
      MutexLock maintenance(maintenance_mutex_);
      if (expected_core != nullptr &&
          core_snapshot_.load(std::memory_order_acquire) != expected_core) {
        return;  // somebody else already expanded
      }
      ReapMigrationLocked();
      if (migration_state_ == nullptr) {
        if (IncrementalEligibleLocked()) {
          StartIncrementalLocked();
        } else {
          StopTheWorldExpandLocked();
        }
        return;
      }
      // A window opened while we waited for the mutex; fall through to help.
    }
    HelpDrain();
  }

  bool IncrementalEligibleLocked() const REQUIRES(maintenance_mutex_) {
    return core_->bucket_count() % stripes_.stripe_count() == 0;
  }

  // Retire the live core and publish `fresh` in its place. The old core
  // stays mapped until destruction: an in-flight (unlocked) BFS search, or an
  // operation holding a stale MigrationState, may still read its tags.
  void PublishLocked(std::unique_ptr<Core> fresh) REQUIRES(maintenance_mutex_) {
    retired_.push_back(std::move(core_));
    core_ = std::move(fresh);
    stats_.SetHugepageBytes(core_->hugepage_bytes());
    core_snapshot_.store(core_.get(), std::memory_order_release);
    stats_.RecordExpansion();
  }

  // Open an incremental window: publish the doubled core and the migration
  // state, then hand the drain to a background thread. No stripe is taken —
  // writers run through the switch; the recorded "pause" is the publication
  // itself.
  void StartIncrementalLocked() REQUIRES(maintenance_mutex_) {
    assert(!migrator_.joinable());
    // The fresh core (the expensive multi-MB zeroing) is allocated before
    // anything is published.
    auto fresh = std::make_unique<Core>(CoreLog2(*core_) + 1, opts_.hugepages);
    CUCKOO_TEST_POINT(TestPoint::kExpansionCoreAllocated);
    const std::uint64_t pause_start = NowNanos();
    migration_state_ = std::make_unique<MigrationState>(core_.get(), fresh.get());
    // Publication order matters: the state must be visible before any
    // operation can observe the new core (WithPair acquire-loads the core
    // first, then the state; seeing the new core without the state would
    // skip the old-core probe and miss every unmigrated resident).
    migration_.store(migration_state_.get(), std::memory_order_release);
    PublishLocked(std::move(fresh));
    stats_.RecordMigrationStarted(migration_state_->old_bucket_count);
    stats_.RecordExpansionPauseNanos(NowNanos() - pause_start);
    migrator_ = std::thread(&GeneralCuckooMap::MigratorMain, this, migration_state_.get());
  }

  void StopTheWorldExpandLocked() REQUIRES(maintenance_mutex_) {
    // First-attempt core allocated (and zeroed) before the stripes are
    // taken: the multi-MB clear is the bulk of a large expansion's wall time
    // and must not extend the writer-visible pause.
    auto fresh = std::make_unique<Core>(CoreLog2(*core_) + 1, opts_.hugepages);
    CUCKOO_TEST_POINT(TestPoint::kExpansionCoreAllocated);
    // Expansion pause = the full-table lock hold: every writer (and locked
    // reader) is stalled from here until the stripes release.
    const std::uint64_t pause_start = NowNanos();
    AllGuard all(stripes_);
    PublishLocked(RehashInto(*core_, std::move(fresh), HashOf(hasher_), search_, opts_.hugepages));
    stats_.RecordExpansionPauseNanos(NowNanos() - pause_start);
  }

  // ----- Incremental migration ----------------------------------------------
  //
  // Lifecycle: StartIncrementalLocked publishes the window and spawns
  // MigratorMain, which drains old buckets through the ordinary stripe
  // locks and finally clears migration_ and sets complete. The next
  // maintenance operation (Expand, Clear, destruction) joins the thread and
  // retires the state. The migrator NEVER blocks on maintenance_mutex_
  // (Clear/destructor join it while holding that mutex) — its one
  // maintenance-side need, the force-finish fallback, uses TryLock and
  // honors cancel.

  // Join a finished migrator and retire its state. No-op while the window is
  // still draining.
  void ReapMigrationLocked() REQUIRES(maintenance_mutex_) {
    if (migration_state_ == nullptr ||
        !migration_state_->complete.load(std::memory_order_acquire)) {
      return;
    }
    if (migrator_.joinable()) {
      migrator_.join();
    }
    retired_migrations_.push_back(std::move(migration_state_));
  }

  // Cancel an active window and join the migrator (for Clear/destruction).
  // The caller owns what happens to the half-drained cores afterwards.
  void StopMigratorLocked() REQUIRES(maintenance_mutex_) {
    if (migration_state_ != nullptr) {
      migration_state_->cancel.store(true, std::memory_order_release);
    }
    if (migrator_.joinable()) {
      migrator_.join();
    }
    migration_.store(nullptr, std::memory_order_release);
  }

  // Background drain: walk every old-core bucket and migrate its residents
  // into the live core under the ordinary bucket-pair locks.
  void MigratorMain(MigrationState* ms) {
    for (std::size_t b = 0; b < ms->old_bucket_count; ++b) {
      if (!DrainOldBucket(ms, b)) {
        return;  // canceled (Clear/destructor owns cleanup)
      }
      // Background politeness: hand the CPU back every few buckets so a
      // runnable writer on an oversubscribed host waits one drain slice, not
      // a whole scheduler timeslice. Near-free when cores are idle.
      if ((b & 0xF) == 0xF) {
        std::this_thread::yield();
      }
    }
    // Clear the lock-free pointer before announcing completion:
    // ReapMigrationLocked trusts complete => no operation can still need the
    // window honored (stale loads of the state remain harmless — the old
    // core is empty and stays mapped).
    migration_.store(nullptr, std::memory_order_release);
    ms->complete.store(true, std::memory_order_release);
    stats_.RecordMigrationCompleted();
  }

  // Drain one old bucket to empty. Returns false only if canceled (or the
  // window was force-finished out from under us).
  bool DrainOldBucket(MigrationState* ms, std::size_t b) {
    if (ms->BucketMigrated(b)) {
      return true;  // a writer piggybacked it
    }
    for (;;) {
      if (ms->cancel.load(std::memory_order_acquire)) {
        return false;
      }
      // Peek one occupant under the bucket's own stripe; migrating it needs
      // the pair lock, which only its hash determines.
      HashedKey h{};
      bool occupied = false;
      const std::size_t stripe = stripes_.StripeFor(b);
      stripes_.LockStripe(stripe);
      for (int s = 0; s < B; ++s) {
        if (ms->old_core->Tag(b, s) != 0) {
          h = HashedKey::From(hasher_(ms->old_core->Key(b, s)));
          occupied = true;
          break;
        }
      }
      if (!occupied) {
        MarkDrained(ms, b);
        stripes_.UnlockStripeNoModify(stripe);
        return true;
      }
      stripes_.UnlockStripeNoModify(stripe);
      if (!MigrateByHash(ms, h)) {
        return false;
      }
    }
  }

  // Migrate every old-core resident whose tag matches h.tag out of h's old
  // bucket pair, opening room in the live core by BFS displacement when both
  // candidate buckets are full. Returns false only if canceled.
  // Consecutive BFS failures in MigrateByHash before the migrator gives up
  // on displacement and finishes the window stop-the-world.
  static constexpr int kMigratorMaxBfsFailures = 8;

  bool MigrateByHash(MigrationState* ms, const HashedKey& h) {
    int bfs_failures = 0;
    for (;;) {
      if (ms->cancel.load(std::memory_order_acquire)) {
        return false;
      }
      Core* core = ms->new_core;
      const std::size_t b1 = h.Bucket1(core->mask);
      const std::size_t b2 = core->AltBucket(b1, h.tag);
      HashedKey blocked{};  // tag 0: nothing blocked
      {
        PairGuard guard(stripes_, b1, b2);
        if (core_snapshot_.load(std::memory_order_relaxed) != core) {
          // A force-finish replaced the live core — the old core is already
          // fully drained.
          guard.ReleaseNoModify();
          return true;
        }
        const std::size_t old_mask = ms->old_core->mask;
        if (MoveAcrossLocked(ms, b1 & old_mask, b2 & old_mask, h.tag, &blocked) == 0) {
          guard.ReleaseNoModify();
        }
      }
      if (blocked.tag == 0) {
        return true;
      }
      // Open a hole next to the blocked element's live candidates, exactly
      // like a regular insert would.
      stats_.RecordPathSearch();
      const std::size_t c1 = blocked.Bucket1(core->mask);
      CuckooPath path;
      if (!SearchPath(*core, c1, core->AltBucket(c1, blocked.tag), search_, &path)) {
        // The live core (2x the draining one) cannot absorb the leftovers:
        // writers outran the drain. After a few attempts, finish the window
        // stop-the-world rather than livelock.
        if (++bfs_failures >= kMigratorMaxBfsFailures) {
          return TryForceFinish(ms);
        }
        std::this_thread::yield();
        continue;
      }
      bfs_failures = 0;
      auto still_current = [&] { return core_snapshot_.load(std::memory_order_relaxed) == core; };
      auto on_move = [this](Core& c, const PathHop&, const PathHop& to) {
        stats_.RecordDisplacements(1);
        LogDisplaced(c, to.bucket, to.slot);
      };
      if (!ExecutePath(*core, path, PairLocked(stripes_, still_current), on_move)) {
        stats_.RecordPathInvalidation();
      }
    }
  }

  // Move the old-core residents of ob1/ob2 whose tag is `tag` into the live
  // core, each into a free slot of one of its candidate buckets, and mark
  // every old bucket that ends up empty. The caller holds the stripe pair
  // covering ob1/ob2 and, by the alignment invariant, every live candidate.
  // Returns the moves made; a resident whose candidates are both full is
  // left in place and reported in *blocked.
  std::size_t MoveAcrossLocked(MigrationState* ms, std::size_t ob1, std::size_t ob2,
                               std::uint8_t tag, HashedKey* blocked) NO_THREAD_SAFETY_ANALYSIS {
    Core* from = ms->old_core;
    Core* to = ms->new_core;
    std::size_t moved = 0;
    for (std::size_t ob : {ob1, ob2}) {
      if (ms->BucketMigrated(ob)) {
        continue;
      }
      bool empty = true;
      for (int s = 0; s < B; ++s) {
        if (from->Tag(ob, s) != tag) {
          empty = empty && from->Tag(ob, s) == 0;
          continue;
        }
        const HashedKey eh = HashedKey::From(hasher_(from->Key(ob, s)));
        const std::size_t c1 = eh.Bucket1(to->mask);
        SlotRef at{c1, to->FindEmptySlot(c1)};
        if (at.slot < 0) {
          at.bucket = to->AltBucket(c1, eh.tag);
          at.slot = to->FindEmptySlot(at.bucket);
        }
        if (at.slot < 0) {
          *blocked = eh;
          empty = false;
          continue;
        }
        to->ConstructSlot(at.bucket, at.slot, eh.tag, std::move(from->Key(ob, s)),
                          std::move(from->Value(ob, s)));
        from->DestroySlot(ob, s);
        stats_.RecordMigratedEntry();
        // A migration move can cross the snapshot walk frontier in either
        // core; log it like any displacement.
        LogDisplaced(*to, at.bucket, at.slot);
        ++moved;
      }
      if (empty) {
        MarkDrained(ms, ob);
      }
    }
    return moved;
  }

  // Set the bucket's migrated bit. The caller holds the bucket's stripe, so
  // the bit's meaning ("permanently empty") is ordered by that lock.
  void MarkDrained(MigrationState* ms, std::size_t ob) {
    if (ms->MarkMigrated(ob)) {
      stats_.RecordMigrationBucketDone();
    }
  }

  // Writer-side help inside its own critical section: move the same-tag
  // residents of the two touched old buckets across (their live candidates
  // are under the held stripes — no path search, bounded by 2B probes).
  // Returns moves performed; the caller must version-bump on release if > 0.
  std::size_t PiggybackMigrateLocked(const PairView& v, std::uint8_t tag) {
    const std::uint64_t t0 = NowNanos();
    HashedKey blocked{};
    const std::size_t moved = MoveAcrossLocked(v.ms, v.ob1, v.ob2, tag, &blocked);
    if (moved > 0) {
      stats_.RecordMigrationStall(NowNanos() - t0);
    }
    return moved;
  }

  // Expand-time writer backpressure: drain a bounded chunk of old buckets on
  // the calling thread while the window is open.
  void HelpDrain() {
    MigrationState* ms = migration_.load(std::memory_order_acquire);
    if (ms == nullptr) {
      return;
    }
    const std::uint64_t t0 = NowNanos();
    for (std::size_t i = 0;
         i < opts_.help_drain_buckets && migration_.load(std::memory_order_acquire) == ms;
         ++i) {
      const std::size_t b =
          ms->help_cursor.fetch_add(1, std::memory_order_relaxed) % ms->old_bucket_count;
      if (!DrainOldBucket(ms, b)) {
        break;
      }
    }
    stats_.RecordMigrationStall(NowNanos() - t0);
  }

  // Last resort when the live core cannot absorb the remaining old residents
  // by displacement (writers filled it mid-window): finish the drain
  // stop-the-world, growing the live core if even exclusive inserts fail.
  // Returns false if canceled before the drain could run.
  // TryLock instead of Lock: Clear()/~GeneralCuckooMap hold
  // maintenance_mutex_ while joining this thread; blocking here would
  // deadlock, so back off and honor cancel instead. Excluded from analysis
  // for the same conditional-acquisition reason as the snapshot walk.
  bool TryForceFinish(MigrationState* ms) NO_THREAD_SAFETY_ANALYSIS {
    for (;;) {
      if (ms->cancel.load(std::memory_order_acquire)) {
        return false;
      }
      if (maintenance_mutex_.TryLock()) {
        break;
      }
      std::this_thread::yield();
    }
    if (ms->cancel.load(std::memory_order_acquire) || migration_state_.get() != ms) {
      maintenance_mutex_.Unlock();
      return false;
    }
    {
      AllGuard all(stripes_);
      // Snapshot walks cannot tell these bulk moves (nor the exclusive
      // inserts' displacements) apart from untouched buckets, and none of
      // them is logged; bump the epoch so an in-flight walk retries.
      force_finish_epoch_.fetch_add(1, std::memory_order_release);
      while (!MoveItems(*ms->old_core, *core_, HashOf(hasher_), search_)) {
        GrowLiveLocked();
      }
      for (std::size_t b = 0; b < ms->old_bucket_count; ++b) {
        MarkDrained(ms, b);
      }
    }
    stats_.RecordMigrationForceFinished();
    maintenance_mutex_.Unlock();
    return true;
  }

  // Replace the live core with a double-size rehash, exclusively (AllGuard
  // held by the caller). Readers holding a stale MigrationState see its
  // new_core mismatch the published core afterwards and ignore the window —
  // correct, because by the time the stripes release every element lives in
  // the published core.
  void GrowLiveLocked() REQUIRES(maintenance_mutex_) REQUIRES(stripes_) {
    PublishLocked(RehashInto(*core_, std::make_unique<Core>(CoreLog2(*core_) + 1, opts_.hugepages),
                             HashOf(hasher_), search_, opts_.hugepages));
  }

  Options opts_;
  Hash hasher_;
  KeyEqual eq_;
  SearchParams search_;
  mutable LockStripes stripes_;
  mutable Mutex maintenance_mutex_;
  // Owned core (replacement serialized by maintenance_mutex_) plus a lock-
  // free snapshot pointer operations resolve buckets against.
  std::unique_ptr<Core> core_ GUARDED_BY(maintenance_mutex_);
  // Superseded cores, kept until destruction (see PublishLocked). While a
  // window is open, the last of them is the draining core.
  std::vector<std::unique_ptr<Core>> retired_ GUARDED_BY(maintenance_mutex_);
  // Incremental-expansion window: migration_state_ tracks per-bucket drain
  // progress of its old (retired, shrinking) core. Like retired_ cores,
  // completed states are kept mapped (a stale reader may still hold the
  // pointer it loaded from migration_).
  std::unique_ptr<MigrationState> migration_state_ GUARDED_BY(maintenance_mutex_);
  std::vector<std::unique_ptr<MigrationState>> retired_migrations_
      GUARDED_BY(maintenance_mutex_);
  std::thread migrator_ GUARDED_BY(maintenance_mutex_);
  // Lock-free view of the open window (nullptr when none); published after
  // the state is fully constructed, cleared before completion is announced.
  mutable std::atomic<MigrationState*> migration_{nullptr};
  // Bumped (under AllGuard) by TryForceFinish before its bulk drain; snapshot
  // walks validate it per-bucket and retry on change.
  mutable std::atomic<std::uint64_t> force_finish_epoch_{0};
  mutable std::atomic<Core*> core_snapshot_{nullptr};
  std::atomic<std::size_t> size_{0};
  mutable MapStats stats_;
  // Fuzzy-snapshot state (see TrySnapshotBuckets). Mutable: the walk is
  // logically const, and the (non-const) movers share the displacement log.
  mutable Mutex snapshot_walk_mutex_;
  mutable Mutex displaced_mutex_;
  mutable std::vector<std::pair<K, V>> displaced_log_ GUARDED_BY(displaced_mutex_);
  mutable std::atomic<bool> snapshot_active_{false};
};

}  // namespace cuckoo

#endif  // SRC_CUCKOO_GENERAL_CUCKOO_MAP_H_
