// ClockCache — a MemC3-style bounded cache on top of the cuckoo table: the
// system the paper's base design (optimistic concurrent cuckoo hashing) was
// built for. Instead of expanding when full, it evicts using CLOCK:
//
//   * every slot has a reference bit, set (relaxed) on lookup hit;
//   * when an insert cannot find room, the clock hand sweeps slots, clearing
//     set bits and evicting the first unreferenced victim under its bucket
//     lock, then the insert retries;
//   * recently-read entries therefore survive, one-touch entries cycle out —
//     the classic second-chance approximation of LRU that MemC3 pairs with
//     cuckoo hashing ("MemC3: Compact and Concurrent MemCache with Dumber
//     Caching and Smarter Hashing" [8]).
//
// Concurrency model matches CuckooMap, and so does the code: reads, inserts
// and displacements run on the shared engine (engine.h) — striped bucket
// locks for writers, optimistic version-validated reads. What is the cache's
// own is CLOCK eviction and the byte charges, which the engine's on-move
// hook carries along with each displaced item. The reference bitmap is
// deliberately outside the validated region (a racy ref-bit costs at most
// one eviction decision, never correctness).
#ifndef SRC_CUCKOO_CLOCK_CACHE_H_
#define SRC_CUCKOO_CLOCK_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/common/hash.h"
#include "src/common/per_thread_counter.h"
#include "src/common/striped_locks.h"
#include "src/common/thread_annotations.h"
#include "src/cuckoo/engine.h"
#include "src/cuckoo/path_search.h"
#include "src/cuckoo/stats.h"
#include "src/cuckoo/table_core.h"
#include "src/cuckoo/types.h"

namespace cuckoo {

template <typename K, typename V, typename Hash = DefaultHash<K>,
          typename KeyEqual = std::equal_to<K>, int B = 8>
class ClockCache {
 public:
  using KeyType = K;
  using ValueType = V;
  using Core = TableCore<K, V, B>;
  static constexpr int kSlotsPerBucket = B;

  struct Options {
    // Fixed capacity: 2^log2 buckets x B slots. Never grows.
    std::size_t bucket_count_log2 = 12;
    std::size_t stripe_count = LockStripes::kDefaultStripeCount;
    std::size_t max_search_slots = 2000;
    bool prefetch = true;
    // Max slots one CLOCK sweep may visit before giving up (>= one full lap).
    std::size_t max_sweep_factor = 2;
    // Byte budget across all cached entries, measured by the per-entry
    // charge passed to Set/GetOrAdmit. 0 keeps the legacy entry-count-only
    // bound — with values spanning 16 B to 1 MB a slot count alone says
    // nothing about memory, so byte-tier users must set this.
    std::size_t capacity_bytes = 0;
    // Invoked when an entry leaves the cache involuntarily (CLOCK eviction
    // or Delete), under the victim's bucket lock — keep it brief and never
    // call back into this cache. Set() overwrites of an existing key do NOT
    // fire it: the writer is replacing the entry itself and sees the old
    // value race-free if it needs it. Users keeping out-of-band state per
    // entry (e.g. heap bytes behind a trivially-copyable handle) hook
    // reclamation here.
    std::function<void(const K& key, const V& value)> on_evict;
  };

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t sets = 0;
    std::uint64_t bytes = 0;           // sum of live entry charges
    std::uint64_t capacity_bytes = 0;  // 0 = unbounded (count mode)
    double HitRate() const noexcept {
      std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  explicit ClockCache(Options opts = Options{}, Hash hasher = Hash{}, KeyEqual eq = KeyEqual{})
      : opts_(opts),
        hasher_(std::move(hasher)),
        eq_(std::move(eq)),
        search_{opts.max_search_slots, opts.prefetch},
        stripes_(opts.stripe_count),
        core_(opts.bucket_count_log2),
        ref_bits_(new std::atomic<std::uint8_t>[core_.slot_count()]),
        charges_(new std::atomic<std::uint32_t>[core_.slot_count()]) {
    for (std::size_t i = 0; i < core_.slot_count(); ++i) {
      ref_bits_[i].store(0, std::memory_order_relaxed);
      charges_[i].store(0, std::memory_order_relaxed);
    }
    stripes_.SetContentionCounter(stats_.ContentionCounter());
  }

  ClockCache(const ClockCache&) = delete;
  ClockCache& operator=(const ClockCache&) = delete;

  // ----- Read path -----------------------------------------------------------

  // Optimistic lookup; a hit marks the slot referenced for CLOCK.
  bool Get(const K& key, V* out) {
    SlotRef at;
    const bool found = OptimisticFind(stripes_, stats_, Current(), HashedKey::From(hasher_(key)),
                                      key, eq_, opts_.prefetch, out, &at);
    if (found) {
      // Second-chance mark. Outside the validated region on purpose.
      ref_bits_[Index(at)].store(1, std::memory_order_relaxed);
    }
    stats_.RecordLookup(found);
    return found;
  }

  bool Contains(const K& key) {
    V ignored;
    return Get(key, &ignored);
  }

  // ----- Write path ----------------------------------------------------------

  // Insert or overwrite, evicting as needed. `charge` is the entry's byte
  // cost against Options::capacity_bytes (ignored in count mode). Returns
  // false if the entry can never fit (charge > capacity) or if even a full
  // CLOCK sweep could not free a usable slot (pathological hash).
  bool Set(const K& key, const V& value, std::size_t charge = 1) {
    sets_.Increment();
    const std::uint32_t charge32 = charge > UINT32_MAX
                                       ? UINT32_MAX
                                       : static_cast<std::uint32_t>(charge);
    if (opts_.capacity_bytes != 0) {
      if (charge > opts_.capacity_bytes) {
        return false;  // would evict everything and still not fit
      }
      // Make room by bytes first; the slot-level paths below handle the rest.
      // Approximate on purpose: a concurrent overwrite's refund may land
      // after our check, costing at most one extra eviction.
      std::size_t freed_attempts = 0;
      while (CurrentBytes() + charge > opts_.capacity_bytes) {
        if (!EvictOne() || ++freed_attempts > core_.slot_count()) {
          if (CurrentBytes() + charge > opts_.capacity_bytes) {
            return false;
          }
          break;
        }
      }
    }
    std::size_t evictions = 0;
    const HashedKey h = HashedKey::From(hasher_(key));
    const InsertResult r = InsertLoop(
        stripes_, stats_, search_, h, Current(),
        [&](Core& core, std::size_t b1, std::size_t b2) {
          return FindKey(core, b1, b2, h.tag, key, eq_);
        },
        [&](Core& core, SlotRef at) {
          core.WriteValue(at.bucket, at.slot, value);
          Charge(at, charge32);
          return true;
        },
        [&](Core& core, SlotRef at) {
          core.ConstructSlot(at.bucket, at.slot, h.tag, key, value);
          Charge(at, charge32);
          size_.Increment();
        },
        [&](Core*) {
          // Table-full for this key: evict one victim somewhere, which frees
          // a slot reachable on the next displacement search. The cap bounds
          // a pathological hash that no eviction ever helps.
          return ++evictions <= opts_.max_sweep_factor * core_.slot_count() && EvictOne();
        },
        [this](Core&, const PathHop& from, const PathHop& to) {
          // The item carries its reference bit and byte charge along.
          const std::size_t from_idx = Index(SlotRef{from.bucket, from.slot});
          const std::size_t to_idx = Index(SlotRef{to.bucket, to.slot});
          ref_bits_[to_idx].store(ref_bits_[from_idx].load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
          charges_[to_idx].store(charges_[from_idx].exchange(0, std::memory_order_relaxed),
                                 std::memory_order_relaxed);
        });
    return r != InsertResult::kTableFull;
  }

  bool Delete(const K& key) {
    const HashedKey h = HashedKey::From(hasher_(key));
    return WithKeyPair(stripes_, Current(), h,
                       [&](Core& core, std::size_t b1, std::size_t b2, PairGuard& guard) {
                         const Found<Core> f = FindKey(core, b1, b2, h.tag, key, eq_);
                         if (f.core == nullptr) {
                           guard.ReleaseNoModify();
                           return false;
                         }
                         Remove(f.at);
                         return true;
                       });
  }

  // Lookup, or produce-and-insert on miss: `fetch(V* value, std::size_t*
  // charge)` fills the value and its byte charge, returning false when the
  // backing tier could not produce it (the miss is then reported to the
  // caller). The fetch runs outside all cache locks, so concurrent
  // GetOrAdmit calls for one key may fetch twice — last insert wins, which
  // is fine for an idempotent backing read.
  template <typename Fetch>
  bool GetOrAdmit(const K& key, V* out, Fetch&& fetch) {
    if (Get(key, out)) {
      return true;
    }
    std::size_t charge = 1;
    if (!fetch(out, &charge)) {
      return false;
    }
    Set(key, *out, charge);  // best-effort admission; a full cache is not an error
    return true;
  }

  // ----- Introspection --------------------------------------------------------

  std::size_t Size() const noexcept {
    std::int64_t n = size_.Sum();
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }
  std::size_t Capacity() const noexcept { return core_.slot_count(); }
  double LoadFactor() const noexcept {
    return static_cast<double>(Size()) / static_cast<double>(Capacity());
  }
  std::size_t HeapBytes() const noexcept {
    return core_.HeapBytes() + core_.slot_count() +
           stripes_.stripe_count() * sizeof(PaddedVersionLock);
  }

  // Live byte footprint (sum of charges). Meaningful in byte mode; stays 0
  // only if every charge is 0.
  std::uint64_t Bytes() const noexcept { return CurrentBytes(); }

  CacheStats Stats() const noexcept {
    const MapStatsSnapshot table = stats_.Read();
    CacheStats s;
    s.hits = static_cast<std::uint64_t>(table.lookup_hits);
    s.misses = static_cast<std::uint64_t>(table.lookups - table.lookup_hits);
    s.evictions = static_cast<std::uint64_t>(evictions_.Sum());
    s.sets = static_cast<std::uint64_t>(sets_.Sum());
    s.bytes = CurrentBytes();
    s.capacity_bytes = opts_.capacity_bytes;
    return s;
  }

 private:
  // The one core, in the engine's "current core" form.
  auto Current() {
    return [this] { return &core_; };
  }

  static std::size_t Index(SlotRef at) noexcept {
    return at.bucket * B + static_cast<std::size_t>(at.slot);
  }

  // Mark the entry just written at `at` referenced and charge it `charge`
  // bytes (replacing an overwritten entry's charge; a free slot's is 0).
  void Charge(SlotRef at, std::uint32_t charge) {
    ref_bits_[Index(at)].store(1, std::memory_order_relaxed);
    const std::uint32_t old = charges_[Index(at)].exchange(charge, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<std::int64_t>(charge) - old, std::memory_order_relaxed);
  }

  // Drop the entry at `at` (its pair lock held): the on_evict hook, then the
  // slot and its charge.
  void Remove(SlotRef at) {
    if (opts_.on_evict) {
      opts_.on_evict(core_.Key(at.bucket, at.slot), core_.Value(at.bucket, at.slot));
    }
    core_.DestroySlot(at.bucket, at.slot);
    bytes_.fetch_sub(charges_[Index(at)].exchange(0, std::memory_order_relaxed),
                     std::memory_order_relaxed);
    size_.Decrement();
  }

  // Advance the clock hand until an unreferenced occupied slot is found;
  // clear reference bits along the way; evict the victim. One full lap plus
  // slack bounds the sweep (after a lap, every bit has been cleared, so an
  // occupied slot must qualify unless erasers empty the table under us).
  bool EvictOne() {
    const std::size_t slots = core_.slot_count();
    for (std::size_t step = 0; step < 2 * slots; ++step) {
      const std::size_t idx = hand_.fetch_add(1, std::memory_order_relaxed) % slots;
      const std::size_t bucket = idx / B;
      const int slot = static_cast<int>(idx % B);
      if (core_.Tag(bucket, slot) == 0) {
        continue;
      }
      if (ref_bits_[idx].exchange(0, std::memory_order_relaxed) != 0) {
        continue;  // second chance
      }
      PairGuard guard(stripes_, bucket, bucket);
      if (core_.Tag(bucket, slot) == 0) {
        guard.ReleaseNoModify();
        continue;  // raced with an eraser
      }
      Remove(SlotRef{bucket, slot});
      evictions_.Increment();
      return true;
    }
    return false;
  }

  std::uint64_t CurrentBytes() const noexcept {
    const std::int64_t b = bytes_.load(std::memory_order_relaxed);
    return b < 0 ? 0 : static_cast<std::uint64_t>(b);
  }

  Options opts_;
  Hash hasher_;
  KeyEqual eq_;
  SearchParams search_;
  mutable LockStripes stripes_;
  Core core_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> ref_bits_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> charges_;
  std::atomic<std::int64_t> bytes_{0};
  std::atomic<std::size_t> hand_{0};
  PerThreadCounter size_;
  mutable MapStats stats_;
  PerThreadCounter evictions_;
  PerThreadCounter sets_;
};

}  // namespace cuckoo

#endif  // SRC_CUCKOO_CLOCK_CACHE_H_
