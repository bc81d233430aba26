// Raw storage for a set-associative cuckoo table: a flat array of B-way
// buckets plus a parallel array of 1-byte partial-key tags.
//
// Layout follows §6 ("Each bucket has all the keys come first and then the
// values, and fits exactly two cache lines: one for 8 keys and another for 8
// values" for 8-byte pairs at B=8). Tags live in their own dense array so the
// BFS path search touches one byte per slot instead of a whole bucket, and a
// tag of zero marks an empty slot (HashedKey never produces tag 0). The tag
// array is cache-line aligned, so with B in {4, 8, 16} a bucket's tag group
// never straddles a line and a single vector load (see LoadTagsVector / the
// kernels in simd_probe.h) covers the whole bucket. Both arrays sit in
// PageBlocks, which optionally back large cores with 2 MB transparent huge
// pages (one lookup = 1-2 random lines; on 4 KB pages that is also 1-2 dTLB
// misses per probe for GB-scale tables).
//
// Access discipline (statically enforced): the key/value arrays may be read
// by optimistic readers while a writer is storing, so every touch of bucket
// bytes must go through the accessors below — RelaxedLoad/RelaxedStore for
// tear-tolerant paths, KeyRef/ValueRef for exclusive or validated access.
// tools/analysis/check_seqlock.py (rule raw-bucket-access) rejects any
// `.keys[...]` / `.values[...]` member access outside this file's accessor
// allowlist, and (rule raw-vector-load) rejects vector-load intrinsics
// outside simd_probe.h, so a new code path cannot quietly reintroduce an
// unchecked plain read of live bucket bytes.
#ifndef SRC_CUCKOO_TABLE_CORE_H_
#define SRC_CUCKOO_TABLE_CORE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "src/common/atomic_util.h"
#include "src/common/cpu.h"
#include "src/common/debug_checks.h"
#include "src/common/hash.h"
#include "src/common/page_alloc.h"
#include "src/cuckoo/simd_probe.h"

namespace cuckoo {

// What every core shares, and all the engine (engine.h) needs to search and
// probe it: the bucket mask and the dense tag array, B one-byte partial-key
// tags per bucket, 0 marking an empty slot. TableCore below and GeneralCore
// (general_cuckoo_map.h) add the key/value storage. The tag array is
// cache-line aligned in a PageBlock (the kernel's zero pages ARE the
// all-empty state); tags are plain bytes read and written through
// std::atomic_ref, because the unlocked path search and optimistic readers
// load them while writers store.
template <int B>
struct TagArray {
  static_assert(B > 0 && B <= 16, "set-associativity must be in [1, 16]");
  static_assert(std::atomic_ref<std::uint8_t>::required_alignment == 1);

  static constexpr int kSlotsPerBucket = B;

  TagArray(std::size_t bucket_count_log2, bool want_hugepages)
      : mask((std::size_t{1} << bucket_count_log2) - 1),
        tag_block_((mask + 1) * B, want_hugepages),
        tags(static_cast<std::uint8_t*>(tag_block_.data())) {
    assert(bucket_count_log2 < 57);
  }

  std::size_t bucket_count() const noexcept { return mask + 1; }
  std::size_t slot_count() const noexcept { return bucket_count() * B; }

  std::uint8_t Tag(std::size_t bucket, int slot) const noexcept {
    return std::atomic_ref<std::uint8_t>(tags[bucket * B + static_cast<std::size_t>(slot)])
        .load(std::memory_order_relaxed);
  }

  void SetTag(std::size_t bucket, int slot, std::uint8_t tag) noexcept {
    std::atomic_ref<std::uint8_t>(tags[bucket * B + static_cast<std::size_t>(slot)])
        .store(tag, std::memory_order_relaxed);
  }

  bool SlotOccupied(std::size_t bucket, int slot) const noexcept {
    return Tag(bucket, slot) != 0;
  }

  // Snapshot of one bucket's B tags for the vectorized probe kernels
  // (simd_probe.h). This is the sanctioned tear-tolerant load: the copy may
  // interleave with concurrent SetTag stores, exactly like individual Tag()
  // loads would, and callers on optimistic paths still validate the version
  // counter afterwards. Under TSan the copy is element-wise relaxed atomic
  // so the intentional race stays annotated; the plain-memcpy fast path is
  // what the vector kernels want (the group is then reloaded from the
  // private copy, never from the live array).
  simd::TagGroup<B> LoadTagsVector(std::size_t bucket) const noexcept {
    simd::TagGroup<B> g;
#if CUCKOO_TSAN_ENABLED
    for (int s = 0; s < B; ++s) {
      g.bytes[s] = Tag(bucket, s);
    }
#else
    std::memcpy(g.bytes, &tags[bucket * B], B);
#endif
    return g;
  }

  // First free slot in `bucket`, or -1.
  int FindEmptySlot(std::size_t bucket) const noexcept {
    return simd::FirstSlot(simd::EmptySlotMask<B>(LoadTagsVector(bucket)));
  }

  // Alternate bucket of a slot, derived from the tag alone (partial-key
  // cuckoo hashing, as in MemC3): involutive, so displaced items can always
  // be bounced back.
  std::size_t AltBucket(std::size_t bucket, std::uint8_t tag) const noexcept {
    return (bucket ^ (static_cast<std::size_t>(Mix64(tag)) | 1u)) & mask;
  }

  void PrefetchTags(std::size_t bucket) const noexcept { PrefetchRead(&tags[bucket * B]); }

  std::size_t mask;
  PageBlock tag_block_;
  std::uint8_t* tags;
};

// Empty every slot of a core (destroy + tag = 0); the caller excludes every
// writer.
template <typename Core>
void DestroyAll(Core& core) noexcept {
  for (std::size_t b = 0; b < core.bucket_count(); ++b) {
    for (int s = 0; s < Core::kSlotsPerBucket; ++s) {
      if (core.Tag(b, s) != 0) {
        core.DestroySlot(b, s);
      }
    }
  }
}

template <typename K, typename V, int B>
struct TableCore : TagArray<B> {
  static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>,
                "optimistic cuckoo tables require trivially copyable key/value types; "
                "wrap variable-length data in fixed arrays or indirection");

  using TagArray<B>::bucket_count;
  using TagArray<B>::slot_count;
  using TagArray<B>::Tag;
  using TagArray<B>::SetTag;
  using TagArray<B>::AltBucket;
  using TagArray<B>::mask;

  struct Bucket {
    K keys[B];
    V values[B];
  };
  // PageBlock hands back zero bytes without running constructors; both the
  // tag array (where all-zero IS the all-empty state) and the bucket array
  // (whose elements are only read after their tag goes non-zero, i.e. after
  // WriteSlot stored a full object representation) rely on Bucket being an
  // implicit-lifetime type. It is: an aggregate of trivially copyable
  // members, so it has a trivial copy constructor and trivial destructor —
  // the trivially_copyable assert above already pins that down (K and V may
  // still have user-provided default constructors; those never run here).
  static_assert(std::is_trivially_copyable_v<Bucket>);

  explicit TableCore(std::size_t bucket_count_log2, bool want_hugepages = false)
      : TagArray<B>(bucket_count_log2, want_hugepages),
        bucket_block_((mask + 1) * sizeof(Bucket), want_hugepages),
        buckets(static_cast<Bucket*>(bucket_block_.data())) {}

  // Heap bytes this core occupies (for the memory-efficiency comparison).
  std::size_t HeapBytes() const noexcept {
    return bucket_count() * sizeof(Bucket) + slot_count() * sizeof(std::uint8_t);
  }

  // Bytes granted MADV_HUGEPAGE backing (0 unless requested and honored).
  std::size_t hugepage_bytes() const noexcept {
    return this->tag_block_.hugepage_bytes() + bucket_block_.hugepage_bytes();
  }

  // Direct (exclusive or validated-optimistic) accessors.
  const K& KeyRef(std::size_t bucket, int slot) const noexcept {
    return buckets[bucket].keys[slot];
  }
  const V& ValueRef(std::size_t bucket, int slot) const noexcept {
    return buckets[bucket].values[slot];
  }
  // Mutable variant for exclusive (all-stripes-held) views, e.g. the
  // LockedView iterator handing out in-place value references.
  V& MutableValueRef(std::size_t bucket, int slot) noexcept {
    return buckets[bucket].values[slot];
  }
  // The engine's slot vocabulary (engine.h), shared with GeneralCore. Key and
  // Value are the exclusive accessors above under their shared names.
  const K& Key(std::size_t bucket, int slot) const noexcept { return KeyRef(bucket, slot); }
  const V& Value(std::size_t bucket, int slot) const noexcept { return ValueRef(bucket, slot); }
  V& Value(std::size_t bucket, int slot) noexcept { return MutableValueRef(bucket, slot); }

  // Tear-tolerant loads for the optimistic read path: the bytes read may be
  // concurrently overwritten; callers must validate a version counter before
  // trusting the result. Relaxed atomic word accesses keep the (intentional)
  // race defined and TSan-visible; see src/common/atomic_util.h.
  K LoadKey(std::size_t bucket, int slot) const noexcept {
    return RelaxedLoad(buckets[bucket].keys[slot]);
  }
  V LoadValue(std::size_t bucket, int slot) const noexcept {
    return RelaxedLoad(buckets[bucket].values[slot]);
  }

  // Write a full slot. Caller must hold the bucket's stripe lock. Key/value
  // bytes go through RelaxedStore because an optimistic reader may be copying
  // them concurrently (it will discard the torn copy at validation).
  void WriteSlot(std::size_t bucket, int slot, std::uint8_t tag, const K& key,
                 const V& value) noexcept {
    RelaxedStore(buckets[bucket].keys[slot], key);
    RelaxedStore(buckets[bucket].values[slot], value);
    SetTag(bucket, slot, tag);
  }

  void ConstructSlot(std::size_t bucket, int slot, std::uint8_t tag, const K& key,
                     const V& value) noexcept {
    WriteSlot(bucket, slot, tag, key, value);
  }

  void WriteValue(std::size_t bucket, int slot, const V& value) noexcept {
    RelaxedStore(buckets[bucket].values[slot], value);
  }

  // Empty a slot. Trivially copyable items need no destruction: clearing the
  // tag is enough.
  void DestroySlot(std::size_t bucket, int slot) noexcept { SetTag(bucket, slot, 0); }

  // Move the item in (from, from_slot) into (to, to_slot): the "move holes
  // backwards" displacement. Destination is written before the source tag is
  // cleared so the item is never missing from the table (§4.2).
  void MoveSlot(std::size_t from, int from_slot, std::size_t to, int to_slot) noexcept {
    RelaxedStore(buckets[to].keys[to_slot], buckets[from].keys[from_slot]);
    RelaxedStore(buckets[to].values[to_slot], buckets[from].values[from_slot]);
    SetTag(to, to_slot, Tag(from, from_slot));
    DestroySlot(from, from_slot);
  }

  // Structural invariant check, callable from tests. The caller must hold
  // every stripe lock (or otherwise have exclusive access). Verifies
  //   * tag/slot consistency: AltBucket is involutive for every stored tag,
  //     so every occupant can be displaced back to where it came from;
  //   * occupancy: if `expected_size` >= 0, the number of non-zero tags
  //     matches it, and it never exceeds the slot count (load factor <= 1).
  // Aborts with a diagnostic on violation (CUCKOO_CHECK is active in every
  // build type). Key->tag consistency needs the hasher and lives one layer
  // up, in CuckooMap::AssertInvariants.
  void AssertInvariants(std::int64_t expected_size = -1) const {
    std::size_t occupied = 0;
    for (std::size_t bkt = 0; bkt <= mask; ++bkt) {
      for (int s = 0; s < B; ++s) {
        const std::uint8_t tag = Tag(bkt, s);
        if (tag == 0) {
          continue;
        }
        ++occupied;
        CUCKOO_CHECK(AltBucket(AltBucket(bkt, tag), tag) == bkt,
                     "AltBucket must be involutive for every stored tag");
      }
    }
    CUCKOO_CHECK(occupied <= slot_count(), "occupancy exceeds slot count");
    if (expected_size >= 0) {
      CUCKOO_CHECK(occupied == static_cast<std::size_t>(expected_size),
                   "occupied slot count disagrees with the size counter");
    }
  }

  // Pull both halves of the bucket: the key line and (when the values start
  // on a later line, as with the two-line §6 layout) the first value line.
  void PrefetchBucket(std::size_t bucket) const noexcept {
    PrefetchRead(&buckets[bucket]);
    if constexpr (sizeof(K) * B >= kCacheLineSize) {
      PrefetchRead(&buckets[bucket].values[0]);
    }
  }
  // Targeted prefetch for one movemask candidate: the key and value lines of
  // a specific slot, instead of the whole bucket. The batch pipeline calls
  // this only for slots whose tag already matched, so cold-miss bandwidth is
  // spent on lines the probe will actually read.
  void PrefetchSlot(std::size_t bucket, int slot) const noexcept {
    PrefetchRead(&KeyRef(bucket, slot));
    PrefetchRead(&ValueRef(bucket, slot));
  }

  PageBlock bucket_block_;
  Bucket* buckets;
};

}  // namespace cuckoo

#endif  // SRC_CUCKOO_TABLE_CORE_H_
