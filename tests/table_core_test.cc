#include "src/cuckoo/table_core.h"

#include <cstdint>
#include <set>

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

using Core8 = TableCore<std::uint64_t, std::uint64_t, 8>;
using Core4 = TableCore<std::uint32_t, std::uint32_t, 4>;

TEST(TableCoreTest, ConstructedEmpty) {
  Core8 core(4);  // 16 buckets
  EXPECT_EQ(core.bucket_count(), 16u);
  EXPECT_EQ(core.slot_count(), 128u);
  for (std::size_t b = 0; b < core.bucket_count(); ++b) {
    for (int s = 0; s < 8; ++s) {
      EXPECT_EQ(core.Tag(b, s), 0);
      EXPECT_FALSE(core.SlotOccupied(b, s));
    }
    EXPECT_EQ(core.FindEmptySlot(b), 0);
  }
}

TEST(TableCoreTest, WriteAndReadSlot) {
  Core8 core(4);
  core.WriteSlot(3, 2, 0xab, 42, 99);
  EXPECT_EQ(core.Tag(3, 2), 0xab);
  EXPECT_TRUE(core.SlotOccupied(3, 2));
  EXPECT_EQ(core.KeyRef(3, 2), 42u);
  EXPECT_EQ(core.ValueRef(3, 2), 99u);
  EXPECT_EQ(core.LoadKey(3, 2), 42u);
  EXPECT_EQ(core.LoadValue(3, 2), 99u);
}

TEST(TableCoreTest, WriteValueOnly) {
  Core8 core(4);
  core.WriteSlot(0, 0, 1, 7, 10);
  core.WriteValue(0, 0, 20);
  EXPECT_EQ(core.KeyRef(0, 0), 7u);
  EXPECT_EQ(core.ValueRef(0, 0), 20u);
}

TEST(TableCoreTest, ClearSlotEmptiesIt) {
  Core8 core(4);
  core.WriteSlot(1, 1, 5, 1, 2);
  core.DestroySlot(1, 1);
  EXPECT_FALSE(core.SlotOccupied(1, 1));
  EXPECT_EQ(core.FindEmptySlot(1), 0);
}

TEST(TableCoreTest, FindEmptySlotScansInOrder) {
  Core8 core(4);
  for (int s = 0; s < 8; ++s) {
    core.WriteSlot(2, s, 1, s, s);
  }
  EXPECT_EQ(core.FindEmptySlot(2), -1);
  core.DestroySlot(2, 5);
  EXPECT_EQ(core.FindEmptySlot(2), 5);
  core.DestroySlot(2, 1);
  EXPECT_EQ(core.FindEmptySlot(2), 1);
}

TEST(TableCoreTest, MoveSlotTransfersEverything) {
  Core8 core(4);
  core.WriteSlot(0, 3, 0x7f, 1234, 5678);
  core.MoveSlot(0, 3, 9, 6);
  EXPECT_FALSE(core.SlotOccupied(0, 3));
  EXPECT_EQ(core.Tag(9, 6), 0x7f);
  EXPECT_EQ(core.KeyRef(9, 6), 1234u);
  EXPECT_EQ(core.ValueRef(9, 6), 5678u);
}

TEST(TableCoreTest, AltBucketInvolutive) {
  Core8 core(10);  // 1024 buckets
  for (unsigned tag = 1; tag < 256; ++tag) {
    for (std::size_t b : {std::size_t{0}, std::size_t{17}, std::size_t{1023}}) {
      std::size_t alt = core.AltBucket(b, static_cast<std::uint8_t>(tag));
      EXPECT_NE(alt, b);
      EXPECT_EQ(core.AltBucket(alt, static_cast<std::uint8_t>(tag)), b);
      EXPECT_LE(alt, core.mask);
    }
  }
}

TEST(TableCoreTest, AltBucketsVaryWithTag) {
  Core8 core(12);
  std::set<std::size_t> alts;
  for (unsigned tag = 1; tag < 256; ++tag) {
    alts.insert(core.AltBucket(100, static_cast<std::uint8_t>(tag)));
  }
  // 255 tags should spread across many distinct alternates.
  EXPECT_GT(alts.size(), 200u);
}

TEST(TableCoreTest, HeapBytesAccounting) {
  Core8 core(4);
  // 16 buckets * (8 keys + 8 values) * 8 bytes + 128 tag bytes.
  EXPECT_EQ(core.HeapBytes(), 16u * 128u + 128u);
}

TEST(TableCoreTest, SmallerAssociativityAndTypes) {
  Core4 core(3);
  EXPECT_EQ(core.slot_count(), 32u);
  core.WriteSlot(7, 3, 9, 11u, 22u);
  EXPECT_EQ(core.LoadKey(7, 3), 11u);
  EXPECT_EQ(core.kSlotsPerBucket, 4);
}

TEST(TableCoreTest, PrefetchHelpersAreSafe) {
  Core8 core(4);
  core.PrefetchTags(0);
  core.PrefetchBucket(15);
  SUCCEED();
}

}  // namespace
}  // namespace cuckoo
