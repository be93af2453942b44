#include "common/bit_vector.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/simd.h"

namespace freshsel {
namespace {

TEST(BitVectorTest, StartsEmpty) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.Count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.Test(i));
}

TEST(BitVectorTest, SetResetTest) {
  BitVector v(130);  // Spans three words.
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(63));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(129));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.Count(), 4u);
  v.Reset(63);
  EXPECT_FALSE(v.Test(63));
  EXPECT_EQ(v.Count(), 3u);
}

TEST(BitVectorTest, SetIsIdempotent) {
  BitVector v(10);
  v.Set(5);
  v.Set(5);
  EXPECT_EQ(v.Count(), 1u);
}

TEST(BitVectorTest, ClearKeepsWidth) {
  BitVector v(70);
  v.Set(69);
  v.Clear();
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitVectorTest, OrWith) {
  BitVector a(100);
  BitVector b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(50));
  EXPECT_TRUE(a.Test(99));
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitVectorTest, AndNotWith) {
  BitVector a(80);
  BitVector b(80);
  a.Set(3);
  a.Set(4);
  b.Set(4);
  b.Set(5);
  a.AndNotWith(b);
  EXPECT_TRUE(a.Test(3));
  EXPECT_FALSE(a.Test(4));
  EXPECT_EQ(a.Count(), 1u);
}

TEST(BitVectorTest, IntersectAndUnionCounts) {
  BitVector a(200);
  BitVector b(200);
  for (std::size_t i = 0; i < 200; i += 2) a.Set(i);   // 100 evens.
  for (std::size_t i = 0; i < 200; i += 3) b.Set(i);   // 67 multiples of 3.
  // Multiples of 6 in [0, 200): 34.
  EXPECT_EQ(a.IntersectCount(b), 34u);
  EXPECT_EQ(a.UnionCount(b), 100u + 67u - 34u);
}

TEST(BitVectorTest, UnionCountOfManyMatchesMaterializedUnion) {
  Rng rng(123);
  const std::size_t width = 500;
  std::vector<BitVector> vecs(4, BitVector(width));
  for (auto& v : vecs) {
    for (int i = 0; i < 80; ++i) {
      v.Set(static_cast<std::size_t>(rng.NextBounded(width)));
    }
  }
  std::vector<const BitVector*> ptrs;
  for (const auto& v : vecs) ptrs.push_back(&v);
  BitVector merged = BitVector::UnionOf(ptrs, width);
  EXPECT_EQ(BitVector::UnionCountOf(ptrs), merged.Count());
}

TEST(BitVectorTest, UnionCountOfEmptyListIsZero) {
  EXPECT_EQ(BitVector::UnionCountOf({}), 0u);
}

// The dispatched word loops: the x86-64-v3 copies (when this CPU runs
// them) must agree with the default-ISA copies on every operation, at
// widths that leave partial words and vector remainders.
TEST(BitVectorTest, DispatchedCopiesMatchDefaultIsa) {
  Rng rng(321);
  for (std::size_t width : {1u, 63u, 64u, 65u, 257u, 1000u, 4099u}) {
    std::vector<BitVector> vecs(5, BitVector(width));
    for (auto& v : vecs) {
      for (std::size_t i = 0; i < width / 3 + 1; ++i) {
        v.Set(static_cast<std::size_t>(rng.NextBounded(width)));
      }
    }
    std::vector<const BitVector*> ptrs;
    for (const auto& v : vecs) ptrs.push_back(&v);
    BitVector merged = vecs[0];
    merged.OrWith(vecs[1]);

    const std::size_t count = vecs[0].Count();
    const std::size_t intersect = vecs[0].IntersectCount(vecs[1]);
    const std::size_t unite = vecs[0].UnionCount(vecs[1]);
    const std::size_t unite_all = BitVector::UnionCountOf(ptrs);

    const simd::ScopedDefaultIsa default_isa;
    BitVector merged_default = vecs[0];
    merged_default.OrWith(vecs[1]);
    EXPECT_EQ(merged, merged_default) << width;
    EXPECT_EQ(count, vecs[0].Count()) << width;
    EXPECT_EQ(intersect, vecs[0].IntersectCount(vecs[1])) << width;
    EXPECT_EQ(unite, vecs[0].UnionCount(vecs[1])) << width;
    EXPECT_EQ(unite_all, BitVector::UnionCountOf(ptrs)) << width;
  }
}

TEST(BitVectorTest, VisitSetBitsAscendingAndComplete) {
  BitVector v(200);
  const std::vector<std::size_t> expected{0, 1, 63, 64, 127, 128, 199};
  for (std::size_t i : expected) v.Set(i);
  std::vector<std::size_t> visited;
  v.VisitSetBits([&](std::size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, expected);
}

TEST(BitVectorTest, VisitSetBitsEmpty) {
  BitVector v(100);
  std::size_t count = 0;
  v.VisitSetBits([&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(BitVectorTest, VisitSetBitsMatchesCountOnRandom) {
  Rng rng(321);
  BitVector v(1000);
  for (int i = 0; i < 300; ++i) {
    v.Set(static_cast<std::size_t>(rng.NextBounded(1000)));
  }
  std::size_t visited = 0;
  std::size_t prev = 0;
  bool first = true;
  v.VisitSetBits([&](std::size_t i) {
    EXPECT_TRUE(v.Test(i));
    if (!first) {
      EXPECT_GT(i, prev);
    }
    prev = i;
    first = false;
    ++visited;
  });
  EXPECT_EQ(visited, v.Count());
}

TEST(BitVectorTest, EqualityComparesContents) {
  BitVector a(64);
  BitVector b(64);
  EXPECT_TRUE(a == b);
  a.Set(10);
  EXPECT_FALSE(a == b);
  b.Set(10);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == BitVector(65));
}

}  // namespace
}  // namespace freshsel
