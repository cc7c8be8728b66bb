#include "src/common/bitmap.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace iosnap {
namespace {

TEST(BitmapTest, StartsAllClear) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_EQ(bm.CountOnes(), 0u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(bm.Test(i));
  }
}

TEST(BitmapTest, SetClearTest) {
  Bitmap bm(130);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_EQ(bm.CountOnes(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.CountOnes(), 3u);
}

TEST(BitmapTest, CountOnesInRange) {
  Bitmap bm(256);
  for (size_t i = 10; i < 200; i += 3) {
    bm.Set(i);
  }
  size_t expected = 0;
  for (size_t i = 50; i < 150; ++i) {
    expected += bm.Test(i) ? 1 : 0;
  }
  EXPECT_EQ(bm.CountOnesInRange(50, 150), expected);
  EXPECT_EQ(bm.CountOnesInRange(0, 256), bm.CountOnes());
  EXPECT_EQ(bm.CountOnesInRange(100, 100), 0u);
  // Every range against a per-bit count: inside one word, across words, and ending on
  // a word boundary.
  for (size_t begin = 0; begin <= 256; ++begin) {
    size_t count = 0;
    for (size_t end = begin; end <= 256; ++end) {
      ASSERT_EQ(bm.CountOnesInRange(begin, end), count) << begin << ".." << end;
      count += end < 256 && bm.Test(end) ? 1 : 0;
    }
  }
}

TEST(BitmapTest, FindFirstSet) {
  Bitmap bm(300);
  EXPECT_EQ(bm.FindFirstSet(), 300u);
  bm.Set(7);
  bm.Set(130);
  bm.Set(299);
  EXPECT_EQ(bm.FindFirstSet(), 7u);
  EXPECT_EQ(bm.FindFirstSet(8), 130u);
  EXPECT_EQ(bm.FindFirstSet(131), 299u);
  EXPECT_EQ(bm.FindFirstSet(300), 300u);
}

TEST(BitmapTest, OrWith) {
  Bitmap a(128);
  Bitmap b(128);
  a.Set(1);
  a.Set(100);
  b.Set(2);
  b.Set(100);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_TRUE(a.Test(100));
  EXPECT_EQ(a.CountOnes(), 3u);
}

TEST(BitmapTest, CountAndNot) {
  Bitmap a(130);
  Bitmap b(130);
  a.Set(1);
  a.Set(64);
  a.Set(129);
  b.Set(64);
  b.Set(2);
  EXPECT_EQ(a.CountAndNot(b), 2u);  // 1 and 129.
  EXPECT_EQ(b.CountAndNot(a), 1u);  // 2.
  EXPECT_EQ(a.CountAndNot(a), 0u);
  EXPECT_EQ(a.CountAndNot(Bitmap(130)), 3u);
}

TEST(BitmapTest, ResetClearsEverything) {
  Bitmap bm(64);
  for (size_t i = 0; i < 64; i += 2) {
    bm.Set(i);
  }
  bm.Reset();
  EXPECT_EQ(bm.CountOnes(), 0u);
  EXPECT_EQ(bm.size(), 64u);
}

TEST(BitmapTest, RandomizedAgainstReference) {
  constexpr size_t kBits = 777;
  Bitmap bm(kBits);
  std::vector<bool> ref(kBits, false);
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const size_t bit = rng.NextBelow(kBits);
    if (rng.NextBool(0.5)) {
      bm.Set(bit);
      ref[bit] = true;
    } else {
      bm.Clear(bit);
      ref[bit] = false;
    }
  }
  size_t expected = 0;
  for (size_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(bm.Test(i), ref[i]) << "bit " << i;
    expected += ref[i] ? 1 : 0;
  }
  EXPECT_EQ(bm.CountOnes(), expected);
}

}  // namespace
}  // namespace iosnap
