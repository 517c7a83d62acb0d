#include "common/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace qgp {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextUint64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextUint64(bound), bound);
    }
  }
}

TEST(RngTest, NextUint64CoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.NextUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyCalibrated) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(RngTest, ZipfWithinRangeAndSkewed) {
  Rng rng(23);
  const uint64_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.NextZipf(n, 1.2);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  // Rank 0 must dominate the tail.
  EXPECT_GT(counts[0], counts[50] * 3);
}

TEST(RngTest, ZipfDegenerate) {
  Rng rng(29);
  EXPECT_EQ(rng.NextZipf(1, 1.5), 0u);
  EXPECT_EQ(rng.NextZipf(0, 1.5), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qgp
