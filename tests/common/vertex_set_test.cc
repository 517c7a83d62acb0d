// Unit tests for the vertex-set types: SparseBitset touched-word reset
// semantics, and masked BitsetViews across every branch of MaskedView
// (walking either run, sizing by bit test or by popcount), checked
// against std::set_intersection on randomized runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <vector>

#include "common/bitset.h"
#include "common/vertex_set.h"

namespace qgp {
namespace {

std::vector<uint32_t> RandomSortedRun(std::mt19937& rng, size_t n,
                                      uint32_t universe) {
  std::uniform_int_distribution<uint32_t> dist(0, universe - 1);
  std::vector<uint32_t> run;
  run.reserve(n);
  for (size_t i = 0; i < n; ++i) run.push_back(dist(rng));
  std::sort(run.begin(), run.end());
  run.erase(std::unique(run.begin(), run.end()), run.end());
  return run;
}

std::vector<uint32_t> Reference(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(SparseBitsetTest, SetTestClearAndTouchedReset) {
  SparseBitset bits;
  bits.EnsureUniverse(1000);
  EXPECT_FALSE(bits.Test(0));
  EXPECT_TRUE(bits.TestAndSet(0));
  EXPECT_FALSE(bits.TestAndSet(0));
  bits.Set(999);
  bits.Set(64);
  EXPECT_TRUE(bits.Test(64));
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
  // Clear() keeps the word on the touched list: after setting another
  // bit in the same word, reset must still wipe it.
  bits.Set(65);
  bits.ResetTouched();
  for (size_t i : {0, 64, 65, 999}) EXPECT_FALSE(bits.Test(i));
  // Reuse after reset behaves like a fresh bitset.
  EXPECT_TRUE(bits.TestAndSet(999));
}

TEST(SparseBitsetTest, EnsureUniverseGrowsAndPreserves) {
  SparseBitset bits;
  bits.EnsureUniverse(10);
  bits.Set(7);
  bits.EnsureUniverse(5000);
  EXPECT_EQ(bits.size(), 5000u);
  EXPECT_TRUE(bits.Test(7));
  EXPECT_FALSE(bits.Test(4999));
  bits.EnsureUniverse(100);  // never shrinks
  EXPECT_EQ(bits.size(), 5000u);
}

BitsetView ViewOf(const DynamicBitset& abits, const std::vector<uint32_t>& a,
                  const DynamicBitset& bbits,
                  const std::vector<uint32_t>& b) {
  return MaskedView(abits.words(), a, bbits.words(), b);
}

DynamicBitset BitsOf(const std::vector<uint32_t>& run, size_t universe) {
  DynamicBitset bits(universe);
  for (uint32_t v : run) bits.Set(v);
  return bits;
}

TEST(IntersectSortedTest, AllDispatchBranchesMatchReference) {
  std::mt19937 rng(13);
  // (|a|, |b|) chosen to hit: both empty, walking either run, counting
  // by bit test (a run shorter than the 128 words) and by popcount
  // (both runs at least that long).
  const std::pair<size_t, size_t> shapes[] = {
      {0, 50},   {50, 0},    {300, 350},  {5, 4000},
      {4000, 5}, {1, 1},     {64, 4096},  {4096, 64},
  };
  for (auto [na, nb] : shapes) {
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<uint32_t> a = RandomSortedRun(rng, na, 8192);
      std::vector<uint32_t> b = RandomSortedRun(rng, nb, 8192);
      const DynamicBitset abits = BitsOf(a, 8192);
      const DynamicBitset bbits = BitsOf(b, 8192);
      const BitsetView view = ViewOf(abits, a, bbits, b);
      const std::vector<uint32_t> expect = Reference(a, b);
      std::vector<uint32_t> out;
      view.Decode(out);
      EXPECT_EQ(out, expect) << "|a|=" << na << " |b|=" << nb;
      EXPECT_EQ(view.size, expect.size()) << "|a|=" << na << " |b|=" << nb;
    }
  }
}

TEST(IntersectWordsTest, MatchesElementwiseReference) {
  std::mt19937 rng(29);
  const size_t universe = 2048;
  std::vector<uint32_t> a = RandomSortedRun(rng, 700, universe);
  std::vector<uint32_t> b = RandomSortedRun(rng, 900, universe);
  DynamicBitset abits = BitsOf(a, universe);
  DynamicBitset bbits = BitsOf(b, universe);
  const std::vector<uint32_t> expect = Reference(a, b);
  // Both runs outnumber the 32 words: the size is a popcount.
  const BitsetView view = ViewOf(abits, a, bbits, b);
  EXPECT_EQ(view.size, expect.size());
  for (uint32_t v = 0; v < universe; ++v) {
    EXPECT_EQ(view.Test(v),
              std::binary_search(expect.begin(), expect.end(), v));
  }
  // A longer mask counts over the common prefix of the words.
  DynamicBitset longer = BitsOf(b, universe * 4);
  longer.Set(universe * 4 - 1);  // outside a's universe: must not count
  EXPECT_EQ(MaskedView(abits.words(), a, longer.words(), b).size,
            expect.size());
  // No mask: the view is the set itself.
  const BitsetView whole{abits.words(), {}, a, a.size()};
  std::vector<uint32_t> out;
  whole.Decode(out);
  EXPECT_EQ(out, a);
}

TEST(IntersectSortedTest, OutputAppendsWithoutClearing) {
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<uint32_t> b = {2, 3, 4};
  std::vector<uint32_t> out = {77};
  const DynamicBitset abits = BitsOf(a, 64);
  const DynamicBitset bbits = BitsOf(b, 64);
  ViewOf(abits, a, bbits, b).Decode(out);
  EXPECT_EQ(out, (std::vector<uint32_t>{77, 2, 3}));
}

}  // namespace
}  // namespace qgp
