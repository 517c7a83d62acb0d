// Property/fuzz suite for the vertex_set.h types against std oracles.
// MaskedView picks which run to walk and how to count by size (bit test
// over the shorter run, or a popcount of the ANDed words), so the
// generator deliberately produces adversarial shapes — empty, singleton,
// disjoint ranges, fully nested, dense duplicate-free runs, and heavily
// skewed sizes — to force every path, and the oracle must agree on all
// of them.
#include "common/vertex_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace qgp {
namespace {

constexpr size_t kUniverse = 4096;

std::vector<uint32_t> Oracle(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint64_t> ToWords(const std::vector<uint32_t>& run) {
  std::vector<uint64_t> words(kUniverse / 64, 0);
  for (uint32_t v : run) words[v >> 6] |= 1ULL << (v & 63);
  return words;
}

// Sorted duplicate-free run of `size` values drawn from [lo, hi).
std::vector<uint32_t> RandomRun(std::mt19937& rng, size_t size, uint32_t lo,
                                uint32_t hi) {
  std::set<uint32_t> s;
  std::uniform_int_distribution<uint32_t> dist(lo, hi - 1);
  while (s.size() < size && s.size() < static_cast<size_t>(hi - lo)) {
    s.insert(dist(rng));
  }
  return std::vector<uint32_t>(s.begin(), s.end());
}

// One adversarial (a, b) pair per shape id; shapes cycle with the seed.
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> MakeCase(
    std::mt19937& rng, int shape) {
  switch (shape % 8) {
    case 0:  // one side empty
      return {{}, RandomRun(rng, 40, 0, kUniverse)};
    case 1:  // singletons (hit and miss both covered across seeds)
      return {{static_cast<uint32_t>(rng() % kUniverse)},
              RandomRun(rng, 100, 0, kUniverse)};
    case 2:  // disjoint value ranges: intersection provably empty
      return {RandomRun(rng, 60, 0, kUniverse / 2),
              RandomRun(rng, 60, kUniverse / 2, kUniverse)};
    case 3: {  // nested: b is a sampled subset of a
      std::vector<uint32_t> a = RandomRun(rng, 200, 0, kUniverse);
      std::vector<uint32_t> b;
      for (size_t i = 0; i < a.size(); i += 1 + rng() % 4) b.push_back(a[i]);
      return {a, b};
    }
    case 4:  // dense duplicate-free: sized by popcount
      return {RandomRun(rng, kUniverse / 2, 0, kUniverse),
              RandomRun(rng, kUniverse / 2, 0, kUniverse)};
    case 5:  // heavy skew: tiny a inside huge b (walk a)
      return {RandomRun(rng, 5, 0, kUniverse),
              RandomRun(rng, 2000, 0, kUniverse)};
    case 6:  // heavy skew the other way (walk b)
      return {RandomRun(rng, 2000, 0, kUniverse),
              RandomRun(rng, 5, 0, kUniverse)};
    default:  // comparable sizes, each longer than the 64 words
      return {RandomRun(rng, 150, 0, kUniverse),
              RandomRun(rng, 170, 0, kUniverse)};
  }
}

// The view of a masked by b, built the way CandidateSpace builds a
// ball-masked local set.
BitsetView View(const std::vector<uint64_t>& a_words,
                const std::vector<uint32_t>& a,
                const std::vector<uint64_t>& b_words,
                const std::vector<uint32_t>& b) {
  return MaskedView(a_words, a, b_words, b);
}

TEST(VertexSetPropertyTest, SortedKernelsMatchOracleOnAdversarialShapes) {
  size_t nonempty_results = 0;
  for (uint64_t seed = 0; seed < 160; ++seed) {
    std::mt19937 rng(seed * 2654435761u + 17);
    auto [a, b] = MakeCase(rng, static_cast<int>(seed));
    const std::vector<uint32_t> expected = Oracle(a, b);
    SCOPED_TRACE("seed " + std::to_string(seed) + " |a|=" +
                 std::to_string(a.size()) + " |b|=" +
                 std::to_string(b.size()));
    const std::vector<uint64_t> a_words = ToWords(a);
    const std::vector<uint64_t> b_words = ToWords(b);
    std::vector<uint32_t> got;
    const BitsetView ab = View(a_words, a, b_words, b);
    ab.Decode(got);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(ab.size, expected.size());
    // Symmetry: which run the view walks must not change the result.
    got.clear();
    const BitsetView ba = View(b_words, b, a_words, a);
    ba.Decode(got);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(ba.size, expected.size());
    // Decode appends without clearing: a pre-seeded output keeps its
    // prefix (the scratch-reuse contract).
    std::vector<uint32_t> seeded{static_cast<uint32_t>(kUniverse + 1)};
    ab.Decode(seeded);
    ASSERT_GE(seeded.size(), 1u);
    EXPECT_EQ(seeded[0], kUniverse + 1);
    EXPECT_EQ(std::vector<uint32_t>(seeded.begin() + 1, seeded.end()),
              expected);
    if (!expected.empty()) ++nonempty_results;
  }
  // The generator must actually exercise non-trivial intersections.
  EXPECT_GE(nonempty_results, 40u);
}

TEST(VertexSetPropertyTest, WordAndKernelMatchesOracle) {
  // Bit tests agree with the oracle on every vertex, and the size agrees
  // whichever way it was counted (the dense shapes take the popcount).
  size_t popcounted = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed * 69621 + 7);
    auto [a, b] = MakeCase(rng, static_cast<int>(seed));
    const std::vector<uint32_t> expected = Oracle(a, b);
    const std::vector<uint64_t> a_words = ToWords(a);
    const std::vector<uint64_t> b_words = ToWords(b);
    const BitsetView view = View(a_words, a, b_words, b);
    std::vector<char> in_expected(kUniverse, 0);
    for (uint32_t v : expected) in_expected[v] = 1;
    for (uint32_t v = 0; v < kUniverse; ++v) {
      ASSERT_EQ(view.Test(v), in_expected[v] != 0)
          << "seed " << seed << " v " << v;
    }
    EXPECT_EQ(view.size, expected.size()) << "seed " << seed;
    if (std::min(a.size(), b.size()) >= kUniverse / 64) ++popcounted;
  }
  EXPECT_GT(popcounted, 0u);
  // Mismatched word-array lengths count over the shorter prefix.
  std::vector<uint64_t> shorter{~0ULL};
  std::vector<uint64_t> longer{~0ULL, ~0ULL};
  std::vector<uint32_t> all(128);
  for (uint32_t v = 0; v < 128; ++v) all[v] = v;
  EXPECT_EQ(MaskedView(shorter, std::span<const uint32_t>(all).first(64),
                       longer, all)
                .size,
            64u);
}

TEST(VertexSetPropertyTest, SparseBitsetLifecycleUnderRandomOps) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(seed * 22695477 + 1);
    SparseBitset bits;
    bits.EnsureUniverse(kUniverse);
    std::set<uint32_t> model;
    for (int round = 0; round < 4; ++round) {
      for (int op = 0; op < 300; ++op) {
        uint32_t v = rng() % kUniverse;
        switch (rng() % 3) {
          case 0:
            bits.Set(v);
            model.insert(v);
            break;
          case 1: {
            bool was_clear = model.insert(v).second;
            EXPECT_EQ(bits.TestAndSet(v), was_clear);
            break;
          }
          default:
            bits.Clear(v);
            model.erase(v);
            break;
        }
      }
      for (uint32_t v = 0; v < kUniverse; ++v) {
        ASSERT_EQ(bits.Test(v), model.count(v) != 0)
            << "seed " << seed << " round " << round << " bit " << v;
      }
      // O(touched) reset really clears everything, every round.
      bits.ResetTouched();
      model.clear();
      for (uint32_t v = 0; v < kUniverse; ++v) {
        ASSERT_FALSE(bits.Test(v));
      }
    }
  }
}

// AppendSetBitsSorted is how ball extraction produces sorted balls
// without a sort; it must equal sorting the touched set, on sparse and
// dense sets, after clears, after a universe that grew between uses, and
// across resets (a stale summary bit would leak old members).
TEST(VertexSetPropertyTest, SortedDecodeMatchesStdSort) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(seed * 2654435761u + 17);
    SparseBitset bits;
    size_t universe = 1 + rng() % 300;
    bits.EnsureUniverse(universe);
    for (int round = 0; round < 5; ++round) {
      std::vector<uint32_t> touched;
      const size_t ops = (seed % 4 == 0) ? universe : 1 + rng() % 64;
      for (size_t op = 0; op < ops; ++op) {
        // Grow the universe mid-round once: members set before the
        // growth must survive it.
        if (round == 2 && op == ops / 2) {
          universe += 5000 + rng() % 9000;
          bits.EnsureUniverse(universe);
        }
        const uint32_t v = static_cast<uint32_t>(rng() % universe);
        bits.Set(v);
        touched.push_back(v);
      }
      // Clear some members again: a cleared word keeps its summary bit
      // and must simply decode to nothing.
      for (size_t c = 0; c < touched.size() / 4; ++c) {
        const uint32_t v = touched[rng() % touched.size()];
        bits.Clear(v);
        touched.erase(std::remove(touched.begin(), touched.end(), v),
                      touched.end());
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      std::vector<uint32_t> decoded{7};  // appends after existing content
      bits.AppendSetBitsSorted(decoded);
      ASSERT_EQ(decoded.front(), 7u);
      decoded.erase(decoded.begin());
      ASSERT_EQ(decoded, touched) << "seed " << seed << " round " << round;
      bits.ResetTouched();
      std::vector<uint32_t> empty;
      bits.AppendSetBitsSorted(empty);
      ASSERT_TRUE(empty.empty()) << "seed " << seed << " round " << round;
    }
  }
}

}  // namespace
}  // namespace qgp
