// Property/fuzz suite for the vertex_set.h intersection kernels against a
// std::set_intersection oracle. The kernels dispatch on size ratios
// (merge / gallop-a / gallop-b / word-AND), so the generator deliberately
// produces adversarial shapes — empty, singleton, disjoint ranges, fully
// nested, dense duplicate-free runs, and heavily skewed sizes — to force
// every path, and the oracle must agree on all of them.
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
    case 4:  // dense duplicate-free: word-AND territory on both sides
      return {RandomRun(rng, kUniverse / 2, 0, kUniverse),
              RandomRun(rng, kUniverse / 2, 0, kUniverse)};
    case 5:  // heavy skew: tiny a inside huge b (gallop over b)
      return {RandomRun(rng, 5, 0, kUniverse),
              RandomRun(rng, 2000, 0, kUniverse)};
    case 6:  // heavy skew the other way (gallop over a)
      return {RandomRun(rng, 2000, 0, kUniverse),
              RandomRun(rng, 5, 0, kUniverse)};
    default:  // comparable sizes: the two-pointer merge path
      return {RandomRun(rng, 150, 0, kUniverse),
              RandomRun(rng, 170, 0, kUniverse)};
  }
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
    std::vector<uint32_t> got;
    IntersectSortedInto(std::span<const uint32_t>(a),
                        std::span<const uint32_t>(b), got);
    EXPECT_EQ(got, expected);
    // Symmetry: the dispatch must not depend on argument order.
    got.clear();
    IntersectSortedInto(std::span<const uint32_t>(b),
                        std::span<const uint32_t>(a), got);
    EXPECT_EQ(got, expected);
    // The kernels append without clearing: a pre-seeded output keeps its
    // prefix (the scratch-reuse contract).
    std::vector<uint32_t> seeded{static_cast<uint32_t>(kUniverse + 1)};
    IntersectSortedInto(std::span<const uint32_t>(a),
                        std::span<const uint32_t>(b), seeded);
    ASSERT_GE(seeded.size(), 1u);
    EXPECT_EQ(seeded[0], kUniverse + 1);
    EXPECT_EQ(std::vector<uint32_t>(seeded.begin() + 1, seeded.end()),
              expected);
    if (!expected.empty()) ++nonempty_results;
  }
  // The generator must actually exercise non-trivial intersections.
  EXPECT_GE(nonempty_results, 40u);
}

TEST(VertexSetPropertyTest, ProjectedKernelMatchesOracle) {
  struct Labeled {
    uint32_t v;
    uint32_t payload;
  };
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(seed * 48271 + 3);
    auto [a, b] = MakeCase(rng, static_cast<int>(seed));
    std::vector<Labeled> a_structs;
    for (uint32_t v : a) a_structs.push_back({v, v ^ 0xdead});
    const std::vector<uint32_t> expected = Oracle(a, b);
    std::vector<uint32_t> got;
    IntersectSortedInto(
        std::span<const Labeled>(a_structs),
        [](const Labeled& x) { return x.v; },
        std::span<const uint32_t>(b), got);
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

TEST(VertexSetPropertyTest, WordAndKernelMatchesOracle) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed * 69621 + 7);
    auto [a, b] = MakeCase(rng, static_cast<int>(seed));
    const std::vector<uint32_t> expected = Oracle(a, b);
    std::vector<uint32_t> got;
    IntersectWordsInto(ToWords(a), ToWords(b), got);
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
  // Mismatched word-array lengths intersect over the shorter prefix.
  std::vector<uint64_t> shorter{~0ULL};
  std::vector<uint64_t> longer{~0ULL, ~0ULL};
  std::vector<uint32_t> got;
  IntersectWordsInto(shorter, longer, got);
  EXPECT_EQ(got.size(), 64u);
  EXPECT_EQ(got.front(), 0u);
  EXPECT_EQ(got.back(), 63u);
}

// The SIMD dispatch (AVX2 when the host has it, scalar otherwise) and
// the always-available scalar kernel must agree bit for bit with the
// oracle on adversarial shapes, including word counts that are not a
// multiple of the 4-word vector width and ragged length pairs — the
// vector epilogue is where off-by-ones would live.
TEST(VertexSetPropertyTest, SimdWordAndMatchesScalarOnAdversarialShapes) {
#if defined(QGP_VERTEX_SET_HAS_AVX2)
  const bool avx2 = CpuHasAvx2();
#else
  const bool avx2 = false;
#endif
  size_t nonempty = 0;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(seed * 2246822519u + 11);
    auto [a, b] = MakeCase(rng, static_cast<int>(seed));
    std::vector<uint64_t> wa = ToWords(a);
    std::vector<uint64_t> wb = ToWords(b);
    // Ragged truncation: force unequal lengths and non-multiple-of-4
    // word counts (1..4 words trimmed from one side per seed).
    const size_t trim = seed % 5;
    if (trim != 0 && wa.size() > trim) {
      (seed % 2 == 0 ? wa : wb).resize(wa.size() - trim);
    }
    const size_t n = std::min(wa.size(), wb.size());
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t bit = 0; bit < 64; ++bit) {
        if ((wa[i] >> bit) & (wb[i] >> bit) & 1ULL) {
          expected.push_back(static_cast<uint32_t>(i * 64 + bit));
        }
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " |wa|=" +
                 std::to_string(wa.size()) + " |wb|=" +
                 std::to_string(wb.size()));
    std::vector<uint32_t> scalar;
    IntersectWordsScalarInto(wa, wb, scalar);
    EXPECT_EQ(scalar, expected);
    std::vector<uint32_t> dispatched;
    IntersectWordsInto(wa, wb, dispatched);
    EXPECT_EQ(dispatched, expected);
#if defined(QGP_VERTEX_SET_HAS_AVX2)
    if (avx2) {
      std::vector<uint32_t> simd;
      IntersectWordsAvx2Into(wa, wb, simd);
      EXPECT_EQ(simd, expected);
      // Append-without-clearing contract holds for the SIMD path too.
      std::vector<uint32_t> seeded{0xdeadbeefu};
      IntersectWordsAvx2Into(wa, wb, seeded);
      ASSERT_GE(seeded.size(), 1u);
      EXPECT_EQ(seeded[0], 0xdeadbeefu);
      EXPECT_EQ(std::vector<uint32_t>(seeded.begin() + 1, seeded.end()),
                expected);
    }
#endif
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GE(nonempty, 30u);
  // On AVX2 hosts this suite really covered the vector path; elsewhere
  // the dispatch-equals-scalar half still holds. Either way the
  // dispatcher never diverges from the scalar spec.
  (void)avx2;
}

// The pext decode (BMI2 tier) must agree with the ctz-loop decode on
// every word shape: empty, full, single bits at every position, bits
// straddling the 16-bit chunk boundaries the decoder works in, and
// random fuzz. Then the full AVX2+BMI2 kernel must agree with the
// scalar kernel on the same adversarial set shapes as the other SIMD
// tiers, including ragged word counts.
TEST(VertexSetPropertyTest, PextDecodeMatchesScalarOracle) {
#if !defined(QGP_VERTEX_SET_HAS_BMI2)
  GTEST_SKIP() << "no BMI2 build support on this target";
#else
  if (!CpuHasBmi2()) GTEST_SKIP() << "host lacks BMI2";
  auto decode_scalar = [](uint64_t w, uint32_t base) {
    std::vector<uint32_t> out;
    while (w != 0) {
      out.push_back(base + static_cast<uint32_t>(__builtin_ctzll(w)));
      w &= w - 1;
    }
    return out;
  };
  auto check_word = [&](uint64_t w, uint32_t base) {
    std::vector<uint32_t> got;
    DecodeWordBmi2Into(w, base, got);
    EXPECT_EQ(got, decode_scalar(w, base))
        << "word 0x" << std::hex << w << " base " << std::dec << base;
  };
  // Directed shapes first.
  check_word(0, 0);
  check_word(~0ULL, 128);
  for (int bit = 0; bit < 64; ++bit) check_word(1ULL << bit, 64);
  for (int edge : {15, 16, 31, 32, 47, 48}) {
    check_word((1ULL << edge) | (1ULL << (edge + 1)), 0);
  }
  check_word(0x8001800180018001ULL, 0);  // chunk-extreme bits, all chunks
  check_word(0xAAAAAAAAAAAAAAAAULL, 0);  // alternating, 8 bits per chunk
  // Random word fuzz across densities.
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  for (int trial = 0; trial < 2000; ++trial) {
    uint64_t w = rng();
    // Vary density: sparse words come from AND-ing random words.
    for (int d = 0; d < trial % 4; ++d) w &= rng();
    check_word(w, static_cast<uint32_t>((trial % 64) << 6));
  }
#endif
}

TEST(VertexSetPropertyTest, Avx2Bmi2KernelMatchesScalarOnAdversarialShapes) {
#if !defined(QGP_VERTEX_SET_HAS_BMI2)
  GTEST_SKIP() << "no BMI2 build support on this target";
#else
  if (!CpuHasAvx2() || !CpuHasBmi2()) GTEST_SKIP() << "host lacks AVX2+BMI2";
  size_t nonempty = 0;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(seed * 2654435761u + 101);
    auto [a, b] = MakeCase(rng, static_cast<int>(seed));
    std::vector<uint64_t> wa = ToWords(a);
    std::vector<uint64_t> wb = ToWords(b);
    const size_t trim = seed % 5;
    if (trim != 0 && wa.size() > trim) {
      (seed % 2 == 0 ? wa : wb).resize(wa.size() - trim);
    }
    std::vector<uint32_t> scalar;
    IntersectWordsScalarInto(wa, wb, scalar);
    std::vector<uint32_t> simd;
    IntersectWordsAvx2Bmi2Into(wa, wb, simd);
    EXPECT_EQ(simd, scalar) << "seed " << seed;
    // Append-without-clearing contract holds for the BMI2 tier too.
    std::vector<uint32_t> seeded{0xfeedfaceu};
    IntersectWordsAvx2Bmi2Into(wa, wb, seeded);
    ASSERT_GE(seeded.size(), 1u);
    EXPECT_EQ(seeded[0], 0xfeedfaceu);
    EXPECT_EQ(std::vector<uint32_t>(seeded.begin() + 1, seeded.end()),
              scalar);
    if (!scalar.empty()) ++nonempty;
  }
  EXPECT_GE(nonempty, 30u);
#endif
}

TEST(VertexSetPropertyTest, GallopLowerBoundMatchesStdLowerBound) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::mt19937 rng(seed * 16807 + 13);
    std::vector<uint32_t> run = RandomRun(rng, 1 + rng() % 300, 0, kUniverse);
    for (int probe = 0; probe < 50; ++probe) {
      uint32_t key = rng() % (kUniverse + 2);
      const uint32_t* expect =
          std::lower_bound(run.data(), run.data() + run.size(), key);
      const uint32_t* got =
          GallopLowerBound(run.data(), run.data() + run.size(), key);
      EXPECT_EQ(got, expect)
          << "seed " << seed << " key " << key;
    }
  }
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
