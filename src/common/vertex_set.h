#ifndef QGP_COMMON_VERTEX_SET_H_
#define QGP_COMMON_VERTEX_SET_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/bitset.h"

namespace qgp {

/// Candidate-set kernels shared by the matcher hot paths: a touched-word
/// bitset whose reset costs O(dirty) instead of O(universe), plus sorted
/// intersection routines (two-pointer merge, galloping for skewed sizes,
/// word-parallel AND for dense sets) with a size-ratio dispatch.
///
/// All sorted-run kernels take ascending uint32 runs (or runs of structs
/// projected to uint32) and append ascending output; they never clear the
/// output vector, so callers can reuse scratch buffers.

/// Bitset over a large universe with O(touched-words) reset: Set/TestAndSet
/// record which 64-bit words became nonzero so ResetTouched() only zeroes
/// those. This is what makes a per-thread visited set reusable across
/// thousands of per-focus ball extractions without O(|V|) clearing each
/// time. A one-bit-per-word summary of the touched words lets
/// AppendSetBitsSorted() list the members in ascending order without a
/// sort.
class SparseBitset {
 public:
  /// Grows the universe to at least `n` bits; existing bits survive.
  void EnsureUniverse(size_t n) {
    if (n > size_) {
      size_ = n;
      words_.resize((n + 63) / 64, 0);
      summary_.resize((words_.size() + 63) / 64, 0);
    }
  }

  size_t size() const { return size_; }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1ULL; }

  void Set(size_t i) {
    uint64_t& w = words_[i >> 6];
    if (w == 0) Touch(i >> 6);
    w |= 1ULL << (i & 63);
  }

  /// Sets bit i; returns whether it was previously clear.
  bool TestAndSet(size_t i) {
    uint64_t& w = words_[i >> 6];
    uint64_t mask = 1ULL << (i & 63);
    if ((w & mask) != 0) return false;
    if (w == 0) Touch(i >> 6);
    w |= mask;
    return true;
  }

  /// Clears bit i. The word stays on the touched list, so a later
  /// ResetTouched() still works.
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Zeroes every dirtied word; cost proportional to bits set since the
  /// last reset, not to the universe.
  void ResetTouched() {
    for (uint32_t w : touched_) {
      words_[w] = 0;
      summary_[w >> 6] = 0;
    }
    touched_.clear();
  }

  /// Appends every set bit to `out` in ascending order. Walks the
  /// summary to visit the touched words in index order, so the cost is
  /// O(|universe| / 4096 + touched words + set bits) and no sort runs.
  void AppendSetBitsSorted(std::vector<uint32_t>& out) const {
    for (size_t s = 0; s < summary_.size(); ++s) {
      uint64_t sw = summary_[s];
      while (sw != 0) {
        const size_t wi = (s << 6) + static_cast<size_t>(__builtin_ctzll(sw));
        sw &= sw - 1;
        uint64_t w = words_[wi];
        while (w != 0) {
          out.push_back(static_cast<uint32_t>((wi << 6) + __builtin_ctzll(w)));
          w &= w - 1;
        }
      }
    }
  }

  /// Raw words, for word-parallel intersection with another bitset.
  std::span<const uint64_t> words() const { return words_; }

 private:
  void Touch(size_t word) {
    touched_.push_back(static_cast<uint32_t>(word));
    summary_[word >> 6] |= 1ULL << (word & 63);
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;  // bit w set iff word w is touched
  std::vector<uint32_t> touched_;
};

/// Sorted-run intersections iterate the smaller side and gallop in the
/// larger once the size ratio passes this; below it a two-pointer merge
/// has better constants.
inline constexpr size_t kGallopRatio = 16;

/// First position in [first, last) not less than `key`, found by
/// exponential probing followed by binary search — O(log distance) when
/// matches cluster near `first`, which is what makes galloping
/// intersection O(small · log(large/small)).
template <typename T, typename Proj>
const T* GallopLowerBound(const T* first, const T* last, uint32_t key,
                          Proj proj) {
  const size_t len = static_cast<size_t>(last - first);
  size_t bound = 1;
  while (bound < len && proj(first[bound]) < key) bound <<= 1;
  const size_t lo = bound >> 1;
  const size_t hi = std::min(bound + 1, len);
  return std::partition_point(first + lo, first + hi,
                              [&](const T& x) { return proj(x) < key; });
}

inline const uint32_t* GallopLowerBound(const uint32_t* first,
                                        const uint32_t* last, uint32_t key) {
  return GallopLowerBound(first, last, key, [](uint32_t x) { return x; });
}

/// Intersection of a sorted projected run `a` with a sorted uint32 run
/// `b`, appending the common values to `out` in ascending order.
/// Dispatches on the size ratio: two-pointer merge for comparable sizes,
/// galloping over the larger side when skewed by >= kGallopRatio.
template <typename T, typename Proj>
void IntersectSortedInto(std::span<const T> a, Proj proj,
                         std::span<const uint32_t> b,
                         std::vector<uint32_t>& out) {
  if (a.empty() || b.empty()) return;
  if (a.size() * kGallopRatio <= b.size()) {
    // a much smaller: gallop through b.
    const uint32_t* bit = b.data();
    const uint32_t* bend = b.data() + b.size();
    for (const T& x : a) {
      const uint32_t key = proj(x);
      bit = GallopLowerBound(bit, bend, key);
      if (bit == bend) return;
      if (*bit == key) out.push_back(key);
    }
    return;
  }
  if (b.size() * kGallopRatio <= a.size()) {
    // b much smaller: gallop through a.
    const T* ait = a.data();
    const T* aend = a.data() + a.size();
    for (uint32_t key : b) {
      ait = GallopLowerBound(ait, aend, key, proj);
      if (ait == aend) return;
      if (proj(*ait) == key) out.push_back(key);
    }
    return;
  }
  // Comparable sizes: linear two-pointer merge.
  const T* ait = a.data();
  const T* aend = a.data() + a.size();
  const uint32_t* bit = b.data();
  const uint32_t* bend = b.data() + b.size();
  while (ait != aend && bit != bend) {
    const uint32_t av = proj(*ait);
    if (av < *bit) {
      ++ait;
    } else if (*bit < av) {
      ++bit;
    } else {
      out.push_back(av);
      ++ait;
      ++bit;
    }
  }
}

inline void IntersectSortedInto(std::span<const uint32_t> a,
                                std::span<const uint32_t> b,
                                std::vector<uint32_t>& out) {
  IntersectSortedInto(a, [](uint32_t x) { return x; }, b, out);
}

/// Scalar word-parallel AND of two bitset word arrays, decoding the
/// surviving bits (ascending) into `out`. O(min-words); beats
/// element-wise kernels once both sets are dense fractions of the
/// universe. Exposed separately from the dispatching IntersectWordsInto
/// so the property tests can diff the SIMD path against it directly.
inline void IntersectWordsScalarInto(std::span<const uint64_t> a,
                                     std::span<const uint64_t> b,
                                     std::vector<uint32_t>& out) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    while (w != 0) {
      const int bit = __builtin_ctzll(w);
      out.push_back(static_cast<uint32_t>((i << 6) + bit));
      w &= w - 1;
    }
  }
}

// AVX2 variant: AND four words per vector op and skip all-zero groups
// with one test — sparse intersections of dense sets (long zero runs)
// are where the win lives; surviving words decode bit-by-bit here, and
// via pext in the BMI2 layer below. Compiled via the target attribute
// (no global -mavx2 needed) and selected at runtime, so non-AVX2 hosts
// fall back to the scalar kernel transparently.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QGP_VERTEX_SET_HAS_AVX2 1

inline bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

__attribute__((target("avx2"))) inline void IntersectWordsAvx2Into(
    std::span<const uint64_t> a, std::span<const uint64_t> b,
    std::vector<uint32_t>& out) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + i));
    const __m256i vw = _mm256_and_si256(va, vb);
    if (_mm256_testz_si256(vw, vw)) continue;
    alignas(32) uint64_t words[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(words), vw);
    for (size_t k = 0; k < 4; ++k) {
      uint64_t w = words[k];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        out.push_back(static_cast<uint32_t>(((i + k) << 6) + bit));
        w &= w - 1;
      }
    }
  }
  for (; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    while (w != 0) {
      const int bit = __builtin_ctzll(w);
      out.push_back(static_cast<uint32_t>((i << 6) + bit));
      w &= w - 1;
    }
  }
}

// BMI2 layer on top of the AVX2 kernel: surviving words decode via
// pdep/pext instead of the ctz/clear-lowest loop. Per 16-bit chunk,
// pdep spreads the chunk's bits into nibble masks and pext compresses
// the constant 0xfedc...3210 index table through them, yielding the set
// bit positions packed one per nibble in ascending order — popcount
// pushes, no data-dependent branch per bit. Worth it exactly where the
// AVX2 kernel leaves off: dense survivors with many set bits per word.
// (pdep/pext are microcoded and slow on pre-Zen3 AMD; the runtime
// check only asks "supported", so those hosts take the slow-but-
// correct path — same answers, see the property fuzz suite.)
#define QGP_VERTEX_SET_HAS_BMI2 1

inline bool CpuHasBmi2() {
  static const bool has = __builtin_cpu_supports("bmi2");
  return has;
}

/// Appends the set-bit positions of `w` (offset by `base`) to `out` in
/// ascending order. Exposed so the property tests can diff it against
/// the ctz-loop decode word by word.
__attribute__((target("bmi2"))) inline void DecodeWordBmi2Into(
    uint64_t w, uint32_t base, std::vector<uint32_t>& out) {
  for (uint32_t c = 0; c < 4; ++c) {
    const uint64_t m = (w >> (c * 16)) & 0xFFFFULL;
    if (m == 0) continue;
    // Each set bit of m becomes a full-nibble mask; multiplying the
    // pdep'd single bits by 0xF cannot carry across nibbles.
    const uint64_t spread = _pdep_u64(m, 0x1111111111111111ULL) * 0xF;
    uint64_t idx = _pext_u64(0xfedcba9876543210ULL, spread);
    const uint32_t cbase = base + c * 16;
    for (int k = __builtin_popcountll(m); k > 0; --k) {
      out.push_back(cbase + static_cast<uint32_t>(idx & 0xF));
      idx >>= 4;
    }
  }
}

__attribute__((target("avx2,bmi2"))) inline void IntersectWordsAvx2Bmi2Into(
    std::span<const uint64_t> a, std::span<const uint64_t> b,
    std::vector<uint32_t>& out) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + i));
    const __m256i vw = _mm256_and_si256(va, vb);
    if (_mm256_testz_si256(vw, vw)) continue;
    alignas(32) uint64_t words[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(words), vw);
    for (size_t k = 0; k < 4; ++k) {
      if (words[k] == 0) continue;
      DecodeWordBmi2Into(words[k], static_cast<uint32_t>((i + k) << 6), out);
    }
  }
  for (; i < n; ++i) {
    const uint64_t w = a[i] & b[i];
    if (w == 0) continue;
    DecodeWordBmi2Into(w, static_cast<uint32_t>(i << 6), out);
  }
}
#endif  // x86-64 GCC/Clang

/// Word-parallel AND with SIMD dispatch: the size-ratio dispatches in
/// CandidateSpace and the matchers call this for the dense/dense case;
/// it picks the AVX2+BMI2 kernel when the host supports both, the plain
/// AVX2 kernel with AVX2 alone, and the scalar kernel otherwise. Output
/// is identical in all three cases (the property tests fuzz each tier
/// against the sorted-set oracle).
inline void IntersectWordsInto(std::span<const uint64_t> a,
                               std::span<const uint64_t> b,
                               std::vector<uint32_t>& out) {
#if defined(QGP_VERTEX_SET_HAS_AVX2)
  if (CpuHasAvx2()) {
    if (CpuHasBmi2()) {
      IntersectWordsAvx2Bmi2Into(a, b, out);
    } else {
      IntersectWordsAvx2Into(a, b, out);
    }
    return;
  }
#endif
  IntersectWordsScalarInto(a, b, out);
}

}  // namespace qgp

#endif  // QGP_COMMON_VERTEX_SET_H_
