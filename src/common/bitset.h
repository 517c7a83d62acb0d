#ifndef QGP_COMMON_BITSET_H_
#define QGP_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qgp {

/// Flat dynamic bitset. Used for visited sets in BFS / ball extraction and
/// match bookkeeping, where std::vector<bool> proxies and unordered_set
/// overhead both hurt.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `n` bits, all clear.
  explicit DynamicBitset(size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// Number of bits.
  size_t size() const { return size_; }

  /// Resizes, preserving existing bits; new bits are clear.
  void Resize(size_t n) {
    size_ = n;
    words_.resize((n + 63) / 64, 0);
  }

  /// Sets bit i. Precondition: i < size().
  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }

  /// Clears bit i. Precondition: i < size().
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Tests bit i. Precondition: i < size().
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Sets bit i and returns whether it was previously clear.
  bool TestAndSet(size_t i) {
    uint64_t& w = words_[i >> 6];
    uint64_t mask = 1ULL << (i & 63);
    bool was_clear = (w & mask) == 0;
    w |= mask;
    return was_clear;
  }

  /// Clears all bits.
  void Reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t w : words_) total += static_cast<size_t>(__builtin_popcountll(w));
    return total;
  }

  /// Raw 64-bit words, for word-parallel set operations and for reading
  /// the set through a BitsetView (common/vertex_set.h).
  std::span<const uint64_t> words() const { return words_; }

  /// Order-sensitive content hash (FNV-1a over words); used to detect
  /// that two bitsets encode the same set, e.g. when validating cached
  /// artifacts parameterized by a filter.
  uint64_t Fingerprint() const {
    uint64_t h = 1469598103934665603ULL;
    for (uint64_t w : words_) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h ^ size_;
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace qgp

#endif  // QGP_COMMON_BITSET_H_
