#ifndef QGP_COMMON_VERTEX_SET_H_
#define QGP_COMMON_VERTEX_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qgp {

/// Vertex-set types shared by the matcher hot paths: a touched-word
/// bitset whose reset costs O(dirty) instead of O(universe), and a view
/// that reads a set, optionally masked, through its bitset words.

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

  /// Raw words, e.g. as the mask of a BitsetView.
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

/// A vertex set read through membership words, so a matcher can test
/// and enumerate an intersection without materializing it: the words of
/// a set's bitset, an optional mask ANDed in (a focus's ball, say), and
/// a size, computed once by whoever builds the view — the number of
/// members, or an upper bound on it that the builder wants the matcher's
/// plan order to compare (DMatch counts a view masked by a k-hop ball
/// over the focus's full ball).
/// `sorted` is an ascending run holding every member — typically the
/// shorter of the set's member list and the mask's — which Decode walks
/// so listing the view never scans the whole universe.
struct BitsetView {
  std::span<const uint64_t> words;
  std::span<const uint64_t> mask;  // empty: no mask
  std::span<const uint32_t> sorted;
  size_t size = 0;

  bool Test(uint32_t v) const {
    const size_t w = v >> 6;
    const uint64_t bit = 1ULL << (v & 63);
    return (words[w] & bit) != 0 && (mask.empty() || (mask[w] & bit) != 0);
  }

  /// Appends the members to `out` in ascending order, without clearing
  /// it first.
  void Decode(std::vector<uint32_t>& out) const {
    for (uint32_t v : sorted) {
      if (Test(v)) out.push_back(v);
    }
  }
};

/// The set {`words`, `members`} masked by the set {`mask`,
/// `mask_members`}, each given as membership words plus its ascending
/// member run. The view walks the shorter run, and its size costs
/// O(min(|members|, |mask_members|, words)): the shorter run is counted
/// by bit test, unless the word arrays are shorter still and a popcount
/// of the ANDed words (over the common prefix) is cheaper.
inline BitsetView MaskedView(std::span<const uint64_t> words,
                             std::span<const uint32_t> members,
                             std::span<const uint64_t> mask,
                             std::span<const uint32_t> mask_members) {
  BitsetView view{words, mask,
                  mask_members.size() < members.size() ? mask_members
                                                       : members,
                  0};
  const size_t common = std::min(words.size(), mask.size());
  if (view.sorted.size() < common) {
    for (uint32_t v : view.sorted) view.size += view.Test(v) ? 1 : 0;
  } else {
    for (size_t i = 0; i < common; ++i) {
      view.size +=
          static_cast<size_t>(__builtin_popcountll(words[i] & mask[i]));
    }
  }
  return view;
}

}  // namespace qgp

#endif  // QGP_COMMON_VERTEX_SET_H_
