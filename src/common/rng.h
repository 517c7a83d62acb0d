#ifndef QGP_COMMON_RNG_H_
#define QGP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qgp {

/// Deterministic, fast pseudo-random number generator (splitmix64 core).
/// Every stochastic component in the library (generators, workload
/// sampling) takes an explicit Rng so runs are reproducible from a seed.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed = 42) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBool(double p);

  /// Approximately Zipf-distributed rank in [0, n) with exponent `s`.
  /// Used by the scale-free graph generators for degree skew.
  uint64_t NextZipf(uint64_t n, double s);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUint64(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_;
};

}  // namespace qgp

#endif  // QGP_COMMON_RNG_H_
