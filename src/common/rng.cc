#include "common/rng.h"

#include <cmath>

namespace qgp {

uint64_t Rng::Next() {
  // splitmix64 (Steele, Lea, Flood 2014): passes BigCrush, 1 mul-xor chain.
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rng::NextUint64(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  if (n <= 1) return 0;
  // Inverse-CDF on a continuous approximation of the Zipf law; accurate
  // enough for workload skew and O(1) per draw.
  double u = NextDouble();
  if (s == 1.0) s = 1.0000001;
  double nd = static_cast<double>(n);
  double t = (std::pow(nd, 1.0 - s) - 1.0) * u + 1.0;
  double x = std::pow(t, 1.0 / (1.0 - s));
  uint64_t rank = static_cast<uint64_t>(x) - 1;
  return rank >= n ? n - 1 : rank;
}

}  // namespace qgp
