#ifndef QGP_COMMON_ENV_H_
#define QGP_COMMON_ENV_H_

#include <string>

namespace qgp {

/// Reads an environment variable, or `fallback` when unset/empty.
std::string GetEnvString(const char* name, const std::string& fallback);

/// Benchmark scale knob shared by all bench binaries.
/// QGP_BENCH_SCALE=tiny|small|medium|large; defaults to "small".
/// Benches multiply their default workload sizes by ScaleFactor().
enum class BenchScale { kTiny, kSmall, kMedium, kLarge };

/// Parses QGP_BENCH_SCALE from the environment.
BenchScale GetBenchScale();

/// Multiplier applied to bench workload sizes: tiny=0.1, small=1,
/// medium=4, large=16.
double BenchScaleFactor(BenchScale scale);

/// Human-readable name for a scale.
const char* BenchScaleName(BenchScale scale);

}  // namespace qgp

#endif  // QGP_COMMON_ENV_H_
