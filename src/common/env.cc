#include "common/env.h"

#include <cstdlib>

#include "common/string_util.h"

namespace qgp {

std::string GetEnvString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return v;
}

BenchScale GetBenchScale() {
  std::string s = AsciiToLower(GetEnvString("QGP_BENCH_SCALE", "small"));
  if (s == "tiny") return BenchScale::kTiny;
  if (s == "medium") return BenchScale::kMedium;
  if (s == "large") return BenchScale::kLarge;
  return BenchScale::kSmall;
}

double BenchScaleFactor(BenchScale scale) {
  switch (scale) {
    case BenchScale::kTiny:
      return 0.1;
    case BenchScale::kSmall:
      return 1.0;
    case BenchScale::kMedium:
      return 4.0;
    case BenchScale::kLarge:
      return 16.0;
  }
  return 1.0;
}

const char* BenchScaleName(BenchScale scale) {
  switch (scale) {
    case BenchScale::kTiny:
      return "tiny";
    case BenchScale::kSmall:
      return "small";
    case BenchScale::kMedium:
      return "medium";
    case BenchScale::kLarge:
      return "large";
  }
  return "small";
}

}  // namespace qgp
