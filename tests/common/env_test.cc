#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace qgp {
namespace {

TEST(EnvTest, StringFallback) {
  ::unsetenv("QGP_TEST_VAR");
  EXPECT_EQ(GetEnvString("QGP_TEST_VAR", "fb"), "fb");
  ::setenv("QGP_TEST_VAR", "value", 1);
  EXPECT_EQ(GetEnvString("QGP_TEST_VAR", "fb"), "value");
  ::setenv("QGP_TEST_VAR", "", 1);
  EXPECT_EQ(GetEnvString("QGP_TEST_VAR", "fb"), "fb");
  ::unsetenv("QGP_TEST_VAR");
}

TEST(EnvTest, BenchScaleParsing) {
  ::unsetenv("QGP_BENCH_SCALE");
  EXPECT_EQ(GetBenchScale(), BenchScale::kSmall);
  ::setenv("QGP_BENCH_SCALE", "tiny", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kTiny);
  ::setenv("QGP_BENCH_SCALE", "MEDIUM", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kMedium);
  ::setenv("QGP_BENCH_SCALE", "large", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kLarge);
  ::setenv("QGP_BENCH_SCALE", "bogus", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kSmall);
  ::unsetenv("QGP_BENCH_SCALE");
}

TEST(EnvTest, ScaleFactorsMonotone) {
  EXPECT_LT(BenchScaleFactor(BenchScale::kTiny),
            BenchScaleFactor(BenchScale::kSmall));
  EXPECT_LT(BenchScaleFactor(BenchScale::kSmall),
            BenchScaleFactor(BenchScale::kMedium));
  EXPECT_LT(BenchScaleFactor(BenchScale::kMedium),
            BenchScaleFactor(BenchScale::kLarge));
}

TEST(EnvTest, ScaleNames) {
  EXPECT_STREQ(BenchScaleName(BenchScale::kTiny), "tiny");
  EXPECT_STREQ(BenchScaleName(BenchScale::kLarge), "large");
}

}  // namespace
}  // namespace qgp
