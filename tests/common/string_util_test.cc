#include "common/string_util.h"

#include <gtest/gtest.h>

namespace qgp {
namespace {

TEST(SplitWhitespaceTest, MixedWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a\tb\n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   \t\n").empty());
}

TEST(StripWhitespaceTest, Basic) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith(">=80%", ">="));
  EXPECT_FALSE(StartsWith("=80%", ">="));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(ParseInt64Test, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("  7  ", &v));
  EXPECT_EQ(v, 7);
}

TEST(ParseInt64Test, InvalidInputs) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(ParseDoubleTest, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("80", &v));
  EXPECT_DOUBLE_EQ(v, 80.0);
  EXPECT_TRUE(ParseDouble("-0.5", &v));
  EXPECT_DOUBLE_EQ(v, -0.5);
}

TEST(ParseDoubleTest, InvalidInputs) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("80%", &v));
  EXPECT_FALSE(ParseDouble("x", &v));
}

TEST(AsciiToLowerTest, Basic) {
  EXPECT_EQ(AsciiToLower("LaRgE"), "large");
  EXPECT_EQ(AsciiToLower("already"), "already");
  EXPECT_EQ(AsciiToLower("MiX3d_Case"), "mix3d_case");
}

}  // namespace
}  // namespace qgp
