#include "core/quantifier.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace qgp {
namespace {

TEST(QuantifierTest, DefaultIsExistential) {
  Quantifier q;
  EXPECT_TRUE(q.IsExistential());
  EXPECT_FALSE(q.IsNegation());
  EXPECT_TRUE(q.Eval(1, 0));
  EXPECT_FALSE(q.Eval(0, 0));
  EXPECT_EQ(q.ToString(), ">=1");
}

TEST(QuantifierTest, NumericGe) {
  Quantifier q = Quantifier::Numeric(QuantOp::kGe, 3);
  EXPECT_FALSE(q.Eval(2, 10));
  EXPECT_TRUE(q.Eval(3, 10));
  EXPECT_TRUE(q.Eval(7, 10));
  EXPECT_EQ(q.ToString(), ">=3");
  EXPECT_EQ(q.MinCountNeeded(10), 3u);
  EXPECT_EQ(q.EarlyStopCount(10), 3u);
}

TEST(QuantifierTest, NumericEq) {
  Quantifier q = Quantifier::Numeric(QuantOp::kEq, 2);
  EXPECT_FALSE(q.Eval(1, 5));
  EXPECT_TRUE(q.Eval(2, 5));
  EXPECT_FALSE(q.Eval(3, 5));
  // Exact counts cannot stop early.
  EXPECT_FALSE(q.EarlyStopCount(5).has_value());
  EXPECT_EQ(q.MinCountNeeded(5), 2u);
}

TEST(QuantifierTest, NumericGt) {
  Quantifier q = Quantifier::Numeric(QuantOp::kGt, 2);
  EXPECT_FALSE(q.Eval(2, 5));
  EXPECT_TRUE(q.Eval(3, 5));
  EXPECT_EQ(q.MinCountNeeded(5), 3u);  // > 2 means >= 3
  EXPECT_EQ(q.ToString(), ">2");
}

TEST(QuantifierTest, Negation) {
  Quantifier q = Quantifier::Negation();
  EXPECT_TRUE(q.IsNegation());
  EXPECT_TRUE(q.Eval(0, 5));
  EXPECT_FALSE(q.Eval(1, 5));
  EXPECT_EQ(q.ToString(), "=0");
  EXPECT_FALSE(q.MinCountNeeded(5).has_value());
}

TEST(QuantifierTest, RatioGeCeilingNotFloor) {
  // Deviation 1 (docs/ARCHITECTURE.md): >=80% of 3 children requires 3
  // matches, not the paper's floor(3*0.8) = 2 (2/3 = 66.7% < 80%).
  Quantifier q = Quantifier::Ratio(QuantOp::kGe, 80.0);
  EXPECT_EQ(q.MinCountNeeded(3), 3u);
  EXPECT_FALSE(q.Eval(2, 3));
  EXPECT_TRUE(q.Eval(3, 3));
  // 80% of 5 is exactly 4.
  EXPECT_EQ(q.MinCountNeeded(5), 4u);
  EXPECT_TRUE(q.Eval(4, 5));
  EXPECT_FALSE(q.Eval(3, 5));
}

TEST(QuantifierTest, RatioUniversal) {
  Quantifier q = Quantifier::Universal();
  EXPECT_EQ(q.kind(), QuantKind::kRatio);
  EXPECT_TRUE(q.Eval(4, 4));
  EXPECT_FALSE(q.Eval(3, 4));
  EXPECT_EQ(q.ToString(), "=100%");
  EXPECT_EQ(q.MinCountNeeded(4), 4u);
}

TEST(QuantifierTest, RatioEqRequiresIntegralTarget) {
  Quantifier q = Quantifier::Ratio(QuantOp::kEq, 40.0);
  // 40% of 5 = 2: satisfiable.
  EXPECT_EQ(q.MinCountNeeded(5), 2u);
  EXPECT_TRUE(q.Eval(2, 5));
  EXPECT_FALSE(q.Eval(3, 5));
  // 40% of 3 = 1.2: unsatisfiable.
  EXPECT_FALSE(q.MinCountNeeded(3).has_value());
  EXPECT_FALSE(q.Eval(1, 3));
}

TEST(QuantifierTest, RatioGtStrict) {
  Quantifier q = Quantifier::Ratio(QuantOp::kGt, 50.0);
  EXPECT_FALSE(q.Eval(2, 4));  // exactly 50% is not > 50%
  EXPECT_TRUE(q.Eval(3, 4));
  EXPECT_EQ(q.MinCountNeeded(4), 3u);
}

TEST(QuantifierTest, RatioZeroTotalIsFalse) {
  Quantifier q = Quantifier::Ratio(QuantOp::kGe, 50.0);
  EXPECT_FALSE(q.Eval(0, 0));
}

TEST(QuantifierTest, EarlyStopOnlyForMonotone) {
  EXPECT_TRUE(
      Quantifier::Ratio(QuantOp::kGe, 50.0).EarlyStopCount(10).has_value());
  EXPECT_FALSE(Quantifier::Universal().EarlyStopCount(10).has_value());
  EXPECT_FALSE(
      Quantifier::Numeric(QuantOp::kEq, 3).EarlyStopCount(10).has_value());
}

TEST(QuantifierTest, Validation) {
  EXPECT_TRUE(Quantifier::Numeric(QuantOp::kGe, 1).Validate().ok());
  EXPECT_TRUE(Quantifier::Negation().Validate().ok());
  EXPECT_TRUE(Quantifier::Ratio(QuantOp::kGe, 100.0).Validate().ok());
  EXPECT_FALSE(Quantifier::Ratio(QuantOp::kGe, 0.0).Validate().ok());
  EXPECT_FALSE(Quantifier::Ratio(QuantOp::kGe, 120.0).Validate().ok());
  EXPECT_FALSE(Quantifier::Ratio(QuantOp::kGe, -5.0).Validate().ok());
  EXPECT_FALSE(Quantifier::Numeric(QuantOp::kGe, 0).Validate().ok());
}

TEST(QuantifierTest, Equality) {
  EXPECT_EQ(Quantifier(), Quantifier::Numeric(QuantOp::kGe, 1));
  EXPECT_FALSE(Quantifier::Numeric(QuantOp::kGe, 2) ==
               Quantifier::Numeric(QuantOp::kGe, 3));
  EXPECT_FALSE(Quantifier::Ratio(QuantOp::kGe, 30) ==
               Quantifier::Numeric(QuantOp::kGe, 30));
  EXPECT_EQ(Quantifier::Universal(), Quantifier::Ratio(QuantOp::kEq, 100.0));
}

TEST(QuantifierTest, ToStringFractionalRatio) {
  Quantifier q = Quantifier::Ratio(QuantOp::kGe, 33.5);
  EXPECT_EQ(q.ToString(), ">=33.5%");
}

// The minimum a quantifier needs must agree with Eval at every count,
// or the upper-bound cuts built on it (candidate pruning, counting that
// stops once the threshold is out of reach) drop true answers. Swept
// over every total up to 64 (a ratio over 0 children has no minimum)
// and percents on, just above and just below each count boundary
// k/total. 33.333333333% once needed 3 of 6 children although 2 of 6
// satisfy it.
TEST(QuantifierTest, MinCountNeededAgreesWithEval) {
  std::vector<double> percents = {0.5, 12.5, 33.333333333, 66.666666667,
                                  80.0, 99.99999999, 100.0};
  for (int total = 1; total <= 64; ++total) {
    for (int k = 1; k <= total; ++k) {
      const double p = 100.0 * k / total;
      for (double d : {0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9, 1e-7,
                       -1e-7}) {
        percents.push_back(p + d);
      }
    }
  }
  std::vector<Quantifier> quantifiers;
  for (QuantOp op : {QuantOp::kGe, QuantOp::kGt, QuantOp::kEq}) {
    for (double p : percents) {
      if (p > 0.0 && p <= 100.0) {
        quantifiers.push_back(Quantifier::Ratio(op, p));
      }
    }
    for (uint32_t n = 1; n <= 66; ++n) {
      quantifiers.push_back(Quantifier::Numeric(op, n));
    }
  }
  int violations = 0;
  for (const Quantifier& q : quantifiers) {
    for (uint64_t total = 0; total <= 64; ++total) {
      const std::optional<uint64_t> needed = q.MinCountNeeded(total);
      for (uint64_t c = 0; c <= total + 1; ++c) {
        bool expected = false;
        if (needed.has_value()) {
          expected = q.op() == QuantOp::kEq ? c == *needed : c >= *needed;
        }
        if (q.Eval(c, total) != expected && ++violations <= 5) {
          ADD_FAILURE() << q.ToString() << " (percent " << q.percent()
                        << ") total=" << total << " count=" << c
                        << " Eval=" << q.Eval(c, total) << " needed="
                        << (needed ? std::to_string(*needed) : "none");
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace qgp
