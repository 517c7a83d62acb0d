#include "core/quantifier.h"

#include <cmath>
#include <sstream>

namespace qgp {

namespace {

// Tolerance for ratio comparisons: thresholds like 80% of 5 children must
// compare exactly, while accumulated floating error stays far below this.
constexpr double kRatioEps = 1e-9;

// The ratio test: matched*100 ⊙ percent*total, without division and with
// the tolerance on that x100 scale. Eval and MinCountNeeded both decide
// through it, so they cannot disagree.
bool RatioHolds(QuantOp op, double lhs, double rhs) {
  switch (op) {
    case QuantOp::kGe:
      return lhs >= rhs - kRatioEps;
    case QuantOp::kEq:
      return std::fabs(lhs - rhs) <= kRatioEps;
    case QuantOp::kGt:
      return lhs > rhs + kRatioEps;
  }
  return false;
}

}  // namespace

bool Quantifier::Eval(uint64_t matched, uint64_t total) const {
  switch (kind_) {
    case QuantKind::kNegation:
      return matched == 0;
    case QuantKind::kNumeric:
      switch (op_) {
        case QuantOp::kGe:
          return matched >= count_;
        case QuantOp::kEq:
          return matched == count_;
        case QuantOp::kGt:
          return matched > count_;
      }
      return false;
    case QuantKind::kRatio: {
      if (total == 0) return false;
      return RatioHolds(op_, static_cast<double>(matched) * 100.0,
                        percent_ * static_cast<double>(total));
    }
  }
  return false;
}

std::optional<uint64_t> Quantifier::MinCountNeeded(uint64_t total) const {
  switch (kind_) {
    case QuantKind::kNegation:
      return std::nullopt;  // pruning by minimum count is meaningless
    case QuantKind::kNumeric:
      switch (op_) {
        case QuantOp::kGe:
          return count_;
        case QuantOp::kEq:
          return count_;
        case QuantOp::kGt:
          return static_cast<uint64_t>(count_) + 1;
      }
      return std::nullopt;
    case QuantKind::kRatio: {
      if (total == 0) return std::nullopt;  // Eval is false at every count
      const double rhs = percent_ * static_cast<double>(total);
      const auto holds = [&](uint64_t m) {
        return RatioHolds(op_, static_cast<double>(m) * 100.0, rhs);
      };
      // The test never holds below floor(rhs / 100) and, for `>=` and `>`,
      // always holds two above it; the test itself settles the steps in
      // between, so the result agrees with Eval exactly.
      uint64_t m = static_cast<uint64_t>(rhs * 0.01);
      if (op_ == QuantOp::kEq) {
        // Satisfiable only when p% of total is an integer.
        if (holds(m)) return m;
        if (holds(m + 1)) return m + 1;
        return std::nullopt;
      }
      // >= and >: the smallest m the test accepts, a ceiling (deviation
      // 1 in docs/ARCHITECTURE.md corrects the paper's floor).
      for (int step = 0; step < 2 && !holds(m); ++step) ++m;
      return m;
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> Quantifier::EarlyStopCount(uint64_t total) const {
  // Only >=-style thresholds are monotone in the count; `=` forms need the
  // exact final count, so counting cannot stop early.
  if (op_ == QuantOp::kEq) return std::nullopt;
  return MinCountNeeded(total);
}

std::string Quantifier::ToString() const {
  std::ostringstream out;
  switch (op_) {
    case QuantOp::kGe:
      out << ">=";
      break;
    case QuantOp::kEq:
      out << "=";
      break;
    case QuantOp::kGt:
      out << ">";
      break;
  }
  if (kind_ == QuantKind::kRatio) {
    // Print integral percents without a trailing ".0".
    double p = percent_;
    if (p == static_cast<double>(static_cast<int64_t>(p))) {
      out << static_cast<int64_t>(p);
    } else {
      out << p;
    }
    out << '%';
  } else {
    out << count_;
  }
  return out.str();
}

Status Quantifier::Validate() const {
  switch (kind_) {
    case QuantKind::kNegation:
      return Status::Ok();
    case QuantKind::kNumeric:
      if (count_ == 0 && !(op_ == QuantOp::kGt)) {
        return Status::InvalidArgument(
            "numeric quantifier requires p >= 1 (use a negated edge for "
            "sigma(e) = 0)");
      }
      return Status::Ok();
    case QuantKind::kRatio:
      if (!(percent_ > 0.0) || percent_ > 100.0) {
        return Status::InvalidArgument(
            "ratio quantifier requires p in (0, 100]");
      }
      return Status::Ok();
  }
  return Status::Internal("unknown quantifier kind");
}

}  // namespace qgp
