#ifndef QGP_CORE_QUANTIFIER_H_
#define QGP_CORE_QUANTIFIER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace qgp {

/// Comparison operator of a counting quantifier. `>` is normalized to
/// `>= p+1` by the matchers (§4.1), but is preserved syntactically.
enum class QuantOp { kGe, kEq, kGt };

/// The three syntactic forms of f(e) (§2.2): numeric `σ(e) ⊙ p`, ratio
/// `σ(e) ⊙ p%`, and the negated edge `σ(e) = 0`.
enum class QuantKind { kNumeric, kRatio, kNegation };

/// A counting quantifier attached to one pattern edge.
///
/// Semantics at a match h0 with focus image vx, edge e = (u,u'), v = h0(u):
///  - numeric:  |Me(vx, v, Q)| ⊙ p
///  - ratio:    |Me(vx, v, Q)| / |Me(v)| ⊙ p%
///  - negation: |Me(vx, v, Q)| = 0  (handled via Π(Q) / Q⁺ᵉ set difference)
///
/// The default-constructed quantifier is existential (`>= 1`), matching the
/// paper's convention that unannotated edges mean σ(e) ≥ 1.
class Quantifier {
 public:
  /// Existential quantification: σ(e) >= 1.
  Quantifier() : kind_(QuantKind::kNumeric), op_(QuantOp::kGe), count_(1) {}

  /// σ(e) ⊙ p for a positive integer p.
  static Quantifier Numeric(QuantOp op, uint32_t p) {
    Quantifier q;
    q.kind_ = QuantKind::kNumeric;
    q.op_ = op;
    q.count_ = p;
    return q;
  }

  /// σ(e) ⊙ p% for p in (0, 100].
  static Quantifier Ratio(QuantOp op, double percent) {
    Quantifier q;
    q.kind_ = QuantKind::kRatio;
    q.op_ = op;
    q.percent_ = percent;
    return q;
  }

  /// Negated edge: σ(e) = 0.
  static Quantifier Negation() {
    Quantifier q;
    q.kind_ = QuantKind::kNegation;
    q.op_ = QuantOp::kEq;
    q.count_ = 0;
    return q;
  }

  /// Universal quantification sugar: σ(e) = 100%.
  static Quantifier Universal() { return Ratio(QuantOp::kEq, 100.0); }

  QuantKind kind() const { return kind_; }
  QuantOp op() const { return op_; }

  /// Numeric threshold p. Valid when kind() == kNumeric.
  uint32_t count() const { return count_; }

  /// Ratio threshold p (percent). Valid when kind() == kRatio.
  double percent() const { return percent_; }

  /// True for the default σ(e) >= 1.
  bool IsExistential() const {
    return kind_ == QuantKind::kNumeric && op_ == QuantOp::kGe && count_ == 1;
  }

  /// True for σ(e) = 0.
  bool IsNegation() const { return kind_ == QuantKind::kNegation; }

  /// Evaluates the quantifier given the realized child count and, for
  /// ratios, the denominator |Me(v)|. A ratio with total == 0 is false
  /// (it cannot arise at a real match: an isomorphism forces >= 1 child).
  bool Eval(uint64_t matched, uint64_t total) const;

  /// Smallest child count that could still satisfy the quantifier at a
  /// vertex whose |Me(v)| equals `total`; nullopt when no count does
  /// (e.g. `= 40%` of 3 children, a ratio over 0 children, or negation).
  /// Derived from Eval, so for every count c: `>=`/`>` give
  /// Eval(c, total) ⇔ c >= result, and `=` gives Eval(c, total) ⇔
  /// c == result. Used by the upper-bound pruning rules (§4.1 /
  /// Appendix B). Note §4.1's ⌊·⌋ is corrected to a ceiling for `>=` —
  /// see deviation 1 in docs/ARCHITECTURE.md.
  std::optional<uint64_t> MinCountNeeded(uint64_t total) const;

  /// For `>=`-style quantifiers, the count at which further counting can
  /// stop early (monotone satisfaction); nullopt when exact counting is
  /// required (`=` forms need the exact count).
  std::optional<uint64_t> EarlyStopCount(uint64_t total) const;

  /// Syntax used by the parser/printer: ">=3", "=0", ">=80%", "=100%".
  std::string ToString() const;

  /// Structural validity: ratio in (0,100], numeric p >= 1 (p = 0 only as
  /// negation), `>` not combined with negation.
  Status Validate() const;

  friend bool operator==(const Quantifier& a, const Quantifier& b) {
    if (a.kind_ != b.kind_ || a.op_ != b.op_) return false;
    if (a.kind_ == QuantKind::kRatio) return a.percent_ == b.percent_;
    return a.count_ == b.count_;
  }

 private:
  QuantKind kind_;
  QuantOp op_;
  uint32_t count_ = 0;    // numeric p (also 0 for negation)
  double percent_ = 0.0;  // ratio p
};

}  // namespace qgp

#endif  // QGP_CORE_QUANTIFIER_H_
