#ifndef QGP_QGAR_MINER_H_
#define QGP_QGAR_MINER_H_

#include <vector>

#include "common/result.h"
#include "core/match_types.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "qgar/qgar.h"

namespace qgp {

/// Configuration for the Exp-3 style QGAR miner.
struct MinerConfig {
  double min_confidence = 0.5;  // η
  size_t min_support = 10;
  size_t max_rules = 8;
  /// Frequent features considered as antecedent/consequent building
  /// blocks.
  size_t top_features = 20;
  size_t path_samples = 20000;
  /// Quantifier enlargement: starting ratio and step (Exp-3 enlarges pa
  /// by 10% while confidence stays above η).
  double start_percent = 30.0;
  double quantifier_step = 10.0;
  /// Maximum consequent size (R3/R7-style multi-edge consequents).
  size_t max_consequent_edges = 2;
  /// Budget on rule evaluations (each costs two QMatch runs).
  size_t max_evaluations = 60;
  MatchOptions match;
  uint64_t seed = 17;
  /// Worker threads of the QueryEngine the miner evaluates through
  /// (0 = hardware concurrency). Mined rules are identical at any
  /// setting — evaluation is deterministic across thread counts.
  size_t threads = 0;
  /// Matcher every rule evaluation runs as. kAuto lets the engine
  /// choose, per evaluation. Mined rules are identical for any choice.
  EngineAlgo algo = EngineAlgo::kQMatch;
};

/// A mined rule with its measured interestingness.
struct MinedRule {
  Qgar rule;
  size_t support = 0;
  double confidence = 0.0;
};

/// Mines QGARs following §7 Exp-3's recipe: seed GPAR-like rules from
/// frequent features (single-edge consequents, path antecedents), keep
/// those meeting the support/confidence thresholds, then (a) enlarge
/// positive quantifiers stepwise while confidence stays above η and
/// (b) extend consequents with further frequent edges. Returns rules
/// sorted by support (desc), then confidence.
Result<std::vector<MinedRule>> MineQgars(const Graph& g,
                                         const MinerConfig& config);

}  // namespace qgp

#endif  // QGP_QGAR_MINER_H_
