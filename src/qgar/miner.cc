#include "qgar/miner.h"

#include <algorithm>
#include <map>

#include "engine/query_engine.h"
#include "gen/frequent_features.h"
#include "qgar/gar_match.h"

namespace qgp {

namespace {

// Antecedent from a 2-path feature xo -e0-> z -e1-> y: the quantifier
// sits on (xo, z), reading "at least p% of xo's e0-children reach a y".
Pattern PathAntecedent(const PathFeature& path, double percent) {
  Pattern q;
  PatternNodeId xo = q.AddNode(path.node_labels[0], "xo");
  PatternNodeId z = q.AddNode(path.node_labels[1], "z");
  (void)q.AddEdge(xo, z, path.edge_labels[0],
                  Quantifier::Ratio(QuantOp::kGe, percent));
  if (path.node_labels.size() > 2) {
    PatternNodeId y = q.AddNode(path.node_labels[2], "y");
    (void)q.AddEdge(z, y, path.edge_labels[1]);
  }
  (void)q.set_focus(xo);
  return q;
}

// Single-edge consequent xo -e-> w (GPAR-style).
Pattern EdgeConsequent(Label focus_label, const EdgeFeature& f,
                       size_t name_suffix) {
  Pattern q;
  PatternNodeId xo = q.AddNode(focus_label, "xo");
  PatternNodeId w =
      q.AddNode(f.dst_label, "w" + std::to_string(name_suffix));
  (void)q.AddEdge(xo, w, f.edge_label);
  (void)q.set_focus(xo);
  return q;
}

// Replaces the ratio on the antecedent's focus edge (index 0) with a new
// percent, used by the enlargement loop.
Pattern WithPercent(const Pattern& antecedent, double percent) {
  Pattern q;
  for (PatternNodeId u = 0; u < antecedent.num_nodes(); ++u) {
    q.AddNode(antecedent.node(u).label, antecedent.node(u).name);
  }
  for (PatternEdgeId e = 0; e < antecedent.num_edges(); ++e) {
    const PatternEdge& pe = antecedent.edge(e);
    Quantifier quant = pe.quantifier;
    if (!quant.IsExistential() && quant.kind() == QuantKind::kRatio) {
      quant = Quantifier::Ratio(quant.op(), percent);
    }
    (void)q.AddEdge(pe.src, pe.dst, pe.label, quant);
  }
  (void)q.set_focus(antecedent.focus());
  return q;
}

}  // namespace

Result<std::vector<MinedRule>> MineQgars(const Graph& g,
                                         const MinerConfig& config) {
  std::vector<EdgeFeature> edge_features =
      MineEdgeFeatures(g, config.top_features);
  std::vector<PathFeature> path_features = MinePathFeatures(
      g, 2, config.top_features, config.path_samples, config.seed);
  if (edge_features.empty()) {
    return Status::NotFound("graph has no edges to mine");
  }

  // One engine for the whole mining run: every candidate rule reuses the
  // same interned label/degree candidate sets and worker pool instead of
  // rebuilding them twice per GarMatch. Rules share most of their
  // structure (the same path antecedents under different quantifiers,
  // the same single-edge consequents), so the cache hit ratio is high.
  EngineOptions engine_options;
  engine_options.num_threads = config.threads;
  QueryEngine engine(&g, engine_options);
  size_t evaluations = 0;
  auto evaluate = [&](const Qgar& rule) -> Result<GarMatchResult> {
    ++evaluations;
    return GarMatch(rule, engine, /*eta=*/0.0, config.match, nullptr,
                    config.algo);
  };

  std::vector<MinedRule> mined;
  size_t rule_counter = 0;
  for (const PathFeature& path : path_features) {
    if (evaluations >= config.max_evaluations) break;
    if (path.node_labels.size() < 3) continue;
    const Label focus_label = path.node_labels[0];
    Pattern q1 = PathAntecedent(path, config.start_percent);

    for (const EdgeFeature& f : edge_features) {
      if (evaluations >= config.max_evaluations) break;
      if (f.src_label != focus_label) continue;
      // Avoid trivially-overlapping rules: skip consequents whose edge
      // label already appears on the antecedent's focus edges.
      if (f.edge_label == path.edge_labels[0]) continue;
      Qgar rule;
      rule.antecedent = q1;
      rule.consequent = EdgeConsequent(focus_label, f, 0);
      rule.name = "mined_" + std::to_string(rule_counter++);
      if (!rule.Validate(config.match.max_quantified_per_path).ok()) continue;

      Result<GarMatchResult> res = evaluate(rule);
      if (!res.ok()) continue;
      if (res->support < config.min_support ||
          res->confidence < config.min_confidence) {
        continue;
      }
      MinedRule best{rule, res->support, res->confidence};

      // (a) Enlarge the quantifier while confidence stays above η.
      for (double p = config.start_percent + config.quantifier_step;
           p <= 100.0 && evaluations < config.max_evaluations;
           p += config.quantifier_step) {
        Qgar enlarged = best.rule;
        enlarged.antecedent = WithPercent(rule.antecedent, p);
        Result<GarMatchResult> r2 = evaluate(enlarged);
        if (!r2.ok() || r2->confidence < config.min_confidence ||
            r2->support < config.min_support) {
          break;
        }
        best = MinedRule{enlarged, r2->support, r2->confidence};
      }

      // (b) Extend the consequent with one more frequent edge.
      if (config.max_consequent_edges > 1 &&
          evaluations < config.max_evaluations) {
        for (const EdgeFeature& f2 : edge_features) {
          if (evaluations >= config.max_evaluations) break;
          if (f2.src_label != focus_label) continue;
          if (f2.edge_label == f.edge_label ||
              f2.edge_label == path.edge_labels[0]) {
            continue;
          }
          Qgar extended = best.rule;
          PatternNodeId w2 = extended.consequent.AddNode(f2.dst_label, "w1");
          (void)extended.consequent.AddEdge(extended.consequent.focus(), w2,
                                            f2.edge_label);
          Result<GarMatchResult> r3 = evaluate(extended);
          if (r3.ok() && r3->confidence >= config.min_confidence &&
              r3->support >= config.min_support) {
            best = MinedRule{extended, r3->support, r3->confidence};
          }
          break;  // one extension attempt per rule keeps the budget sane
        }
      }
      mined.push_back(std::move(best));
    }
  }

  std::sort(mined.begin(), mined.end(),
            [](const MinedRule& a, const MinedRule& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.confidence > b.confidence;
            });
  if (mined.size() > config.max_rules) mined.resize(config.max_rules);
  return mined;
}

}  // namespace qgp
