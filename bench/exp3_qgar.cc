// Exp-3: effectiveness of QGARs. Mines quantified association rules on
// the Pokec and YAGO2 substitutes (the paper's R5-R7 exemplars), reports
// support/confidence, and shows a hand-written R7-style rule with a
// multi-edge consequent that plain GPARs cannot express.
#include "bench/common/bench_common.h"
#include "core/pattern_parser.h"
#include "qgar/gar_match.h"
#include "qgar/miner.h"

namespace qgp::bench {
namespace {

void MineAndReport(const char* name, const Graph& g, double eta,
                   BenchReporter& reporter) {
  PrintGraphLine(name, g);
  MinerConfig mc;
  mc.min_confidence = eta;
  mc.min_support = 20;
  mc.max_rules = 3;
  mc.max_evaluations = 40;
  double seconds = 0;
  Result<std::vector<MinedRule>> rules = Status::Ok();
  seconds = TimeSeconds([&] { rules = MineQgars(g, mc); });
  if (!rules.ok()) {
    std::printf("  mining failed: %s\n", rules.status().ToString().c_str());
    return;
  }
  std::printf("  mined %zu rules in %.2fs (eta=%.2f):\n", rules->size(),
              seconds, eta);
  reporter.Add(std::string(name) + "/mining", seconds * 1e3,
               {{"rules", static_cast<double>(rules->size())},
                {"eta", eta}});
  for (const MinedRule& r : *rules) {
    PatternSize a = ComputePatternSize(r.rule.antecedent);
    PatternSize c = ComputePatternSize(r.rule.consequent);
    std::printf("   - %-10s |Q1|=%s |Q2|=%s support=%-6zu conf=%.3f\n",
                r.rule.name.c_str(), a.ToString().c_str(),
                c.ToString().c_str(), r.support, r.confidence);
  }

  // The same mining run under algo = auto: the engine resolves every
  // rule evaluation, and must mine the exact same rules.
  MinerConfig ac = mc;
  ac.algo = EngineAlgo::kAuto;
  Result<std::vector<MinedRule>> auto_rules = Status::Ok();
  double auto_seconds = TimeSeconds([&] { auto_rules = MineQgars(g, ac); });
  if (!auto_rules.ok()) {
    std::printf("FATAL: auto mining failed: %s\n",
                auto_rules.status().ToString().c_str());
    std::exit(1);
  }
  if (auto_rules->size() != rules->size()) {
    std::printf("FATAL: auto mining found %zu rules, manual found %zu\n",
                auto_rules->size(), rules->size());
    std::exit(1);
  }
  for (size_t i = 0; i < rules->size(); ++i) {
    const MinedRule& manual = (*rules)[i];
    const MinedRule& automatic = (*auto_rules)[i];
    if (manual.rule.name != automatic.rule.name ||
        manual.support != automatic.support ||
        manual.confidence != automatic.confidence) {
      std::printf("FATAL: auto-mined rule %zu differs from manual\n", i);
      std::exit(1);
    }
  }
  std::printf("  auto mining: identical rules in %.2fs\n", auto_seconds);
  reporter.Add(std::string(name) + "/mining_auto", auto_seconds * 1e3,
               {{"rules", static_cast<double>(auto_rules->size())}});
}

}  // namespace
}  // namespace qgp::bench

int main() {
  using namespace qgp::bench;
  PrintHeader("Exp-3: QGAR effectiveness (paper's R5-R7)",
              "mined rules + hand-written multi-edge-consequent rule",
              "QGARs capture behaviour conventional rules/GPARs cannot");
  BenchReporter reporter("exp3_qgar");
  qgp::Graph pokec = MakePokecLike(3000);
  MineAndReport("pokec-like", pokec, 0.5, reporter);
  qgp::Graph yago = MakeYagoLike(6000);
  MineAndReport("yago2-like", yago, 0.5, reporter);

  // R7-style: prize-winning professors who graduated students tend to
  // have advised a prize winner too — consequent with TWO edges, which
  // GPARs (single-edge consequents) cannot express.
  qgp::Qgar r7;
  r7.name = "R7-style";
  auto q1 = qgp::PatternParser::Parse(R"(
      node xo scientist
      node pr prize
      node z  scientist
      edge xo pr won
      edge xo z  advisor >=2
      focus xo
  )", yago.mutable_dict());
  auto q2 = qgp::PatternParser::Parse(R"(
      node xo scientist
      node s  scientist
      node u  university
      edge xo s advisor
      edge s  u graduated_from
      focus xo
  )", yago.mutable_dict());
  if (q1.ok() && q2.ok()) {
    r7.antecedent = std::move(q1).value();
    r7.consequent = std::move(q2).value();
    double r7_seconds = 0;
    qgp::Result<qgp::GarMatchResult> res = qgp::Status::Ok();
    r7_seconds = TimeSeconds([&] { res = qgp::GarMatch(r7, yago, 0.5); });
    if (res.ok()) {
      std::printf("\nhand-written %s (multi-edge consequent):\n",
                  r7.name.c_str());
      std::printf("  support=%zu confidence=%.3f identified=%zu\n",
                  res->support, res->confidence, res->entities.size());
      reporter.Add("yago2-like/R7-style", r7_seconds * 1e3,
                   {{"support", static_cast<double>(res->support)},
                    {"confidence", res->confidence}});
    }
  }
  return 0;
}
