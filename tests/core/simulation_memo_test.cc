// The CandidateCache simulation memo: quantifier variants of one
// stratified topology share one dual-simulation result at a graph
// version, anything that changes the topology or the version misses, the
// pool's eviction sweeps (stale, unused, rollback, byte budget) cover
// memo entries, and a Build through a shared pool equals a pool-less
// Build member for member through random deltas.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_space.h"
#include "gen/pattern_gen.h"
#include "gen/synthetic_gen.h"
#include "graph/graph_delta.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

// xo -follow(q)-> z -recom-> r on G1's labels.
Pattern FollowRecom(LabelDict& dict, Quantifier q) {
  Pattern p;
  PatternNodeId xo = p.AddNode(dict.Intern("person"), "xo");
  PatternNodeId z = p.AddNode(dict.Intern("person"), "z");
  PatternNodeId r = p.AddNode(dict.Intern("redmi_2a"), "r");
  (void)p.AddEdge(xo, z, dict.Intern("follow"), q);
  (void)p.AddEdge(z, r, dict.Intern("recom"));
  (void)p.set_focus(xo);
  return p;
}

// `p` with every edge's quantifier replaced by `quantifiers[e]`.
Pattern WithQuantifiers(const Pattern& p,
                        const std::vector<Quantifier>& quantifiers) {
  Pattern out;
  for (PatternNodeId u = 0; u < p.num_nodes(); ++u) {
    out.AddNode(p.node(u).label, p.node(u).name);
  }
  for (PatternEdgeId e = 0; e < p.num_edges(); ++e) {
    const PatternEdge& pe = p.edge(e);
    (void)out.AddEdge(pe.src, pe.dst, pe.label, quantifiers[e]);
  }
  (void)out.set_focus(p.focus());
  return out;
}

CandidateSpace BuildWith(const Pattern& p, const Graph& g,
                         CandidateCache* cache, ThreadPool* pool = nullptr,
                         MatchStats* stats = nullptr) {
  auto built = CandidateSpace::Build(p, g, MatchOptions{}, stats, pool, cache);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(SimulationMemoTest, QuantifierVariantsShareOneFixpoint) {
  Graph g = testing::BuildG1(nullptr);
  CandidateCache cache(g);
  const Pattern exists = FollowRecom(g.mutable_dict(), Quantifier());
  const Pattern at_least_2 =
      FollowRecom(g.mutable_dict(), Quantifier::Numeric(QuantOp::kGe, 2));
  const CandidateSpace first = BuildWith(exists, g, &cache);
  const CandidateCache::Stats before = cache.stats();
  const CandidateSpace second = BuildWith(at_least_2, g, &cache);
  const CandidateCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits - before.hits, 1u) << "one memo hit, no seed fetches";
  EXPECT_EQ(after.misses, before.misses);
  for (PatternNodeId u = 0; u < exists.num_nodes(); ++u) {
    EXPECT_EQ(first.stratified_set(u).get(), second.stratified_set(u).get())
        << "node " << u;
  }
  // The good sets still follow each variant's own quantifiers: >= 2
  // follows keeps only x2 and x3 as focus candidates.
  EXPECT_EQ(first.good(0).size(), 3u);
  EXPECT_EQ(second.good(0).size(), 2u);
}

TEST(SimulationMemoTest, OtherTopologiesMiss) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  CandidateCache cache(g);
  const Pattern base = FollowRecom(dict, Quantifier());
  (void)BuildWith(base, g, &cache);

  std::vector<Pattern> others;
  // Another node label (the product node).
  Pattern relabeled;
  relabeled.AddNode(dict.Intern("person"));
  relabeled.AddNode(dict.Intern("person"));
  relabeled.AddNode(dict.Intern("person"));
  (void)relabeled.AddEdge(0, 1, dict.Intern("follow"));
  (void)relabeled.AddEdge(1, 2, dict.Intern("recom"));
  others.push_back(relabeled);
  // Another edge label.
  Pattern other_edge;
  other_edge.AddNode(dict.Intern("person"));
  other_edge.AddNode(dict.Intern("person"));
  other_edge.AddNode(dict.Intern("redmi_2a"));
  (void)other_edge.AddEdge(0, 1, dict.Intern("follow"));
  (void)other_edge.AddEdge(1, 2, dict.Intern("bad_rating"));
  others.push_back(other_edge);
  // The same shape with its nodes numbered in another order.
  Pattern reordered;
  reordered.AddNode(dict.Intern("redmi_2a"));
  reordered.AddNode(dict.Intern("person"));
  reordered.AddNode(dict.Intern("person"));
  (void)reordered.AddEdge(1, 2, dict.Intern("follow"));
  (void)reordered.AddEdge(2, 0, dict.Intern("recom"));
  others.push_back(reordered);

  for (const Pattern& p : others) {
    std::vector<CandidateSetRef> sets;
    const uint64_t misses = cache.stats().misses;
    EXPECT_FALSE(cache.FindSimulation(p, &sets)) << p.ToString(&dict);
    EXPECT_EQ(cache.stats().misses, misses + 1);
    EXPECT_TRUE(sets.empty());
  }
  std::vector<CandidateSetRef> sets;
  EXPECT_TRUE(cache.FindSimulation(base, &sets));
  EXPECT_EQ(sets.size(), base.num_nodes());
}

TEST(SimulationMemoTest, DeltaVersionMissesAndEvictStaleDrops) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  CandidateCache cache(g);
  const Pattern p = FollowRecom(g.mutable_dict(), Quantifier());
  const CandidateSpace before = BuildWith(p, g, &cache);
  EXPECT_EQ(before.stratified(0).size(), 3u);

  EXPECT_EQ(before.stratified(1).size(), 4u);

  // v4 gains a recom edge, so it joins the followees z may match.
  GraphDelta delta;
  delta.add_edges.push_back({ids.v4, ids.redmi, g.dict().Find("recom")});
  ASSERT_TRUE(g.ApplyDelta(delta).ok());
  std::vector<CandidateSetRef> sets;
  EXPECT_FALSE(cache.FindSimulation(p, &sets)) << "stale entry served";

  const size_t entries = cache.size();
  const CandidateCache::StaleEvicted stale = cache.EvictStale();
  EXPECT_EQ(stale.sets, entries) << "every entry predates the delta";
  EXPECT_EQ(stale.results, 0u);
  EXPECT_EQ(cache.size(), 0u);

  const CandidateSpace after = BuildWith(p, g, &cache);
  const CandidateSpace fresh = BuildWith(p, g, nullptr);
  EXPECT_EQ(after.stratified(1).size(), 5u);
  for (PatternNodeId u = 0; u < p.num_nodes(); ++u) {
    EXPECT_TRUE(std::ranges::equal(after.stratified(u), fresh.stratified(u)));
  }
  EXPECT_TRUE(cache.FindSimulation(p, &sets));
}

TEST(SimulationMemoTest, EvictUnusedKeepsReferencedEntries) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  CandidateCache cache(g);
  const Pattern held_pattern = FollowRecom(dict, Quantifier());
  Pattern dropped_pattern;
  dropped_pattern.AddNode(dict.Intern("person"));
  dropped_pattern.AddNode(dict.Intern("person"));
  (void)dropped_pattern.AddEdge(0, 1, dict.Intern("follow"));

  const CandidateSpace held = BuildWith(held_pattern, g, &cache);
  (void)BuildWith(dropped_pattern, g, &cache);
  // Left: two memo entries plus the seeds' label/degree entries, of
  // which only the held space's memo entry is referenced.
  const size_t entries = cache.size();
  EXPECT_EQ(cache.EvictUnused(), entries - 1);
  EXPECT_EQ(cache.size(), 1u);

  std::vector<CandidateSetRef> sets;
  EXPECT_FALSE(cache.FindSimulation(dropped_pattern, &sets));
  ASSERT_TRUE(cache.FindSimulation(held_pattern, &sets));
  for (PatternNodeId u = 0; u < held_pattern.num_nodes(); ++u) {
    EXPECT_EQ(sets[u].get(), held.stratified_set(u).get());
  }
}

// A memo entry some live space references outlives any byte budget,
// one byte included; the seeds' label/degree sets nobody holds do not.
TEST(SimulationMemoTest, ReferencedEntriesSurviveAOneByteBudget) {
  Graph g = testing::BuildG1(nullptr);
  CandidateCache cache(g, /*budget_bytes=*/1);
  const Pattern p = FollowRecom(g.mutable_dict(), Quantifier());
  {
    const CandidateSpace held = BuildWith(p, g, &cache);
    EXPECT_EQ(cache.EvictToBudget(), 0u) << "the seeds went on admission";
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GT(cache.bytes(), 1u);
    std::vector<CandidateSetRef> sets;
    ASSERT_TRUE(cache.FindSimulation(p, &sets));
    for (PatternNodeId u = 0; u < p.num_nodes(); ++u) {
      EXPECT_EQ(sets[u].get(), held.stratified_set(u).get());
    }
  }
  EXPECT_EQ(cache.EvictToBudget(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(SimulationMemoTest, EvictInsertedSinceRollsAnEntryBack) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  CandidateCache cache(g);
  const Pattern earlier = FollowRecom(dict, Quantifier());
  (void)BuildWith(earlier, g, &cache);
  const size_t entries = cache.size();
  const uint64_t mark = cache.MarkEpoch();

  Pattern later;
  later.AddNode(dict.Intern("person"));
  later.AddNode(dict.Intern("redmi_2a"));
  (void)later.AddEdge(0, 1, dict.Intern("recom"));
  {
    const CandidateSpace live = BuildWith(later, g, &cache);
    ASSERT_GT(cache.size(), entries);
    // Still referenced: the rollback leaves the memo entry alone.
    const size_t rolled = cache.EvictInsertedSince(mark);
    EXPECT_EQ(cache.size(), entries + 1);
    EXPECT_GT(rolled, 0u) << "the unreferenced seed entry goes";
  }
  EXPECT_EQ(cache.EvictInsertedSince(mark), 1u);
  EXPECT_EQ(cache.size(), entries) << "entries before the mark survive";
  std::vector<CandidateSetRef> sets;
  EXPECT_FALSE(cache.FindSimulation(later, &sets));
  EXPECT_TRUE(cache.FindSimulation(earlier, &sets));
}

// The randomized differential: gen/ graphs, generated patterns and
// random quantifier variants of each, through random deltas. Every
// Build through the shared pool must equal a pool-less Build, member
// for member and in its pruning stats, while the pool keeps entries
// across variants and (until swept) across versions.
TEST(SimulationMemoTest, SharedPoolBuildEqualsPoolLessBuild) {
  ThreadPool pool(2);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SyntheticConfig config;
    config.num_vertices = 90;
    config.num_edges = 260;
    config.num_node_labels = 3;
    config.num_edge_labels = 3;
    config.seed = seed;
    Graph g = GenerateSynthetic(config).value();

    PatternGenConfig pconfig;
    pconfig.num_nodes = 4;
    pconfig.num_edges = 5;
    pconfig.num_quantified = 2;
    pconfig.num_negated = 0;
    std::mt19937 rng(static_cast<uint32_t>(seed));
    const std::vector<Quantifier> menu = {
        Quantifier(), Quantifier::Numeric(QuantOp::kGe, 2),
        Quantifier::Numeric(QuantOp::kGe, 3),
        Quantifier::Ratio(QuantOp::kGe, 50.0), Quantifier::Universal()};
    std::vector<Pattern> variants;
    for (const Pattern& base : GeneratePatternSuite(g, 4, pconfig, seed)) {
      if (!base.IsPositive()) continue;
      for (int v = 0; v < 3; ++v) {
        std::vector<Quantifier> qs(base.num_edges());
        for (Quantifier& q : qs) q = menu[rng() % menu.size()];
        variants.push_back(WithQuantifiers(base, qs));
      }
    }
    ASSERT_FALSE(variants.empty());

    CandidateCache cache(g);
    uint64_t hits_seen = 0;
    size_t members_seen = 0;
    for (int round = 0; round < 6; ++round) {
      for (size_t i = 0; i < variants.size(); ++i) {
        const Pattern& p = variants[i];
        MatchStats shared_stats, plain_stats;
        const uint64_t hits = cache.stats().hits;
        const CandidateSpace shared =
            BuildWith(p, g, &cache, i % 2 == 0 ? &pool : nullptr,
                      &shared_stats);
        hits_seen += cache.stats().hits - hits;
        const CandidateSpace plain =
            BuildWith(p, g, nullptr, nullptr, &plain_stats);
        for (PatternNodeId u = 0; u < p.num_nodes(); ++u) {
          members_seen += shared.stratified(u).size();
          EXPECT_TRUE(std::ranges::equal(shared.stratified(u),
                                         plain.stratified(u)))
              << "seed " << seed << " round " << round << " node " << u;
          EXPECT_TRUE(std::ranges::equal(shared.good(u), plain.good(u)))
              << "seed " << seed << " round " << round << " node " << u;
        }
        EXPECT_EQ(shared_stats.candidates_initial,
                  plain_stats.candidates_initial);
        EXPECT_EQ(shared_stats.candidates_pruned,
                  plain_stats.candidates_pruned);
      }
      // Random edge churn; half the rounds leave the stale entries in the
      // pool so the version stamp alone must keep them from being served.
      GraphDelta delta;
      for (int k = 0; k < 6; ++k) {
        const VertexId a = rng() % g.num_vertices();
        const VertexId b = rng() % g.num_vertices();
        const Label l = g.dict().Find("el" + std::to_string(rng() % 3));
        if (rng() % 3 == 0) {
          auto out = g.OutNeighbors(a);
          if (!out.empty()) {
            const Neighbor& n = out[rng() % out.size()];
            delta.remove_edges.push_back({a, n.v, n.label});
          }
        } else {
          delta.add_edges.push_back({a, b, l});
        }
      }
      // One round also grows the vertex universe under the memo.
      if (round == 2) delta.add_vertices.push_back(g.dict().Find("nl0"));
      ASSERT_TRUE(g.ApplyDelta(delta).ok());
      if (round % 2 == 0) cache.EvictStale();
      if (round == 3) cache.EvictUnused();
    }
    EXPECT_GT(hits_seen, 0u) << "variants never shared a fixpoint";
    EXPECT_GT(members_seen, 0u) << "every fixpoint was empty";
  }
}

}  // namespace
}  // namespace qgp
