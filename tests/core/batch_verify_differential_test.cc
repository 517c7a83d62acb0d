// Differential suite for batched focus verification: verifying foci in
// batches of up to 64 that share one multi-source ball BFS must be
// indistinguishable from verifying each focus on its own ball — same
// answers, same per-focus artifacts (the FocusCaches IncQMatch reuses)
// and the same value of every MatchStats counter except the scheduler
// telemetry. The reference is PositiveEvaluator::VerifyFocus, a batch of
// one, whose ball BFS has a single source.
//
// Covered: the focus map (PositiveEvaluator::EvaluateSubset, the one
// every served query runs) at pool widths 1/2/4 and without a pool, on
// batch boundaries (1, 63, 64, 65, 129 foci), foci outside good(focus)
// mixed into a batch, a hub whose ball passes ball_limit batched with
// ordinary foci, radius 1 to 3; QMatch end to end on negated patterns
// (Π(Q), then Π(Q⁺ᵉ) seeded from Π(Q)'s caches) at pool sizes 1/2/4/8;
// and cancellation inside a batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/dmatch.h"
#include "core/pattern_parser.h"
#include "core/qmatch.h"
#include "graph/graph_builder.h"

namespace qgp {
namespace {

constexpr VertexId kHub = 0;

// Random graph over node labels p/q and edge labels e0..e3, with one hub
// (vertex 0) wired to a third of the graph.
Graph MakeGraph(uint64_t seed, size_t n = 800) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  GraphBuilder builder;
  for (size_t i = 0; i < n; ++i) builder.AddVertex(i % 3 == 2 ? "q" : "p");
  const char* labels[] = {"e0", "e1", "e2", "e3"};
  for (const char* l : labels) builder.InternLabel(l);
  for (size_t e = 0; e < n * 8; ++e) {
    (void)builder.AddEdge(static_cast<VertexId>(rng() % n),
                          static_cast<VertexId>(rng() % n), labels[rng() % 4]);
  }
  for (size_t i = 0; i < n / 3; ++i) {
    (void)builder.AddEdge(kHub, static_cast<VertexId>(1 + rng() % (n - 1)),
                          labels[i % 4]);
  }
  return std::move(builder).Build().value();
}

struct Case {
  std::string name;
  std::string text;
  int radius;
};

// Positive patterns of radius 1, 2 and 3 (counting, ratio, existential).
std::vector<Case> PositiveCases() {
  return {
      {"r1_count", "node x p\nnode y p\nedge x y e0 >=2\nfocus x\n", 1},
      {"r1_ratio",
       "node x p\nnode y q\nnode z p\nedge x y e1 >=30%\nedge x z e0\n"
       "focus x\n",
       1},
      {"r2_path",
       "node x p\nnode y p\nnode z q\nedge x y e0 >=2\nedge y z e2\n"
       "focus x\n",
       2},
      {"r3_path",
       "node x p\nnode y p\nnode z p\nnode w q\nedge x y e0 >=2\n"
       "edge y z e3 >=50%\nedge z w e2\nfocus x\n",
       3},
  };
}

// Patterns with a negated edge: QMatch evaluates Π(Q) cold, then each
// Π(Q⁺ᵉ) on the warm caches of Π(Q)'s answers.
std::vector<Case> NegatedCases() {
  return {
      {"neg_r1",
       "node x p\nnode y p\nnode z q\nedge x y e0 >=2\nedge x z e1 =0\n"
       "focus x\n",
       1},
      {"neg_r2",
       "node x p\nnode y p\nnode z q\nnode w p\nedge x y e0 >=2\n"
       "edge y z e2\nedge x w e3 =0\nfocus x\n",
       2},
  };
}

Pattern Parse(const std::string& text, Graph& g) {
  auto q = PatternParser::Parse(text, g.mutable_dict());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

struct Outcome {
  AnswerSet answers;
  MatchStats stats;
  std::unordered_map<VertexId, FocusCache> caches;
};

// The reference: one batch of one per focus.
Outcome PerFocus(const PositiveEvaluator& ev,
                 std::span<const VertexId> subset) {
  Outcome o;
  for (VertexId vx : subset) {
    FocusCache cache;
    if (ev.VerifyFocus(vx, nullptr, &cache, &o.stats)) {
      o.answers.push_back(vx);
      o.caches.emplace(vx, std::move(cache));
    }
  }
  Canonicalize(o.answers);
  return o;
}

Outcome Batched(const PositiveEvaluator& ev,
                std::span<const VertexId> subset, ThreadPool* pool) {
  Outcome o;
  o.answers = ev.EvaluateSubset(subset, nullptr, &o.caches, &o.stats, pool);
  return o;
}

// No pool, then pools 1, 2 and 4 wide.
std::vector<std::unique_ptr<ThreadPool>> FocusMapPools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t t : {1, 2, 4}) pools.push_back(std::make_unique<ThreadPool>(t));
  return pools;
}

std::string PoolName(const ThreadPool* pool) {
  return pool == nullptr ? std::string("serial")
                         : std::to_string(pool->width()) + " wide";
}

// QMatch's negation pipeline, per focus: Π(Q) cold, then every Π(Q⁺ᵉ)
// seeded from Π(Q)'s caches: the steps QMatch::EvaluateSubset takes.
Outcome PerFocusQMatch(const Pattern& q, const Graph& g,
                       std::span<const VertexId> subset,
                       const MatchOptions& options) {
  Outcome o;
  auto pi = q.Pi();
  EXPECT_TRUE(pi.ok());
  MatchStats pi_build;  // QMatch counts its candidate-space builds too
  auto ev0 = PositiveEvaluator::Create(
      std::move(pi.value().first), g, options,
      &pi.value().second.edge_to_original, q.num_edges(), nullptr, nullptr,
      nullptr, &pi_build);
  EXPECT_TRUE(ev0.ok()) << ev0.status().ToString();
  const std::vector<PatternEdgeId> negated = q.NegatedEdgeIds();
  Outcome pi_run = PerFocus(*ev0, subset.empty() ? ev0->FocusCandidates()
                                                 : subset);
  o.answers = pi_run.answers;
  o.stats = pi_run.stats;
  o.stats.Add(pi_build);
  for (PatternEdgeId e : negated) {
    if (o.answers.empty()) break;
    auto positified = q.Positify(e);
    EXPECT_TRUE(positified.ok());
    auto pi_pos = positified->Pi();
    EXPECT_TRUE(pi_pos.ok());
    auto ev_e = PositiveEvaluator::Create(
        std::move(pi_pos.value().first), g, options,
        &pi_pos.value().second.edge_to_original, q.num_edges(), nullptr,
        nullptr, nullptr, &o.stats);
    EXPECT_TRUE(ev_e.ok()) << ev_e.status().ToString();
    o.stats.inc_candidates_checked += o.answers.size();
    AnswerSet negative;
    for (VertexId vx : o.answers) {
      if (ev_e->VerifyFocus(vx, &pi_run.caches, nullptr, &o.stats)) {
        negative.push_back(vx);
      }
    }
    Canonicalize(negative);
    o.answers = SetDifference(o.answers, negative);
  }
  return o;
}

void ExpectSameWork(const MatchStats& a, const MatchStats& b) {
  EXPECT_EQ(a.isomorphisms_enumerated, b.isomorphisms_enumerated);
  EXPECT_EQ(a.witness_searches, b.witness_searches);
  EXPECT_EQ(a.search_extensions, b.search_extensions);
  EXPECT_EQ(a.candidates_initial, b.candidates_initial);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.focus_candidates_checked, b.focus_candidates_checked);
  EXPECT_EQ(a.inc_candidates_checked, b.inc_candidates_checked);
  EXPECT_EQ(a.balls_built, b.balls_built);
}

void ExpectSameCaches(const std::unordered_map<VertexId, FocusCache>& a,
                      const std::unordered_map<VertexId, FocusCache>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [vx, ca] : a) {
    auto it = b.find(vx);
    ASSERT_NE(it, b.end()) << "focus " << vx;
    EXPECT_EQ(ca.failed_by_original_edge, it->second.failed_by_original_edge)
        << "focus " << vx;
  }
}

// Good foci interleaved with vertices outside good(focus) (every third
// slot) and the hub first, so every batch mixes all three kinds.
std::vector<VertexId> MixedFoci(const PositiveEvaluator& ev, const Graph& g) {
  std::vector<VertexId> mixed{kHub};
  const std::span<const VertexId> good = ev.FocusCandidates();
  size_t gi = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (v % 3 == 0 || gi >= good.size()) {
      mixed.push_back(v);
    } else {
      mixed.push_back(good[gi++]);
    }
  }
  return mixed;
}

// Size of v's `radius`-hop ball over `filter`'s edge labels (labels past
// the filter's end are traversed), by a plain breadth-first search.
size_t BallSize(const Graph& g, VertexId v, int radius,
                const DynamicBitset& filter) {
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> frontier{v};
  seen[v] = 1;
  size_t size = 1;
  for (int hop = 0; hop < radius; ++hop) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (auto nbrs : {g.OutNeighbors(u), g.InNeighbors(u)}) {
        for (const Neighbor& nb : nbrs) {
          if (nb.label < filter.size() && !filter.Test(nb.label)) continue;
          if (seen[nb.v] == 0) {
            seen[nb.v] = 1;
            next.push_back(nb.v);
          }
        }
      }
    }
    size += next.size();
    frontier = std::move(next);
  }
  return size;
}

DynamicBitset EdgeLabels(const Pattern& q, const Graph& g) {
  DynamicBitset labels(g.dict().size());
  for (PatternEdgeId e = 0; e < q.num_edges(); ++e) {
    labels.Set(q.edge(e).label);
  }
  return labels;
}

// Options whose ball_limit is the largest ball of any good Π(Q) focus
// other than the hub: every ordinary ball stays complete, and the hub's
// ball, when bigger, trips the guard inside the same batch.
MatchOptions HubGuarded(const Pattern& q, const Graph& g,
                        const DynamicBitset& filter) {
  MatchOptions options;
  auto pi = q.Pi();
  EXPECT_TRUE(pi.ok());
  auto ev = PositiveEvaluator::Create(std::move(pi.value().first), g, options);
  EXPECT_TRUE(ev.ok()) << ev.status().ToString();
  const int radius = q.Radius();
  size_t limit = 1;
  for (VertexId v : ev->FocusCandidates()) {
    if (v != kHub) limit = std::max(limit, BallSize(g, v, radius, filter));
  }
  options.ball_limit = limit;
  return options;
}

TEST(BatchVerifyDifferentialTest, BatchBoundariesAndMixedFoci) {
  Graph g = MakeGraph(5);
  const std::vector<std::unique_ptr<ThreadPool>> pools = FocusMapPools();
  size_t hub_guarded = 0;
  for (const Case& c : PositiveCases()) {
    SCOPED_TRACE(c.name);
    Pattern q = Parse(c.text, g);
    const DynamicBitset labels = EdgeLabels(q, g);
    const MatchOptions options = HubGuarded(q, g, labels);
    auto ev = PositiveEvaluator::Create(q, g, options);
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    ASSERT_EQ(ev->radius(), c.radius);
    const std::vector<VertexId> mixed = MixedFoci(*ev, g);
    for (size_t k : {1, 63, 64, 65, 129}) {
      SCOPED_TRACE("subset of " + std::to_string(k));
      ASSERT_GE(mixed.size(), k);
      const std::span<const VertexId> subset(mixed.data(), k);
      const Outcome ref = PerFocus(*ev, subset);
      for (const auto& pool : pools) {
        SCOPED_TRACE(PoolName(pool.get()));
        const Outcome got = Batched(*ev, subset, pool.get());
        EXPECT_EQ(got.answers, ref.answers);
        ExpectSameWork(got.stats, ref.stats);
        ExpectSameCaches(got.caches, ref.caches);
      }
    }
    // All good foci at once, as the cold focus map runs them.
    const Outcome ref = PerFocus(*ev, ev->FocusCandidates());
    for (const auto& pool : pools) {
      SCOPED_TRACE(PoolName(pool.get()));
      const Outcome got = Batched(*ev, ev->FocusCandidates(), pool.get());
      EXPECT_EQ(got.answers, ref.answers);
      ExpectSameWork(got.stats, ref.stats);
      ExpectSameCaches(got.caches, ref.caches);
    }
    EXPECT_GT(ref.stats.balls_built, 64u) << "need more than one batch";
    // Preconditions: the hub is a good focus whose ball trips the guard,
    // batched together with foci whose balls stay complete.
    if (BallSize(g, kHub, c.radius, labels) > options.ball_limit &&
        ev->candidate_space().InGood(q.focus(), kHub)) {
      ++hub_guarded;
    }
    size_t complete_balls = 0;
    for (const auto& [vx, cache] : ref.caches) {
      complete_balls += BallSize(g, vx, c.radius, labels) <= options.ball_limit;
    }
    EXPECT_GT(complete_balls, 0u);
  }
  EXPECT_GT(hub_guarded, 0u) << "no guarded hub ever entered a batch";
}

// End to end through QMatch's focus map at every pool size, positive and
// negated patterns alike (negation re-verifies Π(Q)'s answers in batches
// seeded from their caches; the reference, one focus at a time).
TEST(BatchVerifyDifferentialTest, QMatchFocusMapAtEveryPoolSize) {
  Graph g = MakeGraph(13);
  std::vector<Case> cases = PositiveCases();
  for (const Case& c : NegatedCases()) cases.push_back(c);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t t : {1, 2, 4, 8}) {
    pools.push_back(std::make_unique<ThreadPool>(t));
  }
  size_t negated_answers = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Pattern q = Parse(c.text, g);
    for (const MatchOptions& options :
         {MatchOptions{}, HubGuarded(q, g, EdgeLabels(q, g))}) {
      const Outcome ref = PerFocusQMatch(q, g, {}, options);
      if (!q.NegatedEdgeIds().empty()) negated_answers += ref.answers.size();
      for (const auto& pool : pools) {
        SCOPED_TRACE(PoolName(pool.get()));
        MatchStats stats;
        auto got = QMatch::Evaluate(q, g, options, &stats, pool.get());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), ref.answers);
        ExpectSameWork(stats, ref.stats);
      }
    }
  }
  EXPECT_GT(negated_answers, 0u) << "negated cases matched nothing";
}

// Cancellation inside a batch: the token is polled before every 16th
// member (counted from poll_base), not once per batch, so a token that
// has fired stops the batch at the next poll position — after the shared
// BFS already ran and some members were verified.
TEST(BatchVerifyDifferentialTest, FiredTokenStopsMidBatchAtThePollStride) {
  Graph g = MakeGraph(21);
  Pattern q = Parse(PositiveCases()[2].text, g);
  auto ev = PositiveEvaluator::Create(q, g, MatchOptions{});
  ASSERT_TRUE(ev.ok());
  const std::vector<VertexId> mixed = MixedFoci(*ev, g);
  const std::span<const VertexId> batch(mixed.data(),
                                        PositiveEvaluator::kBatchWidth);
  CancelToken token;
  token.RequestCancel();
  for (size_t poll_base = 0; poll_base < 16; ++poll_base) {
    SCOPED_TRACE("poll_base " + std::to_string(poll_base));
    const size_t stop = (16 - poll_base) % 16;
    char verdicts[PositiveEvaluator::kBatchWidth];
    MatchStats stats;
    const size_t done =
        ev->VerifyBatch(batch, nullptr, verdicts, {}, &stats, &token,
                        poll_base);
    ASSERT_EQ(done, stop);
    // The members verified before the poll are exact.
    const Outcome ref = PerFocus(*ev, batch.first(stop));
    ExpectSameWork(stats, ref.stats);
    for (size_t i = 0; i < stop; ++i) {
      EXPECT_EQ(verdicts[i] != 0,
                std::binary_search(ref.answers.begin(), ref.answers.end(),
                                   batch[i]))
          << "member " << i;
    }
  }
  // Through the focus map: a fired token unwinds with its status.
  MatchOptions options;
  options.cancel = &token;
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto res = QMatch::Evaluate(q, g, options, nullptr, p);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  }
}

// An external token fired from another thread while batches are in
// flight: the evaluation either finished first (then its answers are
// exact) or unwinds with kCancelled — never a truncated answer set.
TEST(BatchVerifyDifferentialTest, ExternalCancelRacesTheBatches) {
  Graph g = MakeGraph(33, 1500);
  Pattern q = Parse(PositiveCases()[3].text, g);
  auto clean = QMatch::Evaluate(q, g);
  ASSERT_TRUE(clean.ok());
  ThreadPool pool(4);
  for (int delay_us : {0, 200, 1000, 5000}) {
    CancelToken token;
    MatchOptions options;
    options.cancel = &token;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.RequestCancel();
    });
    auto res = QMatch::Evaluate(q, g, options, nullptr, &pool);
    canceller.join();
    if (res.ok()) {
      EXPECT_EQ(res.value(), clean.value()) << "delay " << delay_us;
    } else {
      EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
    }
  }
}

}  // namespace
}  // namespace qgp
