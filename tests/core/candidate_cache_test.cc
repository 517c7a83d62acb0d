// CandidateCache: interning semantics (one allocation per distinct
// label/degree filter), refcount lifecycle (EvictUnused respects live
// handles), equivalence with the serial degree refinement, the sharing
// CandidateSpace::Build is expected to exhibit (same-key nodes alias one
// set; good aliases stratified when unpruned), and the stored results
// and byte budget the pool shares across its entry kinds.
#include "core/candidate_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/candidate_space.h"
#include "graph/graph_delta.h"
#include "testing/paper_graphs.h"

namespace qgp {
namespace {

TEST(CandidateCacheTest, InterningReturnsOneAllocationPerKey) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  CandidateCache cache(g);
  CandidateSetRef a = cache.Get(person, {follow}, {});
  CandidateSetRef b = cache.Get(person, {follow}, {});
  EXPECT_EQ(a.get(), b.get()) << "same key must intern to one set";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A different key is a different entry.
  CandidateSetRef c = cache.Get(person, {}, {follow});
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CandidateCacheTest, KeyNormalizesLabelOrderAndDuplicates) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  CandidateCache cache(g);
  CandidateSetRef a = cache.Get(person, {follow, recom}, {});
  CandidateSetRef b = cache.Get(person, {recom, follow, follow}, {});
  EXPECT_EQ(a.get(), b.get())
      << "label lists must be order- and duplicate-insensitive";
}

TEST(CandidateCacheTest, SetsMatchTheSerialDegreeRefinement) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  CandidateCache cache(g);
  // Persons with at least one follow out-edge: x1, x2, x3.
  CandidateSetRef followers = cache.Get(person, {follow}, {});
  EXPECT_EQ(followers->members,
            (std::vector<VertexId>{ids.x1, ids.x2, ids.x3}));
  // Persons with a recom out-edge AND a follow in-edge: v0..v3.
  CandidateSetRef recommenders = cache.Get(person, {recom}, {follow});
  EXPECT_EQ(recommenders->members,
            (std::vector<VertexId>{ids.v0, ids.v1, ids.v2, ids.v3}));
  // Bitset agrees with the member list.
  for (VertexId v : recommenders->members) {
    EXPECT_TRUE(recommenders->bits.Test(v));
  }
  EXPECT_FALSE(recommenders->bits.Test(ids.v4));
  EXPECT_FALSE(recommenders->bits.Test(ids.x1));
}

TEST(CandidateCacheTest, EvictUnusedRespectsLiveReferences) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  CandidateCache cache(g);
  CandidateSetRef held = cache.Get(person, {follow}, {});
  EXPECT_EQ(held.use_count(), 2) << "pool + caller";
  {
    CandidateSetRef dropped = cache.Get(person, {recom}, {});
    EXPECT_EQ(cache.size(), 2u);
    // `dropped` dies here; only the pool's reference remains.
  }
  EXPECT_EQ(cache.EvictUnused(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  // The held set survived eviction, stays valid, and is still interned.
  EXPECT_FALSE(held->members.empty());
  CandidateSetRef again = cache.Get(person, {follow}, {});
  EXPECT_EQ(held.get(), again.get());
  // Once the last external handle dies, the entry becomes evictable.
  held.reset();
  again.reset();
  EXPECT_EQ(cache.EvictUnused(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CandidateCacheTest, BuildSharesSetsBetweenSameKeyNodes) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  // Two pattern nodes with identical label/degree filters: z1 and z2 both
  // "person with a recom out-edge".
  Pattern p;
  PatternNodeId xo = p.AddNode(dict.Intern("person"), "xo");
  PatternNodeId z1 = p.AddNode(dict.Intern("person"), "z1");
  PatternNodeId z2 = p.AddNode(dict.Intern("person"), "z2");
  PatternNodeId r = p.AddNode(dict.Intern("redmi_2a"), "r");
  (void)p.AddEdge(xo, z1, dict.Intern("follow"));
  (void)p.AddEdge(xo, z2, dict.Intern("follow"));
  (void)p.AddEdge(z1, r, dict.Intern("recom"));
  (void)p.AddEdge(z2, r, dict.Intern("recom"));
  (void)p.set_focus(xo);
  MatchOptions plain;
  plain.use_simulation = false;
  CandidateCache cache(g);
  auto cs = CandidateSpace::Build(p, g, plain, nullptr, nullptr, &cache);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->stratified_set(z1).get(), cs->stratified_set(z2).get())
      << "same-key nodes must share one interned set";
  EXPECT_NE(cs->stratified_set(xo).get(), cs->stratified_set(z1).get());
  // No quantified out-edges anywhere: good aliases stratified.
  for (PatternNodeId u = 0; u < p.num_nodes(); ++u) {
    EXPECT_EQ(cs->good_set(u).get(), cs->stratified_set(u).get());
  }
  // A second build on the same cache hits instead of recomputing.
  const uint64_t misses_before = cache.stats().misses;
  auto cs2 = CandidateSpace::Build(p, g, plain, nullptr, nullptr, &cache);
  ASSERT_TRUE(cs2.ok());
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_EQ(cs2->stratified_set(z1).get(), cs->stratified_set(z1).get());
}

TEST(CandidateCacheTest, ConcurrentGetsAgreeOnContent) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  CandidateCache cache(g);
  constexpr size_t kThreads = 8;
  std::vector<CandidateSetRef> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads race on one key, half on another.
      got[t] = (t % 2 == 0) ? cache.Get(person, {follow}, {})
                            : cache.Get(person, {recom}, {});
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t]->members, got[t % 2]->members);
  }
  EXPECT_EQ(cache.size(), 2u);
}

// The budget's charges, restated from the class comment.
size_t SetBytes(const CandidateSetRef& set) {
  return 4 * set->members.size() + 8 * ((set->bits.size() + 63) / 64);
}
size_t ResultBytes(const std::string& key, const CachedResult& result) {
  return key.size() + 4 * result.answers.size() + sizeof(MatchStats);
}

CachedResult Answers(std::vector<VertexId> answers) {
  CachedResult result;
  result.answers = std::move(answers);
  result.stats.focus_candidates_checked = result.answers.size();
  return result;
}

TEST(CandidateCacheTest, ByteCountFollowsTheFormulaOnEveryPath) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  CandidateCache cache(g);
  EXPECT_EQ(cache.bytes(), 0u);

  CandidateSetRef followers = cache.Get(person, {follow}, {});
  CandidateSetRef recommenders = cache.Get(person, {recom}, {});
  const CachedResult result = Answers({ids.x1, ids.x2});
  cache.AdmitResult("q1", result);
  EXPECT_EQ(cache.bytes(), SetBytes(followers) + SetBytes(recommenders) +
                               ResultBytes("q1", result));
  // A hit charges nothing, nor does re-admitting a current key.
  (void)cache.Get(person, {follow}, {});
  cache.AdmitResult("q1", Answers({ids.x1, ids.x2, ids.x3}));
  EXPECT_EQ(cache.bytes(), SetBytes(followers) + SetBytes(recommenders) +
                               ResultBytes("q1", result));

  // Rollback of what came after a mark.
  const uint64_t mark = cache.MarkEpoch();
  (void)cache.Get(person, {}, {follow});
  const CachedResult late = Answers({ids.v0});
  cache.AdmitResult("q2", late);
  EXPECT_EQ(cache.EvictInsertedSince(mark), 2u);
  EXPECT_EQ(cache.bytes(), SetBytes(followers) + SetBytes(recommenders) +
                               ResultBytes("q1", result));

  // A stale replace swaps the old charge for the new one.
  GraphDelta delta;
  delta.add_edges.push_back({ids.v4, ids.x1, follow});
  ASSERT_TRUE(g.ApplyDelta(delta).ok());
  CandidateSetRef refreshed = cache.Get(person, {follow}, {});
  EXPECT_NE(refreshed.get(), followers.get());
  EXPECT_EQ(cache.bytes(), SetBytes(refreshed) + SetBytes(recommenders) +
                               ResultBytes("q1", result));

  // The stale sweep takes the stale set and the stale result.
  const CandidateCache::StaleEvicted stale = cache.EvictStale();
  EXPECT_EQ(stale.sets, 1u);
  EXPECT_EQ(stale.results, 1u);
  EXPECT_EQ(cache.bytes(), SetBytes(refreshed));

  // The unused sweep leaves the referenced set alone.
  cache.AdmitResult("q3", late);
  EXPECT_EQ(cache.EvictUnused(), 1u);
  EXPECT_EQ(cache.bytes(), SetBytes(refreshed));
  refreshed.reset();
  EXPECT_EQ(cache.EvictUnused(), 1u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CandidateCacheTest, StoredResultsReplayAndGoStaleWithTheGraph) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  CandidateCache cache(g);
  CachedResult out;
  EXPECT_FALSE(cache.FindResult("q", &out));
  const CachedResult stored = Answers({ids.x1, ids.x3});
  cache.AdmitResult("q", stored);
  ASSERT_TRUE(cache.FindResult("q", &out));
  EXPECT_EQ(out.answers, stored.answers);
  EXPECT_EQ(out.stats.focus_candidates_checked, 2u);
  // Result probes are the caller's to count.
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  GraphDelta delta;
  delta.add_vertices.push_back(g.dict().Find("person"));
  ASSERT_TRUE(g.ApplyDelta(delta).ok());
  EXPECT_FALSE(cache.FindResult("q", &out)) << "stale result served";
  EXPECT_EQ(cache.size(), 1u) << "only the sweep drops a stale entry";
  const CandidateCache::StaleEvicted stale = cache.EvictStale();
  EXPECT_EQ(stale.sets, 0u);
  EXPECT_EQ(stale.results, 1u);
}

TEST(CandidateCacheTest, SqueezeEvictsLeastRecentlyUsedFirst) {
  testing::G1Ids ids;
  Graph g = testing::BuildG1(&ids);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  const CachedResult result = Answers({ids.x1});
  const size_t one = ResultBytes("a", result);

  // Results: room for two. The third admission evicts the entry used
  // longest ago — "b", since "a" was hit after "b" was admitted.
  {
    CandidateCache cache(g, 2 * one);
    cache.AdmitResult("a", result);
    cache.AdmitResult("b", result);
    CachedResult out;
    ASSERT_TRUE(cache.FindResult("a", &out));
    cache.AdmitResult("c", result);
    EXPECT_TRUE(cache.FindResult("a", &out)) << "recently hit entry evicted";
    EXPECT_FALSE(cache.FindResult("b", &out));
    EXPECT_TRUE(cache.FindResult("c", &out));
    EXPECT_EQ(cache.bytes(), 2 * one);
    EXPECT_EQ(cache.stats().evicted, 1u);
  }

  // Sets, mixed with a result: the squeeze stops as soon as the pool
  // fits, and never takes the set it is handing out.
  CandidateCache sizing(g);
  const size_t followers = SetBytes(sizing.Get(person, {follow}, {}));
  const size_t recommenders = SetBytes(sizing.Get(person, {recom}, {}));
  const size_t followees = SetBytes(sizing.Get(person, {}, {follow}));
  CandidateCache cache(g, followers + followees + one);
  (void)cache.Get(person, {follow}, {});
  (void)cache.Get(person, {recom}, {});
  cache.AdmitResult("a", result);
  (void)cache.Get(person, {follow}, {});  // hit: now the newest set
  ASSERT_EQ(cache.bytes(), followers + recommenders + one);
  CandidateSetRef held = cache.Get(person, {}, {follow});
  EXPECT_EQ(SetBytes(held), followees);
  // recommenders (oldest) went, and that was enough.
  EXPECT_EQ(cache.bytes(), followers + followees + one);
  EXPECT_EQ(cache.size(), 3u);
  CachedResult out;
  EXPECT_TRUE(cache.FindResult("a", &out));
  const uint64_t misses = cache.stats().misses;
  (void)cache.Get(person, {follow}, {});
  EXPECT_EQ(cache.stats().misses, misses) << "recently hit set evicted";
}

TEST(CandidateCacheTest, ReferencedSetsSurviveAOneByteBudget) {
  Graph g = testing::BuildG1(nullptr);
  LabelDict& dict = g.mutable_dict();
  const Label person = dict.Intern("person");
  const Label follow = dict.Intern("follow");
  const Label recom = dict.Intern("recom");
  CandidateCache cache(g, 1);
  CandidateSetRef held = cache.Get(person, {follow}, {});
  CandidateSetRef other = cache.Get(person, {recom}, {});
  cache.AdmitResult("q", Answers({}));
  // Both sets are referenced; the result is not.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), SetBytes(held) + SetBytes(other));
  EXPECT_EQ(cache.EvictToBudget(), 0u);
  EXPECT_EQ(cache.Get(person, {follow}, {}).get(), held.get());
  other.reset();
  EXPECT_EQ(cache.EvictToBudget(), 1u);
  EXPECT_EQ(cache.bytes(), SetBytes(held)) << "over budget, but referenced";
  held.reset();
  EXPECT_EQ(cache.EvictToBudget(), 1u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().evicted, 3u);
}

}  // namespace
}  // namespace qgp
