#include "core/candidate_cache.h"

#include <algorithm>
#include <utility>

namespace qgp {

namespace {

void SortUnique(std::vector<Label>& labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
}

// FNV-1a over 64-bit words, for the pool's key hashes.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Mix(uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  }
};

}  // namespace

CandidateSetRef MakeCandidateSet(std::vector<VertexId> members,
                                 size_t universe) {
  auto set = std::make_shared<CandidateSet>();
  set->members = std::move(members);
  set->bits.Resize(universe);
  for (VertexId v : set->members) set->bits.Set(v);
  return set;
}

CandidateSetRef ComputeLabelDegreeSet(const Graph& g, Label node_label,
                                      std::span<const Label> out_labels,
                                      std::span<const Label> in_labels) {
  std::vector<VertexId> members;
  auto span = g.VerticesWithLabel(node_label);
  members.reserve(span.size());
  for (VertexId v : span) {
    bool ok = true;
    for (Label l : out_labels) {
      if (g.OutDegreeWithLabel(v, l) == 0) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (Label l : in_labels) {
        if (g.InDegreeWithLabel(v, l) == 0) {
          ok = false;
          break;
        }
      }
    }
    if (ok) members.push_back(v);
  }
  return MakeCandidateSet(std::move(members), g.num_vertices());
}

size_t CandidateCache::KeyHash::operator()(const Key& k) const {
  Fnv f;
  f.Mix(k.node_label);
  f.Mix(0x6f75);  // separator between label runs
  for (Label l : k.out_labels) f.Mix(l + 1);
  f.Mix(0x696e);
  for (Label l : k.in_labels) f.Mix(l + 1);
  return static_cast<size_t>(f.h);
}

CandidateSetRef CandidateCache::Get(Label node_label,
                                    std::vector<Label> out_labels,
                                    std::vector<Label> in_labels) {
  SortUnique(out_labels);
  SortUnique(in_labels);
  Key key{node_label, std::move(out_labels), std::move(in_labels)};
  const uint64_t version = g_->version();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pool_.find(key);
    if (it != pool_.end() && it->second.version == version) {
      ++stats_.hits;
      return it->second.set;
    }
  }
  // Compute outside the lock so distinct keys intern in parallel. A race
  // on one key computes twice; both results are identical and the first
  // insert establishes the shared identity. Stale entries (other graph
  // version) are recomputed and replaced, counted as misses.
  CandidateSetRef set =
      ComputeLabelDegreeSet(*g_, key.node_label, key.out_labels,
                            key.in_labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      pool_.emplace(std::move(key), Entry{set, version, 0});
  if (inserted) {
    it->second.epoch = ++epoch_counter_;
    ++stats_.misses;
  } else if (it->second.version != version) {
    it->second = Entry{std::move(set), version, ++epoch_counter_};
    ++stats_.misses;
  } else {
    ++stats_.hits;
  }
  return it->second.set;
}

CandidateCache::TopologyKey CandidateCache::TopologyOf(
    const Pattern& pattern) {
  TopologyKey key;
  key.node_labels.reserve(pattern.num_nodes());
  for (PatternNodeId u = 0; u < pattern.num_nodes(); ++u) {
    key.node_labels.push_back(pattern.node(u).label);
  }
  key.edges.reserve(pattern.num_edges());
  for (PatternEdgeId e = 0; e < pattern.num_edges(); ++e) {
    const PatternEdge& pe = pattern.edge(e);
    key.edges.push_back({pe.src, pe.dst, pe.label});
  }
  // A parallel duplicate edge constrains the simulation no further.
  std::sort(key.edges.begin(), key.edges.end());
  key.edges.erase(std::unique(key.edges.begin(), key.edges.end()),
                  key.edges.end());
  return key;
}

size_t CandidateCache::TopologyKeyHash::operator()(
    const TopologyKey& k) const {
  Fnv f;
  f.Mix(k.node_labels.size());
  for (Label l : k.node_labels) f.Mix(l);
  for (const auto& [src, dst, label] : k.edges) {
    f.Mix((static_cast<uint64_t>(src) << 32) | dst);
    f.Mix(label);
  }
  return static_cast<size_t>(f.h);
}

bool CandidateCache::FindSimulation(const Pattern& pattern,
                                    std::vector<CandidateSetRef>* sets) {
  const TopologyKey key = TopologyOf(pattern);
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sims_.find(key);
  if (it == sims_.end() || it->second.version != version) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *sets = it->second.sets;
  return true;
}

std::vector<CandidateSetRef> CandidateCache::AdmitSimulation(
    const Pattern& pattern, std::vector<CandidateSetRef> sets) {
  TopologyKey key = TopologyOf(pattern);
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sims_.try_emplace(std::move(key));
  // A current entry is a racing build's identical fixpoint: keep its
  // identity. An absent or stale one takes `sets` under a new epoch.
  if (inserted || it->second.version != version) {
    it->second = SimEntry{std::move(sets), version, ++epoch_counter_};
  }
  return it->second.sets;
}

template <typename Pred>
size_t CandidateCache::EraseIf(Pred drop) {
  const size_t before = pool_.size() + sims_.size();
  std::erase_if(pool_, [&](const auto& kv) { return drop(kv.second); });
  std::erase_if(sims_, [&](const auto& kv) { return drop(kv.second); });
  return before - pool_.size() - sims_.size();
}

size_t CandidateCache::EvictUnused() {
  std::lock_guard<std::mutex> lock(mu_);
  return EraseIf([](const auto& e) { return e.Unreferenced(); });
}

size_t CandidateCache::EvictStale() {
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  return EraseIf([version](const auto& e) { return e.version != version; });
}

uint64_t CandidateCache::MarkEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_counter_;
}

size_t CandidateCache::EvictInsertedSince(uint64_t mark) {
  std::lock_guard<std::mutex> lock(mu_);
  return EraseIf(
      [mark](const auto& e) { return e.epoch > mark && e.Unreferenced(); });
}

size_t CandidateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.size() + sims_.size();
}

CandidateCache::Stats CandidateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qgp
