#include "core/candidate_cache.h"

#include <algorithm>
#include <array>
#include <utility>

namespace qgp {

namespace {

// Key tags: the first byte of a key names the entry's kind.
constexpr char kSetTag = 's';
constexpr char kSimTag = 't';
constexpr char kResultTag = 'r';

void SortUnique(std::vector<Label>& labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
}

void Put(std::string& key, uint32_t x) {
  key.append(reinterpret_cast<const char*>(&x), sizeof(x));
}

// The budget's charge for one set: its members plus its bitset words.
size_t SetBytes(const CandidateSet& set) {
  return sizeof(VertexId) * set.members.size() +
         sizeof(uint64_t) * ((set.bits.size() + 63) / 64);
}

// The stratified topology: node labels in id order plus the sorted,
// unique (src, dst, label) edge triples. A parallel duplicate edge
// constrains the simulation no further.
std::string TopologyKey(const Pattern& pattern) {
  std::vector<std::array<uint32_t, 3>> edges;
  edges.reserve(pattern.num_edges());
  for (PatternEdgeId e = 0; e < pattern.num_edges(); ++e) {
    const PatternEdge& pe = pattern.edge(e);
    edges.push_back({pe.src, pe.dst, pe.label});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::string key(1, kSimTag);
  Put(key, static_cast<uint32_t>(pattern.num_nodes()));
  for (PatternNodeId u = 0; u < pattern.num_nodes(); ++u) {
    Put(key, pattern.node(u).label);
  }
  for (const auto& edge : edges) {
    for (uint32_t x : edge) Put(key, x);
  }
  return key;
}

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

CandidateSetRef CandidateCache::Get(Label node_label,
                                    std::vector<Label> out_labels,
                                    std::vector<Label> in_labels) {
  SortUnique(out_labels);
  SortUnique(in_labels);
  std::string key(1, kSetTag);
  Put(key, node_label);
  Put(key, static_cast<uint32_t>(out_labels.size()));
  for (Label l : out_labels) Put(key, l);
  for (Label l : in_labels) Put(key, l);
  const uint64_t version = g_->version();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Entry* entry = FindLocked(key, version)) {
      ++stats_.hits;
      return entry->sets[0];
    }
  }
  // Compute outside the lock so distinct keys intern in parallel. A race
  // on one key computes twice; both results are identical and the first
  // admission establishes the shared identity (the loser counts a hit).
  // Stale entries (other graph version) are recomputed and replaced,
  // counted as misses.
  CandidateSetRef set =
      ComputeLabelDegreeSet(*g_, node_label, out_labels, in_labels);
  bool admitted = false;
  std::lock_guard<std::mutex> lock(mu_);
  set = AdmitLocked(std::move(key), Entry{.sets = {std::move(set)}}, version,
                    &admitted)[0];
  ++(admitted ? stats_.misses : stats_.hits);
  return set;
}

bool CandidateCache::FindSimulation(const Pattern& pattern,
                                    std::vector<CandidateSetRef>* sets) {
  const std::string key = TopologyKey(pattern);
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindLocked(key, version);
  ++(entry != nullptr ? stats_.hits : stats_.misses);
  if (entry != nullptr) *sets = entry->sets;
  return entry != nullptr;
}

std::vector<CandidateSetRef> CandidateCache::AdmitSimulation(
    const Pattern& pattern, std::vector<CandidateSetRef> sets) {
  std::string key = TopologyKey(pattern);
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(std::move(key), Entry{.sets = std::move(sets)}, version);
}

bool CandidateCache::FindResult(const std::string& key, CachedResult* out) {
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindLocked(kResultTag + key, version);
  if (entry != nullptr) *out = entry->result;
  return entry != nullptr;
}

void CandidateCache::AdmitResult(const std::string& key,
                                 CachedResult result) {
  const uint64_t version = g_->version();
  std::lock_guard<std::mutex> lock(mu_);
  AdmitLocked(kResultTag + key, Entry{.result = std::move(result)}, version);
}

CandidateCache::Entry* CandidateCache::FindLocked(const std::string& key,
                                                  uint64_t version) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.version != version) return nullptr;
  it->second.last_use = ++clock_;
  return &it->second;
}

std::vector<CandidateSetRef> CandidateCache::AdmitLocked(
    std::string key, Entry entry, uint64_t version, bool* admitted) {
  auto [it, inserted] = entries_.try_emplace(std::move(key));
  Entry& slot = it->second;
  const bool admit = inserted || slot.version != version;
  if (admitted != nullptr) *admitted = admit;
  if (admit) {
    entry.version = version;
    entry.epoch = ++epoch_counter_;
    for (const CandidateSetRef& set : entry.sets) entry.bytes += SetBytes(*set);
    if (it->first[0] == kResultTag) {
      entry.bytes += it->first.size() - 1 +
                     sizeof(VertexId) * entry.result.answers.size() +
                     sizeof(MatchStats);
    }
    bytes_ = bytes_ - slot.bytes + entry.bytes;
    slot = std::move(entry);
  }
  slot.last_use = ++clock_;
  std::vector<CandidateSetRef> sets = slot.sets;  // the squeeze keeps them
  SqueezeLocked();
  return sets;
}

template <typename Pred>
size_t CandidateCache::EraseIf(Pred drop) {
  return std::erase_if(entries_, [&](const auto& kv) {
    if (!drop(kv.first, kv.second)) return false;
    bytes_ -= kv.second.bytes;
    return true;
  });
}

size_t CandidateCache::SqueezeLocked() {
  size_t evicted = 0;
  while (budget_ != 0 && bytes_ > budget_) {
    // The least recently used unreferenced entry goes first.
    auto victim = std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          return std::pair(!a.second.Unreferenced(), a.second.last_use) <
                 std::pair(!b.second.Unreferenced(), b.second.last_use);
        });
    if (victim == entries_.end() || !victim->second.Unreferenced()) break;
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evicted;
  }
  stats_.evicted += evicted;
  return evicted;
}

size_t CandidateCache::EvictUnused() {
  std::lock_guard<std::mutex> lock(mu_);
  return EraseIf([](const auto&, const Entry& e) { return e.Unreferenced(); });
}

CandidateCache::StaleEvicted CandidateCache::EvictStale() {
  const uint64_t version = g_->version();
  StaleEvicted out;
  std::lock_guard<std::mutex> lock(mu_);
  EraseIf([&](const std::string& key, const Entry& e) {
    if (e.version == version) return false;
    ++(key[0] == kResultTag ? out.results : out.sets);
    return true;
  });
  return out;
}

size_t CandidateCache::EvictToBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  return SqueezeLocked();
}

uint64_t CandidateCache::MarkEpoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_counter_;
}

size_t CandidateCache::EvictInsertedSince(uint64_t mark) {
  std::lock_guard<std::mutex> lock(mu_);
  return EraseIf([mark](const auto&, const Entry& e) {
    return e.epoch > mark && e.Unreferenced();
  });
}

size_t CandidateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t CandidateCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

CandidateCache::Stats CandidateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qgp
