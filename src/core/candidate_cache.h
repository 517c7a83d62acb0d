#ifndef QGP_CORE_CANDIDATE_CACHE_H_
#define QGP_CORE_CANDIDATE_CACHE_H_

/// \file
/// Shared, refcounted candidate sets and the per-graph intern pool that
/// shares them across CandidateSpace builds — within one evaluation,
/// across a PQMatch/PEnum worker's fragment builds, and across whole
/// queries when a QueryEngine owns the pool for the graph's lifetime.
/// The pool holds label/degree filters and whole dual-simulation
/// results (one per stratified pattern topology).

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "core/pattern.h"
#include "graph/graph.h"

namespace qgp {

/// One immutable candidate set: sorted members plus an O(1) membership
/// bitset over the graph's vertex universe. Instances are shared —
/// between pattern nodes whose filters coincide, between the stratified
/// and good families when no quantifier pruning applies, and across
/// CandidateSpace builds through the CandidateCache intern pool — and
/// refcounted via shared_ptr, so a set stays alive exactly as long as
/// some CandidateSpace (or the pool) still references it.
struct CandidateSet {
  std::vector<VertexId> members;  ///< sorted ascending, duplicate-free
  DynamicBitset bits;             ///< membership over [0, |V|)
};

/// Shared, immutable handle. Copying is a refcount bump, never a data
/// copy; the pointee is never mutated after construction, so handles may
/// be read concurrently from any number of threads.
using CandidateSetRef = std::shared_ptr<const CandidateSet>;

/// Wraps sorted `members` into a refcounted set, building its bitset.
CandidateSetRef MakeCandidateSet(std::vector<VertexId> members,
                                 size_t universe);

/// The label/degree candidate filter every non-simulation build starts
/// from: vertices labeled `node_label` that have at least one out-edge
/// for every label in `out_labels` and one in-edge for every label in
/// `in_labels` (the existential degree refinement of DegreeRefine).
/// `out_labels` / `in_labels` must be sorted and duplicate-free.
CandidateSetRef ComputeLabelDegreeSet(const Graph& g, Label node_label,
                                      std::span<const Label> out_labels,
                                      std::span<const Label> in_labels);

/// Per-graph intern pool for candidate sets, of two kinds of entry.
///
/// Label/degree sets (Get). Two pattern nodes with the same node label
/// and the same sets of incident edge labels have identical
/// degree-refined candidates; the pool computes that set once and hands
/// out shared references, so repeated CandidateSpace builds against one
/// graph — the positified patterns of a negated QGP, every
/// fragment-local build a PQMatch/PEnum worker runs, EnumMatcher's plain
/// builds — stop recomputing per-label work.
///
/// Simulation memo (FindSimulation/AdmitSimulation). The dual simulation
/// Cπ(u) reads only node labels and labelled edges, so every quantifier
/// variant of one pattern shape shares it. An entry is keyed by the
/// stratified topology — node labels in id order plus the sorted, unique
/// (src, dst, label) edge triples, no quantifiers, no focus — and holds
/// one set per pattern node. Both kinds share the stamps, the eviction
/// sweeps, size() and the hit/miss counters below; a memo entry counts as
/// one entry, and as referenced while any caller holds any of its sets.
///
/// Thread-safe: concurrent Get() calls from parallel Build tasks are
/// fine. Two racing misses on the same key may both compute the set
/// (identical content either way); the first insert wins and the loser's
/// copy is dropped, so returned handles for one key always alias one
/// allocation once the pool has seen it. The same holds for two builds
/// racing to AdmitSimulation() one topology.
///
/// Mutability: every entry is stamped with the graph version() it was
/// computed against. A Get() that finds a stale entry recomputes and
/// replaces it (counted as a miss), a FindSimulation() that finds one
/// reports a miss, and EvictStale() drops exactly the stale entries in
/// one sweep — QueryEngine::ApplyDelta calls it under the admission lock
/// so no evaluation runs concurrently.
class CandidateCache {
 public:
  /// The pool is bound to `g` (keys are label ids of its dictionary);
  /// callers must not use it with a different graph. `g` must outlive
  /// the pool.
  explicit CandidateCache(const Graph& g) : g_(&g) {}

  CandidateCache(const CandidateCache&) = delete;
  CandidateCache& operator=(const CandidateCache&) = delete;

  /// Interned label/degree set for (node_label, out_labels, in_labels).
  /// Label lists need not be sorted or unique; the key normalizes them.
  CandidateSetRef Get(Label node_label, std::vector<Label> out_labels,
                      std::vector<Label> in_labels);

  /// Probes the simulation memo for `pattern`'s stratified topology at
  /// the current graph version. On a hit (counted) fills `*sets` with the
  /// memoized Cπ(u), one per pattern node, and returns true; on a miss
  /// (counted) returns false and leaves `*sets` alone.
  bool FindSimulation(const Pattern& pattern,
                      std::vector<CandidateSetRef>* sets);

  /// Admits the finished fixpoint `sets` (one fresh set per pattern node,
  /// never a partial result) for `pattern`'s topology and returns the
  /// memoized sets: `sets` itself, or those a racing build of the same
  /// topology admitted first. Counts neither a hit nor a miss (the probe
  /// did).
  std::vector<CandidateSetRef> AdmitSimulation(
      const Pattern& pattern, std::vector<CandidateSetRef> sets);

  /// Drops every entry no caller references anymore (use_count == 1);
  /// returns how many were evicted. Entries still referenced by a live
  /// CandidateSpace survive and keep their identity.
  size_t EvictUnused();

  /// Drops exactly the entries stamped with a graph version other than
  /// the current one; returns how many were evicted. Still-referenced
  /// stale sets stay alive through their outstanding handles (shared_ptr
  /// semantics) but leave the pool, so no future Get() can observe them.
  size_t EvictStale();

  /// Admission epoch, for cancellation rollback: every insert (and stale
  /// replace) bumps an internal counter and stamps the entry with it.
  /// MarkEpoch() reads the counter; EvictInsertedSince(mark) drops the
  /// entries admitted after that mark that no caller references anymore
  /// (use_count == 1 — under the engine's one-at-a-time admission, that
  /// is every set a cancelled evaluation interned, since its scratch
  /// state was destroyed on unwind). The QueryEngine brackets deadline-
  /// carrying queries with this pair so a timed-out run admits nothing
  /// (the no-cache-poisoning invariant; ARCHITECTURE.md "Robustness").
  uint64_t MarkEpoch() const;
  size_t EvictInsertedSince(uint64_t mark);

  /// Number of interned entries of both kinds.
  size_t size() const;

  /// Pool telemetry, cumulative since construction.
  struct Stats {
    uint64_t hits = 0;    ///< Get()/FindSimulation() served from the pool
    uint64_t misses = 0;  ///< Get()/FindSimulation() found nothing current
  };
  /// Snapshot of the hit/miss counters (exact when quiescent).
  Stats stats() const;

  /// The graph the pool is bound to.
  const Graph& graph() const { return *g_; }

 private:
  struct Key {
    Label node_label = 0;
    std::vector<Label> out_labels;  // sorted, duplicate-free
    std::vector<Label> in_labels;   // sorted, duplicate-free
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  struct Entry {
    CandidateSetRef set;
    uint64_t version = 0;  ///< graph version() the set was computed against
    uint64_t epoch = 0;    ///< admission order (MarkEpoch/EvictInsertedSince)
    bool Unreferenced() const { return set.use_count() == 1; }
  };

  struct TopologyKey {
    std::vector<Label> node_labels;              // by pattern node id
    std::vector<std::array<uint32_t, 3>> edges;  // (src, dst, label)
    bool operator==(const TopologyKey& other) const = default;
  };
  struct TopologyKeyHash {
    size_t operator()(const TopologyKey& k) const;
  };
  static TopologyKey TopologyOf(const Pattern& pattern);

  struct SimEntry {
    std::vector<CandidateSetRef> sets;  ///< Cπ(u) by pattern node
    uint64_t version = 0;
    uint64_t epoch = 0;
    bool Unreferenced() const {
      return std::all_of(sets.begin(), sets.end(),
                         [](const CandidateSetRef& s) {
                           return s.use_count() == 1;
                         });
    }
  };

  /// Erases the entries of both maps that satisfy `drop`; returns how
  /// many. Caller holds mu_.
  template <typename Pred>
  size_t EraseIf(Pred drop);

  const Graph* g_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> pool_;
  std::unordered_map<TopologyKey, SimEntry, TopologyKeyHash> sims_;
  Stats stats_;
  uint64_t epoch_counter_ = 0;  // guarded by mu_
};

}  // namespace qgp

#endif  // QGP_CORE_CANDIDATE_CACHE_H_
