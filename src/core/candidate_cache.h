#ifndef QGP_CORE_CANDIDATE_CACHE_H_
#define QGP_CORE_CANDIDATE_CACHE_H_

/// \file
/// Shared, refcounted candidate sets and the per-graph intern pool that
/// shares them across CandidateSpace builds — within one evaluation,
/// across a PQMatch/PEnum worker's fragment builds, and across whole
/// queries when a QueryEngine owns the pool for the graph's lifetime.
/// The pool holds label/degree filters, whole dual-simulation results
/// (one per stratified pattern topology) and stored query outcomes.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "core/match_types.h"
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

/// A stored query outcome, replayed verbatim on a result-cache hit.
struct CachedResult {
  AnswerSet answers;
  MatchStats stats;
};

/// Per-graph intern pool for candidate sets, of three kinds of entry.
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
/// one set per pattern node.
///
/// Results (FindResult/AdmitResult): an opaque caller-built key → a
/// CachedResult, copied out on a hit.
///
/// All kinds share the stamps, the eviction sweeps, size() and a byte
/// budget. A set is charged 4·|members| + 8·⌈|V|/64⌉ bytes, a memo entry
/// the sum over its sets, a result its key length + 4·|answers| +
/// sizeof(MatchStats); a set shared by two entries is charged to each,
/// so bytes() is an upper bound. On every admission, and on
/// EvictToBudget(), unreferenced entries (no caller holds any of their
/// sets; a result never is referenced) are evicted, least recently used
/// (admitted or hit) first, while bytes() exceeds the budget.
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
  /// the pool. `budget_bytes` = 0 (the default) is unbounded.
  explicit CandidateCache(const Graph& g, size_t budget_bytes = 0)
      : g_(&g), budget_(budget_bytes) {}

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

  /// Copies the current result under `key` to `*out`; false if none.
  /// Not counted in stats().
  bool FindResult(const std::string& key, CachedResult* out);

  /// Stores `result` under `key` at the current graph version.
  void AdmitResult(const std::string& key, CachedResult result);

  /// Drops every entry no caller references anymore (use_count == 1);
  /// returns how many were evicted. Entries still referenced by a live
  /// CandidateSpace survive and keep their identity.
  size_t EvictUnused();

  /// Drops exactly the entries stamped with a graph version other than
  /// the current one; returns how many were evicted. Still-referenced
  /// stale sets stay alive through their outstanding handles (shared_ptr
  /// semantics) but leave the pool, so no future Get() can observe them.
  struct StaleEvicted {
    size_t sets = 0;     ///< label/degree and memo entries
    size_t results = 0;  ///< stored results
  };
  StaleEvicted EvictStale();

  /// Evicts as an admission does, once references have dropped.
  size_t EvictToBudget();

  /// Admission epoch, for cancellation rollback: every insert (and stale
  /// replace) bumps an internal counter and stamps the entry with it.
  /// MarkEpoch() reads the counter; EvictInsertedSince(mark) drops the
  /// entries admitted after that mark that no caller references anymore
  /// (use_count == 1 — under the engine's one-at-a-time admission, that
  /// is every set a cancelled evaluation interned, since its scratch
  /// state was destroyed on unwind). The QueryEngine brackets every
  /// query with this pair so a timed-out run admits nothing
  /// (the no-cache-poisoning invariant; ARCHITECTURE.md "Robustness").
  uint64_t MarkEpoch() const;
  size_t EvictInsertedSince(uint64_t mark);

  /// Number of entries of all three kinds, and their byte charge.
  size_t size() const;
  size_t bytes() const;

  /// Pool telemetry, cumulative since construction.
  struct Stats {
    uint64_t hits = 0;     ///< Get()/FindSimulation() served from the pool
    uint64_t misses = 0;   ///< Get()/FindSimulation() found nothing current
    uint64_t evicted = 0;  ///< entries the byte budget evicted
  };
  /// Snapshot of the hit/miss counters (exact when quiescent).
  Stats stats() const;

  /// The graph the pool is bound to.
  const Graph& graph() const { return *g_; }

 private:
  /// An entry of any kind; its key's first byte names the kind.
  struct Entry {
    std::vector<CandidateSetRef> sets = {};  ///< none for a result
    CachedResult result = {};                ///< results only
    uint64_t version = 0;   ///< graph version() it was computed against
    uint64_t epoch = 0;     ///< admission order (EvictInsertedSince)
    uint64_t last_use = 0;  ///< tick of its admission or latest hit
    size_t bytes = 0;       ///< its charge against the budget
    bool Unreferenced() const {
      return std::all_of(sets.begin(), sets.end(),
                         [](const CandidateSetRef& s) {
                           return s.use_count() == 1;
                         });
    }
  };

  /// The current entry under `key`, touched, or null. Caller holds mu_.
  Entry* FindLocked(const std::string& key, uint64_t version);
  /// Stores `entry` under `key` unless a current one (a racing
  /// admission's) is there, and tells `*admitted` which. Then touches
  /// the entry and evicts to budget while holding its sets, which it
  /// returns. Caller holds mu_.
  std::vector<CandidateSetRef> AdmitLocked(std::string key, Entry entry,
                                           uint64_t version,
                                           bool* admitted = nullptr);
  /// Erases the entries that satisfy `drop(key, entry)`, releasing their
  /// charge; returns how many. Caller holds mu_.
  template <typename Pred>
  size_t EraseIf(Pred drop);
  /// EvictToBudget() with mu_ held.
  size_t SqueezeLocked();

  const Graph* g_;
  const size_t budget_;  // 0 = unbounded
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  Stats stats_;
  uint64_t epoch_counter_ = 0;  // guarded by mu_
  uint64_t clock_ = 0;          // recency ticks, guarded by mu_
  size_t bytes_ = 0;            // guarded by mu_
};

}  // namespace qgp

#endif  // QGP_CORE_CANDIDATE_CACHE_H_
