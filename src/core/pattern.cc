#include "core/pattern.h"

#include <algorithm>
#include <deque>
#include <sstream>

namespace qgp {

PatternNodeId Pattern::AddNode(Label label, std::string name) {
  PatternNodeId id = static_cast<PatternNodeId>(nodes_.size());
  nodes_.push_back(PatternNode{label, std::move(name)});
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  if (focus_ == kInvalidPatternId) focus_ = id;
  return id;
}

Status Pattern::AddEdge(PatternNodeId src, PatternNodeId dst, Label label,
                        Quantifier quantifier) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Status::InvalidArgument("pattern edge endpoint out of range");
  }
  QGP_RETURN_IF_ERROR(quantifier.Validate());
  PatternEdgeId id = static_cast<PatternEdgeId>(edges_.size());
  edges_.push_back(PatternEdge{src, dst, label, quantifier});
  out_edges_[src].push_back(id);
  in_edges_[dst].push_back(id);
  return Status::Ok();
}

Status Pattern::set_focus(PatternNodeId node) {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("focus out of range");
  }
  focus_ = node;
  return Status::Ok();
}

std::vector<PatternEdgeId> Pattern::NegatedEdgeIds() const {
  std::vector<PatternEdgeId> out;
  for (PatternEdgeId e = 0; e < edges_.size(); ++e) {
    if (edges_[e].quantifier.IsNegation()) out.push_back(e);
  }
  return out;
}

bool Pattern::IsConventional() const {
  return std::all_of(edges_.begin(), edges_.end(), [](const PatternEdge& e) {
    return e.quantifier.IsExistential();
  });
}

Pattern Pattern::Stratified() const {
  Pattern q;
  for (const PatternNode& n : nodes_) q.AddNode(n.label, n.name);
  for (const PatternEdge& e : edges_) {
    // Endpoints are in range by construction; ignore the status.
    (void)q.AddEdge(e.src, e.dst, e.label, Quantifier());
  }
  (void)q.set_focus(focus_);
  return q;
}

Result<std::pair<Pattern, SubPattern>> Pattern::Pi() const {
  if (focus_ == kInvalidPatternId) {
    return Status::InvalidArgument("pattern has no focus");
  }
  const size_t n = nodes_.size();
  // Π(Q) construction (docs/ARCHITECTURE.md, "Semantics readings"). The
  // paper's prose ("nodes connected to xo ... with non-negated edges")
  // is read as:
  //   1. delete every negated edge;
  //   2. for each negated edge, drop its focus-FAR endpoint (the one at
  //      greater undirected distance from xo in the deleted pattern —
  //      that endpoint exists to give the negation its meaning, per the
  //      paper's "Π(Q) excludes all those nodes connected via at least
  //      one negated edge");
  //   3. keep the nodes still connected to xo without the dropped ones.
  // This reproduces Fig. 3 exactly (Q3 loses z2 and its bad-rating edge
  // even though z2 also touches the shared product node; Q5 loses UK and
  // PhD), and is the identity on positive patterns, as §2.2 requires.
  std::vector<char> dropped(n, 0);
  const bool has_negated = !NegatedEdgeIds().empty();
  if (has_negated) {
    // Undirected BFS distances from the focus over non-negated edges.
    std::vector<uint32_t> dist(n, UINT32_MAX);
    std::deque<PatternNodeId> queue{focus_};
    dist[focus_] = 0;
    while (!queue.empty()) {
      PatternNodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](PatternNodeId w) {
        if (dist[w] == UINT32_MAX) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
      };
      for (PatternEdgeId e : out_edges_[u]) {
        if (!edges_[e].quantifier.IsNegation()) visit(edges_[e].dst);
      }
      for (PatternEdgeId e : in_edges_[u]) {
        if (!edges_[e].quantifier.IsNegation()) visit(edges_[e].src);
      }
    }
    for (PatternEdgeId e : NegatedEdgeIds()) {
      PatternNodeId s = edges_[e].src, t = edges_[e].dst;
      // Drop the endpoint farther from the focus (ties: the target).
      PatternNodeId victim = dist[t] >= dist[s] ? t : s;
      if (victim == focus_) victim = victim == t ? s : t;
      if (victim != focus_) dropped[victim] = 1;
    }
  }
  // Keep the focus component over non-negated edges avoiding dropped
  // nodes.
  std::vector<char> reachable(n, 0);
  {
    std::deque<PatternNodeId> queue{focus_};
    reachable[focus_] = 1;
    while (!queue.empty()) {
      PatternNodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](PatternNodeId w) {
        if (!reachable[w] && !dropped[w]) {
          reachable[w] = 1;
          queue.push_back(w);
        }
      };
      for (PatternEdgeId e : out_edges_[u]) {
        if (!edges_[e].quantifier.IsNegation()) visit(edges_[e].dst);
      }
      for (PatternEdgeId e : in_edges_[u]) {
        if (!edges_[e].quantifier.IsNegation()) visit(edges_[e].src);
      }
    }
  }

  Pattern pi;
  SubPattern map;
  map.node_from_original.assign(n, kInvalidPatternId);
  for (PatternNodeId u = 0; u < n; ++u) {
    if (!reachable[u]) continue;
    PatternNodeId nu = pi.AddNode(nodes_[u].label, nodes_[u].name);
    map.node_from_original[u] = nu;
    map.node_to_original.push_back(u);
  }
  for (PatternEdgeId e = 0; e < edges_.size(); ++e) {
    const PatternEdge& pe = edges_[e];
    if (pe.quantifier.IsNegation()) continue;
    PatternNodeId s = map.node_from_original[pe.src];
    PatternNodeId d = map.node_from_original[pe.dst];
    if (s == kInvalidPatternId || d == kInvalidPatternId) continue;
    QGP_RETURN_IF_ERROR(pi.AddEdge(s, d, pe.label, pe.quantifier));
    map.edge_to_original.push_back(e);
  }
  QGP_RETURN_IF_ERROR(pi.set_focus(map.node_from_original[focus_]));
  return std::make_pair(std::move(pi), std::move(map));
}

Result<Pattern> Pattern::Positify(PatternEdgeId e) const {
  if (e >= edges_.size()) {
    return Status::InvalidArgument("positify: edge id out of range");
  }
  if (!edges_[e].quantifier.IsNegation()) {
    return Status::InvalidArgument("positify: edge is not negated");
  }
  Pattern q = *this;
  q.edges_[e].quantifier = Quantifier();  // sigma(e) >= 1
  return q;
}

namespace {

// DFS over directed simple paths, tracking the number of non-existential
// quantifiers and negated edges along the current path. Patterns are tiny
// (|EQ| <= ~12), so exhaustive enumeration is fine.
struct PathChecker {
  const Pattern& q;
  int max_quantified;
  std::vector<char> on_path;
  Status failure = Status::Ok();

  PathChecker(const Pattern& pattern, int max_q)
      : q(pattern), max_quantified(max_q), on_path(pattern.num_nodes(), 0) {}

  void Dfs(PatternNodeId u, int quantified, int negated) {
    if (!failure.ok()) return;
    if (quantified > max_quantified) {
      failure = Status::InvalidArgument(
          "pattern violates the path restriction: more than " +
          std::to_string(max_quantified) +
          " non-existential quantifiers on a simple path");
      return;
    }
    if (negated > 1) {
      failure = Status::InvalidArgument(
          "pattern violates the path restriction: two negated edges on a "
          "simple path (double negation)");
      return;
    }
    on_path[u] = 1;
    for (PatternEdgeId eid : q.OutEdgeIds(u)) {
      const PatternEdge& e = q.edge(eid);
      if (on_path[e.dst]) continue;  // simple paths only
      const Quantifier& f = e.quantifier;
      int dq = f.IsExistential() ? 0 : 1;
      int dn = f.IsNegation() ? 1 : 0;
      Dfs(e.dst, quantified + dq, negated + dn);
      if (!failure.ok()) break;
    }
    on_path[u] = 0;
  }
};

}  // namespace

Status Pattern::Validate(int max_quantified_per_path) const {
  if (nodes_.empty()) return Status::InvalidArgument("pattern has no nodes");
  if (focus_ == kInvalidPatternId || focus_ >= nodes_.size()) {
    return Status::InvalidArgument("pattern focus not set");
  }
  for (const PatternEdge& e : edges_) {
    QGP_RETURN_IF_ERROR(e.quantifier.Validate());
  }
  // Weak connectivity (over all edges, negated included).
  if (nodes_.size() > 1) {
    std::vector<char> seen(nodes_.size(), 0);
    std::deque<PatternNodeId> queue{focus_};
    seen[focus_] = 1;
    size_t count = 1;
    while (!queue.empty()) {
      PatternNodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](PatternNodeId w) {
        if (!seen[w]) {
          seen[w] = 1;
          ++count;
          queue.push_back(w);
        }
      };
      for (PatternEdgeId e : out_edges_[u]) visit(edges_[e].dst);
      for (PatternEdgeId e : in_edges_[u]) visit(edges_[e].src);
    }
    if (count != nodes_.size()) {
      return Status::InvalidArgument(
          "pattern is not connected to its focus");
    }
  }
  // Path restrictions (the §2.2 Remark), from every start node.
  PathChecker checker(*this, max_quantified_per_path);
  for (PatternNodeId u = 0; u < nodes_.size(); ++u) {
    checker.Dfs(u, 0, 0);
    if (!checker.failure.ok()) return checker.failure;
  }
  return Status::Ok();
}

std::vector<int> Pattern::FocusDistances() const {
  std::vector<int> dist(nodes_.size(), -1);
  if (focus_ == kInvalidPatternId) return dist;
  std::deque<PatternNodeId> queue{focus_};
  dist[focus_] = 0;
  while (!queue.empty()) {
    PatternNodeId u = queue.front();
    queue.pop_front();
    auto visit = [&](PatternNodeId w) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    };
    for (PatternEdgeId e : out_edges_[u]) visit(edges_[e].dst);
    for (PatternEdgeId e : in_edges_[u]) visit(edges_[e].src);
  }
  return dist;
}

int Pattern::Radius() const {
  int radius = 0;
  for (int d : FocusDistances()) radius = std::max(radius, d);
  return radius;
}

std::string Pattern::ToString(const LabelDict* dict) const {
  auto label_name = [&](Label l) -> std::string {
    if (dict != nullptr) return dict->Name(l);
    return "L" + std::to_string(l);
  };
  std::ostringstream out;
  out << "pattern(" << nodes_.size() << " nodes, " << edges_.size()
      << " edges, focus=" << focus_ << ")\n";
  for (PatternNodeId u = 0; u < nodes_.size(); ++u) {
    out << "  node " << u;
    if (!nodes_[u].name.empty()) out << " [" << nodes_[u].name << "]";
    out << " : " << label_name(nodes_[u].label);
    if (u == focus_) out << "  (focus)";
    out << '\n';
  }
  for (const PatternEdge& e : edges_) {
    out << "  edge " << e.src << " -> " << e.dst << " : "
        << label_name(e.label);
    if (!e.quantifier.IsExistential()) {
      out << "  [" << e.quantifier.ToString() << "]";
    }
    out << '\n';
  }
  return out.str();
}

bool operator==(const Pattern& a, const Pattern& b) {
  if (a.focus_ != b.focus_ || a.nodes_.size() != b.nodes_.size() ||
      a.edges_.size() != b.edges_.size()) {
    return false;
  }
  for (size_t i = 0; i < a.nodes_.size(); ++i) {
    if (a.nodes_[i].label != b.nodes_[i].label) return false;
  }
  for (size_t i = 0; i < a.edges_.size(); ++i) {
    const PatternEdge& x = a.edges_[i];
    const PatternEdge& y = b.edges_[i];
    if (x.src != y.src || x.dst != y.dst || x.label != y.label ||
        !(x.quantifier == y.quantifier)) {
      return false;
    }
  }
  return true;
}

}  // namespace qgp
