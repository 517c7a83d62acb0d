#include "shard/sharded_engine.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "core/pattern_parser.h"
#include "graph/graph_algorithms.h"
#include "parallel/dpar.h"

namespace qgp::shard {

namespace {

/// The gather seam: hit once per shard while its slice is merged, so
/// tests can drop or delay a slice mid-gather deterministically.
Status GatherSeam() {
  QGP_FAILPOINT("shard.gather");
  return Status::Ok();
}

/// True iff the directed labeled edge exists in the (post-delta) graph.
bool EdgeExists(const Graph& g, VertexId src, VertexId dst, Label label) {
  if (src >= g.num_vertices() || dst >= g.num_vertices()) return false;
  return g.HasEdge(src, dst, label);
}

}  // namespace

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    Graph graph, const ShardedOptions& options) {
  DParConfig config;
  config.num_fragments = options.num_shards;
  config.d = options.d;
  config.balance_factor = options.balance_factor;
  QGP_ASSIGN_OR_RETURN(Partition partition, DPar(graph, config));
  return Create(std::move(graph), std::move(partition), options);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    Graph graph, Partition partition, const ShardedOptions& options) {
  if (options.d <= 0) {
    return Status::InvalidArgument("ShardedOptions::d must be positive");
  }
  if (partition.d < options.d) {
    return Status::InvalidArgument(
        "partition preserves d = " + std::to_string(partition.d) +
        " hops, less than the requested serving depth " +
        std::to_string(options.d));
  }
  QGP_RETURN_IF_ERROR(partition.Validate(graph));
  const bool remote = !options.remote_ports.empty();
  if (remote && options.remote_ports.size() != partition.fragments.size()) {
    return Status::InvalidArgument(
        "remote_ports lists " + std::to_string(options.remote_ports.size()) +
        " ports for " + std::to_string(partition.fragments.size()) +
        " fragments");
  }
  std::unique_ptr<ShardedEngine> engine(
      new ShardedEngine(std::move(graph), options));
  engine->pool_ = std::make_unique<ThreadPool>(partition.fragments.size());
  engine->shards_.reserve(partition.fragments.size());
  for (size_t i = 0; i < partition.fragments.size(); ++i) {
    Fragment& f = partition.fragments[i];
    ShardState state;
    state.local_to_global = f.sub.local_to_global;
    state.global_to_local = f.sub.global_to_local;
    state.owned_global = f.owned_global;
    if (remote) {
      service::ClientOptions copts;
      copts.read_timeout_ms = options.remote_read_timeout_ms;
      QGP_ASSIGN_OR_RETURN(
          service::ServiceClient client,
          service::ServiceClient::Connect(options.remote_ports[i],
                                          options.remote_host, copts));
      state.shard = std::make_unique<RemoteShard>(std::move(client));
    } else {
      state.shard = std::make_unique<InProcessShard>(
          MakeShardEngine(std::move(f.sub.graph), std::move(f.owned_local),
                          options.d, options.engine));
    }
    engine->shards_.push_back(std::move(state));
  }
  return engine;
}

Result<ShardedOutcome> ShardedEngine::Submit(const QuerySpec& spec) {
  std::lock_guard<std::mutex> admission(admission_mu_);
  if (degraded()) {
    return Status::Internal(
        "sharded engine is degraded (a shard rejected a routed delta); "
        "answers could be served from diverged fragments — rebuild the "
        "sharded engine");
  }
  QGP_RETURN_IF_ERROR(
      spec.pattern.Validate(spec.options.max_quantified_per_path));
  if (spec.pattern.Radius() > d_) {
    return Status::InvalidArgument(
        "pattern radius " + std::to_string(spec.pattern.Radius()) +
        " exceeds the partition's hop preservation d = " + std::to_string(d_) +
        "; rebuild the sharded engine with a larger d");
  }
  WallTimer timer;
  // One serialization against the master dict; every shard re-parses
  // against its own (the dicts may have diverged after routed deltas).
  const std::string pattern_text =
      PatternParser::Serialize(spec.pattern, graph_.dict());

  // Deadline plumbing. The query-level token bounds the whole
  // scatter-gather; per-shard tokens additionally bound each shard so
  // one stuck shard becomes a policy-visible failure, not a stuck
  // query.
  const CancelToken* caller = spec.options.cancel;
  std::optional<CancelToken> query_token;
  if (spec.timeout_ms > 0) {
    query_token.emplace(
        CancelToken::Clock::now() + std::chrono::milliseconds(spec.timeout_ms),
        caller);
  }
  const CancelToken* base = query_token.has_value() ? &*query_token : caller;
  std::deque<CancelToken> shard_tokens;  // deque: stable addresses
  const size_t n = shards_.size();
  std::vector<const CancelToken*> tokens(n, base);
  if (options_.shard_timeout_ms > 0) {
    const auto deadline = CancelToken::Clock::now() +
                          std::chrono::milliseconds(options_.shard_timeout_ms);
    for (size_t i = 0; i < n; ++i) {
      tokens[i] = &shard_tokens.emplace_back(deadline, base);
    }
  }

  auto run_one = [&](size_t i) -> Result<QueryOutcome> {
    QGP_FAILPOINT("shard.scatter");
    ShardQuery query;
    query.pattern_text = pattern_text;
    query.algo = spec.algo;
    query.options = spec.options;
    query.options.cancel = tokens[i];
    query.share_cache = spec.share_cache;
    query.timeout_ms = options_.shard_timeout_ms > 0 ? options_.shard_timeout_ms
                                                     : spec.timeout_ms;
    query.tag = spec.tag;
    return shards_[i].shard->Submit(query);
  };

  // Scatter: one fan-out over the shards, this thread running shards
  // itself next to the pool's workers.
  std::vector<std::optional<Result<QueryOutcome>>> results(n);
  ThreadPool::ParallelForDynamic(
      pool_.get(), n, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) results[i].emplace(run_one(i));
      });

  // The whole-query deadline / an explicit cancel beats any per-shard
  // policy: a cancelled coordinator reports kCancelled (or
  // kDeadlineExceeded), never a partial answer.
  if (base != nullptr && base->ShouldStopExact()) return base->ToStatus();

  ShardedOutcome out;
  out.tag = spec.tag;
  out.shards.resize(n);
  size_t total_answers = 0;
  for (const std::optional<Result<QueryOutcome>>& r : results) {
    if (r->ok()) total_answers += r->value().answers.size();
  }
  out.answers.reserve(total_answers);
  std::optional<Status> first_error;
  size_t failures = 0;
  for (size_t i = 0; i < n; ++i) {
    ShardSlice& slice = out.shards[i];
    slice.shard = i;
    Status failed = GatherSeam();
    Result<QueryOutcome>& r = *results[i];
    if (failed.ok() && !r.ok()) failed = r.status();
    if (failed.ok()) {
      const std::vector<VertexId>& l2g = shards_[i].local_to_global;
      QueryOutcome& q = r.value();
      slice.answers.reserve(q.answers.size());
      for (VertexId lv : q.answers) {
        if (lv >= l2g.size()) {
          // Not a policy matter: a shard answering outside its own id
          // space is corruption, whatever the failure policy says.
          return Status::Internal(
              "shard " + std::to_string(i) + " returned local id " +
              std::to_string(lv) + " outside its fragment (" +
              std::to_string(l2g.size()) + " vertices)");
        }
        slice.answers.push_back(l2g[lv]);
      }
      slice.ok = true;
      slice.stats = q.stats;
      slice.wall_ms = q.wall_ms;
      slice.algo = q.algo;
      out.stats.Add(q.stats);
      out.answers.insert(out.answers.end(), slice.answers.begin(),
                         slice.answers.end());
      continue;
    }
    if (failed.code() == StatusCode::kCancelled) return failed;
    slice.ok = false;
    slice.error_code = std::string(StatusCodeName(failed.code()));
    slice.error_message = failed.message();
    if (!first_error.has_value()) first_error = failed;
    ++failures;
  }
  if (failures > 0) {
    if (options_.failure_policy == FailurePolicy::kFailQuery ||
        failures == n) {
      return *first_error;
    }
    out.partial = true;
  }
  // Owned sets are disjoint across shards, so this is pure
  // presentation-order canonicalization — never a dedup of a
  // double-counted answer.
  Canonicalize(out.answers);
  out.wall_ms = timer.ElapsedSeconds() * 1000.0;
  return out;
}

Result<ShardedDeltaOutcome> ShardedEngine::ApplyDelta(
    const NamedGraphDelta& delta) {
  std::lock_guard<std::mutex> admission(admission_mu_);
  return ApplyDeltaAdmitted(delta);
}

Result<ShardedDeltaOutcome> ShardedEngine::ApplyDeltaAdmitted(
    const NamedGraphDelta& delta) {
  if (degraded()) {
    return Status::Internal(
        "sharded engine is degraded (a shard rejected a routed delta); "
        "refusing further mutations — rebuild the sharded engine");
  }
  WallTimer timer;
  // Master first: it is the authority the routed sub-deltas are cut
  // from. A master rejection leaves every shard untouched.
  GraphDelta resolved = ResolveDelta(delta, &graph_.mutable_dict());
  QGP_ASSIGN_OR_RETURN(GraphDeltaSummary summary, graph_.ApplyDelta(resolved));

  ShardedDeltaOutcome out;
  out.graph_version = graph_.version();
  out.vertices_added = summary.vertices_added.size();
  out.vertices_removed = summary.vertices_removed.size();
  out.edges_added = summary.edges_added.size();
  out.edges_removed = summary.edges_removed.size();

  // Ownership bookkeeping: new vertices go to the least-owning shard
  // (ties to the lowest index — deterministic), removed vertices leave
  // their owner's set. Ownership never migrates otherwise.
  std::vector<std::vector<VertexId>> newly_owned(shards_.size());
  for (const auto& [v, label] : summary.vertices_added) {
    (void)label;
    size_t target = 0;
    for (size_t i = 1; i < shards_.size(); ++i) {
      if (shards_[i].owned_global.size() + newly_owned[i].size() <
          shards_[target].owned_global.size() + newly_owned[target].size()) {
        target = i;
      }
    }
    newly_owned[target].push_back(v);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::vector<VertexId>& owned = shards_[i].owned_global;
    if (!newly_owned[i].empty()) {
      owned.insert(owned.end(), newly_owned[i].begin(), newly_owned[i].end());
      std::sort(owned.begin(), owned.end());
    }
    for (const auto& [v, label] : summary.vertices_removed) {
      (void)label;
      auto it = std::lower_bound(owned.begin(), owned.end(), v);
      if (it != owned.end() && *it == v) owned.erase(it);
    }
  }

  // The perturbed region: every vertex within d hops of a touched
  // vertex can see its candidacy change. Only shards owning part of
  // that region need a routed hop; the rest keep their warm caches.
  const std::vector<VertexId> region_d = KHopBall(
      graph_,
      TouchedVertices(summary, nullptr, nullptr, /*additions_only=*/false),
      d_);

  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardState& state = shards_[i];
    // affected = owned_i ∩ region_d (both sorted).
    std::vector<VertexId> affected;
    std::set_intersection(state.owned_global.begin(), state.owned_global.end(),
                          region_d.begin(), region_d.end(),
                          std::back_inserter(affected));
    // The fragment must keep covering N_d(v) for every affected owned
    // vertex: anything in those balls the shard has never replicated
    // becomes an import.
    std::vector<VertexId> imports;
    for (VertexId g : KHopBall(graph_, affected, d_)) {
      if (state.global_to_local.find(g) == state.global_to_local.end()) {
        imports.push_back(g);
      }
    }

    const size_t old_local = state.local_to_global.size();
    std::unordered_map<VertexId, VertexId> import_local;
    import_local.reserve(imports.size());
    for (size_t k = 0; k < imports.size(); ++k) {
      import_local[imports[k]] =
          static_cast<VertexId>(old_local + k);
    }
    auto now_local = [&](VertexId g) -> std::optional<VertexId> {
      auto it = state.global_to_local.find(g);
      if (it != state.global_to_local.end()) return it->second;
      auto imp = import_local.find(g);
      if (imp != import_local.end()) return imp->second;
      return std::nullopt;
    };

    NamedGraphDelta local;
    for (VertexId g : imports) {
      local.add_vertices.push_back(graph_.dict().Name(graph_.vertex_label(g)));
    }
    for (const auto& [v, label] : summary.vertices_removed) {
      (void)label;
      auto it = state.global_to_local.find(v);
      if (it != state.global_to_local.end()) {
        local.remove_vertices.push_back(it->second);
      }
    }
    for (const EdgeTriple& e : summary.edges_removed) {
      auto src = state.global_to_local.find(e.src);
      auto dst = state.global_to_local.find(e.dst);
      if (src != state.global_to_local.end() &&
          dst != state.global_to_local.end()) {
        local.remove_edges.push_back(
            {src->second, dst->second, graph_.dict().Name(e.label)});
      }
    }
    // Edges entering the fragment: delta-added edges between now-local
    // endpoints, plus every master edge incident to an import whose
    // other endpoint is now-local (the import arrives with its full
    // local adjacency). Both sources can name the same edge; a set
    // dedups, and only edges alive in the post-delta master travel.
    std::set<std::tuple<VertexId, VertexId, Label>> add_edges;
    for (const EdgeTriple& e : summary.edges_added) {
      auto src = now_local(e.src);
      auto dst = now_local(e.dst);
      if (src.has_value() && dst.has_value() &&
          EdgeExists(graph_, e.src, e.dst, e.label)) {
        add_edges.insert({*src, *dst, e.label});
      }
    }
    for (VertexId g : imports) {
      for (const Neighbor& nb : graph_.OutNeighbors(g)) {
        auto dst = now_local(nb.v);
        if (dst.has_value()) {
          add_edges.insert({import_local[g], *dst, nb.label});
        }
      }
      for (const Neighbor& nb : graph_.InNeighbors(g)) {
        auto src = now_local(nb.v);
        if (src.has_value()) {
          add_edges.insert({*src, import_local[g], nb.label});
        }
      }
    }
    for (const auto& [src, dst, label] : add_edges) {
      local.add_edges.push_back({src, dst, graph_.dict().Name(label)});
    }

    std::vector<VertexId> own_local;
    for (VertexId g : newly_owned[i]) {
      // A fresh master vertex is never in the old fragment, so it is
      // always an import here (g ∈ ball(g) ⊆ need).
      own_local.push_back(import_local.at(g));
    }
    std::sort(own_local.begin(), own_local.end());

    if (local.Empty() && own_local.empty()) continue;
    ++out.shards_touched;
    out.vertices_imported += imports.size();
    Status applied = state.shard->ApplyDelta(local, own_local);
    if (!applied.ok()) {
      // The master and any earlier shards already moved; this shard is
      // now behind. Sticky-degrade rather than serve diverged answers.
      degraded_.store(true, std::memory_order_release);
      return Status::Internal(
          "shard " + std::to_string(i) + " failed to apply routed delta (" +
          applied.ToString() + "); sharded engine is now degraded");
    }
    for (VertexId g : imports) {
      state.global_to_local[g] = static_cast<VertexId>(
          state.local_to_global.size());
      state.local_to_global.push_back(g);
    }
  }
  out.wall_ms = timer.ElapsedSeconds() * 1000.0;
  return out;
}

std::vector<size_t> ShardedEngine::OwnedCounts() const {
  std::vector<size_t> counts;
  counts.reserve(shards_.size());
  for (const ShardState& s : shards_) counts.push_back(s.owned_global.size());
  return counts;
}

}  // namespace qgp::shard
