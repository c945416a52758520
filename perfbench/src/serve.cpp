/// \file serve.cpp
/// `serve`: the replicated serving tier under an open loop with live ingest.
///
/// A FrontDoor over 2 replicas of 2 nodes x ppn 2 (replicas dispatch one at
/// a time, so at most 4 rank threads run at once), bfs::share_all() and
/// 64-lane waves. Queries arrive as a Poisson process in virtual time (an
/// open loop: the schedule does not wait for answers), 50% full-distance,
/// 25% s-t and 25% k-hop, plus a small SSSP/PageRank analytics share. One
/// dyn::SnapshotManager feeds both replicas through graph_source: epochs
/// seal on a fixed virtual cadence and compaction is fill-triggered. It is
/// the only workload for the engine and the dynamic graph layer, and it
/// shows the per-dispatch fixed cost.
///
/// Every wave lane is checked against graph::reference_bfs on a CSR the
/// benchmark rebuilds itself from the base graph and its own mutation
/// stream at the lane's pinned epoch; degraded answers and SSSP/PageRank
/// answers are checked against the references on the same epoch.
///
/// One pass serves the same query template at several offered rates: the
/// fixed `lo` and `hi` rates, and a bisection for the highest rate whose
/// full-distance p99 and drain time meet the limit (qps_at_slo).

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <limits>
#include <stdexcept>

#include "engine/frontdoor.hpp"
#include "graph/dist_graph.hpp"
#include "graph/dynamic/compactor.hpp"
#include "graph/dynamic/snapshot.hpp"
#include "graph/partition.hpp"
#include "graph/reference_algos.hpp"
#include "graph/reference_bfs.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "search.hpp"
#include "workload.hpp"

namespace perfbench {

namespace graph = numabfs::graph;
namespace bfs = numabfs::bfs;
namespace dyn = numabfs::dyn;
namespace engine = numabfs::engine;
namespace rt = numabfs::rt;
namespace sim = numabfs::sim;

namespace {

constexpr int kScale = 13;
constexpr int kEdgefactor = 16;
constexpr int kNodes = 2;
constexpr int kPpn = 2;
constexpr int kReplicas = 2;
constexpr int kInteractive = 4096;
constexpr int kAnalytics = 2;
constexpr int kQueries = kInteractive + kAnalytics;
constexpr double kLoQps = 250e3;
constexpr double kHiQps = 450e3;
constexpr double kMaxQps = 950e3;  ///< top of the qps_at_slo search
constexpr double kLimitMs = 0.5;  ///< full-distance p99 and drain limit
constexpr int kSearchSteps = 3;
constexpr double kEpochNs = 4e6;  ///< an epoch seals every 4 virtual ms
constexpr int kOpsPerEpoch = 2048;
constexpr double kDeleteFrac = 0.3;

struct QueryTemplate {
  engine::QueryKind kind = engine::QueryKind::full_distances;
  graph::Vertex source = 0, target = 0;
  int k = 0;
  double unit_gap = 0;  ///< exponential, mean 1: scaled by 1/rate
};

graph::Vertex searchable(const graph::Csr& g, Rng& rng) {
  for (;;) {
    const auto v = static_cast<graph::Vertex>(rng.next() % g.num_vertices());
    if (g.degree(v) > 0) return v;
  }
}

/// A vertex drawn in proportion to its degree: the endpoint of a uniformly
/// drawn adjacency entry.
graph::Vertex popular(const graph::Csr& g, Rng& rng) {
  return g.adj()[rng.next() % g.adj().size()];
}

std::vector<QueryTemplate> make_queries(const graph::Csr& g, std::uint64_t seed) {
  // The arrival trace (gaps and kinds) is fixed. The seed draws each
  // query's vertices in proportion to degree (popular vertices are asked
  // about more). Drawing them through a per-seed pool of 2048 vertices made
  // the p99 latencies hinge on which rare far-out vertices the pool held
  // (16-19% spread across seeds); direct draws keep it near 4%. The
  // references are precomputed per (epoch, query vertex).
  Rng trace(kTraceSeed, 4), rng(seed, 4);
  std::vector<QueryTemplate> qs(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    QueryTemplate& q = qs[static_cast<std::size_t>(i)];
    const double u = trace.uniform();
    q.unit_gap = trace.exponential();
    q.source = popular(g, rng);
    q.target = popular(g, rng);
    q.k = 2 + static_cast<int>(rng.next() % 3);
    q.kind = u <= 0.5    ? engine::QueryKind::full_distances
             : u <= 0.75 ? engine::QueryKind::st_reachability
                         : engine::QueryKind::k_hop;
  }
  // Analytics ride the fixed trace, vertices included. SSSP arrives mid
  // stream; the whole-graph PageRank (a job of several virtual ms that owns
  // a replica until it ends) is the last arrival, so the interactive p99
  // measures serving rather than the one window that job would block.
  QueryTemplate& sssp = qs[kQueries / 2];
  sssp.kind = engine::QueryKind::sssp;
  sssp.source = searchable(g, trace);
  sssp.target = searchable(g, trace);
  qs.back().kind = engine::QueryKind::pagerank;
  qs.back().source = searchable(g, trace);
  return qs;
}

/// The mutation batch sealed as epoch `epoch` (1-based): inserts between
/// uniform endpoints and deletes of base edges, a pure function of the seed.
std::vector<dyn::EdgeOp> ingest_batch(const graph::Csr& base, std::uint64_t seed,
                                      std::uint64_t epoch) {
  Rng rng(seed, 1000 + epoch);
  std::vector<dyn::EdgeOp> ops(kOpsPerEpoch);
  const std::uint64_t n = base.num_vertices();
  for (dyn::EdgeOp& op : ops) {
    if (rng.uniform() <= kDeleteFrac) {
      const graph::Vertex u = searchable(base, rng);
      const auto nb = base.neighbors(u);
      op = {u, nb[rng.next() % nb.size()], true};
    } else {
      const auto u = static_cast<graph::Vertex>(rng.next() % n);
      auto v = static_cast<graph::Vertex>(rng.next() % (n - 1));
      if (v >= u) ++v;
      op = {u, v, false};
    }
  }
  return ops;
}

std::uint64_t edge_key(graph::Vertex u, graph::Vertex v) {
  return static_cast<std::uint64_t>(std::min(u, v)) << 32 | std::max(u, v);
}

/// graph::reference_bfs from one source at one epoch, kept as a summary:
/// for every radius r, a hash of the distance array cut at r (deeper
/// vertices read as unreached) and the count of vertices within r. A lane is
/// checked by hashing its distances the same way. Full depth arrays for
/// every (epoch, source) would take ~100 MiB and make peak_rss_mb measure
/// the benchmark rather than the program; the summaries take a few MiB.
struct Ref {
  std::vector<std::uint64_t> hash;    ///< [r]: depths <= r kept
  std::vector<std::uint64_t> within;  ///< [r]: vertices at depth <= r
  std::uint64_t edges = 0;  ///< undirected edges of the source's component
  std::size_t radius(std::uint64_t r) const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(r, hash.size() - 1));
  }
};

/// Order-free hash of a distance array: the sum of per-vertex mixes.
std::uint64_t vertex_hash(std::uint64_t u, std::uint64_t d) { return mix64(u << 16 | d); }

std::uint64_t lane_hash(const std::vector<engine::Dist>& dist) {
  std::uint64_t h = 0;
  for (std::size_t u = 0; u < dist.size(); ++u) h += vertex_hash(u, dist[u]);
  return h;
}

/// The reference graph at every epoch, rebuilt from the base edge set and
/// the mutation stream in the benchmark's own code (last write wins within
/// an epoch batch, as the dynamic layer specifies), and the reference BFS
/// of query sources on them. Both are built on demand and kept: their
/// content depends only on the seed.
class EpochGraphs {
 public:
  EpochGraphs(const graph::Csr& base, std::uint64_t seed) : base_(base), seed_(seed) {
    for (std::uint64_t u = 0; u < base.num_vertices(); ++u)
      for (const graph::Vertex v : base.neighbors(static_cast<graph::Vertex>(u)))
        if (u < v) edges_.push_back(edge_key(static_cast<graph::Vertex>(u), v));
    std::sort(edges_.begin(), edges_.end());
  }

  const graph::Csr& at(std::uint64_t epoch) {
    while (csr_.size() <= epoch) {
      if (!csr_.empty()) {
        std::map<std::uint64_t, bool> batch;  // edge -> removed; last write wins
        for (const dyn::EdgeOp& op : ingest_batch(base_, seed_, csr_.size()))
          batch[edge_key(op.u, op.v)] = op.remove;
        std::vector<std::uint64_t> next;
        next.reserve(edges_.size() + batch.size());
        auto e = edges_.begin();
        for (const auto& [k, removed] : batch) {
          for (; e != edges_.end() && *e < k; ++e) next.push_back(*e);
          if (e != edges_.end() && *e == k) ++e;
          if (!removed) next.push_back(k);
        }
        next.insert(next.end(), e, edges_.end());
        edges_.swap(next);
      }
      std::vector<graph::Edge> el;
      el.reserve(edges_.size());
      for (const std::uint64_t k : edges_)
        el.push_back({static_cast<graph::Vertex>(k >> 32),
                      static_cast<graph::Vertex>(k & 0xFFFFFFFFu)});
      csr_.push_back(std::make_unique<graph::Csr>(graph::Csr::from_edges(
          base_.num_vertices(), el, graph::EdgePolicy::sorted_dedup)));
    }
    return *csr_[epoch];
  }

  const Ref& ref(std::uint64_t epoch, graph::Vertex source) {
    auto [it, fresh] = refs_.try_emplace({epoch, source});
    if (!fresh) return it->second;
    const graph::Csr& g = at(epoch);
    const graph::BfsTree tree = graph::reference_bfs(g, source);
    // hash[r] = (hash of all-unreached) + sum over depths <= r of the change.
    std::uint64_t far = 0;
    std::vector<std::uint64_t> delta, count;
    Ref& r = it->second;
    for (std::uint64_t u = 0; u < g.num_vertices(); ++u) {
      far += vertex_hash(u, engine::kUnreached);
      if (!tree.reached(static_cast<graph::Vertex>(u))) continue;
      const std::uint32_t d = tree.depth[u];
      if (d >= engine::kUnreached)
        throw std::runtime_error("reference depth does not fit a lane distance");
      if (d >= delta.size()) {
        delta.resize(d + 1, 0);
        count.resize(d + 1, 0);
      }
      delta[d] += vertex_hash(u, d) - vertex_hash(u, engine::kUnreached);
      ++count[d];
      r.edges += g.degree(static_cast<graph::Vertex>(u));
    }
    r.edges /= 2;
    r.hash.resize(delta.size());
    r.within.resize(delta.size());
    for (std::size_t d = 0; d < delta.size(); ++d) {
      r.hash[d] = (d ? r.hash[d - 1] : far) + delta[d];
      r.within[d] = (d ? r.within[d - 1] : 0) + count[d];
    }
    return r;
  }

  /// Names the first vertex whose lane distance differs from the reference
  /// cut at `radius`; called only once a check has failed.
  std::string first_difference(std::uint64_t epoch, graph::Vertex source,
                               const std::vector<engine::Dist>& dist,
                               std::uint64_t radius) {
    const graph::BfsTree tree = graph::reference_bfs(at(epoch), source);
    for (std::size_t u = 0; u < dist.size(); ++u) {
      const bool in = tree.reached(static_cast<graph::Vertex>(u)) && tree.depth[u] <= radius;
      const std::uint64_t want = in ? tree.depth[u] : engine::kUnreached;
      if (dist[u] != want)
        return "distance of vertex " + std::to_string(u) + " is " +
               std::to_string(dist[u]) + ", reference " + std::to_string(want);
    }
    return "distances hash differently from the reference";
  }

  /// Per-vertex component labels, for degraded reachability verdicts.
  const std::vector<std::uint64_t>& components(std::uint64_t epoch) {
    auto& c = comp_[epoch];
    if (c.empty()) c = graph::ref_components(at(epoch));
    return c;
  }

  const std::vector<double>& pagerank(std::uint64_t epoch, double damping) {
    auto& pr = pr_[epoch];
    if (pr.empty()) pr = graph::ref_pagerank(at(epoch), damping, 1e-10);
    return pr;
  }

 private:
  const graph::Csr base_;  ///< a copy: each set-up replaces the workload's CSR
  std::uint64_t seed_;
  std::vector<std::uint64_t> edges_;  ///< sorted; state after the last built epoch
  std::vector<std::unique_ptr<graph::Csr>> csr_;
  std::map<std::pair<std::uint64_t, graph::Vertex>, Ref> refs_;
  std::map<std::uint64_t, std::vector<double>> pr_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> comp_;
};

std::string describe(const engine::WaveQuery& q) {
  std::string s = std::string(engine::to_string(q.kind)) + " from " +
                  std::to_string(q.source);
  if (q.kind == engine::QueryKind::st_reachability)
    s += " to " + std::to_string(q.target);
  if (q.kind == engine::QueryKind::k_hop) s += " k=" + std::to_string(q.k);
  return s;
}

/// What one serve call at one offered rate measured.
struct Point {
  double p50_ms = 0, p99_ms = 0;  ///< interactive, refused = +inf
  double full_p99_ms = 0;
  double drain_ms = 0;  ///< last interactive completion minus last arrival
  double slo_gap() const { return std::max(full_p99_ms, drain_ms); }
};

enum class Role { lo, hi, search };

class Serve : public Workload {
 public:
  explicit Serve(const Ctx& ctx) : ctx_(ctx), cfg_(bfs::share_all()) {}

  // Every serve call dispatches at least kInteractive / 64 waves.
  int ops_per_pass() const override { return 2 * kInteractive / 64; }
  int setup_reps() const override { return 15; }

  std::map<std::string, double> setup(Spans& spans, Result& res) override {
    std::map<std::string, double> comps;
    const bool first = csr_ == nullptr;
    mgr0_.reset();
    dg_.reset();
    clusters_.clear();
    csr_.reset();
    csr_ = std::make_unique<graph::Csr>(
        make_graph(kScale, kEdgefactor, graph::EdgePolicy::sorted_dedup, spans,
                   comps, first ? &res : nullptr));
    const std::uint64_t n = csr_->num_vertices();
    {
      Scope s(spans, "runtime.cluster", &comps["runtime.cluster_s"]);
      for (int r = 0; r < kReplicas; ++r)
        clusters_.push_back(std::make_unique<rt::Cluster>(
            sim::Topology::xeon_x7550_cluster(kNodes),
            sim::CostParams{}.with_paper_cache_scaling(n), kPpn));
    }
    {
      Scope s(spans, "graph.partition", &comps["graph.partition_s"]);
      const graph::Partition1D part(n, kNodes * kPpn);
      dg_ = std::make_unique<graph::DistGraph>(graph::DistGraph::build(*csr_, part));
      mgr0_ = std::make_unique<dyn::SnapshotManager>(*clusters_[0], *csr_, part);
    }
    if (first) {
      queries_ = make_queries(*csr_, ctx_.seed);
      Fingerprint fq;
      for (const QueryTemplate& q : queries_) {
        fq.add(static_cast<std::uint64_t>(q.kind));
        fq.add(static_cast<std::uint64_t>(q.source) << 32 | q.target);
        fq.add(static_cast<std::uint64_t>(q.k));
        fq.add_double(q.unit_gap);
      }
      res.fingerprints["stream.queries"] = fq.hex();
      Fingerprint fi;
      for (std::uint64_t e = 1; e <= 32; ++e)
        for (const dyn::EdgeOp& op : ingest_batch(*csr_, ctx_.seed, e))
          fi.add(static_cast<std::uint64_t>(op.u) << 33 |
                 static_cast<std::uint64_t>(op.v) << 1 | op.remove);
      res.fingerprints["stream.ingest"] = fi.hex();
      // References for every epoch the slowest (lo) rate reaches, built
      // before measuring so that every pass validates at the same cost.
      // They stay resident and count in peak_rss_mb: the per-epoch CSRs and
      // hashed summaries are about 11.5 MiB of a ~44 MiB peak on a 4-vCPU VM.
      epochs_ = std::make_unique<EpochGraphs>(*csr_, ctx_.seed);
      double span_ns = 0;
      for (const QueryTemplate& q : queries_) span_ns += q.unit_gap / kLoQps * 1e9;
      for (std::uint64_t e = 0; e <= span_ns / kEpochNs + 2; ++e)
        for (const QueryTemplate& q : queries_)
          if (!engine::is_program_kind(q.kind)) epochs_->ref(e, q.source);
    }
    return comps;
  }

  void probe(Spans& spans, Result& res) override {
    probe_runtime(*clusters_[0], dg_->part.padded_bits() * engine::kMaxLanes,
                  spans, res);
    probe_codec(level_bitmaps(graph::reference_bfs(*csr_, queries_[0].source),
                              dg_->part.padded_bits()),
                dg_->part.block() / 64, spans, res);
  }

  PassStats pass(int pass, Spans& spans, bool traced, Result& res) override {
    PassStats ps;
    const double t0 = host_cpu_s();
    std::vector<std::shared_ptr<obs::Tracer>> tr;
    for (auto& c : clusters_) tr.push_back(attach_tracer(*c, traced));

    std::map<double, Point> memo;
    const auto at = [&](double rate, Role role) {
      auto it = memo.find(rate);
      if (it == memo.end())
        it = memo.emplace(rate, serve_at(rate, role, pass, spans, ps, res)).first;
      return it->second;
    };
    const Point lo = at(kLoQps, Role::lo);
    const Point hi = at(kHiQps, Role::hi);
    res.virt_pass("lat_ms.p50.lo", lo.p50_ms, pass);
    res.virt_pass("lat_ms.p99.lo", lo.p99_ms, pass);
    res.virt_pass("lat_ms.p50.hi", hi.p50_ms, pass);
    res.virt_pass("lat_ms.p99.hi", hi.p99_ms, pass);
    // The search starts from [hi, max], reusing hi's measured point, and
    // halves downwards from hi if hi already misses the limit.
    res.virt_pass("qps_at_slo",
                  search_rate([&](double r) { return at(r, Role::search).slo_gap(); },
                              kLimitMs, kHiQps, kMaxQps, kSearchSteps),
                  pass);
    ps.wall_s = host_cpu_s() - t0;
    for (std::size_t r = 0; r < clusters_.size(); ++r)
      finish_tracer(*clusters_[r], tr[r], ctx_,
                    "serve.replica" + std::to_string(r) + ".virtual.json", ps);
    return ps;
  }

 private:
  /// Serve the query template at `rate` through a fresh FrontDoor and a
  /// fresh copy of the snapshot manager; validate every answer.
  Point serve_at(double rate, Role role, int pass, Spans& spans, PassStats& ps,
                 Result& res);

  const Ctx& ctx_;
  bfs::Config cfg_;
  std::unique_ptr<graph::Csr> csr_;
  std::vector<std::unique_ptr<rt::Cluster>> clusters_;
  std::unique_ptr<graph::DistGraph> dg_;
  std::unique_ptr<dyn::SnapshotManager> mgr0_;
  std::vector<QueryTemplate> queries_;
  std::unique_ptr<EpochGraphs> epochs_;
  engine::ProgramParams programs_;
};

Point Serve::serve_at(double rate, Role role, int pass, Spans& spans,
                      PassStats& ps, Result& res) {
  std::vector<engine::Query> qs(kQueries);
  double t = 0;
  for (int i = 0; i < kQueries; ++i) {
    const QueryTemplate& q = queries_[static_cast<std::size_t>(i)];
    t += q.unit_gap / rate * 1e9;
    qs[static_cast<std::size_t>(i)] = {i, q.kind, q.source, q.target, q.k, t};
  }
  const double last_arrival = t;

  // A copy of the set-up manager: same immutable base, empty delta stores.
  dyn::SnapshotManager mgr(*mgr0_);
  dyn::CompactorPolicy pol;
  pol.fill_trigger = 0.03;
  pol.min_records = 2048;
  dyn::Compactor compactor(mgr, pol);

  // --- write side and pins: the graph_source hook ------------------------
  double next_ingest_ns = kEpochNs;
  std::uint64_t sealed = 0, compactions = 0;
  double pending_pause = 0, pause_ns = 0;
  std::shared_ptr<const dyn::Snapshot> held;
  std::map<double, std::uint64_t> pinned_at;

  // Wave dispatch host time: from the graph_source return to the sink. A
  // graph_source call that dispatches nothing, or an analytics program, ends
  // at the next graph_source call instead and is not an operation sample.
  double open_t = -1;
  std::int64_t dispatch_seq = 0;

  engine::FrontDoorConfig fdc;
  fdc.max_batch = engine::kMaxLanes;
  fdc.graph_source = [&](double now) {
    open_t = -1;
    spans.set_op(++dispatch_seq);
    while (next_ingest_ns <= now) {
      const auto ops = ingest_batch(*csr_, ctx_.seed, sealed + 1);
      {
        Scope s(spans, "dyn.ingest");
        mgr.ingest(ops, next_ingest_ns);
        ps.layer["dyn.ingest_ms"].push_back(s.stop() * 1e3);
      }
      ++sealed;
      Scope s(spans, "dyn.compact");
      if (const auto cs = compactor.maybe_compact(next_ingest_ns)) {
        ps.layer["dyn.compact_ms"].push_back(s.stop() * 1e3);
        pending_pause += cs->pause_ns;
        pause_ns += cs->pause_ns;
        ++compactions;
      }
      next_ingest_ns += kEpochNs;
    }
    // A snapshot is materialised once per sealed epoch and shared by every
    // dispatch until the next one; only the dispatch that pins it pays.
    engine::PinnedGraph pg;
    if (held == nullptr || held->epoch != mgr.epoch() ||
        held->base != mgr.base_ptr()) {
      Scope s(spans, "dyn.pin");
      held = mgr.pin(mgr.epoch(), now);
      pg.pin_ns = held->pin_ns + pending_pause;
      pending_pause = 0;
    }
    pinned_at[now] = held->epoch;
    pg.epoch = held->epoch;
    pg.graph = held->graph;
    open_t = host_cpu_s();
    return pg;
  };

  // --- read side: every lane checked at its pinned epoch -----------------
  double check_s = 0;
  std::uint64_t waves = 0, lanes = 0, full_edges = 0;
  double wave_ns = 0;
  std::vector<sim::PhaseProfile> prof;
  fdc.sink = [&](int, std::span<const engine::WaveQuery> batch,
                 const engine::WaveResult& wr, engine::WaveState& ws) {
    if (open_t >= 0) {
      const double ms = (host_cpu_s() - open_t) * 1e3;
      ps.op_ms.push_back(ms);
      ps.layer["engine.dispatch_host_ms.p50"].push_back(ms);
      open_t = -1;
    }
    Scope chk(spans, "serve.check", &check_s);
    ++waves;
    lanes += batch.size();
    wave_ns += wr.wave_ns;
    prof.push_back(wr.profile_avg);
    for (std::size_t l = 0; l < batch.size(); ++l) {
      const engine::WaveQuery& q = batch[l];
      const engine::LaneResult& lr = wr.lanes[l];
      Scope v(spans, "graph.validate");
      std::vector<engine::Dist> dist;
      {
        Scope s(spans, "engine.gather_lane_distances");
        dist = engine::gather_lane_distances(held->dg(), ws, static_cast<int>(l));
      }
      const Ref& ref = epochs_->ref(wr.epoch, q.source);
      const auto fail = [&](const std::string& why) {
        wrong_answer("serve at " + std::to_string(rate) + " qps, wave " +
                     std::to_string(waves) + " lane " + std::to_string(l) + " (" +
                     describe(q) + ", epoch " + std::to_string(wr.epoch) +
                     "): " + why);
      };
      if (!lr.finished) fail("lane did not finish");
      if (dist.size() != csr_->num_vertices()) fail("distance array size");
      // The radius the lane must have explored to: all of the component, k,
      // or (s-t) the level on which the target was found.
      std::uint64_t radius = engine::kUnreached;
      switch (q.kind) {
        case engine::QueryKind::full_distances:
          if (lr.visited != ref.within.back())
            fail("visited " + std::to_string(lr.visited) + ", reference " +
                 std::to_string(ref.within.back()));
          full_edges += ref.edges;
          break;
        case engine::QueryKind::k_hop:
          radius = static_cast<std::uint64_t>(q.k);
          if (lr.visited != ref.within[ref.radius(radius)])
            fail("k-hop visited " + std::to_string(lr.visited) + ", reference " +
                 std::to_string(ref.within[ref.radius(radius)]));
          break;
        default:  // s-t: the lane stops after the level that finds the target
          if (lr.reached != (dist[q.target] != engine::kUnreached))
            fail("reachability verdict");
          if (lr.reached) radius = dist[q.target];
          break;
      }
      if (lane_hash(dist) != ref.hash[ref.radius(radius)])
        fail(epochs_->first_difference(wr.epoch, q.source, dist, radius));
      ps.layer["graph.validate_ms.p50"].push_back(v.stop() * 1e3);
    }
  };

  engine::FrontDoorReport rep;
  std::vector<engine::ReplicaHandle> handles;
  for (auto& c : clusters_) handles.push_back({c.get(), dg_.get()});
  {
    engine::FrontDoor door(cfg_, fdc, handles);
    Scope s(spans, "engine.serve");
    const double t0 = host_cpu_s();
    rep = door.serve(qs);
    ps.sim_s += host_cpu_s() - t0 - check_s;
  }
  spans.set_op(-1);
  held.reset();

  // Degraded and analytics answers, at the epoch they were answered on.
  {
    Scope chk(spans, "serve.check");
    for (const engine::ServedQuery& r : rep.results) {
      const engine::Query& q = qs[static_cast<std::size_t>(r.id)];
      const auto fail = [&](const std::string& why) {
        wrong_answer("serve at " + std::to_string(rate) + " qps, query #" +
                     std::to_string(r.id) + " (" +
                     describe({q.kind, q.source, q.target, q.k}) + "): " + why);
      };
      if (r.outcome == engine::Outcome::degraded) {
        const std::uint64_t epoch = pinned_at.at(r.start_ns);
        const auto& comp = epochs_->components(epoch);
        if (q.kind == engine::QueryKind::st_reachability &&
            r.reached != (comp[q.source] == comp[q.target]))
          fail("degraded reachability verdict");
        const Ref& ref = epochs_->ref(epoch, q.source);
        if (q.kind == engine::QueryKind::k_hop &&
            r.visited != ref.within[ref.radius(static_cast<std::uint64_t>(q.k))])
          fail("degraded k-hop count");
      } else if (r.cls == engine::SloClass::analytics &&
                 (r.outcome == engine::Outcome::served ||
                  r.outcome == engine::Outcome::failed_over)) {
        const graph::Csr& g = epochs_->at(r.epoch);
        if (q.kind == engine::QueryKind::sssp) {
          const auto d = graph::ref_sssp(
              g, graph::EdgeWeights{programs_.weight_seed, programs_.sssp_max_weight},
              q.source)[q.target];
          const double want = d == graph::kInfDist
                                  ? std::numeric_limits<double>::infinity()
                                  : static_cast<double>(d);
          if (r.value != want) fail("SSSP distance");
        } else {
          const double want = epochs_->pagerank(r.epoch, programs_.pr_damping)[q.source];
          if (!(std::abs(r.value - want) <= 0.05 * want + 1e-2)) fail("PageRank value");
        }
      }
    }
  }

  // --- latency view ------------------------------------------------------
  std::vector<double> lat, full, queue, prog;
  double end_ns = 0;
  for (const engine::ServedQuery& r : rep.results) {
    const bool answered = r.outcome == engine::Outcome::served ||
                          r.outcome == engine::Outcome::failed_over ||
                          r.outcome == engine::Outcome::degraded;
    if (r.cls == engine::SloClass::analytics) {
      if (answered) prog.push_back((r.complete_ns - r.start_ns) / 1e6);
      continue;
    }
    const double ms = answered ? r.latency_ns() / 1e6
                               : std::numeric_limits<double>::infinity();
    if (answered) end_ns = std::max(end_ns, r.complete_ns);
    lat.push_back(ms);
    if (r.kind == engine::QueryKind::full_distances) full.push_back(ms);
    if (answered && r.outcome != engine::Outcome::degraded)
      queue.push_back((r.start_ns - r.arrival_ns) / 1e6);
  }
  Point p;
  p.p50_ms = percentile(lat, 50);
  p.p99_ms = percentile(lat, 99);
  p.full_p99_ms = percentile(full, 99);
  p.drain_ms = std::max(0.0, end_ns - last_arrival) / 1e6;

  if (role == Role::search) return p;
  // Search probes beyond the knee may shed by design; only the two fixed
  // rates count toward attempted and failed.
  ps.attempted += kQueries;
  ps.failed += rep.shed;
  if (role != Role::hi) return p;

  // Per-layer figures of the reference serving run (the hi rate).
  res.virt_pass("gteps", static_cast<double>(full_edges) / (wave_ns * 1e-9) / 1e9, pass);
  res.virt_pass("engine.dispatches", rep.waves + rep.program_runs, pass);
  res.virt_pass("engine.lane_fill",
                waves ? static_cast<double>(lanes) / (64.0 * static_cast<double>(waves)) : 0.0,
                pass);
  res.virt_pass("engine.levels", rep.levels, pass);
  res.virt_pass("engine.busy_frac", rep.busy_ns / (kReplicas * rep.total_ns), pass);
  res.virt_pass("engine.queue_ms.p50", percentile(queue, 50), pass);
  res.virt_pass("engine.queue_ms.p99", percentile(queue, 99), pass);
  res.virt_pass("engine.program_ms", mean(prog), pass);
  res.virt_pass("engine.shed", rep.shed, pass);
  res.virt_pass("engine.degraded", rep.degraded, pass);
  res.virt_pass("engine.backpressured", rep.backpressured, pass);
  const sim::Counters& c = rep.counters;
  res.virt_pass("dyn.read_amp",
                c.edges_scanned ? static_cast<double>(c.delta_probes) /
                                      static_cast<double>(c.edges_scanned)
                                : 0.0,
                pass);
  res.virt_pass("dyn.pause_ms", pause_ns / 1e6, pass);
  res.virt_pass("dyn.epochs", static_cast<double>(sealed), pass);
  res.virt_pass("dyn.compactions", static_cast<double>(compactions), pass);
  phase_virtuals(prof, pass, res);
  coded_legs(0, 0, pass, res);
  Fingerprint vd;
  for (const engine::ServedQuery& r : rep.results) {
    vd.add(static_cast<std::uint64_t>(r.outcome));
    vd.add_double(r.complete_ns);
    vd.add(r.epoch);
    vd.add(r.visited);
    vd.add_double(r.value);
  }
  res.digest_pass("virtual.serve", vd.hex(), pass);
  return p;
}

}  // namespace

std::unique_ptr<Workload> make_serve(const Ctx& ctx) {
  return std::make_unique<Serve>(ctx);
}

}  // namespace perfbench
