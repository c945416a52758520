/// \file bfs_workloads.cpp
/// `bfs1d` and `scale2d`: Graph500-style batches of single-root BFS.
///
/// bfs1d — the paper's Fig. 9 endpoint, bfs::granularity(256), on 2 nodes x
/// ppn 2 (4 rank threads). The kernels, the
/// summary skips, set-up and the validator do almost all of the work; runtime
/// synchronisation is cheap at 4 threads, and bfs2d, the codec and the engine
/// are bypassed.
///
/// scale2d — the 2-D BFS on 16 nodes x ppn 4 (64 ranks, an 8x8 grid) with
/// bench_ablation_2d's cost model (physical alpha, scale-32 capacity ratios)
/// and hier=node, codec=gate, exchange_chunks=4. The runtime does most of
/// the work: 64 rank threads, several barrier-separated collective legs per
/// level, the codec gate's allreduces and trial encodes. It is the workload
/// host-speed and codec-gate changes should move; bfs1d is their control.
///
/// Both report the per-root virtual times as a FIFO service (one BFS at a
/// time, Poisson root arrivals in virtual time) for the latency metrics.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "graph/dist_graph.hpp"
#include "graph/partition.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/validate.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "search.hpp"
#include "workload.hpp"

namespace perfbench {

namespace graph = numabfs::graph;
namespace bfs = numabfs::bfs;
namespace bfs2d = numabfs::bfs2d;
namespace rt = numabfs::rt;
namespace sim = numabfs::sim;

namespace {

/// The fixed offered rates and latency limit of a BFS workload's FIFO view.
struct QueueSpec {
  double lo_qps;
  double hi_qps;
  double limit_ms;  ///< p99 (and drain) limit for qps_at_slo
};

constexpr int kQueueArrivals = 20000;

/// Validate one tree through the graph layer's Graph500 checker; a wrong
/// tree aborts the run. Returns the undirected edges of the root's component.
std::uint64_t validate(const graph::Csr& csr, graph::Vertex root,
                       const std::vector<graph::Vertex>& parent,
                       std::uint64_t visited, const std::string& what,
                       Spans& spans, PassStats& ps) {
  double dt = 0;
  graph::ValidationResult v;
  {
    Scope s(spans, "graph.validate", &dt);
    v = graph::validate_bfs_tree(csr, root, parent);
  }
  ps.layer["graph.validate_ms.p50"].push_back(dt * 1e3);
  if (!v.ok) wrong_answer(what + " (root " + std::to_string(root) + "): " + v.error);
  if (v.visited != visited)
    wrong_answer(what + " (root " + std::to_string(root) + "): reports " +
                 std::to_string(visited) + " visited, tree has " +
                 std::to_string(v.visited));
  return v.traversed_edges();
}

/// End-to-end virtual metrics of a batch of roots: Graph500 harmonic TEPS and
/// the FIFO-service latency view.
void batch_virtuals(const std::vector<double>& time_ns,
                    const std::vector<std::uint64_t>& edges, const QueueSpec& q,
                    int pass, Result& res) {
  std::vector<double> teps;
  for (std::size_t i = 0; i < time_ns.size(); ++i)
    teps.push_back(static_cast<double>(edges[i]) / (time_ns[i] * 1e-9));
  res.virt_pass("gteps", harmonic_mean(teps) / 1e9, pass);

  // Arrival gaps (unit mean) and the root each arrival asks for come from the
  // fixed trace; the roots themselves, and so the service times, from the
  // seed. Latency at a rate is then a deterministic, monotone function of
  // the rate.
  Rng gaps(kTraceSeed, 2), pick(kTraceSeed, 3);
  std::vector<double> unit_gap(kQueueArrivals), service(kQueueArrivals);
  for (int j = 0; j < kQueueArrivals; ++j) {
    unit_gap[static_cast<std::size_t>(j)] = gaps.exponential();
    service[static_cast<std::size_t>(j)] = time_ns[pick.next() % time_ns.size()];
  }
  struct Point {
    double p50_ms, p99_ms, drain_ms;
  };
  const auto at = [&](double qps) {
    std::vector<double> lat(kQueueArrivals);
    double t = 0, free_at = 0;
    for (int j = 0; j < kQueueArrivals; ++j) {
      t += unit_gap[static_cast<std::size_t>(j)] / qps * 1e9;
      free_at = std::max(free_at, t) + service[static_cast<std::size_t>(j)];
      lat[static_cast<std::size_t>(j)] = (free_at - t) / 1e6;
    }
    return Point{percentile(lat, 50), percentile(lat, 99), (free_at - t) / 1e6};
  };
  const Point lo = at(q.lo_qps), hi = at(q.hi_qps);
  res.virt_pass("lat_ms.p50.lo", lo.p50_ms, pass);
  res.virt_pass("lat_ms.p99.lo", lo.p99_ms, pass);
  res.virt_pass("lat_ms.p50.hi", hi.p50_ms, pass);
  res.virt_pass("lat_ms.p99.hi", hi.p99_ms, pass);
  const double saturation = 1e9 / mean(time_ns);
  res.virt_pass("qps_at_slo",
                search_rate(
                    [&](double qps) {
                      const Point p = at(qps);
                      return std::max(p.p99_ms, p.drain_ms);
                    },
                    q.limit_ms, 0.01 * saturation, saturation, 40),
                pass);
}

/// What a batch keeps of one root's traversal.
struct RootRun {
  double time_ns = 0;
  std::uint64_t visited = 0;
  std::uint64_t traversed = 0;  ///< directed edges the program reports
  sim::PhaseProfile avg, max;
  std::vector<graph::Vertex> parent;
  /// (wire, raw) bytes of every exchange leg that ran.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> legs;
  /// Loop-specific virtual figures, averaged over the roots of a pass.
  std::map<std::string, double> extra;
};

/// A Graph500-style batch: one fixed R-MAT graph, `roots` seeded roots per
/// pass, every tree validated. Subclasses supply the partition, the cluster
/// and the traversal.
class RootBatch : public Workload {
 public:
  RootBatch(const Ctx& ctx, const char* name, int scale, int edgefactor,
            int roots, QueueSpec queue)
      : ctx_(ctx), name_(name), scale_(scale), edgefactor_(edgefactor),
        nroots_(roots), queue_(queue) {}

  int ops_per_pass() const override { return nroots_; }
  int setup_reps() const override { return 5; }

  std::map<std::string, double> setup(Spans& spans, Result& res) override {
    std::map<std::string, double> comps;
    const bool first = csr_ == nullptr;
    release();
    csr_.reset();
    csr_ = std::make_unique<graph::Csr>(
        make_graph(scale_, edgefactor_, graph::EdgePolicy::keep_multiplicity,
                   spans, comps, first ? &res : nullptr));
    build(spans, comps);
    if (first) {
      roots_ = select_roots(*csr_, ctx_.seed, nroots_);
      res.fingerprints["stream.roots"] = digest(roots_);
    }
    return comps;
  }

  void probe(Spans& spans, Result& res) override {
    probe_runtime(cluster(), frontier_bits(), spans, res);
    probe_codec(level_bitmaps(graph::reference_bfs(*csr_, roots_[0]), frontier_bits()),
                chunk_words(), spans, res);
  }

  PassStats pass(int pass, Spans& spans, bool traced, Result& res) override {
    PassStats ps;
    const double t0 = host_cpu_s();
    const auto tr = attach_tracer(cluster(), traced);
    std::vector<double> time_ns;
    std::vector<std::uint64_t> edges;
    std::vector<sim::PhaseProfile> prof;
    std::map<std::string, double> extra;
    std::uint64_t coded = 0, gated = 0;
    Fingerprint vd;
    for (int i = 0; i < nroots_; ++i) {
      const graph::Vertex root = roots_[static_cast<std::size_t>(i)];
      spans.set_op(i);
      const RootRun r = traverse(root, spans, ps);
      edges.push_back(validate(*csr_, root, r.parent, r.visited,
                               name_ + " root #" + std::to_string(i), spans, ps));
      ++ps.attempted;
      time_ns.push_back(r.time_ns);
      prof.push_back(r.avg);
      for (const auto& [k, v] : r.extra) extra[k] += v / nroots_;
      for (const auto& [wire, raw] : r.legs) {
        gated += raw > 0;
        coded += raw > 0 && wire != raw;
      }
      vd.add_double(r.time_ns);
      vd.add(r.visited);
      vd.add(r.traversed);
      for (int ph = 0; ph < static_cast<int>(sim::Phase::kCount); ++ph)
        vd.add_double(r.max.get(static_cast<sim::Phase>(ph)));
    }
    ps.wall_s = host_cpu_s() - t0;
    finish_tracer(cluster(), tr, ctx_, name_ + ".virtual.json", ps);
    spans.set_op(-1);

    batch_virtuals(time_ns, edges, queue_, pass, res);
    phase_virtuals(prof, pass, res);
    coded_legs(coded, gated, pass, res);
    for (const auto& [k, v] : extra) res.virt_pass(k, v, pass);
    res.digest_pass("virtual." + name_, vd.hex(), pass);
    return ps;
  }

 protected:
  /// Drop the program's structures before a fresh set-up.
  virtual void release() = 0;
  /// Partition `csr_` and build the cluster, timing "graph.partition_s" and
  /// "runtime.cluster_s" into `comps`.
  virtual void build(Spans& spans, std::map<std::string, double>& comps) = 0;
  /// Run one root: the program's timed call adds to ps.sim_s and ps.op_ms.
  virtual RootRun traverse(graph::Vertex root, Spans& spans, PassStats& ps) = 0;
  virtual rt::Cluster& cluster() = 0;
  /// Bits of one replicated frontier, and words of one exchange chunk.
  virtual std::uint64_t frontier_bits() const = 0;
  virtual std::uint64_t chunk_words() const = 0;

  const Ctx& ctx_;
  std::unique_ptr<graph::Csr> csr_;

 private:
  std::string name_;
  int scale_, edgefactor_, nroots_;
  QueueSpec queue_;
  std::vector<graph::Vertex> roots_;
};

class Bfs1d : public RootBatch {
 public:
  static constexpr int kNodes = 2;
  static constexpr int kPpn = 2;

  explicit Bfs1d(const Ctx& ctx)
      : RootBatch(ctx, "bfs1d", 17, 16, 128, {2000, 5000, 1.0}),
        cfg_(bfs::granularity(256)) {}

 protected:
  void release() override {
    st_.reset();
    cluster_.reset();
    dg_.reset();
  }

  void build(Spans& spans, std::map<std::string, double>& comps) override {
    const std::uint64_t n = csr_->num_vertices();
    {
      Scope s(spans, "graph.partition", &comps["graph.partition_s"]);
      dg_ = std::make_unique<graph::DistGraph>(
          graph::DistGraph::build(*csr_, graph::Partition1D(n, kNodes * kPpn)));
    }
    Scope s(spans, "runtime.cluster", &comps["runtime.cluster_s"]);
    cluster_ = std::make_unique<rt::Cluster>(
        sim::Topology::xeon_x7550_cluster(kNodes),
        sim::CostParams{}.with_paper_cache_scaling(n), kPpn);
    st_ = std::make_unique<bfs::DistState>(*dg_, cfg_, kNodes, kPpn);
  }

  RootRun traverse(graph::Vertex root, Spans& spans, PassStats& ps) override {
    bfs::BfsRunResult r;
    {
      Scope s(spans, "bfs.run_bfs", &ps.sim_s);
      r = bfs::run_bfs(*cluster_, *dg_, *st_, root);
      ps.op_ms.push_back(s.stop() * 1e3);
    }
    RootRun out{r.time_ns, r.visited, r.traversed_directed_edges,
                r.profile_avg, r.profile_max, {}, {}, {}};
    {
      Scope s(spans, "bfs.gather_parents");
      out.parent = bfs::gather_parents(*dg_, *st_);
    }
    for (const bfs::LevelTrace& t : r.trace)
      out.legs.emplace_back(t.wire_bytes, t.wire_raw_bytes);
    return out;
  }

  rt::Cluster& cluster() override { return *cluster_; }
  std::uint64_t frontier_bits() const override { return dg_->part.padded_bits(); }
  std::uint64_t chunk_words() const override { return dg_->part.block() / 64; }

 private:
  bfs::Config cfg_;
  std::unique_ptr<graph::DistGraph> dg_;
  std::unique_ptr<rt::Cluster> cluster_;
  std::unique_ptr<bfs::DistState> st_;
};

class Scale2d : public RootBatch {
 public:
  static constexpr int kNodes = 16;
  static constexpr int kPpn = 4;

  explicit Scale2d(const Ctx& ctx) : RootBatch(ctx, "scale2d", 17, 8, 64, {200, 550, 10.0}) {
    opt_.hier = rt::coll_model::HierLevel::node;
    opt_.codec = bfs::CodecMode::gate;
    opt_.exchange_chunks = 4;
  }

 protected:
  void release() override {
    cluster_.reset();
    dg_.reset();
  }

  void build(Spans& spans, std::map<std::string, double>& comps) override {
    const std::uint64_t n = csr_->num_vertices();
    {
      Scope s(spans, "graph.partition", &comps["graph.partition_s"]);
      dg_ = std::make_unique<bfs2d::DistGraph2d>(bfs2d::DistGraph2d::build(
          *csr_, bfs2d::Grid2d::make(n, kNodes * kPpn, kPpn)));
    }
    Scope s(spans, "runtime.cluster", &comps["runtime.cluster_s"]);
    // bench_ablation_2d's model: scale-32 capacity ratios, physical alpha.
    sim::CostParams cp;
    cp.capacity_scale = static_cast<double>(1ull << 32) / static_cast<double>(n);
    cluster_ = std::make_unique<rt::Cluster>(
        sim::Topology::xeon_x7550_cluster(kNodes), cp, kPpn);
  }

  RootRun traverse(graph::Vertex root, Spans& spans, PassStats& ps) override {
    RootRun out;
    bfs2d::Bfs2dResult r;
    {
      Scope s(spans, "bfs2d.run_bfs_2d", &ps.sim_s);
      r = bfs2d::run_bfs_2d(*cluster_, *dg_, root, &out.parent, opt_);
      ps.op_ms.push_back(s.stop() * 1e3);
    }
    out.time_ns = r.time_ns;
    out.visited = r.visited;
    out.traversed = r.traversed_directed_edges;
    out.avg = r.profile_avg;
    out.max = r.profile_max;
    const auto ms = [](double ns) { return ns / 1e6; };
    out.extra["bfs2d.comp_ms"] = ms(r.profile_avg.get(sim::Phase::td_comp) +
                                    r.profile_avg.get(sim::Phase::bu_comp));
    out.extra["bfs2d.expand_ms"] = ms(r.expand_ns_per_level * r.levels);
    out.extra["bfs2d.fold_ms"] = ms(r.fold_ns_per_level * r.levels);
    out.extra["bfs2d.stall_ms"] = ms(r.profile_avg.get(sim::Phase::stall));
    for (const bfs2d::Level2dTrace& t : r.trace) {
      const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>> legs[] = {
          {"bfs2d.wire_bytes.transpose", {t.transpose_wire_bytes, t.transpose_raw_bytes}},
          {"bfs2d.wire_bytes.expand", {t.expand_wire_bytes, t.expand_raw_bytes}},
          {"bfs2d.wire_bytes.fold", {t.fold_wire_bytes, t.fold_raw_bytes}},
          {"bfs2d.wire_bytes.return", {t.return_wire_bytes, t.return_raw_bytes}}};
      for (const auto& [name, bytes] : legs) {
        out.extra[name] += static_cast<double>(bytes.first);
        out.legs.push_back(bytes);
      }
    }
    return out;
  }

  rt::Cluster& cluster() override { return *cluster_; }
  std::uint64_t frontier_bits() const override { return dg_->grid.padded(); }
  std::uint64_t chunk_words() const override { return dg_->grid.piece_bits() / 64; }

 private:
  bfs2d::Bfs2dOptions opt_;
  std::unique_ptr<bfs2d::DistGraph2d> dg_;
  std::unique_ptr<rt::Cluster> cluster_;
};

}  // namespace

std::unique_ptr<Workload> make_bfs1d(const Ctx& ctx) {
  return std::make_unique<Bfs1d>(ctx);
}
std::unique_ptr<Workload> make_scale2d(const Ctx& ctx) {
  return std::make_unique<Scale2d>(ctx);
}

}  // namespace perfbench
