#include "harness/graph500.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bfs/state.hpp"
#include "graph/partition.hpp"

namespace numabfs::harness {

namespace {

/// Deterministic root selection: hash-walk the vertex space, keep
/// degree > 0 vertices (Graph500 requires searchable roots).
void select_roots(GraphBundle& b, std::uint64_t seed, int max_roots) {
  const std::uint64_t n = b.csr.num_vertices();
  std::uint64_t probe = seed;
  std::uint64_t attempts = 0;
  while (b.roots.size() < static_cast<size_t>(max_roots) &&
         attempts < 64 * static_cast<std::uint64_t>(max_roots) + 1024) {
    probe = graph::splitmix64(probe + ++attempts);
    const auto v = static_cast<graph::Vertex>(probe % n);
    if (b.csr.degree(v) == 0) continue;
    bool dup = false;
    for (graph::Vertex r : b.roots) dup = dup || r == v;
    if (!dup) b.roots.push_back(v);
  }
  if (b.roots.empty()) throw std::runtime_error("GraphBundle: no usable roots");
}

}  // namespace

GraphBundle GraphBundle::make(int scale, int edgefactor, std::uint64_t seed,
                              int max_roots) {
  GraphBundle b;
  b.params.scale = scale;
  b.params.edgefactor = edgefactor;
  b.params.seed = seed;
  const auto edges = graph::rmat_edges(b.params);
  b.csr = graph::Csr::from_edges(b.params.num_vertices(), edges);
  select_roots(b, seed, max_roots);
  return b;
}

GraphBundle GraphBundle::from_edges(std::uint64_t num_vertices,
                                    std::span<const graph::Edge> edges,
                                    std::uint64_t seed, int max_roots) {
  if (num_vertices == 0)
    throw std::invalid_argument("GraphBundle: empty vertex set");
  GraphBundle b;
  int scale = 0;
  while ((1ull << scale) < num_vertices) ++scale;
  b.params.scale = scale;
  b.params.edgefactor = static_cast<int>(
      edges.size() / std::max<std::uint64_t>(1, num_vertices));
  b.params.seed = seed;
  b.csr = graph::Csr::from_edges(num_vertices, edges);
  select_roots(b, seed, max_roots);
  return b;
}

namespace {

sim::Topology make_topology(const ExperimentOptions& opt) {
  sim::Topology t = sim::Topology::xeon_x7550_cluster(opt.nodes);
  if (opt.weak_node >= 0)
    t = t.with_weak_node(opt.weak_node, opt.weak_node_factor);
  return t;
}

sim::CostParams make_params(const GraphBundle& b,
                            const ExperimentOptions& opt) {
  sim::CostParams p = opt.params;
  if (opt.paper_cache_scaling)
    p = p.with_paper_cache_scaling(b.params.num_vertices());
  return p;
}

}  // namespace

Experiment::Experiment(const GraphBundle& bundle, const ExperimentOptions& opt)
    : bundle_(bundle),
      cluster_(make_topology(opt), make_params(bundle, opt), opt.ppn),
      dist_(graph::DistGraph::build(
          bundle.csr,
          graph::Partition1D(bundle.csr.num_vertices(), cluster_.nranks()))) {}

EvalResult Experiment::run(const bfs::Config& cfg, int num_roots) {
  if (const std::string err = cfg.validate(); !err.empty())
    throw std::invalid_argument("Experiment::run: " + err);
  const int nr = std::min<int>(num_roots, static_cast<int>(bundle_.roots.size()));

  EvalResult res;
  res.roots = nr;
  bfs::DistState st(dist_, cfg, cluster_.topo().nodes(), cluster_.ppn());

  std::vector<double> teps;
  double time_sum = 0;
  std::uint64_t visited_sum = 0;
  sim::PhaseProfile prof_sum;
  double bu_phase_sum = 0;
  int bu_phase_runs = 0;
  int bu_levels_sum = 0;

  for (int i = 0; i < nr; ++i) {
    const bfs::BfsRunResult r = bfs::run_bfs(cluster_, dist_, st,
                                             bundle_.roots[static_cast<size_t>(i)]);
    teps.push_back(r.teps());
    time_sum += r.time_ns;
    visited_sum += r.visited;
    prof_sum += r.profile_avg;
    if (r.bu_exchanges > 0) {
      bu_phase_sum += r.avg_bu_comm_ns();
      ++bu_phase_runs;
    }
    bu_levels_sum += r.bu_levels;
    res.per_root.push_back(std::move(r));
  }

  res.harmonic_teps = harmonic_mean(teps);
  res.mean_time_ns = time_sum / nr;
  res.visited_mean = visited_sum / static_cast<std::uint64_t>(nr);
  res.profile = prof_sum.scaled(1.0 / nr);  // counters stay summed
  res.avg_bu_comm_phase_ns =
      bu_phase_runs > 0 ? bu_phase_sum / bu_phase_runs : 0.0;
  const double tot = res.profile.total_ns();
  res.bu_comm_fraction =
      tot > 0 ? res.profile.get(sim::Phase::bu_comm) / tot : 0.0;
  res.mean_bu_levels = bu_levels_sum / nr;
  return res;
}

std::pair<bfs::BfsRunResult, std::vector<graph::Vertex>>
Experiment::run_validated(const bfs::Config& cfg, graph::Vertex root) {
  bfs::DistState st(dist_, cfg, cluster_.topo().nodes(), cluster_.ppn());
  bfs::BfsRunResult r = bfs::run_bfs(cluster_, dist_, st, root);
  return {std::move(r), bfs::gather_parents(dist_, st)};
}

double harmonic_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  for (double x : xs) {
    // A zero, negative or non-finite TEPS sample means the run it came
    // from produced no valid figure of merit; the harmonic mean of the
    // series is then undefined. NaN-mark the aggregate (the same policy
    // mean/percentile apply to per-sample gaps) instead of returning 0.0,
    // which a dashboard would read as a real measurement, or dividing by
    // zero on a 1/x term.
    if (!std::isfinite(x) || x <= 0.0)
      return std::numeric_limits<double>::quiet_NaN();
  }
  double inv = 0.0;
  for (double x : xs) inv += 1.0 / x;
  return static_cast<double>(xs.size()) / inv;
}

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (!std::isfinite(x)) continue;  // NaN marks a missing sample
    sum += x;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double percentile(std::vector<double> xs, double p) {
  // Non-finite entries mark missing samples (e.g. a query that never
  // completed); they must not participate — NaN would also make the sort
  // order unspecified, poisoning every order statistic around it.
  xs.erase(std::remove_if(xs.begin(), xs.end(),
                          [](double x) { return !std::isfinite(x); }),
           xs.end());
  if (xs.empty()) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];  // any p: the only order statistic
  const double idx = p / 100.0 * static_cast<double>(xs.size() - 1);
  auto lo = static_cast<std::size_t>(idx);
  if (lo >= xs.size() - 1) lo = xs.size() - 2;  // p=100: idx == size-1
  const std::size_t hi = lo + 1;
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace numabfs::harness
