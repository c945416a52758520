/// \file test_vertex_programs.cpp
/// The four built-in frontier programs against their single-rank references:
/// SSSP (bit-identical to Dijkstra), PageRank (within float32 slack of the
/// power iteration), connected components (identical min-labels) and triangle
/// counting (exact). Plus the engine guarantees every program inherits from
/// run_program: convergence and early exit, bit-determinism under crash+drop
/// fault plans, and zero perturbation from tracing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bfs/config.hpp"
#include "engine/programs.hpp"
#include "faults/errors.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/reference_algos.hpp"
#include "harness/graph500.hpp"
#include "obs/trace.hpp"

namespace numabfs::engine {
namespace {

using faults::FaultInjector;
using faults::FaultPlan;
using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions eo;
  eo.nodes = nodes;
  eo.ppn = ppn;
  return eo;
}

std::shared_ptr<FaultInjector> injector(const rt::Cluster& c,
                                        const std::string& spec) {
  return std::make_shared<FaultInjector>(FaultPlan::parse(spec), c.nranks(),
                                         c.ppn());
}

struct ProgRun {
  ProgramResult res;
  std::vector<Value> values;
};

ProgRun run_prog(Experiment& ex, ProgramWorkload w, const ProgramQuery& q,
        const bfs::Config& cfg, int nodes, int ppn,
        const ProgramParams& pp = {}, const ProgramOptions& opts = {}) {
  const auto prog = make_program(w, ex.dist(), pp);
  ProgramState ps(ex.dist(), cfg, nodes, ppn, prog->with_values());
  ProgRun r;
  r.res = run_program(ex.cluster(), ex.dist(), ps, *prog, q, opts);
  r.values = gather_values(ex.dist(), ps);
  return r;
}

// ---------------------------------------------------------------------------
// Reference equivalence
// ---------------------------------------------------------------------------

TEST(VertexPrograms, SsspMatchesDijkstraBitForBit) {
  for (const std::uint64_t seed : {1ull, 7ull}) {
    const GraphBundle b = GraphBundle::make(10, 16, seed, 4);
    Experiment ex(b, shape(2, 2));
    const ProgramQuery q{b.roots[0], b.roots[1]};
    const ProgramParams pp;
    const ProgRun r = run_prog(ex, ProgramWorkload::sssp, q, bfs::original(), 2, 2, pp);
    ASSERT_TRUE(r.res.converged);
    const auto ref = graph::ref_sssp(b.csr, graph::EdgeWeights{pp.weight_seed,
                                                               pp.sssp_max_weight},
                                     q.source);
    for (std::uint64_t v = 0; v < ex.dist().n; ++v)
      ASSERT_EQ(r.values[v], ref[v]) << "vertex " << v << " seed " << seed;
    if (ref[q.target] == graph::kInfDist)
      EXPECT_TRUE(std::isinf(r.res.value));
    else
      EXPECT_EQ(r.res.value, static_cast<double>(ref[q.target]));
  }
}

TEST(VertexPrograms, SsspDeltaIsAnAccuracyPreservingKnob) {
  const GraphBundle b = GraphBundle::make(9, 16, 3, 2);
  Experiment ex(b, shape(2, 2));
  const ProgramQuery q{b.roots[0], b.roots[1]};
  ProgramParams pp;
  std::vector<Value> first;
  for (const std::uint64_t delta : {1ull, 4ull, 64ull}) {
    pp.sssp_delta = delta;
    const ProgRun r = run_prog(ex, ProgramWorkload::sssp, q, bfs::original(), 2, 2, pp);
    ASSERT_TRUE(r.res.converged);
    if (first.empty())
      first = r.values;
    else
      EXPECT_EQ(r.values, first) << "delta " << delta;
  }
}

TEST(VertexPrograms, PageRankMatchesPowerIteration) {
  const GraphBundle b = GraphBundle::make(9, 16, 5, 2);
  Experiment ex(b, shape(2, 2));
  const ProgramQuery q{b.roots[0], b.roots[0]};
  ProgramParams pp;
  pp.pr_eps = 1e-4;  // float32 residuals: keep the frontier gate above noise
  const ProgRun r = run_prog(ex, ProgramWorkload::pagerank, q, bfs::original(), 2, 2,
                    pp);
  ASSERT_TRUE(r.res.converged);
  EXPECT_GT(r.res.bu_levels + r.res.td_levels, 0);
  const auto ref = graph::ref_pagerank(b.csr, pp.pr_damping, 1e-10);
  for (std::uint64_t v = 0; v < ex.dist().n; ++v) {
    const double got = static_cast<double>(pr_rank(r.values[v])) +
                       static_cast<double>(pr_residual(r.values[v]));
    // Residual push-style PR under-reports each vertex by at most the mass
    // still undistributed when every residual fell under eps; float32
    // accumulation adds rounding on top.
    EXPECT_NEAR(got, ref[v], 0.05 * ref[v] + 1e-2) << "vertex " << v;
  }
  EXPECT_NEAR(r.res.value,
              static_cast<double>(pr_rank(r.values[q.source])) +
                  static_cast<double>(pr_residual(r.values[q.source])),
              1e-12);
}

TEST(VertexPrograms, ComponentsMatchMinLabelReference) {
  for (const std::uint64_t seed : {2ull, 9ull}) {
    const GraphBundle b = GraphBundle::make(10, 8, seed, 2);
    Experiment ex(b, shape(2, 2));
    const ProgRun r = run_prog(ex, ProgramWorkload::components, ProgramQuery{},
                      bfs::original(), 2, 2);
    ASSERT_TRUE(r.res.converged);
    const auto ref = graph::ref_components(b.csr);
    std::uint64_t ref_count = 0;
    for (std::uint64_t v = 0; v < ex.dist().n; ++v) {
      ASSERT_EQ(r.values[v], ref[v]) << "vertex " << v << " seed " << seed;
      if (ref[v] == v) ++ref_count;
    }
    EXPECT_EQ(r.res.value, static_cast<double>(ref_count));
  }
}

TEST(VertexPrograms, TrianglesMatchExactCount) {
  for (const std::uint64_t seed : {4ull, 11ull}) {
    const GraphBundle b = GraphBundle::make(9, 16, seed, 2);
    Experiment ex(b, shape(2, 2));
    const ProgRun r = run_prog(ex, ProgramWorkload::triangles, ProgramQuery{},
                      bfs::original(), 2, 2);
    ASSERT_TRUE(r.res.converged);
    EXPECT_EQ(r.res.levels, 1);  // one-shot counting level
    EXPECT_EQ(r.res.value,
              static_cast<double>(graph::ref_triangles(b.csr)));
  }
}

// ---------------------------------------------------------------------------
// Convergence / early exit
// ---------------------------------------------------------------------------

TEST(VertexPrograms, SsspUnreachableTargetReportsInfinity) {
  // An isolated vertex (no edges touch it) must stay at infinite distance.
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  const GraphBundle b = GraphBundle::from_edges(6, edges, 2);
  Experiment ex(b, shape(1, 2));
  const ProgRun r = run_prog(ex, ProgramWorkload::sssp, ProgramQuery{0, 5},
                    bfs::original(), 1, 2);
  ASSERT_TRUE(r.res.converged);
  EXPECT_TRUE(std::isinf(r.res.value));
  EXPECT_EQ(r.values[5], kProgInf);
  EXPECT_EQ(r.values[4], kProgInf);
  EXPECT_NE(r.values[3], kProgInf);
}

TEST(VertexPrograms, MaxLevelsBackstopReportsUnconverged) {
  const GraphBundle b = GraphBundle::make(9, 16, 6, 2);
  Experiment ex(b, shape(2, 2));
  ProgramOptions opts;
  opts.max_levels = 1;  // delta-stepping needs more than one relax level here
  const ProgRun r = run_prog(ex, ProgramWorkload::sssp, ProgramQuery{b.roots[0], 0},
                    bfs::original(), 2, 2, {}, opts);
  EXPECT_FALSE(r.res.converged);
  EXPECT_EQ(r.res.levels, 1);
}

TEST(VertexPrograms, ConvergedRunsAreIdempotentAcrossRepeats) {
  const GraphBundle b = GraphBundle::make(9, 16, 8, 2);
  Experiment ex(b, shape(2, 2));
  const ProgRun a = run_prog(ex, ProgramWorkload::components, ProgramQuery{},
                    bfs::original(), 2, 2);
  const ProgRun c = run_prog(ex, ProgramWorkload::components, ProgramQuery{},
                    bfs::original(), 2, 2);
  EXPECT_EQ(a.values, c.values);
  EXPECT_EQ(a.res.value, c.res.value);
  EXPECT_EQ(a.res.total_ns, c.res.total_ns);
  EXPECT_EQ(a.res.levels, c.res.levels);
}

// ---------------------------------------------------------------------------
// Fault tolerance: crash + drop plans leave results bit-identical
// ---------------------------------------------------------------------------

void expect_bit_identical_under_faults(ProgramWorkload w,
                                       const bfs::Config& cfg) {
  const GraphBundle b = GraphBundle::make(10, 16, 3, 2);
  const ProgramQuery q{b.roots[0], b.roots[1]};

  Experiment clean(b, shape(2, 2));
  const ProgRun want = run_prog(clean, w, q, cfg, 2, 2);
  ASSERT_TRUE(want.res.converged);

  Experiment faulty(b, shape(2, 2));
  faulty.cluster().set_fault_injector(
      injector(faulty.cluster(), "seed:3,crash:rank=1@level=2,drop:prob=0.3"));
  const ProgRun got = run_prog(faulty, w, q, cfg, 2, 2);
  ASSERT_TRUE(got.res.converged) << to_string(w);
  EXPECT_EQ(got.res.ranks_lost, 1) << to_string(w);
  EXPECT_GE(got.res.recoveries, 1) << to_string(w);
  EXPECT_EQ(got.values, want.values) << to_string(w);
  EXPECT_EQ(got.res.value, want.res.value) << to_string(w);
}

TEST(VertexPrograms, SsspSurvivesCrashAndDropBitIdentically) {
  expect_bit_identical_under_faults(ProgramWorkload::sssp, bfs::original());
}

TEST(VertexPrograms, PageRankSurvivesCrashAndDropBitIdentically) {
  expect_bit_identical_under_faults(ProgramWorkload::pagerank,
                                    bfs::original());
}

TEST(VertexPrograms, ComponentsSurviveCrashAndDropBitIdentically) {
  expect_bit_identical_under_faults(ProgramWorkload::components,
                                    bfs::share_all());
}

TEST(VertexPrograms, CrashRecoveryIsTransparentToMinRelaxation) {
  // A recovered crash restores every survivor's val_out to the level
  // boundary and re-runs the level, so SSSP and components close the same
  // levels with the same kernels and reduced statistics as the crash-free
  // run, and land bit-identical values, whichever level the crash hits.
  const GraphBundle b = GraphBundle::make(10, 16, 3, 2);
  const ProgramQuery q{b.roots[0], b.roots[1]};
  for (const ProgramWorkload w :
       {ProgramWorkload::sssp, ProgramWorkload::components}) {
    Experiment ex(b, shape(2, 2));
    const ProgRun want = run_prog(ex, w, q, bfs::original(), 2, 2);
    ASSERT_TRUE(want.res.converged);
    for (const int rank : {1, 2}) {
      for (int level = 0; level < want.res.levels; ++level) {
        const std::string plan = "seed:1,crash:rank=" + std::to_string(rank) +
                                 "@level=" + std::to_string(level);
        ex.cluster().set_fault_injector(injector(ex.cluster(), plan));
        const ProgRun got = run_prog(ex, w, q, bfs::original(), 2, 2);
        const std::string where = std::string(to_string(w)) + " " + plan;
        ASSERT_EQ(got.res.recoveries, 1) << where;
        EXPECT_EQ(got.res.levels, want.res.levels) << where;
        EXPECT_EQ(got.res.td_levels, want.res.td_levels) << where;
        EXPECT_EQ(got.res.last.changed, want.res.last.changed) << where;
        EXPECT_EQ(got.values, want.values) << where;
      }
    }
  }
}

TEST(VertexPrograms, CrashWithCheckpointingOffIsRejected) {
  const GraphBundle b = GraphBundle::make(9, 16, 1, 2);
  Experiment ex(b, shape(2, 2));
  ex.cluster().set_fault_injector(injector(
      ex.cluster(), "seed:1,crash:rank=1@level=1,checkpoint:off"));
  EXPECT_THROW(run_prog(ex, ProgramWorkload::sssp, ProgramQuery{b.roots[0], 0},
                   bfs::original(), 2, 2),
               faults::FaultError);
}

// ---------------------------------------------------------------------------
// Checkpoint export / resume (the failover unit)
// ---------------------------------------------------------------------------

TEST(VertexPrograms, ExportedCheckpointResumesToTheSameAnswer) {
  const GraphBundle b = GraphBundle::make(10, 16, 5, 2);
  Experiment ex(b, shape(2, 2));
  const ProgramQuery q{b.roots[0], b.roots[1]};

  const ProgRun want = run_prog(ex, ProgramWorkload::sssp, q, bfs::original(), 2, 2);
  ASSERT_TRUE(want.res.converged);

  // Abort mid-flight while exporting every level, then resume elsewhere.
  ProgramCheckpoint ck;
  ProgramOptions exp;
  exp.export_to = &ck;
  exp.abort_at_ns = want.res.total_ns / 2;
  const ProgRun half = run_prog(ex, ProgramWorkload::sssp, q, bfs::original(), 2, 2,
                       {}, exp);
  ASSERT_TRUE(half.res.aborted);
  ASSERT_TRUE(ck.valid);
  ASSERT_GT(ck.level, 1);

  ProgramOptions res;
  res.resume_from = &ck;
  const ProgRun resumed = run_prog(ex, ProgramWorkload::sssp, q, bfs::original(), 2, 2,
                          {}, res);
  ASSERT_TRUE(resumed.res.converged);
  EXPECT_EQ(resumed.values, want.values);
  EXPECT_EQ(resumed.res.value, want.res.value);
}

// ---------------------------------------------------------------------------
// Observability must not perturb the simulation
// ---------------------------------------------------------------------------

TEST(VertexPrograms, TracingIsZeroPerturbation) {
  const GraphBundle b = GraphBundle::make(9, 16, 7, 2);
  Experiment ex(b, shape(2, 2));
  const ProgramQuery q{b.roots[0], b.roots[1]};
  const ProgRun quiet = run_prog(ex, ProgramWorkload::pagerank, q, bfs::original(), 2,
                        2);

  auto tr = std::make_shared<obs::Tracer>(ex.cluster().nranks(),
                                          ex.cluster().ppn());
  ex.cluster().set_tracer(tr);
  const ProgRun traced = run_prog(ex, ProgramWorkload::pagerank, q, bfs::original(), 2,
                         2);
  ex.cluster().set_tracer(nullptr);

  EXPECT_EQ(traced.res.total_ns, quiet.res.total_ns);
  EXPECT_EQ(traced.values, quiet.values);
  EXPECT_GT(tr->total_events(), 0u);
}

}  // namespace
}  // namespace numabfs::engine
