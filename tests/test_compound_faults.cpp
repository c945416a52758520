/// \file test_compound_faults.cpp
/// Compound failures: multiple rank crashes in one traversal, a crash
/// landing during another rank's recovery, and crashes stacked with link
/// degradation on the same node. Every scenario must still produce the
/// reference answer — chaos shows up as virtual time, never as wrong
/// distances — and replay bit-identically. Two crashes in one run are
/// covered for all four level loops (1-D, 2-D, wave, programs), which share
/// one adoption path. Also pins the parse-time validation contract for
/// contradictory or unreachable fault plans.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/hybrid.hpp"
#include "bfs2d/bfs2d.hpp"
#include "engine/msbfs.hpp"
#include "engine/programs.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/reference_algos.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"
#include "numasim/topology.hpp"

namespace numabfs {
namespace {

using faults::FaultPlan;
using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions o;
  o.nodes = nodes;
  o.ppn = ppn;
  return o;
}

void attach(Experiment& e, const std::string& spec) {
  e.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      FaultPlan::parse(spec), e.cluster().nranks(), e.cluster().ppn()));
}

/// One validated hybrid-BFS run: tree validates against the CSR and the
/// visited/edge counts match.
void expect_valid_run(Experiment& e, const bfs::Config& cfg,
                      bfs::BfsRunResult* out = nullptr) {
  const GraphBundle& b = e.bundle();
  const graph::Vertex root = b.roots[0];
  const auto [res, parent] = e.run_validated(cfg, root);
  const auto v = graph::validate_bfs_tree(b.csr, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(res.visited, v.visited);
  if (out != nullptr) *out = res;
}

// ---------------------------------------------------------------------------
// Parse-time validation of contradictory / unreachable plans
// ---------------------------------------------------------------------------

TEST(FaultPlanValidation, RejectsDuplicateCrashOfOneRank) {
  EXPECT_THROW(FaultPlan::parse("crash:rank=1@level=2,crash:rank=1@level=4"),
               std::invalid_argument);
  // Distinct ranks are fine, even at the same level.
  EXPECT_NO_THROW(FaultPlan::parse("crash:rank=1@level=2,crash:rank=2@level=2"));
}

TEST(FaultPlanValidation, RejectsImplausibleCrashLevel) {
  EXPECT_NO_THROW(FaultPlan::parse("crash:rank=0@level=100"));
  EXPECT_THROW(
      FaultPlan::parse("crash:rank=0@level=" +
                       std::to_string(faults::kMaxPlausibleCrashLevel + 1)),
      std::invalid_argument);
}

TEST(FaultPlanValidation, RejectsEmptyActivityWindows) {
  EXPECT_THROW(FaultPlan::parse("drop:prob=0.1@from=5e6@until=5e6"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("straggle:rank=0@factor=2@from=9e6@until=1e6"),
               std::invalid_argument);
}

TEST(FaultPlanValidation, OutageParsesAndRejectsContradictions) {
  const FaultPlan p = FaultPlan::parse("outage:at=5e6");
  EXPECT_DOUBLE_EQ(p.outage_at_ns(), 5e6);
  EXPECT_EQ(FaultPlan::parse("drop:prob=0.1").outage_at_ns(),
            std::numeric_limits<double>::infinity());
  EXPECT_THROW(FaultPlan::parse("outage:at=1e6,outage:at=2e6"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("outage:at=-5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("outage:now"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Compound crashes in the hybrid BFS
// ---------------------------------------------------------------------------

TEST(CompoundFaults, TwoRankCrashesInOneRunStillValidate) {
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 4));
  attach(e, "seed:7,crash:rank=1@level=2,crash:rank=5@level=3");

  bfs::BfsRunResult r1, r2;
  expect_valid_run(e, bfs::share_all(), &r1);
  EXPECT_EQ(r1.ranks_lost, 2);
  EXPECT_GE(r1.recoveries, 2);

  expect_valid_run(e, bfs::share_all(), &r2);
  EXPECT_EQ(r1.time_ns, r2.time_ns);
  EXPECT_EQ(r1.recoveries, r2.recoveries);

  // Two losses cost more than one, which costs more than none.
  attach(e, "seed:7,crash:rank=1@level=2");
  bfs::BfsRunResult one;
  expect_valid_run(e, bfs::share_all(), &one);
  e.cluster().set_fault_injector(nullptr);
  bfs::BfsRunResult clean;
  expect_valid_run(e, bfs::share_all(), &clean);
  EXPECT_GT(r1.time_ns, one.time_ns);
  EXPECT_GT(one.time_ns, clean.time_ns);
}

TEST(CompoundFaults, CrashDuringAnotherRanksRecoveryValidates) {
  // Both ranks die entering the same level: the second death lands while
  // the survivors are already rolling back for the first. Adoption must
  // chain (possibly the same adopter takes both partitions).
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 4));
  attach(e, "seed:9,crash:rank=2@level=2,crash:rank=3@level=2");
  bfs::BfsRunResult r;
  expect_valid_run(e, bfs::share_all(), &r);
  EXPECT_EQ(r.ranks_lost, 2);
  EXPECT_GE(r.recoveries, 1);

  // Recorder + a same-node neighbor at the same level: bookkeeping hand-off
  // happens while a second adoption is in flight.
  attach(e, "seed:9,crash:rank=0@level=1,crash:rank=1@level=1");
  expect_valid_run(e, bfs::original(), &r);
  EXPECT_EQ(r.ranks_lost, 2);
}

TEST(CompoundFaults, CrashPlusLinkDegradeOnSameNodeValidates) {
  // Node 0 loses a rank AND runs its NIC at quarter bandwidth: the adopter
  // of the dead partition sits behind the degraded link.
  const GraphBundle b = GraphBundle::make(12, 16, 42, 4);
  Experiment e(b, shape(2, 4));
  attach(e, "seed:5,crash:rank=1@level=2,degrade:node=0@factor=0.25");
  bfs::BfsRunResult both1, both2;
  expect_valid_run(e, bfs::share_all(), &both1);
  EXPECT_EQ(both1.ranks_lost, 1);
  expect_valid_run(e, bfs::share_all(), &both2);
  EXPECT_EQ(both1.time_ns, both2.time_ns);

  // The stacked faults cost more than the crash alone.
  attach(e, "seed:5,crash:rank=1@level=2");
  bfs::BfsRunResult crash_only;
  expect_valid_run(e, bfs::share_all(), &crash_only);
  EXPECT_GT(both1.time_ns, crash_only.time_ns);
}

// ---------------------------------------------------------------------------
// Compound crashes under the MS-BFS wave engine
// ---------------------------------------------------------------------------

TEST(CompoundFaults, WaveSurvivesTwoCrashesAndMatchesReference) {
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment e(b, shape(2, 2));
  attach(e, "seed:11,crash:rank=1@level=2,crash:rank=2@level=3");

  engine::WaveState ws(e.dist(), bfs::share_all(), 2, 2, false);
  std::vector<engine::WaveQuery> qs;
  for (int i = 0; i < 4; ++i)
    qs.push_back({engine::QueryKind::full_distances,
                  b.roots[static_cast<std::size_t>(i)], 0, 0});
  const engine::WaveResult wr = engine::run_wave(e.cluster(), e.dist(), ws, qs);
  EXPECT_EQ(wr.ranks_lost, 2);
  EXPECT_GE(wr.recoveries, 2);
  for (std::size_t l = 0; l < qs.size(); ++l) {
    ASSERT_TRUE(wr.lanes[l].finished);
    const auto ref = graph::reference_bfs(b.csr, qs[l].source);
    const auto dist =
        engine::gather_lane_distances(e.dist(), ws, static_cast<int>(l));
    for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v) {
      if (ref.reached(v))
        ASSERT_EQ(dist[v], ref.depth[v]);
      else
        ASSERT_EQ(dist[v], engine::kUnreached);
    }
  }

  // Bit-deterministic replay, wave edition.
  engine::WaveState ws2(e.dist(), bfs::share_all(), 2, 2, false);
  const engine::WaveResult wr2 =
      engine::run_wave(e.cluster(), e.dist(), ws2, qs);
  EXPECT_EQ(wr.wave_ns, wr2.wave_ns);
  EXPECT_EQ(wr.recoveries, wr2.recoveries);
}

// ---------------------------------------------------------------------------
// Compound crashes under the 2-D BFS and the frontier programs
// ---------------------------------------------------------------------------

TEST(CompoundFaults, TwoDSurvivesTwoCrashesAndMatchesReference) {
  const GraphBundle b = GraphBundle::make(10, 16, 5, 1);
  const bfs2d::Grid2d grid = bfs2d::Grid2d::make(b.csr.num_vertices(), 16, 4);
  const bfs2d::DistGraph2d d = bfs2d::DistGraph2d::build(b.csr, grid);
  rt::Cluster c(sim::Topology::xeon_x7550_cluster(4), sim::CostParams{}, 4);
  const graph::Vertex root = b.roots[0];
  c.set_fault_injector(std::make_shared<faults::FaultInjector>(
      FaultPlan::parse("seed:3,crash:rank=1@level=1,crash:rank=6@level=2"),
      c.nranks(), c.ppn()));

  std::vector<graph::Vertex> parent, parent2;
  const bfs2d::Bfs2dResult r = bfs2d::run_bfs_2d(c, d, root, &parent);
  EXPECT_EQ(r.ranks_lost, 2);
  EXPECT_EQ(r.recoveries, 2);
  const auto v = graph::validate_bfs_tree(b.csr, root, parent);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(r.visited, graph::reference_bfs(b.csr, root).visited);

  const bfs2d::Bfs2dResult r2 = bfs2d::run_bfs_2d(c, d, root, &parent2);
  EXPECT_EQ(r.time_ns, r2.time_ns);
  EXPECT_EQ(parent, parent2);
}

TEST(CompoundFaults, ProgramSurvivesTwoCrashesAndMatchesReference) {
  const GraphBundle b = GraphBundle::make(10, 16, 7, 2);
  Experiment e(b, shape(2, 2));
  attach(e, "seed:11,crash:rank=1@level=2,crash:rank=2@level=3");
  const engine::ProgramParams pp;
  const engine::ProgramQuery q{b.roots[0], b.roots[1]};
  const auto prog =
      engine::make_program(engine::ProgramWorkload::sssp, e.dist(), pp);

  const auto run = [&](std::vector<engine::Value>& values) {
    engine::ProgramState ps(e.dist(), bfs::share_all(), 2, 2,
                            prog->with_values());
    const engine::ProgramResult r =
        engine::run_program(e.cluster(), e.dist(), ps, *prog, q);
    values = engine::gather_values(e.dist(), ps);
    return r;
  };
  std::vector<engine::Value> values, values2;
  const engine::ProgramResult r = run(values);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.ranks_lost, 2);
  EXPECT_EQ(r.recoveries, 2);
  const auto ref = graph::ref_sssp(
      b.csr, graph::EdgeWeights{pp.weight_seed, pp.sssp_max_weight}, q.source);
  for (std::uint64_t v = 0; v < e.dist().n; ++v)
    ASSERT_EQ(values[v], ref[v]) << "vertex " << v;

  const engine::ProgramResult r2 = run(values2);
  EXPECT_EQ(r.total_ns, r2.total_ns);
  EXPECT_EQ(r.levels, r2.levels);
  EXPECT_EQ(values, values2);
}

}  // namespace
}  // namespace numabfs
