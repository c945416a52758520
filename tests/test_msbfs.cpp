/// \file test_msbfs.cpp
/// Correctness of the bit-parallel multi-source BFS wave kernel: every lane
/// of a batched wave must reproduce the serial reference BFS bit for bit —
/// distances, parent-tree validity, s-t early exit, k-hop radii — across
/// sharing levels, a seed x scale grid, and injected rank crashes.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bfs/config.hpp"
#include "engine/msbfs.hpp"
#include "faults/errors.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/validate.hpp"
#include "harness/graph500.hpp"

namespace numabfs::engine {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions eo;
  eo.nodes = nodes;
  eo.ppn = ppn;
  return eo;
}

std::vector<WaveQuery> full_wave(const GraphBundle& b, int batch) {
  std::vector<WaveQuery> qs;
  for (int i = 0; i < batch; ++i) {
    WaveQuery q;
    q.source = b.roots[static_cast<std::size_t>(i) % b.roots.size()];
    qs.push_back(q);
  }
  return qs;
}

/// Every lane's distances equal the reference depths and its parent tree
/// passes Graph500 validation.
void expect_lanes_match_reference(Experiment& ex, WaveState& ws,
                                  std::span<const WaveQuery> qs) {
  for (std::size_t l = 0; l < qs.size(); ++l) {
    const graph::Vertex root = qs[l].source;
    const graph::BfsTree ref = graph::reference_bfs(ex.bundle().csr, root);
    const auto dist =
        gather_lane_distances(ex.dist(), ws, static_cast<int>(l));
    for (std::uint64_t v = 0; v < ex.dist().n; ++v) {
      if (ref.reached(static_cast<graph::Vertex>(v))) {
        ASSERT_EQ(dist[v], ref.depth[v])
            << "lane " << l << " vertex " << v << " root " << root;
      } else {
        ASSERT_EQ(dist[v], kUnreached) << "lane " << l << " vertex " << v;
      }
    }
    const auto parent =
        gather_lane_parents(ex.dist(), ws, static_cast<int>(l));
    const auto val = graph::validate_bfs_tree(ex.bundle().csr, root, parent);
    ASSERT_TRUE(val.ok) << "lane " << l << ": " << val.error;
    EXPECT_EQ(val.visited, ref.visited);
  }
}

// ---------------------------------------------------------------------------
// Full-distance lanes vs the serial reference
// ---------------------------------------------------------------------------

TEST(MsBfs, LanesMatchReferenceAcrossSeedsAndScales) {
  for (const int scale : {9, 11}) {
    for (const std::uint64_t seed : {1ull, 7ull}) {
      const GraphBundle b = GraphBundle::make(scale, 16, seed, 16);
      Experiment ex(b, shape(2, 2));
      WaveState ws(ex.dist(), bfs::original(), 2, 2);
      const auto qs = full_wave(b, 8);
      const WaveResult wr = run_wave(ex.cluster(), ex.dist(), ws, qs);
      ASSERT_EQ(wr.lanes.size(), qs.size());
      EXPECT_GT(wr.wave_ns, 0.0);
      expect_lanes_match_reference(ex, ws, qs);
    }
  }
}

TEST(MsBfs, AllSharingLevelsProduceIdenticalLaneData) {
  const GraphBundle b = GraphBundle::make(11, 16, 3, 16);
  Experiment ex(b, shape(2, 4));
  const auto qs = full_wave(b, 16);
  for (const bfs::Config& cfg :
       {bfs::original(), bfs::share_in_queue(), bfs::share_all(),
        bfs::par_allgather()}) {
    SCOPED_TRACE(cfg.name());
    WaveState ws(ex.dist(), cfg, 2, 4);
    run_wave(ex.cluster(), ex.dist(), ws, qs);
    expect_lanes_match_reference(ex, ws, qs);
  }
}

TEST(MsBfs, SixtyFourLaneWaveAndStateReuse) {
  const GraphBundle b = GraphBundle::make(10, 16, 2, 64);
  Experiment ex(b, shape(2, 2));
  WaveState ws(ex.dist(), bfs::share_all(), 2, 2);
  const auto qs = full_wave(b, 64);
  run_wave(ex.cluster(), ex.dist(), ws, qs);
  expect_lanes_match_reference(ex, ws, qs);

  // Reuse the same state for a second, different wave: no bleed-through.
  std::vector<WaveQuery> qs2(qs.begin() + 3, qs.begin() + 9);
  run_wave(ex.cluster(), ex.dist(), ws, qs2);
  expect_lanes_match_reference(ex, ws, qs2);
}

// ---------------------------------------------------------------------------
// s-t reachability and k-hop lanes
// ---------------------------------------------------------------------------

TEST(MsBfs, StReachabilityRetiresAtTargetDepth) {
  const GraphBundle b = GraphBundle::make(10, 16, 5, 8);
  Experiment ex(b, shape(2, 2));
  const graph::Vertex root = b.roots[0];
  const graph::BfsTree ref = graph::reference_bfs(b.csr, root);

  // A reached target, an unreached one (if any), and the root itself.
  graph::Vertex far = root;
  for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v)
    if (ref.reached(v) && ref.depth[v] > ref.depth[far]) far = v;
  graph::Vertex unreached = graph::kNoVertex;
  for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v)
    if (!ref.reached(v)) {
      unreached = v;
      break;
    }

  std::vector<WaveQuery> qs;
  qs.push_back({QueryKind::st_reachability, root, far, 0});
  qs.push_back({QueryKind::st_reachability, root, root, 0});
  qs.push_back({QueryKind::full_distances, root, 0, 0});
  if (unreached != graph::kNoVertex)
    qs.push_back({QueryKind::st_reachability, root, unreached, 0});

  WaveState ws(ex.dist(), bfs::original(), 2, 2);
  const WaveResult wr = run_wave(ex.cluster(), ex.dist(), ws, qs);

  EXPECT_TRUE(wr.lanes[0].reached);
  EXPECT_EQ(wr.lanes[0].complete_level,
            static_cast<int>(ref.depth[far]));  // early exit, not drain
  EXPECT_TRUE(wr.lanes[1].reached);
  EXPECT_EQ(wr.lanes[1].complete_level, 0);  // trivial: target == source
  EXPECT_LE(wr.lanes[0].complete_ns, wr.lanes[2].complete_ns);
  if (unreached != graph::kNoVertex) {
    EXPECT_FALSE(wr.lanes[3].reached);
    // An unreachable target means the lane drains its whole component.
    EXPECT_EQ(wr.lanes[3].visited, ref.visited);
  }
}

TEST(MsBfs, KHopVisitsExactlyTheRadius) {
  const GraphBundle b = GraphBundle::make(10, 16, 9, 8);
  Experiment ex(b, shape(1, 4));
  const graph::Vertex root = b.roots[1];
  const graph::BfsTree ref = graph::reference_bfs(b.csr, root);

  std::vector<WaveQuery> qs;
  for (int k : {0, 1, 2, 3}) qs.push_back({QueryKind::k_hop, root, 0, k});

  WaveState ws(ex.dist(), bfs::share_all(), 1, 4);
  const WaveResult wr = run_wave(ex.cluster(), ex.dist(), ws, qs);

  for (std::size_t l = 0; l < qs.size(); ++l) {
    std::uint64_t want = 0;
    for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v)
      if (ref.reached(v) &&
          ref.depth[v] <= static_cast<std::uint32_t>(qs[l].k))
        ++want;
    EXPECT_EQ(wr.lanes[l].visited, want) << "k = " << qs[l].k;
    EXPECT_LE(wr.lanes[l].complete_level, qs[l].k);
  }
  // Deeper radii cannot retire earlier than shallower ones.
  EXPECT_LE(wr.lanes[0].complete_ns, wr.lanes[3].complete_ns);
}

// ---------------------------------------------------------------------------
// Determinism and argument validation
// ---------------------------------------------------------------------------

TEST(MsBfs, WavesAreBitDeterministic) {
  const GraphBundle b = GraphBundle::make(11, 16, 4, 16);
  Experiment ex(b, shape(2, 2));
  const auto qs = full_wave(b, 12);
  WaveState ws(ex.dist(), bfs::par_allgather(), 2, 2);
  const WaveResult a = run_wave(ex.cluster(), ex.dist(), ws, qs);
  const WaveResult c = run_wave(ex.cluster(), ex.dist(), ws, qs);
  EXPECT_EQ(a.wave_ns, c.wave_ns);
  EXPECT_EQ(a.levels, c.levels);
  ASSERT_EQ(a.lanes.size(), c.lanes.size());
  for (std::size_t l = 0; l < a.lanes.size(); ++l) {
    EXPECT_EQ(a.lanes[l].complete_ns, c.lanes[l].complete_ns);
    EXPECT_EQ(a.lanes[l].complete_level, c.lanes[l].complete_level);
    EXPECT_EQ(a.lanes[l].visited, c.lanes[l].visited);
  }
}

TEST(MsBfs, RejectsBadBatches) {
  const GraphBundle b = GraphBundle::make(9, 16, 1, 8);
  Experiment ex(b, shape(1, 2));
  WaveState ws(ex.dist(), bfs::original(), 1, 2);
  EXPECT_THROW(run_wave(ex.cluster(), ex.dist(), ws, {}),
               std::invalid_argument);
  const std::vector<WaveQuery> big(65, WaveQuery{.source = b.roots[0]});
  EXPECT_THROW(run_wave(ex.cluster(), ex.dist(), ws, big),
               std::invalid_argument);
  const std::vector<WaveQuery> oob{
      {QueryKind::full_distances,
       static_cast<graph::Vertex>(b.csr.num_vertices()), 0, 0}};
  EXPECT_THROW(run_wave(ex.cluster(), ex.dist(), ws, oob),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST(MsBfs, WaveSurvivesRankCrashWithCorrectLanes) {
  const GraphBundle b = GraphBundle::make(10, 16, 6, 16);
  Experiment ex(b, shape(2, 2));
  auto inj = std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:3,crash:rank=1@level=2"),
      ex.cluster().nranks(), ex.cluster().ppn());
  ex.cluster().set_fault_injector(inj);

  const auto qs = full_wave(b, 8);
  WaveState ws(ex.dist(), bfs::original(), 2, 2);
  const WaveResult wr = run_wave(ex.cluster(), ex.dist(), ws, qs);
  EXPECT_EQ(wr.ranks_lost, 1);
  EXPECT_GE(wr.recoveries, 1);
  expect_lanes_match_reference(ex, ws, qs);

  // Same plan, same wave: bit-identical virtual-time history.
  const WaveResult wr2 = run_wave(ex.cluster(), ex.dist(), ws, qs);
  EXPECT_EQ(wr.wave_ns, wr2.wave_ns);
  for (std::size_t l = 0; l < qs.size(); ++l)
    EXPECT_EQ(wr.lanes[l].complete_ns, wr2.lanes[l].complete_ns);

  // A crashed wave costs more virtual time than a clean one.
  ex.cluster().set_fault_injector(nullptr);
  const WaveResult clean = run_wave(ex.cluster(), ex.dist(), ws, qs);
  EXPECT_LT(clean.wave_ns, wr.wave_ns);
  expect_lanes_match_reference(ex, ws, qs);
}

TEST(MsBfs, CrashRecoveryIsTransparentToEveryLane) {
  // A recovered crash rolls the survivors' seen words back to the level
  // boundary and re-runs the level, so the wave closes every level as the
  // crash-free wave does: the same kernels, the same lane retirements and
  // the same per-lane distances and parents, whichever level the crash hits.
  const GraphBundle b = GraphBundle::make(10, 16, 6, 16);
  Experiment ex(b, shape(2, 2));
  auto qs = full_wave(b, 6);
  qs[4].kind = QueryKind::k_hop;
  qs[4].k = 3;
  qs[5].kind = QueryKind::st_reachability;
  qs[5].target = b.roots[0];
  WaveState ws(ex.dist(), bfs::original(), 2, 2);

  const WaveResult clean = run_wave(ex.cluster(), ex.dist(), ws, qs);
  std::vector<std::vector<Dist>> dist;
  std::vector<std::vector<graph::Vertex>> parent;
  for (int l = 0; l < static_cast<int>(qs.size()); ++l) {
    dist.push_back(gather_lane_distances(ex.dist(), ws, l));
    parent.push_back(gather_lane_parents(ex.dist(), ws, l));
  }

  for (const int rank : {1, 2}) {
    for (int level = 0; level < clean.levels; ++level) {
      const std::string plan = "seed:1,crash:rank=" + std::to_string(rank) +
                               "@level=" + std::to_string(level);
      ex.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
          faults::FaultPlan::parse(plan), ex.cluster().nranks(),
          ex.cluster().ppn()));
      const WaveResult wr = run_wave(ex.cluster(), ex.dist(), ws, qs);
      ASSERT_EQ(wr.recoveries, 1) << plan;
      EXPECT_EQ(wr.levels, clean.levels) << plan;
      EXPECT_EQ(wr.td_levels, clean.td_levels) << plan;
      for (std::size_t l = 0; l < qs.size(); ++l) {
        EXPECT_TRUE(wr.lanes[l].finished) << plan << " lane " << l;
        EXPECT_EQ(wr.lanes[l].complete_level, clean.lanes[l].complete_level)
            << plan << " lane " << l;
        EXPECT_EQ(wr.lanes[l].reached, clean.lanes[l].reached) << plan;
        EXPECT_EQ(wr.lanes[l].visited, clean.lanes[l].visited) << plan;
        const int li = static_cast<int>(l);
        EXPECT_EQ(gather_lane_distances(ex.dist(), ws, li), dist[l]) << plan;
        EXPECT_EQ(gather_lane_parents(ex.dist(), ws, li), parent[l]) << plan;
      }
    }
  }
  ex.cluster().set_fault_injector(nullptr);
}

TEST(MsBfs, AbortAfterRecorderCrashIsReported) {
  // Rank 0 records the wave's shared results. When it crashes, the level
  // re-runs and the abort horizon may fall at the re-run's entry: the new
  // recorder must report that abort, or the front door would never fail
  // the unfinished lanes over.
  const GraphBundle b = GraphBundle::make(10, 16, 6, 16);
  Experiment ex(b, shape(2, 2));
  ex.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:3,crash:rank=0@level=2"),
      ex.cluster().nranks(), ex.cluster().ppn()));
  const auto qs = full_wave(b, 8);
  WaveState ws(ex.dist(), bfs::original(), 2, 2);
  const WaveResult full = run_wave(ex.cluster(), ex.dist(), ws, qs);
  ASSERT_EQ(full.recoveries, 1);
  for (int i = 1; i < 200; ++i) {
    WaveOptions o;
    o.abort_at_ns = full.wave_ns * i / 200.0;
    const WaveResult r = run_wave(ex.cluster(), ex.dist(), ws, qs, o);
    std::uint64_t open = 0;
    for (std::size_t l = 0; l < qs.size(); ++l)
      if (!r.lanes[l].finished) open |= 1ull << l;
    EXPECT_EQ(r.aborted, open != 0) << "abort_at_ns " << o.abort_at_ns;
    EXPECT_EQ(r.unfinished, open) << "abort_at_ns " << o.abort_at_ns;
  }
}

TEST(MsBfs, ExportsEveryLevelAndResumesFromTheLast) {
  // The export runs at the entry of every level, so the last epoch sits at
  // the final level; a resume from it finishes the lanes live there, and
  // every lane's distances and tree still match the reference.
  const GraphBundle b = GraphBundle::make(10, 16, 6, 16);
  Experiment ex(b, shape(2, 2));
  const auto qs = full_wave(b, 8);
  WaveState ws(ex.dist(), bfs::original(), 2, 2);
  WaveCheckpoint ck;
  WaveOptions o;
  o.export_to = &ck;
  const WaveResult wr = run_wave(ex.cluster(), ex.dist(), ws, qs, o);
  ASSERT_TRUE(ck.valid);
  EXPECT_EQ(ck.level, wr.levels);

  WaveOptions r;
  r.resume_from = &ck;
  const WaveResult resumed = run_wave(ex.cluster(), ex.dist(), ws, qs, r);
  for (std::size_t l = 0; l < qs.size(); ++l)  // lanes live at the epoch
    EXPECT_EQ(resumed.lanes[l].finished, (ck.active >> l & 1) != 0) << l;
  expect_lanes_match_reference(ex, ws, qs);
}

TEST(MsBfs, CrashWithCheckpointingOffIsRejected) {
  const GraphBundle b = GraphBundle::make(9, 16, 1, 4);
  Experiment ex(b, shape(2, 2));
  ex.cluster().set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse("seed:1,crash:rank=1@level=1,checkpoint:off"),
      ex.cluster().nranks(), ex.cluster().ppn()));
  WaveState ws(ex.dist(), bfs::original(), 2, 2);
  const auto qs = full_wave(b, 4);
  try {
    run_wave(ex.cluster(), ex.dist(), ws, qs);
    FAIL() << "a crash plan without checkpointing must be refused";
  } catch (const faults::FaultError& e) {
    // The refusal names the entry point, before any rank starts.
    EXPECT_EQ(std::string(e.what()).rfind("run_wave: ", 0), 0u) << e.what();
  }
}

}  // namespace
}  // namespace numabfs::engine
