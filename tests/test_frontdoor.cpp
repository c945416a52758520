/// \file test_frontdoor.cpp
/// The replicated serving tier: heartbeat detection closed form, SLO-aware
/// admission with exact degraded answers, mid-query failover onto a healthy
/// replica, and bit-reproducible chaos accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "bfs/config.hpp"
#include "engine/frontdoor.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "graph/reference_algos.hpp"
#include "graph/reference_bfs.hpp"
#include "graph/weights.hpp"
#include "harness/graph500.hpp"

namespace numabfs::engine {
namespace {

using harness::Experiment;
using harness::ExperimentOptions;
using harness::GraphBundle;

constexpr double kInf = std::numeric_limits<double>::infinity();

ExperimentOptions shape(int nodes, int ppn) {
  ExperimentOptions eo;
  eo.nodes = nodes;
  eo.ppn = ppn;
  return eo;
}

void attach_plan(rt::Cluster& c, const std::string& spec) {
  c.set_fault_injector(std::make_shared<faults::FaultInjector>(
      faults::FaultPlan::parse(spec), c.nranks(), c.ppn()));
}

Query make_query(int id, QueryKind kind, graph::Vertex s, double arrival,
                 graph::Vertex t = 0, int k = 0) {
  Query q;
  q.id = id;
  q.kind = kind;
  q.source = s;
  q.target = t;
  q.k = k;
  q.arrival_ns = arrival;
  return q;
}

// ---------------------------------------------------------------------------
// Heartbeat detection closed form
// ---------------------------------------------------------------------------

TEST(Heartbeat, InfiniteOutageNeverDetects) {
  EXPECT_EQ(heartbeat_detect_ns(kInf, 2.5e5, 5e4, 3), kInf);
}

TEST(Heartbeat, FirstFailingProbeThenBackoffLadder) {
  // Outage exactly on a probe instant: that probe is already lost
  // (heartbeat_ok is now < outage), then 2 backoff re-probes at +b, +3b.
  EXPECT_DOUBLE_EQ(heartbeat_detect_ns(1.0e6, 2.5e5, 5e4, 3),
                   1.0e6 + 5e4 * 3);
  // Outage mid-interval: the next probe at 1.25e6 is the first loss.
  EXPECT_DOUBLE_EQ(heartbeat_detect_ns(1.1e6, 2.5e5, 5e4, 3),
                   1.25e6 + 5e4 * 3);
  // threshold=1: the first lost probe alone confirms the death.
  EXPECT_DOUBLE_EQ(heartbeat_detect_ns(1.1e6, 2.5e5, 5e4, 1), 1.25e6);
  // Outage at t=0: probe 0 is lost; detection is the pure backoff ladder.
  EXPECT_DOUBLE_EQ(heartbeat_detect_ns(0.0, 2.5e5, 5e4, 4), 5e4 * 7);
}

TEST(Heartbeat, DetectionIsMonotoneInThreshold) {
  double prev = 0;
  for (int th = 1; th <= 6; ++th) {
    const double d = heartbeat_detect_ns(3.3e6, 2e5, 1e5, th);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

// ---------------------------------------------------------------------------
// Fault-free serving: everything served, exactly, on any replica
// ---------------------------------------------------------------------------

TEST(FrontDoorServe, FaultFreeServesEverythingExactly) {
  const GraphBundle b = GraphBundle::make(10, 16, 4, 16);
  Experiment ex0(b, shape(2, 2)), ex1(b, shape(2, 2));

  std::map<graph::Vertex, graph::BfsTree> ref;
  FrontDoorConfig fdc;
  fdc.max_batch = 8;
  fdc.sink = [&](int, std::span<const WaveQuery> wq, const WaveResult& wr,
                 WaveState& state) {
    ASSERT_EQ(wr.lanes.size(), wq.size());
    for (std::size_t l = 0; l < wq.size(); ++l) {
      if (wq[l].kind != QueryKind::full_distances || !wr.lanes[l].finished)
        continue;
      auto [it, inserted] = ref.try_emplace(wq[l].source);
      if (inserted) it->second = graph::reference_bfs(b.csr, wq[l].source);
      const auto dist =
          gather_lane_distances(ex0.dist(), state, static_cast<int>(l));
      for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v) {
        if (it->second.reached(v))
          ASSERT_EQ(dist[v], it->second.depth[v]);
        else
          ASSERT_EQ(dist[v], kUnreached);
      }
    }
  };
  FrontDoor door(bfs::share_all(), fdc,
                 {{&ex0.cluster(), &ex0.dist()}, {&ex1.cluster(), &ex1.dist()}});
  EXPECT_EQ(door.replicas(), 2);

  WorkloadSpec s;
  s.num_queries = 24;
  s.seed = 5;
  s.mean_interarrival_ns = 2e5;
  s.st_fraction = 0.25;
  s.khop_fraction = 0.25;
  const auto qs = QueryEngine::generate(ex0.dist(), s);
  const FrontDoorReport rep = door.serve(qs);

  ASSERT_EQ(rep.results.size(), 24u);
  EXPECT_EQ(rep.failovers, 0);
  EXPECT_EQ(rep.replicas_lost, 0);
  EXPECT_EQ(rep.shed + rep.degraded, 0);
  int submitted = 0;
  for (const auto& cs : rep.cls) submitted += cs.submitted;
  EXPECT_EQ(submitted, 24);
  for (const ServedQuery& r : rep.results) {
    EXPECT_EQ(r.outcome, Outcome::served);
    EXPECT_GE(r.admit_ns, r.arrival_ns);
    EXPECT_GE(r.start_ns, r.admit_ns);
    EXPECT_GT(r.complete_ns, r.start_ns);
    EXPECT_GE(r.replica, 0);
    EXPECT_LT(r.replica, 2);
    EXPECT_GT(r.visited, 0u);
  }
  // With generous default SLOs on a tiny graph everything attains.
  for (const auto& cs : rep.cls) EXPECT_DOUBLE_EQ(cs.attainment, 1.0);
}

TEST(FrontDoorServe, TwoReplicasOverlapWavesInVirtualTime) {
  const GraphBundle b = GraphBundle::make(10, 16, 6, 16);
  Experiment ex0(b, shape(1, 2)), ex1(b, shape(1, 2));
  FrontDoorConfig fdc;
  fdc.max_batch = 1;  // force many waves
  FrontDoor door(bfs::original(), fdc,
                 {{&ex0.cluster(), &ex0.dist()}, {&ex1.cluster(), &ex1.dist()}});
  WorkloadSpec s;
  s.num_queries = 8;
  s.seed = 3;
  s.mean_interarrival_ns = 1.0;  // a burst at ~t=0
  const auto qs = QueryEngine::generate(ex0.dist(), s);
  const FrontDoorReport rep = door.serve(qs);
  EXPECT_EQ(rep.waves, 8);
  // Two replicas drained the burst concurrently: summed busy time exceeds
  // the wall time one replica would need.
  EXPECT_GT(rep.busy_ns, rep.total_ns * 1.5);
  int used[2] = {0, 0};
  for (const ServedQuery& r : rep.results) ++used[r.replica];
  EXPECT_GT(used[0], 0);
  EXPECT_GT(used[1], 0);
}

TEST(FrontDoorServe, RejectsBadConstruction) {
  const GraphBundle b = GraphBundle::make(8, 16, 2, 8);
  Experiment ex0(b, shape(1, 2)), ex1(b, shape(2, 2));
  EXPECT_THROW(FrontDoor(bfs::share_all(), {}, {}), std::invalid_argument);
  // Mismatched cluster shapes across replicas.
  EXPECT_THROW(
      FrontDoor(bfs::share_all(), {},
                {{&ex0.cluster(), &ex0.dist()}, {&ex1.cluster(), &ex1.dist()}}),
      std::invalid_argument);
  FrontDoorConfig bad;
  bad.max_batch = 65;
  EXPECT_THROW(FrontDoor(bfs::share_all(), bad, {{&ex0.cluster(), &ex0.dist()}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Graceful degradation: cached answers are exact, never approximate
// ---------------------------------------------------------------------------

TEST(FrontDoorServe, DegradedReachAndKhopMatchReference) {
  const GraphBundle b = GraphBundle::make(10, 16, 9, 16);
  Experiment ex(b, shape(2, 2));
  const graph::Vertex root = b.roots[0];
  const graph::Vertex other = b.roots[1];
  const graph::BfsTree ref = graph::reference_bfs(b.csr, root);

  graph::Vertex inside = root;
  for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v)
    if (v != root && ref.reached(v)) {
      inside = v;
      break;
    }
  graph::Vertex outside = graph::kNoVertex;
  for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v)
    if (!ref.reached(v)) {
      outside = v;
      break;
    }

  FrontDoorConfig fdc;
  fdc.slo.khop_ns = 1.0;
  fdc.slo.reach_ns = 1.0;
  FrontDoor door(bfs::share_all(), fdc, {{&ex.cluster(), &ex.dist()}});

  const double late = 1e9;
  std::vector<Query> qs;
  int id = 0;
  qs.push_back(make_query(id++, QueryKind::full_distances, root, 0.0));
  qs.push_back(make_query(id++, QueryKind::k_hop, root, late, 0, 2));
  qs.push_back(make_query(id++, QueryKind::st_reachability, root, late, inside));
  if (outside != graph::kNoVertex) {
    qs.push_back(
        make_query(id++, QueryKind::st_reachability, root, late, outside));
    // Unlabeled source, labeled target: answered from the target's label.
    qs.push_back(
        make_query(id++, QueryKind::st_reachability, outside, late, root));
  }
  // Uncached source: must shed, never guess.
  qs.push_back(make_query(id++, QueryKind::k_hop, other, late, 0, 2));
  const FrontDoorReport rep = door.serve(qs);

  ASSERT_EQ(rep.results[0].outcome, Outcome::served);

  // k-hop from the cached root: exact neighborhood count.
  std::uint64_t expect_k2 = 0;
  for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v)
    expect_k2 += ref.reached(v) && ref.depth[v] <= 2;
  ASSERT_EQ(rep.results[1].outcome, Outcome::degraded);
  EXPECT_EQ(rep.results[1].visited, expect_k2);
  EXPECT_EQ(rep.results[1].replica, -1);

  // Reachability within the cached component: true.
  ASSERT_EQ(rep.results[2].outcome, Outcome::degraded);
  EXPECT_TRUE(rep.results[2].reached);

  std::size_t next = 3;
  if (outside != graph::kNoVertex) {
    for (const std::size_t i : {next, next + 1}) {
      ASSERT_EQ(rep.results[i].outcome, Outcome::degraded) << i;
      EXPECT_FALSE(rep.results[i].reached) << i;
    }
    next += 2;
  }
  // The uncached k-hop source has no exact answer: shed, counted as missed.
  EXPECT_EQ(rep.results[next].outcome, Outcome::shed);
  EXPECT_TRUE(std::isnan(rep.results[next].complete_ns));
  EXPECT_GT(rep.shed, 0);
  EXPECT_GT(rep.degraded, 0);
  EXPECT_LT(rep.cls[static_cast<int>(SloClass::k_hop)].attainment, 1.0);
}

TEST(FrontDoorServe, FullDistanceIsNeverShed) {
  const GraphBundle b = GraphBundle::make(10, 16, 4, 16);
  Experiment ex(b, shape(2, 2));
  FrontDoorConfig fdc;
  fdc.max_batch = 4;
  // Impossible deadlines for every class: full-distance still always rides.
  fdc.slo.full_ns = 1.0;
  fdc.slo.khop_ns = 1.0;
  fdc.slo.reach_ns = 1.0;
  FrontDoor door(bfs::share_all(), fdc, {{&ex.cluster(), &ex.dist()}});
  WorkloadSpec s;
  s.num_queries = 20;
  s.seed = 7;
  s.mean_interarrival_ns = 1e5;
  s.st_fraction = 0.3;
  s.khop_fraction = 0.3;
  const auto qs = QueryEngine::generate(ex.dist(), s);
  const FrontDoorReport rep = door.serve(qs);
  EXPECT_EQ(rep.cls[static_cast<int>(SloClass::full_distance)].shed, 0);
  EXPECT_EQ(rep.cls[static_cast<int>(SloClass::full_distance)].attainment, 0.0);
  for (const ServedQuery& r : rep.results) {
    if (r.cls == SloClass::full_distance) {
      EXPECT_EQ(r.outcome, Outcome::served);
    }
  }
}

// ---------------------------------------------------------------------------
// Mid-query failover
// ---------------------------------------------------------------------------

/// Serve a burst of full-distance queries with replica 0 dying mid-wave at
/// `outage_ns`, validating every finished lane against the reference BFS.
FrontDoorReport failover_run(const GraphBundle& b, Experiment& ex0,
                             Experiment& ex1, double outage_ns,
                             std::map<graph::Vertex, graph::BfsTree>& ref,
                             bool trivial_last = false) {
  attach_plan(ex0.cluster(),
              "seed:3,outage:at=" + std::to_string(outage_ns));
  ex1.cluster().set_fault_injector(nullptr);

  FrontDoorConfig fdc;
  fdc.max_batch = 8;
  fdc.sink = [&](int, std::span<const WaveQuery> wq, const WaveResult& wr,
                 WaveState& state) {
    for (std::size_t l = 0; l < wq.size(); ++l) {
      if (wq[l].kind != QueryKind::full_distances || !wr.lanes[l].finished)
        continue;
      auto [it, inserted] = ref.try_emplace(wq[l].source);
      if (inserted) it->second = graph::reference_bfs(b.csr, wq[l].source);
      const auto dist =
          gather_lane_distances(ex0.dist(), state, static_cast<int>(l));
      for (graph::Vertex v = 0; v < b.csr.num_vertices(); ++v) {
        if (it->second.reached(v))
          ASSERT_EQ(dist[v], it->second.depth[v]);
        else
          ASSERT_EQ(dist[v], kUnreached);
      }
    }
  };
  FrontDoor door(bfs::share_all(), fdc,
                 {{&ex0.cluster(), &ex0.dist()}, {&ex1.cluster(), &ex1.dist()}});
  std::vector<Query> qs;
  for (int i = 0; i < 8; ++i)
    qs.push_back(make_query(i, QueryKind::full_distances,
                            b.roots[static_cast<std::size_t>(i) % b.roots.size()],
                            0.0));
  // A 0-hop lane retires at seeding, before the wave's first level.
  if (trivial_last) qs.back().kind = QueryKind::k_hop;
  return door.serve(qs);
}

TEST(FrontDoorServe, MidWaveOutageFailsOverAndStaysExact) {
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment ex0(b, shape(2, 2)), ex1(b, shape(2, 2));

  // Measure a clean wave to place the outage mid-flight.
  std::map<graph::Vertex, graph::BfsTree> ref;
  const FrontDoorReport clean = failover_run(b, ex0, ex1, 1e30, ref);
  ASSERT_EQ(clean.failovers, 0);
  const double wave_ns = clean.busy_ns / clean.waves;
  const double outage = 0.5 * wave_ns;

  const FrontDoorReport rep = failover_run(b, ex0, ex1, outage, ref);
  EXPECT_GE(rep.failovers, 1);
  EXPECT_EQ(rep.replicas_lost, 1);
  EXPECT_GT(rep.failover_blip_ns, 0.0);
  EXPECT_EQ(rep.shed, 0);
  int failed_over = 0;
  for (const ServedQuery& r : rep.results) {
    ASSERT_TRUE(r.outcome == Outcome::served ||
                r.outcome == Outcome::failed_over);
    EXPECT_GT(r.visited, 0u);
    if (r.outcome == Outcome::failed_over) {
      ++failed_over;
      EXPECT_EQ(r.replica, 1);  // completed on the survivor
    }
  }
  EXPECT_GE(failed_over, 1);
  // The blip costs real virtual time.
  EXPECT_GT(rep.total_ns, clean.total_ns);

  // Visited counts agree with the undisturbed run: failover changed
  // latency, never answers.
  for (std::size_t i = 0; i < rep.results.size(); ++i)
    EXPECT_EQ(rep.results[i].visited, clean.results[i].visited);
}

TEST(FrontDoorServe, FailoverIsBitDeterministic) {
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment ex0(b, shape(2, 2)), ex1(b, shape(2, 2));
  std::map<graph::Vertex, graph::BfsTree> ref;
  const FrontDoorReport probe = failover_run(b, ex0, ex1, 1e30, ref);
  const double outage = 0.5 * probe.busy_ns / probe.waves;

  const FrontDoorReport r1 = failover_run(b, ex0, ex1, outage, ref);
  const FrontDoorReport r2 = failover_run(b, ex0, ex1, outage, ref);
  EXPECT_EQ(r1.total_ns, r2.total_ns);
  EXPECT_EQ(r1.failover_blip_ns, r2.failover_blip_ns);
  EXPECT_EQ(r1.failovers, r2.failovers);
  for (int c = 0; c < static_cast<int>(SloClass::kCount); ++c) {
    EXPECT_EQ(r1.cls[c].p50_ns, r2.cls[c].p50_ns);
    EXPECT_EQ(r1.cls[c].p99_ns, r2.cls[c].p99_ns);
  }
  for (std::size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(r1.results[i].complete_ns, r2.results[i].complete_ns);
    EXPECT_EQ(r1.results[i].outcome, r2.results[i].outcome);
  }
}

TEST(FrontDoorServe, OutageBeforeFirstExportReRunsTheWaveFromScratch) {
  // Replica 0 dies before the wave's first level, so no epoch was ever
  // exported: the failover unit re-runs its unfinished lanes from scratch
  // on the survivor, with the clean run's answers, and replays
  // bit-identically. The trivial last lane retired at seeding, before the
  // abort: it stays served on replica 0 and is not re-run.
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment ex0(b, shape(2, 2)), ex1(b, shape(2, 2));
  std::map<graph::Vertex, graph::BfsTree> ref;
  const FrontDoorReport clean = failover_run(b, ex0, ex1, 1e30, ref, true);
  ASSERT_EQ(clean.failovers, 0);

  const FrontDoorReport r1 = failover_run(b, ex0, ex1, 1.0, ref, true);
  EXPECT_EQ(r1.failovers, 1);
  EXPECT_EQ(r1.replicas_lost, 1);
  EXPECT_EQ(r1.shed, 0);
  const std::size_t last = r1.results.size() - 1;
  for (std::size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(r1.results[i].outcome,
              i == last ? Outcome::served : Outcome::failed_over)
        << i;
    EXPECT_EQ(r1.results[i].replica, i == last ? 0 : 1) << i;
    EXPECT_EQ(r1.results[i].visited, clean.results[i].visited) << i;
    EXPECT_EQ(r1.results[i].complete_level, clean.results[i].complete_level)
        << i;
  }

  const FrontDoorReport r2 = failover_run(b, ex0, ex1, 1.0, ref, true);
  EXPECT_EQ(r1.total_ns, r2.total_ns);
  EXPECT_EQ(r1.failover_blip_ns, r2.failover_blip_ns);
  for (std::size_t i = 0; i < r1.results.size(); ++i)
    EXPECT_EQ(r1.results[i].complete_ns, r2.results[i].complete_ns) << i;
}

TEST(FrontDoorServe, AllReplicasDownMarksRemainderLost) {
  const GraphBundle b = GraphBundle::make(10, 16, 4, 16);
  Experiment ex(b, shape(2, 2));
  attach_plan(ex.cluster(), "seed:1,outage:at=1e4");
  FrontDoorConfig fdc;
  FrontDoor door(bfs::share_all(), fdc, {{&ex.cluster(), &ex.dist()}});
  std::vector<Query> qs;
  // Arrive well after the only replica died and was detected.
  for (int i = 0; i < 4; ++i)
    qs.push_back(make_query(i, QueryKind::full_distances, b.roots[0], 1e8));
  const FrontDoorReport rep = door.serve(qs);
  for (const ServedQuery& r : rep.results) {
    EXPECT_EQ(r.outcome, Outcome::lost);
    EXPECT_TRUE(std::isnan(r.complete_ns));
  }
  EXPECT_DOUBLE_EQ(rep.shed_rate, 1.0);
  EXPECT_EQ(rep.replicas_lost, 1);
}

TEST(FrontDoorServe, FailoverUnitWithNoSurvivorIsLost) {
  // The only replica dies mid-wave, after the wave's 1-hop lanes retired:
  // those keep their answers, and the failover unit's unfinished lanes, with
  // no healthy replica left to resume them, end lost.
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment ex(b, shape(2, 2));
  std::vector<Query> qs;
  for (int i = 0; i < 8; ++i)
    qs.push_back(make_query(
        i, i < 2 ? QueryKind::k_hop : QueryKind::full_distances,
        b.roots[static_cast<std::size_t>(i) % b.roots.size()], 0.0, 0, 1));
  const auto serve = [&](double outage_ns) {
    attach_plan(ex.cluster(), "seed:3,outage:at=" + std::to_string(outage_ns));
    FrontDoorConfig fdc;
    fdc.max_batch = 8;
    FrontDoor door(bfs::share_all(), fdc, {{&ex.cluster(), &ex.dist()}});
    return door.serve(qs);
  };

  // Place the outage between the last 1-hop and the first full-distance
  // completion of a clean run.
  const FrontDoorReport clean = serve(1e30);
  ASSERT_EQ(clean.waves, 1);
  double khop_done = 0;
  double full_done = kInf;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double t = clean.results[i].complete_ns;
    if (i < 2) khop_done = std::max(khop_done, t);
    else full_done = std::min(full_done, t);
  }
  ASSERT_LT(khop_done, full_done);

  const FrontDoorReport rep = serve(0.5 * (khop_done + full_done));
  EXPECT_EQ(rep.failovers, 0);
  EXPECT_EQ(rep.replicas_lost, 1);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const ServedQuery& r = rep.results[i];
    if (i < 2) {
      ASSERT_EQ(r.outcome, Outcome::served) << i;
      EXPECT_EQ(r.visited, clean.results[i].visited) << i;
      EXPECT_EQ(r.complete_ns, clean.results[i].complete_ns) << i;
    } else {
      EXPECT_EQ(r.outcome, Outcome::lost) << i;
      EXPECT_TRUE(std::isnan(r.complete_ns)) << i;
    }
  }
  EXPECT_EQ(rep.shed, 6);
}

// ---------------------------------------------------------------------------
// Degradation cache vs the dynamic-graph epoch
// ---------------------------------------------------------------------------

TEST(FrontDoorServe, CachedDegradedAnswersDieWithTheirEpoch) {
  const GraphBundle b = GraphBundle::make(10, 16, 9, 16);
  Experiment ex(b, shape(2, 2));
  const graph::Vertex root = b.roots[0];

  // A graph source serving the same snapshot content under a controllable
  // epoch stamp: epoch 1 until t = 5e8, then (optionally) epoch 2. The
  // full-distance BFS at t=0 populates the degradation cache under epoch 1;
  // the k-hop at t=1e9 pins whatever the source says *then*.
  const auto run = [&](bool advance) {
    FrontDoorConfig fdc;
    fdc.slo.khop_ns = 1.0;  // k-hop can never ride a wave: degrade or shed
    std::shared_ptr<const graph::DistGraph> alias(std::shared_ptr<void>(),
                                                  &ex.dist());
    fdc.graph_source = [&, alias, advance](double now) {
      PinnedGraph pg;
      pg.epoch = advance && now > 5e8 ? 2 : 1;
      pg.graph = alias;
      return pg;
    };
    FrontDoor door(bfs::share_all(), fdc, {{&ex.cluster(), &ex.dist()}});
    std::vector<Query> qs;
    qs.push_back(make_query(0, QueryKind::full_distances, root, 0.0));
    qs.push_back(make_query(1, QueryKind::k_hop, root, 1e9, 0, 2));
    return door.serve(qs);
  };

  // Control: the epoch holds still, so the cached labeling is valid and the
  // late k-hop is answered exactly from it.
  const FrontDoorReport same = run(false);
  ASSERT_EQ(same.results[0].outcome, Outcome::served);
  EXPECT_EQ(same.results[0].epoch, 1u);
  ASSERT_EQ(same.results[1].outcome, Outcome::degraded);

  // Regression (the staleness bug): once the serving epoch moves past the
  // cached labeling, the cache must refuse — shed, never a stale answer.
  const FrontDoorReport moved = run(true);
  ASSERT_EQ(moved.results[0].outcome, Outcome::served);
  EXPECT_EQ(moved.results[0].epoch, 1u);
  EXPECT_EQ(moved.results[1].outcome, Outcome::shed);
}

// ---------------------------------------------------------------------------
// Analytics: background program dispatches
// ---------------------------------------------------------------------------

TEST(FrontDoorServe, AnalyticsIsBackgroundNeverShedAndExact) {
  const GraphBundle b = GraphBundle::make(10, 16, 6, 16);
  Experiment ex(b, shape(2, 2));
  FrontDoorConfig fdc;
  fdc.max_batch = 8;
  // Impossible deadlines for every class: interactive k-hop/reachability
  // degrade or shed, but analytics never does — it is background work with
  // a reporting-only objective.
  fdc.slo.khop_ns = 1.0;
  fdc.slo.reach_ns = 1.0;
  fdc.slo.analytics_ns = 1.0;
  FrontDoor door(bfs::share_all(), fdc, {{&ex.cluster(), &ex.dist()}});

  WorkloadSpec s;
  s.num_queries = 32;
  s.seed = 19;
  s.mean_interarrival_ns = 2e5;
  s.st_fraction = 0.15;
  s.khop_fraction = 0.15;
  s.sssp_fraction = 0.15;
  s.pagerank_fraction = 0.1;
  s.components_fraction = 0.1;
  s.triangles_fraction = 0.1;
  const auto qs = QueryEngine::generate(ex.dist(), s);
  const FrontDoorReport rep = door.serve(qs);

  const auto comp_ref = graph::ref_components(b.csr);
  std::uint64_t ncomp = 0;
  for (std::size_t v = 0; v < comp_ref.size(); ++v) ncomp += comp_ref[v] == v;

  int programs = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (!is_program_kind(qs[i].kind)) continue;
    ++programs;
    const ServedQuery& r = rep.results[i];
    EXPECT_EQ(r.cls, SloClass::analytics);
    EXPECT_EQ(r.outcome, Outcome::served);
    EXPECT_GE(r.replica, 0);
    switch (qs[i].kind) {
      case QueryKind::sssp: {
        const auto ref = graph::ref_sssp(
            b.csr, graph::EdgeWeights{fdc.programs.weight_seed,
                                      fdc.programs.sssp_max_weight},
            qs[i].source);
        ASSERT_NE(ref[qs[i].target], graph::kInfDist);
        EXPECT_EQ(r.value, static_cast<double>(ref[qs[i].target]));
        break;
      }
      case QueryKind::pagerank:
        EXPECT_GT(r.value, 0.0);
        break;
      case QueryKind::components:
        EXPECT_EQ(r.value, static_cast<double>(ncomp));
        break;
      case QueryKind::triangles:
        EXPECT_EQ(r.value, static_cast<double>(graph::ref_triangles(b.csr)));
        break;
      default:
        FAIL();
    }
  }
  ASSERT_GT(programs, 0);
  EXPECT_EQ(rep.program_runs, programs);
  const auto& cs = rep.cls[static_cast<int>(SloClass::analytics)];
  EXPECT_EQ(cs.submitted, programs);
  EXPECT_EQ(cs.served, programs);
  EXPECT_EQ(cs.shed, 0);
  EXPECT_EQ(cs.degraded, 0);
  // The interactive classes did feel the impossible deadlines.
  EXPECT_GT(rep.shed + rep.degraded, 0);
}

/// Serve one components query with replica 0 dying at `outage_ns`.
FrontDoorReport analytics_failover_run(Experiment& ex0, Experiment& ex1,
                                       double outage_ns) {
  attach_plan(ex0.cluster(), "seed:3,outage:at=" + std::to_string(outage_ns));
  ex1.cluster().set_fault_injector(nullptr);
  FrontDoor door(bfs::share_all(), FrontDoorConfig{},
                 {{&ex0.cluster(), &ex0.dist()}, {&ex1.cluster(), &ex1.dist()}});
  std::vector<Query> qs;
  qs.push_back(make_query(0, QueryKind::components, 0, 0.0));
  return door.serve(qs);
}

double component_count(const GraphBundle& b) {
  const auto comp_ref = graph::ref_components(b.csr);
  std::uint64_t ncomp = 0;
  for (std::size_t v = 0; v < comp_ref.size(); ++v) ncomp += comp_ref[v] == v;
  return static_cast<double>(ncomp);
}

TEST(FrontDoorServe, AnalyticsFailsOverMidProgramAndStaysExact) {
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment ex0(b, shape(2, 2)), ex1(b, shape(2, 2));

  // Clean run (outage far in the future) to place the mid-program outage
  // and pin the ground-truth answer.
  const FrontDoorReport clean = analytics_failover_run(ex0, ex1, 1e30);
  ASSERT_EQ(clean.failovers, 0);
  ASSERT_EQ(clean.results[0].outcome, Outcome::served);
  const double ncomp = component_count(b);
  ASSERT_EQ(clean.results[0].value, ncomp);

  const double outage = 0.5 * clean.results[0].complete_ns;
  const FrontDoorReport r1 = analytics_failover_run(ex0, ex1, outage);
  EXPECT_GE(r1.failovers, 1);
  EXPECT_EQ(r1.replicas_lost, 1);
  EXPECT_GT(r1.failover_blip_ns, 0.0);
  ASSERT_EQ(r1.results[0].outcome, Outcome::failed_over);
  EXPECT_EQ(r1.results[0].replica, 1);  // completed on the survivor
  EXPECT_EQ(r1.results[0].value, ncomp);
  // The blip costs virtual time, never the answer.
  EXPECT_GT(r1.results[0].complete_ns, clean.results[0].complete_ns);

  // Bit-deterministic, like everything else in the tier.
  const FrontDoorReport r2 = analytics_failover_run(ex0, ex1, outage);
  EXPECT_EQ(r1.total_ns, r2.total_ns);
  EXPECT_EQ(r1.failover_blip_ns, r2.failover_blip_ns);
  EXPECT_EQ(r1.results[0].complete_ns, r2.results[0].complete_ns);
  EXPECT_EQ(r1.results[0].value, r2.results[0].value);
}

TEST(FrontDoorServe, AnalyticsOutageBeforeFirstExportReRunsFromScratch) {
  // Replica 0 dies before the program's first level: nothing was exported,
  // so the query re-runs from scratch on the survivor, to the clean answer
  // and the clean level count, and replays bit-identically.
  const GraphBundle b = GraphBundle::make(10, 16, 7, 16);
  Experiment ex0(b, shape(2, 2)), ex1(b, shape(2, 2));
  const FrontDoorReport clean = analytics_failover_run(ex0, ex1, 1e30);
  ASSERT_EQ(clean.results[0].outcome, Outcome::served);

  const FrontDoorReport r1 = analytics_failover_run(ex0, ex1, 1.0);
  EXPECT_EQ(r1.failovers, 1);
  EXPECT_EQ(r1.replicas_lost, 1);
  ASSERT_EQ(r1.results[0].outcome, Outcome::failed_over);
  EXPECT_EQ(r1.results[0].replica, 1);
  EXPECT_EQ(r1.results[0].value, component_count(b));
  EXPECT_EQ(r1.results[0].complete_level, clean.results[0].complete_level);

  const FrontDoorReport r2 = analytics_failover_run(ex0, ex1, 1.0);
  EXPECT_EQ(r1.total_ns, r2.total_ns);
  EXPECT_EQ(r1.failover_blip_ns, r2.failover_blip_ns);
  EXPECT_EQ(r1.results[0].complete_ns, r2.results[0].complete_ns);
}

}  // namespace
}  // namespace numabfs::engine
