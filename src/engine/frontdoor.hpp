#pragma once
/// \file frontdoor.hpp
/// Replicated serving tier over the batched MS-BFS engine: R replica
/// clusters (each a full simulated NUMA cluster with its own chaos plan)
/// behind one admission point — the *front door*.
///
/// The front door adds three behaviors the single-cluster QueryEngine
/// cannot express:
///
///  1. **SLO-aware admission.** Queries carry a priority class derived
///     from their kind (full-distance > k-hop > reachability). Batches are
///     formed most-critical-first, and when the trailing-mean wave-time
///     estimate says a k-hop or reachability query cannot meet its
///     class deadline, it is *degraded* to an exact cached answer (see
///     below) or *shed* — full-distance queries are never shed.
///
///  2. **Graceful degradation.** Completed full-distance lanes feed a
///     degradation cache: per-source distance arrays and connected-
///     component labels (the graph is undirected, so a drained
///     full-distance BFS labels its source's entire component). Cached
///     entries are stamped with the virtual instant they became available,
///     so a lookup never uses a result "from the future" of an overlapping
///     replica wave. Cache hits give *exact* answers for s-t reachability
///     (same/different component) and k-hop counts (count of cached
///     distances <= k) at effectively zero serving cost.
///
///  3. **Mid-query failover.** Replica health is tracked by virtual-time
///     heartbeats with exponential-backoff probing (closed form:
///     `heartbeat_detect_ns`). When a replica suffers a whole-replica
///     outage (`outage:at=` in its fault plan) mid-wave, the wave aborts
///     at its abort horizon, the door observes the data-path timeout, and
///     the batch's unretired lanes are re-admitted to a healthy replica —
///     resuming from the last exported MS-BFS checkpoint epoch rather than
///     from scratch. The detection gap and the resume are charged in
///     virtual time, so the "failover blip" is a measured quantity.
///
/// Everything is bit-deterministic for a fixed (workload seed, config,
/// per-replica fault plans) tuple, including the per-class latency
/// percentiles and the failover blip.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "engine/engine.hpp"

namespace numabfs::engine {

/// Priority classes, most- to least-critical. The shedding policy degrades
/// strictly bottom-up: reachability first, then k-hop, never full-distance.
/// `analytics` (the program workloads: SSSP, PageRank, components,
/// triangles) is a background class — it is never shed or degraded, but it
/// only dispatches when no wave query is waiting, and each analytics query
/// owns its whole dispatch (programs cannot share a wave's lanes).
enum class SloClass : int {
  full_distance = 0,
  k_hop,
  reachability,
  analytics,
  kCount
};

const char* to_string(SloClass c);
SloClass slo_class_of(QueryKind k);

/// Per-class latency objective (arrival to completion, virtual ns).
struct SloSpec {
  double full_ns = 80e6;
  double khop_ns = 20e6;
  double reach_ns = 10e6;
  /// Background analytics objective — reporting only: analytics queries are
  /// never shed or degraded against it.
  double analytics_ns = 1e9;

  double deadline_ns(SloClass c) const {
    switch (c) {
      case SloClass::full_distance: return full_ns;
      case SloClass::k_hop: return khop_ns;
      case SloClass::reachability: return reach_ns;
      case SloClass::analytics: return analytics_ns;
      case SloClass::kCount: break;
    }
    return full_ns;
  }
};

/// Virtual instant the front door confirms a replica outage at `outage_ns`:
/// liveness probes fire every `period_ns` from t = 0; the first probe at or
/// after the outage goes unanswered, and the prober re-probes with
/// exponential backoff (`backoff_ns`, doubling) until `threshold`
/// consecutive probes failed. Closed form, so detection is exact and
/// deterministic: t0 + backoff * (2^(threshold-1) - 1) with t0 the first
/// failing probe instant. Returns +inf for an infinite outage time.
double heartbeat_detect_ns(double outage_ns, double period_ns,
                           double backoff_ns, int threshold);

/// A set graph_source pins a snapshot per fresh dispatch; the pinned view
/// travels with the dispatch's failover unit, so a failover resumes against
/// the SAME snapshot, never a newer epoch.
struct FrontDoorConfig : ServingConfig {
  SloSpec slo;
  /// Optional per-wave observer: (replica, batch, result, state) — the
  /// test hook for validating lane state in place before reuse.
  std::function<void(int, std::span<const WaveQuery>, const WaveResult&,
                     WaveState&)>
      sink;
};

/// How one query left the tier.
enum class Outcome {
  pending,      ///< internal: not resolved yet
  served,       ///< rode a wave to completion, no disruption
  failed_over,  ///< completed after a mid-query replica failover
  degraded,     ///< answered exactly from the degradation cache
  shed,         ///< dropped by the deadline-aware admission policy
  lost,         ///< unservable: every replica was down
};

const char* to_string(Outcome o);

/// Per-query record (virtual-time accounting).
struct ServedQuery {
  int id = 0;
  QueryKind kind = QueryKind::full_distances;
  SloClass cls = SloClass::full_distance;
  Outcome outcome = Outcome::pending;
  double arrival_ns = 0;
  double admit_ns = 0;
  double start_ns = 0;     ///< dispatch of the (first) wave it rode
  double complete_ns = 0;  ///< NaN for shed/lost
  int replica = -1;        ///< replica that completed it (-1: cache/shed)
  /// Graph epoch the completing wave was pinned to (0: static graph or
  /// cache-degraded answer). A failed-over query keeps its original epoch.
  std::uint64_t epoch = 0;
  int complete_level = 0;
  bool reached = false;
  std::uint64_t visited = 0;
  /// Analytics (program) queries: the scalar answer. 0 for wave kinds.
  double value = 0;
  bool slo_met = false;

  double latency_ns() const { return complete_ns - arrival_ns; }
};

/// Per-class aggregate. `attainment` counts a submitted query as met only
/// when it completed (served/failed-over/degraded) within its deadline —
/// shed and lost queries are misses by definition.
struct ClassStats {
  int submitted = 0;
  int served = 0;    ///< incl. failed-over
  int degraded = 0;
  int shed = 0;      ///< incl. lost
  double mean_ns = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double attainment = 1.0;
};

struct FrontDoorReport {
  std::vector<ServedQuery> results;  ///< ordered by query id
  ClassStats cls[static_cast<int>(SloClass::kCount)];
  int waves = 0;
  int program_runs = 0;   ///< singleton analytics dispatches (not waves)
  int levels = 0;
  int failovers = 0;      ///< resume/re-run dispatches after an abort
  int replicas_lost = 0;  ///< replicas confirmed down by the end
  int backpressured = 0;
  int degraded = 0;
  int shed = 0;  ///< incl. lost
  double total_ns = 0;
  double busy_ns = 0;  ///< summed wave time across replicas (overlaps)
  double shed_rate = 0;
  /// Largest service gap of any failover: resume dispatch minus the
  /// in-wave abort instant (detection latency + healthy-replica wait).
  double failover_blip_ns = 0;
  int recoveries = 0;  ///< in-replica crash-recovery level re-runs
  int ranks_lost = 0;  ///< max ranks lost in any single wave
  sim::Counters counters;  ///< summed over replicas and waves
};

/// One replica of the tier: a cluster (with its chaos plan attached via
/// set_fault_injector) and the distributed graph it serves. All replicas
/// must share the cluster shape and graph content — checkpoints migrate
/// between them on failover.
struct ReplicaHandle {
  rt::Cluster* cluster = nullptr;
  const graph::DistGraph* dg = nullptr;
};

class FrontDoor {
 public:
  FrontDoor(const bfs::Config& cfg, FrontDoorConfig fdc,
            std::vector<ReplicaHandle> replicas);

  /// Serve a workload (sorted by arrival_ns; QueryEngine::generate output
  /// already is). Returns when every query is served, degraded, shed or
  /// lost.
  FrontDoorReport serve(std::span<const Query> queries);

  int replicas() const { return static_cast<int>(replicas_.size()); }

 private:
  bfs::Config cfg_;
  FrontDoorConfig fdc_;
  std::vector<ReplicaHandle> replicas_;
  std::vector<WaveState> states_;  ///< one reusable WaveState per replica
};

}  // namespace numabfs::engine
