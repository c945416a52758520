#pragma once
/// \file exchange_core.hpp
/// The collective-plan core of a per-level frontier exchange, extracted
/// from the MS-BFS lane exchange so every frontier-driven engine workload
/// (lane waves, vertex programs) rides the exact same plans: private-replica
/// library allgather, node-shared leader allgather, or parallel subgroups
/// (the paper's Fig. 7), with degraded-link stretch and chunk-pipelined
/// decode overlap when the presence bitmap went over the wire coded.
///
/// The caller owns the wire format: it measures its chunks, runs the codec
/// gate, and hands this core the resulting `chunk_bytes` plus three hooks
/// that know how to land a partition's chunk in the replicated arrays. The
/// plan itself is bfs::select_allgather_plan's, the same choice the hybrid
/// BFS exchange makes; the core owns the modeled collective time, the
/// charges and the barriers, in the order the MS-BFS exchange established.

#include <cstdint>
#include <functional>

#include "bfs/config.hpp"
#include "bfs/costs.hpp"
#include "bfs/exchange.hpp"
#include "faults/injector.hpp"
#include "runtime/cluster.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::engine {

/// Caller-supplied landing hooks of one exchange. All three run on the
/// calling rank; which replicas/partitions they are invoked for is the
/// core's plan-dependent business.
struct ExchangeHooks {
  /// Copy partition `src_part`'s owned out chunk into this rank's replica
  /// (including the byte counters for non-own chunks).
  std::function<void(int)> copy_block;
  /// Wipe this rank's replica frontier summary ahead of the merges.
  std::function<void()> reset_summary;
  /// Merge partition `src_part`'s out summary into the replica summary.
  std::function<void(int)> merge_summary;
};

/// Geometry of the exchange the core needs for its charges.
struct ExchangeShape {
  std::uint64_t chunk_bytes = 0;  ///< modeled wire bytes of one chunk
  std::uint64_t sum_words = 0;    ///< replica summary words (merge pass)
  bool presence_coded = false;    ///< presence bitmap went over coded
  /// 64-bit words one chunk's presence bitmap decodes into (the overlap
  /// model's per-chunk decode size when presence_coded).
  std::uint64_t decode_words = 0;
};

/// Run the collective plan of one exchange: the pre-plan barrier (every
/// partition's out words must be ready), the plan itself with its copies
/// and summary merges, the degraded-link stretch, the pipelined decode
/// overlap, the final charge and the closing barrier. The caller emits its
/// own trace instant and wipes its out blocks afterwards.
inline void run_exchange_plan(rt::Proc& p, const bfs::Config& cfg,
                              const bfs::UnitCosts& u, sim::Phase phase,
                              const ExchangeShape& shape,
                              const ExchangeHooks& hooks) {
  namespace cm = rt::coll_model;
  rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  rt::Comm& world = c.world();
  const int np = c.nranks();
  const int ppn = c.ppn();

  const bool degraded = inj != nullptr && inj->any_dead();
  const bool acts_leader =
      degraded ? p.local == inj->lowest_live_local(p.node) : p.is_node_leader();

  p.barrier(world, sim::Phase::stall);  // every partition's out words ready

  using Kind = bfs::AllgatherPlan::Kind;
  const bfs::AllgatherPlan plan = bfs::select_allgather_plan(c, cfg, degraded);
  const cm::CollTimes qt = plan.times(c, shape.chunk_bytes);
  if (plan.kind == Kind::private_replicas ||
      (plan.kind == Kind::leader && acts_leader)) {
    // Private replicas: every rank assembles its own. Node-shared frontier:
    // the leader assembles it; the broadcast step is gone, and sharing the
    // out slabs too (Sharing::all) drops the gather step as well.
    for (int r = 0; r < np; ++r) hooks.copy_block(r);
    hooks.reset_summary();
    for (int r = 0; r < np; ++r) hooks.merge_summary(r);
    p.charge(phase, u.stream_pass_ns(shape.sum_words));
  } else if (plan.kind == Kind::subgroups) {
    // Parallel subgroups (Fig. 7): each color assembles its slice of every
    // node chunk in place; blocks are word-disjoint, so no atomics needed.
    // The shared summary needs one wipe before the colors' atomic merges.
    rt::Comm& node = c.node_comm(p.node);
    if (p.is_node_leader()) {
      hooks.reset_summary();
      p.charge(phase, u.stream_pass_ns(shape.sum_words));
    }
    p.barrier(node, sim::Phase::stall);  // wipe lands before the merges
    for (int m = 0; m < c.topo().nodes(); ++m) {
      hooks.copy_block(m * ppn + p.local);
      hooks.merge_summary(m * ppn + p.local);
    }
  }

  double total_ns = qt.total_ns;
  if (inj != nullptr) {
    // A degraded fabric stretches the inter-node stage.
    const double lf = inj->min_link_factor(p.clock.now_ns());
    total_ns += qt.inter_ns * (1.0 / lf - 1.0);
  }
  if (shape.presence_coded) {
    // Chunk-pipelined overlap of the presence-bitmap decode with the wire
    // (coll_model::pipelined2_ns), as in the hybrid exchange.
    const double dec_ns =
        u.stream_pass_ns(plan.assembled_chunks(c) * shape.decode_words);
    const double seq_ns = total_ns + dec_ns;
    total_ns = cm::pipelined2_ns(total_ns, dec_ns,
                                 std::max(1, cfg.exchange_chunks));
    p.prof.add_overlap_saved(seq_ns - total_ns);
  }
  p.charge(phase, total_ns);
  p.barrier(world, phase);  // the collective completes together
}

}  // namespace numabfs::engine
