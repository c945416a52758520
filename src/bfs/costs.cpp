#include "bfs/costs.hpp"

#include <algorithm>
#include <cmath>

namespace numabfs::bfs {

sim::Placement graph_placement(const Config& cfg, int ppn) {
  switch (cfg.bind) {
    case BindMode::bind_to_socket:
      // Binding only pins memory when there is one socket per rank;
      // a single bound rank spanning the whole node still interleaves.
      return ppn > 1 ? sim::Placement::socket_local
                     : sim::Placement::interleaved;
    case BindMode::interleave:
      return sim::Placement::interleaved;
    case BindMode::noflag:
      return sim::Placement::single_home;
  }
  return sim::Placement::socket_local;
}

UnitCosts unit_costs(const rt::Cluster& c, const Config& cfg,
                     const StructSizes& sz) {
  const sim::MemModel& mem = c.mem();
  const auto& cp = c.params();
  const int spr = c.sockets_per_rank();
  const bool shared_in = cfg.sharing != Sharing::none && c.ppn() > 1;

  const sim::Placement gp = graph_placement(cfg, c.ppn());
  const sim::Placement qp = shared_in ? sim::Placement::node_shared : gp;
  // Cache-sharing degree: a node-shared copy is probed by every socket of
  // the node; a private copy by the rank's own binding domain.
  const int k_queue = shared_in ? c.topo().sockets_per_node() : spr;
  const int k_priv = spr;
  const bool full_load = c.topo().sockets_per_node() > 1;
  // QPI congestion is driven by the *bulk* traffic — the graph stream. With
  // the graph bound socket-local the mesh is mostly idle, and the (much
  // rarer) cross-socket queue probes see uncongested links; that is why
  // sharing in_queue "won't cause severe problem" (Section III.A).
  const bool queue_load =
      full_load && gp != sim::Placement::socket_local;

  UnitCosts u;
  u.summary_probe_ns = mem.probe_ns(qp, sz.in_summary_bytes, k_queue, queue_load);
  u.inqueue_probe_ns = mem.probe_ns(qp, sz.in_queue_bytes, k_queue, queue_load);
  u.visited_probe_ns = mem.probe_ns(gp, sz.owned_bytes, k_priv, full_load);
  u.edge_scan_ns = cp.edge_work_ns +
                   static_cast<double>(sizeof(std::uint32_t)) *
                       mem.stream_ns_per_byte(gp) *
                       (gp != sim::Placement::socket_local && full_load
                            ? 1.0 + cp.qpi_congestion
                            : 1.0);
  u.word_stream_ns = cp.stream_word_ns + 8.0 * mem.stream_ns_per_byte(gp);
  u.write_ns = mem.probe_ns(gp, sz.owned_bytes, k_priv, full_load);
  u.group_search_ns =
      cp.probe_work_ns *
      std::max(1.0, std::log2(static_cast<double>(sz.td_group_count) + 1.0));
  // Merged-view read amplification: the dirty-bitmap word is LLC-resident
  // (one bit per owned vertex), the patch row lands a second, random
  // access into the (cold) patch storage — modeled as one private-graph
  // probe plus the bitmap check.
  u.delta_probe_ns = cp.probe_work_ns + u.visited_probe_ns;

  // Intra-rank OpenMP: k sockets each scale over their own cores.
  const int cores = c.topo().cores_per_socket();
  u.omp_div = static_cast<double>(spr) * mem.omp_speedup(cores);
  return u;
}

std::vector<UnitCosts> partition_costs(
    const rt::Cluster& c, const graph::DistGraph& dg, const Config& cfg,
    std::uint64_t in_queue_bytes, std::uint64_t in_summary_bytes,
    const std::function<std::uint64_t(std::uint64_t)>& owned_bytes) {
  std::vector<UnitCosts> costs(static_cast<std::size_t>(c.nranks()));
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    StructSizes sz;
    sz.in_queue_bytes = in_queue_bytes;
    sz.in_summary_bytes = in_summary_bytes;
    sz.owned_bytes = owned_bytes(lg.owned());
    sz.td_group_count = std::max<std::uint64_t>(1, lg.td_keys.size());
    costs[static_cast<std::size_t>(r)] = unit_costs(c, cfg, sz);
  }
  return costs;
}

}  // namespace numabfs::bfs
