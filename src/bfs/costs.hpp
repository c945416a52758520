#pragma once
/// \file costs.hpp
/// Derives the per-event unit costs a BFS kernel charges, from the cluster
/// models and the variant configuration. The kernels *measure* event counts
/// (probes, skips, edge scans, writes) on the real data structures; these
/// unit costs are the only modeled quantities.

#include <cstdint>
#include <functional>
#include <vector>

#include "bfs/config.hpp"
#include "graph/dist_graph.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs {

struct UnitCosts {
  double summary_probe_ns = 0;  ///< one in_queue_summary read
  double inqueue_probe_ns = 0;  ///< one in_queue read
  double visited_probe_ns = 0;  ///< one visited/pred access (small, owned)
  double edge_scan_ns = 0;      ///< one adjacency entry (work + stream)
  double word_stream_ns = 0;    ///< one 64-bit word of a sequential pass
  double write_ns = 0;          ///< one pred/out_queue/out_summary update
  double group_search_ns = 0;   ///< one top-down group lookup (binary search)
  /// One delta-dirty row / patched-group access of a merged epoch view
  /// (DESIGN.md §14): the dirty-bitmap probe plus the patch-storage
  /// indirection. Zero-count on frozen graphs, so static runs are
  /// bit-identical with or without the dynamic layer linked in.
  double delta_probe_ns = 0;
  double omp_div = 1.0;         ///< intra-rank parallel efficiency divisor

  /// Convenience: ns for a sequential pass over `words`, already /omp_div.
  double stream_pass_ns(std::uint64_t words) const {
    return static_cast<double>(words) * word_stream_ns / omp_div;
  }
};

/// Sizes of the structures whose residency matters.
struct StructSizes {
  std::uint64_t in_queue_bytes = 0;
  std::uint64_t in_summary_bytes = 0;
  std::uint64_t owned_bytes = 0;     ///< visited+pred footprint per rank
  std::uint64_t td_group_count = 1;  ///< distinct top-down group keys
};

UnitCosts unit_costs(const rt::Cluster& c, const Config& cfg,
                     const StructSizes& sz);

/// Unit costs of every partition of a 1-D partitioned state, indexed by
/// partition. The replicated structures (`in_queue_bytes`,
/// `in_summary_bytes`) are the same everywhere; the owned footprint
/// (`owned_bytes` of the owned vertex count) and the top-down group count
/// differ on the tail partition, so an adopter charges an adopted
/// partition's work at that partition's costs.
std::vector<UnitCosts> partition_costs(
    const rt::Cluster& c, const graph::DistGraph& dg, const Config& cfg,
    std::uint64_t in_queue_bytes, std::uint64_t in_summary_bytes,
    const std::function<std::uint64_t(std::uint64_t)>& owned_bytes);

/// Placement of the graph (and private per-rank structures) implied by the
/// execution policy.
sim::Placement graph_placement(const Config& cfg, int ppn);

}  // namespace numabfs::bfs
