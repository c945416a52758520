#pragma once
/// \file msbfs.hpp
/// Bit-parallel multi-source BFS: one 64-bit *lane word* per vertex carries
/// up to 64 concurrent traversals (MS-BFS, Then et al., VLDB 2014), so a
/// whole batch of queries advances through ONE sequence of level kernels
/// and ONE allgather per level — amortizing exactly the frontier-exchange
/// costs the paper's NUMA optimizations attack.
///
/// Layout. For vertex v, bit b of `frontier[v]` says "v is in lane b's
/// current frontier"; `seen[v]` accumulates the lanes that have discovered
/// v. The frontier array is replicated per rank (or per node, under the
/// paper's sharing levels) like the hybrid BFS `in_queue`; each rank owns
/// the lane words, per-lane distances and per-lane parents of its 1-D
/// partition block. The per-level exchange allgathers the owned blocks of
/// next-frontier words through the same collective plans as the bitmap
/// exchange (flat ring / leader / parallel subgroups, rt::coll_model), with
/// a measured-sparsity wire format: a presence bitmap plus the nonzero lane
/// words, each carrying only ceil(active_lanes/8) bytes.
///
/// Per-lane retirement: a *full-distances* lane runs until its frontier
/// drains; an *s–t reachability* lane retires the level its target is
/// discovered (early exit); a *k-hop* lane retires after k levels. Retired
/// lanes leave `active_mask`, shrinking both kernel and wire work, and
/// record their completion level and virtual completion time.
///
/// Frontier summary (the paper's Fig. 8 mechanism, applied to lane words):
/// each replica carries a summary bitmap with one bit per
/// `summary_granularity` vertices, set iff some vertex of the group has a
/// nonzero frontier lane word. The dense kernel probes the (LLC-resident)
/// summary first and skips the expensive lane-word probe for provably
/// empty groups — which is most of them right after the direction switch,
/// when the union frontier is still sparse. The summary rides the same
/// exchange as the lane words: kernels mark per-partition out summaries,
/// the exchange merges them into the replicated frontier summaries.
///
/// The level loop, exchange and fault protocol are the engine's level
/// driver (level_driver.hpp), shared with the frontier programs. With a
/// fault injector attached, `seen` words are checkpointed at level
/// boundaries (distances/parents need no checkpoint — a level re-run
/// rewrites them with identical values), a crash is survived by partition
/// adoption + level re-run, and degraded links stretch the modeled
/// exchange time.

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/costs.hpp"
#include "engine/level_driver.hpp"
#include "numasim/phase_profile.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"
#include "graph/types.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::engine {

/// Lane-local distance type; kUnreached marks "not discovered by this lane".
using Dist = std::uint16_t;
inline constexpr Dist kUnreached = 0xFFFF;
inline constexpr int kMaxLanes = 64;

enum class QueryKind {
  full_distances,   ///< distances (+ parents) to the whole component
  st_reachability,  ///< is `target` reachable from `source`? (early exit)
  k_hop,            ///< the vertices within k hops of `source`
  // Frontier-program workloads (fprog.hpp). These never ride a BFS wave:
  // the serving tier dispatches each through run_program() as a singleton.
  sssp,             ///< delta-stepping shortest path, dist(source -> target)
  pagerank,         ///< residual push/pull PageRank, rank(source)
  components,       ///< min-label connected components, component count
  triangles,        ///< exact triangle count
};

const char* to_string(QueryKind k);

/// Whether `k` is a frontier-program workload (run_program) rather than a
/// wave lane kind (run_wave). run_wave rejects program kinds.
inline bool is_program_kind(QueryKind k) { return k >= QueryKind::sssp; }

/// One lane of a wave.
struct WaveQuery {
  QueryKind kind = QueryKind::full_distances;
  graph::Vertex source = 0;
  graph::Vertex target = 0;  ///< st_reachability only
  int k = 0;                 ///< k_hop only
};

/// Per-lane outcome of a wave.
struct LaneResult {
  bool finished = false;    ///< the lane retired (false: the wave aborted
                            ///< before this lane completed)
  int complete_level = 0;   ///< BFS level at which the lane retired
  double complete_ns = 0;   ///< virtual time of retirement (wave-relative)
  bool reached = false;     ///< st_reachability: target found
  std::uint64_t visited = 0;  ///< vertices the lane discovered (incl. source)
};

/// Result of one batched wave. `aborted` means the wave hit
/// WaveOptions::abort_at_ns before draining.
struct WaveResult : RunResult {
  double wave_ns = 0;  ///< virtual wall time of the wave (max over ranks)
  std::uint64_t unfinished = 0;  ///< lanes still active at the abort
  std::vector<LaneResult> lanes;  ///< one per submitted query
};

/// Cross-replica wave checkpoint: everything another cluster serving the
/// same DistGraph needs to resume the surviving lanes — the failover unit
/// of the replicated serving tier. Exported at level boundaries (an "epoch")
/// strictly before any scheduled death of that level, so a valid checkpoint
/// always describes a consistent pre-crash state. The position (validity,
/// level, kernel choice) is the level driver's.
struct WaveCheckpoint : LevelPosition {
  std::uint64_t active = 0;  ///< lanes alive at the epoch
  std::vector<std::vector<std::uint64_t>> seen;     ///< per partition
  std::vector<std::vector<Dist>> dist;              ///< per partition
  std::vector<std::vector<graph::Vertex>> parent;   ///< per partition (may
                                                    ///< be empty vectors)
  std::vector<std::uint64_t> frontier;  ///< one replicated-frontier copy
};

/// Knobs of run_wave. At an abort, lanes retired strictly before it keep
/// their results and the rest are reported in WaveResult::unfinished for
/// failover. A resume checkpoint must come from a wave over the same batch.
struct WaveOptions : RunOptions<WaveCheckpoint> {
  /// Lanes to resume (subset of the checkpoint's `active`); 0 means all of
  /// them. Lanes the original wave retired after the exported epoch are
  /// masked out here so the resumed wave does not redo them.
  std::uint64_t resume_active = 0;
};

/// Reusable state of the wave kernel for one (graph, config, shape). Owns
/// the per-partition lane words/distances/parents and the replicated
/// frontier copies; allocate once, run many waves. The frontier holds one
/// lane word per vertex of the padded vertex space, and the out slab of
/// partition `part` (`out(part)`) its block's next-frontier lane words.
class WaveState : public FrontierSlabs {
 public:
  /// `track_parents` = false skips the per-lane parent array (the largest
  /// structure: 64 lanes x 4 bytes per owned vertex) when only distances
  /// are needed.
  WaveState(const graph::DistGraph& dg, const bfs::Config& cfg, int nodes,
            int ppn, bool track_parents = true);

  bool track_parents() const { return track_parents_; }
  std::uint64_t padded_vertices() const { return padded_vertices_; }

  // --- owned-partition structures (local index space) -------------------
  std::span<std::uint64_t> seen(int part) {
    auto& v = seen_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }
  /// dist[local_v * 64 + lane].
  std::span<Dist> dist(int part) {
    auto& v = dist_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }
  /// parent[local_v * 64 + lane]; empty when !track_parents().
  std::span<graph::Vertex> parent(int part) {
    auto& v = parent_[static_cast<std::size_t>(part)];
    return {v.data(), v.size()};
  }

 private:
  bool track_parents_;
  std::uint64_t padded_vertices_;

  std::vector<std::vector<std::uint64_t>> seen_;
  std::vector<std::vector<Dist>> dist_;
  std::vector<std::vector<graph::Vertex>> parent_;
};

/// Run one batched wave of up to 64 queries. `ws` must have been built for
/// (dg, cfg) and the cluster's shape; it is reset internally, so it can be
/// reused across waves. Throws std::invalid_argument on an oversized or
/// empty batch, and faults::FaultError if the attached fault plan schedules
/// crashes with checkpointing disabled. `opts` adds an abort horizon, epoch
/// checkpoint export and checkpoint resume; its defaults run a plain wave.
/// `queries` must be the *original* batch even when resuming — lane
/// indices key the checkpoint and the per-lane results.
WaveResult run_wave(rt::Cluster& c, const graph::DistGraph& dg, WaveState& ws,
                    std::span<const WaveQuery> queries,
                    const WaveOptions& opts = {});

/// Assemble lane `lane`'s global distance array (kUnreached where the lane
/// never discovered the vertex).
std::vector<Dist> gather_lane_distances(const graph::DistGraph& dg,
                                        WaveState& ws, int lane);

/// Assemble lane `lane`'s global parent array (graph::kNoVertex where
/// unreached) for graph::validate_bfs_tree. Requires ws.track_parents().
std::vector<graph::Vertex> gather_lane_parents(const graph::DistGraph& dg,
                                               WaveState& ws, int lane);

}  // namespace numabfs::engine
