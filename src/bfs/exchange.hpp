#pragma once
/// \file exchange.hpp
/// The communication phase of Fig. 1: two allgathers rebuilding the next
/// frontier (`in_queue`) and its summary on every rank/node from the
/// per-rank `out_queue` chunks, under the variant's sharing level and
/// allgather plan. Also resets the out structures for the next level.
///
/// Fault tolerance: each exchange takes an optional `parts` list — the
/// partitions the calling rank is responsible for (its own plus any it
/// adopted from crashed ranks). The adopter publishes/wipes the adopted
/// partitions' slots so the exchange protocol below is oblivious to
/// crashes; the partition index space always stays dense. When ranks have
/// died, the parallel-subgroup allgather degrades to the leader-based plan
/// (subgroup rings need every color alive on every node) and node
/// leadership falls to the lowest live local rank.

#include <functional>
#include <optional>
#include <span>

#include "bfs/config.hpp"
#include "bfs/costs.hpp"
#include "bfs/state.hpp"
#include "graph/codec.hpp"
#include "graph/dist_graph.hpp"
#include "graph/summary.hpp"
#include "runtime/cluster.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::bfs {

/// The collective plan of one 1-D frontier allgather (Figs. 5b and 7). It
/// is fixed by the configuration and the cluster shape, and shared by the
/// hybrid BFS exchange and the engine's lane/program exchanges.
struct AllgatherPlan {
  enum class Kind {
    private_replicas,  ///< every rank assembles its replica (library allgather)
    leader,            ///< one rank per node assembles the node-shared replica
    subgroups,         ///< ppn colors ring concurrently, each its slice (Fig. 7)
  };
  Kind kind = Kind::private_replicas;
  /// Library algorithm of the private plan (leader plans ring the leaders).
  rt::AllgatherAlgo algo = rt::AllgatherAlgo::flat_ring;
  /// Leader plan only: the out chunks are private (Sharing::in_queue), so
  /// the node's ranks gather them to the leader first.
  bool gather = false;

  /// Modeled duration of the plan for `chunk_bytes` per rank on the wire.
  rt::coll_model::CollTimes times(const rt::Cluster& c,
                                  std::uint64_t chunk_bytes) const;
  /// Chunks one assembling rank lands (and decodes, when coded) per
  /// exchange: one per node for a subgroup color, every rank's otherwise.
  std::uint64_t assembled_chunks(const rt::Cluster& c) const;
};

/// The one place the 1-D plan is chosen. Frontiers are node-shared only
/// when `cfg.sharing` asks for it and the node has more than one rank; the
/// subgroup plan additionally needs Sharing::all, parallel_allgather and a
/// crash-free run (`degraded` = some rank has died: a color may be missing
/// on a node, so its ring is broken and the leader plan takes over).
AllgatherPlan select_allgather_plan(const rt::Cluster& c, const Config& cfg,
                                    bool degraded);

/// Outcome of one bitmap exchange: its modeled duration and the codec's
/// pick (DESIGN.md §10).
struct ExchangeTimes {
  double total_ns = 0;  ///< includes any link-degradation stretch
  graph::codec::Kind codec = graph::codec::Kind::raw;  ///< gate's pick
  std::uint64_t chunk_raw_bytes = 0;   ///< per-rank raw contribution
  std::uint64_t chunk_wire_bytes = 0;  ///< what actually rides the wire
};

/// What the sparse (top-down) exchange moved, for per-level accounting.
struct SparseExchangeStats {
  std::uint64_t wire_bytes = 0;  ///< bytes this rank received off-rank
  std::uint64_t raw_bytes = 0;   ///< their raw (uncoded) equivalent
  bool coded = false;            ///< lists rode the delta-varint codec
};

/// Bitmap exchange (used when the *next* level is bottom-up): the two
/// allgathers of Fig. 1 rebuild in_queue and in_queue_summary from the
/// out_queue chunks, then wipe the out structures. SPMD: all ranks call.
/// Charges the modeled duration to `phase`. `parts` lists the caller's
/// partitions (empty = own rank only).
ExchangeTimes exchange_frontier(rt::Proc& p, const graph::DistGraph& dg,
                                DistState& st, const UnitCosts& u,
                                sim::Phase phase,
                                std::span<const int> parts = {});

/// Sparse exchange (used when the next level is top-down): allgatherv of
/// the per-rank discovered-vertex lists into every rank's replicated
/// frontier list. Communication is proportional to the frontier size —
/// negligible outside the bulge, which is why the paper's communication
/// cost concentrates in the bottom-up phases. `wipe_out` additionally
/// wipes the out bitmaps (set when the level that produced the frontier
/// ran bottom-up, whose kernel marks them). `parts` as above.
SparseExchangeStats exchange_sparse(rt::Proc& p, const graph::DistGraph& dg,
                                    DistState& st, const UnitCosts& u,
                                    sim::Phase phase, bool wipe_out,
                                    std::span<const int> parts = {});

/// Direction-switch conversion (td -> bu): materialize the out_queue /
/// out_queue_summary bits from this level's discovered list, so the bitmap
/// exchange can build the next in_queue. Charged to Phase::switch_conv.
/// `part` selects the partition (-1 = the caller's own).
void discovered_to_out_bits(rt::Proc& p, DistState& st, const UnitCosts& u,
                            int part = -1);

/// Wipe partition `part`'s out_queue chunk and its share of the out
/// summary: the whole map when private, else the word slice of the node map
/// that belongs to the partition's local index. The slices are disjoint, so
/// every summary word has one writer, also when an adopter wipes on behalf
/// of a crashed owner. `part` = -1 wipes the caller's own partition.
void clear_out_bits(rt::Proc& p, const graph::DistGraph& dg, DistState& st,
                    const UnitCosts& u, sim::Phase phase, int part = -1);

// --- decomposition-agnostic codec gate (DESIGN.md §10/§13) ---------------
// The per-level gate decides raw vs coded from allreduced *measured*
// quantities, identically on every rank. It was written for the 1-D bitmap
// allgather; the 2-D transpose/expand/fold legs reuse it by describing
// their equal-geometry chunks and a plan-time function.

/// One owned bitmap contribution to a gated exchange.
struct GateChunk {
  std::span<const std::uint64_t> words;   ///< the chunk on offer
  std::optional<graph::SummaryView> guide;  ///< dense-encode guide, if any
  std::uint64_t guide_base_bit = 0;
  std::vector<std::uint8_t>* enc = nullptr;  ///< where the encoding lands
};

/// The gate's decision for one exchange leg.
struct GateResult {
  graph::codec::Kind kind = graph::codec::Kind::raw;
  /// Mean measured encoded chunk (== raw chunk bytes when kind is raw);
  /// the honest per-chunk wire charge for every collective plan.
  std::uint64_t wire_chunk_bytes = 0;
  double encode_ns = 0;  ///< modeled encode cost charged to this rank
};

/// Run the PR-4 codec gate over this rank's `chunks` (SPMD: all of `comm`
/// participates): popcount + allreduce, analytic 1.5x pre-filter, trial
/// encode, final pick on the allreduced measured bytes. `plan_total_ns`
/// maps a per-chunk wire size to the modeled duration of the exchange's
/// collective plan; `decode_chunks` is how many chunks one rank decodes.
/// Chunks must share one geometry: `chunk_words` words covering
/// `chunk_bits` vertex bits.
/// `per_chunk_ns` is the extra cost each additional pipeline chunk adds to
/// the plan (CostParams::chunk_split_overhead_ns); 0 keeps the legacy
/// monotone-in-K behavior.
GateResult gate_bitmap_chunks(
    rt::Proc& p, rt::Comm& comm, CodecMode mode, int pipeline_chunks,
    std::span<GateChunk> chunks, std::uint64_t chunk_words,
    std::uint64_t chunk_bits, std::uint64_t decode_chunks, const UnitCosts& u,
    sim::Phase phase, const std::function<double(std::uint64_t)>& plan_total_ns,
    double per_chunk_ns = 0.0);

/// Strict-framing decode of one gated bitmap chunk: the encoding must
/// account for every published byte or the stream was corrupted. Throws
/// std::invalid_argument naming `what` and the source rank.
void decode_bitmap_checked(std::span<const std::uint8_t> in,
                           std::span<std::uint64_t> words, const char* what,
                           int src_rank);

/// What one frontier exchange moved, uniformly across decompositions.
struct ExchangeLevelStats {
  graph::codec::Kind codec = graph::codec::Kind::raw;
  std::uint64_t wire_bytes = 0;  ///< measured bytes on the wire
  std::uint64_t raw_bytes = 0;   ///< their uncoded equivalent
  bool bitmap = false;           ///< bitmap family (vs sparse-list family)
};

/// The 1-D hybrid's exchange between a `cur_dir` and a `next_dir` level
/// (0 = top-down, 1 = bottom-up): the sparse-list allgatherv before a
/// top-down level, the two bitmap allgathers of Fig. 1 before a bottom-up
/// level (materializing the discovered list into out bits on a td -> bu
/// switch). SPMD; `parts` lists the caller's partitions.
ExchangeLevelStats exchange_level(rt::Proc& p, const graph::DistGraph& dg,
                                  DistState& st, const UnitCosts& u,
                                  int cur_dir, int next_dir,
                                  std::span<const int> parts);

// --- helpers shared by the 1-D, 2-D and engine exchanges -----------------

/// Visit the caller's partitions, own rank first (the adoption order).
template <typename F>
void for_owned_parts(const rt::Proc& p, std::span<const int> parts, F&& f) {
  f(p.rank);
  for (int q : parts)
    if (q != p.rank) f(q);
}

/// Stretch a collective's inter-node stage under the fault plan's active
/// link-degrade window (no-op without a fault injector).
void stretch_degraded(const rt::Proc& p, rt::coll_model::CollTimes& t);

/// K-chunk wire/decode pipelining: the decode of chunk i proceeds while
/// chunk i+1 is in flight (K = 1 is sequential). Returns the pipelined
/// time plus `split_ns`, the extra chunks' message overhead, and books
/// the saving against the sequential wire + decode time.
double overlap_decode(rt::Proc& p, double wire_ns, double decode_ns,
                      int chunks, double split_ns = 0.0);

}  // namespace numabfs::bfs
