#pragma once
/// \file config.hpp
/// Configuration of one distributed BFS variant — the axes the paper sweeps:
/// execution policy (Fig. 10), sharing level (Figs. 5/9), allgather
/// parallelization (Fig. 7), summary granularity (Figs. 8/16), and the
/// direction-switch thresholds of the hybrid algorithm.

#include <cstdint>
#include <string>

#include "runtime/allgather.hpp"

namespace numabfs::bfs {

/// The paper's Fig. 10 execution policies.
enum class BindMode {
  noflag,          ///< no numactl/mpirun flags: first-touch single home
  interleave,      ///< numactl --interleave=all
  bind_to_socket,  ///< mpirun --bind-to-socket --bysocket
};

/// How much of the communication state is shared within a node (Fig. 5b).
enum class Sharing {
  none,      ///< every rank owns private copies ("Original")
  in_queue,  ///< in_queue/in_queue_summary shared: broadcast eliminated
  all,       ///< out structures shared too: gather eliminated as well
};

/// Forced traversal direction (Section II.A's pure baselines).
enum class Direction { hybrid, top_down_only, bottom_up_only };

/// Frontier-exchange codec policy (DESIGN.md §10). `gate` re-decides per
/// level from allreduced measured sparsity via the cost model; the force
/// modes pin one codec for ablations and tests. `off` is bit- and
/// byte-identical to the pre-codec exchange path.
enum class CodecMode { off, gate, force_sparse, force_dense };

struct Config {
  BindMode bind = BindMode::bind_to_socket;
  Sharing sharing = Sharing::none;
  /// Allgather time model used when sharing == none.
  rt::AllgatherAlgo base_algo = rt::AllgatherAlgo::flat_ring;
  /// Fig. 7: all ppn ranks of a node join the inter-node allgather
  /// (requires sharing == all; each subgroup assembles its slice in place).
  bool parallel_allgather = false;
  /// Fig. 8: in_queue bits covered by one summary bit (>= 1; 64 = Graph500
  /// reference default).
  std::uint64_t summary_granularity = 64;

  Direction direction = Direction::hybrid;
  /// Beamer switching thresholds: top-down -> bottom-up when
  /// frontier_edges > remaining_edges / alpha; back when
  /// frontier_vertices < n / beta.
  double alpha = 14.0;
  double beta = 24.0;

  /// Wire codec for the per-level frontier exchanges.
  CodecMode codec = CodecMode::off;
  /// Pipeline depth of the exchange: each encoded contribution is split
  /// into this many chunks so decoding chunk i overlaps chunk i+1 on the
  /// wire (coll_model::pipelined2_ns). 1 = no pipelining; only takes
  /// effect when a codec is active (the raw path has no decode stage).
  int exchange_chunks = 1;

  /// Validate invariants, including contradictory knob combinations;
  /// returns an actionable error message or empty.
  std::string validate() const;

  std::string name() const;
};

const char* to_string(BindMode b);
const char* to_string(Sharing s);
const char* to_string(Direction d);
const char* to_string(CodecMode m);

// --- canonical variants of the paper's Fig. 9 ---------------------------
/// "Original": unmodified algorithm (flat allgather, private buffers).
Config original();
/// "+ Share in_queue".
Config share_in_queue();
/// "+ Share all".
Config share_all();
/// "+ Par allgather".
Config par_allgather();
/// "+ Granularity": par_allgather with the best granularity (256).
Config granularity(std::uint64_t g = 256);
/// "+ Codec": granularity ladder rung plus the gated exchange codec and a
/// chunk-pipelined wire/decode overlap.
Config compressed(std::uint64_t g = 256, int chunks = 4);

}  // namespace numabfs::bfs
