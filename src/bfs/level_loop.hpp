#pragma once
/// \file level_loop.hpp
/// The direction-optimizing level loop under both BFS decompositions (the
/// 1-D hybrid and the 2-D grid, arXiv:1104.4518): seed the first direction
/// from the root's degree, then per level run the kernels, allreduce the
/// Beamer inputs (nf, mf, remaining edges), roll back on a crash, record
/// the level, apply the switch rule and exchange the frontier. What a
/// decomposition really owns plugs in through LevelSteps: its checkpoint
/// contents, its kernels (the 2-D's include its fold), its frontier-input
/// build, its exchange and its per-level records.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/exchange.hpp"
#include "faults/recovery.hpp"
#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::bfs {

/// What every BFS run reports, whatever the decomposition.
struct BfsResult : faults::LevelLoopResult {
  double time_ns = 0;         ///< virtual wall time (max over ranks)
  std::uint64_t visited = 0;  ///< vertices in the tree (incl. root)
  std::uint64_t traversed_directed_edges = 0;  ///< adjacency entries covered
  std::vector<int> directions;  ///< 0 = top-down, 1 = bottom-up, per level
  sim::PhaseProfile profile_max;  ///< per-phase max over ranks

  std::uint64_t traversed_edges() const {
    return traversed_directed_edges / 2;
  }
  /// Graph500 TEPS: undirected edges traversed over the modeled duration.
  double teps() const {
    return time_ns > 0 ? static_cast<double>(traversed_edges()) /
                             (time_ns * 1e-9)
                       : 0.0;
  }
};

/// One rank's share of a level's Beamer inputs, summed over its partitions.
struct LevelCounts {
  std::uint64_t discovered = 0;        ///< vertices found (nf)
  std::uint64_t discovered_edges = 0;  ///< their degree sum (mf)
  std::uint64_t unvisited_edges = 0;   ///< edges left to explore (rem)
};

/// A decomposition's steps, called by one rank. `parts` lists the rank's
/// partitions (own plus adopted); directions are 0 top-down, 1 bottom-up.
struct LevelSteps {
  std::function<void(int part)> save, restore;  ///< boundary checkpoint
  std::function<LevelCounts(int dir, int level, std::span<const int> parts)>
      kernels;
  /// Build the frontier inputs of a level about to run `dir`, before the
  /// first level and after every rollback (empty: nothing to build).
  std::function<void(int dir, std::span<const int> parts)> inputs;
  std::function<ExchangeLevelStats(int dir, int next,
                                   std::span<const int> parts)>
      exchange;
  /// Close a level: `ex` is its exchange, nullptr for the last level;
  /// `recorder` is set on the rank that records shared results.
  std::function<void(bool recorder, const ExchangeLevelStats* ex)> close;
};

/// The loop's shared half: the crash-recovery protocol and the recorder's
/// per-level lists. Construct on the host, run() inside every rank
/// function, finish() after the run.
class BeamerLoop {
 public:
  /// `entry` names the entry point in the crash-refusal message; `n` is
  /// the graph's vertex count (the bu -> td threshold).
  BeamerLoop(rt::Cluster& c, const char* entry, const Config& cfg,
             std::uint64_t n);

  bool checkpointing() const { return recovery_.checkpointing(); }

  /// One rank's levels, from the root's degree (`root_degree`, 0 unless
  /// the rank owns the root) and the rank's unvisited edges after the reset.
  /// Ends with the closing barrier, except when the rank crashed.
  void run(rt::Proc& p, std::uint64_t root_degree,
           std::uint64_t unvisited_edges, const LevelSteps& s);

  /// Fill the shared result fields from the finished run.
  void finish(BfsResult& out) const;

  /// Per-level trace entries with the loop's fields filled in.
  template <class Trace>
  std::vector<Trace> trace() const {
    std::vector<Trace> out(directions_.size());
    for (std::size_t l = 0; l < out.size(); ++l) {
      out[l].level = static_cast<int>(l);
      out[l].direction = directions_[l];
      out[l].frontier_vertices = frontier_[l];
      out[l].discovered = discovered_[l];
    }
    return out;
  }

 private:
  rt::Cluster& c_;
  faults::LevelRecovery recovery_;
  Config cfg_;
  std::uint64_t n_;
  // Written by the recorder rank.
  std::vector<int> directions_;
  std::vector<std::uint64_t> frontier_;    ///< input frontier per level
  std::vector<std::uint64_t> discovered_;  ///< vertices found per level
  std::uint64_t visited_ = 1;              ///< the root
  std::uint64_t traversed_ = 0;            ///< root degree + every mf
};

}  // namespace numabfs::bfs
