#pragma once
/// \file level_driver.hpp
/// The engine's one level driver: the frontier level loop under both the
/// MS-BFS lane wave (run_wave) and the frontier programs (run_program).
///
/// The driver owns what the two loops share: the cost-model direction
/// choice, the codec-gated exchange funnel (measure, gate, chunk bytes, the
/// collective plan, wipe), the abort horizon, the cross-replica export at
/// every level entry, the crash point and the crash recovery
/// (faults::LevelRecovery), and recorder tracking. An engine plugs in through FrontierEngine: its
/// kernels, its checkpoint contents, and what closes a level (lane
/// retirement for the wave, post_level for programs). Seeding and failover
/// import stay with the engine, ahead of the loop.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bfs/config.hpp"
#include "bfs/costs.hpp"
#include "faults/recovery.hpp"
#include "graph/partition.hpp"
#include "graph/summary.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::engine {

/// Where a level loop stands; both cross-replica checkpoint types carry it.
/// The driver writes it at every export and a failover resume starts from
/// it.
struct LevelPosition {
  bool valid = false;
  int level = 1;             ///< level the next kernel would run
  int dir = 0;               ///< its kernel: 0 push/sparse, 1 pull/dense
  bool use_summary = false;  ///< the pull kernel's frontier-summary decision
};

/// The knobs every driven run takes (WaveOptions, ProgramOptions), typed by
/// the run's checkpoint. The defaults run plainly: no horizon, no export,
/// fresh start.
template <class Checkpoint>
struct RunOptions {
  /// Graph epoch label (dynamic graph layer), stamped into the result; the
  /// caller passes the matching pinned view, also when resuming.
  std::uint64_t epoch = 0;
  /// The replica's outage instant: the run aborts at the first
  /// clock-aligned point at or past it.
  double abort_at_ns = std::numeric_limits<double>::infinity();
  /// Cross-replica checkpoint written at every level entry (nullptr: none).
  Checkpoint* export_to = nullptr;
  /// Resume from this checkpoint of a run over the same DistGraph and
  /// sharing shape instead of seeding (nullptr: fresh run).
  const Checkpoint* resume_from = nullptr;
};

/// The fields every driven run reports (WaveResult, ProgramResult).
struct RunResult : faults::LevelLoopResult {
  /// Graph epoch the run served (RunOptions::epoch; 0 for static graphs).
  std::uint64_t epoch = 0;
  bool aborted = false;  ///< hit RunOptions::abort_at_ns before finishing
  double abort_ns = 0;   ///< virtual time the abort was observed
};

/// The state the driver's exchange moves: a replicated frontier (one copy
/// per rank, or per node under the paper's sharing levels) with its
/// summary, and per partition an out slab with its out summary, written by
/// the partition's current owner and allgathered into every replica. A
/// partition's block of vertices occupies `slab_words` frontier words, and
/// replica-summary position `part * stride` starts its block.
class FrontierSlabs {
 public:
  FrontierSlabs(const bfs::Config& cfg, const graph::Partition1D& part,
                int nodes, int ppn, std::uint64_t slab_words,
                std::uint64_t stride);

  const bfs::Config& config() const { return cfg_; }
  bool shared_frontier() const { return shared_; }
  std::uint64_t block() const { return block_; }
  std::uint64_t slab_words() const { return slab_words_; }
  std::uint64_t stride() const { return stride_; }
  std::uint64_t summary_bits() const { return summary_bits_; }

  /// Replicated frontier words seen by `rank` (node-shared replicas alias).
  std::span<std::uint64_t> frontier(int rank) {
    return frontier_[replica(rank)];
  }
  /// Summary over `frontier(rank)`: a zero bit proves its group empty.
  graph::SummaryView frontier_summary(int rank) {
    return fsummary_[replica(rank)].view();
  }
  /// Partition `part`'s out slab and its summary (local positions).
  std::span<std::uint64_t> out(int part) {
    return out_[static_cast<std::size_t>(part)];
  }
  graph::SummaryView out_summary(int part) {
    return out_summary_[static_cast<std::size_t>(part)].view();
  }
  /// Zero partition `part`'s out slab and summary; returns the slab words.
  std::uint64_t wipe_out(int part) {
    std::fill(out_[static_cast<std::size_t>(part)].begin(),
              out_[static_cast<std::size_t>(part)].end(), 0);
    out_summary(part).bits().reset();
    return slab_words_;
  }

 protected:
  std::size_t replica(int rank) const {
    return static_cast<std::size_t>(shared_ ? rank / ppn_ : rank);
  }

 private:
  bfs::Config cfg_;
  int ppn_;
  bool shared_;
  std::uint64_t block_;
  std::uint64_t slab_words_;
  std::uint64_t stride_;
  std::uint64_t summary_bits_;
  std::vector<std::vector<std::uint64_t>> frontier_;  // per replica
  std::vector<graph::Summary> fsummary_;              // per replica
  std::vector<std::vector<std::uint64_t>> out_;       // per partition
  std::vector<graph::Summary> out_summary_;           // per partition
};

/// A level's reduced (global) direction inputs.
struct DirInputs {
  std::uint64_t frontier_edges = 0;  ///< adjacency behind the new frontier
  std::uint64_t frontier = 0;        ///< new frontier vertices
  std::uint64_t needy = 0;           ///< vertices a pull would still scan
  std::uint64_t mu = 0;              ///< their adjacency volume
};

/// One partition's out chunk, as the engine measured it for the exchange.
struct ChunkScan {
  std::uint64_t nnz = 0;                    ///< entries that ride the wire
  std::span<const std::uint64_t> presence;  ///< presence bitmap (coded runs)
  std::uint64_t scan_words = 0;             ///< words the measuring pass read
};

/// The engine half of a driven level loop. Every method runs on the rank
/// that owns the engine object; "recorder only" methods run on the rank
/// that records the shared results.
class FrontierEngine {
 public:
  virtual ~FrontierEngine() = default;

  // --- the level -------------------------------------------------------
  /// Whether another level starts (the wave stops once no lane is active).
  virtual bool more() const { return true; }
  /// Stop before `level` without converging (the programs' backstop).
  virtual bool past_limit(int /*level*/) const { return false; }
  /// Run the level's kernels over `parts` and reduce their statistics.
  virtual DirInputs advance(const LevelPosition& pos,
                            std::span<const int> parts) = 0;
  /// Close a level that survived: retire lanes or evolve scalars, trace.
  /// Returns false when the loop ends here, before the exchange.
  virtual bool close(const LevelPosition& pos, double level_t0,
                     bool recorder) = 0;
  /// After the level's exchange.
  virtual void exchanged(const LevelPosition& /*pos*/, double /*level_t0*/) {}
  /// Whether the cost model picks each level's kernel (else it stays).
  virtual bool direction_optimizing() const { return true; }
  /// Recorder only: the loop stopped at the abort horizon.
  virtual void aborted() {}

  // --- checkpoints -----------------------------------------------------
  /// Boundary checkpoint of partition `part`, and its rollback.
  virtual void save(int part) = 0;
  virtual void restore(int part) = 0;
  /// Cross-replica export of partition `part` (its owner writes it).
  virtual void export_part(int part) = 0;
  /// Recorder only: export one replica copy and the engine's own position.
  virtual void export_replica() = 0;
  /// Recorder only, after the export barrier: the export's trace event.
  virtual void exported(int level) = 0;

  // --- the exchange's wire format --------------------------------------
  /// Count partition `part`'s out entries (and, when `coded`, expose the
  /// presence bitmap to encode).
  virtual ChunkScan measure(int part, bool coded) = 0;
  /// Modeled payload bytes per out entry.
  virtual std::uint64_t entry_bytes() const = 0;
  /// Land what partition `part` ships beside its out slab (program values)
  /// in this rank's replica.
  virtual void land_payload(int /*part*/) {}
};

/// Cross-rank record of a driven loop, written by the recorder.
struct LoopRecord {
  std::vector<int> directions;  ///< kernel of every closed level
  bool aborted = false;         ///< stopped at the abort horizon
  double abort_ns = 0;          ///< virtual time the abort was observed
};

/// The driver's fixed inputs.
struct DriverSpec {
  const std::vector<bfs::UnitCosts>* costs = nullptr;  ///< per partition
  FrontierSlabs* slabs = nullptr;   ///< what the exchange moves
  std::uint64_t n = 0;              ///< graph vertices (direction model)
  const char* exchange_event = "";  ///< trace instant of each exchange
  /// Replica-outage horizon: past it the loop stops (see RunOptions).
  double abort_at_ns = std::numeric_limits<double>::infinity();
  LevelPosition* export_to = nullptr;  ///< export destination, or nullptr
};

/// One rank's level driver.
class LevelDriver {
 public:
  LevelDriver(rt::Proc& p, faults::LevelRecovery& recovery,
              const DriverSpec& spec, FrontierEngine& engine,
              LoopRecord& record);

  const std::vector<int>& parts() const { return rank_.parts(); }
  int recorder() const { return rank_.recorder(); }

  /// Cost-model direction choice from a level's reduced inputs. Replaces
  /// the scalar Beamer hysteresis, which the lane union breaks: 16 sources
  /// push the frontier's edge count over E/alpha one level early, while
  /// the union frontier is still far too sparse for a pull. Both kernels'
  /// modeled cost is estimated from measured state and the simulator's own
  /// unit costs:
  ///   push ~ a frontier-word stream + the frontier's real edges;
  ///   pull ~ the needy vertices' adjacency, discounted by the early break
  ///          — a needy vertex stops scanning once its lanes are collected,
  ///          after about kDenseEarlyBreak / density probes at union
  ///          frontier density `density`.
  /// The same estimate decides whether a pull consults the frontier
  /// summary: probing it on every edge only pays when the expected skips
  /// ((1-density)^granularity of the probes) outweigh the summary reads.
  /// Every rank evaluates it on the same allreduced inputs with partition
  /// 0's unit costs, so the choice is identical everywhere.
  void choose(const DirInputs& in, LevelPosition& pos) const;

  /// The per-level exchange: measure the owned out chunks, run the codec
  /// gate on their presence bitmaps, allgather the chunks into every
  /// replica, then wipe the owned out slabs. The modeled chunk is the
  /// presence bitmap (coded when the measured encodings won on average),
  /// the out summary and `entry_bytes` per entry of the fullest chunk; ring
  /// time is bound by that chunk. The collective plan is
  /// bfs::select_allgather_plan's, the choice the hybrid BFS exchange
  /// makes: private-replica library allgather, node-shared leader
  /// allgather, or parallel subgroups (the paper's Fig. 7), with the
  /// degraded-link stretch and the chunk-pipelined decode overlap when the
  /// presence bitmap went over coded.
  void exchange();

  /// Run levels from `pos` until the engine stops, the abort horizon, or
  /// this rank's crash. Ends with the closing barrier, except on a crash.
  void run(LevelPosition pos);

 private:
  bool abort_horizon();

  rt::Proc& p_;
  faults::LevelRecovery::Rank rank_;
  const DriverSpec& spec_;
  FrontierEngine& eng_;
  LoopRecord& record_;
};

/// Copy the loop fields every engine result carries.
inline void fill_loop_result(RunResult& out, const LoopRecord& rec,
                             const faults::LevelRecovery& recovery,
                             const sim::RunProfile& prof) {
  out.tally(rec.directions, recovery, prof);
  out.aborted = rec.aborted;
  out.abort_ns = rec.abort_ns;
}

}  // namespace numabfs::engine
