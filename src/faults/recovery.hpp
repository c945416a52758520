#pragma once
/// \file recovery.hpp
/// The crash-recovery protocol of every level-synchronous loop: the 1-D
/// and 2-D BFS, the MS-BFS lane wave and the frontier programs all survive
/// a rank crash the same way (DESIGN.md §6). The fail-stop model is "the
/// boundary checkpoint completed, the crash hit afterwards", so an adopter
/// always finds start-of-level state. What a loop checkpoints, and the
/// trace span of its rollback, stay with the loop; it hands the save and
/// restore steps in as callbacks.

#include <atomic>
#include <functional>
#include <vector>

#include "faults/injector.hpp"
#include "numasim/phase_profile.hpp"
#include "runtime/cluster.hpp"

namespace numabfs::faults {

/// The cross-rank half: the up-front refusal and the recovery count.
class LevelRecovery {
 public:
  /// Throws FaultError when the cluster's fault plan schedules crashes with
  /// checkpointing off. `entry` names the entry point and `unit` what it
  /// runs ("traversal", "wave", "program"), for the message.
  LevelRecovery(rt::Cluster& c, const char* entry, const char* unit);

  /// Whether boundary checkpoints are taken (size their storage by it).
  bool checkpointing() const { return ckpt_on_; }
  /// Level re-runs after rank crashes.
  int recoveries() const { return recoveries_.load(std::memory_order_relaxed); }
  int ranks_lost() const { return inj_ != nullptr ? inj_->dead_count() : 0; }

  /// One rank's side of the protocol; build it inside the rank function.
  class Rank {
   public:
    Rank(LevelRecovery& shared, rt::Proc& p);

    /// The partitions this rank executes: its own plus the adopted ones.
    const std::vector<int>& parts() const { return parts_; }
    /// The rank that records shared results: the lowest live rank as of
    /// the last detection point (0 fault-free).
    int recorder() const { return recorder_; }

    /// Level boundary: `save` every owned partition (checkpointing on),
    /// then die if this rank's crash is scheduled at `crash_index` — the
    /// 0-based index of the level, counted from the first kernel. Returns
    /// true when the rank died: the caller must return from its rank
    /// function at once, touching no further barrier.
    bool crash_point(int crash_index, const std::function<void(int)>& save);

    /// Detection point. On a death not yet handled: adopt, `restore` every
    /// owned partition, count the recovery, barrier, and return true (the
    /// caller re-runs the level). Either way, refresh the recorder.
    bool recovered(const std::function<void(int)>& restore);

   private:
    LevelRecovery& shared_;
    rt::Proc& p_;
    std::vector<int> parts_;
    int handled_dead_ = 0;
    int recorder_ = 0;
  };

 private:
  rt::Cluster& c_;
  FaultInjector* inj_;
  bool ckpt_on_;
  std::atomic<int> recoveries_{0};
};

/// What every level loop's result reports (1-D, 2-D, wave, program).
struct LevelLoopResult {
  sim::PhaseProfile profile_avg;  ///< times averaged over ranks, counters
                                  ///< summed
  int levels = 0;      ///< levels closed (a re-run level counts once)
  int td_levels = 0;   ///< of which top-down (sparse kernel, push)
  int bu_levels = 0;   ///< of which bottom-up (dense kernel, pull)
  int recoveries = 0;  ///< level re-runs after rank crashes
  int ranks_lost = 0;  ///< ranks dead by the end of the run

  /// Fill from the kernel direction of every closed level (0 = top-down),
  /// the run's recovery record and its aggregated profiles.
  void tally(const std::vector<int>& directions,
             const LevelRecovery& recovery, const sim::RunProfile& prof);
};

}  // namespace numabfs::faults
