#include "faults/recovery.hpp"

#include <string>

#include "faults/errors.hpp"

namespace numabfs::faults {

LevelRecovery::LevelRecovery(rt::Cluster& c, const char* entry,
                             const char* unit)
    : c_(c),
      inj_(c.injector()),
      ckpt_on_(inj_ != nullptr && inj_->checkpointing()) {
  // The fault plan is known before the loop starts, so an unsurvivable
  // crash is refused up front with a diagnosable error.
  if (inj_ != nullptr && inj_->has_crashes() && !ckpt_on_)
    throw FaultError(std::string(entry) +
                     ": the fault plan schedules rank crashes but "
                     "checkpointing is disabled (checkpoint:off); the " +
                     unit + " could not be recovered");
}

LevelRecovery::Rank::Rank(LevelRecovery& shared, rt::Proc& p)
    : shared_(shared),
      p_(p),
      parts_{p.rank},
      recorder_(shared.inj_ != nullptr ? shared.inj_->lowest_live() : 0) {}

bool LevelRecovery::Rank::crash_point(int crash_index,
                                      const std::function<void(int)>& save) {
  if (shared_.ckpt_on_)
    for (int q : parts_) save(q);
  FaultInjector* inj = shared_.inj_;
  if (inj == nullptr || inj->crash_level(p_.rank) != crash_index) return false;
  inj->mark_dead(p_.rank);
  shared_.c_.retire_rank(p_);  // survivors' barriers stop expecting us
  return true;
}

bool LevelRecovery::Rank::recovered(const std::function<void(int)>& restore) {
  FaultInjector* inj = shared_.inj_;
  const bool died = inj != nullptr && inj->dead_count() > handled_dead_;
  if (died) {
    handled_dead_ = inj->dead_count();
    const std::size_t owned_before = parts_.size();
    parts_ = inj->parts_of(p_.rank);
    if (parts_.size() > owned_before)
      p_.prof.counters().adoptions += parts_.size() - owned_before;
    for (int q : parts_) restore(q);
    if (p_.rank == inj->lowest_live())
      shared_.recoveries_.fetch_add(1, std::memory_order_relaxed);
    p_.barrier(shared_.c_.world(), sim::Phase::stall);  // rollback done
  }
  // No rank can die before the next crash point (every rank already passed
  // this level's), so the live set read here holds until then.
  recorder_ = inj != nullptr ? inj->lowest_live() : 0;
  return died;
}

void LevelLoopResult::tally(const std::vector<int>& directions,
                            const LevelRecovery& recovery,
                            const sim::RunProfile& prof) {
  profile_avg = prof.avg;
  levels = static_cast<int>(directions.size());
  for (int d : directions) (d == 0 ? td_levels : bu_levels)++;
  recoveries = recovery.recoveries();
  ranks_lost = recovery.ranks_lost();
}

}  // namespace numabfs::faults
