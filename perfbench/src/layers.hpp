#pragma once
/// \file layers.hpp
/// Per-layer virtual metrics shared by several workloads, and the obs::Tracer
/// attachment of traced passes.

#include <memory>
#include <vector>

#include "numasim/phase_profile.hpp"
#include "obs/trace.hpp"
#include "runtime/cluster.hpp"
#include "workload.hpp"

namespace perfbench {

/// The paper's Fig. 11 phase split (mean per run of the level loop, virtual
/// ms) plus the kernel and exchange counters, from one PhaseProfile per run:
/// bfs.*, codec.wire_ratio, runtime.retransmits, runtime.recv_timeouts.
void phase_virtuals(const std::vector<numabfs::sim::PhaseProfile>& prof,
                    int pass, Result& res);

/// codec.coded_leg_frac: exchange legs whose measured wire bytes differ from
/// their raw size, over legs that moved bytes.
void coded_legs(std::uint64_t coded, std::uint64_t gated, int pass, Result& res);

/// Attach a fresh obs::Tracer to `c` for a traced pass (none otherwise).
std::shared_ptr<obs::Tracer> attach_tracer(numabfs::rt::Cluster& c, bool traced);

/// Detach, add the events to `ps` and write `<trace_dir>/<file>`.
void finish_tracer(numabfs::rt::Cluster& c,
                   const std::shared_ptr<obs::Tracer>& tr, const Ctx& ctx,
                   const std::string& file, PassStats& ps);

}  // namespace perfbench
