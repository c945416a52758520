#include "layers.hpp"

namespace perfbench {

namespace rt = numabfs::rt;
namespace sim = numabfs::sim;

void phase_virtuals(const std::vector<sim::PhaseProfile>& prof, int pass,
                    Result& res) {
  sim::PhaseProfile sum;
  for (const auto& p : prof) sum += p;
  const double n = static_cast<double>(prof.size());
  const auto ms = [&](sim::Phase ph) { return sum.get(ph) / n / 1e6; };
  res.virt_pass("bfs.td_comp_ms", ms(sim::Phase::td_comp), pass);
  res.virt_pass("bfs.bu_comp_ms", ms(sim::Phase::bu_comp), pass);
  res.virt_pass("bfs.switch_ms", ms(sim::Phase::switch_conv), pass);
  res.virt_pass("bfs.td_comm_ms", ms(sim::Phase::td_comm), pass);
  res.virt_pass("bfs.bu_comm_ms", ms(sim::Phase::bu_comm), pass);
  res.virt_pass("bfs.stall_ms", ms(sim::Phase::stall), pass);
  const sim::Counters& c = sum.counters();
  res.virt_pass("bfs.edges_scanned", static_cast<double>(c.edges_scanned) / n, pass);
  res.virt_pass("bfs.summary_skip_ratio",
                c.summary_probes ? static_cast<double>(c.summary_zero_skips) /
                                       static_cast<double>(c.summary_probes)
                                 : 0.0,
                pass);
  res.virt_pass("bfs.bytes_inter", static_cast<double>(c.bytes_inter_node) / n, pass);
  res.virt_pass("bfs.bytes_intra", static_cast<double>(c.bytes_intra_node) / n, pass);
  const std::uint64_t wire = c.bytes_inter_node + c.bytes_intra_node;
  res.virt_pass("codec.wire_ratio",
                wire ? static_cast<double>(c.bytes_raw_equiv) / static_cast<double>(wire)
                     : 1.0,
                pass);
  res.virt_pass("runtime.retransmits", static_cast<double>(c.retransmits), pass);
  res.virt_pass("runtime.recv_timeouts", static_cast<double>(c.recv_timeouts), pass);
}

void coded_legs(std::uint64_t coded, std::uint64_t gated, int pass, Result& res) {
  res.virt_pass("codec.coded_leg_frac",
                gated ? static_cast<double>(coded) / static_cast<double>(gated) : 0.0,
                pass);
}

std::shared_ptr<obs::Tracer> attach_tracer(rt::Cluster& c, bool traced) {
  std::shared_ptr<obs::Tracer> tr;
  if (traced) tr = std::make_shared<obs::Tracer>(c.nranks(), c.ppn());
  c.set_tracer(tr);
  return tr;
}

void finish_tracer(rt::Cluster& c, const std::shared_ptr<obs::Tracer>& tr,
                   const Ctx& ctx, const std::string& file, PassStats& ps) {
  c.set_tracer(nullptr);
  if (tr == nullptr) return;
  ps.obs_events += tr->total_events();
  if (!ctx.trace_dir.empty())
    tr->write(ctx.trace_dir + "/" + file);
}

}  // namespace perfbench
