#include "engine/fprog.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "faults/recovery.hpp"
#include "obs/trace.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::engine {

ProgramState::ProgramState(const graph::DistGraph& dg, const bfs::Config& cfg,
                           int nodes, int ppn, bool with_values)
    : FrontierSlabs(cfg, dg.part, nodes, ppn, (dg.part.block() + 63) / 64,
                    (dg.part.block() + 63) / 64 * 64),
      np_(dg.part.np()),
      with_values_(with_values) {
  if (np_ != nodes * ppn)
    throw std::invalid_argument("ProgramState: partition/shape mismatch");
  if (with_values_) {
    values_.assign(shared_frontier() ? static_cast<std::size_t>(nodes)
                                     : static_cast<std::size_t>(np_),
                   std::vector<Value>(padded_values(), 0));
    val_out_.assign(static_cast<std::size_t>(np_),
                    std::vector<Value>(block(), 0));
  }
}

std::span<Value> ProgramState::values(int rank) {
  if (!with_values_) return {};
  return values_[replica(rank)];
}
std::span<Value> ProgramState::val_out(int part) {
  if (!with_values_) return {};
  return val_out_[static_cast<std::size_t>(part)];
}

namespace {

/// Global sums / min / or of one level's statistics. Seven allreduces, the
/// program analog of the wave's six: every rank leaves with the identical
/// reduced view, which post_level() and the direction choice key off.
ProgStats reduce_stats(rt::Proc& p, rt::Comm& world, const ProgStats& st) {
  ProgStats r;
  r.changed = rt::allreduce_sum(p, world, st.changed, sim::Phase::stall);
  r.frontier_edges =
      rt::allreduce_sum(p, world, st.frontier_edges, sim::Phase::stall);
  r.needy = rt::allreduce_sum(p, world, st.needy, sim::Phase::stall);
  r.mu = rt::allreduce_sum(p, world, st.mu, sim::Phase::stall);
  r.acc = rt::allreduce_sum(p, world, st.acc, sim::Phase::stall);
  // Min via the max of the complement (the runtime has no allreduce_min).
  r.min_word =
      ~rt::allreduce_max(p, world, ~st.min_word, sim::Phase::stall);
  r.flags = rt::allreduce_or(p, world, st.flags, sim::Phase::stall);
  r.sources = st.sources;  // local-only fields: charging inputs, not control
  r.scanned = st.scanned;
  return r;
}

/// Engine-owned time charging for one partition's advance. Programs return
/// work counts; this converts them with the partition's unit costs —
/// push levels stream the replicated frontier words and pay group search +
/// edge scans, pull levels stream the owned side and pay per-edge frontier
/// probes. Merged-view read amplification (dynamic graphs) is charged from
/// the slice's own patch-read counter, as in the BFS kernels.
void charge_advance(rt::Proc& p, const bfs::UnitCosts& u,
                    const graph::LocalGraph& lg, const ProgramState& ps,
                    const ProgStats& st, int dir, bool use_summary) {
  const auto patch = static_cast<double>(lg.take_patch_reads());
  const auto scanned = static_cast<double>(st.scanned);
  const auto changed = static_cast<double>(st.changed);
  if (dir == 0) {
    const double inner = static_cast<double>(st.sources) * u.group_search_ns +
                         scanned * u.edge_scan_ns + changed * u.write_ns +
                         patch * u.delta_probe_ns;
    p.charge(sim::Phase::td_comp,
             u.stream_pass_ns(ps.padded_words()) + inner / u.omp_div);
  } else {
    const double probe =
        u.inqueue_probe_ns + (use_summary ? u.summary_probe_ns : 0.0);
    const double inner = scanned * (u.edge_scan_ns + probe) +
                         changed * u.write_ns + patch * u.delta_probe_ns;
    p.charge(sim::Phase::bu_comp,
             u.stream_pass_ns(ps.words_per_block() +
                              (ps.with_values() ? ps.block() : 0)) +
                 inner / u.omp_div);
  }
}

/// Cross-rank state of one program run, shared by the rank engines.
struct ProgramRun {
  const graph::DistGraph& dg;
  ProgramState& ps;
  const FrontierProgram& prog;
  const ProgramQuery& query;
  const std::vector<bfs::UnitCosts>& costs;
  ProgramCheckpoint* xp;
  int max_levels;
  /// Boundary checkpoints hold each partition's val_out — unlike the
  /// wave's seen-only checkpoints, program values are not generally
  /// idempotent (PageRank accumulates residuals), so a level re-run needs
  /// the values exactly as the boundary left them. Out bits are always
  /// zero at a boundary (the exchange wipes them) and need no saving.
  std::vector<std::vector<Value>> ckpt;
  ProgStats last;  ///< reduced stats of the last closed level
  bool converged = false;
};

/// One rank's frontier program under the level driver.
class ProgramEngine final : public FrontierEngine {
 public:
  ProgramEngine(rt::Proc& p, ProgramRun& run)
      : scalars(static_cast<std::size_t>(run.prog.scalar_count())),
        p_(p),
        r_(run) {}

  /// Control scalars: every rank evolves its copy from the same reduced
  /// view.
  std::vector<std::uint64_t> scalars;

  PartCtx ctx(int q) {
    ProgramState& ps = r_.ps;
    const auto& lg = r_.dg.locals[static_cast<std::size_t>(q)];
    return PartCtx{lg,
                   q,
                   lg.vbegin,
                   ps.block(),
                   ps.frontier(p_.rank),
                   ps.frontier_summary(p_.rank),
                   ps.values(p_.rank),
                   ps.out_bits(q),
                   ps.out_summary(q),
                   ps.val_out(q)};
  }

  bool past_limit(int level) const override {
    return level > r_.max_levels;  // diverged: converged stays false
  }

  DirInputs advance(const LevelPosition& pos,
                    std::span<const int> parts) override {
    ProgStats st;
    st.min_word = kProgInf;
    for (int q : parts) {
      const auto qi = static_cast<std::size_t>(q);
      PartCtx c = ctx(q);
      const ProgStats qs = r_.prog.advance(r_.query, c, scalars, pos.level,
                                           pos.dir, pos.use_summary);
      charge_advance(p_, r_.costs[qi], r_.dg.locals[qi], r_.ps, qs, pos.dir,
                     pos.use_summary);
      st.add(qs);
      // The owned post-scan (min/needy/mu measurement), charged like the
      // wave's direction-input pass.
      p_.charge(sim::Phase::switch_conv,
                r_.costs[qi].stream_pass_ns(2 * r_.dg.locals[qi].owned()));
    }
    rs_ = reduce_stats(p_, p_.cluster->world(), st);
    return dir_inputs(rs_);
  }

  bool close(const LevelPosition& pos, double level_t0,
             bool recorder) override {
    const bool conv = r_.prog.post_level(scalars, rs_, pos.level);
    if (recorder) r_.last = rs_;
    p_.trace_span(obs::kCatEngine,
                  std::string(r_.prog.name()) + " level " +
                      std::to_string(pos.level),
                  level_t0, p_.clock.now_ns(),
                  obs::kv("dir", pos.dir == 1 ? "pull" : "push") + "," +
                      obs::kv("changed", rs_.changed));
    if (conv && recorder) r_.converged = true;
    return !conv;
  }

  bool direction_optimizing() const override {
    return r_.prog.direction_optimizing();
  }

  void save(int q) override {
    if (!r_.ps.with_values()) return;
    auto vo = r_.ps.val_out(q);
    r_.ckpt[static_cast<std::size_t>(q)].assign(vo.begin(), vo.end());
    p_.charge(sim::Phase::other,
              r_.costs[static_cast<std::size_t>(q)].stream_pass_ns(vo.size()));
  }

  void restore(int q) override {
    ProgramState& ps = r_.ps;
    std::uint64_t words = 0;
    if (ps.with_values()) {
      auto vo = ps.val_out(q);
      const auto& saved = r_.ckpt[static_cast<std::size_t>(q)];
      std::memcpy(vo.data(), saved.data(), saved.size() * sizeof(Value));
      words += vo.size();
    }
    words += ps.wipe_out(q);
    p_.charge(sim::Phase::other,
              r_.costs[static_cast<std::size_t>(q)].stream_pass_ns(words));
  }

  void export_part(int q) override {
    if (!r_.ps.with_values()) return;
    const auto qi = static_cast<std::size_t>(q);
    auto vo = r_.ps.val_out(q);
    r_.xp->val_out[qi].assign(vo.begin(), vo.end());
    p_.charge(sim::Phase::other, r_.costs[qi].stream_pass_ns(vo.size()));
  }

  void export_replica() override {
    ProgramState& ps = r_.ps;
    auto f = ps.frontier(p_.rank);
    r_.xp->frontier.assign(f.begin(), f.end());
    if (ps.with_values()) {
      auto v = ps.values(p_.rank);
      r_.xp->values.assign(v.begin(), v.end());
    }
    r_.xp->scalars.assign(scalars.begin(), scalars.end());
    p_.charge(sim::Phase::other,
              r_.costs[static_cast<std::size_t>(p_.rank)].stream_pass_ns(
                  f.size()));
  }

  void exported(int level) override {
    p_.trace_instant(obs::kCatEngine, "prog.ckpt", obs::kv("level", level));
  }

  /// Wire format: the out bits are the presence bitmap; with values, each
  /// set bit carries its changed value. The simulation lands the whole
  /// value block — unchanged entries already match every replica.
  ChunkScan measure(int q, bool /*coded*/) override {
    auto out = r_.ps.out_bits(q);
    ChunkScan s;
    for (std::uint64_t w : out)
      s.nnz += static_cast<std::uint64_t>(std::popcount(w));
    s.presence = out;
    s.scan_words = out.size();
    return s;
  }

  std::uint64_t entry_bytes() const override {
    return r_.ps.with_values() ? sizeof(Value) : 0;
  }

  void land_payload(int q) override {
    ProgramState& ps = r_.ps;
    if (ps.with_values())
      std::memcpy(ps.values(p_.rank).data() +
                      static_cast<std::uint64_t>(q) * ps.block(),
                  ps.val_out(q).data(), ps.block() * sizeof(Value));
  }

  static DirInputs dir_inputs(const ProgStats& rs) {
    return DirInputs{rs.frontier_edges, rs.changed, rs.needy, rs.mu};
  }

 private:
  rt::Proc& p_;
  ProgramRun& r_;
  ProgStats rs_;  ///< this level's reduced stats
};

}  // namespace

ProgramResult run_program(rt::Cluster& c, const graph::DistGraph& dg,
                          ProgramState& ps, const FrontierProgram& prog,
                          const ProgramQuery& query,
                          const ProgramOptions& opts) {
  const bfs::Config& cfg = ps.config();
  if (query.source >= dg.n || query.target >= dg.n)
    throw std::invalid_argument("run_program: query vertex out of range");
  if (prog.with_values() != ps.with_values())
    throw std::invalid_argument(
        "run_program: state was built for a different value mode");

  const ProgramCheckpoint* rck = opts.resume_from;
  if (rck != nullptr) {
    const auto np = static_cast<std::size_t>(c.nranks());
    if (!rck->valid || rck->frontier.size() != ps.padded_words() ||
        (ps.with_values() &&
         (rck->val_out.size() != np ||
          rck->values.size() != ps.padded_values())) ||
        rck->scalars.size() != static_cast<std::size_t>(prog.scalar_count()))
      throw std::invalid_argument(
          "run_program: resume checkpoint missing or built for another shape");
  }
  ProgramCheckpoint* xp = opts.export_to;
  if (xp != nullptr) {
    xp->valid = false;
    xp->val_out.assign(static_cast<std::size_t>(c.nranks()), {});
  }

  const std::vector<bfs::UnitCosts> costs = bfs::partition_costs(
      c, dg, cfg,
      ps.padded_words() * 8 +
          (ps.with_values() ? ps.padded_values() * sizeof(Value) : 0),
      (ps.summary_bits() + 7) / 8, [&](std::uint64_t owned) {
        return (owned + 7) / 8 + (ps.with_values() ? owned * sizeof(Value) : 0);
      });
  faults::LevelRecovery recovery(c, "run_program", "program");
  ProgramRun run{dg, ps, prog, query, costs, xp, opts.max_levels, {}, {},
                 false};
  if (recovery.checkpointing() && ps.with_values())
    run.ckpt.resize(static_cast<std::size_t>(c.nranks()));
  LoopRecord record;
  const DriverSpec spec{
      .costs = &costs, .slabs = &ps, .n = dg.n,
      .exchange_event = "prog.exchange", .abort_at_ns = opts.abort_at_ns,
      .export_to = xp};

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    rt::Comm& world = c.world();
    const std::uint64_t block = ps.block();
    ProgramEngine eng(p, run);
    LevelDriver drv(p, recovery, spec, eng, record);
    LevelPosition pos;

    if (rck == nullptr) {
      // Seed: wipe the replicas (one writer each), initialize the owned
      // partition through the program, then exchange the seed frontier.
      if (!ps.shared_frontier() || p.is_node_leader()) {
        auto f = ps.frontier(p.rank);
        std::memset(f.data(), 0, f.size() * 8);
        ps.frontier_summary(p.rank).bits().reset();
        if (ps.with_values()) {
          auto v = ps.values(p.rank);
          std::memset(v.data(), 0, v.size() * sizeof(Value));
        }
      }
      ps.wipe_out(p.rank);
      prog.init_scalars(eng.scalars);
      PartCtx ctx = eng.ctx(p.rank);
      ProgStats st = prog.seed(query, ctx);
      p.charge(sim::Phase::other,
               u.stream_pass_ns(ps.padded_words() +
                                (ps.with_values() ? 2 * block : block)));
      p.barrier(world, sim::Phase::other);
      const ProgStats rs = reduce_stats(p, world, st);
      drv.exchange();
      if (prog.direction_optimizing())
        drv.choose(ProgramEngine::dir_inputs(rs), pos);
    } else {
      // Failover resume: owners reload val_out, each replica writer reloads
      // the checkpointed frontier (bits + values) and rebuilds its summary;
      // the control position and scalars come from the exporter.
      std::copy(rck->scalars.begin(), rck->scalars.end(), eng.scalars.begin());
      pos = *rck;
      std::uint64_t words = 0;
      if (ps.with_values()) {
        auto vo = ps.val_out(p.rank);
        const auto& saved = rck->val_out[static_cast<std::size_t>(p.rank)];
        std::memcpy(vo.data(), saved.data(), saved.size() * sizeof(Value));
        words += vo.size();
      }
      words += ps.wipe_out(p.rank);
      if (!ps.shared_frontier() || p.is_node_leader()) {
        auto f = ps.frontier(p.rank);
        std::memcpy(f.data(), rck->frontier.data(), f.size() * 8);
        auto fs = ps.frontier_summary(p.rank);
        fs.bits().reset();
        for (std::uint64_t w = 0; w < f.size(); ++w) {
          std::uint64_t bits = f[w];
          while (bits) {
            fs.mark(w * 64 +
                    static_cast<std::uint64_t>(std::countr_zero(bits)));
            bits &= bits - 1;
          }
        }
        if (ps.with_values()) {
          auto v = ps.values(p.rank);
          std::memcpy(v.data(), rck->values.data(), v.size() * sizeof(Value));
          words += v.size();
        }
        words += 2 * f.size();
      }
      p.charge(sim::Phase::other, u.stream_pass_ns(words));
      p.barrier(world, sim::Phase::other);
    }
    drv.run(pos);
  });

  ProgramResult out;
  out.epoch = opts.epoch;
  const sim::RunProfile prof = sim::aggregate(c.profiles());
  out.total_ns = prof.max_total_ns;
  fill_loop_result(out, record, recovery, prof);
  out.converged = run.converged;
  out.last = run.last;
  out.value = prog.final_value(query, dg, ps, run.last);
  return out;
}

std::vector<Value> gather_values(const graph::DistGraph& dg,
                                 ProgramState& ps) {
  if (!ps.with_values()) return {};
  std::vector<Value> v(dg.n, 0);
  for (int r = 0; r < dg.part.np(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    auto vo = ps.val_out(r);
    for (std::uint64_t lv = 0; lv < lg.owned(); ++lv)
      v[lg.vbegin + lv] = vo[lv];
  }
  return v;
}

}  // namespace numabfs::engine
