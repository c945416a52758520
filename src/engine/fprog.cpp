#include "engine/fprog.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "engine/exchange_core.hpp"
#include "faults/errors.hpp"
#include "graph/codec.hpp"
#include "runtime/allgather.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::engine {

ProgramState::ProgramState(const graph::DistGraph& dg, const bfs::Config& cfg,
                           int nodes, int ppn, bool with_values)
    : cfg_(cfg),
      np_(dg.part.np()),
      ppn_(ppn),
      shared_(cfg.sharing != bfs::Sharing::none && ppn > 1),
      with_values_(with_values),
      block_(dg.part.block()),
      wpb_((dg.part.block() + 63) / 64) {
  if (np_ != nodes * ppn)
    throw std::invalid_argument("ProgramState: partition/shape mismatch");
  const std::uint64_t g = cfg_.summary_granularity;
  const int nrep = shared_ ? nodes : np_;
  frontier_.assign(static_cast<std::size_t>(nrep),
                   std::vector<std::uint64_t>(padded_words(), 0));
  fsummary_.assign(static_cast<std::size_t>(nrep),
                   graph::Summary(padded_words() * 64, g));
  if (with_values_)
    values_.assign(static_cast<std::size_t>(nrep),
                   std::vector<Value>(padded_values(), 0));
  out_bits_.assign(static_cast<std::size_t>(np_),
                   std::vector<std::uint64_t>(wpb_, 0));
  out_summary_.assign(static_cast<std::size_t>(np_),
                      graph::Summary(block_, g));
  if (with_values_)
    val_out_.assign(static_cast<std::size_t>(np_),
                    std::vector<Value>(block_, 0));
}

namespace {
inline std::size_t replica_of(bool shared, int ppn, int rank) {
  return static_cast<std::size_t>(shared ? rank / ppn : rank);
}
}  // namespace

std::span<std::uint64_t> ProgramState::frontier(int rank) {
  return frontier_[replica_of(shared_, ppn_, rank)];
}
graph::SummaryView ProgramState::frontier_summary(int rank) {
  return fsummary_[replica_of(shared_, ppn_, rank)].view();
}
std::span<Value> ProgramState::values(int rank) {
  if (!with_values_) return {};
  return values_[replica_of(shared_, ppn_, rank)];
}
std::span<std::uint64_t> ProgramState::out_bits(int part) {
  return out_bits_[static_cast<std::size_t>(part)];
}
graph::SummaryView ProgramState::out_summary(int part) {
  return out_summary_[static_cast<std::size_t>(part)].view();
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

/// Per-level exchange of the program state: measure the out-bit sparsity,
/// run the codec gate on the presence bitmap, then ride the shared
/// collective-plan core. A partition's chunk is its presence bits, its out
/// summary and the changed values (with_values); the simulation lands the
/// full value block per slab — unchanged entries already match what every
/// replica holds, so only the changed ones are modeled on the wire.
void prog_exchange(rt::Proc& p, ProgramState& ps, const bfs::UnitCosts& u,
                   std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  rt::Comm& world = c.world();
  const bfs::Config& cfg = ps.config();
  const int np = c.nranks();
  const std::uint64_t block = ps.block();
  const std::uint64_t wpb = ps.words_per_block();
  const sim::Phase phase = sim::Phase::bu_comm;

  const bool coded = cfg.codec != bfs::CodecMode::off && np > 1;
  std::uint64_t my_nnz = 0;
  std::uint64_t my_penc = 0;
  std::vector<std::uint8_t> pbuf;
  for (int q : parts) {
    auto out = ps.out_bits(q);
    std::uint64_t nnz = 0;
    for (std::uint64_t w : out) nnz += static_cast<std::uint64_t>(std::popcount(w));
    if (coded) {
      pbuf.clear();
      const std::size_t nb =
          graph::codec::encode_dense({out.data(), out.size()}, pbuf);
      my_penc += static_cast<std::uint64_t>(nb);
      p.charge(phase, u.stream_pass_ns(wpb + (nb + 7) / 8));
    } else {
      p.charge(phase, u.stream_pass_ns(wpb));
    }
    my_nnz = std::max(my_nnz, nnz);
  }
  const std::uint64_t max_nnz =
      rt::allreduce_max(p, world, my_nnz, sim::Phase::stall);

  const std::uint64_t g = cfg.summary_granularity;
  const std::uint64_t sum_bytes =
      (graph::SummaryView::summary_bits_for(block, g) + 7) / 8;
  const std::uint64_t presence_raw = (block + 7) / 8;
  std::uint64_t presence_bytes = presence_raw;
  if (coded) {
    const std::uint64_t enc_mean =
        (rt::allreduce_sum(p, world, my_penc, sim::Phase::stall) +
         static_cast<std::uint64_t>(np) - 1) /
        static_cast<std::uint64_t>(np);
    if (enc_mean < presence_raw) presence_bytes = enc_mean;
  }
  const bool presence_coded = presence_bytes < presence_raw;
  const std::uint64_t payload =
      ps.with_values() ? max_nnz * sizeof(Value) : 0;
  const std::uint64_t chunk_bytes = presence_bytes + sum_bytes + payload;
  const std::uint64_t raw_chunk_bytes = presence_raw + sum_bytes + payload;

  auto frontier = ps.frontier(p.rank);
  auto in_s = ps.frontier_summary(p.rank);
  auto vals = ps.values(p.rank);
  ExchangeHooks hooks;
  hooks.copy_block = [&](int src_part) {
    auto src = ps.out_bits(src_part);
    std::memcpy(frontier.data() + static_cast<std::uint64_t>(src_part) * wpb,
                src.data(), wpb * 8);
    if (ps.with_values()) {
      auto sv = ps.val_out(src_part);
      std::memcpy(vals.data() + static_cast<std::uint64_t>(src_part) * block,
                  sv.data(), block * sizeof(Value));
    }
    if (src_part == p.rank) return;  // own chunk: no transmission
    if (c.node_of(src_part) == p.node)
      p.prof.counters().bytes_intra_node += chunk_bytes;
    else
      p.prof.counters().bytes_inter_node += chunk_bytes;
    p.prof.counters().bytes_raw_equiv += raw_chunk_bytes;
  };
  hooks.reset_summary = [&] { in_s.bits().reset(); };
  hooks.merge_summary = [&](int src_part) {
    auto src = ps.out_summary(src_part);
    const std::uint64_t base =
        static_cast<std::uint64_t>(src_part) * wpb * 64;
    src.bits().for_each_set(0, src.size_bits(), [&](std::uint64_t b) {
      const std::uint64_t lo = base + b * g;
      in_s.mark(lo);
      in_s.mark(std::min(base + block, lo + g) - 1);
    });
  };

  ExchangeShape shape;
  shape.chunk_bytes = chunk_bytes;
  shape.sum_words = (ps.summary_bits() + 63) / 64;
  shape.presence_coded = presence_coded;
  shape.decode_words = wpb;
  run_exchange_plan(p, cfg, u, phase, shape, hooks);
  p.trace_instant(obs::kCatEngine, "prog.exchange",
                  obs::kv("chunk_bytes", chunk_bytes) + "," +
                      obs::kv("raw_bytes", raw_chunk_bytes) + "," +
                      obs::kv("coded", presence_coded ? "yes" : "no"));

  for (int q : parts) {
    auto out = ps.out_bits(q);
    std::memset(out.data(), 0, out.size() * 8);
    ps.out_summary(q).bits().reset();
    p.charge(phase, u.stream_pass_ns(wpb));
  }
  p.barrier(world, sim::Phase::stall);  // wipes land before the next level
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
         (rck->val_out.size() != np || rck->values.size() != ps.padded_values())) ||
        rck->scalars.size() != static_cast<std::size_t>(prog.scalar_count()))
      throw std::invalid_argument(
          "run_program: resume checkpoint missing or built for another shape");
  }
  ProgramCheckpoint* xp = opts.export_to;
  const int export_every = std::max(1, opts.export_every);
  if (xp != nullptr) {
    xp->valid = false;
    xp->val_out.assign(static_cast<std::size_t>(c.nranks()), {});
  }

  std::vector<bfs::UnitCosts> costs(static_cast<std::size_t>(c.nranks()));
  for (int r = 0; r < c.nranks(); ++r) {
    const auto& lg = dg.locals[static_cast<std::size_t>(r)];
    bfs::StructSizes sz;
    sz.in_queue_bytes =
        ps.padded_words() * 8 +
        (ps.with_values() ? ps.padded_values() * sizeof(Value) : 0);
    sz.in_summary_bytes = (ps.summary_bits() + 7) / 8;
    sz.owned_bytes = (lg.owned() + 7) / 8 +
                     (ps.with_values() ? lg.owned() * sizeof(Value) : 0);
    sz.td_group_count = std::max<std::uint64_t>(1, lg.td_keys.size());
    costs[static_cast<std::size_t>(r)] = bfs::unit_costs(c, cfg, sz);
  }

  faults::FaultInjector* inj = c.injector();
  if (inj != nullptr && inj->has_crashes() && !inj->checkpointing())
    throw faults::FaultError(
        "run_program: the fault plan schedules rank crashes but "
        "checkpointing is disabled (checkpoint:off); the program could not "
        "be recovered");
  const bool ckpt_on = inj != nullptr && inj->checkpointing();
  // Boundary checkpoints hold each partition's val_out — unlike the wave's
  // seen-only checkpoints, program values are not generally idempotent
  // (PageRank accumulates residuals), so a level re-run needs the values
  // exactly as the boundary left them. Out bits are always zero at a
  // boundary (the exchange wipes them) and need no saving.
  std::vector<std::vector<Value>> ckpt(
      ckpt_on && ps.with_values() ? static_cast<std::size_t>(c.nranks()) : 0);
  std::atomic<int> recoveries{0};

  struct Shared {
    std::vector<int> directions;
    std::vector<std::uint64_t> final_scalars;
    ProgStats last;
    bool converged = false;
    bool aborted = false;
    double abort_ns = 0;
  } shared;

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    rt::Comm& world = c.world();
    std::vector<int> parts{p.rank};
    const std::uint64_t block = ps.block();

    std::vector<std::uint64_t> scalars(
        static_cast<std::size_t>(prog.scalar_count()));

    // The wave's cost-model direction choice, fed by the program's reduced
    // statistics: push ~ frontier-word stream + the frontier's real edges,
    // pull ~ the in-play vertices' adjacency with per-edge frontier probes.
    constexpr double kDenseEarlyBreak = 2.0;
    const double n_d = static_cast<double>(dg.n);
    const double np_d = static_cast<double>(c.nranks());
    const double g_d = static_cast<double>(cfg.summary_granularity);
    const bfs::UnitCosts& u0 = costs[0];
    struct Choice {
      int dir;
      bool use_summary;
    };
    const auto choose = [&](double mf_d, double nf_d, double needy_d,
                            double mu_d) {
      const double density = std::max(nf_d / n_d, 1e-12);
      const double p_empty = std::pow(1.0 - std::min(density, 1.0), g_d);
      const bool use_sum =
          u0.summary_probe_ns < p_empty * u0.inqueue_probe_ns;
      const double per_edge =
          u0.edge_scan_ns +
          (use_sum
               ? u0.summary_probe_ns + (1.0 - p_empty) * u0.inqueue_probe_ns
               : u0.inqueue_probe_ns);
      const double est_scan =
          std::min(mu_d, needy_d * kDenseEarlyBreak / density);
      const double dense_est =
          (n_d / np_d) * u0.word_stream_ns + est_scan / np_d * per_edge;
      const double sparse_est =
          n_d * u0.word_stream_ns + nf_d * u0.group_search_ns +
          mf_d / np_d * (u0.edge_scan_ns + u0.visited_probe_ns);
      return Choice{dense_est < sparse_est ? 1 : 0, use_sum};
    };

    const auto make_ctx = [&](int q) {
      return PartCtx{dg.locals[static_cast<std::size_t>(q)],
                     q,
                     dg.locals[static_cast<std::size_t>(q)].vbegin,
                     block,
                     ps.frontier(p.rank),
                     ps.frontier_summary(p.rank),
                     ps.values(p.rank),
                     ps.out_bits(q),
                     ps.out_summary(q),
                     ps.val_out(q),
                     &ps};
    };

    int recorder = inj != nullptr ? inj->lowest_live() : 0;
    Choice ch{0, false};
    int level = 1;

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
      {
        auto out = ps.out_bits(p.rank);
        std::memset(out.data(), 0, out.size() * 8);
        ps.out_summary(p.rank).bits().reset();
      }
      prog.init_scalars(scalars);
      PartCtx ctx = make_ctx(p.rank);
      ProgStats st = prog.seed(query, ctx);
      p.charge(sim::Phase::other,
               u.stream_pass_ns(ps.padded_words() +
                                (ps.with_values() ? 2 * block : block)));
      p.barrier(world, sim::Phase::other);
      const ProgStats rs = reduce_stats(p, world, st);
      prog_exchange(p, ps, u, parts);
      if (prog.direction_optimizing())
        ch = choose(static_cast<double>(rs.frontier_edges),
                    static_cast<double>(rs.changed),
                    static_cast<double>(rs.needy),
                    static_cast<double>(rs.mu));
    } else {
      // Failover resume: owners reload val_out, each replica writer reloads
      // the checkpointed frontier (bits + values) and rebuilds its summary;
      // the control position and scalars come from the exporter.
      std::copy(rck->scalars.begin(), rck->scalars.end(), scalars.begin());
      level = rck->level;
      ch = Choice{rck->dir, rck->use_summary};
      std::uint64_t words = 0;
      if (ps.with_values()) {
        auto vo = ps.val_out(p.rank);
        const auto& saved = rck->val_out[static_cast<std::size_t>(p.rank)];
        std::memcpy(vo.data(), saved.data(), saved.size() * sizeof(Value));
        words += vo.size();
      }
      {
        auto out = ps.out_bits(p.rank);
        std::memset(out.data(), 0, out.size() * 8);
        ps.out_summary(p.rank).bits().reset();
        words += out.size();
      }
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
    int dir = ch.dir;
    int handled_dead = 0;

    while (true) {
      const double level_t0 = p.clock.now_ns();

      // Replica-outage horizon, checked at clock-aligned points only (see
      // run_wave): every rank observes the abort at the same level.
      if (p.clock.now_ns() >= opts.abort_at_ns) {
        if (p.rank == recorder) {
          shared.aborted = true;
          shared.abort_ns = p.clock.now_ns();
        }
        break;
      }
      if (level > opts.max_levels) break;  // diverged: converged stays false

      // Cross-replica epoch export (the failover unit), strictly before the
      // crash point: an exported epoch always describes a pre-death state.
      if (xp != nullptr && (level - 1) % export_every == 0) {
        for (int q : parts) {
          const auto qi = static_cast<std::size_t>(q);
          if (ps.with_values()) {
            auto vo = ps.val_out(q);
            xp->val_out[qi].assign(vo.begin(), vo.end());
            p.charge(sim::Phase::other, costs[qi].stream_pass_ns(vo.size()));
          }
        }
        if (p.rank == recorder) {
          auto f = ps.frontier(p.rank);
          xp->frontier.assign(f.begin(), f.end());
          if (ps.with_values()) {
            auto v = ps.values(p.rank);
            xp->values.assign(v.begin(), v.end());
          }
          xp->scalars.assign(scalars.begin(), scalars.end());
          xp->level = level;
          xp->dir = dir;
          xp->use_summary = ch.use_summary;
          xp->epoch = opts.epoch;
          xp->valid = true;
          p.charge(sim::Phase::other, u.stream_pass_ns(f.size()));
        }
        p.barrier(world, sim::Phase::stall);
        if (p.rank == recorder)
          p.trace_instant(obs::kCatEngine, "prog.ckpt",
                          obs::kv("level", level));
      }

      // Level boundary: local checkpoint, then die if scheduled.
      if (ckpt_on && ps.with_values())
        for (int q : parts) {
          auto vo = ps.val_out(q);
          ckpt[static_cast<std::size_t>(q)].assign(vo.begin(), vo.end());
          p.charge(sim::Phase::other,
                   costs[static_cast<std::size_t>(q)].stream_pass_ns(
                       vo.size()));
        }
      if (inj != nullptr && inj->crash_level(p.rank) == level - 1) {
        inj->mark_dead(p.rank);
        c.retire_rank(p);
        return;
      }

      ProgStats st;
      st.min_word = kProgInf;
      for (int q : parts) {
        PartCtx ctx = make_ctx(q);
        const ProgStats qs = prog.advance(query, ctx, scalars, level, dir,
                                          ch.use_summary);
        charge_advance(p, costs[static_cast<std::size_t>(q)],
                       dg.locals[static_cast<std::size_t>(q)], ps, qs, dir,
                       ch.use_summary);
        st.add(qs);
        // The owned post-scan (min/needy/mu measurement), charged like the
        // wave's direction-input pass.
        p.charge(sim::Phase::switch_conv,
                 costs[static_cast<std::size_t>(q)].stream_pass_ns(
                     2 * dg.locals[static_cast<std::size_t>(q)].owned()));
      }

      const ProgStats rs = reduce_stats(p, world, st);

      // Crash detection: survivors adopt the dead partitions, roll val_out
      // back to the boundary checkpoint, and re-run the level.
      if (inj != nullptr && inj->dead_count() > handled_dead) {
        handled_dead = inj->dead_count();
        const std::size_t owned_before = parts.size();
        parts = inj->parts_of(p.rank);
        if (parts.size() > owned_before)
          p.prof.counters().adoptions += parts.size() - owned_before;
        for (int q : parts) {
          std::uint64_t words = 0;
          if (ps.with_values()) {
            auto vo = ps.val_out(q);
            const auto& saved = ckpt[static_cast<std::size_t>(q)];
            std::memcpy(vo.data(), saved.data(),
                        saved.size() * sizeof(Value));
            words += vo.size();
          }
          auto out = ps.out_bits(q);
          std::memset(out.data(), 0, out.size() * 8);
          ps.out_summary(q).bits().reset();
          words += out.size();
          p.charge(sim::Phase::other,
                   costs[static_cast<std::size_t>(q)].stream_pass_ns(words));
        }
        if (p.rank == inj->lowest_live())
          recoveries.fetch_add(1, std::memory_order_relaxed);
        p.barrier(world, sim::Phase::stall);
        p.trace_span(obs::kCatEngine, "recovery.rollback", level_t0,
                     p.clock.now_ns(),
                     obs::kv("level", level) + "," +
                         obs::kv("parts", static_cast<int>(parts.size())));
        continue;  // re-run the level; scalars never advanced
      }
      recorder = inj != nullptr ? inj->lowest_live() : 0;

      if (p.clock.now_ns() >= opts.abort_at_ns) {
        if (p.rank == recorder) {
          shared.aborted = true;
          shared.abort_ns = p.clock.now_ns();
        }
        break;
      }

      // Every rank evolves its scalar copy from the identical reduced view.
      const bool conv = prog.post_level(scalars, rs, level);
      if (p.rank == recorder) {
        shared.directions.push_back(dir);
        shared.last = rs;
      }
      p.trace_span(obs::kCatEngine,
                   std::string(prog.name()) + " level " +
                       std::to_string(level),
                   level_t0, p.clock.now_ns(),
                   obs::kv("dir", dir == 1 ? "pull" : "push") + "," +
                       obs::kv("changed", rs.changed));
      if (conv) {
        if (p.rank == recorder) {
          shared.converged = true;
          shared.final_scalars.assign(scalars.begin(), scalars.end());
        }
        break;
      }

      prog_exchange(p, ps, u, parts);

      if (prog.direction_optimizing()) {
        ch = choose(static_cast<double>(rs.frontier_edges),
                    static_cast<double>(rs.changed),
                    static_cast<double>(rs.needy),
                    static_cast<double>(rs.mu));
        dir = ch.dir;
      }
      ++level;
    }

    p.barrier(world, sim::Phase::stall);
  });

  ProgramResult out;
  out.epoch = opts.epoch;
  const auto& profiles = c.profiles();
  double max_total = 0;
  sim::PhaseProfile sum;
  for (const auto& pr : profiles) {
    max_total = std::max(max_total, pr.total_ns());
    sum += pr;
  }
  out.total_ns = max_total;
  out.profile_avg = sum.scaled(1.0 / static_cast<double>(profiles.size()));
  out.profile_avg.counters() = sum.counters();
  out.levels = static_cast<int>(shared.directions.size());
  for (int d : shared.directions) (d == 0 ? out.td_levels : out.bu_levels)++;
  out.converged = shared.converged;
  out.last = shared.last;
  out.recoveries = recoveries.load(std::memory_order_relaxed);
  out.ranks_lost = inj != nullptr ? inj->dead_count() : 0;
  out.aborted = shared.aborted;
  out.abort_ns = shared.abort_ns;
  out.value = prog.final_value(query, dg, ps, shared.last);
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
