#include "bfs/hybrid.hpp"

#include <cstring>

#include "bfs/exchange.hpp"
#include "bfs/kernels.hpp"
#include "faults/recovery.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::bfs {

namespace {

/// Per-root reset: wipe visited/pred/queues and seed the root.
/// Charged to Phase::other (root setup is excluded from the paper's
/// breakdown but must not be free).
void reset_state(rt::Proc& p, const graph::DistGraph& dg, DistState& st,
                 graph::Vertex root, const UnitCosts& u) {
  rt::Cluster& c = *p.cluster;
  const auto& lg = dg.locals[static_cast<size_t>(p.rank)];
  const std::uint64_t block_words = dg.part.block() / 64;
  const std::uint64_t padded_words = st.padded_bits() / 64;

  st.visited(p.rank).reset();
  auto pred = st.pred(p.rank);
  std::fill(pred.begin(), pred.end(), graph::kNoVertex);
  st.unvisited_edges(p.rank) = lg.owned_edges();

  // out structures: only our own chunk can carry stale bits.
  {
    auto out_q = st.out_queue(p.rank);
    std::memset(out_q.words().data() +
                    static_cast<std::uint64_t>(p.rank) * block_words,
                0, block_words * 8);
    auto sw = st.out_summary(p.rank).bits().words();
    if (!st.shared_out()) {
      std::memset(sw.data(), 0, sw.size() * 8);
    } else {
      const std::size_t lo = sw.size() * static_cast<std::size_t>(p.local) /
                             static_cast<std::size_t>(p.ppn);
      const std::size_t hi =
          sw.size() * static_cast<std::size_t>(p.local + 1) /
          static_cast<std::size_t>(p.ppn);
      std::memset(sw.data() + lo, 0, (hi - lo) * 8);
    }
  }

  // in structures: one writer per copy.
  auto in_q = st.in_queue(p.rank);
  auto in_s = st.in_summary(p.rank);
  if (!st.shared_in() || p.is_node_leader()) {
    in_q.reset();
    auto sw = in_s.bits().words();
    std::memset(sw.data(), 0, sw.size() * 8);
    in_q.set(root);
    in_s.mark(root);
  }

  // Root bookkeeping at the owner; every rank seeds its frontier list.
  auto& frontier = st.frontier(p.rank);
  frontier.clear();
  frontier.push_back(root);
  st.discovered(p.rank).clear();
  if (root >= lg.vbegin && root < lg.vend) {
    const std::uint64_t lv = root - lg.vbegin;
    st.visited(p.rank).set(lv);
    pred[lv] = root;
    st.unvisited_edges(p.rank) -= lg.degree(lv);
  }

  p.charge(sim::Phase::other, u.stream_pass_ns(2 * padded_words + block_words));
  p.barrier(c.world(), sim::Phase::other);
}

/// Level-boundary checkpoint of one partition's mutable traversal state.
/// (The frontier inputs need no checkpoint: a crash happens at a level
/// start, after the exchange rebuilt them on every survivor.)
struct PartCheckpoint {
  std::vector<std::uint64_t> visited;
  std::vector<graph::Vertex> pred;
  std::uint64_t unvisited_edges = 0;
};

/// Words streamed by one checkpoint save/restore of partition `part`.
std::uint64_t ckpt_words(DistState& st, int part) {
  return st.visited(part).words().size() +
         st.pred(part).size() * sizeof(graph::Vertex) / 8;
}

}  // namespace

BfsRunResult run_bfs(rt::Cluster& c, const graph::DistGraph& dg, DistState& st,
                     graph::Vertex root) {
  const Config& cfg = st.config();
  BfsRunResult out;

  const std::vector<UnitCosts> costs = partition_costs(
      c, dg, cfg, st.padded_bits() / 8, (st.summary_bits() + 7) / 8,
      [](std::uint64_t owned) {
        return owned / 8 + owned * sizeof(graph::Vertex);
      });

  struct Shared {
    std::vector<int> directions;
    int td_ex = 0, bu_ex = 0;
    std::uint64_t visited = 1;  // root
    std::vector<std::uint64_t> frontier_sizes;  // per level (input frontier)
    std::vector<std::uint64_t> discovered;      // per level
    std::vector<int> ex_codec;  // codec of the exchange after each level
  } shared;

  // Host-side per-rank, per-level measurements (no virtual-time impact).
  struct RankLevel {
    std::uint64_t edges = 0, skips = 0, probes = 0;
    std::uint64_t wire = 0, wire_raw = 0;
    double comp_ns = 0, comm_ns = 0;
  };
  std::vector<std::vector<RankLevel>> rank_levels(
      static_cast<size_t>(c.nranks()));

  faults::LevelRecovery recovery(c, "run_bfs", "traversal");
  // Indexed by partition; ckpt[q] is written by q's current owner only, and
  // crash detection is barrier-ordered, so adoption hand-off is race-free.
  std::vector<PartCheckpoint> ckpt(
      recovery.checkpointing() ? static_cast<size_t>(c.nranks()) : 0);

  c.run([&](rt::Proc& p) {
    const UnitCosts& u = costs[static_cast<size_t>(p.rank)];
    rt::Comm& world = c.world();
    const auto& lg = dg.locals[static_cast<size_t>(p.rank)];

    OneDExchange exchanger(dg, st, u);
    faults::LevelRecovery::Rank rec(recovery, p);
    const auto save = [&](int q) {
      PartCheckpoint& ck = ckpt[static_cast<size_t>(q)];
      auto vw = st.visited(q).words();
      ck.visited.assign(vw.begin(), vw.end());
      auto pr = st.pred(q);
      ck.pred.assign(pr.begin(), pr.end());
      ck.unvisited_edges = st.unvisited_edges(q);
      p.charge(sim::Phase::other,
               costs[static_cast<size_t>(q)].stream_pass_ns(ckpt_words(st, q)));
    };
    const auto restore = [&](int q) {
      const PartCheckpoint& ck = ckpt[static_cast<size_t>(q)];
      std::memcpy(st.visited(q).words().data(), ck.visited.data(),
                  ck.visited.size() * 8);
      std::memcpy(st.pred(q).data(), ck.pred.data(),
                  ck.pred.size() * sizeof(graph::Vertex));
      st.unvisited_edges(q) = ck.unvisited_edges;
      st.discovered(q).clear();
      p.charge(sim::Phase::other,
               costs[static_cast<size_t>(q)].stream_pass_ns(ckpt_words(st, q)));
    };

    reset_state(p, dg, st, root, u);

    const std::uint64_t n = dg.n;
    const bool root_owned = root >= lg.vbegin && root < lg.vend;
    std::uint64_t root_deg = root_owned ? lg.degree(root - lg.vbegin) : 0;
    // Frontier stats of "level -1": the root alone.
    std::uint64_t frontier_edges =
        rt::allreduce_sum(p, world, root_deg, sim::Phase::stall);

    int dir = cfg.direction == Direction::bottom_up_only ? 1 : 0;
    // The very first level profits from knowing the root's degree.
    if (cfg.direction == Direction::hybrid) {
      const std::uint64_t rem = rt::allreduce_sum(
          p, world, st.unvisited_edges(p.rank), sim::Phase::stall);
      if (static_cast<double>(frontier_edges) >
          static_cast<double>(rem) / cfg.alpha)
        dir = 1;
    }

    std::uint64_t prev_nf = 1;  // the root seeds level 0's frontier
    int level = 0;
    for (;;) {
      const double level_t0 = p.clock.now_ns();
      if (rec.crash_point(level, save)) return;

      const auto& cnt0 = p.prof.counters();
      const std::uint64_t edges0 = cnt0.edges_scanned;
      const std::uint64_t skips0 = cnt0.summary_zero_skips;
      const std::uint64_t probes0 = cnt0.summary_probes;
      const std::uint64_t wire0 = cnt0.bytes_intra_node + cnt0.bytes_inter_node;
      const std::uint64_t raw0 = cnt0.bytes_raw_equiv;
      const double comp0 = p.prof.get(sim::Phase::td_comp) +
                           p.prof.get(sim::Phase::bu_comp);
      const double comm0 = p.prof.comm_ns();

      LevelResult lr;
      std::uint64_t my_rem = 0;
      const double kernel_t0 = p.clock.now_ns();
      for (int q : rec.parts()) {
        const auto& qlg = dg.locals[static_cast<size_t>(q)];
        const UnitCosts& qu = costs[static_cast<size_t>(q)];
        const LevelResult qr = dir == 0 ? top_down_level(p, qlg, qu, st, q)
                                        : bottom_up_level(p, qlg, qu, st, q);
        lr.discovered += qr.discovered;
        lr.discovered_edges += qr.discovered_edges;
        my_rem += st.unvisited_edges(q);
      }
      p.trace_span(obs::kCatBfs, dir == 0 ? "td_kernel" : "bu_kernel",
                   kernel_t0, p.clock.now_ns(),
                   obs::kv("level", level) + "," +
                       obs::kv("discovered", lr.discovered));

      const std::uint64_t nf =
          rt::allreduce_sum(p, world, lr.discovered, sim::Phase::stall);
      const std::uint64_t mf = rt::allreduce_sum(p, world, lr.discovered_edges,
                                                 sim::Phase::stall);
      const std::uint64_t rem =
          rt::allreduce_sum(p, world, my_rem, sim::Phase::stall);

      // Crash detection point: a rank dies at the start of a level, before
      // contributing to its kernels or reductions, whose barriers give
      // every survivor a consistent view of the death.
      const double rb_t0 = p.clock.now_ns();
      if (rec.recovered(restore)) {
        p.trace_span(obs::kCatBfs, "recovery.rollback", rb_t0,
                     p.clock.now_ns(),
                     obs::kv("level", level) + "," +
                         obs::kv("parts",
                                 static_cast<int>(rec.parts().size())));
        continue;  // re-run the level (level/dir/prev_nf unchanged)
      }

      const int recorder = rec.recorder();
      if (p.rank == recorder) {
        shared.directions.push_back(dir);
        shared.visited += nf;
        shared.frontier_sizes.push_back(prev_nf);
        shared.discovered.push_back(nf);
      }
      const std::uint64_t frontier_prev_count = prev_nf;
      prev_nf = nf;

      const auto record_level = [&] {
        const auto& cnt1 = p.prof.counters();
        RankLevel rl;
        rl.edges = cnt1.edges_scanned - edges0;
        rl.skips = cnt1.summary_zero_skips - skips0;
        rl.probes = cnt1.summary_probes - probes0;
        rl.wire = cnt1.bytes_intra_node + cnt1.bytes_inter_node - wire0;
        rl.wire_raw = cnt1.bytes_raw_equiv - raw0;
        rl.comp_ns = p.prof.get(sim::Phase::td_comp) +
                     p.prof.get(sim::Phase::bu_comp) - comp0;
        rl.comm_ns = p.prof.comm_ns() - comm0;
        rank_levels[static_cast<size_t>(p.rank)].push_back(rl);
      };
      if (nf == 0) {
        if (p.rank == recorder) shared.ex_codec.push_back(-1);  // no exchange
        record_level();
        p.trace_span(obs::kCatBfs, "level " + std::to_string(level), level_t0,
                     p.clock.now_ns(),
                     obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                         obs::kv("discovered", nf));
        break;
      }

      // Decide the next level's direction first: it selects the exchange.
      // td -> bu additionally requires a *growing* frontier (Beamer): at
      // the tail the remaining-edge denominator collapses and the ratio
      // test alone would bounce back into bottom-up for a dying frontier.
      const bool growing = nf > frontier_prev_count;
      int next = dir;
      if (cfg.direction == Direction::hybrid) {
        if (dir == 0 && growing &&
            static_cast<double>(mf) > static_cast<double>(rem) / cfg.alpha)
          next = 1;
        else if (dir == 1 &&
                 static_cast<double>(nf) < static_cast<double>(n) / cfg.beta)
          next = 0;
      }

      // The bitmap allgathers belong to the bottom-up procedure (Fig. 1);
      // the sparse list exchange is the top-down queue handoff. Both sit
      // behind the unified FrontierExchange interface (DESIGN.md §13).
      const ExchangeLevelStats ex =
          exchanger.exchange(p, dir, next, rec.parts());
      p.trace_instant(obs::kCatBfs, "codec.gate",
                      obs::kv("level", level) + "," +
                          obs::kv("kind", graph::codec::to_string(ex.codec)) +
                          "," + obs::kv("wire_bytes", ex.wire_bytes) + "," +
                          obs::kv("raw_bytes", ex.raw_bytes));
      if (p.rank == recorder) {
        (ex.bitmap ? shared.bu_ex : shared.td_ex)++;
        shared.ex_codec.push_back(static_cast<int>(ex.codec));
      }
      record_level();
      p.trace_span(obs::kCatBfs, "level " + std::to_string(level), level_t0,
                   p.clock.now_ns(),
                   obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                       obs::kv("discovered", nf));
      dir = next;
      ++level;
    }

    p.barrier(world, sim::Phase::stall);
  });

  // Aggregate.
  const sim::RunProfile prof = sim::aggregate(c.profiles());
  out.time_ns = prof.max_total_ns;
  out.visited = shared.visited;
  out.directions = shared.directions;
  out.tally(shared.directions, recovery, prof);
  out.td_exchanges = shared.td_ex;
  out.bu_exchanges = shared.bu_ex;
  out.profile_max = prof.max;

  std::uint64_t traversed = 0;
  for (int r = 0; r < c.nranks(); ++r)
    traversed += dg.locals[static_cast<size_t>(r)].owned_edges() -
                 st.unvisited_edges(r);
  out.traversed_directed_edges = traversed;

  // Assemble the per-level trace from the host-side rank records.
  out.trace.reserve(shared.directions.size());
  for (size_t lvl = 0; lvl < shared.directions.size(); ++lvl) {
    LevelTrace t;
    t.level = static_cast<int>(lvl);
    t.direction = shared.directions[lvl];
    t.frontier_vertices = shared.frontier_sizes[lvl];
    t.discovered = shared.discovered[lvl];
    if (lvl < shared.ex_codec.size()) t.exchange_codec = shared.ex_codec[lvl];
    for (const auto& rl : rank_levels) {
      if (lvl >= rl.size()) continue;
      t.edges_scanned += rl[lvl].edges;
      t.summary_zero_skips += rl[lvl].skips;
      t.summary_probes += rl[lvl].probes;
      t.wire_bytes += rl[lvl].wire;
      t.wire_raw_bytes += rl[lvl].wire_raw;
      t.comp_ns += rl[lvl].comp_ns;
      t.comm_ns += rl[lvl].comm_ns;
    }
    t.comp_ns /= static_cast<double>(c.nranks());
    t.comm_ns /= static_cast<double>(c.nranks());
    out.trace.push_back(t);
  }
  return out;
}

std::vector<graph::Vertex> gather_parents(const graph::DistGraph& dg,
                                          DistState& st) {
  std::vector<graph::Vertex> parent(dg.n, graph::kNoVertex);
  for (int r = 0; r < dg.part.np(); ++r) {
    const auto pred = st.pred(r);
    const std::uint64_t vb = dg.part.begin(r);
    for (std::size_t i = 0; i < pred.size(); ++i) parent[vb + i] = pred[i];
  }
  return parent;
}

}  // namespace numabfs::bfs
