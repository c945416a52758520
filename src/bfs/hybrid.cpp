#include "bfs/hybrid.hpp"

#include <array>
#include <cstring>

#include "bfs/exchange.hpp"
#include "bfs/kernels.hpp"
#include "obs/trace.hpp"

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

  // Host-side per-rank, per-level measurements (no virtual-time impact):
  // the rank's counters and phase times at the level's kernel start and at
  // its close.
  struct Snapshot {
    std::uint64_t edges, skips, probes, wire, wire_raw;
    double comp_ns, comm_ns;
  };
  std::vector<std::vector<std::array<Snapshot, 2>>> rank_levels(
      static_cast<size_t>(c.nranks()));
  std::vector<int> ex_codec;  // codec of the exchange after each level

  BeamerLoop loop(c, "run_bfs", cfg, dg.n);
  // Indexed by partition; ckpt[q] is written by q's current owner only, and
  // crash detection is barrier-ordered, so adoption hand-off is race-free.
  std::vector<PartCheckpoint> ckpt(
      loop.checkpointing() ? static_cast<size_t>(c.nranks()) : 0);

  c.run([&](rt::Proc& p) {
    const UnitCosts& u = costs[static_cast<size_t>(p.rank)];
    const auto& lg = dg.locals[static_cast<size_t>(p.rank)];
    const auto snapshot = [&] {
      const auto& cnt = p.prof.counters();
      return Snapshot{cnt.edges_scanned,
                      cnt.summary_zero_skips,
                      cnt.summary_probes,
                      cnt.bytes_intra_node + cnt.bytes_inter_node,
                      cnt.bytes_raw_equiv,
                      p.prof.get(sim::Phase::td_comp) +
                          p.prof.get(sim::Phase::bu_comp),
                      p.prof.comm_ns()};
    };
    Snapshot at_kernel{};

    LevelSteps s;
    s.save = [&](int q) {
      PartCheckpoint& ck = ckpt[static_cast<size_t>(q)];
      auto vw = st.visited(q).words();
      ck.visited.assign(vw.begin(), vw.end());
      auto pr = st.pred(q);
      ck.pred.assign(pr.begin(), pr.end());
      ck.unvisited_edges = st.unvisited_edges(q);
      p.charge(sim::Phase::other,
               costs[static_cast<size_t>(q)].stream_pass_ns(ckpt_words(st, q)));
    };
    s.restore = [&](int q) {
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
    s.kernels = [&](int dir, int level, std::span<const int> parts) {
      at_kernel = snapshot();
      LevelCounts my;
      const double kernel_t0 = p.clock.now_ns();
      for (int q : parts) {
        const auto& qlg = dg.locals[static_cast<size_t>(q)];
        const UnitCosts& qu = costs[static_cast<size_t>(q)];
        const LevelResult qr = dir == 0 ? top_down_level(p, qlg, qu, st, q)
                                        : bottom_up_level(p, qlg, qu, st, q);
        my.discovered += qr.discovered;
        my.discovered_edges += qr.discovered_edges;
        my.unvisited_edges += st.unvisited_edges(q);
      }
      p.trace_span(obs::kCatBfs, dir == 0 ? "td_kernel" : "bu_kernel",
                   kernel_t0, p.clock.now_ns(),
                   obs::kv("level", level) + "," +
                       obs::kv("discovered", my.discovered));
      return my;
    };
    // The bitmap allgathers belong to the bottom-up procedure (Fig. 1);
    // the sparse list exchange is the top-down queue handoff.
    s.exchange = [&](int dir, int next, std::span<const int> parts) {
      return exchange_level(p, dg, st, u, dir, next, parts);
    };
    s.close = [&](bool recorder, const ExchangeLevelStats* ex) {
      if (recorder) {
        if (ex != nullptr) (ex->bitmap ? out.bu_exchanges : out.td_exchanges)++;
        ex_codec.push_back(ex != nullptr ? static_cast<int>(ex->codec) : -1);
      }
      rank_levels[static_cast<size_t>(p.rank)].push_back(
          {at_kernel, snapshot()});
    };

    reset_state(p, dg, st, root, u);
    const bool root_owned = root >= lg.vbegin && root < lg.vend;
    loop.run(p, root_owned ? lg.degree(root - lg.vbegin) : 0,
             st.unvisited_edges(p.rank), s);
  });

  loop.finish(out);
  // Assemble the per-level trace from the host-side rank records.
  out.trace = loop.trace<LevelTrace>();
  for (size_t lvl = 0; lvl < out.trace.size(); ++lvl) {
    LevelTrace& t = out.trace[lvl];
    t.exchange_codec = ex_codec[lvl];
    for (const auto& rl : rank_levels) {
      if (lvl >= rl.size()) continue;
      const auto& [a, b] = rl[lvl];
      t.edges_scanned += b.edges - a.edges;
      t.summary_zero_skips += b.skips - a.skips;
      t.summary_probes += b.probes - a.probes;
      t.wire_bytes += b.wire - a.wire;
      t.wire_raw_bytes += b.wire_raw - a.wire_raw;
      t.comp_ns += b.comp_ns - a.comp_ns;
      t.comm_ns += b.comm_ns - a.comm_ns;
    }
    t.comp_ns /= static_cast<double>(c.nranks());
    t.comm_ns /= static_cast<double>(c.nranks());
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
