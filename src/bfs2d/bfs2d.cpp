#include "bfs2d/bfs2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bfs2d/exchange2d.hpp"
#include "faults/recovery.hpp"
#include "graph/bitmap.hpp"
#include "obs/trace.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::bfs2d {

Grid2d::Grid2d(std::uint64_t n, int rows, int cols)
    : n_(n), rows_(rows), cols_(cols) {
  if (rows < 1 || cols < 1)
    throw std::invalid_argument("Grid2d: rows and cols must be positive");
  // Pad so every piece is whole 64-bit words (codec chunks, memcpy slots).
  const std::uint64_t quantum =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) * 64;
  padded_ = (std::max<std::uint64_t>(n, 1) + quantum - 1) / quantum * quantum;
}

Grid2d Grid2d::make(std::uint64_t n, int np, int ppn) {
  if (np < 1 || ppn < 1)
    throw std::invalid_argument("Grid2d::make: np and ppn must be positive");
  int best_c = -1;
  for (int cand = ppn; cand <= np; cand += ppn) {
    if (np % cand != 0) continue;
    if (best_c < 0) {
      best_c = cand;
      continue;
    }
    const int d_best = std::abs(np / best_c - best_c);
    const int d_cand = std::abs(np / cand - cand);
    // Most-square grid; ties go to the wider one (more columns keeps the
    // row collectives node-local at higher ppn).
    if (d_cand < d_best || (d_cand == d_best && cand > best_c)) best_c = cand;
  }
  if (best_c < 0) {
    // np is not a multiple of ppn, so no divisor of np can be either.
    const int lo = np / ppn * ppn;
    const int hi = lo + ppn;
    std::string msg = "Grid2d::make: np=" + std::to_string(np) + " with ppn=" +
                      std::to_string(ppn) +
                      " admits no R x C grid whose column count ppn divides; "
                      "nearest valid np: ";
    msg += lo >= ppn ? std::to_string(lo) + " or " + std::to_string(hi)
                     : std::to_string(hi);
    throw std::invalid_argument(msg);
  }
  return Grid2d(n, np / best_c, best_c);
}

DistGraph2d DistGraph2d::build(const graph::Csr& g, const Grid2d& grid) {
  DistGraph2d dg{grid, g.num_directed_edges(), {}, {}, {}};
  const int np = grid.np();
  const std::uint64_t piece = grid.piece_bits();
  const std::uint64_t band = grid.band_bits();
  const std::uint64_t cband = grid.colband_bits();
  const std::uint64_t n = std::min<std::uint64_t>(g.num_vertices(), grid.n());

  dg.piece_deg.assign(static_cast<std::size_t>(np),
                      std::vector<std::uint64_t>(piece, 0));
  dg.owned_edges.assign(static_cast<std::size_t>(np), 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    const int r = grid.owner(v);
    const std::uint64_t d = g.degree(static_cast<graph::Vertex>(v));
    dg.piece_deg[static_cast<std::size_t>(r)][v - grid.piece_begin(r)] = d;
    dg.owned_edges[static_cast<std::size_t>(r)] += d;
  }

  // Single O(E) pass: bucket each directed entry (u -> v) into the block of
  // (row of v, column of u). The CSR is symmetric, so both scan orientations
  // below see every undirected edge.
  std::vector<std::vector<graph::Edge>> buckets(static_cast<std::size_t>(np));
  for (std::uint64_t v = 0; v < n; ++v) {
    const int i = static_cast<int>(v / band);
    for (graph::Vertex u : g.neighbors(static_cast<graph::Vertex>(v))) {
      const int j = static_cast<int>(u / cband);
      buckets[static_cast<std::size_t>(grid.rank_at(i, j))].push_back(
          {u, static_cast<graph::Vertex>(v)});
    }
  }

  dg.blocks.resize(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    auto& pairs = buckets[static_cast<std::size_t>(r)];
    Block2d& blk = dg.blocks[static_cast<std::size_t>(r)];
    // Top-down orientation: grouped by source u.
    std::sort(pairs.begin(), pairs.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                return a.u != b.u ? a.u < b.u : a.v < b.v;
              });
    blk.targets.reserve(pairs.size());
    for (const auto& e : pairs) {
      if (blk.keys.empty() || blk.keys.back() != e.u) {
        blk.keys.push_back(e.u);
        blk.offsets.push_back(blk.targets.size());
      }
      blk.targets.push_back(e.v);
    }
    blk.offsets.push_back(blk.targets.size());
    // Bottom-up orientation: grouped by target v.
    std::sort(pairs.begin(), pairs.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                return a.v != b.v ? a.v < b.v : a.u < b.u;
              });
    blk.bu_sources.reserve(pairs.size());
    for (const auto& e : pairs) {
      if (blk.bu_keys.empty() || blk.bu_keys.back() != e.v) {
        blk.bu_keys.push_back(e.v);
        blk.bu_offsets.push_back(blk.bu_sources.size());
      }
      blk.bu_sources.push_back(e.u);
    }
    blk.bu_offsets.push_back(blk.bu_sources.size());
    pairs.clear();
    pairs.shrink_to_fit();
  }
  return dg;
}

namespace {

/// Top-down scan of partition q's block: walk the assembled col-band
/// frontier, binary-search each vertex among the block's source groups and
/// emit (child, parent) claims into the row outboxes.
void scan_td(rt::Proc& p, const DistGraph2d& dg, State2d& st,
             const bfs::UnitCosts& u, int q) {
  const Grid2d& g = dg.grid;
  const Block2d& blk = dg.blocks[static_cast<std::size_t>(q)];
  const std::uint64_t cb0 = g.colband_begin(g.col_of(q));
  const auto cb = st.colband[static_cast<std::size_t>(q)].view();
  auto& oc = st.out_children[static_cast<std::size_t>(q)];
  auto& op = st.out_parents[static_cast<std::size_t>(q)];
  std::uint64_t searches = 0, scans = 0, writes = 0;
  cb.for_each_set([&](std::uint64_t bit) {
    const auto uvtx = static_cast<graph::Vertex>(cb0 + bit);
    ++searches;
    const auto it = std::lower_bound(blk.keys.begin(), blk.keys.end(), uvtx);
    if (it == blk.keys.end() || *it != uvtx) return;
    const auto idx = static_cast<std::size_t>(it - blk.keys.begin());
    for (std::uint64_t e = blk.offsets[idx]; e < blk.offsets[idx + 1]; ++e) {
      const graph::Vertex v = blk.targets[e];
      ++scans;
      const auto dk = static_cast<std::size_t>(g.col_of(g.owner(v)));
      oc[dk].push_back(v);
      op[dk].push_back(uvtx);
      ++writes;
    }
  });
  p.prof.counters().edges_scanned += scans;
  p.prof.counters().queue_writes += writes;
  p.charge(sim::Phase::td_comp,
           u.stream_pass_ns(g.colband_bits() / 64) +
               (static_cast<double>(searches) * u.group_search_ns +
                static_cast<double>(scans) * u.edge_scan_ns +
                static_cast<double>(writes) * u.write_ns) /
                   u.omp_div);
}

/// Bottom-up scan: walk the block's targets skipping settled ones via the
/// row-band visited replica, probe the col-band frontier through its
/// summary, claim the first live parent.
void scan_bu(rt::Proc& p, const DistGraph2d& dg, State2d& st,
             const bfs::UnitCosts& u, int q) {
  const Grid2d& g = dg.grid;
  const Block2d& blk = dg.blocks[static_cast<std::size_t>(q)];
  const std::uint64_t band0 = g.band_begin(g.row_of(q));
  const std::uint64_t cb0 = g.colband_begin(g.col_of(q));
  const auto rv = st.row_visited[static_cast<std::size_t>(q)].view();
  const auto cb = st.colband[static_cast<std::size_t>(q)].view();
  const auto sum = st.colband_summary[static_cast<std::size_t>(q)].view();
  auto& oc = st.out_children[static_cast<std::size_t>(q)];
  auto& op = st.out_parents[static_cast<std::size_t>(q)];
  std::uint64_t vprobes = 0, sprobes = 0, qprobes = 0, zskips = 0;
  std::uint64_t scans = 0, hits = 0, writes = 0;
  for (std::size_t idx = 0; idx < blk.bu_keys.size(); ++idx) {
    const graph::Vertex v = blk.bu_keys[idx];
    ++vprobes;
    if (rv.get(v - band0)) continue;  // settled (row-band replica current)
    for (std::uint64_t e = blk.bu_offsets[idx]; e < blk.bu_offsets[idx + 1];
         ++e) {
      const graph::Vertex uvtx = blk.bu_sources[e];
      const std::uint64_t off = uvtx - cb0;
      ++scans;
      ++sprobes;
      if (!sum.covers(off)) {
        ++zskips;
        continue;
      }
      ++qprobes;
      if (cb.get(off)) {
        ++hits;
        const auto dk = static_cast<std::size_t>(g.col_of(g.owner(v)));
        oc[dk].push_back(v);
        op[dk].push_back(uvtx);
        ++writes;
        break;  // first live parent wins; stop scanning v's sources
      }
    }
  }
  auto& cnt = p.prof.counters();
  cnt.summary_probes += sprobes;
  cnt.summary_zero_skips += zskips;
  cnt.inqueue_probes += qprobes;
  cnt.frontier_hits += hits;
  cnt.edges_scanned += scans;
  cnt.queue_writes += writes;
  p.charge(sim::Phase::bu_comp,
           (static_cast<double>(vprobes) * u.visited_probe_ns +
            static_cast<double>(sprobes) * u.summary_probe_ns +
            static_cast<double>(qprobes) * u.inqueue_probe_ns +
            static_cast<double>(scans) * u.edge_scan_ns +
            static_cast<double>(writes) * u.write_ns) /
               u.omp_div);
}

/// Level-boundary checkpoint of one partition: everything the level loop
/// mutates, *including* the frontier piece — unlike the 1-D, the col-band
/// inputs are rebuilt from the frontier pieces on recovery, so the pieces
/// must roll back too (the 1-D's exchange had already replicated them
/// everywhere, so only the adopted rank's view mattered).
struct Ckpt2d {
  std::vector<std::uint64_t> visited;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> row_visited;
  std::vector<graph::Vertex> pred;
  std::uint64_t unvisited_edges = 0;
};

std::uint64_t ckpt_words(const Grid2d& g) {
  return 2 * (g.piece_bits() / 64) + g.band_bits() / 64 +
         g.piece_bits() * sizeof(graph::Vertex) / 8;
}

}  // namespace

std::string Bfs2dOptions::validate() const {
  if (summary_granularity < 1) return "summary_granularity must be >= 1";
  if (alpha <= 0.0 || beta <= 0.0) return "alpha/beta must be positive";
  if (exchange_chunks < 1 || exchange_chunks > 4096)
    return "exchange_chunks must be in [1, 4096]";
  if (exchange_chunks > 1 && codec == bfs::CodecMode::off)
    return "exchange_chunks > 1 requires an active codec: the raw exchange "
           "has no decode stage to overlap (set codec=gate or "
           "exchange_chunks=1)";
  return {};
}

Bfs2dResult run_bfs_2d(rt::Cluster& c, const DistGraph2d& dg,
                       graph::Vertex root,
                       std::vector<graph::Vertex>* parent_out,
                       const Bfs2dOptions& opt) {
  const Grid2d& g = dg.grid;
  if (c.nranks() != g.np())
    throw std::invalid_argument(
        "run_bfs_2d: cluster has " + std::to_string(c.nranks()) +
        " ranks but the grid is " + std::to_string(g.rows()) + "x" +
        std::to_string(g.cols()));
  if (g.cols() % c.ppn() != 0)
    throw std::invalid_argument(
        "run_bfs_2d: ppn=" + std::to_string(c.ppn()) +
        " must divide the grid's column count C=" + std::to_string(g.cols()) +
        " so processor rows span whole nodes");
  if (root >= g.n())
    throw std::invalid_argument("run_bfs_2d: root out of range");
  if (const std::string err = opt.validate(); !err.empty())
    throw std::invalid_argument("run_bfs_2d: " + err);

  const int np = g.np();
  std::vector<bfs::UnitCosts> costs(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    bfs::StructSizes sz;
    sz.in_queue_bytes = g.colband_bits() / 8;
    sz.in_summary_bytes = (g.colband_bits() / opt.summary_granularity + 7) / 8;
    sz.owned_bytes = g.piece_bits() / 8 +
                     g.piece_bits() * sizeof(graph::Vertex) +
                     g.band_bits() / 8;
    sz.td_group_count = std::max<std::uint64_t>(
        1, dg.blocks[static_cast<std::size_t>(r)].keys.size());
    bfs::Config ccfg;
    ccfg.summary_granularity = opt.summary_granularity;
    costs[static_cast<std::size_t>(r)] = bfs::unit_costs(c, ccfg, sz);
  }

  State2d st(dg, opt.summary_granularity);

  struct Shared {
    std::vector<int> directions;
    std::uint64_t visited = 1;  // root
    std::vector<std::uint64_t> frontier_sizes;
    std::vector<std::uint64_t> discovered;
    std::vector<int> expand_codec;
    std::vector<char> fold_coded;
    double expand_ns_sum = 0;
    double fold_ns_sum = 0;
  } shared;
  std::vector<std::vector<LegBytes>> rank_levels(static_cast<std::size_t>(np));

  faults::LevelRecovery recovery(c, "run_bfs_2d", "traversal");
  std::vector<Ckpt2d> ckpt(
      recovery.checkpointing() ? static_cast<std::size_t>(np) : 0);

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    rt::Comm& world = c.world();
    TwoDExchange ex(dg, st, costs, opt);
    faults::LevelRecovery::Rank rec(recovery, p);
    const auto save = [&](int q) {
      const auto s = static_cast<std::size_t>(q);
      Ckpt2d& ck = ckpt[s];
      auto vw = st.visited[s].view().words();
      ck.visited.assign(vw.begin(), vw.end());
      auto fw = st.frontier[s].view().words();
      ck.frontier.assign(fw.begin(), fw.end());
      auto rw = st.row_visited[s].view().words();
      ck.row_visited.assign(rw.begin(), rw.end());
      ck.pred = st.pred[s];
      ck.unvisited_edges = st.unvisited_edges[s];
      p.charge(sim::Phase::other, costs[s].stream_pass_ns(ckpt_words(g)));
    };
    const auto restore = [&](int q) {
      const auto s = static_cast<std::size_t>(q);
      const Ckpt2d& ck = ckpt[s];
      std::memcpy(st.visited[s].view().words().data(), ck.visited.data(),
                  ck.visited.size() * 8);
      std::memcpy(st.frontier[s].view().words().data(), ck.frontier.data(),
                  ck.frontier.size() * 8);
      std::memcpy(st.row_visited[s].view().words().data(),
                  ck.row_visited.data(), ck.row_visited.size() * 8);
      st.pred[s] = ck.pred;
      st.unvisited_edges[s] = ck.unvisited_edges;
      st.next[s].view().reset();
      for (auto& box : st.out_children[s]) box.clear();
      for (auto& box : st.out_parents[s]) box.clear();
      p.charge(sim::Phase::other, costs[s].stream_pass_ns(ckpt_words(g)));
    };

    // --- per-root reset (Phase::other, like the 1-D) --------------------
    {
      const auto s = static_cast<std::size_t>(p.rank);
      st.frontier[s].view().reset();
      st.next[s].view().reset();
      st.visited[s].view().reset();
      st.colband[s].view().reset();
      st.row_visited[s].view().reset();
      std::fill(st.pred[s].begin(), st.pred[s].end(), graph::kNoVertex);
      st.unvisited_edges[s] = dg.owned_edges[s];
      for (auto& box : st.out_children[s]) box.clear();
      for (auto& box : st.out_parents[s]) box.clear();
      const int owner = g.owner(root);
      if (owner == p.rank) {
        const std::uint64_t lv = root - g.piece_begin(p.rank);
        st.visited[s].view().set(lv);
        st.frontier[s].view().set(lv);
        st.pred[s][lv] = root;
        st.unvisited_edges[s] -= dg.piece_deg[s][lv];
      }
      if (g.row_of(p.rank) == g.row_of(owner))
        st.row_visited[s].view().set(root - g.band_begin(g.row_of(p.rank)));
      p.charge(sim::Phase::other,
               u.stream_pass_ns(3 * (g.piece_bits() / 64) +
                                g.band_bits() / 64 + g.colband_bits() / 64));
      p.barrier(world, sim::Phase::other);
    }

    const std::uint64_t root_deg =
        g.owner(root) == p.rank
            ? dg.piece_deg[static_cast<std::size_t>(p.rank)]
                          [root - g.piece_begin(p.rank)]
            : 0;
    const std::uint64_t frontier_edges =
        rt::allreduce_sum(p, world, root_deg, sim::Phase::stall);

    int dir = opt.direction == bfs::Direction::bottom_up_only ? 1 : 0;
    if (opt.direction == bfs::Direction::hybrid) {
      const std::uint64_t rem0 = rt::allreduce_sum(
          p, world, st.unvisited_edges[static_cast<std::size_t>(p.rank)],
          sim::Phase::stall);
      if (static_cast<double>(frontier_edges) >
          static_cast<double>(rem0) / opt.alpha)
        dir = 1;
    }

    double my_expand_sum = 0, my_fold_sum = 0;
    // Bootstrap: build level 0's col-band inputs from the root frontier.
    ex.reset_legs();
    ex.build_inputs(p, dir, rec.parts());
    my_expand_sum += ex.last_expand_ns();
    LegBytes in_legs = ex.legs();

    std::uint64_t prev_nf = 1;
    int level = 0;
    for (;;) {
      const double level_t0 = p.clock.now_ns();
      if (rec.crash_point(level, save)) return;
      LegBytes cur_legs = in_legs;

      // --- local scan -------------------------------------------------
      const double kernel_t0 = p.clock.now_ns();
      for (int q : rec.parts()) {
        const bfs::UnitCosts& qu = costs[static_cast<std::size_t>(q)];
        if (dir == 0)
          scan_td(p, dg, st, qu, q);
        else
          scan_bu(p, dg, st, qu, q);
      }
      p.trace_span(obs::kCatBfs, dir == 0 ? "2d.td_kernel" : "2d.bu_kernel",
                   kernel_t0, p.clock.now_ns(), obs::kv("level", level));

      // --- fold: claims travel the rows to their owners ---------------
      ex.reset_legs();
      const FoldStats fr = ex.fold(p, dir, rec.parts());
      my_fold_sum += ex.last_fold_ns();
      cur_legs.fold_wire += ex.legs().fold_wire;
      cur_legs.fold_raw += ex.legs().fold_raw;
      cur_legs.fold_coded = ex.legs().fold_coded;

      std::uint64_t my_rem = 0;
      for (int q : rec.parts())
        my_rem += st.unvisited_edges[static_cast<std::size_t>(q)];
      const std::uint64_t nf =
          rt::allreduce_sum(p, world, fr.discovered, sim::Phase::stall);
      const std::uint64_t mf =
          rt::allreduce_sum(p, world, fr.discovered_edges, sim::Phase::stall);
      const std::uint64_t rem =
          rt::allreduce_sum(p, world, my_rem, sim::Phase::stall);

      // Crash detection point: after the rollback, rebuild the col-band
      // inputs from the restored frontier pieces and re-run the level.
      const double rb_t0 = p.clock.now_ns();
      if (rec.recovered(restore)) {
        ex.reset_legs();
        ex.build_inputs(p, dir, rec.parts());
        my_expand_sum += ex.last_expand_ns();
        in_legs = ex.legs();
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
        shared.expand_codec.push_back(cur_legs.expand_codec);
        shared.fold_coded.push_back(cur_legs.fold_coded ? 1 : 0);
      }
      const std::uint64_t frontier_prev_count = prev_nf;
      prev_nf = nf;

      if (nf == 0) {
        rank_levels[static_cast<std::size_t>(p.rank)].push_back(cur_legs);
        p.trace_span(obs::kCatBfs, "level " + std::to_string(level), level_t0,
                     p.clock.now_ns(),
                     obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                         obs::kv("discovered", nf));
        break;
      }

      // Next direction (Beamer, with the 1-D's growing-frontier guard).
      const bool growing = nf > frontier_prev_count;
      int next = dir;
      if (opt.direction == bfs::Direction::hybrid) {
        if (dir == 0 && growing &&
            static_cast<double>(mf) > static_cast<double>(rem) / opt.alpha)
          next = 1;
        else if (dir == 1 && static_cast<double>(nf) <
                                 static_cast<double>(g.n()) / opt.beta)
          next = 0;
      }

      ex.reset_legs();
      const bfs::ExchangeLevelStats exs =
          ex.exchange(p, dir, next, rec.parts());
      my_expand_sum += ex.last_expand_ns();
      p.trace_instant(obs::kCatBfs, "codec.gate",
                      obs::kv("level", level) + "," +
                          obs::kv("kind", graph::codec::to_string(exs.codec)) +
                          "," + obs::kv("wire_bytes", exs.wire_bytes) + "," +
                          obs::kv("raw_bytes", exs.raw_bytes));
      // Split the exchange's legs: the claim-return served this level; the
      // transpose/expand belong to the level whose inputs they built.
      const LegBytes exl = ex.legs();
      cur_legs.ret_wire += exl.ret_wire;
      cur_legs.ret_raw += exl.ret_raw;
      in_legs = LegBytes{};
      in_legs.transpose_wire = exl.transpose_wire;
      in_legs.transpose_raw = exl.transpose_raw;
      in_legs.expand_wire = exl.expand_wire;
      in_legs.expand_raw = exl.expand_raw;
      in_legs.expand_codec = exl.expand_codec;
      rank_levels[static_cast<std::size_t>(p.rank)].push_back(cur_legs);
      p.trace_span(obs::kCatBfs, "level " + std::to_string(level), level_t0,
                   p.clock.now_ns(),
                   obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                       obs::kv("discovered", nf));
      dir = next;
      ++level;
    }

    p.barrier(world, sim::Phase::stall);
    if (p.rank == rec.recorder()) {
      shared.expand_ns_sum = my_expand_sum;
      shared.fold_ns_sum = my_fold_sum;
    }
  });

  // --- aggregate (host side) -------------------------------------------
  Bfs2dResult out;
  const sim::RunProfile prof = sim::aggregate(c.profiles());
  out.time_ns = prof.max_total_ns;
  out.visited = shared.visited;
  out.directions = shared.directions;
  out.tally(shared.directions, recovery, prof);
  out.profile_max = prof.max;

  std::uint64_t traversed = 0;
  for (int r = 0; r < np; ++r)
    traversed += dg.owned_edges[static_cast<std::size_t>(r)] -
                 st.unvisited_edges[static_cast<std::size_t>(r)];
  out.traversed_directed_edges = traversed;
  if (out.levels > 0) {
    out.expand_ns_per_level =
        shared.expand_ns_sum / static_cast<double>(out.levels);
    out.fold_ns_per_level =
        shared.fold_ns_sum / static_cast<double>(out.levels);
  }

  out.trace.reserve(shared.directions.size());
  for (std::size_t lvl = 0; lvl < shared.directions.size(); ++lvl) {
    Level2dTrace t;
    t.level = static_cast<int>(lvl);
    t.direction = shared.directions[lvl];
    t.frontier_vertices = shared.frontier_sizes[lvl];
    t.discovered = shared.discovered[lvl];
    t.expand_codec = shared.expand_codec[lvl];
    t.fold_coded = shared.fold_coded[lvl] != 0;
    for (const auto& rl : rank_levels) {
      if (lvl >= rl.size()) continue;
      t.transpose_wire_bytes += rl[lvl].transpose_wire;
      t.transpose_raw_bytes += rl[lvl].transpose_raw;
      t.expand_wire_bytes += rl[lvl].expand_wire;
      t.expand_raw_bytes += rl[lvl].expand_raw;
      t.fold_wire_bytes += rl[lvl].fold_wire;
      t.fold_raw_bytes += rl[lvl].fold_raw;
      t.return_wire_bytes += rl[lvl].ret_wire;
      t.return_raw_bytes += rl[lvl].ret_raw;
    }
    out.trace.push_back(t);
  }

  if (parent_out != nullptr) {
    parent_out->assign(g.n(), graph::kNoVertex);
    for (int r = 0; r < np; ++r) {
      const auto& pr = st.pred[static_cast<std::size_t>(r)];
      const std::uint64_t vb = g.piece_begin(r);
      for (std::size_t i = 0; i < pr.size() && vb + i < g.n(); ++i)
        (*parent_out)[vb + i] = pr[i];
    }
  }
  return out;
}

}  // namespace numabfs::bfs2d
