#include "bfs2d/bfs2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bfs2d/exchange2d.hpp"
#include "graph/bitmap.hpp"
#include "obs/trace.hpp"

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

bfs::Config Bfs2dOptions::config() const {
  bfs::Config cfg;
  cfg.direction = direction;
  cfg.codec = codec;
  cfg.exchange_chunks = exchange_chunks;
  return cfg;
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

  const bfs::Config cfg = opt.config();
  const int np = g.np();
  std::vector<bfs::UnitCosts> costs(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    bfs::StructSizes sz;
    sz.in_queue_bytes = g.colband_bits() / 8;
    sz.in_summary_bytes = (g.colband_bits() / cfg.summary_granularity + 7) / 8;
    sz.owned_bytes = g.piece_bits() / 8 +
                     g.piece_bits() * sizeof(graph::Vertex) +
                     g.band_bits() / 8;
    sz.td_group_count = std::max<std::uint64_t>(
        1, dg.blocks[static_cast<std::size_t>(r)].keys.size());
    costs[static_cast<std::size_t>(r)] = bfs::unit_costs(c, cfg, sz);
  }

  State2d st(dg, cfg.summary_granularity);
  Bfs2dResult out;
  std::vector<int> expand_codec;
  std::vector<char> fold_coded;
  double expand_ns_sum = 0, fold_ns_sum = 0;
  std::vector<std::vector<LegBytes>> rank_levels(static_cast<std::size_t>(np));

  bfs::BeamerLoop loop(c, "run_bfs_2d", cfg, g.n());
  std::vector<Ckpt2d> ckpt(
      loop.checkpointing() ? static_cast<std::size_t>(np) : 0);

  c.run([&](rt::Proc& p) {
    const bfs::UnitCosts& u = costs[static_cast<std::size_t>(p.rank)];
    TwoDExchange ex(dg, st, costs, opt);
    double my_expand_sum = 0, my_fold_sum = 0;
    LegBytes in_legs, cur_legs;

    bfs::LevelSteps s;
    s.save = [&](int q) {
      const auto i = static_cast<std::size_t>(q);
      Ckpt2d& ck = ckpt[i];
      auto vw = st.visited[i].view().words();
      ck.visited.assign(vw.begin(), vw.end());
      auto fw = st.frontier[i].view().words();
      ck.frontier.assign(fw.begin(), fw.end());
      auto rw = st.row_visited[i].view().words();
      ck.row_visited.assign(rw.begin(), rw.end());
      ck.pred = st.pred[i];
      ck.unvisited_edges = st.unvisited_edges[i];
      p.charge(sim::Phase::other, costs[i].stream_pass_ns(ckpt_words(g)));
    };
    s.restore = [&](int q) {
      const auto i = static_cast<std::size_t>(q);
      const Ckpt2d& ck = ckpt[i];
      std::memcpy(st.visited[i].view().words().data(), ck.visited.data(),
                  ck.visited.size() * 8);
      std::memcpy(st.frontier[i].view().words().data(), ck.frontier.data(),
                  ck.frontier.size() * 8);
      std::memcpy(st.row_visited[i].view().words().data(),
                  ck.row_visited.data(), ck.row_visited.size() * 8);
      st.pred[i] = ck.pred;
      st.unvisited_edges[i] = ck.unvisited_edges;
      st.next[i].view().reset();
      for (auto& box : st.out_children[i]) box.clear();
      for (auto& box : st.out_parents[i]) box.clear();
      p.charge(sim::Phase::other, costs[i].stream_pass_ns(ckpt_words(g)));
    };
    // The col-band inputs of the next level: built before level 0 and
    // again from the restored frontier pieces after a rollback.
    s.inputs = [&](int dir, std::span<const int> parts) {
      ex.reset_legs();
      ex.build_inputs(p, dir, parts);
      my_expand_sum += ex.last_expand_ns();
      in_legs = ex.legs();
    };
    s.kernels = [&](int dir, int level, std::span<const int> parts) {
      cur_legs = in_legs;
      const double kernel_t0 = p.clock.now_ns();
      for (int q : parts) {
        const bfs::UnitCosts& qu = costs[static_cast<std::size_t>(q)];
        if (dir == 0)
          scan_td(p, dg, st, qu, q);
        else
          scan_bu(p, dg, st, qu, q);
      }
      p.trace_span(obs::kCatBfs, dir == 0 ? "2d.td_kernel" : "2d.bu_kernel",
                   kernel_t0, p.clock.now_ns(), obs::kv("level", level));

      // Fold: claims travel the rows to their owners.
      ex.reset_legs();
      const FoldStats fr = ex.fold(p, dir, parts);
      my_fold_sum += ex.last_fold_ns();
      cur_legs.fold_wire += ex.legs().fold_wire;
      cur_legs.fold_raw += ex.legs().fold_raw;
      cur_legs.fold_coded = ex.legs().fold_coded;
      bfs::LevelCounts my{fr.discovered, fr.discovered_edges, 0};
      for (int q : parts)
        my.unvisited_edges += st.unvisited_edges[static_cast<std::size_t>(q)];
      return my;
    };
    s.exchange = [&](int dir, int next, std::span<const int> parts) {
      ex.reset_legs();
      const bfs::ExchangeLevelStats exs = ex.exchange(p, dir, next, parts);
      my_expand_sum += ex.last_expand_ns();
      return exs;
    };
    s.close = [&](bool recorder, const bfs::ExchangeLevelStats* exs) {
      if (recorder) {
        expand_codec.push_back(cur_legs.expand_codec);
        fold_coded.push_back(cur_legs.fold_coded ? 1 : 0);
      }
      if (exs != nullptr) {
        // Split the exchange's legs: the claim-return served this level;
        // the transpose/expand belong to the level whose inputs they built.
        const LegBytes& exl = ex.legs();
        cur_legs.ret_wire += exl.ret_wire;
        cur_legs.ret_raw += exl.ret_raw;
        in_legs = LegBytes{};
        in_legs.transpose_wire = exl.transpose_wire;
        in_legs.transpose_raw = exl.transpose_raw;
        in_legs.expand_wire = exl.expand_wire;
        in_legs.expand_raw = exl.expand_raw;
        in_legs.expand_codec = exl.expand_codec;
      } else if (recorder) {  // the last level: the sums are final
        expand_ns_sum = my_expand_sum;
        fold_ns_sum = my_fold_sum;
      }
      rank_levels[static_cast<std::size_t>(p.rank)].push_back(cur_legs);
    };

    // --- per-root reset (Phase::other, like the 1-D) --------------------
    const auto i = static_cast<std::size_t>(p.rank);
    st.frontier[i].view().reset();
    st.next[i].view().reset();
    st.visited[i].view().reset();
    st.colband[i].view().reset();
    st.row_visited[i].view().reset();
    std::fill(st.pred[i].begin(), st.pred[i].end(), graph::kNoVertex);
    st.unvisited_edges[i] = dg.owned_edges[i];
    for (auto& box : st.out_children[i]) box.clear();
    for (auto& box : st.out_parents[i]) box.clear();
    const int owner = g.owner(root);
    const std::uint64_t lv = root - g.piece_begin(owner);
    if (owner == p.rank) {
      st.visited[i].view().set(lv);
      st.frontier[i].view().set(lv);
      st.pred[i][lv] = root;
      st.unvisited_edges[i] -= dg.piece_deg[i][lv];
    }
    if (g.row_of(p.rank) == g.row_of(owner))
      st.row_visited[i].view().set(root - g.band_begin(g.row_of(p.rank)));
    p.charge(sim::Phase::other,
             u.stream_pass_ns(3 * (g.piece_bits() / 64) + g.band_bits() / 64 +
                              g.colband_bits() / 64));
    p.barrier(c.world(), sim::Phase::other);

    loop.run(p, owner == p.rank ? dg.piece_deg[i][lv] : 0,
             st.unvisited_edges[i], s);
  });

  // --- aggregate (host side) -------------------------------------------
  loop.finish(out);
  if (out.levels > 0) {
    out.expand_ns_per_level = expand_ns_sum / static_cast<double>(out.levels);
    out.fold_ns_per_level = fold_ns_sum / static_cast<double>(out.levels);
  }
  out.trace = loop.trace<Level2dTrace>();
  for (std::size_t lvl = 0; lvl < out.trace.size(); ++lvl) {
    Level2dTrace& t = out.trace[lvl];
    t.expand_codec = expand_codec[lvl];
    t.fold_coded = fold_coded[lvl] != 0;
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
