#include "bfs/exchange.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace numabfs::bfs {

namespace cm = rt::coll_model;
namespace codec = graph::codec;

namespace {

/// Summary-bit range [sb, se) covering partition `part`'s vertex block.
std::pair<std::uint64_t, std::uint64_t> summary_range(const DistState& st,
                                                      std::uint64_t block_bits,
                                                      int part) {
  const std::uint64_t g = st.config().summary_granularity;
  const std::uint64_t sb = static_cast<std::uint64_t>(part) * block_bits / g;
  const std::uint64_t se = std::min(
      st.summary_bits(),
      (static_cast<std::uint64_t>(part + 1) * block_bits + g - 1) / g);
  return {sb, se};
}

}  // namespace

void stretch_degraded(const rt::Proc& p, cm::CollTimes& t) {
  const faults::FaultInjector* inj = p.cluster->injector();
  if (inj == nullptr) return;
  const double lf = inj->min_link_factor(p.clock.now_ns());
  t.total_ns += t.inter_ns * (1.0 / lf - 1.0);
  t.inter_ns /= lf;
}

double overlap_decode(rt::Proc& p, double wire_ns, double decode_ns,
                      int chunks, double split_ns) {
  const double seq_ns = wire_ns + decode_ns;
  const double total_ns = cm::pipelined2_ns(wire_ns, decode_ns, chunks) +
                          split_ns;
  p.prof.add_overlap_saved(seq_ns - total_ns);
  return total_ns;
}

void decode_bitmap_checked(std::span<const std::uint8_t> in,
                           std::span<std::uint64_t> words, const char* what,
                           int src_rank) {
  const std::size_t used = codec::decode_bitmap(in, words);
  if (used != in.size())
    throw std::invalid_argument(
        std::string(what) + ": bitmap encoding from rank " +
        std::to_string(src_rank) + " decoded " + std::to_string(used) +
        " of " + std::to_string(in.size()) + " bytes");
}

GateResult gate_bitmap_chunks(
    rt::Proc& p, rt::Comm& comm, CodecMode mode, int pipeline_chunks,
    std::span<GateChunk> chunks, std::uint64_t chunk_words,
    std::uint64_t chunk_bits, std::uint64_t decode_chunks, const UnitCosts& u,
    sim::Phase phase,
    const std::function<double(std::uint64_t)>& plan_total_ns,
    double per_chunk_ns) {
  GateResult res;
  res.wire_chunk_bytes = chunk_words * 8;
  const int total = comm.size();
  if (mode == CodecMode::off || total <= 1) return res;
  const int K = std::max(1, pipeline_chunks);

  // Chunks are skewed (R-MAT hubs cluster), and every collective plan moves
  // each chunk once per hop, so the honest per-chunk wire charge — and the
  // gate's input — is the *mean* encoded chunk, not the densest one:
  // allreduce the summed popcount / encoded bytes and divide by the global
  // chunk count (== comm size: one chunk per partition).
  std::uint64_t my_pop = 0;
  for (const GateChunk& ch : chunks)
    for (std::uint64_t w : ch.words)
      my_pop += static_cast<std::uint64_t>(std::popcount(w));
  p.charge(phase, u.stream_pass_ns(chunk_words * chunks.size()));
  const std::uint64_t mean_pop =
      rt::allreduce_sum(p, comm, my_pop, sim::Phase::stall) /
      static_cast<std::uint64_t>(total);

  // Splitting into K chunks pays (K-1) * per_chunk_ns on top of the
  // pipelined time — the same charge the final exchange pays, so the gate
  // optimizes exactly what is charged.
  const double split_ns = static_cast<double>(K - 1) * per_chunk_ns;
  const double enc_est = u.stream_pass_ns(chunk_words);
  const double dec_est = u.stream_pass_ns(decode_chunks * chunk_words);
  const double raw_est = plan_total_ns(chunk_words * 8);
  const double dense_est =
      enc_est + split_ns +
      cm::pipelined2_ns(
          plan_total_ns(codec::dense_estimate_bytes(chunk_words, mean_pop)),
          dec_est, K);
  const double sparse_est =
      enc_est + split_ns +
      cm::pipelined2_ns(
          plan_total_ns(codec::sparse_estimate_bytes(mean_pop, chunk_bits)),
          dec_est, K);

  // The estimates assume uniform density, but chunks are skewed, so a level
  // whose *mean* density looks hopeless can still compress on its sparse
  // chunks (each chunk falls back to raw + 1 at worst). Trial-encode
  // whenever the analytic estimate lands within 1.5x of raw; the final pick
  // is then made on the measured bytes, with the (already charged) encode
  // pass sunk.
  codec::Kind trial = codec::Kind::raw;
  switch (mode) {
    case CodecMode::force_dense:
      trial = codec::Kind::dense_bitmap;
      break;
    case CodecMode::force_sparse:
      trial = codec::Kind::sparse_list;
      break;
    default:
      if (std::min(dense_est, sparse_est) < raw_est * 1.5)
        trial = sparse_est <= dense_est ? codec::Kind::sparse_list
                                       : codec::Kind::dense_bitmap;
  }
  if (trial == codec::Kind::raw) return res;

  // Encode for real; wire time is then charged on the *measured*
  // (allreduce-summed) encoded sizes, never on the gate's estimate.
  std::uint64_t my_enc = 0;
  for (GateChunk& ch : chunks) {
    ch.enc->clear();
    std::size_t nb;
    if (trial == codec::Kind::dense_bitmap)
      nb = codec::encode_dense(ch.words, *ch.enc,
                               ch.guide ? &*ch.guide : nullptr,
                               ch.guide_base_bit);
    else
      nb = codec::encode_bitmap_sparse(ch.words, *ch.enc);
    my_enc += static_cast<std::uint64_t>(nb);
    res.encode_ns += u.stream_pass_ns(chunk_words + (nb + 7) / 8);
  }
  p.charge(phase, res.encode_ns);
  const std::uint64_t enc_mean =
      (rt::allreduce_sum(p, comm, my_enc, sim::Phase::stall) +
       static_cast<std::uint64_t>(total) - 1) /
      static_cast<std::uint64_t>(total);
  if (mode != CodecMode::gate ||
      cm::pipelined2_ns(plan_total_ns(enc_mean), dec_est, K) + split_ns <
          raw_est) {
    res.kind = trial;
    res.wire_chunk_bytes = enc_mean;
  }
  return res;
}

cm::CollTimes AllgatherPlan::times(const rt::Cluster& c,
                                   std::uint64_t chunk_bytes) const {
  switch (kind) {
    case Kind::private_replicas:
      if (algo == rt::AllgatherAlgo::flat_ring)
        return cm::flat_ring(c, chunk_bytes);
      return cm::leader_allgather(c, chunk_bytes, true, true, 1,
                                  algo == rt::AllgatherAlgo::leader_rd);
    case Kind::leader:
      return cm::leader_allgather(c, chunk_bytes, gather, false, 1);
    case Kind::subgroups:
      return cm::leader_allgather(c, chunk_bytes, false, false, c.ppn());
  }
  return {};
}

std::uint64_t AllgatherPlan::assembled_chunks(const rt::Cluster& c) const {
  return static_cast<std::uint64_t>(kind == Kind::subgroups ? c.topo().nodes()
                                                            : c.nranks());
}

AllgatherPlan select_allgather_plan(const rt::Cluster& c, const Config& cfg,
                                    bool degraded) {
  AllgatherPlan plan;
  if (cfg.sharing == Sharing::none || c.ppn() == 1) {
    plan.algo = cfg.base_algo;
  } else if (cfg.sharing == Sharing::all && cfg.parallel_allgather &&
             !degraded) {
    plan.kind = AllgatherPlan::Kind::subgroups;
  } else {
    plan.kind = AllgatherPlan::Kind::leader;
    plan.gather = cfg.sharing != Sharing::all;
  }
  return plan;
}

void clear_out_bits(rt::Proc& p, const graph::DistGraph& dg, DistState& st,
                    const UnitCosts& u, sim::Phase phase, int part) {
  if (part < 0) part = p.rank;
  const std::uint64_t block_words = dg.part.block() / 64;
  auto out_q = st.out_queue(part);
  const std::uint64_t off = static_cast<std::uint64_t>(part) * block_words;
  std::memset(out_q.words().data() + off, 0, block_words * 8);

  // A private map holds only the partition's own range and is tiny: wipe it
  // whole. A node map is wiped in ppn disjoint word slices, one per local
  // index; an adopter wipes its dead partition's slice.
  auto sw = st.out_summary(part).bits().words();
  std::size_t lo = 0, hi = sw.size();
  if (st.shared_out()) {
    const auto ppn = static_cast<std::size_t>(p.ppn);
    const auto local = static_cast<std::size_t>(part) % ppn;
    lo = sw.size() * local / ppn;
    hi = sw.size() * (local + 1) / ppn;
  }
  std::memset(sw.data() + lo, 0, (hi - lo) * 8);
  p.charge(phase, u.stream_pass_ns(block_words + (hi - lo)));
}

void discovered_to_out_bits(rt::Proc& p, DistState& st, const UnitCosts& u,
                            int part) {
  if (part < 0) part = p.rank;
  auto out_q = st.out_queue(part);
  auto out_s = st.out_summary(part);
  const auto& discovered = st.discovered(part);
  for (graph::Vertex v : discovered) {
    out_q.set(v);
    out_s.mark(v);
  }
  p.charge(sim::Phase::switch_conv,
           static_cast<double>(discovered.size()) * 2.0 * u.write_ns /
               u.omp_div);
}

SparseExchangeStats exchange_sparse(rt::Proc& p, const graph::DistGraph& dg,
                                    DistState& st, const UnitCosts& u,
                                    sim::Phase phase, bool wipe_out,
                                    std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  rt::Comm& world = c.world();
  const int np = c.nranks();
  bool coded = st.config().codec != CodecMode::off && np > 1;

  // Trial-encode each owned partition's discovered list, then gate the
  // whole level on the *measured* totals: tiny tail/startup lists inflate
  // under varint headers (a 1-vertex list costs 5 coded bytes vs 4 raw),
  // so the level publishes coded lists only when the allreduced encoded
  // volume actually beat raw. Deterministic: every rank sees the same sums.
  std::uint64_t my_enc = 0, my_raw = 0;
  const auto encode_part = [&](int q) {
    const auto& list = st.discovered(q);
    if (list.empty()) return;  // absence is free raw, 2 bytes encoded
    auto& buf = st.enc_buf(q);
    buf.clear();
    const std::size_t nb = codec::encode_list({list.data(), list.size()}, buf);
    my_enc += nb;
    my_raw += list.size() * sizeof(graph::Vertex);
    p.charge(phase, u.stream_pass_ns(list.size() * sizeof(graph::Vertex) / 8 +
                                     (nb + 7) / 8));
  };
  if (coded) {
    for_owned_parts(p, parts, encode_part);
    const std::uint64_t enc_sum =
        rt::allreduce_sum(p, world, my_enc, sim::Phase::stall);
    const std::uint64_t raw_sum =
        rt::allreduce_sum(p, world, my_raw, sim::Phase::stall);
    coded = enc_sum < raw_sum;  // encode cost is sunk; bytes decide
  }

  // Publish each owned partition's list — raw, or the delta-varint encoding
  // from the partition's enc_buf (val then carries *bytes*, and the wire
  // bytes below are measured from the real encoding). Adopted partitions
  // are impersonated into the dead owners' slots so the dense assembly
  // loop below needs no holes.
  const auto publish_part = [&](int q) {
    const auto& list = st.discovered(q);
    if (!coded || list.empty()) {
      world.publish_ptr(q, list.data());
      world.publish_val(q, list.size());
      return;
    }
    const auto& buf = st.enc_buf(q);
    world.publish_ptr(q, buf.data());
    world.publish_val(q, buf.size());
  };
  for_owned_parts(p, parts, publish_part);
  p.barrier(world, sim::Phase::stall);  // lists ready

  auto& frontier = st.frontier(p.rank);
  frontier.clear();
  SparseExchangeStats stats;
  stats.coded = coded;
  std::uint64_t intra_bytes = 0, inter_bytes = 0;
  for (int r = 0; r < np; ++r) {
    std::uint64_t bytes;  // what rides the wire for this contribution
    std::uint64_t count;
    if (coded) {
      bytes = world.val(r);
      const auto* src = static_cast<const std::uint8_t*>(world.ptr(r));
      const std::size_t before = frontier.size();
      if (bytes > 0) {
        // Strict framing: a decode that stops short of the published size
        // accepted a corrupted stream whose trailing bytes it never looked
        // at — the checksummed-retransmit path needs a hard error instead.
        const std::size_t used = codec::decode_list({src, bytes}, frontier);
        if (used != bytes)
          throw std::invalid_argument(
              "exchange_sparse: list encoding from rank " + std::to_string(r) +
              " decoded " + std::to_string(used) + " of " +
              std::to_string(bytes) + " published bytes");
      }
      count = frontier.size() - before;
    } else {
      count = world.val(r);
      const auto* src = static_cast<const graph::Vertex*>(world.ptr(r));
      frontier.insert(frontier.end(), src, src + count);
      bytes = count * sizeof(graph::Vertex);
    }
    if (r == p.rank) continue;
    stats.wire_bytes += bytes;
    stats.raw_bytes += count * sizeof(graph::Vertex);
    if (c.node_of(r) == p.node)
      intra_bytes += bytes;
    else
      inter_bytes += bytes;
  }
  p.prof.counters().bytes_intra_node += intra_bytes;
  p.prof.counters().bytes_inter_node += inter_bytes;
  p.prof.counters().bytes_raw_equiv += stats.raw_bytes;
  if (coded)  // decode pass over the received encodings
    p.charge(phase, u.stream_pass_ns((stats.wire_bytes + stats.raw_bytes) / 8));

  const auto& cp = c.params();
  double inter_bw = c.link().nic_flow_bw(1, cm::min_nic_factor(c));
  if (inj != nullptr)
    inter_bw *= inj->min_link_factor(p.clock.now_ns());
  const double t =
      static_cast<double>(np - 1) * cp.nic_msg_latency_ns +
      static_cast<double>(inter_bytes) / inter_bw +
      static_cast<double>(intra_bytes) * cp.cico_factor /
          c.link().shm_flow_bw(1);
  p.charge(phase, t);

  if (wipe_out)
    for_owned_parts(p, parts, [&](int q) {
      clear_out_bits(p, dg, st, u, sim::Phase::switch_conv, q);
    });
  p.barrier(world, phase);
  return stats;
}

ExchangeTimes exchange_frontier(rt::Proc& p, const graph::DistGraph& dg,
                                DistState& st, const UnitCosts& u,
                                sim::Phase phase, std::span<const int> parts) {
  rt::Cluster& c = *p.cluster;
  const faults::FaultInjector* inj = c.injector();
  rt::Comm& world = c.world();
  rt::Comm& node = c.node_comm(p.node);
  const Config& cfg = st.config();
  const int np = c.nranks();
  const int ppn = c.ppn();

  const std::uint64_t block_bits = dg.part.block();
  const std::uint64_t block_words = block_bits / 64;
  const std::uint64_t g = cfg.summary_granularity;
  const std::uint64_t qchunk_bytes = block_words * 8;
  const std::uint64_t schunk_bytes = std::max<std::uint64_t>(1, block_bits / (8 * g));

  // Degraded mode: with dead ranks, subgroup rings are broken (a color may
  // be missing on some node) and the wired-in leader may be gone. The plan
  // falls back to the leader plan, with the lowest live local rank acting
  // as leader.
  const bool degraded = inj != nullptr && inj->any_dead();
  const bool acts_leader =
      degraded ? p.local == inj->lowest_live_local(p.node) : p.is_node_leader();
  const AllgatherPlan plan = select_allgather_plan(c, cfg, degraded);
  // Queue chunks one rank assembles — and therefore decodes — per level.
  const std::uint64_t assemble_chunks = plan.assembled_chunks(c);
  const int K = std::max(1, cfg.exchange_chunks);
  const double per_chunk_ns = c.params().chunk_split_overhead_ns;

  // --- per-level codec gate (DESIGN.md §10) -----------------------------
  // Every rank computes the same decision from allreduced measured sparsity
  // and rank-uniform unit costs — the same SPMD-deterministic pattern as
  // the MS-BFS kernel chooser. A level near 50% density estimates above the
  // raw wire cost and stays raw. The machinery itself is shared with the
  // 2-D exchange (gate_bitmap_chunks); this call site only describes the
  // 1-D out_queue chunks and the plan's modeled duration, so the gate
  // optimizes the quantity that is charged.
  std::vector<GateChunk> gate_chunks;
  for_owned_parts(p, parts, [&](int q) {
    GateChunk ch;
    ch.words = st.out_queue(q).words().subspan(
        static_cast<std::uint64_t>(q) * block_words, block_words);
    ch.guide = st.out_summary(q);
    ch.guide_base_bit = static_cast<std::uint64_t>(q) * block_bits;
    ch.enc = &st.enc_buf(q);
    gate_chunks.push_back(ch);
  });
  const GateResult gate = gate_bitmap_chunks(
      p, world, cfg.codec, K, gate_chunks, block_words, block_bits,
      assemble_chunks, u, phase,
      [&](std::uint64_t b) { return plan.times(c, b).total_ns; },
      per_chunk_ns);
  const codec::Kind kind = gate.kind;
  const std::uint64_t wire_chunk = gate.wire_chunk_bytes;

  // --- data-plumbing helpers (real movement; time is modeled below) -----
  const auto copy_queue_chunk = [&](graph::BitmapView dst, int src_rank) {
    const std::uint64_t off = static_cast<std::uint64_t>(src_rank) * block_words;
    std::uint64_t bytes = block_words * 8;  // raw wire size
    if (kind == codec::Kind::raw) {
      auto src = st.out_queue(src_rank).words();
      std::memcpy(dst.words().data() + off, src.data() + off, block_words * 8);
    } else {
      const auto& buf = st.enc_buf(src_rank);
      // Strict framing (see exchange_sparse): the encoding must account for
      // every published byte, or the stream was corrupted.
      decode_bitmap_checked({buf.data(), buf.size()},
                            dst.words().subspan(off, block_words),
                            "exchange_frontier", src_rank);
      bytes = buf.size();
    }
    if (src_rank == p.rank) return;  // own chunk: no transmission (Eq. (1))
    if (c.node_of(src_rank) == p.node)
      p.prof.counters().bytes_intra_node += bytes;
    else
      p.prof.counters().bytes_inter_node += bytes;
    p.prof.counters().bytes_raw_equiv += block_words * 8;
  };
  const auto copy_summary_range = [&](graph::SummaryView dst, int src_rank,
                                      bool atomic) {
    const auto [sb, se] = summary_range(st, block_bits, src_rank);
    if (sb >= se) return;
    auto src_s = st.out_summary(src_rank);
    graph::copy_bits(dst.bits().words(), sb, src_s.bits().words(), sb, se - sb,
                     atomic);
  };
  const auto memset_summary = [&](graph::SummaryView s) {
    auto w = s.bits().words();
    std::memset(w.data(), 0, w.size() * 8);
  };

  p.barrier(world, sim::Phase::stall);  // out data (and encodings) ready

  // --- modeled durations + real assembly, by plan ------------------------
  // The queue allgather is modeled on `wire_chunk` — the measured encoded
  // chunk when a codec is active, the raw chunk otherwise. The summary
  // allgather always rides raw (it is itself the compressed digest).
  cm::CollTimes qt = plan.times(c, wire_chunk);
  cm::CollTimes ss = plan.times(c, schunk_bytes);
  auto in_q = st.in_queue(p.rank);
  auto in_s = st.in_summary(p.rank);

  // "Original": private replicas, library allgather over all np ranks.
  // "+ Share in_queue" / "+ Share all": the leader rings directly into the
  // node-shared in_queue; the broadcast step is gone (Fig. 5b), and with
  // shared out slabs the gather step too. The leader plan is also the
  // degraded fallback for the parallel plan below.
  if (plan.kind == AllgatherPlan::Kind::private_replicas ||
      (plan.kind == AllgatherPlan::Kind::leader && acts_leader)) {
    for (int r = 0; r < np; ++r) copy_queue_chunk(in_q, r);
    memset_summary(in_s);
    for (int r = 0; r < np; ++r) copy_summary_range(in_s, r, false);
  } else if (plan.kind == AllgatherPlan::Kind::subgroups) {
    // "+ Par allgather": ppn subgroups ring concurrently (Fig. 7), each
    // assembling its color's slice of every node chunk in place.
    if (p.is_node_leader()) memset_summary(in_s);
    p.barrier(node, phase);  // summary zeroed before OR-merges
    for (int m = 0; m < c.topo().nodes(); ++m) {
      const int src_rank = m * ppn + p.local;
      copy_queue_chunk(in_q, src_rank);
      copy_summary_range(in_s, src_rank, /*atomic=*/true);
    }
  }

  // A degraded fabric stretches the inter-node stages of both allgathers.
  stretch_degraded(p, qt);
  stretch_degraded(p, ss);
  double total_ns = qt.total_ns + ss.total_ns;
  if (kind != codec::Kind::raw)
    total_ns = overlap_decode(p, total_ns,
                              u.stream_pass_ns(assemble_chunks * block_words),
                              K, static_cast<double>(K - 1) * per_chunk_ns);
  p.charge(phase, total_ns);
  p.barrier(world, phase);  // the collective completes together

  for_owned_parts(p, parts,
                  [&](int q) { clear_out_bits(p, dg, st, u, phase, q); });
  p.barrier(world, sim::Phase::stall);  // wipes land before the next level

  return {total_ns, kind, qchunk_bytes, wire_chunk};
}

ExchangeLevelStats exchange_level(rt::Proc& p, const graph::DistGraph& dg,
                                  DistState& st, const UnitCosts& u,
                                  int cur_dir, int next_dir,
                                  std::span<const int> parts) {
  ExchangeLevelStats s;
  if (next_dir == 1) {
    // Next level searches bottom-up: it needs the in_queue bitmap. A
    // top-down level only produced a sparse list — materialize it
    // ("Switch" in Fig. 11), then run the two allgathers of Fig. 1.
    if (cur_dir == 0)
      for (int q : parts) discovered_to_out_bits(p, st, u, q);
    const ExchangeTimes ex =
        exchange_frontier(p, dg, st, u, sim::Phase::bu_comm, parts);
    s.codec = ex.codec;
    s.wire_bytes = ex.chunk_wire_bytes;
    s.raw_bytes = ex.chunk_raw_bytes;
    s.bitmap = true;
  } else {
    // Next level is top-down: the sparse list exchange suffices; when
    // leaving bottom-up, the stale out bitmaps are wiped on the way.
    const SparseExchangeStats sx =
        exchange_sparse(p, dg, st, u, sim::Phase::td_comm,
                        /*wipe_out=*/cur_dir == 1, parts);
    s.codec = sx.coded ? codec::Kind::sparse_list : codec::Kind::raw;
    s.wire_bytes = sx.wire_bytes;
    s.raw_bytes = sx.raw_bytes;
  }
  return s;
}

}  // namespace numabfs::bfs
