#include "engine/level_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bfs/exchange.hpp"
#include "graph/codec.hpp"
#include "obs/trace.hpp"
#include "runtime/allgather.hpp"
#include "runtime/coll_model.hpp"

namespace numabfs::engine {

FrontierSlabs::FrontierSlabs(const bfs::Config& cfg,
                             const graph::Partition1D& part, int nodes,
                             int ppn, std::uint64_t slab_words,
                             std::uint64_t stride)
    : cfg_(cfg),
      ppn_(ppn),
      shared_(cfg.sharing != bfs::Sharing::none && ppn > 1),
      block_(part.block()),
      slab_words_(slab_words),
      stride_(stride) {
  const auto np = static_cast<std::uint64_t>(part.np());
  const std::uint64_t g = cfg.summary_granularity;
  summary_bits_ = graph::SummaryView::summary_bits_for(np * stride, g);
  const auto nrep = static_cast<std::size_t>(shared_ ? nodes : part.np());
  frontier_.assign(nrep, std::vector<std::uint64_t>(np * slab_words, 0));
  fsummary_.assign(nrep, graph::Summary(np * stride, g));
  out_.assign(np, std::vector<std::uint64_t>(slab_words, 0));
  out_summary_.assign(np, graph::Summary(block_, g));
}

LevelDriver::LevelDriver(rt::Proc& p, faults::LevelRecovery& recovery,
                         const DriverSpec& spec, FrontierEngine& engine,
                         LoopRecord& record)
    : p_(p), rank_(recovery, p), spec_(spec), eng_(engine), record_(record) {}

void LevelDriver::choose(const DirInputs& in, LevelPosition& pos) const {
  constexpr double kDenseEarlyBreak = 2.0;
  const double n_d = static_cast<double>(spec_.n);
  const double np_d = static_cast<double>(p_.nranks);
  const double g_d = static_cast<double>(spec_.slabs->config().summary_granularity);
  const bfs::UnitCosts& u0 = (*spec_.costs)[0];
  const double mf_d = static_cast<double>(in.frontier_edges);
  const double nf_d = static_cast<double>(in.frontier);
  const double needy_d = static_cast<double>(in.needy);
  const double mu_d = static_cast<double>(in.mu);

  const double density = std::max(nf_d / n_d, 1e-12);
  const double p_empty = std::pow(1.0 - std::min(density, 1.0), g_d);
  const bool use_sum = u0.summary_probe_ns < p_empty * u0.inqueue_probe_ns;
  const double per_edge =
      u0.edge_scan_ns +
      (use_sum ? u0.summary_probe_ns + (1.0 - p_empty) * u0.inqueue_probe_ns
               : u0.inqueue_probe_ns);
  const double est_scan = std::min(mu_d, needy_d * kDenseEarlyBreak / density);
  const double dense_est =
      (n_d / np_d) * u0.word_stream_ns + est_scan / np_d * per_edge;
  const double sparse_est =
      n_d * u0.word_stream_ns + nf_d * u0.group_search_ns +
      mf_d / np_d * (u0.edge_scan_ns + u0.visited_probe_ns);
  pos.dir = dense_est < sparse_est ? 1 : 0;
  pos.use_summary = use_sum;
}

void LevelDriver::exchange() {
  namespace cm = rt::coll_model;
  rt::Cluster& c = *p_.cluster;
  rt::Comm& world = c.world();
  const faults::FaultInjector* inj = c.injector();
  const bfs::Config& cfg = spec_.slabs->config();
  const bfs::UnitCosts& u = (*spec_.costs)[static_cast<std::size_t>(p_.rank)];
  FrontierSlabs& fs = *spec_.slabs;
  const int np = c.nranks();
  const std::uint64_t block = fs.block();
  const sim::Phase phase = sim::Phase::bu_comm;

  // Measure the owned chunks (a real count on the real words). With the
  // codec on, the same pass really dense-encodes the presence bitmap, so
  // the presence component rides *measured* encoded bytes.
  const bool coded = cfg.codec != bfs::CodecMode::off && np > 1;
  std::uint64_t my_nnz = 0;
  std::uint64_t my_penc = 0;
  std::vector<std::uint8_t> pbuf;
  for (int q : parts()) {
    const ChunkScan s = eng_.measure(q, coded);
    std::uint64_t words = s.scan_words;
    if (coded) {
      pbuf.clear();
      const std::size_t nb = graph::codec::encode_dense(s.presence, pbuf);
      my_penc += static_cast<std::uint64_t>(nb);
      words += (nb + 7) / 8;
    }
    p_.charge(phase, u.stream_pass_ns(words));
    my_nnz = std::max(my_nnz, s.nnz);
  }
  const std::uint64_t max_nnz =
      rt::allreduce_max(p_, world, my_nnz, sim::Phase::stall);

  const std::uint64_t g = cfg.summary_granularity;
  const std::uint64_t sum_bytes =
      (graph::SummaryView::summary_bits_for(block, g) + 7) / 8;
  const std::uint64_t presence_raw = (block + 7) / 8;
  std::uint64_t presence_bytes = presence_raw;
  if (coded) {
    // Mean over the np partition encodings (each chunk transits once per
    // hop, so the honest charge is the summed volume divided out), same as
    // the bitmap exchange. Measured gate: the codec rides only when the
    // real encodings won on average.
    const std::uint64_t enc_mean =
        (rt::allreduce_sum(p_, world, my_penc, sim::Phase::stall) +
         static_cast<std::uint64_t>(np) - 1) /
        static_cast<std::uint64_t>(np);
    if (enc_mean < presence_raw) presence_bytes = enc_mean;
  }
  const bool presence_coded = presence_bytes < presence_raw;
  const std::uint64_t payload = max_nnz * eng_.entry_bytes();
  const std::uint64_t chunk_bytes = presence_bytes + sum_bytes + payload;
  const std::uint64_t raw_chunk_bytes = presence_raw + sum_bytes + payload;

  // Landing partition `src`'s chunk in this rank's replica: its out slab
  // (plus the engine's payload), and its summary groups — a group maps
  // into at most two replica groups when the granularity does not divide
  // the block; mark() is atomic, so the parallel-subgroup plan can merge
  // disjoint blocks concurrently.
  auto frontier = fs.frontier(p_.rank);
  graph::SummaryView in_s = fs.frontier_summary(p_.rank);
  const auto land = [&](int src) {
    const std::uint64_t words = fs.slab_words();
    std::memcpy(frontier.data() + static_cast<std::uint64_t>(src) * words,
                fs.out(src).data(), words * 8);
    eng_.land_payload(src);
    if (src != p_.rank) {  // own chunk: no transmission
      auto& cnt = p_.prof.counters();
      (c.node_of(src) == p_.node ? cnt.bytes_intra_node
                                 : cnt.bytes_inter_node) += chunk_bytes;
      cnt.bytes_raw_equiv += raw_chunk_bytes;
    }
  };
  const auto merge = [&](int src) {
    auto src_s = fs.out_summary(src);
    const std::uint64_t base = static_cast<std::uint64_t>(src) * fs.stride();
    src_s.bits().for_each_set(0, src_s.size_bits(), [&](std::uint64_t b) {
      const std::uint64_t lo = base + b * g;
      in_s.mark(lo);
      in_s.mark(std::min(base + block, lo + g) - 1);
    });
  };
  const std::uint64_t sum_words = (fs.summary_bits() + 63) / 64;

  const bool degraded = inj != nullptr && inj->any_dead();
  const bool acts_leader = degraded
                               ? p_.local == inj->lowest_live_local(p_.node)
                               : p_.is_node_leader();
  p_.barrier(world, sim::Phase::stall);  // every partition's out words ready

  using Kind = bfs::AllgatherPlan::Kind;
  const bfs::AllgatherPlan plan = bfs::select_allgather_plan(c, cfg, degraded);
  cm::CollTimes qt = plan.times(c, chunk_bytes);
  if (plan.kind == Kind::private_replicas ||
      (plan.kind == Kind::leader && acts_leader)) {
    // Private replicas: every rank assembles its own. Node-shared frontier:
    // the leader assembles it; the broadcast step is gone, and sharing the
    // out slabs too (Sharing::all) drops the gather step as well.
    for (int r = 0; r < np; ++r) land(r);
    in_s.bits().reset();
    for (int r = 0; r < np; ++r) merge(r);
    p_.charge(phase, u.stream_pass_ns(sum_words));
  } else if (plan.kind == Kind::subgroups) {
    // Parallel subgroups (Fig. 7): each color assembles its slice of every
    // node chunk in place; blocks are word-disjoint, so no atomics needed.
    // The shared summary needs one wipe before the colors' atomic merges.
    if (p_.is_node_leader()) {
      in_s.bits().reset();
      p_.charge(phase, u.stream_pass_ns(sum_words));
    }
    p_.barrier(c.node_comm(p_.node), sim::Phase::stall);  // wipe first
    for (int m = 0; m < c.topo().nodes(); ++m) {
      land(m * c.ppn() + p_.local);
      merge(m * c.ppn() + p_.local);
    }
  }

  // A degraded fabric stretches the inter-node stage; the presence-bitmap
  // decode overlaps the wire, as in the hybrid exchange.
  bfs::stretch_degraded(p_, qt);
  double total_ns = qt.total_ns;
  if (presence_coded)
    total_ns = bfs::overlap_decode(
        p_, total_ns,
        u.stream_pass_ns(plan.assembled_chunks(c) * ((block + 63) / 64)),
        std::max(1, cfg.exchange_chunks));
  p_.charge(phase, total_ns);
  p_.barrier(world, phase);  // the collective completes together
  p_.trace_instant(obs::kCatEngine, spec_.exchange_event,
                   obs::kv("chunk_bytes", chunk_bytes) + "," +
                       obs::kv("raw_bytes", raw_chunk_bytes) + "," +
                       obs::kv("coded", presence_coded ? "yes" : "no"));

  // Wipe the owned out slabs for the next level.
  for (int q : parts()) p_.charge(phase, u.stream_pass_ns(fs.wipe_out(q)));
  p_.barrier(world, sim::Phase::stall);  // wipes land before the next level
}

bool LevelDriver::abort_horizon() {
  // Checked only at clock-aligned points (level entry, and after the crash
  // detection point), so every rank observes the abort at the same level
  // and the run stays bit-deterministic.
  if (p_.clock.now_ns() < spec_.abort_at_ns) return false;
  if (p_.rank == recorder()) {
    record_.aborted = true;
    record_.abort_ns = p_.clock.now_ns();
    eng_.aborted();
  }
  return true;
}

void LevelDriver::run(LevelPosition pos) {
  rt::Comm& world = p_.cluster->world();
  const auto save = [&](int q) { eng_.save(q); };
  const auto restore = [&](int q) { eng_.restore(q); };
  while (eng_.more()) {
    const double level_t0 = p_.clock.now_ns();
    if (abort_horizon() || eng_.past_limit(pos.level)) break;

    // Cross-replica epoch export: partition owners persist their state,
    // the recorder one replica copy and the position. The closing barrier
    // runs before the crash point, so an exported epoch always describes a
    // fully pre-death state, even when the exporting rank is the one dying.
    LevelPosition* xp = spec_.export_to;
    if (xp != nullptr) {
      for (int q : parts()) eng_.export_part(q);
      if (p_.rank == recorder()) {
        eng_.export_replica();
        *xp = pos;
        xp->valid = true;
      }
      p_.barrier(world, sim::Phase::stall);  // epoch complete pre-death
      if (p_.rank == recorder()) eng_.exported(pos.level);
    }

    // Crash levels count from the first kernel, which runs at level 1.
    if (rank_.crash_point(pos.level - 1, save)) return;

    const DirInputs in = eng_.advance(pos, parts());

    // Everything this iteration computed is discarded on a recovery; the
    // frontier inputs were never touched, so the level simply re-runs.
    if (rank_.recovered(restore)) {
      p_.trace_span(obs::kCatEngine, "recovery.rollback", level_t0,
                    p_.clock.now_ns(),
                    obs::kv("level", pos.level) + "," +
                        obs::kv("parts", static_cast<int>(parts().size())));
      continue;
    }
    // A death mid-level voids this level's results: they would have
    // completed after the replica stopped answering.
    if (abort_horizon()) break;

    if (p_.rank == recorder()) record_.directions.push_back(pos.dir);
    if (!eng_.close(pos, level_t0, p_.rank == recorder())) break;
    exchange();
    eng_.exchanged(pos, level_t0);
    if (eng_.direction_optimizing()) choose(in, pos);
    ++pos.level;
  }
  p_.barrier(world, sim::Phase::stall);
}

}  // namespace numabfs::engine
