#include "probes.hpp"

#include <algorithm>
#include <span>

#include "graph/codec.hpp"
#include "runtime/allgather.hpp"

namespace perfbench {

namespace rt = numabfs::rt;
namespace codec = numabfs::graph::codec;

namespace {

constexpr int kSpawnReps = 21;
constexpr int kBarrierRuns = 7;
constexpr int kBarriersPerRun = 200;
constexpr int kAllgatherRuns = 7;
constexpr int kAllgathersPerRun = 5;
constexpr int kCodecReps = 7;

}  // namespace

void probe_runtime(rt::Cluster& c, std::uint64_t frontier_bits, Spans& spans,
                   Result& res) {
  Scope all(spans, "runtime.probe");

  std::vector<double> spawn;
  for (int i = 0; i < kSpawnReps; ++i) {
    Scope s(spans, "runtime.run");
    c.run([](rt::Proc&) {});
    spawn.push_back(s.stop() * 1e3);
  }
  res.host["runtime.spawn_ms"] = median(spawn);
  res.samples["runtime.spawn_ms"] = kSpawnReps;

  // Rank 0 times a run of back-to-back barriers between two rendezvous, so
  // thread start-up stays outside the window.
  std::vector<double> barrier;
  for (int i = 0; i < kBarrierRuns; ++i) {
    Scope s(spans, "runtime.barrier");
    double dt = 0;
    c.run([&](rt::Proc& p) {
      p.barrier(c.world(), numabfs::sim::Phase::stall);
      const double t0 = host_now_s();
      for (int b = 0; b < kBarriersPerRun; ++b)
        p.barrier(c.world(), numabfs::sim::Phase::stall);
      if (p.rank == 0) dt = host_now_s() - t0;
    });
    barrier.push_back(dt / kBarriersPerRun * 1e6);
  }
  res.host["runtime.barrier_us"] = median(barrier);
  res.samples["runtime.barrier_us"] = kBarrierRuns * kBarriersPerRun;

  const int np = c.nranks();
  const std::uint64_t chunk_words =
      (frontier_bits + 64ull * static_cast<std::uint64_t>(np) - 1) /
      (64ull * static_cast<std::uint64_t>(np));
  std::vector<std::vector<std::uint64_t>> src(static_cast<std::size_t>(np)),
      dst(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    src[static_cast<std::size_t>(r)].assign(chunk_words,
                                            mix64(static_cast<std::uint64_t>(r)));
    dst[static_cast<std::size_t>(r)].assign(chunk_words * static_cast<std::uint64_t>(np), 0);
  }
  std::vector<double> ag;
  for (int i = 0; i < kAllgatherRuns; ++i) {
    Scope s(spans, "runtime.allgather");
    double dt = 0;
    c.run([&](rt::Proc& p) {
      const auto r = static_cast<std::size_t>(p.rank);
      p.barrier(c.world(), numabfs::sim::Phase::stall);
      const double t0 = host_now_s();
      for (int a = 0; a < kAllgathersPerRun; ++a)
        rt::allgather(p, c.world(), src[r], dst[r],
                      rt::AllgatherAlgo::flat_ring,
                      numabfs::sim::Phase::bu_comm);
      p.barrier(c.world(), numabfs::sim::Phase::stall);
      if (p.rank == 0) dt = host_now_s() - t0;
    });
    ag.push_back(dt / kAllgathersPerRun * 1e3);
  }
  for (int r = 0; r < np; ++r)
    for (int q = 0; q < np; ++q)
      if (dst[static_cast<std::size_t>(r)][static_cast<std::size_t>(q) * chunk_words] !=
          mix64(static_cast<std::uint64_t>(q)))
        wrong_answer("runtime.allgather probe: rank " + std::to_string(r) +
                     " holds a wrong chunk " + std::to_string(q));
  res.host["runtime.allgather_ms"] = median(ag);
  res.samples["runtime.allgather_ms"] = kAllgatherRuns * kAllgathersPerRun;
}

void probe_codec(const std::vector<std::vector<std::uint64_t>>& levels,
                 std::uint64_t chunk_words, Spans& spans, Result& res) {
  Scope all(spans, "codec.probe");
  std::uint64_t raw_bytes = 0;
  for (const auto& lv : levels) raw_bytes += 2 * lv.size() * 8;  // 2 encoders

  std::vector<double> enc_rate, dec_rate;
  std::vector<std::uint8_t> buf;
  std::vector<std::uint64_t> out(chunk_words);
  for (int rep = 0; rep < kCodecReps; ++rep) {
    double enc_s = 0, dec_s = 0;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const auto& lv = levels[l];
      for (std::uint64_t off = 0; off < lv.size(); off += chunk_words) {
        const std::span<const std::uint64_t> chunk(
            lv.data() + off, std::min<std::uint64_t>(chunk_words, lv.size() - off));
        for (int enc = 0; enc < 2; ++enc) {
          buf.clear();
          {
            Scope s(spans, "codec.encode", &enc_s);
            if (enc == 0)
              codec::encode_dense(chunk, buf);
            else
              codec::encode_bitmap_sparse(chunk, buf);
          }
          const std::span<std::uint64_t> dst(out.data(), chunk.size());
          {
            Scope s(spans, "codec.decode", &dec_s);
            codec::decode_bitmap(buf, dst);
          }
          if (!std::equal(chunk.begin(), chunk.end(), dst.begin()))
            wrong_answer("codec probe: level " + std::to_string(l) +
                         " chunk at word " + std::to_string(off) +
                         " does not round-trip");
        }
      }
    }
    enc_rate.push_back(static_cast<double>(raw_bytes) / enc_s / 1e6);
    dec_rate.push_back(static_cast<double>(raw_bytes) / dec_s / 1e6);
  }
  res.host["codec.encode_mbps"] = median(enc_rate);
  res.host["codec.decode_mbps"] = median(dec_rate);
  res.samples["codec.encode_mbps"] = kCodecReps;
  res.samples["codec.decode_mbps"] = kCodecReps;
}

std::vector<std::vector<std::uint64_t>> level_bitmaps(
    const numabfs::graph::BfsTree& t, std::uint64_t padded_bits) {
  std::uint32_t max_d = 0;
  for (std::size_t v = 0; v < t.depth.size(); ++v)
    if (t.reached(static_cast<numabfs::graph::Vertex>(v))) max_d = std::max(max_d, t.depth[v]);
  std::vector<std::vector<std::uint64_t>> out(
      max_d + 1, std::vector<std::uint64_t>((padded_bits + 63) / 64, 0));
  for (std::size_t v = 0; v < t.depth.size(); ++v)
    if (t.reached(static_cast<numabfs::graph::Vertex>(v)))
      out[t.depth[v]][v >> 6] |= 1ull << (v & 63);
  return out;
}

}  // namespace perfbench
