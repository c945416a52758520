#include "bfs/level_loop.hpp"

#include <string>

#include "obs/trace.hpp"
#include "runtime/allgather.hpp"

namespace numabfs::bfs {

BeamerLoop::BeamerLoop(rt::Cluster& c, const char* entry, const Config& cfg,
                       std::uint64_t n)
    : c_(c), recovery_(c, entry, "traversal"), cfg_(cfg), n_(n) {}

void BeamerLoop::run(rt::Proc& p, std::uint64_t root_degree,
                     std::uint64_t unvisited_edges, const LevelSteps& s) {
  rt::Comm& world = c_.world();
  faults::LevelRecovery::Rank rec(recovery_, p);

  // Frontier stats of "level -1": the root alone. The very first level
  // profits from knowing the root's degree.
  const std::uint64_t frontier_edges =
      rt::allreduce_sum(p, world, root_degree, sim::Phase::stall);
  if (p.rank == rec.recorder()) traversed_ = frontier_edges;
  int dir = cfg_.direction == Direction::bottom_up_only ? 1 : 0;
  if (cfg_.direction == Direction::hybrid) {
    const std::uint64_t rem =
        rt::allreduce_sum(p, world, unvisited_edges, sim::Phase::stall);
    if (static_cast<double>(frontier_edges) >
        static_cast<double>(rem) / cfg_.alpha)
      dir = 1;
  }
  if (s.inputs) s.inputs(dir, rec.parts());

  std::uint64_t prev_nf = 1;  // the root seeds level 0's frontier
  int level = 0;
  for (;;) {
    const double level_t0 = p.clock.now_ns();
    if (rec.crash_point(level, s.save)) return;

    const LevelCounts my = s.kernels(dir, level, rec.parts());
    const std::uint64_t nf =
        rt::allreduce_sum(p, world, my.discovered, sim::Phase::stall);
    const std::uint64_t mf =
        rt::allreduce_sum(p, world, my.discovered_edges, sim::Phase::stall);
    const std::uint64_t rem =
        rt::allreduce_sum(p, world, my.unvisited_edges, sim::Phase::stall);

    // Crash detection point: a rank dies at the start of a level, before
    // contributing to its kernels or reductions, whose barriers give
    // every survivor a consistent view of the death.
    const double rb_t0 = p.clock.now_ns();
    if (rec.recovered(s.restore)) {
      if (s.inputs) s.inputs(dir, rec.parts());
      p.trace_span(obs::kCatBfs, "recovery.rollback", rb_t0,
                   p.clock.now_ns(),
                   obs::kv("level", level) + "," +
                       obs::kv("parts",
                               static_cast<int>(rec.parts().size())));
      continue;  // re-run the level (level/dir/prev_nf unchanged)
    }

    const bool recorder = p.rank == rec.recorder();
    if (recorder) {
      directions_.push_back(dir);
      frontier_.push_back(prev_nf);
      discovered_.push_back(nf);
      visited_ += nf;
      traversed_ += mf;
    }

    // Decide the next level's direction first: it selects the exchange.
    // td -> bu additionally requires a *growing* frontier (Beamer): at
    // the tail the remaining-edge denominator collapses and the ratio
    // test alone would bounce back into bottom-up for a dying frontier.
    int next = dir;
    if (cfg_.direction == Direction::hybrid) {
      if (dir == 0 && nf > prev_nf &&
          static_cast<double>(mf) > static_cast<double>(rem) / cfg_.alpha)
        next = 1;
      else if (dir == 1 &&
               static_cast<double>(nf) < static_cast<double>(n_) / cfg_.beta)
        next = 0;
    }
    prev_nf = nf;

    ExchangeLevelStats ex;
    if (nf > 0) {
      ex = s.exchange(dir, next, rec.parts());
      p.trace_instant(obs::kCatBfs, "codec.gate",
                      obs::kv("level", level) + "," +
                          obs::kv("kind", graph::codec::to_string(ex.codec)) +
                          "," + obs::kv("wire_bytes", ex.wire_bytes) + "," +
                          obs::kv("raw_bytes", ex.raw_bytes));
    }
    s.close(recorder, nf > 0 ? &ex : nullptr);
    p.trace_span(obs::kCatBfs, "level " + std::to_string(level), level_t0,
                 p.clock.now_ns(),
                 obs::kv("dir", dir == 0 ? "td" : "bu") + "," +
                     obs::kv("discovered", nf));
    if (nf == 0) break;
    dir = next;
    ++level;
  }
  p.barrier(world, sim::Phase::stall);
}

void BeamerLoop::finish(BfsResult& out) const {
  const sim::RunProfile prof = sim::aggregate(c_.profiles());
  out.time_ns = prof.max_total_ns;
  out.visited = visited_;
  out.traversed_directed_edges = traversed_;
  out.directions = directions_;
  out.tally(directions_, recovery_, prof);
  out.profile_max = prof.max;
}

}  // namespace numabfs::bfs
