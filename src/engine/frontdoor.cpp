#include "engine/frontdoor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "harness/graph500.hpp"
#include "obs/trace.hpp"

namespace numabfs::engine {

const char* to_string(SloClass c) {
  switch (c) {
    case SloClass::full_distance: return "full";
    case SloClass::k_hop: return "khop";
    case SloClass::reachability: return "reach";
    case SloClass::analytics: return "analytics";
    case SloClass::kCount: break;
  }
  return "?";
}

SloClass slo_class_of(QueryKind k) {
  switch (k) {
    case QueryKind::full_distances: return SloClass::full_distance;
    case QueryKind::k_hop: return SloClass::k_hop;
    case QueryKind::st_reachability: return SloClass::reachability;
    case QueryKind::sssp:
    case QueryKind::pagerank:
    case QueryKind::components:
    case QueryKind::triangles:
      return SloClass::analytics;
  }
  return SloClass::full_distance;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::pending: return "pending";
    case Outcome::served: return "served";
    case Outcome::failed_over: return "failed_over";
    case Outcome::degraded: return "degraded";
    case Outcome::shed: return "shed";
    case Outcome::lost: return "lost";
  }
  return "?";
}

double heartbeat_detect_ns(double outage_ns, double period_ns,
                           double backoff_ns, int threshold) {
  const double inf = std::numeric_limits<double>::infinity();
  if (!(outage_ns < inf)) return inf;
  // First unanswered probe: the earliest multiple of the period at or
  // after the outage (a probe sent exactly at the outage instant is lost —
  // heartbeat_ok is `now < outage`).
  const double t0 = std::ceil(std::max(0.0, outage_ns) / period_ns) *
                    period_ns;
  // threshold-1 backoff re-probes at b, 2b, 4b, ... after the first loss.
  const double extra =
      backoff_ns *
      static_cast<double>((1ull << static_cast<unsigned>(threshold - 1)) - 1);
  return t0 + extra;
}

namespace {

// Heartbeat detection: a probe every 250 us from t = 0, the first re-probe
// 50 us after a loss (doubling), and three consecutive losses confirm a
// death (heartbeat_detect_ns).
constexpr double kHeartbeatPeriodNs = 250e3;
constexpr double kHeartbeatBackoffNs = 50e3;
constexpr int kHeartbeatThreshold = 3;
/// Trailing observed waves averaged by the admission estimate.
constexpr int kEstimateWindow = 8;

/// The checkpoint a dispatch exports and resumes from; the alternative it
/// holds is the dispatch's kind.
using Checkpoint = std::variant<WaveCheckpoint, ProgramCheckpoint>;

/// `v` as a checkpoint of kind `Ck`; switching kinds starts it empty.
template <class Ck>
Ck& slot_of(Checkpoint& v) {
  return std::holds_alternative<Ck>(v) ? std::get<Ck>(v) : v.emplace<Ck>();
}

/// A run's virtual duration (max over ranks).
double run_ns(const WaveResult& r) { return r.wave_ns; }
double run_ns(const ProgramResult& r) { return r.total_ns; }

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// The exact-answer degradation cache fed by completed full-distance
/// lanes. The graph is undirected, so a drained full-distance BFS visits
/// its source's entire connected component — which makes both lookups
/// exact, not approximate. Entries carry the virtual instant they became
/// available; lookups at time T ignore anything newer (replica waves
/// overlap in virtual time, so "already computed" is a T-relative fact).
///
/// Entries are additionally keyed by the dynamic-graph epoch they were
/// harvested from: a distance array (or component labeling) computed
/// against an older snapshot is stale the moment the serving epoch moves —
/// an edge added since can merge components or shorten k-hop balls, so a
/// stale "exact" answer would silently be wrong. The cache keeps one
/// epoch's worth of answers and resets wholesale when a harvest or lookup
/// arrives from a newer epoch (epochs only move forward).
class DegradeCache {
 public:
  explicit DegradeCache(const graph::DistGraph& dg)
      : n_(dg.n),
        comp_(dg.n, -1),
        comp_avail_(dg.n, 0.0) {}

  void harvest(const graph::DistGraph& dg, WaveState& ws, int lane,
               graph::Vertex source, double avail_ns, std::uint64_t epoch) {
    roll_to(epoch);
    auto d = gather_lane_distances(dg, ws, lane);
    int c = comp_[source];
    if (c < 0) c = next_comp_++;
    for (graph::Vertex v = 0; v < n_; ++v) {
      if (d[v] == kUnreached || comp_[v] >= 0) continue;
      comp_[v] = c;
      comp_avail_[v] = avail_ns;
    }
    dists_.try_emplace(source, avail_ns, std::move(d));
  }

  /// Exact s-t reachability at time T against snapshot `epoch`, when some
  /// completed full-distance BFS of that same epoch has labeled either
  /// endpoint's component by then.
  bool try_reach(graph::Vertex s, graph::Vertex t, double T,
                 std::uint64_t epoch, bool& reached) const {
    if (epoch != epoch_) return false;  // cached answers predate the snapshot
    if (comp_[s] >= 0 && comp_avail_[s] <= T) {
      reached = comp_[t] == comp_[s];
      return true;
    }
    if (comp_[t] >= 0 && comp_avail_[t] <= T) {
      reached = comp_[s] == comp_[t];
      return true;
    }
    return false;
  }

  /// Exact k-hop neighborhood size at time T against snapshot `epoch`,
  /// when this exact source has a same-epoch cached distance array by then.
  bool try_khop(graph::Vertex s, int k, double T, std::uint64_t epoch,
                std::uint64_t& visited) const {
    if (epoch != epoch_) return false;
    const auto it = dists_.find(s);
    if (it == dists_.end() || it->second.first > T) return false;
    std::uint64_t n = 0;
    for (const Dist d : it->second.second)
      n += d != kUnreached && d <= static_cast<Dist>(k);
    visited = n;
    return true;
  }

 private:
  void roll_to(std::uint64_t epoch) {
    if (epoch == epoch_) return;
    epoch_ = epoch;
    std::fill(comp_.begin(), comp_.end(), -1);
    std::fill(comp_avail_.begin(), comp_avail_.end(), 0.0);
    next_comp_ = 0;
    dists_.clear();
  }

  graph::Vertex n_;
  std::uint64_t epoch_ = 0;  ///< snapshot the cached answers were computed on
  std::vector<int> comp_;
  std::vector<double> comp_avail_;
  int next_comp_ = 0;
  std::map<graph::Vertex, std::pair<double, std::vector<Dist>>> dists_;
};

}  // namespace

FrontDoor::FrontDoor(const bfs::Config& cfg, FrontDoorConfig fdc,
                     std::vector<ReplicaHandle> replicas)
    : cfg_(cfg), fdc_(std::move(fdc)), replicas_(std::move(replicas)) {
  if (replicas_.empty())
    throw std::invalid_argument("FrontDoor: need at least one replica");
  if (const std::string err = fdc_.validate(); !err.empty())
    throw std::invalid_argument("FrontDoor: " + err);
  if (const std::string err = cfg_.validate(); !err.empty())
    throw std::invalid_argument("FrontDoor: " + err);
  const ReplicaHandle& r0 = replicas_.front();
  for (const ReplicaHandle& r : replicas_) {
    if (r.cluster == nullptr || r.dg == nullptr)
      throw std::invalid_argument("FrontDoor: null replica handle");
    if (r.cluster->nranks() != r0.cluster->nranks() ||
        r.cluster->ppn() != r0.cluster->ppn() || r.dg->n != r0.dg->n)
      throw std::invalid_argument(
          "FrontDoor: replicas must share cluster shape and graph");
  }
  // Lanes keep distances only: the door answers from distances, and the
  // per-lane parents are the wave's largest structure.
  states_.reserve(replicas_.size());
  for (const ReplicaHandle& r : replicas_)
    states_.emplace_back(*r.dg, cfg_, r.cluster->topo().nodes(),
                         r.cluster->ppn(), /*track_parents=*/false);
}

FrontDoorReport FrontDoor::serve(std::span<const Query> queries) {
  const auto nq = queries.size();
  for (std::size_t i = 1; i < nq; ++i)
    if (queries[i].arrival_ns < queries[i - 1].arrival_ns)
      throw std::invalid_argument("serve: queries not sorted by arrival");

  FrontDoorReport rep;
  rep.results.assign(nq, ServedQuery{});
  for (std::size_t i = 0; i < nq; ++i) {
    auto& r = rep.results[i];
    r.id = queries[i].id;
    r.kind = queries[i].kind;
    r.cls = slo_class_of(queries[i].kind);
    r.arrival_ns = queries[i].arrival_ns;
  }
  if (nq == 0) return rep;

  const int R = static_cast<int>(replicas_.size());
  const double inf = std::numeric_limits<double>::infinity();

  // Per-replica health + checkpoint export slot. `outage_ns` is
  // tier-absolute virtual time (unlike the plan's windowed events, which
  // restart with each run); `detect_ns` is when the door confirms the death
  // — the heartbeat closed form, possibly advanced by a data-path timeout.
  struct RepState {
    double free_ns = 0;
    double outage_ns = std::numeric_limits<double>::infinity();
    double detect_ns = std::numeric_limits<double>::infinity();
    Checkpoint ckpt;
  };
  std::vector<RepState> reps(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    const faults::FaultInjector* inj = replicas_[r].cluster->injector();
    auto& rs = reps[static_cast<std::size_t>(r)];
    rs.outage_ns = inj != nullptr ? inj->outage_at_ns() : inf;
    rs.detect_ns = heartbeat_detect_ns(rs.outage_ns, kHeartbeatPeriodNs,
                                       kHeartbeatBackoffNs, kHeartbeatThreshold);
  }

  // The one dispatch unit, fresh or failed over: a wave's lanes or one
  // analytics query, the snapshot it serves, and the checkpoint of its kind
  // that its last run exported. A failover re-dispatch resumes from that
  // checkpoint when it is valid (death after the first export); otherwise
  // the unfinished work re-runs from scratch on the healthy replica.
  struct Dispatch {
    std::vector<WaveQuery> batch;   // wave lanes (empty for a program)
    std::vector<std::size_t> idx;   // lane -> query index (a program: one)
    // The pinned snapshot (dynamic graphs): a failover re-dispatch runs
    // against the SAME epoch on the healthy replica — the checkpointed
    // state is only meaningful relative to that adjacency. Holding the
    // shared_ptr keeps the snapshot alive across background compactions.
    PinnedGraph pg;
    Checkpoint ckpt;
    std::uint64_t unfinished = 0;  // wave lanes still active at the abort
    double ready_ns = 0;   // failover: detection instant
    double abort_abs = 0;  // failover: tier-absolute abort time
  };
  std::vector<Dispatch> pending;

  DegradeCache cache(*replicas_.front().dg);
  ProgramCache progs(fdc_.programs);
  const int ncls = static_cast<int>(SloClass::kCount);
  std::vector<std::deque<std::size_t>> queues(static_cast<std::size_t>(ncls));
  std::size_t next = 0;
  std::size_t queued = 0;
  std::size_t unresolved = nq;
  double last_dequeue = 0;
  double now = 0;
  double end_ns = 0;

  // Trailing wave-time history for the admission estimate: only waves
  // whose completion the door has *observed* by time t count.
  struct WaveDone {
    double complete_ns;
    double dur_ns;
  };
  std::vector<WaveDone> history;
  const auto est_wave_ns = [&](double t) {
    double sum = 0;
    int cnt = 0;
    for (auto it = history.rbegin();
         it != history.rend() && cnt < kEstimateWindow; ++it) {
      if (it->complete_ns > t) continue;
      sum += it->dur_ns;
      ++cnt;
    }
    return cnt > 0 ? sum / cnt : 0.0;
  };

  const auto admit = [&](double t) {
    while (next < nq && queries[next].arrival_ns <= t &&
           queued < static_cast<std::size_t>(fdc_.queue_depth)) {
      const double adm = std::max(queries[next].arrival_ns, last_dequeue);
      if (adm > queries[next].arrival_ns) ++rep.backpressured;
      rep.results[next].admit_ns = adm;
      queues[static_cast<std::size_t>(
                 static_cast<int>(slo_class_of(queries[next].kind)))]
          .push_back(next);
      ++queued;
      ++next;
    }
  };

  const auto resolve_degraded = [&](std::size_t qi, double t, bool reached,
                                    std::uint64_t visited) {
    auto& res = rep.results[qi];
    res.outcome = Outcome::degraded;
    res.start_ns = t;
    res.complete_ns = t;
    res.reached = reached;
    res.visited = visited;
    ++rep.degraded;
    --unresolved;
    end_ns = std::max(end_ns, t);
  };
  const auto resolve_dropped = [&](std::size_t qi, Outcome o) {
    rep.results[qi].outcome = o;
    rep.results[qi].complete_ns =
        std::numeric_limits<double>::quiet_NaN();
    ++rep.shed;
    --unresolved;
  };

  // Deadline-aware batch formation into `u`, most-critical class first. A
  // k-hop or reachability query that cannot meet its deadline (by the
  // trailing estimate) is degraded to an exact cached answer when possible,
  // shed otherwise; full-distance queries always ride a wave. Cache lookups
  // are made against the snapshot pinned for this dispatch, so a degraded
  // answer is always consistent with the graph the query would have been
  // served on. Analytics queries are background work: when no wave query
  // is dispatchable, exactly one is popped into the unit (it owns the whole
  // dispatch); they are never shed or degraded. Returns whether the unit
  // has anything to run.
  const auto form_batch = [&](double t, Dispatch& u) {
    const double est = est_wave_ns(t);
    for (int c = 0; c < ncls; ++c) {
      if (static_cast<SloClass>(c) == SloClass::analytics) continue;
      auto& q = queues[static_cast<std::size_t>(c)];
      while (!q.empty() &&
             u.batch.size() < static_cast<std::size_t>(fdc_.max_batch)) {
        const std::size_t qi = q.front();
        const Query& query = queries[qi];
        const auto cls = static_cast<SloClass>(c);
        q.pop_front();
        --queued;
        if (cls != SloClass::full_distance && est > 0 &&
            t + est > query.arrival_ns + fdc_.slo.deadline_ns(cls)) {
          bool reached = false;
          std::uint64_t visited = 0;
          if (cls == SloClass::reachability &&
              cache.try_reach(query.source, query.target, t, u.pg.epoch,
                              reached)) {
            resolve_degraded(qi, t, reached, 0);
          } else if (cls == SloClass::k_hop &&
                     cache.try_khop(query.source, query.k, t, u.pg.epoch,
                                    visited)) {
            resolve_degraded(qi, t, false, visited);
          } else {
            resolve_dropped(qi, Outcome::shed);
          }
          continue;
        }
        rep.results[qi].start_ns = t;
        u.batch.push_back({query.kind, query.source, query.target, query.k});
        u.idx.push_back(qi);
      }
    }
    auto& aq = queues[static_cast<std::size_t>(
        static_cast<int>(SloClass::analytics))];
    if (u.batch.empty() && !aq.empty()) {
      const std::size_t qi = aq.front();
      aq.pop_front();
      --queued;
      rep.results[qi].start_ns = t;
      u.idx.assign(1, qi);
      u.ckpt.emplace<ProgramCheckpoint>();
    }
    return !u.idx.empty();
  };

  // The kind-specific halves of a launch, picked by the unit's checkpoint
  // type. `run` runs the unit on replica `r` with the shared options;
  // `settle` traces the dispatch and resolves the answers that finished.
  const auto run = Overloaded{
      [&](int r, const graph::DistGraph& dg, Dispatch& u,
          const RunOptions<WaveCheckpoint>& o) {
        if (o.resume_from == nullptr && u.unfinished != 0) {
          // No usable epoch (death before the first export): re-run the
          // unfinished lanes — the unit's pending queries — from scratch.
          std::size_t kept = 0;
          for (std::size_t l = 0; l < u.idx.size(); ++l) {
            if (!(u.unfinished >> l & 1)) continue;
            u.batch[kept] = u.batch[l];
            u.idx[kept++] = u.idx[l];
          }
          u.batch.resize(kept);
          u.idx.resize(kept);
          u.unfinished = 0;
        }
        return run_wave(*replicas_[static_cast<std::size_t>(r)].cluster, dg,
                        states_[static_cast<std::size_t>(r)], u.batch,
                        WaveOptions{o, u.unfinished});
      },
      [&](int r, const graph::DistGraph& dg, Dispatch& u,
          const RunOptions<ProgramCheckpoint>& o) {
        rt::Cluster& c = *replicas_[static_cast<std::size_t>(r)].cluster;
        const Query& q = queries[u.idx.front()];
        const FrontierProgram& prog =
            progs.get(workload_of(q.kind), dg, u.pg.epoch);
        ProgramState ps(dg, cfg_, c.topo().nodes(), c.ppn(),
                        prog.with_values());
        return run_program(c, dg, ps, prog, ProgramQuery{q.source, q.target},
                           ProgramOptions{o, fdc_.programs.max_levels});
      }};

  const auto resolve_run = [&](std::size_t qi, int r, bool failed_over,
                               std::uint64_t epoch, double complete_ns,
                               int level) -> ServedQuery& {
    auto& res = rep.results[qi];
    res.outcome = failed_over ? Outcome::failed_over : Outcome::served;
    res.replica = r;
    res.epoch = epoch;
    res.complete_ns = complete_ns;
    res.complete_level = level;
    --unresolved;
    end_ns = std::max(end_ns, complete_ns);
    return res;
  };
  const auto settle = Overloaded{
      // Waves settle their finished lanes (full-distance lanes feed the
      // degradation cache), feed the wave-time estimate and call the sink;
      // unfinished lanes stay in the unit for a failover.
      [&](int r, double start, bool failed_over, const graph::DistGraph& dg,
          Dispatch& u, const WaveResult& wr) {
        if (obs::Tracer* tr = replicas_[static_cast<std::size_t>(r)]
                                  .cluster->tracer())
          tr->instant(tr->host_track(), obs::kCatEngine,
                      failed_over ? "wave.failover" : "wave.dispatch", start,
                      obs::kv("replica", r) + "," +
                          obs::kv("batch", static_cast<int>(u.batch.size())));
        ++rep.waves;
        history.push_back({start + wr.wave_ns, wr.wave_ns});
        WaveState& ws = states_[static_cast<std::size_t>(r)];
        for (std::size_t l = 0; l < u.idx.size(); ++l) {
          const LaneResult& lr = wr.lanes[l];
          if (!lr.finished) continue;
          auto& res = resolve_run(u.idx[l], r, failed_over, wr.epoch,
                                  start + lr.complete_ns, lr.complete_level);
          res.reached = lr.reached;
          res.visited = lr.visited;
          if (u.batch[l].kind == QueryKind::full_distances)
            cache.harvest(dg, ws, static_cast<int>(l), u.batch[l].source,
                          res.complete_ns, wr.epoch);
        }
        if (fdc_.sink) fdc_.sink(r, u.batch, wr, ws);
        u.unfinished = wr.unfinished;
      },
      // A program settles its one value. Program runs deliberately do NOT
      // feed the wave-time estimate: they run far longer than a wave, and
      // counting them would make the admission policy shed interactive
      // queries after every analytics job.
      [&](int r, double start, bool failed_over, const graph::DistGraph&,
          Dispatch& u, const ProgramResult& pr) {
        const Query& q = queries[u.idx.front()];
        if (obs::Tracer* tr = replicas_[static_cast<std::size_t>(r)]
                                  .cluster->tracer())
          tr->instant(tr->host_track(), obs::kCatEngine,
                      failed_over ? "program.failover" : "program.dispatch",
                      start,
                      obs::kv("replica", r) + "," + obs::kv("query", q.id) +
                          "," +
                          obs::kv("workload", to_string(workload_of(q.kind))));
        ++rep.program_runs;
        if (pr.aborted) return;
        resolve_run(u.idx.front(), r, failed_over, pr.epoch,
                    start + pr.total_ns, pr.levels)
            .value = pr.value;
      }};

  // Run one dispatch unit on replica `r` at tier time `start` and account
  // for it: settle its answers, and turn an abort into a pending failover
  // unit. Fresh, resumed and re-run dispatches of both kinds share it.
  const auto launch = [&](int r, double start, Dispatch u, bool failed_over) {
    auto& rs = reps[static_cast<std::size_t>(r)];
    // Snapshot acquisition is on the serving path: the pin delays the run
    // (a failover re-dispatch carries pin_ns = 0 — it already holds the
    // snapshot). Replicas are content-identical, so one pinned view stands
    // in for each replica's local copy of the same epoch.
    start += u.pg.pin_ns;
    const graph::DistGraph& dg =
        u.pg.graph != nullptr ? *u.pg.graph
                              : *replicas_[static_cast<std::size_t>(r)].dg;
    obs::Tracer* tr = replicas_[static_cast<std::size_t>(r)].cluster->tracer();
    const double abort_abs = std::visit(
        [&](auto& ck) {
          using Ck = std::remove_reference_t<decltype(ck)>;
          RunOptions<Ck> o;
          o.epoch = u.pg.epoch;
          if (rs.outage_ns < inf) o.abort_at_ns = rs.outage_ns - start;
          o.export_to = &slot_of<Ck>(rs.ckpt);
          if (ck.valid) o.resume_from = &ck;

          if (tr != nullptr) tr->set_base_ns(start);
          const auto res = run(r, dg, u, o);
          if (tr != nullptr) tr->set_base_ns(0);
          settle(r, start, failed_over, dg, u, res);

          rep.levels += res.levels;
          rep.recoveries += res.recoveries;
          rep.ranks_lost = std::max(rep.ranks_lost, res.ranks_lost);
          rep.busy_ns += run_ns(res);
          rep.counters += res.profile_avg.counters();
          rs.free_ns = start + run_ns(res);
          end_ns = std::max(end_ns, rs.free_ns);
          if (!res.aborted) return inf;
          // The unit fails over with the checkpoint this run exported.
          ck = std::move(*o.export_to);
          *o.export_to = Ck{};
          return start + res.abort_ns;
        },
        u.ckpt);
    if (!(abort_abs < inf)) return;
    // The run timed out at the door: a data-path detection signal, often
    // well ahead of the heartbeat prober. Either way, the replica is out
    // and the unit waits for the detection.
    rs.detect_ns = std::min(rs.detect_ns, abort_abs + kHeartbeatBackoffNs);
    u.ready_ns = rs.detect_ns;
    u.abort_abs = abort_abs;
    u.pg.pin_ns = 0;  // the snapshot is already held; no re-pin charge
    pending.push_back(std::move(u));
  };

  while (unresolved > 0) {
    admit(now);

    bool launched = false;
    for (int r = 0; r < R; ++r) {
      auto& rs = reps[static_cast<std::size_t>(r)];
      if (now >= rs.detect_ns) continue;  // confirmed down
      if (rs.free_ns > now) continue;     // mid-run

      // Failover units outrank fresh dispatches: their queries are the
      // oldest in the system and already paid the detection blip.
      const auto ready = std::find_if(
          pending.begin(), pending.end(),
          [&](const Dispatch& u) { return u.ready_ns <= now; });
      if (ready != pending.end()) {
        Dispatch u = std::move(*ready);
        pending.erase(ready);
        ++rep.failovers;
        rep.failover_blip_ns =
            std::max(rep.failover_blip_ns, now - u.abort_abs);
        launch(r, now, std::move(u), true);
        launched = true;
        continue;
      }

      // The snapshot is pinned BEFORE the batch forms: degradation-cache
      // lookups inside form_batch answer against the epoch this dispatch
      // would serve, never against a stale labeling from an older snapshot.
      Dispatch u;
      if (fdc_.graph_source) u.pg = fdc_.graph_source(now);
      if (!form_batch(now, u)) continue;  // everything degraded or shed
      launch(r, now, std::move(u), false);
      last_dequeue = now;
      admit(now);  // freed queue slots let door-blocked arrivals in
      launched = true;
    }
    if (launched) continue;

    // Advance virtual time to the next event: a replica freeing up, the
    // next admissible arrival, or a failover unit becoming ready.
    double tnext = inf;
    for (int r = 0; r < R; ++r) {
      const auto& rs = reps[static_cast<std::size_t>(r)];
      if (rs.free_ns > now && rs.free_ns < rs.detect_ns)
        tnext = std::min(tnext, rs.free_ns);
    }
    if (next < nq && queued < static_cast<std::size_t>(fdc_.queue_depth))
      tnext = std::min(tnext, queries[next].arrival_ns);
    for (const Dispatch& u : pending)
      if (u.ready_ns > now) tnext = std::min(tnext, u.ready_ns);

    if (!(tnext < inf)) {
      // No event can ever serve the remainder: every replica is down.
      for (auto& q : queues)
        for (const std::size_t qi : q) resolve_dropped(qi, Outcome::lost);
      for (const Dispatch& u : pending)
        for (const std::size_t qi : u.idx)
          if (rep.results[qi].outcome == Outcome::pending)
            resolve_dropped(qi, Outcome::lost);
      while (next < nq) resolve_dropped(next++, Outcome::lost);
      break;
    }
    now = std::max(now, tnext);
  }
  end_ns = std::max(end_ns, now);

  // Aggregate per class. Shed and lost queries are misses by definition.
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(ncls));
  std::vector<int> met(static_cast<std::size_t>(ncls), 0);
  for (auto& res : rep.results) {
    const auto c = static_cast<std::size_t>(static_cast<int>(res.cls));
    auto& cs = rep.cls[c];
    ++cs.submitted;
    switch (res.outcome) {
      case Outcome::served:
      case Outcome::failed_over: ++cs.served; break;
      case Outcome::degraded: ++cs.degraded; break;
      case Outcome::shed:
      case Outcome::lost:
      case Outcome::pending: ++cs.shed; continue;
    }
    res.slo_met = res.latency_ns() <= fdc_.slo.deadline_ns(res.cls);
    met[c] += res.slo_met ? 1 : 0;
    lat[c].push_back(res.latency_ns());
  }
  for (int c = 0; c < ncls; ++c) {
    auto& cs = rep.cls[c];
    const auto& v = lat[static_cast<std::size_t>(c)];
    if (!v.empty()) {
      cs.mean_ns = harness::mean(v);
      cs.p50_ns = harness::percentile(v, 50);
      cs.p95_ns = harness::percentile(v, 95);
      cs.p99_ns = harness::percentile(v, 99);
    }
    cs.attainment =
        cs.submitted > 0
            ? static_cast<double>(met[static_cast<std::size_t>(c)]) /
                  cs.submitted
            : 1.0;
  }
  rep.total_ns = end_ns;
  rep.shed_rate = static_cast<double>(rep.shed) / static_cast<double>(nq);
  for (int r = 0; r < R; ++r)
    if (reps[static_cast<std::size_t>(r)].detect_ns <= end_ns)
      ++rep.replicas_lost;
  return rep;
}

}  // namespace numabfs::engine
