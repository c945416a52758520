/// numabench — the numabfs benchmark binary.
///
///   numabench --workload=<bfs1d|scale2d|serve> --seed=<n> --seconds=<s>
///             [--trace=<0|1>] [--trace-dir=<dir>]
///
/// Sets the workload up several times (setup_s is the median), then runs
/// passes of it until the seconds are spent. With --trace=1 it also probes
/// the layers, runs a second set of passes with host spans and the
/// program's obs::Tracer attached, prints each layer's self time and writes
/// both traces as Chrome-trace JSON under --trace-dir. The last line of
/// stdout is one JSON object with every host and virtual value; run.py turns
/// it into the benchmark's result line. A wrong answer exits with code 3.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workload.hpp"

namespace {

using namespace perfbench;

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

template <class M, class F>
std::string json_map(const M& m, F fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_str(k) + ":" + fmt(v);
  }
  return out + "}";
}

Ctx parse(int argc, char** argv, std::string& workload) {
  Ctx ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::invalid_argument("expected --key=value, got '" + a + "'");
    const std::string k = a.substr(2, eq - 2), v = a.substr(eq + 1);
    if (k == "workload")
      workload = v;
    else if (k == "seed")
      ctx.seed = std::stoull(v);
    else if (k == "seconds")
      ctx.seconds = std::stod(v);
    else if (k == "trace")
      ctx.trace = v == "1";
    else if (k == "trace-dir")
      ctx.trace_dir = v;
    else
      throw std::invalid_argument("unknown option --" + k);
  }
  if (!(ctx.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return ctx;
}

/// Pin the process to one CPU, the last one it may use; the rank threads
/// it starts later inherit the mask. They then take turns on one core, so
/// their CPU time is their work plus the cost of handing the core over at
/// each barrier. Spread over four vCPUs, their CPU time also counts how
/// they overlap, and that moves with how many vCPUs the hypervisor runs at
/// the moment: during bursts of host load, scale2d's and serve's CPU time
/// read 40-45% high for minutes while the single-threaded set-up of the
/// same runs read as before.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    std::cerr << "numabench: could not pin to CPU " << last << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  Ctx ctx;
  try {
    ctx = parse(argc, argv, name);
  } catch (const std::exception& e) {
    std::cerr << "numabench: " << e.what() << "\n";
    return 2;
  }
  pin_to_one_cpu();
  std::unique_ptr<Workload> w;
  if (name == "bfs1d")
    w = make_bfs1d(ctx);
  else if (name == "scale2d")
    w = make_scale2d(ctx);
  else if (name == "serve")
    w = make_serve(ctx);
  else {
    std::cerr << "numabench: unknown workload '" << name << "'\n";
    return 2;
  }

  const double t_start = host_now_s();
  Result res;
  Spans spans(ctx.trace);
  Spans untraced(false);

  // Set-up, repeated: setup_s and its components are medians.
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> comp;
  for (int i = 0; i < w->setup_reps(); ++i) {
    spans.set_op(-1);
    double total = 0;
    for (const auto& [k, v] : w->setup(i == 0 ? spans : untraced, res)) {
      comp[k].push_back(v);
      total += v;
    }
    setup_s.push_back(total);
  }
  res.host["setup_s"] = median(setup_s);
  res.samples["setup_s"] = static_cast<long>(setup_s.size());
  for (const auto& [k, v] : comp) res.host[k] = median(v);
  if (ctx.trace) w->probe(spans, res);

  // Untraced passes give the end-to-end figures; a traced run spends half
  // its time on them (the trace-overhead baseline) and half traced.
  const double t_measure = host_now_s();
  const double untraced_end = t_measure + ctx.seconds * (ctx.trace ? 0.5 : 1.0);
  std::vector<PassStats> plain, traced;
  int pass = 0;
  do {
    plain.push_back(w->pass(pass++, untraced, false, res));
  } while (host_now_s() < untraced_end ||
           static_cast<int>(plain.size()) < kMinPasses);
  if (ctx.trace) {
    const double end = t_measure + ctx.seconds;
    do {
      traced.push_back(w->pass(pass++, spans, true, res));
    } while (host_now_s() < end);
  }

  // Every host figure is taken per pass, then the median over passes, so a
  // burst of contention on the host spoils one pass rather than the run.
  const double tail_p = tail_percentile(static_cast<std::size_t>(w->ops_per_pass()));
  std::vector<double> sim, wall, op50, optail;
  long ops = 0;
  for (const PassStats& ps : plain) {
    sim.push_back(ps.sim_s);
    wall.push_back(ps.wall_s);
    op50.push_back(percentile(ps.op_ms, 50));
    optail.push_back(percentile(ps.op_ms, tail_p));
    ops += static_cast<long>(ps.op_ms.size());
  }
  res.host["sim_s"] = median(sim);
  res.host["wall_s"] = median(wall);
  res.host["host_op_ms.p50"] = median(op50);
  res.host["host_op_ms.tail"] = median(optail);
  res.samples["sim_s"] = res.samples["wall_s"] = static_cast<long>(plain.size());
  res.samples["host_op_ms.p50"] = res.samples["host_op_ms.tail"] = ops;
  res.host["peak_rss_mb"] = peak_rss_mb();

  for (const auto* set : {&plain, &traced})
    for (const PassStats& ps : *set) {
      res.attempted += ps.attempted;
      res.failed += ps.failed;
    }
  res.host["fail_frac"] = res.attempted
                              ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 0.0;

  if (ctx.trace) {
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> tsim;
    for (const PassStats& ps : traced) {
      tsim.push_back(ps.sim_s);
      for (const auto& [k, v] : ps.layer)
        layer[k].insert(layer[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : layer) {
      res.host[k] = median(v);
      res.samples[k] = static_cast<long>(v.size());
    }
    res.host["obs.trace_overhead"] = median(tsim) / median(sim);
    res.samples["obs.trace_overhead"] = static_cast<long>(traced.size());
    res.host["obs.events"] = static_cast<double>(traced.front().obs_events);

    // Self time per span and per layer: span time minus its child spans.
    std::map<std::string, double> by_layer;
    std::printf("\nhost self time by span (traced run):\n");
    for (const auto& [k, v] : spans.self_time_s()) {
      std::printf("  %-28s %10.3f s\n", k.c_str(), v);
      by_layer[k.substr(0, k.find('.'))] += v;
    }
    std::printf("host self time by layer:\n");
    for (const auto& [k, v] : by_layer) std::printf("  %-28s %10.3f s\n", k.c_str(), v);
    if (!ctx.trace_dir.empty()) {
      std::ofstream(ctx.trace_dir + "/" + name + ".host.json") << spans.chrome_json();
      std::printf("traces: %s/%s.host.json (host spans), %s/%s*.virtual.json "
                  "(the program's obs::Tracer, virtual time)\n",
                  ctx.trace_dir.c_str(), name.c_str(), ctx.trace_dir.c_str(),
                  name.c_str());
    }
  }

  std::printf("\n%s: %zu untraced + %zu traced passes, %.1f s total; "
              "host_op_ms.tail = p%.2f per pass, median of %zu passes, %ld samples\n",
              name.c_str(), plain.size(), traced.size(), host_now_s() - t_start,
              tail_p, plain.size(), ops);
  for (const auto& [k, v] : res.host)
    std::printf("  host    %-32s %.6g%s\n", k.c_str(), v,
                res.samples.count(k)
                    ? ("  (n=" + std::to_string(res.samples[k]) + ")").c_str()
                    : "");
  for (const auto& [k, v] : res.virt) std::printf("  virtual %-32s %.6g\n", k.c_str(), v);
  for (const auto& m : res.mismatches)
    std::fprintf(stderr, "DETERMINISM: %s differs from pass 0\n", m.c_str());

  std::string mism = "[";
  for (const auto& m : res.mismatches) mism += (mism.size() > 1 ? "," : "") + json_str(m);
  mism += "]";
  std::printf("{\"workload\":%s,\"host\":%s,\"virtual\":%s,\"fingerprints\":%s,"
              "\"samples\":%s,\"attempted\":%ld,\"failed\":%ld,\"mismatches\":%s,"
              "\"tail_percentile\":%s}\n",
              json_str(name).c_str(), json_map(res.host, json_num).c_str(),
              json_map(res.virt, json_num).c_str(),
              json_map(res.fingerprints, json_str).c_str(),
              json_map(res.samples, [](long v) { return std::to_string(v); }).c_str(),
              res.attempted, res.failed, mism.c_str(), json_num(tail_p).c_str());
  std::fflush(stdout);
  return res.mismatches.empty() ? 0 : 4;
}
