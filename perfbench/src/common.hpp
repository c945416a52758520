#pragma once
/// \file common.hpp
/// Shared pieces of the numabfs benchmark binary: host clock, in-memory
/// host spans (Chrome-trace export + per-layer self time), order statistics,
/// the seeded input generator and input fingerprints, and the result record
/// every workload fills.
///
/// The statistics and the generator live here rather than in the program's
/// harness/graph layers on purpose: a change to the program must not be able
/// to change the benchmark's inputs or how its numbers are aggregated.

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- host clocks ----------------------------------------------------------

/// Wall clock: run length, probes and the span timeline.
inline double host_now_s() {
  using clk = std::chrono::steady_clock;
  static const clk::time_point t0 = clk::now();
  return std::chrono::duration<double>(clk::now() - t0).count();
}

/// CPU seconds of this process, all threads together: the clock of every
/// end-to-end host figure. Unlike the wall clock it leaves out time the
/// process waits for a core, whether to other load or to the hypervisor
/// running another guest on its vCPU, so it measures the program's work
/// rather than the host's load.
inline double host_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- host spans -------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest on the single
/// main thread: begin() opens a child of the innermost open span, and every
/// span carries the operation id (one BFS root, one serving dispatch) that
/// was current when it opened. Disabled recorders keep nothing.
class Spans {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<call>", e.g. "graph.validate"
    std::int64_t op = -1;
    int parent = -1;
    double t0 = 0, t1 = 0;  ///< host seconds
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name);
  void end(int idx);
  /// Set the operation id stamped on spans opened from now on.
  void set_op(std::int64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total self time (span minus its children), in seconds.
  std::map<std::string, double> self_time_s() const;
  /// Chrome Trace Event JSON ("X" events, microseconds), Perfetto-loadable.
  std::string chrome_json() const;

 private:
  bool enabled_;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span that also accumulates its duration in CPU seconds
/// (host_cpu_s) into `*acc` (when given), so the same timing feeds the
/// end-to-end figures with tracing off. The span itself is on the wall clock.
class Scope {
 public:
  Scope(Spans& s, const char* name, double* acc = nullptr)
      : s_(s), acc_(acc), idx_(s.begin(name)), t0_(host_cpu_s()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// End early; returns the elapsed CPU seconds.
  double stop();

 private:
  Spans& s_;
  double* acc_;
  int idx_;
  double t0_;
  double dt_ = -1;
};

// --- statistics -------------------------------------------------------------

/// Linear-interpolation percentile (p in [0, 100]); 0 for an empty sample.
/// +inf entries sort last, so a refused request counts as missing the limit.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);
double mean(const std::vector<double>& xs);
double harmonic_mean(const std::vector<double>& xs);
/// The highest percentile that leaves at least ten samples above it, for a
/// sample of `n` (0 when n < 11).
double tail_percentile(std::size_t n);

// --- inputs -----------------------------------------------------------------

/// SplitMix64 step: the benchmark's own stateless generator.
std::uint64_t mix64(std::uint64_t x);

/// Deterministic stream of uniforms in (0, 1] keyed by (seed, stream).
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : s_(mix64(seed ^ mix64(stream + 0x9E3779B97F4A7C15ull))) {}
  std::uint64_t next() { return s_ = mix64(s_); }
  double uniform() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }
  double exponential() { return -std::log(uniform()); }

 private:
  std::uint64_t s_;
};

/// Order-sensitive 64-bit digest of a word sequence; printed as 16 hex
/// digits.
class Fingerprint {
 public:
  void add(std::uint64_t w) { h_ = mix64(h_ ^ w); }
  void add_double(double d);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// --- result record ----------------------------------------------------------

/// What one workload run reports. `virt` values are virtual-time results and
/// counts that must be bit-identical across passes, traced/untraced runs and
/// reruns with the same seed; `host` values are host-clock measurements.
struct Result {
  std::map<std::string, double> host;
  std::map<std::string, double> virt;
  std::map<std::string, std::string> fingerprints;
  std::map<std::string, long> samples;  ///< sample count behind a metric
  long attempted = 0;
  long failed = 0;  ///< refused, shed or lost (wrong answers abort the run)
  std::vector<std::string> mismatches;  ///< determinism self-check failures

  /// Record `v` under `name` for pass `pass`: pass 0 sets it, later passes
  /// must reproduce it bit for bit.
  void virt_pass(const std::string& name, double v, int pass);
  /// The same rule for a digest of a pass's full virtual output.
  void digest_pass(const std::string& name, const std::string& hex, int pass);
};

/// Abort the run on a wrong answer, naming the query.
[[noreturn]] void wrong_answer(const std::string& what);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
