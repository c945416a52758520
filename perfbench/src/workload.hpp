#pragma once
/// \file workload.hpp
/// The contract between main.cpp and one workload. main.cpp owns
/// repetition: it calls setup() several times (setup_s is their median),
/// then pass() until the run's seconds are spent, and in a traced run one
/// more set of passes with tracing on. A pass is a fixed, seed-determined
/// amount of work, so every pass must reproduce the virtual results of the
/// first bit for bit (Result::virt_pass).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Ctx {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its Chrome traces
};

/// Host measurements of one pass.
struct PassStats {
  double sim_s = 0;   ///< inside the program's timed calls
  double wall_s = 0;  ///< pass start to the last validated answer
  std::vector<double> op_ms;  ///< one entry per operation
  /// Per-layer host samples (e.g. "graph.validate_ms" per answer).
  std::map<std::string, std::vector<double>> layer;
  long attempted = 0;
  long failed = 0;
  std::uint64_t obs_events = 0;  ///< obs::Tracer events (traced passes)
};

/// Passes every run makes, whatever its seconds.
inline constexpr int kMinPasses = 2;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Operations per pass (BFS roots, or a lower bound on serving
  /// dispatches); it fixes the tail percentile.
  virtual int ops_per_pass() const = 0;
  /// Set-ups per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Build the inputs and the program's data structures from scratch.
  /// Returns host seconds per setup component ("graph.rmat_s", ...); the
  /// first call also records the input fingerprints.
  virtual std::map<std::string, double> setup(Spans& spans, Result& res) = 0;
  /// Host layer probes at this workload's shape (traced run only).
  virtual void probe(Spans& spans, Result& res) = 0;
  /// One pass of the workload. With `traced`, an obs::Tracer is attached to
  /// the program for the pass and its event count reported.
  virtual PassStats pass(int pass, Spans& spans, bool traced,
                         Result& res) = 0;
};

std::unique_ptr<Workload> make_bfs1d(const Ctx& ctx);
std::unique_ptr<Workload> make_scale2d(const Ctx& ctx);
std::unique_ptr<Workload> make_serve(const Ctx& ctx);

}  // namespace perfbench
