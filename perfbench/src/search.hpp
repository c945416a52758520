#pragma once
/// \file search.hpp
/// Deterministic search for the highest offered rate that meets a limit.

#include <cmath>

namespace perfbench {

/// Highest rate with g(rate) <= limit, for a g that grows with the rate,
/// searched from the bracket [a, b]: when g(a) already misses the limit the
/// bracket halves downwards (to a/1024 at most), so a regression below a
/// reads as one instead of a clamp at a; then `steps` bisection steps and linear
/// interpolation of g inside the final bracket, so the answer is continuous
/// rather than a grid step. Returns b when g(b) meets the limit.
template <class G>
double search_rate(G g, double limit, double a, double b, int steps) {
  constexpr int kMaxHalvings = 10;
  double ga = g(a), gb = 0;
  bool have_gb = false;
  for (int i = 0; !(ga <= limit); ++i) {
    if (i == kMaxHalvings) return a;
    b = a;
    gb = ga;
    have_gb = true;
    a *= 0.5;
    ga = g(a);
  }
  if (!have_gb) {
    gb = g(b);
    if (gb <= limit) return b;
  }
  for (int i = 0; i < steps; ++i) {
    const double m = 0.5 * (a + b);
    const double gm = g(m);
    if (gm <= limit) {
      a = m;
      ga = gm;
    } else {
      b = m;
      gb = gm;
    }
  }
  if (!std::isfinite(gb) || gb <= ga) return a;
  return a + (b - a) * (limit - ga) / (gb - ga);
}

}  // namespace perfbench
