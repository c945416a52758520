#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>

namespace perfbench {

int Spans::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.t0 = host_now_s();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::end(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].t1 = host_now_s();
  // Spans close innermost-first on the main thread.
  while (!open_.empty() && open_.back() != idx) open_.pop_back();
  if (!open_.empty()) open_.pop_back();
}

std::map<std::string, double> Spans::self_time_s() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += spans_[i].t1 - spans_[i].t0 - child[i];
  return out;
}

std::string Spans::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRId64
                  ",\"span\":%zu,\"parent\":%d}}",
                  i ? "," : "", s.name.c_str(),
                  static_cast<int>(s.name.find('.')), s.name.c_str(),
                  s.t0 * 1e6, (s.t1 - s.t0) * 1e6, s.op, i, s.parent);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

double Scope::stop() {
  if (dt_ >= 0) return dt_;
  dt_ = host_cpu_s() - t0_;
  s_.end(idx_);
  if (acc_ != nullptr) *acc_ += dt_;
  return dt_;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return xs[lo];
  const double hi = xs[lo + 1];
  if (hi == std::numeric_limits<double>::infinity()) return hi;
  return xs[lo] + frac * (hi - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double harmonic_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0;
  for (double x : xs) s += 1.0 / x;
  return static_cast<double>(xs.size()) / s;
}

double tail_percentile(std::size_t n) {
  if (n < 11) return 0.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n - 1));
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void Fingerprint::add_double(double d) {
  std::uint64_t w = 0;
  std::memcpy(&w, &d, sizeof w);
  add(w);
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

void Result::virt_pass(const std::string& name, double v, int pass) {
  if (pass == 0) {
    virt[name] = v;
    return;
  }
  const auto it = virt.find(name);
  std::uint64_t a = 0, b = 0;
  if (it != virt.end()) {
    std::memcpy(&a, &it->second, sizeof a);
    std::memcpy(&b, &v, sizeof b);
  }
  if (it == virt.end() || a != b)
    mismatches.push_back(name + " (pass " + std::to_string(pass) + ")");
}

void Result::digest_pass(const std::string& name, const std::string& hex,
                         int pass) {
  if (pass == 0)
    fingerprints[name] = hex;
  else if (fingerprints[name] != hex)
    mismatches.push_back(name + " (pass " + std::to_string(pass) + ")");
}

void wrong_answer(const std::string& what) {
  std::cerr << "WRONG ANSWER: " << what << "\n";
  std::exit(3);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
