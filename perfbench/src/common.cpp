#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : metrics) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

double relative_error(const std::vector<float>& got,
                      const std::vector<float>& want) {
  if (got.size() != want.size()) return std::numeric_limits<double>::infinity();
  double diff = 0.0;
  double scale = 1e-30;
  for (std::size_t i = 0; i < got.size(); ++i) {
    diff = std::max(diff, std::abs(static_cast<double>(got[i]) - want[i]));
    scale = std::max(scale, std::abs(static_cast<double>(want[i])));
  }
  return diff / scale;
}

void EndToEnd::emit(RunResult& out) const {
  out.set("setup_s", setup_s, "s");
  out.set("p50_ms", p50_ms, "ms");
  out.set("req_s", req_s, "1/s");
  out.set("slo_frac", slo_frac, "frac");
  out.set("plan_mb", plan_mb, "MiB");
  out.set("rss_mb", rss_mb, "MiB");
}

LatencySummary summarize(const std::vector<double>& latencies_ms) {
  return {mean(latencies_ms), quantile(latencies_ms, 0.50),
          quantile(latencies_ms, 0.99)};
}

LatencySummary summarize_windows(const std::vector<double>& latencies_ms,
                                 const std::vector<double>& at_s,
                                 double window_s, std::size_t min_samples) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < latencies_ms.size() && i < at_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, at_s[i] / window_s));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latencies_ms[i]);
  }
  std::vector<double> means;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const std::vector<double>& w : windows) {
    if (w.size() < min_samples) continue;
    const LatencySummary s = summarize(w);
    means.push_back(s.mean_ms);
    p50s.push_back(s.p50_ms);
    p99s.push_back(s.p99_ms);
  }
  if (means.empty()) return summarize(latencies_ms);
  return {median(means), median(p50s), median(p99s)};
}

}  // namespace perfbench
