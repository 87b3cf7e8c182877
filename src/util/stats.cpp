#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace bcsf {

namespace {
// Sorts `xs`, then summarizes it with every element read as a double, so
// integer counts give the same bits as their double copies would.
template <typename T>
SampleStats stats_from_sorted(std::span<T> xs) {
  SampleStats s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const auto at = [&xs](std::size_t i) { return static_cast<double>(xs[i]); };
  s.sum = std::accumulate(xs.begin(), xs.end(), 0.0);
  s.mean = s.sum / static_cast<double>(s.count);
  double var = 0.0;
  for (std::size_t i = 0; i < s.count; ++i) {
    const double d = at(i) - s.mean;
    var += d * d;
  }
  var /= static_cast<double>(s.count);
  s.stddev = std::sqrt(var);
  s.min = at(0);
  s.max = at(s.count - 1);
  auto pct = [&](double q) {
    const double pos = q * static_cast<double>(s.count - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, s.count - 1);
    const double frac = pos - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  };
  s.p50 = pct(0.50);
  s.p99 = pct(0.99);
  // Gini from the sorted sample: G = (2*sum(i*x_i)/(n*sum) - (n+1)/n).
  if (s.sum > 0.0) {
    double weighted = 0.0;
    for (std::size_t i = 0; i < s.count; ++i) {
      weighted += static_cast<double>(i + 1) * at(i);
    }
    const double n = static_cast<double>(s.count);
    s.gini = (2.0 * weighted) / (n * s.sum) - (n + 1.0) / n;
  }
  return s;
}
}  // namespace

SampleStats compute_stats(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  return stats_from_sorted(std::span<double>(copy));
}

SampleStats compute_stats(std::span<const offset_t> xs) {
  std::vector<double> copy(xs.size());
  std::transform(xs.begin(), xs.end(), copy.begin(),
                 [](offset_t v) { return static_cast<double>(v); });
  return stats_from_sorted(std::span<double>(copy));
}

SampleStats compute_stats(std::span<const index_t> xs) {
  std::vector<double> copy(xs.size());
  std::transform(xs.begin(), xs.end(), copy.begin(),
                 [](index_t v) { return static_cast<double>(v); });
  return stats_from_sorted(std::span<double>(copy));
}

SampleStats compute_stats_in_place(std::span<offset_t> xs) {
  return stats_from_sorted(xs);
}

double stddev(std::span<const double> xs) { return compute_stats(xs).stddev; }

std::string SampleStats::to_string() const {
  std::ostringstream os;
  os << "n=" << count << " mean=" << mean << " stddev=" << stddev
     << " min=" << min << " p50=" << p50 << " p99=" << p99 << " max=" << max
     << " gini=" << gini;
  return os.str();
}

Log2Histogram log2_histogram(std::span<const offset_t> xs) {
  Log2Histogram h;
  for (offset_t x : xs) {
    if (x == 0) {
      ++h.zeros;
      continue;
    }
    std::size_t b = 0;
    offset_t v = x;
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    if (h.buckets.size() <= b) h.buckets.resize(b + 1, 0);
    ++h.buckets[b];
  }
  return h;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream os;
  os << "zeros=" << zeros;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    os << " [" << (1ULL << b) << "," << (1ULL << (b + 1)) << ")=" << buckets[b];
  }
  return os.str();
}

}  // namespace bcsf
