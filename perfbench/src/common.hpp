// Shared plumbing of the repository benchmark: command-line arguments,
// timing helpers, percentiles, peak RSS and the result record that
// main.cpp prints as the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Quantile with linear interpolation between closest ranks (the
/// "inclusive" method); 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
double mean(const std::vector<double>& xs);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span log and the fleet's unix socket (a short
  /// relative path keeps the socket path under the sun_path limit).
  std::string work_dir = ".";
};

/// What one benchmark run reports.  `metrics` keeps insertion order so
/// the printed record is stable and readable.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable reasons the correctness gate failed.
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit);
  void fail_check(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Relative error of `got` against `want`: max |got - want| over the
/// entries, divided by max(1e-30, max |want|).  Sizes must match (a
/// mismatch returns infinity).
double relative_error(const std::vector<float>& got,
                      const std::vector<float>& want);

/// The end-to-end metrics every workload prints with --trace 0, in the
/// order BENCHMARK.json lists them.
struct EndToEnd {
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double req_s = 0.0;
  double slo_frac = 0.0;
  double plan_mb = 0.0;
  double rss_mb = 0.0;

  void emit(RunResult& out) const;
};

/// Latency summary of one sample of per-operation times.
struct LatencySummary {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
LatencySummary summarize(const std::vector<double>& latencies_ms);
/// Splits a run into consecutive windows of `window_s` seconds by each
/// sample's time `at_s`, summarizes every window holding at least
/// `min_samples`, and returns the median of each statistic across those
/// windows -- one stall moves one window, not the run's figure.  Falls
/// back to summarize() when no window qualifies.
LatencySummary summarize_windows(const std::vector<double>& latencies_ms,
                                 const std::vector<double>& at_s,
                                 double window_s, std::size_t min_samples);

/// The three workloads (one entry point each).
RunResult run_cpd_enron(const Args& args, Tracer& tracer);
RunResult run_serve_updates(const Args& args, Tracer& tracer);
RunResult run_fleet_socket(const Args& args, Tracer& tracer);
/// Not a benchmark workload: prints the "reference"-format final fit for
/// --seed, one entry of cpd-enron's stored table.
RunResult run_cpd_reference(const Args& args);

}  // namespace perfbench
