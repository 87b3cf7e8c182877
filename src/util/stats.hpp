// Descriptive statistics used throughout the evaluation: the paper's load
// imbalance analysis is driven by the standard deviation of nonzeros per
// fiber and per slice (Table II) and by averages such as "work per slice"
// (Fig. 8 discussion).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace bcsf {

/// Summary of a sample of nonnegative counts (e.g. nnz per fiber).
struct SampleStats {
  std::size_t count = 0;      ///< number of observations
  double sum = 0.0;           ///< total
  double mean = 0.0;
  double stddev = 0.0;        ///< population standard deviation
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;           ///< median
  double p99 = 0.0;
  /// Gini coefficient in [0,1]; 0 = perfectly even, 1 = one element owns all.
  double gini = 0.0;

  std::string to_string() const;
};

/// Computes SampleStats over an arbitrary numeric span.
SampleStats compute_stats(std::span<const double> xs);
SampleStats compute_stats(std::span<const offset_t> xs);
SampleStats compute_stats(std::span<const index_t> xs);
/// compute_stats for a sample the caller no longer needs in its order:
/// sorts `xs` itself instead of a copy (equal results, no second array).
SampleStats compute_stats_in_place(std::span<offset_t> xs);

/// Population standard deviation of a span (convenience for Table II).
double stddev(std::span<const double> xs);

/// Histogram with log2-spaced buckets [1,2), [2,4), ... for count data.
struct Log2Histogram {
  std::vector<std::size_t> buckets;  ///< buckets[b] counts x in [2^b, 2^(b+1))
  std::size_t zeros = 0;             ///< observations equal to zero

  std::string to_string() const;
};

Log2Histogram log2_histogram(std::span<const offset_t> xs);

}  // namespace bcsf
