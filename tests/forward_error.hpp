// fp32 forward-error bound shared by the real-valued accuracy suites
// (engine_test, combine_accuracy_test).
#pragma once

#include <cmath>

#include "util/types.hpp"

namespace bcsf::test {

/// Per output entry (i, r): each term of the sum is x_z times order-1
/// factor entries, rounded at most order-1 times, and a row of n_i terms
/// is summed along a chain of at most n_i additions (in any grouping the
/// schedule uses), so |fp32 - exact| <= gamma_{n_i + order} * sum |term|,
/// with gamma_k = k u / (1 - k u) and u = 2^-24.  The double reference is
/// itself rounded to fp32 once (one more u), and sum |term| is the MTTKRP
/// of |x| and |factors|.  The 1.01 covers gamma's denominator and the
/// fp32 rounding of that absolute MTTKRP.
inline double forward_error_bound(offset_t row_nnz, index_t order,
                                  double abs_sum) {
  const double u = std::ldexp(1.0, -24);
  return 1.01 * static_cast<double>(row_nnz + order + 1) * u * abs_sum;
}

}  // namespace bcsf::test
