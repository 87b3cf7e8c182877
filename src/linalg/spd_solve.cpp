#include "linalg/spd_solve.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/lanes.hpp"
#include "util/error.hpp"

namespace bcsf {

bool cholesky(const DenseMatrix& v, DenseMatrix& lower) {
  BCSF_CHECK(v.rows() == v.cols(), "cholesky: matrix not square");
  const rank_t n = v.cols();
  lower = DenseMatrix(n, n);
  for (rank_t j = 0; j < n; ++j) {
    double diag = v(j, j);
    for (rank_t k = 0; k < j; ++k) {
      diag -= static_cast<double>(lower(j, k)) * lower(j, k);
    }
    // Reject any pivot that is not finite and positive: NaN fails every
    // comparison, so `diag <= 0.0` alone would return NaN factors.
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lower(j, j) = static_cast<value_t>(ljj);
    for (rank_t i = j + 1; i < n; ++i) {
      double sum = v(i, j);
      for (rank_t k = 0; k < j; ++k) {
        sum -= static_cast<double>(lower(i, k)) * lower(j, k);
      }
      lower(i, j) = static_cast<value_t>(sum / ljj);
    }
  }
  return true;
}

namespace {

/// Cholesky with growing diagonal jitter until it succeeds.
DenseMatrix robust_cholesky(const DenseMatrix& v) {
  DenseMatrix lower;
  if (cholesky(v, lower)) return lower;
  double scale = 0.0;
  for (rank_t i = 0; i < v.cols(); ++i) {
    scale = std::max(scale, std::abs(static_cast<double>(v(i, i))));
  }
  if (scale == 0.0) scale = 1.0;
  for (double eps = 1e-8; eps <= 1e2; eps *= 10.0) {
    DenseMatrix jittered = v;
    for (rank_t i = 0; i < v.cols(); ++i) {
      jittered(i, i) += static_cast<value_t>(eps * scale);
    }
    if (cholesky(jittered, lower)) return lower;
  }
  BCSF_CHECK(false, "robust_cholesky: matrix could not be regularized");
  return lower;
}

/// Right-hand sides substituted together: the SIMD lanes of the solve.
/// Each row keeps its own dependency chain; the rows are independent, so
/// they hide the latency the one-row-at-a-time loop waited on.
constexpr index_t kSolveRows = 16;
constexpr index_t kSolveLanes = kSolveRows / kLanes;

/// One substitution step for every row of a tile stored column by column
/// (column c at y + c * kSolveRows): y_i <- (y_i - sum_k w[k] y_k) / d
/// over k in [k0, k1) ascending -- per row, the scalar loop's statements
/// in its order.
void substitute_step(double* y, rank_t i, const double* w, rank_t k0,
                     rank_t k1, double d) {
  double* yi = y + static_cast<std::size_t>(i) * kSolveRows;
  Lanes s[kSolveLanes];
#pragma GCC unroll 8
  for (index_t h = 0; h < kSolveLanes; ++h) s[h] = load_lanes(yi + h * kLanes);
  for (rank_t k = k0; k < k1; ++k) {
    const double wk = w[k];
    const double* yk = y + static_cast<std::size_t>(k) * kSolveRows;
#pragma GCC unroll 8
    for (index_t h = 0; h < kSolveLanes; ++h) {
      s[h] -= wk * load_lanes(yk + h * kLanes);
    }
  }
#pragma GCC unroll 8
  for (index_t h = 0; h < kSolveLanes; ++h) {
    store_lanes(yi + h * kLanes, s[h] / d);
  }
}

}  // namespace

void solve_spd_right_in_place(const DenseMatrix& v, DenseMatrix& b) {
  BCSF_CHECK(v.rows() == v.cols(), "solve_spd_right: V not square");
  BCSF_CHECK(b.cols() == v.rows(), "solve_spd_right: shape mismatch");
  const DenseMatrix lower = robust_cholesky(v);
  const rank_t n = v.cols();
  std::vector<double> l(static_cast<std::size_t>(n) * n);
  std::vector<double> lt(l.size());
  for (rank_t i = 0; i < n; ++i) {
    for (rank_t k = 0; k < n; ++k) {
      l[static_cast<std::size_t>(i) * n + k] = lower(i, k);
      lt[static_cast<std::size_t>(k) * n + i] = lower(i, k);
    }
  }
  // X V = B with V symmetric  =>  V X^T = B^T: each row of B is one
  // right-hand side, promoted to double and rounded back once.
  std::vector<double> y(static_cast<std::size_t>(n) * kSolveRows);
  for (index_t r0 = 0; r0 < b.rows(); r0 += kSolveRows) {
    const index_t rows = std::min(kSolveRows, b.rows() - r0);
    // Lanes past the last row solve zeros and are never written back.
    std::fill(y.begin(), y.end(), 0.0);
    for (index_t t = 0; t < rows; ++t) {
      const auto br = b.row(r0 + t);
      for (rank_t c = 0; c < n; ++c) {
        y[static_cast<std::size_t>(c) * kSolveRows + t] = br[c];
      }
    }
    // L Y = B^T forward, then L^T X^T = Y backward.
    for (rank_t i = 0; i < n; ++i) {
      const double* li = l.data() + static_cast<std::size_t>(i) * n;
      substitute_step(y.data(), i, li, 0, i, li[i]);
    }
    for (rank_t i = n; i-- > 0;) {
      const double* lti = lt.data() + static_cast<std::size_t>(i) * n;
      substitute_step(y.data(), i, lti, i + 1, n, lti[i]);
    }
    for (index_t t = 0; t < rows; ++t) {
      auto br = b.row(r0 + t);
      for (rank_t c = 0; c < n; ++c) {
        br[c] = static_cast<value_t>(y[static_cast<std::size_t>(c) * kSolveRows + t]);
      }
    }
  }
}

DenseMatrix solve_spd_right(const DenseMatrix& v, const DenseMatrix& b) {
  DenseMatrix x = b;
  solve_spd_right_in_place(v, x);
  return x;
}

DenseMatrix spd_inverse(const DenseMatrix& v) {
  const rank_t n = v.cols();
  DenseMatrix identity(n, n);
  for (rank_t i = 0; i < n; ++i) identity(i, i) = 1.0F;
  return solve_spd_right(v, identity);
}

}  // namespace bcsf
