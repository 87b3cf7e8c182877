// Solver for the R x R symmetric positive (semi-)definite normal equations
// of the ALS update (Eq. 3): A~ = MTTKRP_result * (V)^dagger where
// V = *_{m != n} A_m^T A_m.
//
// The pseudo-inverse is realized as a Cholesky solve with adaptive
// diagonal regularization: V is SPD when the factors have full column
// rank, and the jitter fallback handles the rank-deficient case the way
// practical CP solvers do.
#pragma once

#include "linalg/dense_matrix.hpp"

namespace bcsf {

/// Cholesky factorization V = L L^T (lower triangular, in place on a
/// copy).  Returns false if V is not positive definite, including when a
/// pivot is NaN or infinite.
bool cholesky(const DenseMatrix& v, DenseMatrix& lower);

/// Solves X * V = B for X (i.e. X = B V^{-1}) where V is SPD of size
/// R x R and B is rows x R.  Falls back to Tikhonov-regularized solves
/// (V + eps I) with growing eps when V is singular, and throws Error when
/// no jitter makes it factor (e.g. V holds a NaN or Inf).
DenseMatrix solve_spd_right(const DenseMatrix& v, const DenseMatrix& b);

/// solve_spd_right overwriting B with X, with no allocation proportional
/// to B.  Rows are substituted in row tiles, each row in the scalar
/// substitution's order, so X is bitwise the one-row-at-a-time solve.
void solve_spd_right_in_place(const DenseMatrix& v, DenseMatrix& b);

/// Explicit SPD (pseudo-)inverse; used by tests and by callers that want
/// to reuse the inverse across many right-hand sides.
DenseMatrix spd_inverse(const DenseMatrix& v);

}  // namespace bcsf
