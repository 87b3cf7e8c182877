// Dense kernels surrounding MTTKRP in CPD-ALS (Algorithm 1):
// Gram matrices (B^T B), Hadamard products of Grams, the Khatri-Rao
// product (only used by tests -- the whole point of MTTKRP algorithms is
// to avoid materializing it), column normalization, and the CP model fit.
#pragma once

#include <vector>

#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

/// gram = A^T A (cols x cols, symmetric), accumulated in double and cast
/// once.  Register- and row-tiled; every entry sums its rows in row order,
/// so the result is bitwise that of the plain triple loop.
DenseMatrix gram(const DenseMatrix& a);

/// Elementwise product of two equally-shaped matrices.
DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b);

/// Hadamard product of precomputed R x R Grams, multiplied in mode order
/// onto an all-ones matrix, skipping mode `skip` (grams[skip] is not
/// read; skip >= grams.size() multiplies them all).  The one
/// Hadamard-of-Grams implementation: cpd_als calls it on its cached
/// per-factor Grams, gram_hadamard_except and cp_model_norm_sq on fresh
/// ones.
DenseMatrix hadamard_of_grams(const std::vector<DenseMatrix>& grams,
                              index_t skip, rank_t rank);

/// Hadamard product of the Grams of every factor except `skip`:
/// V = *_{m != skip} (A_m^T A_m)  -- the R x R SPD system of Eq. (3).
DenseMatrix gram_hadamard_except(const std::vector<DenseMatrix>& factors,
                                 index_t skip);

/// Khatri-Rao product (column-wise Kronecker): (A kr B) has
/// rows(A)*rows(B) rows.  Exponentially large for real tensors; used only
/// to validate MTTKRP against the textbook definition on small inputs.
DenseMatrix khatri_rao(const DenseMatrix& a, const DenseMatrix& b);

/// C = A * B (naive triple loop; matrices here are R x R or tall-skinny).
DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

/// Normalizes each column of `a` to unit 2-norm, returning the norms
/// (lambda in Eq. (1)).  Zero columns get lambda 0 and are left unchanged.
std::vector<value_t> normalize_columns(DenseMatrix& a);

/// CP model fit:  fit = 1 - ||X - [[lambda; A_0..A_{N-1}]]||_F / ||X||_F,
/// computed with the standard sparse identity
/// ||X - Xhat||^2 = ||X||^2 - 2 <X, Xhat> + ||Xhat||^2 where ||Xhat||^2
/// comes from the factor Grams.  A fit of 1 is an exact model.
double cp_fit(const SparseTensor& x, const std::vector<DenseMatrix>& factors,
              const std::vector<value_t>& lambda);

/// ||Xhat||^2 = lambda^T (*_m A_m^T A_m) lambda -- the factor-only fit
/// piece (R x R dense work, no tensor traversal).
double cp_model_norm_sq(const std::vector<DenseMatrix>& factors,
                        const std::vector<value_t>& lambda);

/// cp_model_norm_sq from precomputed Grams, grams[m] = gram(A_m).
double cp_model_norm_sq_from_grams(const std::vector<DenseMatrix>& grams,
                                   const std::vector<value_t>& lambda);

/// <X, Xhat> = <MTTKRP_n(X), A_n diag(lambda)>, contracted in double from
/// an MTTKRP output and the factor A_n of the same mode (empty lambda =
/// all ones).  The FIT op's generic path (core/tensor_op.cpp) and
/// cpd_als's fit from its last mode update both call this.
double cp_inner_from_mttkrp(const DenseMatrix& mttkrp, const DenseMatrix& factor,
                            const std::vector<value_t>& lambda);

/// Assembles the fit from its three pieces: ||X|| (snapshot constant),
/// <X, Xhat> (the tensor traversal -- what the FIT op computes through a
/// plan, DESIGN.md §7), and ||Xhat||^2 (cp_model_norm_sq).
double cp_fit_from_pieces(double x_norm, double inner, double model_sq);

/// Residual inner product <X, Xhat> used by cp_fit (exposed for tests).
double cp_inner_product(const SparseTensor& x,
                        const std::vector<DenseMatrix>& factors,
                        const std::vector<value_t>& lambda);

}  // namespace bcsf
