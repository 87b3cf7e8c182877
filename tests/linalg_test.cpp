// Tests for the dense linear algebra surrounding CPD-ALS: Gram, Hadamard,
// Khatri-Rao, SPD solves and the sparse CP fit identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "kernels/mttkrp.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/ops.hpp"
#include "linalg/spd_solve.hpp"
#include "serve_test_util.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

using serve_test::bitwise_equal;

DenseMatrix from_rows(std::initializer_list<std::initializer_list<value_t>> rows) {
  const auto r = static_cast<index_t>(rows.size());
  const auto c = static_cast<rank_t>(rows.begin()->size());
  DenseMatrix m(r, c);
  index_t i = 0;
  for (const auto& row : rows) {
    rank_t j = 0;
    for (value_t v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

TEST(DenseMatrix, RowAccessAndFill) {
  DenseMatrix m(3, 4, 1.5F);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FLOAT_EQ(m(2, 3), 1.5F);
  m.row(1)[2] = 7.0F;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0F);
  m.fill(0.0F);
  EXPECT_DOUBLE_EQ(m.frob_norm(), 0.0);
}

TEST(DenseMatrix, MaxAbsDiffChecksShape) {
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 3);
  EXPECT_THROW((void)a.max_abs_diff(b), Error);
}

TEST(DenseMatrix, RandomizeDeterministic) {
  DenseMatrix a(5, 5);
  DenseMatrix b(5, 5);
  a.randomize(9);
  b.randomize(9);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

TEST(Ops, GramKnown) {
  const DenseMatrix a = from_rows({{1, 2}, {3, 4}, {5, 6}});
  const DenseMatrix g = gram(a);
  EXPECT_FLOAT_EQ(g(0, 0), 35.0F);   // 1+9+25
  EXPECT_FLOAT_EQ(g(0, 1), 44.0F);   // 2+12+30
  EXPECT_FLOAT_EQ(g(1, 0), 44.0F);   // symmetric
  EXPECT_FLOAT_EQ(g(1, 1), 56.0F);   // 4+16+36
}

TEST(Ops, HadamardKnown) {
  const DenseMatrix a = from_rows({{1, 2}, {3, 4}});
  const DenseMatrix b = from_rows({{5, 6}, {7, 8}});
  const DenseMatrix h = hadamard(a, b);
  EXPECT_FLOAT_EQ(h(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(h(1, 1), 32.0F);
  EXPECT_THROW(hadamard(a, DenseMatrix(3, 2)), Error);
}

TEST(Ops, KhatriRaoKnown) {
  const DenseMatrix a = from_rows({{1, 2}, {3, 4}});
  const DenseMatrix b = from_rows({{5, 6}, {7, 8}, {9, 10}});
  const DenseMatrix kr = khatri_rao(a, b);
  ASSERT_EQ(kr.rows(), 6u);
  ASSERT_EQ(kr.cols(), 2u);
  // Row (i=0, j=0) = a(0,:) * b(0,:) = (5, 12); row (1,2) = (27, 40).
  EXPECT_FLOAT_EQ(kr(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(kr(0, 1), 12.0F);
  EXPECT_FLOAT_EQ(kr(5, 0), 27.0F);
  EXPECT_FLOAT_EQ(kr(5, 1), 40.0F);
}

TEST(Ops, MatmulKnown) {
  const DenseMatrix a = from_rows({{1, 2}, {3, 4}});
  const DenseMatrix b = from_rows({{5, 6}, {7, 8}});
  const DenseMatrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0F);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0F);
}

TEST(Ops, GramHadamardExceptSkipsMode) {
  std::vector<DenseMatrix> factors;
  factors.push_back(from_rows({{2, 0}, {0, 2}}));  // gram = 4I
  factors.push_back(from_rows({{3, 0}, {0, 3}}));  // gram = 9I
  factors.push_back(from_rows({{5, 0}, {0, 5}}));  // gram = 25I
  const DenseMatrix v = gram_hadamard_except(factors, 1);
  EXPECT_FLOAT_EQ(v(0, 0), 100.0F);  // 4 * 25
  EXPECT_FLOAT_EQ(v(0, 1), 0.0F);
}

TEST(Ops, NormalizeColumns) {
  DenseMatrix a = from_rows({{3, 0}, {4, 0}});
  const auto lambda = normalize_columns(a);
  ASSERT_EQ(lambda.size(), 2u);
  EXPECT_FLOAT_EQ(lambda[0], 5.0F);
  EXPECT_FLOAT_EQ(lambda[1], 0.0F);  // zero column untouched
  EXPECT_FLOAT_EQ(a(0, 0), 0.6F);
  EXPECT_FLOAT_EQ(a(1, 0), 0.8F);
}

TEST(SpdSolve, CholeskyKnown) {
  const DenseMatrix v = from_rows({{4, 2}, {2, 3}});
  DenseMatrix lower;
  ASSERT_TRUE(cholesky(v, lower));
  EXPECT_FLOAT_EQ(lower(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(lower(1, 0), 1.0F);
  EXPECT_NEAR(lower(1, 1), std::sqrt(2.0), 1e-6);
}

TEST(SpdSolve, CholeskyRejectsIndefinite) {
  const DenseMatrix v = from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  DenseMatrix lower;
  EXPECT_FALSE(cholesky(v, lower));
}

TEST(SpdSolve, SolveRightRecoversKnownSolution) {
  const DenseMatrix v = from_rows({{4, 2}, {2, 3}});
  const DenseMatrix x_true = from_rows({{1, 2}, {-1, 0.5}, {0, 3}});
  const DenseMatrix b = matmul(x_true, v);  // B = X V
  const DenseMatrix x = solve_spd_right(v, b);
  EXPECT_LT(x.max_abs_diff(x_true), 1e-4);
}

TEST(SpdSolve, InverseTimesSelfIsIdentity) {
  DenseMatrix v(4, 4);
  v.randomize(3, 0.1F, 1.0F);
  DenseMatrix spd = gram(v);  // SPD with probability 1
  for (rank_t i = 0; i < 4; ++i) spd(i, i) += 1.0F;
  const DenseMatrix inv = spd_inverse(spd);
  const DenseMatrix prod = matmul(spd, inv);
  for (rank_t i = 0; i < 4; ++i) {
    for (rank_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0F : 0.0F, 1e-3);
    }
  }
}

TEST(SpdSolve, SingularFallsBackToJitter) {
  // Rank-deficient Gram (duplicate columns): plain Cholesky fails, the
  // regularized path must still return finite numbers.
  const DenseMatrix a = from_rows({{1, 1}, {2, 2}, {3, 3}});
  const DenseMatrix v = gram(a);
  const DenseMatrix b = from_rows({{1, 1}});
  const DenseMatrix x = solve_spd_right(v, b);
  EXPECT_TRUE(std::isfinite(x(0, 0)));
  EXPECT_TRUE(std::isfinite(x(0, 1)));
}

// Scalar oracles for the tiled kernels, bitwise: one Gram entry at a time
// over rows in order, and one row at a time through Cholesky substitution
// (with the library's diagonal jitter).
DenseMatrix scalar_gram(const DenseMatrix& a) {
  const rank_t r = a.cols();
  DenseMatrix g(r, r);
  std::vector<double> acc(static_cast<std::size_t>(r) * r, 0.0);
  for (index_t row = 0; row < a.rows(); ++row) {
    const auto ar = a.row(row);
    for (rank_t i = 0; i < r; ++i) {
      const double ai = ar[i];
      for (rank_t j = i; j < r; ++j) {
        acc[static_cast<std::size_t>(i) * r + j] += ai * ar[j];
      }
    }
  }
  for (rank_t i = 0; i < r; ++i) {
    for (rank_t j = i; j < r; ++j) {
      const auto v = static_cast<value_t>(acc[static_cast<std::size_t>(i) * r + j]);
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

DenseMatrix scalar_solve_spd_right(const DenseMatrix& v, const DenseMatrix& b) {
  DenseMatrix lower;
  if (!cholesky(v, lower)) {
    double scale = 0.0;
    for (rank_t i = 0; i < v.cols(); ++i) {
      scale = std::max(scale, std::abs(static_cast<double>(v(i, i))));
    }
    if (scale == 0.0) scale = 1.0;
    bool ok = false;
    for (double eps = 1e-8; eps <= 1e2 && !ok; eps *= 10.0) {
      DenseMatrix jittered = v;
      for (rank_t i = 0; i < v.cols(); ++i) {
        jittered(i, i) += static_cast<value_t>(eps * scale);
      }
      ok = cholesky(jittered, lower);
    }
    EXPECT_TRUE(ok);
  }
  const rank_t n = v.cols();
  DenseMatrix x(b.rows(), n);
  std::vector<double> rhs(n);
  for (index_t row = 0; row < b.rows(); ++row) {
    for (rank_t c = 0; c < n; ++c) rhs[c] = b(row, c);
    for (rank_t i = 0; i < n; ++i) {
      double sum = rhs[i];
      for (rank_t k = 0; k < i; ++k) {
        sum -= static_cast<double>(lower(i, k)) * rhs[k];
      }
      rhs[i] = sum / lower(i, i);
    }
    for (rank_t ii = n; ii-- > 0;) {
      double sum = rhs[ii];
      for (rank_t k = ii + 1; k < n; ++k) {
        sum -= static_cast<double>(lower(k, ii)) * rhs[k];
      }
      rhs[ii] = sum / lower(ii, ii);
    }
    for (rank_t c = 0; c < n; ++c) x(row, c) = static_cast<value_t>(rhs[c]);
  }
  return x;
}

// Row counts straddle the solve's 16-row tile; ranks straddle the Gram's
// 4-wide register tile and the enron workload's rank 32.
constexpr index_t kTileRows[] = {1, 15, 16, 17, 1000};
constexpr rank_t kTileRanks[] = {1, 3, 8, 17, 32, 33};

/// A well-conditioned SPD matrix: the Gram of a random tall matrix plus a
/// unit diagonal.
DenseMatrix random_spd(rank_t n, std::uint64_t seed) {
  DenseMatrix a(3 * n + 5, n);
  a.randomize(seed, -1.0F, 1.0F);
  DenseMatrix v = gram(a);
  for (rank_t i = 0; i < n; ++i) v(i, i) += 1.0F;
  return v;
}

TEST(Ops, TiledGramMatchesScalarLoopBitwise) {
  std::uint64_t seed = 100;
  for (index_t rows : kTileRows) {
    for (rank_t rank : kTileRanks) {
      DenseMatrix a(rows, rank);
      a.randomize(++seed, -1.0F, 1.0F);
      EXPECT_TRUE(bitwise_equal(gram(a), scalar_gram(a)))
          << rows << " x " << rank;
    }
  }
}

TEST(SpdSolve, TiledSolveMatchesScalarLoopBitwise) {
  std::uint64_t seed = 200;
  for (index_t rows : kTileRows) {
    for (rank_t rank : kTileRanks) {
      const DenseMatrix v = random_spd(rank, ++seed);
      DenseMatrix b(rows, rank);
      b.randomize(++seed, -2.0F, 2.0F);
      const DenseMatrix x = solve_spd_right(v, b);
      EXPECT_TRUE(bitwise_equal(x, scalar_solve_spd_right(v, b)))
          << rows << " x " << rank;
      DenseMatrix in_place = b;
      solve_spd_right_in_place(v, in_place);
      EXPECT_TRUE(bitwise_equal(in_place, x)) << rows << " x " << rank;
    }
  }
}

TEST(SpdSolve, TiledSolveMatchesScalarLoopOnJitterPath) {
  std::uint64_t seed = 300;
  for (rank_t rank : {3u, 17u, 33u}) {
    // A zero column makes V singular, so plain Cholesky fails and the
    // solve must regularize.
    DenseMatrix a(2 * rank + 3, rank);
    a.randomize(++seed, -1.0F, 1.0F);
    for (index_t row = 0; row < a.rows(); ++row) a(row, rank / 2) = 0.0F;
    const DenseMatrix v = gram(a);
    DenseMatrix lower;
    ASSERT_FALSE(cholesky(v, lower));
    DenseMatrix b(17, rank);
    b.randomize(++seed, -1.0F, 1.0F);
    const DenseMatrix x = solve_spd_right(v, b);
    EXPECT_TRUE(bitwise_equal(x, scalar_solve_spd_right(v, b))) << rank;
    DenseMatrix in_place = b;
    solve_spd_right_in_place(v, in_place);
    EXPECT_TRUE(bitwise_equal(in_place, x)) << rank;
  }
}

TEST(SpdSolve, NonFinitePivotThrowsInsteadOfReturningNan) {
  const DenseMatrix b = from_rows({{1, 2, 3}, {4, 5, 6}});
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  const value_t inf = std::numeric_limits<value_t>::infinity();
  // One NaN on the diagonal, one below it (the triangle Cholesky reads),
  // and one infinite diagonal: no jitter can make these factor.
  for (const auto& [i, j, bad] :
       {std::tuple{1u, 1u, nan}, std::tuple{2u, 0u, nan},
        std::tuple{0u, 0u, inf}}) {
    DenseMatrix v = random_spd(3, 400);
    v(i, j) = bad;
    DenseMatrix lower;
    EXPECT_FALSE(cholesky(v, lower)) << i << "," << j;
    EXPECT_THROW((void)solve_spd_right(v, b), Error) << i << "," << j;
  }
}

TEST(Fit, InnerFromMttkrpMatchesDirectInnerProduct) {
  const SparseTensor x = generate_uniform({9, 8, 7}, 150, 12);
  std::vector<DenseMatrix> factors;
  for (index_t m = 0; m < 3; ++m) {
    DenseMatrix f(x.dim(m), 4);
    f.randomize(60 + m, -1.0F, 1.0F);
    factors.push_back(std::move(f));
  }
  const std::vector<value_t> lambda = {1.0F, 2.0F, 0.5F, 3.0F};
  for (index_t mode = 0; mode < 3; ++mode) {
    const DenseMatrix m = mttkrp_reference(x, mode, factors);
    const double want = cp_inner_product(x, factors, lambda);
    EXPECT_NEAR(cp_inner_from_mttkrp(m, factors[mode], lambda), want,
                1e-5 * std::abs(want));
  }
  EXPECT_THROW((void)cp_inner_from_mttkrp(DenseMatrix(9, 4), factors[1], lambda),
               Error);
}

TEST(Fit, ExactModelHasFitOne) {
  // Build tensor whose entries are exactly a rank-2 CP model sampled at
  // random coordinates; cp_fit with those factors must be ~1.
  const rank_t rank = 2;
  std::vector<DenseMatrix> factors;
  for (index_t m = 0; m < 3; ++m) {
    DenseMatrix f(10, rank);
    f.randomize(40 + m, 0.1F, 1.0F);
    factors.push_back(std::move(f));
  }
  SparseTensor x = generate_uniform({10, 10, 10}, 300, 8);
  for (offset_t z = 0; z < x.nnz(); ++z) {
    value_t acc = 0.0F;
    for (rank_t r = 0; r < rank; ++r) {
      acc += factors[0](x.coord(0, z), r) * factors[1](x.coord(1, z), r) *
             factors[2](x.coord(2, z), r);
    }
    x.value(z) = acc;
  }
  const std::vector<value_t> lambda(rank, 1.0F);
  // The fit identity only reaches 1 when the model is zero off-support;
  // restrict the check to the inner-product consistency instead.
  const double inner = cp_inner_product(x, factors, lambda);
  const double norm2 = x.norm() * x.norm();
  EXPECT_NEAR(inner, norm2, norm2 * 1e-3);
}

TEST(Fit, ZeroFactorsGiveZeroFit) {
  SparseTensor x = generate_uniform({5, 5, 5}, 20, 9);
  std::vector<DenseMatrix> factors;
  for (index_t m = 0; m < 3; ++m) factors.emplace_back(5, 2);
  const std::vector<value_t> lambda(2, 1.0F);
  EXPECT_NEAR(cp_fit(x, factors, lambda), 0.0, 1e-6);
}

}  // namespace
}  // namespace bcsf
