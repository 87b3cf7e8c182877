#include "linalg/ops.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lanes.hpp"
#include "util/error.hpp"

namespace bcsf {

namespace {

/// Side of the Gram kernel's register tile: kGramTile x kGramTile double
/// accumulators stay in registers while a block of rows streams past.
constexpr rank_t kGramTile = 4;
constexpr rank_t kGramLanes = kGramTile / kLanes;
/// Bytes of one row block promoted to double: small enough to stay in L1
/// while every tile of the upper triangle sweeps it.
constexpr std::size_t kGramBlockBytes = 16 * 1024;

/// Adds the block's rows, in row order, into the tile of `acc` at
/// (i0, j0).  Each entry still sums its products one row after another
/// from the value `acc` holds, so the result is the scalar loop's.
void gram_tile(const double* block, index_t rows, rank_t stride, rank_t i0,
               rank_t j0, double* acc) {
  Lanes c[kGramTile][kGramLanes];
#pragma GCC unroll 4
  for (rank_t i = 0; i < kGramTile; ++i) {
#pragma GCC unroll 4
    for (rank_t h = 0; h < kGramLanes; ++h) {
      c[i][h] = load_lanes(acc + static_cast<std::size_t>(i0 + i) * stride +
                           j0 + h * kLanes);
    }
  }
  for (index_t t = 0; t < rows; ++t) {
    const double* row = block + static_cast<std::size_t>(t) * stride;
    Lanes aj[kGramLanes];
#pragma GCC unroll 4
    for (rank_t h = 0; h < kGramLanes; ++h) {
      aj[h] = load_lanes(row + j0 + h * kLanes);
    }
#pragma GCC unroll 4
    for (rank_t i = 0; i < kGramTile; ++i) {
      const double ai = row[i0 + i];
#pragma GCC unroll 4
      for (rank_t h = 0; h < kGramLanes; ++h) c[i][h] += ai * aj[h];
    }
  }
#pragma GCC unroll 4
  for (rank_t i = 0; i < kGramTile; ++i) {
#pragma GCC unroll 4
    for (rank_t h = 0; h < kGramLanes; ++h) {
      store_lanes(acc + static_cast<std::size_t>(i0 + i) * stride + j0 +
                      h * kLanes,
                  c[i][h]);
    }
  }
}

}  // namespace

DenseMatrix gram(const DenseMatrix& a) {
  const rank_t r = a.cols();
  // Accumulate in double: Gram entries sum over potentially millions of
  // rows and feed a linear solve, where fp32 accumulation error would leak
  // into every factor update.  Columns are padded with zeros to whole
  // tiles, so every tile is full and the padding only ever adds 0 * x.
  const rank_t stride = (r + kGramTile - 1) / kGramTile * kGramTile;
  const index_t block_rows = static_cast<index_t>(std::max<std::size_t>(
      1, kGramBlockBytes / (std::max<rank_t>(stride, 1) * sizeof(double))));
  std::vector<double> acc(static_cast<std::size_t>(stride) * stride, 0.0);
  std::vector<double> block(static_cast<std::size_t>(block_rows) * stride, 0.0);
  for (index_t r0 = 0; r0 < a.rows(); r0 += block_rows) {
    const index_t rows = std::min(block_rows, a.rows() - r0);
    for (index_t t = 0; t < rows; ++t) {
      const auto ar = a.row(r0 + t);
      std::copy(ar.begin(), ar.end(),
                block.begin() + static_cast<std::ptrdiff_t>(t) * stride);
    }
    // Tiles on or above the diagonal cover every entry with j >= i.
    for (rank_t i0 = 0; i0 < stride; i0 += kGramTile) {
      for (rank_t j0 = i0; j0 < stride; j0 += kGramTile) {
        gram_tile(block.data(), rows, stride, i0, j0, acc.data());
      }
    }
  }
  DenseMatrix g(r, r);
  for (rank_t i = 0; i < r; ++i) {
    for (rank_t j = i; j < r; ++j) {
      const auto v =
          static_cast<value_t>(acc[static_cast<std::size_t>(i) * stride + j]);
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b) {
  BCSF_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "hadamard: shape mismatch");
  DenseMatrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = a.data()[i] * b.data()[i];
  }
  return out;
}

DenseMatrix hadamard_of_grams(const std::vector<DenseMatrix>& grams,
                              index_t skip, rank_t rank) {
  DenseMatrix v(rank, rank, 1.0F);
  for (index_t m = 0; m < grams.size(); ++m) {
    if (m == skip) continue;
    v = hadamard(v, grams[m]);
  }
  return v;
}

DenseMatrix gram_hadamard_except(const std::vector<DenseMatrix>& factors,
                                 index_t skip) {
  BCSF_CHECK(!factors.empty(), "gram_hadamard_except: no factors");
  BCSF_CHECK(skip < factors.size(), "gram_hadamard_except: bad skip mode");
  std::vector<DenseMatrix> grams(factors.size());
  for (index_t m = 0; m < factors.size(); ++m) {
    if (m != skip) grams[m] = gram(factors[m]);
  }
  return hadamard_of_grams(grams, skip, factors.front().cols());
}

DenseMatrix khatri_rao(const DenseMatrix& a, const DenseMatrix& b) {
  BCSF_CHECK(a.cols() == b.cols(), "khatri_rao: rank mismatch");
  const rank_t r = a.cols();
  DenseMatrix out(a.rows() * b.rows(), r);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.rows(); ++j) {
      const index_t row = i * b.rows() + j;
      for (rank_t c = 0; c < r; ++c) {
        out(row, c) = a(i, c) * b(j, c);
      }
    }
  }
  return out;
}

DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b) {
  BCSF_CHECK(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  DenseMatrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (rank_t k = 0; k < a.cols(); ++k) {
      const value_t aik = a(i, k);
      if (aik == 0.0F) continue;
      for (rank_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

std::vector<value_t> normalize_columns(DenseMatrix& a) {
  const rank_t r = a.cols();
  std::vector<double> norms(r, 0.0);
  for (index_t row = 0; row < a.rows(); ++row) {
    const auto ar = a.row(row);
    for (rank_t c = 0; c < r; ++c) {
      norms[c] += static_cast<double>(ar[c]) * ar[c];
    }
  }
  std::vector<value_t> lambda(r);
  for (rank_t c = 0; c < r; ++c) {
    lambda[c] = static_cast<value_t>(std::sqrt(norms[c]));
  }
  for (index_t row = 0; row < a.rows(); ++row) {
    auto ar = a.row(row);
    for (rank_t c = 0; c < r; ++c) {
      if (lambda[c] > 0.0F) ar[c] /= lambda[c];
    }
  }
  return lambda;
}

double cp_inner_product(const SparseTensor& x,
                        const std::vector<DenseMatrix>& factors,
                        const std::vector<value_t>& lambda) {
  BCSF_CHECK(factors.size() == x.order(), "cp_inner_product: factor count");
  const rank_t r = factors.front().cols();
  double inner = 0.0;
  for (offset_t z = 0; z < x.nnz(); ++z) {
    for (rank_t c = 0; c < r; ++c) {
      double prod = lambda.empty() ? 1.0 : static_cast<double>(lambda[c]);
      for (index_t m = 0; m < x.order(); ++m) {
        prod *= factors[m](x.coord(m, z), c);
      }
      inner += prod * x.value(z);
    }
  }
  return inner;
}

double cp_inner_from_mttkrp(const DenseMatrix& mttkrp, const DenseMatrix& factor,
                            const std::vector<value_t>& lambda) {
  BCSF_CHECK(mttkrp.rows() == factor.rows() && mttkrp.cols() == factor.cols(),
             "cp_inner_from_mttkrp: MTTKRP is " << mttkrp.rows() << "x"
                                                << mttkrp.cols() << ", factor is "
                                                << factor.rows() << "x"
                                                << factor.cols());
  BCSF_CHECK(lambda.empty() || lambda.size() == mttkrp.cols(),
             "cp_inner_from_mttkrp: lambda has " << lambda.size()
                                                 << " entries, rank is "
                                                 << mttkrp.cols());
  const rank_t rank = mttkrp.cols();
  double inner = 0.0;
  for (index_t i = 0; i < mttkrp.rows(); ++i) {
    const auto mrow = mttkrp.row(i);
    const auto arow = factor.row(i);
    for (rank_t c = 0; c < rank; ++c) {
      const double l = lambda.empty() ? 1.0 : static_cast<double>(lambda[c]);
      inner += l * static_cast<double>(mrow[c]) * arow[c];
    }
  }
  return inner;
}

double cp_model_norm_sq(const std::vector<DenseMatrix>& factors,
                        const std::vector<value_t>& lambda) {
  BCSF_CHECK(!factors.empty(), "cp_model_norm_sq: no factors");
  std::vector<DenseMatrix> grams;
  grams.reserve(factors.size());
  for (const auto& f : factors) grams.push_back(gram(f));
  return cp_model_norm_sq_from_grams(grams, lambda);
}

double cp_model_norm_sq_from_grams(const std::vector<DenseMatrix>& grams,
                                   const std::vector<value_t>& lambda) {
  BCSF_CHECK(!grams.empty(), "cp_model_norm_sq_from_grams: no Grams");
  const rank_t r = grams.front().cols();
  const DenseMatrix v = hadamard_of_grams(grams, grams.size(), r);
  double model_sq = 0.0;
  for (rank_t i = 0; i < r; ++i) {
    const double li = lambda.empty() ? 1.0 : lambda[i];
    for (rank_t j = 0; j < r; ++j) {
      const double lj = lambda.empty() ? 1.0 : lambda[j];
      model_sq += li * lj * static_cast<double>(v(i, j));
    }
  }
  return model_sq;
}

double cp_fit_from_pieces(double x_norm, double inner, double model_sq) {
  const double x_sq = x_norm * x_norm;
  if (x_sq == 0.0) return 1.0;
  const double resid_sq = std::max(0.0, x_sq - 2.0 * inner + model_sq);
  return 1.0 - std::sqrt(resid_sq) / x_norm;
}

double cp_fit(const SparseTensor& x, const std::vector<DenseMatrix>& factors,
              const std::vector<value_t>& lambda) {
  return cp_fit_from_pieces(x.norm(), cp_inner_product(x, factors, lambda),
                            cp_model_norm_sq(factors, lambda));
}

}  // namespace bcsf
