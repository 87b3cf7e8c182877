#include "kernels/ttv_fit.hpp"

#include <vector>

#include "kernels/engine.hpp"
#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

void check_vectors(const std::vector<index_t>& dims,
                   const std::vector<DenseMatrix>& vectors) {
  BCSF_CHECK(vectors.size() == dims.size(),
             "ttv: expected " << dims.size() << " mode vectors, got "
                              << vectors.size());
  for (std::size_t m = 0; m < vectors.size(); ++m) {
    BCSF_CHECK(vectors[m].cols() == 1,
               "ttv: mode " << m << " input has " << vectors[m].cols()
                            << " columns, expected a dims[m] x 1 vector");
    BCSF_CHECK(vectors[m].rows() == dims[m],
               "ttv: vector " << m << " has " << vectors[m].rows()
                              << " rows, tensor mode has " << dims[m]);
  }
}

DenseMatrix ttv_reference(const SparseTensor& tensor, index_t mode,
                          const std::vector<DenseMatrix>& vectors) {
  check_vectors(tensor.dims(), vectors);
  BCSF_CHECK(mode < tensor.order(), "ttv_reference: bad mode");
  const index_t rows = tensor.dim(mode);

  std::vector<double> acc(rows, 0.0);
  for (offset_t z = 0; z < tensor.nnz(); ++z) {
    double prod = static_cast<double>(tensor.value(z));
    for (index_t m = 0; m < tensor.order(); ++m) {
      if (m == mode) continue;
      prod *= vectors[m](tensor.coord(m, z), 0);
    }
    acc[tensor.coord(mode, z)] += prod;
  }

  DenseMatrix out(rows, 1);
  for (index_t i = 0; i < rows; ++i) out(i, 0) = static_cast<value_t>(acc[i]);
  return out;
}

DenseMatrix ttv_coo_cpu(const SparseTensor& tensor, index_t mode,
                        const std::vector<DenseMatrix>& vectors) {
  check_vectors(tensor.dims(), vectors);
  return ttv_coo_cpu(tensor, build_coo_slice_order(tensor, mode), vectors);
}

DenseMatrix ttv_coo_cpu(const SparseTensor& tensor, const CooSliceOrder& order,
                        const std::vector<DenseMatrix>& vectors) {
  check_vectors(tensor.dims(), vectors);
  BCSF_CHECK(order.perm.size() == tensor.nnz(),
             "ttv_coo_cpu: slice order built for another tensor");
  // Same no-collision strategy as mttkrp_coo_cpu: whole slices per thread.
  const index_t mode = order.mode;
  const std::int64_t n_slices =
      static_cast<std::int64_t>(order.slice_start.size()) - 1;

  DenseMatrix out(tensor.dim(mode), 1);
#pragma omp parallel for schedule(static) num_threads(kernel_team_size())
  for (std::int64_t s = 0; s < n_slices; ++s) {
    value_t sum = 0.0F;
    for (offset_t i = order.slice_start[s]; i < order.slice_start[s + 1];
         ++i) {
      const offset_t z = order.perm[i];
      value_t prod = tensor.value(z);
      for (index_t m = 0; m < tensor.order(); ++m) {
        if (m == mode) continue;
        prod *= vectors[m](tensor.coord(m, z), 0);
      }
      sum += prod;
    }
    out(tensor.coord(mode, order.perm[order.slice_start[s]]), 0) += sum;
  }
  return out;
}

void ttv_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                          const std::vector<DenseMatrix>& vectors,
                          std::span<double> acc, index_t row_begin) {
  // Rank-1 multi-TTV IS mode-`mode` MTTKRP of rank-1 factors; delegating
  // keeps the two sweeps bitwise-identical.
  if (!deltas.empty()) check_vectors(deltas.front()->dims(), vectors);
  mttkrp_delta_accumulate(deltas, mode, vectors, acc, row_begin);
}

namespace {

/// Shared validation for the fit kernels.
void check_fit_inputs(const SparseTensor& tensor,
                      const std::vector<DenseMatrix>& factors,
                      const std::vector<value_t>* lambda) {
  check_factors(tensor.dims(), factors);
  if (lambda != nullptr) {
    BCSF_CHECK(lambda->size() == static_cast<std::size_t>(
                                     factors.front().cols()),
               "fit_inner: lambda has " << lambda->size() << " entries, rank is "
                                        << factors.front().cols());
  }
}

}  // namespace

double fit_inner_reference(const SparseTensor& tensor,
                           const std::vector<DenseMatrix>& factors,
                           const std::vector<value_t>* lambda) {
  check_fit_inputs(tensor, factors, lambda);
  const rank_t rank = factors.front().cols();
  double inner = 0.0;
  for (offset_t z = 0; z < tensor.nnz(); ++z) {
    double row_sum = 0.0;
    for (rank_t r = 0; r < rank; ++r) {
      double prod = lambda ? static_cast<double>((*lambda)[r]) : 1.0;
      for (index_t m = 0; m < tensor.order(); ++m) {
        prod *= factors[m](tensor.coord(m, z), r);
      }
      row_sum += prod;
    }
    inner += row_sum * static_cast<double>(tensor.value(z));
  }
  return inner;
}

double fit_inner_coo_cpu(const SparseTensor& tensor,
                         const std::vector<DenseMatrix>& factors,
                         const std::vector<value_t>* lambda) {
  check_fit_inputs(tensor, factors, lambda);
  const rank_t rank = factors.front().cols();
  const std::int64_t n = static_cast<std::int64_t>(tensor.nnz());
  double inner = 0.0;
#pragma omp parallel for num_threads(kernel_team_size()) \
    schedule(static) reduction(+ : inner)
  for (std::int64_t z = 0; z < n; ++z) {
    const offset_t zz = static_cast<offset_t>(z);
    double row_sum = 0.0;
    for (rank_t r = 0; r < rank; ++r) {
      double prod = lambda ? static_cast<double>((*lambda)[r]) : 1.0;
      for (index_t m = 0; m < tensor.order(); ++m) {
        prod *= factors[m](tensor.coord(m, zz), r);
      }
      row_sum += prod;
    }
    inner += row_sum * static_cast<double>(tensor.value(zz));
  }
  return inner;
}

double fit_inner_delta(std::span<const TensorPtr> deltas,
                       const std::vector<DenseMatrix>& factors,
                       const std::vector<value_t>* lambda) {
  double inner = 0.0;
  for (const TensorPtr& chunk : deltas) {
    BCSF_CHECK(chunk != nullptr, "fit_inner_delta: null chunk");
    if (chunk->nnz() == 0) continue;
    inner += fit_inner_reference(*chunk, factors, lambda);
  }
  return inner;
}

}  // namespace bcsf
