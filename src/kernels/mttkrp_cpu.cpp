// Real (runnable) CPU MTTKRP kernels, parallelized with OpenMP in the
// SPLATT style: one thread owns whole slices, so no atomics or locks are
// needed (§IV: "SPLATT uses the CSF data structure, and assigns one
// thread to process an entire slice").  Every team is sized by
// kernel_team_size(), so a kernel inside a pool task runs single-threaded.
// cpu-csf and cpu-coo run on the arithmetic engine (kernels/engine.hpp);
// this file keeps the CSL loop and cpu-coo's slice order.
#include <vector>

#include "kernels/engine.hpp"
#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

CooSliceOrder build_coo_slice_order(const SparseTensor& tensor,
                                    index_t mode) {
  BCSF_CHECK(mode < tensor.order(), "build_coo_slice_order: bad mode");
  CooSliceOrder order;
  order.mode = mode;
  order.perm = tensor.sort_permutation(mode_order_for(mode, tensor.order()));
  const offset_t m = tensor.nnz();
  for (offset_t z = 0; z < m; ++z) {
    if (z == 0 || tensor.coord(mode, order.perm[z]) !=
                      tensor.coord(mode, order.perm[z - 1])) {
      order.slice_start.push_back(z);
    }
  }
  order.slice_start.push_back(m);
  return order;
}

DenseMatrix mttkrp_csl_cpu(const CslTensor& csl,
                           const std::vector<DenseMatrix>& factors) {
  check_factors(csl.dims(), factors);
  const rank_t rank = factors.front().cols();
  const ModeOrder& order = csl.mode_order();
  const index_t n_other = csl.order() - 1;
  DenseMatrix out(csl.dims()[csl.root_mode()], rank);
  const std::int64_t n_slices = static_cast<std::int64_t>(csl.num_slices());

#pragma omp parallel num_threads(kernel_team_size())
  {
    std::vector<value_t> prod(rank);
#pragma omp for schedule(static)
    for (std::int64_t s = 0; s < n_slices; ++s) {
      auto yrow = out.row(csl.slice_index(static_cast<offset_t>(s)));
      for (offset_t z = csl.slice_begin(static_cast<offset_t>(s));
           z < csl.slice_end(static_cast<offset_t>(s)); ++z) {
        const value_t v = csl.value(z);
        for (rank_t r = 0; r < rank; ++r) prod[r] = v;
        for (index_t p = 0; p < n_other; ++p) {
          const auto row = factors[order[p + 1]].row(csl.nz_index(p, z));
          for (rank_t r = 0; r < rank; ++r) prod[r] *= row[r];
        }
        for (rank_t r = 0; r < rank; ++r) yrow[r] += prod[r];
      }
    }
  }
  return out;
}

}  // namespace bcsf
