// Real (runnable) CPU MTTKRP kernels, parallelized with OpenMP in the
// SPLATT style: one thread owns whole slices, so no atomics or locks are
// needed (§IV: "SPLATT uses the CSF data structure, and assigns one
// thread to process an entire slice").  Every team is sized by
// kernel_team_size(), so a kernel inside a pool task runs single-threaded.
#include <algorithm>
#include <numeric>
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

DenseMatrix mttkrp_coo_cpu(const SparseTensor& tensor, index_t mode,
                           const std::vector<DenseMatrix>& factors) {
  check_factors(tensor.dims(), factors);
  return mttkrp_coo_cpu(tensor, build_coo_slice_order(tensor, mode), factors);
}

DenseMatrix mttkrp_coo_cpu(const SparseTensor& tensor,
                           const CooSliceOrder& order,
                           const std::vector<DenseMatrix>& factors) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(order.perm.size() == tensor.nnz(),
             "mttkrp_coo_cpu: slice order built for another tensor");
  const index_t mode = order.mode;
  const rank_t rank = factors.front().cols();
  const std::int64_t n_slices =
      static_cast<std::int64_t>(order.slice_start.size()) - 1;

  DenseMatrix out(tensor.dim(mode), rank);
#pragma omp parallel num_threads(kernel_team_size())
  {
    std::vector<value_t> prod(rank);
#pragma omp for schedule(static)
    for (std::int64_t s = 0; s < n_slices; ++s) {
      for (offset_t i = order.slice_start[s]; i < order.slice_start[s + 1];
           ++i) {
        const offset_t z = order.perm[i];
        const value_t v = tensor.value(z);
        for (rank_t r = 0; r < rank; ++r) prod[r] = v;
        for (index_t f = 0; f < tensor.order(); ++f) {
          if (f == mode) continue;
          const auto row = factors[f].row(tensor.coord(f, z));
          for (rank_t r = 0; r < rank; ++r) prod[r] *= row[r];
        }
        auto yrow = out.row(tensor.coord(mode, z));
        for (rank_t r = 0; r < rank; ++r) yrow[r] += prod[r];
      }
    }
  }
  return out;
}

DenseMatrix mttkrp_csf_cpu(const CsfTensor& csf,
                           const std::vector<DenseMatrix>& factors) {
  check_factors(csf.dims(), factors);
  const rank_t rank = factors.front().cols();
  const ModeOrder& order = csf.mode_order();
  const index_t n_levels = csf.node_levels();
  const index_t leaf_mode = order.back();
  const DenseMatrix& leaf_factor = factors[leaf_mode];

  DenseMatrix out(csf.dims()[csf.root_mode()], rank);
  const std::int64_t n_slices = static_cast<std::int64_t>(csf.num_slices());

#pragma omp parallel num_threads(kernel_team_size())
  {
    // One accumulation buffer per tree level ("only R words of
    // intermediate storage" per level, §VII).
    std::vector<std::vector<value_t>> tmp(n_levels,
                                          std::vector<value_t>(rank));
    // Explicit DFS over the slice subtree: (level, node, child cursor).
    struct Frame {
      index_t level;
      offset_t node;
      offset_t cursor;
    };
    std::vector<Frame> stack;

#pragma omp for schedule(static)
    for (std::int64_t s = 0; s < n_slices; ++s) {
      auto yrow = out.row(csf.node_index(0, static_cast<offset_t>(s)));
      // Iterative post-order walk: accumulate children into tmp[level],
      // scale by the node's factor row, add into the parent accumulator.
      stack.clear();
      stack.push_back({0, static_cast<offset_t>(s), 0});
      std::fill(tmp[0].begin(), tmp[0].end(), 0.0F);
      while (!stack.empty()) {
        Frame& f = stack.back();
        const offset_t begin = csf.child_begin(f.level, f.node);
        const offset_t end = csf.child_end(f.level, f.node);
        if (f.level == n_levels - 1) {
          // Fiber: accumulate the leaves (Alg. 3 line 11).
          auto& acc = tmp[f.level];
          std::fill(acc.begin(), acc.end(), 0.0F);
          for (offset_t z = begin; z < end; ++z) {
            const value_t v = csf.value(z);
            const auto crow = leaf_factor.row(csf.leaf_index(z));
            for (rank_t r = 0; r < rank; ++r) acc[r] += v * crow[r];
          }
          // Scale by this fiber's own row and pass to the parent.
          if (f.level > 0) {
            const auto brow =
                factors[order[f.level]].row(csf.node_index(f.level, f.node));
            auto& parent = tmp[f.level - 1];
            for (rank_t r = 0; r < rank; ++r) parent[r] += acc[r] * brow[r];
          } else {
            for (rank_t r = 0; r < rank; ++r) yrow[r] += acc[r];
          }
          stack.pop_back();
          continue;
        }
        if (f.cursor == 0) std::fill(tmp[f.level].begin(), tmp[f.level].end(), 0.0F);
        if (begin + f.cursor < end) {
          const offset_t child = begin + f.cursor;
          ++f.cursor;
          stack.push_back({static_cast<index_t>(f.level + 1), child, 0});
          continue;
        }
        // All children done: scale and propagate upward.
        if (f.level > 0) {
          const auto row =
              factors[order[f.level]].row(csf.node_index(f.level, f.node));
          auto& parent = tmp[f.level - 1];
          const auto& acc = tmp[f.level];
          for (rank_t r = 0; r < rank; ++r) parent[r] += acc[r] * row[r];
        } else {
          const auto& acc = tmp[0];
          for (rank_t r = 0; r < rank; ++r) yrow[r] += acc[r];
        }
        stack.pop_back();
      }
    }
  }
  return out;
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
