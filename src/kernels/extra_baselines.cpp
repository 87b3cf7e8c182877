#include "kernels/extra_baselines.hpp"

#include <vector>

#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

DenseMatrix mttkrp_gigatensor_cpu(const SparseTensor& tensor, index_t mode,
                                  const std::vector<DenseMatrix>& factors) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(mode < tensor.order(), "mttkrp_gigatensor_cpu: bad mode");
  const rank_t rank = factors.front().cols();
  DenseMatrix out(tensor.dim(mode), rank);

  // Column-at-a-time: R sequential passes, each a pure Hadamard
  // accumulation (no fiber factoring) -- GigaTensor's MapReduce shape.
  for (rank_t r = 0; r < rank; ++r) {
    for (offset_t z = 0; z < tensor.nnz(); ++z) {
      value_t prod = tensor.value(z);
      for (index_t m = 0; m < tensor.order(); ++m) {
        if (m == mode) continue;
        prod *= factors[m](tensor.coord(m, z), r);
      }
      out(tensor.coord(mode, z), r) += prod;
    }
  }
  return out;
}

DenseMatrix mttkrp_dfacto_cpu(const CsfTensor& csf,
                              const std::vector<DenseMatrix>& factors) {
  check_factors(csf.dims(), factors);
  BCSF_CHECK(csf.order() == 3, "mttkrp_dfacto_cpu: order-3 only (as DFacTo)");
  const rank_t rank = factors.front().cols();
  const ModeOrder& order = csf.mode_order();
  const DenseMatrix& fiber_factor = factors[order[1]];
  const DenseMatrix& leaf_factor = factors[order[2]];
  const offset_t n_fibers = csf.num_fibers();

  DenseMatrix out(csf.dims()[csf.root_mode()], rank);
  // The intermediate DFacTo is criticized for: one value per fiber per
  // column ("The intermediate storage for DFacTo is large").
  std::vector<value_t> fiber_vals(n_fibers);

  for (rank_t r = 0; r < rank; ++r) {
    // SpMV 1: reduce each fiber's nonzeros against leaf-factor column r.
    for (offset_t f = 0; f < n_fibers; ++f) {
      value_t acc = 0.0F;
      for (offset_t z = csf.child_begin(1, f); z < csf.child_end(1, f); ++z) {
        acc += csf.value(z) * leaf_factor(csf.leaf_index(z), r);
      }
      fiber_vals[f] = acc;
    }
    // SpMV 2: combine fibers of each slice, scaled by the fiber factor.
    for (offset_t s = 0; s < csf.num_slices(); ++s) {
      value_t acc = 0.0F;
      for (offset_t f = csf.child_begin(0, s); f < csf.child_end(0, s); ++f) {
        acc += fiber_vals[f] * fiber_factor(csf.node_index(1, f), r);
      }
      out(csf.node_index(0, s), r) += acc;
    }
  }
  return out;
}

DenseMatrix mttkrp_csf_cpu_onemode(const CsfTensor& csf, index_t target,
                                   const std::vector<DenseMatrix>& factors) {
  check_factors(csf.dims(), factors);
  BCSF_CHECK(target < csf.order(), "mttkrp_csf_cpu_onemode: bad target");
  const rank_t rank = factors.front().cols();
  const ModeOrder& order = csf.mode_order();
  const index_t n_levels = csf.node_levels();
  const index_t leaf_mode = order.back();
  DenseMatrix out(csf.dims()[target], rank);

  // Find target's position in the mode ordering.
  index_t target_pos = 0;
  for (index_t p = 0; p < csf.order(); ++p) {
    if (order[p] == target) target_pos = p;
  }

  // Depth-first traversal maintaining, per level, the partial product of
  // the factor rows of all *non-target* modes above the leaf.  For each
  // leaf: multiply in the leaf row (unless the leaf is the target) and
  // scatter into the target coordinate's output row.
  std::vector<std::vector<value_t>> path(n_levels + 1,
                                         std::vector<value_t>(rank, 1.0F));
  struct Frame {
    index_t level;
    offset_t node;
  };
  std::vector<Frame> stack;
  std::vector<index_t> coord(n_levels);  // node coordinate per level

  for (offset_t s = 0; s < csf.num_slices(); ++s) {
    stack.clear();
    stack.push_back({0, s});
    // Recursive preorder; depth is bounded by the tensor order.
    auto walk = [&](auto&& self, index_t level, offset_t node) -> void {
      coord[level] = csf.node_index(level, node);
      auto& here = path[level + 1];
      const auto& above = path[level];
      const index_t mode_here = order[level];
      if (mode_here == target) {
        here = above;  // exclude the target mode's row
      } else {
        const auto row = factors[mode_here].row(coord[level]);
        for (rank_t r = 0; r < rank; ++r) here[r] = above[r] * row[r];
      }
      if (level == n_levels - 1) {
        // Leaves.
        for (offset_t z = csf.child_begin(level, node);
             z < csf.child_end(level, node); ++z) {
          const index_t k = csf.leaf_index(z);
          const value_t v = csf.value(z);
          index_t out_row;
          if (leaf_mode == target) {
            out_row = k;
            auto yrow = out.row(out_row);
            for (rank_t r = 0; r < rank; ++r) yrow[r] += v * here[r];
          } else {
            out_row = coord[target_pos];
            const auto lrow = factors[leaf_mode].row(k);
            auto yrow = out.row(out_row);
            for (rank_t r = 0; r < rank; ++r) {
              yrow[r] += v * here[r] * lrow[r];
            }
          }
        }
        return;
      }
      for (offset_t c = csf.child_begin(level, node);
           c < csf.child_end(level, node); ++c) {
        self(self, level + 1, c);
      }
    };
    walk(walk, 0, s);
  }
  return out;
}

}  // namespace bcsf
