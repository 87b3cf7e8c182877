#include "kernels/splatt.hpp"

#include <algorithm>

#include "kernels/engine.hpp"
#include "kernels/mttkrp.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bcsf {

SplattAllmode::SplattAllmode(const SparseTensor& tensor, SplattOptions opts)
    : opts_(opts) {
  Timer timer;
  csfs_.reserve(tensor.order());
  for (index_t mode = 0; mode < tensor.order(); ++mode) {
    csfs_.push_back(build_csf(tensor, mode));
  }
  // Tiling is a traversal-time strategy over the same CSF arrays; SPLATT
  // additionally reorders for tiles, which we charge as one extra pass.
  preprocessing_seconds_ = timer.seconds();
  if (opts_.tiling) {
    preprocessing_seconds_ *= 1.0 + 1.0 / static_cast<double>(tensor.order());
  }
}

DenseMatrix mttkrp_csf_cpu_tiled(const CsfTensor& csf,
                                 const std::vector<DenseMatrix>& factors,
                                 index_t tiles) {
  check_factors(csf.dims(), factors);
  BCSF_CHECK(tiles >= 1, "mttkrp_csf_cpu_tiled: tiles must be >= 1");
  const rank_t rank = factors.front().cols();
  const ModeOrder& order = csf.mode_order();
  const index_t n_levels = csf.node_levels();
  const index_t fiber_level = n_levels - 1;
  const index_t leaf_mode = order.back();
  const index_t leaf_dim = csf.dims()[leaf_mode];
  const DenseMatrix& leaf_factor = factors[leaf_mode];
  const index_t tile_width = std::max<index_t>(1, ceil_div(leaf_dim, tiles));

  DenseMatrix out(csf.dims()[csf.root_mode()], rank);
  const std::int64_t n_slices = static_cast<std::int64_t>(csf.num_slices());

  // One pass per leaf tile: each pass touches only leaf-factor rows inside
  // the tile, bounding the working set (the point of SPLATT's tiling).
  // Correct for any order because a fiber's partial sums distribute over
  // leaf subsets, exactly like fbr-split.
  for (index_t tile = 0; tile < tiles; ++tile) {
    const index_t k_lo = tile * tile_width;
    const index_t k_hi =
        std::min<index_t>(leaf_dim, static_cast<index_t>(k_lo + tile_width));
    if (k_lo >= leaf_dim) break;

#pragma omp parallel num_threads(kernel_team_size())
    {
      std::vector<value_t> tmp(rank);
      std::vector<value_t> path(rank);
#pragma omp for schedule(static)
      for (std::int64_t s = 0; s < n_slices; ++s) {
        auto yrow = out.row(csf.node_index(0, static_cast<offset_t>(s)));
        // Enumerate this slice's fibers by walking the pointer chain, and
        // process only leaves inside [k_lo, k_hi).
        offset_t fbr_begin = csf.child_begin(0, static_cast<offset_t>(s));
        offset_t fbr_end = csf.child_end(0, static_cast<offset_t>(s));
        for (index_t l = 1; l + 1 < n_levels; ++l) {
          fbr_begin = csf.level_pointers(l)[fbr_begin];
          fbr_end = csf.level_pointers(l)[fbr_end];
        }
        if (n_levels == 1) {
          fbr_begin = static_cast<offset_t>(s);
          fbr_end = fbr_begin + 1;
        }
        for (offset_t f = fbr_begin; f < fbr_end; ++f) {
          std::fill(tmp.begin(), tmp.end(), 0.0F);
          bool any = false;
          for (offset_t z = csf.child_begin(fiber_level, f);
               z < csf.child_end(fiber_level, f); ++z) {
            const index_t k = csf.leaf_index(z);
            if (k < k_lo || k >= k_hi) continue;
            any = true;
            const value_t v = csf.value(z);
            const auto crow = leaf_factor.row(k);
            for (rank_t r = 0; r < rank; ++r) tmp[r] += v * crow[r];
          }
          if (!any) continue;
          // Multiply the ancestor rows (levels fiber..1).  Ancestor
          // coordinates are recovered by a binary search up the pointer
          // chain -- the tiled traversal does not keep a DFS path.
          for (rank_t r = 0; r < rank; ++r) path[r] = tmp[r];
          offset_t node = f;
          for (index_t level = fiber_level; level >= 1; --level) {
            const auto row =
                factors[order[level]].row(csf.node_index(level, node));
            for (rank_t r = 0; r < rank; ++r) path[r] *= row[r];
            if (level > 1) {
              const offset_vec& ptr = csf.level_pointers(level - 1);
              node = static_cast<offset_t>(
                         std::upper_bound(ptr.begin(), ptr.end(), node) -
                         ptr.begin()) -
                     1;
            }
          }
          for (rank_t r = 0; r < rank; ++r) yrow[r] += path[r];
        }
      }
    }
  }
  return out;
}

}  // namespace bcsf
