// B-CSF: Balanced CSF (§IV) -- the paper's first contribution.
//
// Two rebalancing transformations are applied to a CSF tree so that a GPU
// can process it without inter-warp or inter-thread-block load imbalance:
//
//  * fbr-split (§IV-B): any fiber holding more than `fiber_threshold`
//    nonzeros is split into fiber *segments* of at most that many
//    nonzeros.  Segments repeat the fiber index, so warps see near-equal
//    work.  Splitting distributes over the fiber-local reduction of
//    Eq. (8), so the result is unchanged.
//
//  * slc-split (§IV-A): heavy slices are processed by several thread
//    blocks.  Following the binning idea of Ashari et al. [26], the
//    builder packs each slice's fiber segments into *blocks* of roughly
//    `block_nnz_capacity` nonzeros; a slice spanning several blocks needs
//    atomic updates to its output row ("the cost of the extra atomic
//    operations is well tolerated by the increase in concurrency").
//
// The block list is part of the format: it *is* the GPU work schedule
// (one thread block per entry), and the simulator consumes it directly.
//
// Next to it the builder records each block's walk order: its fiber
// segments sorted by nonzero count (where that pays), as the paper's
// warps run a block's segments side by side.  The arithmetic engine
// (kernels/engine.hpp) walks them in that order so equal-length segments
// share predictable loops; like the block list it is schedule metadata,
// 2 bytes per segment outside index_storage_bytes() (DESIGN.md §1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "formats/csf.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

struct BcsfOptions {
  bool fiber_split = true;
  bool slice_split = true;
  /// Max nonzeros per fiber segment; the paper finds 128 best (§VI-B).
  offset_t fiber_threshold = 128;
  /// Nonzeros per thread-block bin for slc-split; the paper's example uses
  /// 512-thread blocks processing ~512 nonzeros.
  offset_t block_nnz_capacity = 512;

  /// Both splits off: one block per slice and whole fibers, i.e. plain
  /// CSF's GPU schedule (the GPU-CSF kernel of Table II).
  static BcsfOptions unsplit() {
    BcsfOptions opts;
    opts.fiber_split = false;
    opts.slice_split = false;
    return opts;
  }
};

class BcsfTensor {
 public:
  /// One GPU thread block's assignment: a contiguous run of fiber segments
  /// inside a single slice.  `atomic_output` is set when the owning slice
  /// spans several blocks and the output row must be updated atomically.
  struct Block {
    offset_t fiber_begin = 0;  ///< leaf-parent node range [begin, end)
    offset_t fiber_end = 0;
    offset_t nnz = 0;          ///< leaf nonzeros covered by the block
    index_t slice = 0;         ///< level-0 node owning these fibers
    bool atomic_output = false;
  };

  const CsfTensor& csf() const { return csf_; }
  const BcsfOptions& options() const { return opts_; }
  const std::vector<Block>& blocks() const { return blocks_; }

  // Walk order.  A block's fiber segments are cut into windows of at
  // most kOrderWindow consecutive segments (window k of a block starts
  // at fiber_begin + k * kOrderWindow), and each window lists the order
  // its segments run in: by nonzero count, ties in segment order.  A
  // window where that order would save at most one change of count per
  // four segments (one already in length order, say) runs in fiber
  // order instead, marked kOrderInPlace on its first entry, and the walk
  // adds each segment's row as it goes rather than keeping it.  Entry p
  // of walk_order(), for p in a window starting at w, names the segment
  // that runs (p - w)'th: w + (entry & kOrderIndex).  kOrderPair marks
  // the first of two consecutive entries whose segments hold one count;
  // pairs are taken greedily along the walk.

  /// Segments a window holds at most: an unsplit slice can hold more
  /// than an entry addresses, and the walk keeps a window's rows on its
  /// stack.
  static constexpr offset_t kOrderWindow = 512;
  static constexpr std::uint16_t kOrderIndex = kOrderWindow - 1;
  static constexpr std::uint16_t kOrderPair = 0x8000;
  static constexpr std::uint16_t kOrderInPlace = 0x4000;
  static_assert((kOrderIndex & (kOrderPair | kOrderInPlace)) == 0 &&
                (kOrderWindow & kOrderIndex) == 0);

  /// One entry per fiber segment, 2 bytes each.
  const std::vector<std::uint16_t>& walk_order() const { return order_; }

  index_t order() const { return csf_.order(); }
  index_t root_mode() const { return csf_.root_mode(); }
  offset_t nnz() const { return csf_.nnz(); }
  offset_t num_fiber_segments() const { return csf_.num_fibers(); }

  /// Coordinate of the ancestor of fiber segment `f` at node level
  /// `level` (level order-2 gives the segment's own index).  The middle
  /// levels are precomputed so kernels reach every factor row without
  /// tree walks; the segment's own index is the CSF's, and level 0 -- the
  /// output row, which kernels take from Block::slice -- is found by a
  /// binary search over the slices.
  index_t fiber_coord(index_t level, offset_t f) const {
    if (level + 1 == csf_.node_levels()) return csf_.node_index(level, f);
    if (level == 0) return slice_of_fiber(f);
    return fiber_coords_[level - 1][f];
  }
  /// fiber_coord(level, f) of every fiber segment f, for level >= 1.
  const index_vec& fiber_coords(index_t level) const {
    return level + 1 == csf_.node_levels() ? csf_.level_indices(level)
                                           : fiber_coords_[level - 1];
  }

  /// Number of original fibers that were split (Fig. 5 diagnostics).
  offset_t split_fiber_count() const { return split_fiber_count_; }
  /// Number of slices processed by more than one block.
  offset_t split_slice_count() const { return split_slice_count_; }

  /// Index storage: CSF bytes plus one extra (index, pointer) word pair
  /// per added fiber segment.  The block list and the walk order are
  /// schedule arrays and stay out of it.
  std::size_t index_storage_bytes() const {
    return csf_.index_storage_bytes();
  }

  void validate() const;
  std::string summary() const;

 private:
  friend class BcsfBuilder;

  index_t slice_of_fiber(offset_t f) const;

  CsfTensor csf_;
  BcsfOptions opts_;
  std::vector<Block> blocks_;
  std::vector<std::uint16_t> order_;
  // [node level - 1][fiber segment] for the middle levels 1 .. order-3.
  std::vector<index_vec> fiber_coords_;
  offset_t split_fiber_count_ = 0;
  offset_t split_slice_count_ = 0;
};

/// Builds B-CSF for `mode`.  Construction cost is a single extra pass over
/// the CSF arrays ("this preprocessing step can be done while constructing
/// the CSF data structure", §IV-B).
BcsfTensor build_bcsf(const SparseTensor& tensor, index_t mode,
                      const BcsfOptions& opts = {});

/// Builds B-CSF from `perm`, a permutation that sorts the nonzeros by
/// mode_order_for(mode, order) (SparseTensor::sort_permutation); it is
/// freed once the CSF tree is built.
BcsfTensor build_bcsf(const SparseTensor& tensor, index_t mode,
                      offset_vec perm, const BcsfOptions& opts = {});

/// Builds B-CSF from a CSF tree, which it takes over: move a tree in to
/// build without copying it, or pass a copy to keep the original.
BcsfTensor build_bcsf_from_csf(CsfTensor csf, const BcsfOptions& opts = {});

}  // namespace bcsf
