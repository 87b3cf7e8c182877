// F-COO: Flagged COOrdinate format of Liu et al. [17] (§VII) -- a GPU
// baseline the paper compares against (Figs. 15 and 16).
//
// F-COO parallelizes over nonzeros like COO, but replaces the explicit
// root-mode index array with boolean flags: `bf` marks nonzeros that start
// a new fiber and `sf` marks those that start a new slice.  Write
// conflicts are resolved with a segmented scan instead of per-nonzero
// atomics.  Each fixed-size partition (`threads * threadlen` nonzeros)
// records its starting slice index so a thread can recover the output row
// by counting flags from the partition start.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

struct FcooOptions {
  /// Nonzeros per partition = product of thread block size and per-thread
  /// work; the paper tunes block in {32..1024} and threadlen in {8..64}.
  offset_t partition_size = 256 * 16;
};

class FcooTensor {
 public:
  const ModeOrder& mode_order() const { return mode_order_; }
  index_t root_mode() const { return mode_order_.front(); }
  index_t order() const { return static_cast<index_t>(mode_order_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }
  offset_t nnz() const { return vals_.size(); }

  /// Coordinate along non-root position p (mode_order()[p+1]) of nonzero z.
  index_t nz_index(index_t p, offset_t z) const { return nz_inds_[p][z]; }
  value_t value(offset_t z) const { return vals_[z]; }
  const index_vec& nz_indices(index_t p) const { return nz_inds_[p]; }
  const value_vec& values() const { return vals_; }

  bool starts_slice(offset_t z) const { return slice_flag_[z] != 0; }
  bool starts_fiber(offset_t z) const { return fiber_flag_[z] != 0; }

  offset_t num_partitions() const { return partition_slice_ordinal_.size(); }
  offset_t partition_size() const { return opts_.partition_size; }
  /// Ordinal (position in slice_index_list) of the slice active at the
  /// partition's first nonzero.  A thread recovers the output row of
  /// nonzero z as slice_index(partition ordinal + #sf flags in
  /// (partition start, z]) -- the segmented-scan bookkeeping of F-COO.
  offset_t partition_slice_ordinal(offset_t p) const {
    return partition_slice_ordinal_[p];
  }
  offset_t num_slices() const { return slice_index_list_.size(); }
  /// Root-mode index of the s-th distinct slice (compacted list).
  index_t slice_index(offset_t s) const { return slice_index_list_[s]; }

  /// Index storage: (order-1) coordinate words per nonzero plus two
  /// 1-bit flag arrays ("a boolean array to indicate the starting location
  /// of the fibers, instead of an integer array", §VI-F) plus the
  /// compacted slice index list and one word per partition.
  std::size_t index_storage_bytes() const {
    const std::size_t words = (order() - 1) * nnz() +
                              partition_slice_ordinal_.size() +
                              slice_index_list_.size();
    return words * kIndexBytes + 2 * ceil_div<std::size_t>(nnz(), 8);
  }

  void validate() const;
  std::string summary() const;

 private:
  friend FcooTensor build_fcoo(const SparseTensor& tensor, index_t mode,
                               const FcooOptions& opts);

  ModeOrder mode_order_;
  std::vector<index_t> dims_;
  FcooOptions opts_;
  std::vector<index_vec> nz_inds_;
  value_vec vals_;
  std::vector<std::uint8_t> slice_flag_;  // sf
  std::vector<std::uint8_t> fiber_flag_;  // bf
  index_vec slice_index_list_;            // compacted root indices
  offset_vec partition_slice_ordinal_;
};

FcooTensor build_fcoo(const SparseTensor& tensor, index_t mode,
                      const FcooOptions& opts = {});

}  // namespace bcsf
