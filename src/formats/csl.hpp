// CSL: Compressed SLice format (§V-A, Fig. 3, Alg. 4).
//
// When every fiber of a slice holds a single nonzero, CSF's fiber pointer
// level is pure overhead: slice pointers can address the nonzeros
// directly.  CSL stores, per slice, a pointer range into flat per-nonzero
// arrays holding all non-root coordinates and the value.  MTTKRP on CSL
// also skips the fiber-local accumulation (the "+=" into tmp of Alg. 3),
// saving one add per nonzero.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

class CslTensor {
 public:
  CslTensor() = default;

  const ModeOrder& mode_order() const { return mode_order_; }
  index_t root_mode() const { return mode_order_.front(); }
  index_t order() const { return static_cast<index_t>(mode_order_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }

  offset_t nnz() const { return vals_.size(); }
  offset_t num_slices() const { return slice_inds_.size(); }

  index_t slice_index(offset_t s) const { return slice_inds_[s]; }
  offset_t slice_begin(offset_t s) const { return slice_ptr_[s]; }
  offset_t slice_end(offset_t s) const { return slice_ptr_[s + 1]; }

  /// Coordinate of nonzero `z` along non-root position `p` (p indexes
  /// mode_order()[p+1]).
  index_t nz_index(index_t p, offset_t z) const { return nz_inds_[p][z]; }
  value_t value(offset_t z) const { return vals_[z]; }

  const index_vec& nz_indices(index_t p) const { return nz_inds_[p]; }
  const index_vec& slice_indices() const { return slice_inds_; }
  const offset_vec& slice_pointers() const { return slice_ptr_; }
  const value_vec& values() const { return vals_; }

  /// Index storage per §V-A accounting: slice index + slice pointer per
  /// slice, plus (order-1) coordinate words per nonzero.
  std::size_t index_storage_bytes() const {
    return (2 * num_slices() + (order() - 1) * nnz()) * kIndexBytes;
  }

  void validate() const;
  std::string summary() const;

 private:
  friend class CslBuilder;

  ModeOrder mode_order_;
  std::vector<index_t> dims_;
  index_vec slice_inds_;
  offset_vec slice_ptr_;
  std::vector<index_vec> nz_inds_;  // one array per non-root mode
  value_vec vals_;
};

/// Builds CSL for `mode`, reading the nonzeros through a sort permutation
/// (no sorted copy).  Any slice content is representable; HB-CSF routes
/// only all-singleton-fiber slices here.
CslTensor build_csl(const SparseTensor& tensor, index_t mode);

/// Builds CSL from `perm`, a permutation that sorts the nonzeros by
/// mode_order_for(mode, order) (SparseTensor::sort_permutation), so a
/// caller that already sorted skips the sort.
CslTensor build_csl(const SparseTensor& tensor, index_t mode, offset_vec perm);

/// Builds from slices the caller has already classified (e.g. HB-CSF's
/// CSL group): slice s has root index slice_inds[s] and holds the
/// slice_ptr[s+1] - slice_ptr[s] nonzeros perm[starts[s]],
/// perm[starts[s] + 1], ... of `tensor`, in `order`.  Runs of a sort
/// permutation stand in for a sorted copy, and the boundaries save the
/// builder's re-scan.  `slice_ptr` starts at 0 and has one extra entry ==
/// the group's nnz.
CslTensor build_csl_from_runs(const SparseTensor& tensor,
                              const ModeOrder& order,
                              std::span<const offset_t> perm,
                              std::span<const offset_t> starts,
                              index_vec slice_inds, offset_vec slice_ptr);

}  // namespace bcsf
