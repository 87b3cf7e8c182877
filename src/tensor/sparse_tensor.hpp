// Order-N sparse tensor in coordinate (COO) form, structure-of-arrays.
//
// COO is both the paper's baseline storage format (§III-A, Algorithm 2)
// and the interchange representation every other format (CSF, B-CSF, CSL,
// HB-CSF, F-COO, HiCOO) is constructed from.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace bcsf {

/// A mode ordering: perm[0] is the root (slice) mode, perm[order-1] the
/// leaf mode whose indices are stored per nonzero in CSF-like formats.
using ModeOrder = std::vector<index_t>;

/// Returns the canonical ordering used by the paper for mode-n MTTKRP:
/// root = mode n, remaining modes in increasing order.  For a 3-order
/// tensor and n = 0 this is (0, 1, 2); for n = 1 it is (1, 0, 2).
ModeOrder mode_order_for(index_t mode, index_t order);

class SparseTensor {
 public:
  SparseTensor() = default;

  /// Creates an empty tensor with the given dimensions (order = dims.size()).
  explicit SparseTensor(std::vector<index_t> dims);

  index_t order() const { return static_cast<index_t>(dims_.size()); }
  offset_t nnz() const { return vals_.size(); }
  index_t dim(index_t mode) const { return dims_.at(mode); }
  const std::vector<index_t>& dims() const { return dims_; }

  /// Density = nnz / prod(dims), computed in double precision.
  double density() const;

  void reserve(offset_t n);

  /// Appends one nonzero; `coords` must have exactly `order()` entries that
  /// are all within bounds.
  void push_back(std::span<const index_t> coords, value_t value);

  /// Coordinate of nonzero `z` along `mode`.
  index_t coord(index_t mode, offset_t z) const { return inds_[mode][z]; }
  value_t value(offset_t z) const { return vals_[z]; }
  value_t& value(offset_t z) { return vals_[z]; }

  std::span<const index_t> mode_indices(index_t mode) const {
    return inds_.at(mode);
  }
  std::span<const value_t> values() const { return vals_; }
  std::span<value_t> values() { return vals_; }

  /// Lexicographically sorts the nonzeros by the given mode ordering
  /// (perm[0] is the most significant key).  CSF construction for mode n
  /// requires sorting by mode_order_for(n, order()).
  void sort(const ModeOrder& order);

  /// The permutation sort(order) applies, without moving anything:
  /// position z of the sorted tensor holds nonzero perm[z].
  offset_vec sort_permutation(const ModeOrder& order) const;

  /// True if nonzeros are sorted by the given ordering.
  bool is_sorted(const ModeOrder& order) const;

  /// Merges duplicate coordinates by summing their values.  The tensor is
  /// sorted by the identity mode order afterwards.  Returns the number of
  /// duplicates removed.
  offset_t coalesce();

  /// Verifies structural invariants (index bounds, equal array lengths);
  /// throws bcsf::Error on violation.
  void validate() const;

  /// Frobenius norm of the nonzero values.
  double norm() const;

  /// Total bytes of index storage in COO form: order * nnz * 4
  /// (the paper's "4 x 3M bytes" for third-order tensors, §III-A).
  std::size_t index_storage_bytes() const {
    return static_cast<std::size_t>(order()) * nnz() * kIndexBytes;
  }

  std::string shape_string() const;  ///< e.g. "533K x 17M x 2M"

 private:
  std::vector<index_t> dims_;
  std::vector<index_vec> inds_;  // one array per mode, each of length nnz
  value_vec vals_;
};

/// Shared-ownership handle to an immutable tensor.  This is the currency
/// of every layer that retains tensors past a call (DynamicSparseTensor
/// snapshots, ConcurrentPlanCache, TensorOpService): COO-family plans
/// reference their source tensor instead of copying it, so shared
/// ownership is what makes "retain a plan, drop the tensor" safe.
using TensorPtr = std::shared_ptr<const SparseTensor>;

/// Moves a tensor onto the heap under shared ownership (the normal way to
/// feed DynamicSparseTensor / ConcurrentPlanCache / TensorOpService).
TensorPtr share_tensor(SparseTensor&& tensor);

/// Non-owning view of a caller-owned tensor (aliasing shared_ptr with no
/// control block).  The caller guarantees the tensor outlives every plan
/// or snapshot built from it -- this is the bridge for legacy
/// reference-taking call sites like cpd_als(const SparseTensor&).
TensorPtr borrow_tensor(const SparseTensor& tensor);

}  // namespace bcsf
