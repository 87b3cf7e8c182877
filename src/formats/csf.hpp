// Compressed Sparse Fiber (CSF) -- the hierarchical tensor format of
// Smith et al. [12] that the paper extends (§III-B, Fig. 1, Alg. 3).
//
// For an order-N tensor sorted by a mode ordering, the nonzeros form a
// tree: level 0 nodes are slices (unique root-mode indices), level N-2
// nodes are fibers (unique all-but-leaf index tuples), and the leaf level
// stores the last mode's index and value per nonzero.  CSF is DCSR lifted
// to tensors: each node level stores its index plus a pointer range into
// the next level, and only non-empty nodes exist.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

class CsfTensor {
 public:
  CsfTensor() = default;

  /// Number of node levels (= order - 1); level `order-1` is the implicit
  /// leaf level held in `leaf_inds`/`vals`.
  index_t node_levels() const { return static_cast<index_t>(idx_.size()); }
  index_t order() const { return node_levels() + 1; }

  const ModeOrder& mode_order() const { return mode_order_; }
  /// The tensor mode this representation is rooted at (mode_order[0]).
  index_t root_mode() const { return mode_order_.front(); }
  const std::vector<index_t>& dims() const { return dims_; }

  offset_t nnz() const { return vals_.size(); }
  /// S: number of (non-empty) slices = level-0 nodes.
  offset_t num_slices() const { return idx_.empty() ? 0 : idx_[0].size(); }
  /// F: number of (non-empty) fibers = level-(order-2) nodes.
  offset_t num_fibers() const {
    return idx_.empty() ? 0 : idx_.back().size();
  }
  offset_t num_nodes(index_t level) const { return idx_.at(level).size(); }

  /// Index (coordinate along mode_order()[level]) of node `n` at `level`.
  index_t node_index(index_t level, offset_t n) const {
    return idx_[level][n];
  }
  /// Children of node `n` at `level` occupy [child_begin, child_end) at
  /// level+1 (or in the leaf arrays when level == order-2).
  offset_t child_begin(index_t level, offset_t n) const {
    return ptr_[level][n];
  }
  offset_t child_end(index_t level, offset_t n) const {
    return ptr_[level][n + 1];
  }

  index_t leaf_index(offset_t z) const { return leaf_inds_[z]; }
  value_t value(offset_t z) const { return vals_[z]; }

  const index_vec& level_indices(index_t level) const { return idx_.at(level); }
  const offset_vec& level_pointers(index_t level) const { return ptr_.at(level); }
  const index_vec& leaf_indices() const { return leaf_inds_; }
  const value_vec& values() const { return vals_; }

  /// Nonzeros under node `n` at `level` (leaf range spanned by the subtree).
  offset_t subtree_nnz(index_t level, offset_t n) const;

  /// Verifies tree invariants (monotone pointers, sorted sibling indices,
  /// no empty nodes); throws bcsf::Error on violation.
  void validate() const;

  /// Index storage in bytes following the paper's accounting
  /// (§III-B: 4 x (2S + 2F + M) for order 3): every node level pays one
  /// index word + one pointer word per node, the leaf pays one word per
  /// nonzero.
  std::size_t index_storage_bytes() const;

  std::string summary() const;

 private:
  friend class CsfBuilder;
  friend class BcsfBuilder;

  ModeOrder mode_order_;
  std::vector<index_t> dims_;
  std::vector<index_vec> idx_;   // node index arrays, one per node level
  std::vector<offset_vec> ptr_;  // node child pointers, one per node level
  index_vec leaf_inds_;
  value_vec vals_;
};

/// Builds the CSF tree for `mode` (root = mode, remaining modes in
/// increasing order, the paper's convention).  Reads the nonzeros through
/// a sort permutation instead of sorting a copy of the tensor.
CsfTensor build_csf(const SparseTensor& tensor, index_t mode);

/// Builds from an already-sorted tensor (no copy, no sort).  The tensor
/// must be sorted by `order` (checked).
CsfTensor build_csf_from_sorted(const SparseTensor& sorted,
                                const ModeOrder& order);

/// Builds from the nonzeros perm[0], perm[1], ... of `tensor`, a sequence
/// that must be sorted by `order` (checked): a sort permutation, or a
/// subsequence of one, stands in for a sorted copy.
CsfTensor build_csf_from_sorted(const SparseTensor& tensor,
                                const ModeOrder& order,
                                std::span<const offset_t> perm);

}  // namespace bcsf
