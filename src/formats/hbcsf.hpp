// HB-CSF: Hybrid Balanced CSF (§V, Alg. 5) -- the paper's second
// contribution.
//
// Slices are classified by their nonzero pattern and each population is
// stored in the representation that wastes nothing on it:
//   (i)  slices with a single nonzero           -> COO   (sliceInCOO)
//   (ii) slices whose fibers are all singletons -> CSL   (sliceInCSL)
//   (iii) everything else                        -> B-CSF (sliceInCSF)
// MTTKRP executes the three group kernels back-to-back (Alg. 5 lines
// 18-20); the groups update disjoint output rows because a slice lives in
// exactly one group.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "formats/bcsf.hpp"
#include "formats/csl.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

class HbcsfTensor {
 public:
  const ModeOrder& mode_order() const { return mode_order_; }
  index_t root_mode() const { return mode_order_.front(); }
  index_t order() const { return static_cast<index_t>(mode_order_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }

  offset_t nnz() const { return coo_nnz() + csl_nnz() + csf_nnz(); }
  offset_t coo_nnz() const { return coo_vals_.size(); }
  offset_t csl_nnz() const { return csl_.nnz(); }
  offset_t csf_nnz() const { return bcsf_.nnz(); }

  /// COO group: coordinate `p` (position in mode_order) of nonzero `z`.
  index_t coo_index(index_t p, offset_t z) const { return coo_inds_[p][z]; }
  value_t coo_value(offset_t z) const { return coo_vals_[z]; }
  const index_vec& coo_indices(index_t p) const { return coo_inds_[p]; }
  const value_vec& coo_values() const { return coo_vals_; }

  const CslTensor& csl() const { return csl_; }
  const BcsfTensor& bcsf() const { return bcsf_; }

  /// Index storage = sum of the three groups' accounting
  /// ("4 x (1M ~ 3M) bytes", §V).
  std::size_t index_storage_bytes() const {
    return order() * coo_nnz() * kIndexBytes + csl_.index_storage_bytes() +
           bcsf_.index_storage_bytes();
  }

  void validate() const;
  std::string summary() const;

 private:
  friend HbcsfTensor build_hbcsf(const SparseTensor& tensor, index_t mode,
                                 offset_vec perm, const BcsfOptions& opts);

  ModeOrder mode_order_;
  std::vector<index_t> dims_;
  std::vector<index_vec> coo_inds_;  // [position in mode_order][nonzero]
  value_vec coo_vals_;
  CslTensor csl_;
  BcsfTensor bcsf_;
};

/// Classifies slices per Algorithm 5 and builds the three-group hybrid.
HbcsfTensor build_hbcsf(const SparseTensor& tensor, index_t mode,
                        const BcsfOptions& opts = {});

/// Builds HB-CSF from `perm`, a permutation that sorts the nonzeros by
/// mode_order_for(mode, order) (SparseTensor::sort_permutation), which it
/// takes over as scratch: callers that already sorted skip the sort.
HbcsfTensor build_hbcsf(const SparseTensor& tensor, index_t mode,
                        offset_vec perm, const BcsfOptions& opts = {});

}  // namespace bcsf
