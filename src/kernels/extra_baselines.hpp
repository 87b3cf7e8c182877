// Additional MTTKRP algorithms discussed in the paper's related work
// (§VII), implemented as runnable CPU baselines:
//
//  * GigaTensor-style COO MTTKRP [11]: per-nonzero Hadamard products
//    without the fiber factoring of Eq. (8) -- the "5MR operations"
//    formulation, here realized column-by-column (Eq. 5).
//  * DFacTo-style MTTKRP [10]: one rank column at a time via two sparse
//    matrix-vector products -- "DFacTo computes one column at a time with
//    two SpMV operations, which requires 2R(M + F) operations" and a
//    large intermediate (one value per fiber).
//  * SPLATT ONEMODE: MTTKRP for a mode *other than* a CSF tree's root by
//    traversing the foreign-rooted tree and scattering contributions --
//    the setting the paper avoids via ALLMODE ("Except for the root mode,
//    MTTKRP for other modes is performed via recursion, which causes
//    performance degradation", §VI-A).
#pragma once

#include <vector>

#include "formats/csf.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"

namespace bcsf {

/// GigaTensor-style COO MTTKRP (Eq. 5): column-at-a-time Hadamard
/// accumulation.  Same result as Algorithm 2, different loop structure
/// and operation count (R passes over the nonzeros).
DenseMatrix mttkrp_gigatensor_cpu(const SparseTensor& tensor, index_t mode,
                                  const std::vector<DenseMatrix>& factors);

/// DFacTo-style MTTKRP for third-order tensors: for each rank column r,
/// SpMV-1 reduces each fiber against the leaf factor column, SpMV-2
/// scatters fiber results scaled by the fiber-mode factor column into the
/// output column.  Requires a CSF rooted at `csf.root_mode()`; the output
/// is for that root mode.  Order-3 only (as DFacTo is).
DenseMatrix mttkrp_dfacto_cpu(const CsfTensor& csf,
                              const std::vector<DenseMatrix>& factors);

/// SPLATT ONEMODE: computes mode-`target` MTTKRP from one CSF tree,
/// usually rooted at a *different* mode.  Walks the tree once, forming
/// for every nonzero the product of all factor rows except target's,
/// scattered into the target coordinate's output row.  Works for any
/// order and any target, the root included; slower than the root-mode
/// kernel (the cpu-csf plan), which is exactly the paper's point.
DenseMatrix mttkrp_csf_cpu_onemode(const CsfTensor& csf, index_t target,
                                   const std::vector<DenseMatrix>& factors);

}  // namespace bcsf
