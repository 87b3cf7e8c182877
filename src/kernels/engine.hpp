// The arithmetic engine behind every simulated GPU format (DESIGN.md §1).
//
// A simulated kernel is two independent halves.  Its cost walk
// (simulate_*_gpu in kernels/mttkrp.hpp) turns the index structure, the
// rank and the device into the SimReport and never reads a factor value.
// The engine here computes the output over the format's own work units,
// in schedule order: B-CSF blocks, CSL warp segments, HB-CSF's three
// slice groups written into one output, COO nonzeros and F-COO chunks.
// A GPU plan pays the walk once per rank (SimMemo) and the engine on
// every call.
//
// Threading: every engine walks its work units on the calling thread, in
// schedule order, so each output row is accumulated in that order and
// outputs are bitwise identical at every thread count.  Parallelism comes
// from the caller (shards and pool workers on the serving path); the
// engine opens no OpenMP team, whose short regions made end-to-end times
// vary from run to run on a shared host (DESIGN.md §1).
#pragma once

#include <algorithm>
#include <vector>

#include "formats/bcsf.hpp"
#include "formats/csl.hpp"
#include "formats/fcoo.hpp"
#include "formats/hbcsf.hpp"
#include "gpusim/device.hpp"
#include "kernels/mttkrp.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"

namespace bcsf {

/// Team size for every OpenMP region under src/ (the `omp-team-size` lint
/// rule holds each `#pragma omp parallel` to it): 1 inside a pool task
/// (util/thread_pool.hpp in_pool_task), where shards and workers already
/// supply the parallelism, otherwise the OpenMP default.
int kernel_team_size();

/// F-COO's per-warp chunk: one partition split evenly over a block's
/// warps.  The cost walk and the engine share it, so both see the same
/// segmented-scan boundaries.
inline offset_t fcoo_chunk_nnz(const FcooTensor& fcoo,
                               const DeviceModel& device) {
  return std::max<offset_t>(
      1, ceil_div(fcoo.partition_size(), offset_t{device.warps_per_block()}));
}

// Every engine writes MTTKRP into `out`, shaped to dims[root] x R (reusing
// its storage when the shape already matches) and zeroed first.  `out`
// may be the root mode's own factor matrix: MTTKRP_n never reads A_n, and
// the factors are validated before `out` is touched.

/// B-CSF blocks, fiber segments in order within each block.
void bcsf_engine(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& factors,
                 DenseMatrix& out,
                 OutputCombine combine = OutputCombine::kPerFiber);

/// CSL slices, each in warp segments of `device.csl_segment_nnz`
/// nonzeros.  The engine reads only that work-unit size from `device`.
void csl_engine(const CslTensor& csl, const std::vector<DenseMatrix>& factors,
                const DeviceModel& device, DenseMatrix& out);

/// HB-CSF: the COO, CSL and B-CSF groups, written into one output.
void hbcsf_engine(const HbcsfTensor& hbcsf,
                  const std::vector<DenseMatrix>& factors,
                  const DeviceModel& device, DenseMatrix& out);

/// ParTI-COO: nonzeros in storage order, sequential.
void coo_engine(const SparseTensor& tensor, index_t mode,
                const std::vector<DenseMatrix>& factors, DenseMatrix& out);

/// F-COO: fcoo_chunk_nnz chunks in order, sequential.
void fcoo_engine(const FcooTensor& fcoo, const std::vector<DenseMatrix>& factors,
                 const DeviceModel& device, DenseMatrix& out);

}  // namespace bcsf
