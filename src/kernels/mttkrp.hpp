// Public MTTKRP API: every kernel in the paper, over every format.
//
// A simulated GPU kernel is two halves over one (block, warp, work item)
// decomposition: a cost walk (simulate_*_gpu) that charges the schedule
// from the index structure, the rank and the device alone, and an
// arithmetic engine (kernels/engine.hpp) that computes the real fp32
// output over the same work units in schedule order.  mttkrp_*_gpu runs
// both.  CPU kernels are real OpenMP code timed with wall clocks: the
// cpu-csf and cpu-coo plans run the engine's B-CSF walk and per-nonzero
// product loop, and the CSL, tiled-CSF and HiCOO kernels below keep their
// own loops.  The cross-platform figures additionally use the analytic
// Broadwell model in cpu_model.hpp (see DESIGN.md §1).
//
// Convention: `factors` holds one matrix per tensor mode (factors[m] has
// dims[m] rows, all with equal rank).  Mode-n MTTKRP reads every factor
// except n and returns a dims[n] x R matrix.
#pragma once

#include <span>
#include <vector>

#include "formats/bcsf.hpp"
#include "formats/csf.hpp"
#include "formats/csl.hpp"
#include "formats/fcoo.hpp"
#include "formats/hbcsf.hpp"
#include "formats/hicoo.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"

namespace bcsf {

/// Validates factor shapes against the tensor dims; throws bcsf::Error.
void check_factors(const std::vector<index_t>& dims,
                   const std::vector<DenseMatrix>& factors);

// ---------------------------------------------------------------------------
// Reference (sequential, double accumulation; Algorithm 2)
// ---------------------------------------------------------------------------

DenseMatrix mttkrp_reference(const SparseTensor& tensor, index_t mode,
                             const std::vector<DenseMatrix>& factors);

/// Adds the MTTKRP contribution of `deltas` -- COO batches of additive
/// updates with the base tensor's dims -- into `inout` (dims[mode] x R,
/// typically a base plan's output).  MTTKRP is linear in the tensor
/// values, so base-plan-result + delta contribution equals the MTTKRP of
/// the merged tensor.  Accumulates in double like mttkrp_reference:
/// inout is promoted ONCE, every chunk's terms accumulate, and one cast
/// back happens at the end -- so a whole TensorSnapshot delta is swept
/// with a single float rounding boundary (per-chunk calls would round at
/// every chunk seam) and without per-chunk buffer copies.
void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             DenseMatrix& inout);

/// Single-chunk convenience overload.
void mttkrp_delta_accumulate(const SparseTensor& delta, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             DenseMatrix& inout);

/// Double-accumulator variant for callers already holding a promoted
/// buffer: adds every chunk's MTTKRP terms with NO float rounding at all
/// into `acc`, which covers output rows [row_begin, row_begin +
/// acc.size()/R) of the mode-`mode` result (row-major; row_begin = 0
/// and dims[mode] rows for the whole output).  The shard combine
/// (core/shard_combine.hpp) sweeps each shard's delta into its double
/// partial or owned row window this way, so a K-shard response rounds at
/// one float boundary (DESIGN.md §8).  Every delta coordinate must fall
/// inside the window -- the sharded service routes update batches by
/// slice range, so an out-of-window row means routing drifted from shard
/// ownership and the call throws rather than corrupt a neighbor's rows.
void mttkrp_delta_accumulate(std::span<const TensorPtr> deltas, index_t mode,
                             const std::vector<DenseMatrix>& factors,
                             std::span<double> acc, index_t row_begin);

// ---------------------------------------------------------------------------
// Simulated GPU kernels
// ---------------------------------------------------------------------------

struct GpuMttkrpResult {
  DenseMatrix output;
  SimReport report;
};

/// Per-plan cache of value-independent SimReports (kernels/gpu_common.hpp).
/// Kernels taking a `SimMemo*` run the cost walk only on the first call
/// per rank and return the stored report on repeats; the engine runs on
/// every call.
class SimMemo;

/// Plain GPU-CSF (§IV's starting point, Table II): one thread block per
/// slice, fibers round-robin across warps -- no splitting, the kernel
/// whose imbalance motivates B-CSF.
GpuMttkrpResult mttkrp_csf_gpu(const CsfTensor& csf,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device);

/// How a B-CSF block combines fiber results into the output row -- a
/// design choice Alg. 3 leaves open (its lines 12-13 update Y per fiber;
/// SPLATT's CPU code accumulates per slice):
///  * kPerFiber: each fiber's scaled partial is combined into Y
///    immediately (shared-memory atomic within the block, global atomic
///    across slc-split blocks);
///  * kPerSliceShared: warps accumulate into a block-shared buffer and
///    the block writes Y once at the end (fewer output touches, one
///    block-wide reduction).
enum class OutputCombine { kPerFiber, kPerSliceShared };

/// B-CSF kernel (§IV): one thread block per B-CSF block, fiber segments
/// round-robin across warps, global atomics only for split slices.
/// `memo`, when non-null, must be dedicated to this (bcsf, device,
/// combine) triple; repeat calls per rank skip the simulation.
GpuMttkrpResult mttkrp_bcsf_gpu(const BcsfTensor& bcsf,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device,
                                OutputCombine combine = OutputCombine::kPerFiber,
                                SimMemo* memo = nullptr);

/// CSL kernel (Alg. 4): one warp per compressed slice.
GpuMttkrpResult mttkrp_csl_gpu(const CslTensor& csl,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device);

/// ParTI-style COO kernel [18]: thread per nonzero, global atomics.
/// `memo`, when non-null, must be dedicated to this (tensor, mode,
/// device) triple; repeat calls per rank skip the simulation.
GpuMttkrpResult mttkrp_coo_gpu(const SparseTensor& tensor, index_t mode,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device,
                               SimMemo* memo = nullptr);

/// F-COO kernel [17]: per-partition products + segmented scan.
GpuMttkrpResult mttkrp_fcoo_gpu(const FcooTensor& fcoo,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device);

/// HB-CSF kernel (Alg. 5 lines 18-20): COO, CSL and B-CSF group kernels
/// launched back-to-back into one output.
GpuMttkrpResult mttkrp_hbcsf_gpu(const HbcsfTensor& hbcsf,
                                 const std::vector<DenseMatrix>& factors,
                                 const DeviceModel& device);

// Cost walks: each kernel's SimReport from the index structure, the rank
// and the device -- never factor values -- so a plan can pay one walk per
// rank (SimMemo) and run only the engine afterwards.

/// GPU-CSF's walk: the B-CSF walk over a B-CSF built with
/// BcsfOptions::unsplit(), reported as "csf-gpu".
SimReport simulate_csf_gpu(const BcsfTensor& unsplit, rank_t rank,
                           const DeviceModel& device);
SimReport simulate_bcsf_gpu(const BcsfTensor& bcsf, rank_t rank,
                            const DeviceModel& device,
                            OutputCombine combine = OutputCombine::kPerFiber);
SimReport simulate_csl_gpu(const CslTensor& csl, rank_t rank,
                           const DeviceModel& device);
SimReport simulate_coo_gpu(const SparseTensor& tensor, index_t mode,
                           rank_t rank, const DeviceModel& device);
SimReport simulate_fcoo_gpu(const FcooTensor& fcoo, rank_t rank,
                            const DeviceModel& device);
SimReport simulate_hbcsf_gpu(const HbcsfTensor& hbcsf, rank_t rank,
                             const DeviceModel& device);

// ---------------------------------------------------------------------------
// CPU kernels (real OpenMP implementations)
// ---------------------------------------------------------------------------

/// A COO tensor's nonzeros grouped by mode-`mode` slice, without moving
/// them: `perm` lists nonzero ids in mode_order_for(mode) sort order and
/// slice s owns perm[slice_start[s], slice_start[s + 1]).  cpu-coo's
/// engine (coo_engine in kernels/engine.hpp) hands whole slices to
/// threads, so no two threads share an output row; the cpu-coo plan
/// builds this once instead of per call.
struct CooSliceOrder {
  index_t mode = 0;
  offset_vec perm;
  offset_vec slice_start;

  std::size_t bytes() const {
    return (perm.size() + slice_start.size()) * sizeof(offset_t);
  }
};

CooSliceOrder build_coo_slice_order(const SparseTensor& tensor, index_t mode);

/// CSL MTTKRP (Algorithm 4), parallel over slices.
DenseMatrix mttkrp_csl_cpu(const CslTensor& csl,
                           const std::vector<DenseMatrix>& factors);

/// HiCOO MTTKRP [13]: block-by-block with privatized accumulators.
DenseMatrix mttkrp_hicoo_cpu(const HicooTensor& hicoo, index_t mode,
                             const std::vector<DenseMatrix>& factors);

}  // namespace bcsf
