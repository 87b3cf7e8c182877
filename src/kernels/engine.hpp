// The arithmetic engine behind every simulated GPU format and the cpu-csf
// and cpu-coo keys (DESIGN.md §1).
//
// A simulated kernel is two independent halves.  Its cost walk
// (simulate_*_gpu in kernels/mttkrp.hpp) turns the index structure, the
// rank and the device into the SimReport and never reads a factor value.
// The engine here computes the output over the format's own work units,
// in schedule order: B-CSF blocks, CSL warp segments, HB-CSF's three
// slice groups written into one output, COO nonzeros and F-COO chunks.
// A GPU plan pays the walk once per rank (SimMemo) and the engine on
// every call.  Two real CPU keys run the same walks and time them with a
// wall clock: cpu-csf is SPLATT's CSF loop (Alg. 3), which is the B-CSF
// walk over an unsplit B-CSF, and cpu-coo is the per-nonzero product
// loop over a CooSliceOrder's slices.
//
// Rank loops: each work-unit walk -- B-CSF blocks, CSL warp segments and
// the per-nonzero product loop of HB-CSF's singletons and COO -- is
// written once, over a row policy that places each rank-R row it works
// on (a fiber's partial, a segment's sum, a nonzero's product, a block's
// output row).  Up to rank 16 the rows are compile-time-width tiles of
// value_t vector lanes in registers, so a work unit takes one pass and
// no scratch; above rank 16, and for F-COO's chunk walk at every rank,
// they live in scratch and the rank loops run to the runtime rank.
// Either way lane r performs the same float statements in the same order
// as the warp lane of the simulated schedule, so the two agree bit for
// bit (DESIGN.md §1).
//
// B-CSF walk order: on tiles, a block's fiber segments run in the
// B-CSF's walk order (BcsfTensor::walk_order), by nonzero count, so a
// run of equal-length segments repeats one loop trip count and, up to
// rank 8, goes two segments at a time.  Each segment's row is kept on
// the walk's stack and the kept rows are added to the block's row in
// segment order afterwards, so every output still sees the same
// additions in the same order; windows already in (or near) length
// order run in place, keeping nothing.  Scratch rows run the segments in
// fiber order.
//
// Threading: the B-CSF, CSL, HB-CSF and slice-order COO engines cut
// their work units into nnz-weighted ranges that each own their output
// rows (engine_ranges below) and share them out in ONE OpenMP region of
// kernel_team_size() threads per call, one range at a time.  A range
// runs its units in schedule order, so each output row is still
// accumulated by one thread in that order and outputs are bitwise
// identical at every team size, inside pool tasks (a team of 1)
// included.  COO in storage order and F-COO stay sequential: their work
// units share output rows.
#pragma once

#include <algorithm>
#include <cstdint>
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

/// A run of one group's work units that one team thread takes whole.  A
/// range owns every output row its units write: B-CSF ranges are cut
/// only where the slice changes, so a slice's slc-split blocks always
/// share one, and CSL slices, HB-CSF singletons and CooSliceOrder slices
/// are never shared.
struct EngineRange {
  enum class Units : std::uint8_t {
    kBcsfBlocks,  ///< indices into BcsfTensor::blocks()
    kCslSlices,   ///< CslTensor slices
    kSingletons,  ///< HB-CSF COO-group nonzeros, one slice each
    kCooSlices,   ///< CooSliceOrder slices
  };
  Units units = Units::kBcsfBlocks;
  offset_t begin = 0;
  offset_t end = 0;
  offset_t nnz = 0;  ///< nonzeros the range's units cover
};

/// The ranges an engine call shares out to a team of `team` threads, in
/// hand-out order: heaviest first, so an unsplittable heavy slice starts
/// early instead of finishing the call alone.  Ranges aim at
/// nnz / (16 x team) nonzeros but never fewer than 2048, so they far
/// outnumber the threads: a descheduled thread holds back one small
/// range, not a share of the call.  HB-CSF's list holds all three
/// groups: B-CSF blocks, CSL slices and singletons.
std::vector<EngineRange> engine_ranges(const BcsfTensor& bcsf, int team);
std::vector<EngineRange> engine_ranges(const CslTensor& csl, int team);
std::vector<EngineRange> engine_ranges(const HbcsfTensor& hbcsf, int team);
std::vector<EngineRange> engine_ranges(const CooSliceOrder& order, int team);

// Every engine writes MTTKRP into `out`, shaped to dims[root] x R (reusing
// its storage when the shape already matches) and zeroed first.  `out`
// may be the root mode's own factor matrix: MTTKRP_n never reads A_n, and
// the factors are validated before `out` is touched.

/// B-CSF blocks, each block's fiber segments added to its row in fiber
/// order (computed in walk order on tiles).
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

/// cpu-coo: the nonzeros of `order`'s slices, in its sort order, each
/// adding its product to its output row; mode order.mode.  Throws
/// bcsf::Error when `order` was built for another tensor.
void coo_engine(const SparseTensor& tensor, const CooSliceOrder& order,
                const std::vector<DenseMatrix>& factors, DenseMatrix& out);

/// F-COO: fcoo_chunk_nnz chunks in order, sequential.
void fcoo_engine(const FcooTensor& fcoo, const std::vector<DenseMatrix>& factors,
                 const DeviceModel& device, DenseMatrix& out);

}  // namespace bcsf
