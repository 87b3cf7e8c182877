// ParTI-style COO GPU kernel [18] (Fig. 8, Fig. 14 baseline): the tensor
// is parallelized over nonzeros -- each warp chunk covers 32 consecutive
// nonzeros, one per lane, and every nonzero's contribution is combined
// into the output with a global atomic ("It performs an atomic add when
// combining nonzero products to the same data", §VII).
//
// The strength of this kernel is perfect static balance (every warp gets
// identical work); its weakness is per-nonzero output traffic and atomics.
//
// This file is the kernel's cost walk; coo_engine (kernels/engine.hpp)
// computes the output.
#include <algorithm>
#include <vector>

#include "gpusim/scheduler.hpp"
#include "kernels/engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"
#include "util/error.hpp"

namespace bcsf {

SimReport simulate_coo_gpu(const SparseTensor& tensor, index_t mode,
                           rank_t rank, const DeviceModel& device) {
  BCSF_CHECK(mode < tensor.order(), "simulate_coo_gpu: bad mode");
  GpuKernelContext ctx(device);
  const std::vector<unsigned> regions =
      register_factor_regions(ctx, tensor.order());
  const unsigned out_region = regions.back();

  KernelLaunch launch;
  launch.name = "parti-coo-gpu";
  launch.warps_per_block = device.warps_per_block();

  const offset_t chunk = device.warp_size;                 // nnz per warp
  const offset_t block_nnz = chunk * launch.warps_per_block;

  const offset_t m = tensor.nnz();
  for (offset_t b0 = 0; b0 < m; b0 += block_nnz) {
    const offset_t b1 = std::min(b0 + block_nnz, m);
    BlockWork bw;
    bw.warp_cycles.assign(
        static_cast<std::size_t>(ceil_div(b1 - b0, chunk)), 0.0);

    for (offset_t z = b0; z < b1; ++z) {
      double& cost = bw.warp_cycles[(z - b0) / chunk];
      unsigned misses = 0;
      for (index_t f = 0; f < tensor.order(); ++f) {
        if (f == mode) continue;
        misses += ctx.touch_row(regions[f], tensor.coord(f, z), rank);
      }
      misses += ctx.touch_row(out_region, tensor.coord(mode, z), rank);

      // Lanes parallelize over nonzeros and serialize over the R columns;
      // amortized per nonzero this costs about what a CSF warp pays per
      // nonzero plus the atomic RMW, captured by the flat constant.  Every
      // missed line is charged at the shared bandwidth cost, same as the
      // structured kernels.
      cost += device.cycles_per_nnz_coo + misses * device.cycles_l2_miss;
      launch.total_flops += static_cast<double>(tensor.order()) * rank;
      ++launch.atomic_ops;
    }
    launch.blocks.push_back(std::move(bw));
  }

  launch.l2_hit_rate_pct = ctx.l2_hit_rate_pct();
  return simulate_launch(device, launch);
}

GpuMttkrpResult mttkrp_coo_gpu(const SparseTensor& tensor, index_t mode,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device, SimMemo* memo) {
  DenseMatrix out;
  coo_engine(tensor, mode, factors, out);
  const rank_t rank = out.cols();
  SimReport report = memoized_report(memo, rank, [&] {
    return simulate_coo_gpu(tensor, mode, rank, device);
  });
  return {std::move(out), std::move(report)};
}

}  // namespace bcsf
