// F-COO GPU kernel [17] (Fig. 15 baseline): nonzeros are processed in
// fixed-size partitions; lanes compute per-nonzero products, then a
// warp-level segmented scan combines products that share a slice, writing
// one result per distinct slice in the chunk and using global atomics only
// at chunk/partition boundaries where a slice straddles two workers.
//
// This file is the kernel's cost walk; fcoo_engine (kernels/engine.hpp)
// computes the output over the same chunks.
#include <algorithm>
#include <vector>

#include "gpusim/scheduler.hpp"
#include "kernels/engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"

namespace bcsf {

SimReport simulate_fcoo_gpu(const FcooTensor& fcoo, rank_t rank,
                            const DeviceModel& device) {
  const ModeOrder& order = fcoo.mode_order();
  const index_t n_other = fcoo.order() - 1;

  GpuKernelContext ctx(device);
  const std::vector<unsigned> regions =
      register_factor_regions(ctx, fcoo.order());
  const unsigned out_region = regions.back();

  KernelLaunch launch;
  launch.name = "fcoo-gpu";
  launch.warps_per_block = device.warps_per_block();

  const offset_t m = fcoo.nnz();
  const offset_t part = fcoo.partition_size();
  const offset_t chunk = fcoo_chunk_nnz(fcoo, device);

  offset_t slice_ordinal = 0;  // running ordinal into the compacted list
  for (offset_t p0 = 0; p0 < m; p0 += part) {
    const offset_t p1 = std::min(p0 + part, m);
    BlockWork bw;
    bw.warp_cycles.assign(
        static_cast<std::size_t>(ceil_div(p1 - p0, chunk)), 0.0);

    for (offset_t c0 = p0; c0 < p1; c0 += chunk) {
      const offset_t c1 = std::min(c0 + chunk, p1);
      double& cost = bw.warp_cycles[(c0 - p0) / chunk];
      // Segmented accumulation within the chunk: a slice change flushes
      // the finished segment with an in-chunk plain store.
      offset_t flushes = 0;
      for (offset_t z = c0; z < c1; ++z) {
        if (fcoo.starts_slice(z)) {
          if (z != c0) ++flushes;
          if (z > 0) ++slice_ordinal;
        }
        unsigned misses = 0;
        for (index_t q = 0; q < n_other; ++q) {
          misses +=
              ctx.touch_row(regions[order[q + 1]], fcoo.nz_index(q, z), rank);
        }
        cost += device.cycles_per_nnz_fcoo + misses * device.cycles_l2_miss;
        launch.total_flops += static_cast<double>(fcoo.order()) * rank;
      }
      // Tail segment: may continue into the next chunk, so it is combined
      // with a global atomic.
      if (c1 > c0) {
        const unsigned out_misses =
            ctx.touch_row(out_region, fcoo.slice_index(slice_ordinal), rank);
        cost += device.cycles_atomic_global +
                out_misses * device.cycles_l2_miss;
        ++launch.atomic_ops;
      }
      // Fixed segmented-scan bookkeeping per chunk plus per-flush writes.
      cost += device.cycles_scan_per_chunk +
              static_cast<double>(flushes) * device.cycles_atomic_shared;
    }
    launch.blocks.push_back(std::move(bw));
  }

  launch.l2_hit_rate_pct = ctx.l2_hit_rate_pct();
  return simulate_launch(device, launch);
}

GpuMttkrpResult mttkrp_fcoo_gpu(const FcooTensor& fcoo,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device) {
  DenseMatrix out;
  fcoo_engine(fcoo, factors, device, out);
  SimReport report = simulate_fcoo_gpu(fcoo, out.cols(), device);
  return {std::move(out), std::move(report)};
}

}  // namespace bcsf
