// B-CSF GPU kernel (§IV) and, via a no-split B-CSF, the plain GPU-CSF
// kernel whose load imbalance motivates the paper (Table II).
//
// Launch geometry: one thread block per B-CSF block; fiber segments are
// assigned to the block's warps round-robin.  A warp processes one fiber
// segment at a time: lanes span the R factor columns, the segment's
// nonzeros are consumed serially (tmp[r] += val * C[k][r], Alg. 3 line
// 11), then the fiber's ancestor rows scale the partial result and it is
// combined into the output row -- via shared-memory combine when the
// block owns the slice, via global atomics when slc-split spread the
// slice over several blocks.
//
// This file is the kernel's cost walk: it charges that schedule's cycles
// and cache traffic from the index structure alone.  The arithmetic runs
// in bcsf_engine (kernels/engine.hpp) over the same blocks.
#include <algorithm>
#include <vector>

#include "gpusim/scheduler.hpp"
#include "kernels/engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"

namespace bcsf {

namespace {

SimReport walk_bcsf(const BcsfTensor& bcsf, rank_t rank,
                    const DeviceModel& device, OutputCombine combine,
                    const char* kernel_name) {
  const CsfTensor& csf = bcsf.csf();
  const ModeOrder& order = csf.mode_order();
  const index_t fiber_level = csf.node_levels() - 1;
  const index_t leaf_mode = order.back();

  GpuKernelContext ctx(device);
  const std::vector<unsigned> regions = register_factor_regions(ctx, csf.order());
  const unsigned out_region = regions.back();

  KernelLaunch launch;
  launch.name = kernel_name;
  launch.warps_per_block = device.warps_per_block();
  launch.blocks.reserve(bcsf.blocks().size());

  for (const auto& block : bcsf.blocks()) {
    const unsigned n_warps = static_cast<unsigned>(
        std::min<offset_t>(launch.warps_per_block,
                           block.fiber_end - block.fiber_begin));
    BlockWork bw;
    bw.warp_cycles.assign(n_warps, 0.0);

    const index_t out_row = csf.node_index(0, block.slice);
    for (offset_t f = block.fiber_begin; f < block.fiber_end; ++f) {
      const unsigned w =
          static_cast<unsigned>((f - block.fiber_begin) % n_warps);
      double& cost = bw.warp_cycles[w];

      // --- leaf accumulation: one C(k,:) row per nonzero.
      const offset_t z_begin = csf.child_begin(fiber_level, f);
      const offset_t z_end = csf.child_end(fiber_level, f);
      for (offset_t z = z_begin; z < z_end; ++z) {
        const unsigned misses =
            ctx.touch_row(regions[leaf_mode], csf.leaf_index(z), rank);
        cost += device.cycles_per_nnz_csf + misses * device.cycles_l2_miss;
      }
      launch.total_flops += 2.0 * rank * static_cast<double>(z_end - z_begin);

      // --- ancestor multiplies: fiber's own index level first (the
      // B(j,:) scaling of Alg. 3 line 13), then any middle levels (order
      // > 3).
      for (index_t level = fiber_level; level >= 1; --level) {
        const unsigned misses = ctx.touch_row(
            regions[order[level]], bcsf.fiber_coord(level, f), rank);
        cost += (level == fiber_level ? device.cycles_per_fiber
                                      : device.cycles_per_ancestor) +
                misses * device.cycles_l2_miss;
        launch.total_flops += rank;
      }

      // --- combine into the output row.
      if (combine == OutputCombine::kPerSliceShared) {
        // Accumulate into the block-shared buffer; Y is touched once per
        // block, in the epilogue below.
        cost += device.cycles_atomic_shared;  // shared-memory reduction step
      } else {
        const unsigned out_misses = ctx.touch_row(out_region, out_row, rank);
        if (block.atomic_output) {
          cost +=
              device.cycles_atomic_global + out_misses * device.cycles_l2_miss;
          ++launch.atomic_ops;
        } else {
          cost +=
              device.cycles_atomic_shared + out_misses * device.cycles_l2_miss;
        }
      }
      launch.total_flops += rank;
    }
    bw.warp_cycles[0] += device.cycles_per_slice;  // block epilogue
    if (combine == OutputCombine::kPerSliceShared) {
      const unsigned out_misses = ctx.touch_row(out_region, out_row, rank);
      bw.warp_cycles[0] += out_misses * device.cycles_l2_miss;
      if (block.atomic_output) {
        bw.warp_cycles[0] += device.cycles_atomic_global;
        ++launch.atomic_ops;
      }
    }
    launch.blocks.push_back(std::move(bw));
  }

  launch.l2_hit_rate_pct = ctx.l2_hit_rate_pct();
  return simulate_launch(device, launch);
}

}  // namespace

SimReport simulate_bcsf_gpu(const BcsfTensor& bcsf, rank_t rank,
                            const DeviceModel& device, OutputCombine combine) {
  return walk_bcsf(bcsf, rank, device, combine, "bcsf-gpu");
}

SimReport simulate_csf_gpu(const BcsfTensor& unsplit, rank_t rank,
                           const DeviceModel& device) {
  return walk_bcsf(unsplit, rank, device, OutputCombine::kPerFiber, "csf-gpu");
}

GpuMttkrpResult mttkrp_bcsf_gpu(const BcsfTensor& bcsf,
                                const std::vector<DenseMatrix>& factors,
                                const DeviceModel& device,
                                OutputCombine combine, SimMemo* memo) {
  DenseMatrix out;
  bcsf_engine(bcsf, factors, out, combine);
  const rank_t rank = out.cols();
  SimReport report = memoized_report(memo, rank, [&] {
    return simulate_bcsf_gpu(bcsf, rank, device, combine);
  });
  return {std::move(out), std::move(report)};
}

}  // namespace bcsf
