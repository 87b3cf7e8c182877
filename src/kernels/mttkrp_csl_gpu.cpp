// CSL GPU kernel (Alg. 4): compressed slices are processed in warp-sized
// *segments* -- a slice with more than `csl_segment_nnz` nonzeros is split
// across several warps (the same balancing insight as slc-split: HB-CSF's
// CSL population can still contain big slices, e.g. flickr slices with
// hundreds of singleton fibers).  Each nonzero multiplies every non-root
// factor row directly -- no fiber indirection, no fiber-local reduction.
// Single-segment slices write their output row without atomics; split
// slices combine with global atomics.
//
// This file is the kernel's cost walk; csl_engine (kernels/engine.hpp)
// computes the output over the same segments.
#include <algorithm>
#include <vector>

#include "gpusim/scheduler.hpp"
#include "kernels/engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"

namespace bcsf {

SimReport simulate_csl_gpu(const CslTensor& csl, rank_t rank,
                           const DeviceModel& device) {
  const ModeOrder& order = csl.mode_order();
  const index_t n_other = csl.order() - 1;

  GpuKernelContext ctx(device);
  const std::vector<unsigned> regions = register_factor_regions(ctx, csl.order());
  const unsigned out_region = regions.back();

  KernelLaunch launch;
  launch.name = "csl-gpu";
  launch.warps_per_block = device.warps_per_block();

  // Segment table: (slice, z_begin, z_end, atomic).
  struct Segment {
    offset_t slice, z_begin, z_end;
    bool atomic;
  };
  const auto seg_nnz = static_cast<offset_t>(device.csl_segment_nnz);
  std::vector<Segment> segments;
  for (offset_t s = 0; s < csl.num_slices(); ++s) {
    const offset_t begin = csl.slice_begin(s);
    const offset_t end = csl.slice_end(s);
    const bool split = (end - begin) > seg_nnz;
    for (offset_t z = begin; z < end; z += seg_nnz) {
      segments.push_back({s, z, std::min(z + seg_nnz, end), split});
    }
  }

  const offset_t wpb = launch.warps_per_block;
  for (offset_t g0 = 0; g0 < segments.size(); g0 += wpb) {
    const offset_t g1 = std::min<offset_t>(g0 + wpb, segments.size());
    BlockWork bw;
    bw.warp_cycles.assign(static_cast<std::size_t>(g1 - g0), 0.0);

    for (offset_t g = g0; g < g1; ++g) {
      const Segment& seg = segments[g];
      double& cost = bw.warp_cycles[g - g0];
      for (offset_t z = seg.z_begin; z < seg.z_end; ++z) {
        unsigned misses = 0;
        for (index_t p = 0; p < n_other; ++p) {
          misses +=
              ctx.touch_row(regions[order[p + 1]], csl.nz_index(p, z), rank);
        }
        cost += device.cycles_per_nnz_csl + misses * device.cycles_l2_miss;
        launch.total_flops += static_cast<double>(n_other + 1) * rank;
      }
      const unsigned out_misses =
          ctx.touch_row(out_region, csl.slice_index(seg.slice), rank);
      cost += device.cycles_per_slice + out_misses * device.cycles_l2_miss;
      if (seg.atomic) {
        cost += device.cycles_atomic_global;
        ++launch.atomic_ops;
      }
    }
    launch.blocks.push_back(std::move(bw));
  }

  launch.l2_hit_rate_pct = ctx.l2_hit_rate_pct();
  return simulate_launch(device, launch);
}

GpuMttkrpResult mttkrp_csl_gpu(const CslTensor& csl,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device) {
  DenseMatrix out;
  csl_engine(csl, factors, device, out);
  SimReport report = simulate_csl_gpu(csl, out.cols(), device);
  return {std::move(out), std::move(report)};
}

}  // namespace bcsf
