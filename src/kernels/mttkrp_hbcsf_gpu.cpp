// HB-CSF GPU kernel (Alg. 5 lines 18-20): the three slice populations are
// processed by three back-to-back launches into one output matrix.
//
//  * COO group: singleton slices -- one nonzero per output row, so lanes
//    process nonzeros directly and no atomics are needed at all.
//  * CSL group: Alg. 4 warp-per-slice kernel.
//  * B-CSF group: the balanced CSF kernel of §IV.
// The groups partition the slices, so their output rows are disjoint and
// the three launches compose by simple accumulation.
//
// This file is the cost walk over the three launches; hbcsf_engine
// (kernels/engine.hpp) computes the output.
#include <algorithm>
#include <string>
#include <vector>

#include "gpusim/scheduler.hpp"
#include "kernels/engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"

namespace bcsf {

namespace {

/// The COO-group launch: perfectly uniform nonzero-per-lane work with
/// plain stores (each slice has exactly one nonzero).
SimReport walk_singleton_coo(const HbcsfTensor& h, rank_t rank,
                             const DeviceModel& device) {
  const ModeOrder& order = h.mode_order();

  GpuKernelContext ctx(device);
  const std::vector<unsigned> regions = register_factor_regions(ctx, h.order());
  const unsigned out_region = regions.back();

  KernelLaunch launch;
  launch.name = "hbcsf-coo";
  launch.warps_per_block = device.warps_per_block();

  const offset_t chunk = device.warp_size;
  const offset_t block_nnz = chunk * launch.warps_per_block;

  const offset_t m = h.coo_nnz();
  for (offset_t b0 = 0; b0 < m; b0 += block_nnz) {
    const offset_t b1 = std::min(b0 + block_nnz, m);
    BlockWork bw;
    bw.warp_cycles.assign(
        static_cast<std::size_t>(ceil_div(b1 - b0, chunk)), 0.0);
    for (offset_t z = b0; z < b1; ++z) {
      double& cost = bw.warp_cycles[(z - b0) / chunk];
      unsigned misses = 0;
      for (index_t p = 1; p < h.order(); ++p) {  // p=0 is the root
        misses += ctx.touch_row(regions[order[p]], h.coo_index(p, z), rank);
      }
      misses += ctx.touch_row(out_region, h.coo_index(0, z), rank);
      cost += device.cycles_per_nnz_csl + misses * device.cycles_l2_miss;
      launch.total_flops += static_cast<double>(h.order()) * rank;
    }
    launch.blocks.push_back(std::move(bw));
  }
  launch.l2_hit_rate_pct = ctx.l2_hit_rate_pct();
  return simulate_launch(device, launch);
}

}  // namespace

SimReport simulate_hbcsf_gpu(const HbcsfTensor& hbcsf, rank_t rank,
                             const DeviceModel& device) {
  SimReport report;
  report.kernel = "hbcsf-gpu";
  bool first = true;
  auto absorb = [&](SimReport&& part) {
    if (first) {
      const std::string name = report.kernel;
      report = std::move(part);
      report.kernel = name;
      first = false;
    } else {
      part.kernel.clear();  // keep the combined name stable
      report += part;
    }
  };

  if (hbcsf.coo_nnz() > 0) {
    absorb(walk_singleton_coo(hbcsf, rank, device));
  }
  if (hbcsf.csl_nnz() > 0) {
    absorb(simulate_csl_gpu(hbcsf.csl(), rank, device));
  }
  if (hbcsf.csf_nnz() > 0) {
    absorb(simulate_bcsf_gpu(hbcsf.bcsf(), rank, device));
  }
  return report;
}

GpuMttkrpResult mttkrp_hbcsf_gpu(const HbcsfTensor& hbcsf,
                                 const std::vector<DenseMatrix>& factors,
                                 const DeviceModel& device) {
  DenseMatrix out;
  hbcsf_engine(hbcsf, factors, device, out);
  SimReport report = simulate_hbcsf_gpu(hbcsf, out.cols(), device);
  return {std::move(out), std::move(report)};
}

}  // namespace bcsf
