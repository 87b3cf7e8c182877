// Plain GPU-CSF kernel: the direct CPU-to-GPU port of SPLATT's CSF
// MTTKRP that §IV uses as the starting point.  One thread block per
// slice, whole fibers per warp, no splitting -- so a heavy fiber pins a
// warp and a heavy slice pins a block, producing exactly the Table II
// imbalance signatures (nell2 and darpa in particular).  That schedule is
// B-CSF's with both splits off, so GPU-CSF runs bcsf_engine and the
// B-CSF cost walk on an unsplit B-CSF.
#include "kernels/engine.hpp"
#include "kernels/mttkrp.hpp"

namespace bcsf {

GpuMttkrpResult mttkrp_csf_gpu(const CsfTensor& csf,
                               const std::vector<DenseMatrix>& factors,
                               const DeviceModel& device) {
  const BcsfTensor unsplit = build_bcsf_from_csf(csf, BcsfOptions::unsplit());
  DenseMatrix out;
  bcsf_engine(unsplit, factors, out);
  SimReport report = simulate_csf_gpu(unsplit, out.cols(), device);
  return {std::move(out), std::move(report)};
}

}  // namespace bcsf
