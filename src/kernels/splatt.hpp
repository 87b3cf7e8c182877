// SPLATT baseline [12] as configured in the paper's evaluation (§VI-A):
// the ALLMODE setting ("store N CSF formats to achieve maximum
// performance") with the `tiling` locality flag either on or off.
//
// SplattAllmode builds the N CSF trees and times that pre-processing
// (Fig. 9).  The MTTKRPs are registry plans: `cpu-csf` runs SPLATT's
// CSF loop on the arithmetic engine (kernels/engine.hpp) and
// `cpu-csf-tiled` the tiled kernel below, which performs cache blocking
// over the leaf mode by processing the CSF tree once per leaf-index
// tile.  Projected 28-core Broadwell times for the cross-platform
// figures come from cpu_model.hpp.
#pragma once

#include <vector>

#include "formats/csf.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

struct SplattOptions {
  bool tiling = false;
};

class SplattAllmode {
 public:
  SplattAllmode(const SparseTensor& tensor, SplattOptions opts = {});

  const CsfTensor& csf(index_t mode) const { return csfs_.at(mode); }
  index_t order() const { return static_cast<index_t>(csfs_.size()); }
  const SplattOptions& options() const { return opts_; }

  /// Wall-clock seconds spent building the N CSF representations
  /// (Fig. 9's pre-processing baseline).
  double preprocessing_seconds() const { return preprocessing_seconds_; }

 private:
  SplattOptions opts_;
  std::vector<CsfTensor> csfs_;  // one representation per mode
  double preprocessing_seconds_ = 0.0;
};

/// Tiled CSF MTTKRP: processes leaves in `tiles` leaf-index bands to bound
/// the leaf-factor working set (SPLATT's cache-blocking flag).
DenseMatrix mttkrp_csf_cpu_tiled(const CsfTensor& csf,
                                 const std::vector<DenseMatrix>& factors,
                                 index_t tiles);

}  // namespace bcsf
