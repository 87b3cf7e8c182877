// Kernel-layer probes shared by the workloads' traced runs: computed
// work per MTTKRP call and warm/first execute times of served plans.
#pragma once

#include <vector>

#include "common.hpp"
#include "core/tensor_op_plan.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"

namespace perfbench {

/// Work of one MTTKRP call.  Flops follow DESIGN.md §1 (order x R per
/// nonzero).  Bytes are computed from array sizes, not measured: the
/// plan's index storage, one value per nonzero, one factor row per
/// nonzero per other mode, and the output written once.
struct KernelWork {
  double flops = 0.0;
  double bytes = 0.0;
};
KernelWork mttkrp_work(const bcsf::SparseTensor& tensor, bcsf::index_t mode,
                       bcsf::rank_t rank, std::size_t index_bytes);

/// Accumulates probes of served plans and emits the kernels.* metrics.
class KernelProbe {
 public:
  /// Times `plan` (built from `base`) warm for MTTKRP, TTV and FIT, a
  /// fresh build of the same format on its first MTTKRP (which pays the
  /// simulator's cost model), and mttkrp_reference on `base`.
  void add(Tracer& tracer, const bcsf::TensorOpPlan& plan,
           const bcsf::SparseTensor& base,
           const std::vector<bcsf::DenseMatrix>& factors,
           const std::vector<bcsf::DenseMatrix>& vectors);
  void emit(RunResult& out) const;

 private:
  int plans_ = 0;
  double mttkrp_ms_ = 0.0;
  double ttv_ms_ = 0.0;
  double fit_ms_ = 0.0;
  double first_ms_ = 0.0;
  double reference_ms_ = 0.0;
  KernelWork work_;
};

}  // namespace perfbench
