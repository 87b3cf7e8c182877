#include "kernel_probe.hpp"

#include "core/format_registry.hpp"
#include "kernels/mttkrp.hpp"

namespace perfbench {

namespace {

constexpr int kWarmReps = 3;

/// Mean ms of `reps` executes of one op, one span each; `warm` first
/// runs one untimed execute (the simulator's cost model is memoized per
/// rank, so the first call at a new rank is not a warm call).
double time_execute(Tracer& tracer, const char* span_name,
                    const bcsf::TensorOpPlan& plan, bcsf::OpKind op,
                    const std::vector<bcsf::DenseMatrix>& factors, int reps,
                    bool warm) {
  bcsf::OpRequest request;
  request.kind = op;
  request.mode = plan.mode();
  request.factors = &factors;
  if (warm) plan.execute(request);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    auto span = tracer.scope(span_name);
    plan.execute(request);
  }
  return ms_between(start, Clock::now()) / reps;
}

}  // namespace

KernelWork mttkrp_work(const bcsf::SparseTensor& tensor, bcsf::index_t mode,
                       bcsf::rank_t rank, std::size_t index_bytes) {
  const double nnz = static_cast<double>(tensor.nnz());
  const double order = tensor.order();
  KernelWork work;
  work.flops = order * rank * nnz;
  work.bytes = static_cast<double>(index_bytes) + 4.0 * nnz +
               4.0 * rank * nnz * (order - 1.0) +
               4.0 * rank * static_cast<double>(tensor.dim(mode));
  return work;
}

void KernelProbe::add(Tracer& tracer, const bcsf::TensorOpPlan& plan,
                      const bcsf::SparseTensor& base,
                      const std::vector<bcsf::DenseMatrix>& factors,
                      const std::vector<bcsf::DenseMatrix>& vectors) {
  const bcsf::index_t mode = plan.mode();
  const bcsf::PlanPtr fresh = bcsf::FormatRegistry::instance().create(
      plan.resolved_format(), base, mode, bcsf::PlanOptions{});
  first_ms_ += time_execute(tracer, "kernels.mttkrp_first", *fresh,
                            bcsf::OpKind::kMttkrp, factors, 1, false);
  mttkrp_ms_ += time_execute(tracer, "kernels.mttkrp", plan,
                             bcsf::OpKind::kMttkrp, factors, kWarmReps, true);
  ttv_ms_ += time_execute(tracer, "kernels.ttv", plan, bcsf::OpKind::kTtv,
                          vectors, kWarmReps, true);
  fit_ms_ += time_execute(tracer, "kernels.fit", plan, bcsf::OpKind::kFit,
                          factors, kWarmReps, true);
  // The plain single-threaded baseline; not a served call, so no span.
  const Clock::time_point start = Clock::now();
  bcsf::mttkrp_reference(base, mode, factors);
  reference_ms_ += ms_between(start, Clock::now());
  const KernelWork work =
      mttkrp_work(base, mode, factors.front().cols(), plan.storage_bytes());
  work_.flops += work.flops;
  work_.bytes += work.bytes;
  ++plans_;
}

void KernelProbe::emit(RunResult& out) const {
  if (plans_ == 0) return;
  const double n = plans_;
  out.set("kernels.mttkrp_ms", mttkrp_ms_ / n, "ms");
  out.set("kernels.ttv_ms", ttv_ms_ / n, "ms");
  out.set("kernels.fit_ms", fit_ms_ / n, "ms");
  out.set("kernels.first_ms", first_ms_ / n, "ms");
  out.set("kernels.reference_ms", reference_ms_ / n, "ms");
  out.set("kernels.flops", work_.flops / n, "count");
  out.set("kernels.bytes", work_.bytes / n, "bytes");
  out.set("kernels.ops_per_byte", work_.flops / work_.bytes, "flop/byte");
  out.set("kernels.gflops", work_.flops / (mttkrp_ms_ * 1e6), "GF/s");
}

}  // namespace perfbench
