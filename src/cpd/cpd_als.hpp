// CPD-ALS (Algorithm 1): alternating least squares CP decomposition with
// a pluggable MTTKRP backend.
//
// Each iteration updates every factor via
//   A_n <- MTTKRP_n(X, {A_m}) * (*_{m != n} A_m^T A_m)^dagger
// then normalizes columns into lambda and evaluates the model fit, and
// iteration stops early once the fit improvement drops below
// fit_tolerance instead of always burning max_iterations.  The MTTKRP is
// the bottleneck the whole paper is about; everything else here is R x R
// dense work (linalg/), kept small the standard CP-ALS way:
//   * one Gram A_m^T A_m per factor, recomputed right after that factor's
//     update; every V above and ||Xhat||^2 reuse the cache (N Grams per
//     iteration);
//   * <X, Xhat> is contracted from the last mode's MTTKRP output
//     (cp_inner_from_mttkrp, the FIT op's own contraction), which the
//     sweep has already computed, so no extra tensor traversal;
//   * each mode update writes MTTKRP straight into A_n through the plan's
//     run_into() and solves in place (the plans that run the arithmetic
//     engine -- the simulated GPU keys, cpu-csf and cpu-coo -- allocate
//     nothing per update).
//
// The backend is any format registered in the FormatRegistry ("hbcsf",
// "cpu-csf", "coo", "auto", ...); plans are built once per (format, mode)
// in a ConcurrentPlanCache -- the ALLMODE strategy of §VI-A -- and reused
// across iterations.
#pragma once

#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"
#include "linalg/dense_matrix.hpp"
#include "serve/concurrent_plan_cache.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

struct CpdOptions {
  rank_t rank = 16;
  /// Hard cap; the fit-based stop below usually fires first.
  unsigned max_iterations = 25;
  /// Stop when the fit improves by less than this between iterations.
  /// The fit's inner product <X, Xhat> is contracted from the last mode's
  /// MTTKRP output, an fp32 matrix for every backend, so the fit carries
  /// relative noise around 1e-6..1e-5 of ||Xhat||^2 / ||X||^2 (less for
  /// "reference", which accumulates in double and rounds each entry
  /// once); keep the tolerance above that floor or the stop may fire on
  /// noise.
  double fit_tolerance = 1e-5;
  std::uint64_t seed = 7;
  /// FormatRegistry key of the MTTKRP backend.  "reference" is the
  /// sequential ground truth, "cpu-csf" SPLATT's CSF loop on the engine,
  /// "hbcsf" the paper's system, "auto" the §V + Fig-10 selection policy,
  /// "sharded" K nnz-balanced shard plans reduced per call (§8).
  std::string format = "cpu-csf";
  /// Nnz-balanced shards per mode plan (DESIGN.md §8).  1 = monolithic;
  /// 0 = auto_shard_count pricing; K != 1 wraps `format` in the
  /// "sharded" meta format, so every MTTKRP sweep of the ALS loop runs
  /// as K per-shard runs reduced in double -- exact, because MTTKRP is
  /// linear in the tensor.
  unsigned shards = 1;
  DeviceModel device = DeviceModel::p100();
};

struct CpdResult {
  std::vector<DenseMatrix> factors;
  std::vector<value_t> lambda;
  std::vector<double> fit_history;  ///< fit after each iteration
  unsigned iterations = 0;
  double final_fit = 0.0;
  /// Format-construction wall time (all modes, from the plan cache).
  double preprocessing_seconds = 0.0;
  /// Simulated GPU seconds spent in MTTKRP (GPU-format backends only):
  /// exactly N MTTKRPs per iteration, the fit adds no traversal.
  double simulated_mttkrp_seconds = 0.0;
  /// Formats actually executed per mode (differs from the requested
  /// format only for "auto", which resolves per mode).
  std::vector<std::string> mode_formats;
};

/// Shared-ownership entry point: the plans built inside hold the tensor
/// alive via the concurrent cache, so the caller may drop its reference
/// as soon as this call is enqueued (e.g. when running on a worker pool).
CpdResult cpd_als(TensorPtr tensor, const CpdOptions& options);

/// Legacy reference-taking entry point; the tensor must outlive the call.
CpdResult cpd_als(const SparseTensor& tensor, const CpdOptions& options);

}  // namespace bcsf
