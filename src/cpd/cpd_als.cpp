#include "cpd/cpd_als.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "core/factors.hpp"
#include "linalg/ops.hpp"
#include "linalg/spd_solve.hpp"
#include "serve/concurrent_plan_cache.hpp"
#include "util/error.hpp"

namespace bcsf {

CpdResult cpd_als(const SparseTensor& tensor, const CpdOptions& options) {
  // Non-owning bridge: the caller's reference outlives this call, which
  // is all the plans built inside it need.
  return cpd_als(borrow_tensor(tensor), options);
}

CpdResult cpd_als(TensorPtr tensor, const CpdOptions& options) {
  BCSF_CHECK(tensor != nullptr, "cpd_als: null tensor");
  BCSF_CHECK(tensor->nnz() > 0, "cpd_als: tensor has no nonzeros");
  BCSF_CHECK(options.rank > 0, "cpd_als: rank must be positive");
  const SparseTensor& x = *tensor;
  const index_t order = x.order();

  CpdResult result;
  result.factors =
      make_random_factors(x.dims(), options.rank, options.seed, 0.05F);
  result.lambda.assign(options.rank, 1.0F);

  // Pre-build one plan per mode (ALLMODE strategy, §VI-A) through the
  // concurrent cache -- the same component the serving layer uses, so
  // a cpd_als running inside a service worker shares its semantics.
  PlanOptions plan_opts;
  plan_opts.device = options.device;
  // Each (format, mode) plan serves ONE MTTKRP per iteration; its build
  // amortizes against that mode's calls only, not the tensor aggregate.
  plan_opts.expected_mttkrp_calls = static_cast<double>(options.max_iterations);
  // Sharded ALS (DESIGN.md §8): wrap the requested backend in the
  // "sharded" meta format, which partitions each mode along itself and
  // reduces per-shard MTTKRP runs in double -- exact, and the K smaller
  // builds replace one monolithic sort per mode.
  std::string format = options.format;
  if (format == "sharded") {
    plan_opts.sharding.shards = options.shards;
  } else if (options.shards != 1) {
    plan_opts.sharding.shards = options.shards;
    plan_opts.sharding.shard_format = format;
    format = "sharded";
  }
  ConcurrentPlanCache cache(std::move(tensor), plan_opts);
  std::vector<SharedPlan> mode_plans;
  mode_plans.reserve(order);
  result.mode_formats.reserve(order);
  for (index_t m = 0; m < order; ++m) {
    mode_plans.push_back(cache.get(format, m));
    result.mode_formats.push_back(mode_plans.back()->resolved_format());
  }
  result.preprocessing_seconds = cache.total_build_seconds();

  // One Gram per factor, refreshed right after that factor's update:
  // every V and ||Xhat||^2 reuse them, N Grams per iteration in all.
  std::vector<DenseMatrix> grams;
  grams.reserve(order);
  for (const DenseMatrix& a : result.factors) grams.push_back(gram(a));

  // The fit's residual inner product <X, Xhat> comes from the last mode's
  // MTTKRP, which the sweep computes anyway: MTTKRP_{N-1} does not read
  // A_{N-1}, so it equals the MTTKRP of the fully updated model, and the
  // FIT op's own traversal would repeat it.  Kept here because the solve
  // overwrites that mode's output.  ||X|| is constant.
  const double x_norm = x.norm();
  DenseMatrix last_mttkrp;

  double prev_fit = 0.0;
  for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
    for (index_t mode = 0; mode < order; ++mode) {
      // MTTKRP straight into A_mode, then the solve in place: no
      // allocation per mode update on the simulated GPU plans.
      DenseMatrix& a = result.factors[mode];
      const TensorOpPlan& plan = *mode_plans[mode];
      const SimReport report = plan.run_into(result.factors, a);
      if (plan.is_gpu()) result.simulated_mttkrp_seconds += report.seconds;
      if (mode == order - 1) last_mttkrp = a;
      solve_spd_right_in_place(hadamard_of_grams(grams, mode, options.rank),
                               a);
      result.lambda = normalize_columns(a);
      grams[mode] = gram(a);
    }
    const double fit = cp_fit_from_pieces(
        x_norm,
        cp_inner_from_mttkrp(last_mttkrp, result.factors[order - 1],
                             result.lambda),
        cp_model_norm_sq_from_grams(grams, result.lambda));
    result.fit_history.push_back(fit);
    result.iterations = iter + 1;
    if (iter > 0 && fit - prev_fit < options.fit_tolerance) break;
    prev_fit = fit;
  }
  result.final_fit =
      result.fit_history.empty() ? 0.0 : result.fit_history.back();
  return result;
}

}  // namespace bcsf
