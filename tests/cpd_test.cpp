// Tests for CPD-ALS (Algorithm 1): convergence on low-rank data,
// backend agreement, and option handling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/factors.hpp"
#include "core/format_registry.hpp"
#include "cpd/cpd_als.hpp"
#include "linalg/ops.hpp"
#include "linalg/spd_solve.hpp"
#include "serve_test_util.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

using serve_test::bitwise_equal;

SparseTensor low_rank_tensor(value_t noise = 0.0F) {
  // Fully-dense sampling: a *sparse* sample of a CP model is not low-rank
  // (the implicit zeros off the support break the structure), so ALS can
  // only be validated for near-exact fit on a dense low-rank tensor.
  return generate_low_rank({12, 10, 8}, 4, 12 * 10 * 8, noise, 81);
}

TEST(CpdAls, FitIncreasesAndConverges) {
  CpdOptions opts;
  opts.rank = 4;
  opts.max_iterations = 30;
  opts.format = "cpu-csf";
  const CpdResult r = cpd_als(low_rank_tensor(), opts);
  ASSERT_GE(r.fit_history.size(), 2u);
  // Fit is non-decreasing up to fp noise after the first iterations.
  for (std::size_t i = 1; i < r.fit_history.size(); ++i) {
    EXPECT_GT(r.fit_history[i], r.fit_history[i - 1] - 1e-3);
  }
  // Exact-rank noiseless data: ALS should model it well.
  EXPECT_GT(r.final_fit, 0.85);
}

TEST(CpdAls, NoisyDataStillFitsReasonably) {
  CpdOptions opts;
  opts.rank = 4;
  opts.max_iterations = 25;
  const CpdResult r = cpd_als(low_rank_tensor(0.05F), opts);
  EXPECT_GT(r.final_fit, 0.7);
}

TEST(CpdAls, BackendsAgreeOnFit) {
  CpdOptions base;
  base.rank = 3;
  base.max_iterations = 8;
  base.fit_tolerance = 0.0;  // fixed iteration count for comparability
  base.seed = 5;
  const SparseTensor x = low_rank_tensor();

  base.format = "reference";
  const double ref_fit = cpd_als(x, base).final_fit;
  base.format = "cpu-csf";
  const double cpu_fit = cpd_als(x, base).final_fit;
  base.format = "hbcsf";
  base.device = DeviceModel::tiny();
  const CpdResult gpu = cpd_als(x, base);

  EXPECT_NEAR(cpu_fit, ref_fit, 0.02);
  EXPECT_NEAR(gpu.final_fit, ref_fit, 0.02);
  EXPECT_GT(gpu.simulated_mttkrp_seconds, 0.0);
}

TEST(CpdAls, FactorsHaveUnitColumns) {
  CpdOptions opts;
  opts.rank = 3;
  opts.max_iterations = 5;
  const CpdResult r = cpd_als(low_rank_tensor(), opts);
  ASSERT_EQ(r.factors.size(), 3u);
  ASSERT_EQ(r.lambda.size(), 3u);
  // The last-normalized factor has unit columns.
  const DenseMatrix& last = r.factors.back();
  for (rank_t c = 0; c < last.cols(); ++c) {
    double norm = 0.0;
    for (index_t row = 0; row < last.rows(); ++row) {
      norm += static_cast<double>(last(row, c)) * last(row, c);
    }
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-3);
  }
}

TEST(CpdAls, StopsEarlyOnTolerance) {
  CpdOptions opts;
  opts.rank = 4;
  opts.max_iterations = 50;
  opts.fit_tolerance = 1e-3;
  const CpdResult r = cpd_als(low_rank_tensor(), opts);
  EXPECT_LT(r.iterations, 50u);
  EXPECT_EQ(r.fit_history.size(), r.iterations);
}

TEST(CpdAls, RespectsIterationCap) {
  CpdOptions opts;
  opts.rank = 2;
  opts.max_iterations = 3;
  opts.fit_tolerance = 0.0;
  const CpdResult r = cpd_als(low_rank_tensor(), opts);
  EXPECT_EQ(r.iterations, 3u);
}

TEST(CpdAls, RejectsEmptyTensorAndZeroRank) {
  const SparseTensor empty({3, 3, 3});
  EXPECT_THROW(cpd_als(empty, CpdOptions{}), Error);
  CpdOptions zero;
  zero.rank = 0;
  EXPECT_THROW(cpd_als(low_rank_tensor(), zero), Error);
}

TEST(CpdAls, Order4Decomposition) {
  const SparseTensor x =
      generate_low_rank({8, 7, 6, 5}, 3, 8 * 7 * 6 * 5, 0.0F, 82);
  CpdOptions opts;
  opts.rank = 3;
  opts.max_iterations = 20;
  const CpdResult r = cpd_als(x, opts);
  ASSERT_EQ(r.factors.size(), 4u);
  EXPECT_GT(r.final_fit, 0.8);
}

// ---------------------------------------------------------------------------
// cpd_als against the uncached ALS loop
// ---------------------------------------------------------------------------

/// The uncached ALS loop, from public calls only: every V from fresh Grams
/// (gram_hadamard_except), an out-of-place solve, and the fit through the
/// last mode plan's FIT op plus cp_model_norm_sq.  Its plans come from the
/// same cache setup as cpd_als's.
struct ReplicaRun {
  std::vector<DenseMatrix> factors;
  std::vector<value_t> lambda;
  std::vector<double> fit_history;  ///< through the FIT op
  /// The same fits with <X, Xhat> contracted from the last mode plan's
  /// MTTKRP, the definition cpd_als uses.
  std::vector<double> contracted_fit_history;
};

ReplicaRun replica_cpd_als(const SparseTensor& x, const CpdOptions& options) {
  PlanOptions plan_opts;
  plan_opts.device = options.device;
  plan_opts.expected_mttkrp_calls = static_cast<double>(options.max_iterations);
  std::string format = options.format;
  if (options.shards != 1) {
    plan_opts.sharding.shards = options.shards;
    plan_opts.sharding.shard_format = format;
    format = "sharded";
  }
  ConcurrentPlanCache cache(borrow_tensor(x), plan_opts);
  const index_t order = x.order();
  ReplicaRun run;
  run.factors = make_random_factors(x.dims(), options.rank, options.seed, 0.05F);
  run.lambda.assign(options.rank, 1.0F);
  const double x_norm = x.norm();
  for (unsigned iter = 0; iter < options.max_iterations; ++iter) {
    for (index_t mode = 0; mode < order; ++mode) {
      const DenseMatrix mk = cache.get(format, mode)->run(run.factors).output;
      const DenseMatrix v = gram_hadamard_except(run.factors, mode);
      run.factors[mode] = solve_spd_right(v, mk);
      run.lambda = normalize_columns(run.factors[mode]);
    }
    const TensorOpPlan& last = *cache.get(format, order - 1);
    OpRequest fit_request;
    fit_request.kind = OpKind::kFit;
    fit_request.mode = order - 1;
    fit_request.factors = &run.factors;
    fit_request.lambda = &run.lambda;
    const double model_sq = cp_model_norm_sq(run.factors, run.lambda);
    run.fit_history.push_back(cp_fit_from_pieces(
        x_norm, last.execute(fit_request).scalar, model_sq));
    run.contracted_fit_history.push_back(cp_fit_from_pieces(
        x_norm,
        cp_inner_from_mttkrp(last.run(run.factors).output,
                             run.factors[order - 1], run.lambda),
        model_sq));
  }
  return run;
}

/// Real-valued power-law tensors, so every format's float arithmetic
/// rounds and a reordered sum would show.
std::vector<SparseTensor> parity_tensors() {
  PowerLawConfig c3;
  c3.dims = {120, 90, 100};
  c3.target_nnz = 6000;
  c3.slice_alpha = 0.8;
  c3.fiber_alpha = 1.0;
  c3.max_fiber_len = 48;
  c3.seed = 5;
  PowerLawConfig c4;
  c4.dims = {40, 30, 35, 20};
  c4.target_nnz = 5000;
  c4.slice_alpha = 0.8;
  c4.fiber_alpha = 1.0;
  c4.max_fiber_len = 24;
  c4.seed = 6;
  std::vector<SparseTensor> out;
  out.push_back(generate_power_law(c3));
  out.push_back(generate_power_law(c4));
  return out;
}

CpdOptions parity_options(const std::string& format, unsigned shards = 1) {
  CpdOptions opts;
  opts.rank = 8;
  opts.max_iterations = 4;
  opts.fit_tolerance = -std::numeric_limits<double>::infinity();
  opts.seed = 11;
  opts.format = format;
  opts.shards = shards;
  return opts;
}

void expect_same_factors(const CpdResult& got, const ReplicaRun& want,
                         const std::string& what) {
  ASSERT_EQ(got.factors.size(), want.factors.size()) << what;
  for (std::size_t m = 0; m < got.factors.size(); ++m) {
    EXPECT_TRUE(bitwise_equal(got.factors[m], want.factors[m]))
        << what << ": factor " << m;
  }
  EXPECT_EQ(got.lambda, want.lambda) << what;
}

TEST(CpdAlsParity, GpuKeysMatchTheUncachedLoopBitwise) {
  std::vector<std::string> keys = FormatRegistry::instance().names(PlanKind::kGpu);
  keys.push_back("auto");
  for (const SparseTensor& x : parity_tensors()) {
    for (const std::string& key : keys) {
      const std::string what = key + " order " + std::to_string(x.order());
      const CpdOptions opts = parity_options(key);
      const CpdResult got = cpd_als(x, opts);
      const ReplicaRun want = replica_cpd_als(x, opts);
      expect_same_factors(got, want, what);
      EXPECT_EQ(got.fit_history, want.fit_history) << what;
      EXPECT_GT(got.simulated_mttkrp_seconds, 0.0) << what;
    }
  }
}

TEST(CpdAlsParity, EngineCpuKeysMatchTheUncachedLoopBitwise) {
  // cpu-csf and cpu-coo run the engine and serve FIT as the contraction
  // of their MTTKRP output, so both fit histories agree bit for bit too.
  for (const SparseTensor& x : parity_tensors()) {
    for (const std::string key : {"cpu-csf", "cpu-coo"}) {
      const std::string what = key + " order " + std::to_string(x.order());
      const CpdOptions opts = parity_options(key);
      const CpdResult got = cpd_als(x, opts);
      const ReplicaRun want = replica_cpd_als(x, opts);
      expect_same_factors(got, want, what);
      EXPECT_EQ(got.fit_history, want.fit_history) << what;
    }
  }
}

TEST(CpdAlsParity, FusedAndShardedFitsMatchWithinRounding) {
  for (const SparseTensor& x : parity_tensors()) {
    for (const CpdOptions& opts :
         {parity_options("reference"), parity_options("auto", 2)}) {
      const std::string what = opts.format + " shards " +
                               std::to_string(opts.shards) + " order " +
                               std::to_string(x.order());
      const CpdResult got = cpd_als(x, opts);
      const ReplicaRun want = replica_cpd_als(x, opts);
      expect_same_factors(got, want, what);
      // cpd_als contracts the plan's MTTKRP output, exactly.  These plans'
      // FIT op instead fuses the traversal (reference) or sums per-shard
      // inner products, so it differs by the rounding of that float
      // output: a cast per entry for the double-accumulating reference
      // (up to ~1e-7 relative on these tensors), only the order of the
      // shard sums for the sharded plan (~1e-14).
      EXPECT_EQ(got.fit_history, want.contracted_fit_history) << what;
      const double tol = opts.shards == 2 ? 1e-9 : 1e-6;
      ASSERT_EQ(got.fit_history.size(), want.fit_history.size()) << what;
      for (std::size_t i = 0; i < got.fit_history.size(); ++i) {
        EXPECT_NEAR(got.fit_history[i], want.fit_history[i],
                    tol * std::abs(want.fit_history[i]))
            << what << ": iteration " << i;
      }
    }
  }
}

TEST(PlanRunInto, AliasedFactorAndWrongShapeMatchRunBitwise) {
  const std::vector<SparseTensor> tensors = parity_tensors();
  const SparseTensor& x = tensors.back();
  PlanOptions plan_opts;
  plan_opts.device = DeviceModel::tiny();
  plan_opts.sharding.shards = 2;
  const std::vector<DenseMatrix> factors =
      make_random_factors(x.dims(), 8, 21, -1.0F);
  for (const std::string& key : FormatRegistry::instance().names()) {
    for (index_t mode = 0; mode < x.order(); ++mode) {
      const std::string what = key + " mode " + std::to_string(mode);
      const PlanPtr plan =
          FormatRegistry::instance().create(key, x, mode, plan_opts);
      const PlanRunResult want = plan->run(factors);
      // The output aliases the mode's own factor, as in the ALS update.
      std::vector<DenseMatrix> aliased = factors;
      const SimReport report = plan->run_into(aliased, aliased[mode]);
      EXPECT_TRUE(bitwise_equal(aliased[mode], want.output)) << what;
      if (plan->is_gpu()) {
        EXPECT_EQ(report.seconds, want.report.seconds) << what;
      }
      for (index_t m = 0; m < x.order(); ++m) {
        if (m != mode) {
          EXPECT_TRUE(bitwise_equal(aliased[m], factors[m])) << what;
        }
      }
      DenseMatrix wrong_shape(3, 2, 7.0F);
      plan->run_into(factors, wrong_shape);
      EXPECT_TRUE(bitwise_equal(wrong_shape, want.output)) << what;
    }
  }
}

}  // namespace
}  // namespace bcsf
