// The library's central property: *every* MTTKRP kernel -- the six
// simulated GPU kernels and every real CPU plan, across all formats --
// computes the same matrix as the sequential COO reference, for every
// mode, for tensors of different orders and sparsity regimes.  Splitting,
// hybridization, flags, and blocking are storage/scheduling choices; they
// must never change semantics.
#include <gtest/gtest.h>

#include <tuple>

#include "bcsf/bcsf.hpp"
#include "kernels/gpu_common.hpp"

namespace bcsf {
namespace {

struct Scenario {
  std::string name;
  PowerLawConfig config;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "balanced3d";
    s.config.dims = {40, 50, 60};
    s.config.target_nnz = 2500;
    s.config.slice_alpha = 2.0;
    s.config.fiber_alpha = 2.0;
    s.config.max_fiber_len = 16;
    s.config.seed = 61;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "heavy_slices3d";
    s.config.dims = {30, 40, 300};
    s.config.target_nnz = 4000;
    s.config.slice_alpha = 0.3;
    s.config.max_slice_frac = 0.4;
    s.config.fiber_alpha = 0.5;
    s.config.max_fiber_len = 250;
    s.config.seed = 62;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "singleton_fibers3d";
    s.config.dims = {300, 200, 100};
    s.config.target_nnz = 3000;
    s.config.fixed_fiber_len = 1;
    s.config.singleton_slice_frac = 0.4;
    s.config.seed = 63;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "order4";
    s.config.dims = {25, 20, 15, 40};
    s.config.target_nnz = 2000;
    s.config.fiber_alpha = 0.8;
    s.config.max_fiber_len = 30;
    s.config.seed = 64;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "order4_singletons";
    s.config.dims = {120, 20, 15, 40};
    s.config.target_nnz = 1500;
    s.config.fixed_fiber_len = 1;
    s.config.singleton_slice_frac = 0.3;
    s.config.seed = 65;
    out.push_back(s);
  }
  return out;
}

class MttkrpEquivalence
    : public ::testing::TestWithParam<std::tuple<int, rank_t>> {};

TEST_P(MttkrpEquivalence, AllKernelsMatchReference) {
  const auto [scenario_idx, rank] = GetParam();
  const Scenario scenario = scenarios()[scenario_idx];
  const SparseTensor x = generate_power_law(scenario.config);
  ASSERT_GT(x.nnz(), 500u);
  const auto factors = make_random_factors(x.dims(), rank, 1234);
  const DeviceModel device = DeviceModel::tiny(4, 16);

  // fp32 kernels accumulate in different orders; scale tolerance with the
  // largest reference magnitude.
  for (index_t mode = 0; mode < x.order(); ++mode) {
    const DenseMatrix ref = mttkrp_reference(x, mode, factors);
    double scale = 1.0;
    for (value_t v : ref.data()) {
      scale = std::max(scale, static_cast<double>(std::abs(v)));
    }
    const double tol = 1e-4 * scale;
    SCOPED_TRACE(scenario.name + " mode " + std::to_string(mode) + " rank " +
                 std::to_string(rank));

    // --- simulated GPU kernels ---
    const CsfTensor csf = build_csf(x, mode);
    EXPECT_LT(ref.max_abs_diff(mttkrp_csf_gpu(csf, factors, device).output),
              tol);
    const BcsfTensor bcsf = build_bcsf_from_csf(csf, BcsfOptions{});
    EXPECT_LT(ref.max_abs_diff(mttkrp_bcsf_gpu(bcsf, factors, device).output),
              tol);
    const HbcsfTensor hb = build_hbcsf(x, mode);
    EXPECT_LT(ref.max_abs_diff(mttkrp_hbcsf_gpu(hb, factors, device).output),
              tol);
    EXPECT_LT(
        ref.max_abs_diff(mttkrp_coo_gpu(x, mode, factors, device).output),
        tol);
    const FcooTensor fcoo = build_fcoo(x, mode);
    EXPECT_LT(ref.max_abs_diff(mttkrp_fcoo_gpu(fcoo, factors, device).output),
              tol);
    const CslTensor csl = build_csl(x, mode);
    EXPECT_LT(ref.max_abs_diff(mttkrp_csl_gpu(csl, factors, device).output),
              tol);

    // --- real CPU kernels, through their plans ---
    const FormatRegistry& registry = FormatRegistry::instance();
    for (const std::string& key : registry.names(PlanKind::kCpu)) {
      EXPECT_LT(ref.max_abs_diff(
                    registry.create(key, x, mode)->run(factors).output),
                tol)
          << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MttkrpEquivalence,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values<rank_t>(1, 8, 32)),
    [](const ::testing::TestParamInfo<std::tuple<int, rank_t>>& info) {
      return scenarios()[std::get<0>(info.param)].name + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MttkrpValidation, RejectsBadFactors) {
  const SparseTensor x = generate_uniform({5, 6, 7}, 30, 1);
  auto factors = make_random_factors(x.dims(), 4, 2);
  factors.pop_back();
  EXPECT_THROW(mttkrp_reference(x, 0, factors), Error);

  auto wrong_rows = make_random_factors({5, 6, 8}, 4, 2);
  EXPECT_THROW(mttkrp_reference(x, 0, wrong_rows), Error);

  auto factors2 = make_random_factors(x.dims(), 4, 2);
  EXPECT_THROW(mttkrp_reference(x, 3, factors2), Error);
}

TEST(MttkrpValidation, EmptyTensorGivesZeroOutput) {
  const SparseTensor x({4, 5, 6});
  const auto factors = make_random_factors(x.dims(), 3, 7);
  const DenseMatrix ref = mttkrp_reference(x, 1, factors);
  EXPECT_EQ(ref.rows(), 5u);
  EXPECT_DOUBLE_EQ(ref.frob_norm(), 0.0);
  const GpuMttkrpResult r =
      mttkrp_hbcsf_gpu(build_hbcsf(x, 1), factors, DeviceModel::tiny());
  EXPECT_DOUBLE_EQ(r.output.frob_norm(), 0.0);
}

// Every format in the FormatRegistry catalogue -- GPU, CPU and meta --
// must agree with the reference through the plan interface, on 3- and
// 4-mode tensors, for every mode.  This is the property that makes the
// registry safe to enumerate blindly from cpd_als and the benches.
class RegistryEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RegistryEquivalence, EveryRegisteredFormatMatchesReference) {
  const Scenario scenario = scenarios()[GetParam()];
  const SparseTensor x = generate_power_law(scenario.config);
  const rank_t rank = 8;
  const auto factors = make_random_factors(x.dims(), rank, 1234);

  PlanOptions opts;
  opts.device = DeviceModel::tiny(4, 16);

  const FormatRegistry& registry = FormatRegistry::instance();
  ASSERT_FALSE(registry.names().empty());
  for (index_t mode = 0; mode < x.order(); ++mode) {
    const DenseMatrix ref = mttkrp_reference(x, mode, factors);
    double scale = 1.0;
    for (value_t v : ref.data()) {
      scale = std::max(scale, static_cast<double>(std::abs(v)));
    }
    const double tol = 1e-4 * scale;

    for (const std::string& name : registry.names()) {
      SCOPED_TRACE(scenario.name + " format " + name + " mode " +
                   std::to_string(mode));
      const PlanPtr plan = registry.create(name, x, mode, opts);
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->mode(), mode);
      EXPECT_GE(plan->build_seconds(), 0.0);
      EXPECT_GT(plan->storage_bytes(), 0u);
      // Plans are build-once run-many: two runs, identical output.
      const PlanRunResult first = plan->run(factors);
      EXPECT_LT(ref.max_abs_diff(first.output), tol);
      EXPECT_DOUBLE_EQ(first.output.max_abs_diff(plan->run(factors).output),
                       0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegistryEquivalence, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return scenarios()[info.param].name;
                         });

// The simulated cost model is value-independent, so it is memoized per
// rank (SimMemo, kernels/gpu_common.hpp): the first call runs the cost
// walk, repeats reuse the stored report while the engine computes the
// output every time.  These tests pin both halves of that contract at the
// kernel level, where the memo is threaded explicitly, and at the plan
// level: bitwise-equal outputs AND bit-identical reports, across ranks
// sharing one memo (the serving mix interleaves rank-R MTTKRP/FIT with
// rank-1 TTV on the same plan) and both combine modes.
void expect_same_report(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.total_flops, b.total_flops);
  EXPECT_DOUBLE_EQ(a.l2_hit_rate_pct, b.l2_hit_rate_pct);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.num_warps, b.num_warps);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
}

TEST(SimMemoEquivalence, BcsfRepeatCallsAreBitwiseWithCachedReports) {
  const Scenario scenario = scenarios()[1];  // heavy_slices3d: split blocks
  const SparseTensor x = generate_power_law(scenario.config);
  const DeviceModel device = DeviceModel::tiny(4, 16);
  for (OutputCombine combine :
       {OutputCombine::kPerFiber, OutputCombine::kPerSliceShared}) {
    const BcsfTensor bcsf = build_bcsf(x, 1, BcsfOptions{});
    SimMemo memo;
    for (rank_t rank : {rank_t{8}, rank_t{1}, rank_t{8}}) {
      SCOPED_TRACE("combine " + std::to_string(static_cast<int>(combine)) +
                   " rank " + std::to_string(rank));
      const auto factors = make_random_factors(x.dims(), rank, 77);
      const GpuMttkrpResult costed =
          mttkrp_bcsf_gpu(bcsf, factors, device, combine, nullptr);
      const GpuMttkrpResult first =
          mttkrp_bcsf_gpu(bcsf, factors, device, combine, &memo);
      const GpuMttkrpResult repeat =
          mttkrp_bcsf_gpu(bcsf, factors, device, combine, &memo);
      // Outputs must not depend on the memo, and the cached report must
      // be indistinguishable from a fresh walk.
      EXPECT_DOUBLE_EQ(costed.output.max_abs_diff(first.output), 0.0);
      EXPECT_DOUBLE_EQ(costed.output.max_abs_diff(repeat.output), 0.0);
      expect_same_report(costed.report, first.report);
      expect_same_report(costed.report, repeat.report);
      EXPECT_GT(repeat.report.seconds, 0.0);
      EXPECT_GT(repeat.report.num_blocks, 0u);
    }
  }
}

TEST(SimMemoEquivalence, CooRepeatCallsAreBitwiseWithCachedReports) {
  const Scenario scenario = scenarios()[0];
  const SparseTensor x = generate_power_law(scenario.config);
  const DeviceModel device = DeviceModel::tiny(4, 16);
  for (index_t mode = 0; mode < x.order(); ++mode) {
    SimMemo memo;
    for (rank_t rank : {rank_t{8}, rank_t{1}}) {
      SCOPED_TRACE("mode " + std::to_string(mode) + " rank " +
                   std::to_string(rank));
      const auto factors = make_random_factors(x.dims(), rank, 78);
      const GpuMttkrpResult costed =
          mttkrp_coo_gpu(x, mode, factors, device, nullptr);
      const GpuMttkrpResult first =
          mttkrp_coo_gpu(x, mode, factors, device, &memo);
      const GpuMttkrpResult repeat =
          mttkrp_coo_gpu(x, mode, factors, device, &memo);
      EXPECT_DOUBLE_EQ(costed.output.max_abs_diff(first.output), 0.0);
      EXPECT_DOUBLE_EQ(costed.output.max_abs_diff(repeat.output), 0.0);
      expect_same_report(costed.report, first.report);
      expect_same_report(costed.report, repeat.report);
      EXPECT_GT(repeat.report.atomic_ops, 0u);
    }
  }
}

// Every GPU plan memoizes its cost walk (GpuPlanBase in core/plans.cpp),
// not just bcsf and coo: on one plan, the first run() per rank walks and
// stores the report, repeats reuse it.  A fresh plan's first run is the
// costed baseline -- outputs must match it bitwise and reports exactly,
// across interleaved ranks on one memo.
TEST(SimMemoEquivalence, EveryGpuPlanRepeatsBitwiseWithCachedReports) {
  const DeviceModel device = DeviceModel::tiny(4, 16);
  PlanOptions opts;
  opts.device = device;
  for (int scenario_idx : {1, 3}) {  // heavy_slices3d, order4
    const Scenario scenario = scenarios()[scenario_idx];
    const SparseTensor x = generate_power_law(scenario.config);
    for (const char* key : {"gpu-csf", "bcsf", "csl", "hbcsf", "coo", "fcoo"}) {
      const PlanPtr plan = FormatRegistry::instance().create(key, x, 1, opts);
      for (rank_t rank : {rank_t{8}, rank_t{1}, rank_t{8}}) {
        SCOPED_TRACE(scenario.name + " " + key + " rank " +
                     std::to_string(rank));
        const auto factors = make_random_factors(x.dims(), rank, 79);
        const PlanRunResult costed =
            FormatRegistry::instance().create(key, x, 1, opts)->run(factors);
        const PlanRunResult first = plan->run(factors);
        const PlanRunResult repeat = plan->run(factors);
        EXPECT_DOUBLE_EQ(costed.output.max_abs_diff(first.output), 0.0);
        EXPECT_DOUBLE_EQ(costed.output.max_abs_diff(repeat.output), 0.0);
        expect_same_report(costed.report, first.report);
        expect_same_report(costed.report, repeat.report);
        EXPECT_GT(repeat.report.seconds, 0.0);
      }
    }
  }
}

TEST(MttkrpRegistry, GpuCatalogueBuildsAndRunsByName) {
  const SparseTensor x = generate_uniform({20, 20, 20}, 500, 9);
  const auto factors = make_random_factors(x.dims(), 8, 10);
  const DenseMatrix ref = mttkrp_reference(x, 0, factors);
  PlanOptions opts;
  opts.device = DeviceModel::tiny();
  const std::vector<std::string> gpu_names =
      FormatRegistry::instance().names(PlanKind::kGpu);
  EXPECT_EQ(gpu_names.size(), 6u);
  for (const std::string& name : gpu_names) {
    const PlanPtr plan = FormatRegistry::instance().create(name, x, 0, opts);
    EXPECT_LT(ref.max_abs_diff(plan->run(factors).output), 1e-2) << name;
    EXPECT_GE(plan->build_seconds(), 0.0);
  }
}

}  // namespace
}  // namespace bcsf
