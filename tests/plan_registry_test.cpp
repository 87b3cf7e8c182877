// FormatRegistry / TensorOpPlan / PlanCache contract tests, plus the
// `auto` selection policy: §V slice binning and the Fig-10 break-even
// gate must pick HB-CSF on a large high-stddev mixed tensor and COO on a
// tensor too small to amortize any build.
#include <gtest/gtest.h>

#include "bcsf/bcsf.hpp"

namespace bcsf {
namespace {

SparseTensor small_tensor() { return generate_uniform({20, 20, 20}, 500, 9); }

TEST(FormatRegistry, CatalogueHasTheFormatZoo) {
  const FormatRegistry& r = FormatRegistry::instance();
  for (const char* name : {"gpu-csf", "bcsf", "csl", "hbcsf", "coo", "fcoo",
                           "cpu-coo", "cpu-csf", "cpu-csf-tiled", "cpu-csl",
                           "cpu-hicoo", "reference", "auto"}) {
    EXPECT_TRUE(r.contains(name)) << name;
  }
  EXPECT_EQ(r.names().size(), r.names(PlanKind::kGpu).size() +
                                  r.names(PlanKind::kCpu).size() +
                                  r.names(PlanKind::kMeta).size());
  EXPECT_EQ(r.at("hbcsf").display_name, "HB-CSF");
  EXPECT_FALSE(r.at("coo").mode_oriented);
  EXPECT_TRUE(r.at("bcsf").mode_oriented);
}

TEST(FormatRegistry, UnknownFormatThrowsWithCatalogue) {
  const SparseTensor x = small_tensor();
  try {
    FormatRegistry::instance().create("no-such-format", x, 0);
    FAIL() << "expected bcsf::Error";
  } catch (const Error& e) {
    // The message must list the catalogue so users can self-serve.
    EXPECT_NE(std::string(e.what()).find("hbcsf"), std::string::npos);
  }
}

TEST(FormatRegistry, RejectsDuplicateAndOutOfRangeMode) {
  FormatRegistry& r = FormatRegistry::instance();
  FormatRegistry::Entry dup = r.at("coo");
  EXPECT_THROW(r.add(dup), Error);
  EXPECT_THROW(r.create("coo", small_tensor(), 3), Error);
}

TEST(FormatRegistry, GpuCatalogueCarriesThePaperNames) {
  const std::map<std::string, std::string> display = {
      {"gpu-csf", "GPU-CSF"}, {"bcsf", "B-CSF"}, {"hbcsf", "HB-CSF"},
      {"coo", "ParTI-COO"},   {"fcoo", "F-COO"}, {"csl", "CSL"}};
  for (const auto& [name, paper_name] : display) {
    const auto& entry = FormatRegistry::instance().at(name);
    EXPECT_EQ(entry.display_name, paper_name);
    EXPECT_EQ(entry.kind, PlanKind::kGpu);
  }
}

TEST(FormatRegistry, EveryFormatDeclaresFullOpSupport) {
  const FormatRegistry& r = FormatRegistry::instance();
  for (const std::string& name : r.names()) {
    for (OpKind op : kAllOps) {
      EXPECT_TRUE(r.supports(name, op)) << name << " " << op_name(op);
    }
    EXPECT_EQ(r.at(name).ops, kAllOpsMask) << name;
  }
  for (OpKind op : kAllOps) {
    EXPECT_EQ(r.names(op), r.names()) << op_name(op);
  }
  EXPECT_FALSE(r.supports("no-such-format", OpKind::kMttkrp));
}

TEST(OpProtocol, NamesRoundTrip) {
  for (OpKind op : kAllOps) {
    EXPECT_EQ(op_from_name(op_name(op)), op);
  }
  EXPECT_THROW(op_from_name("spmv"), Error);
}

TEST(PlanCache, BuildsOncePerFormatModePair) {
  ConcurrentPlanCache cache(share_tensor(small_tensor()));
  const SharedPlan a = cache.get("hbcsf", 0);
  const SharedPlan b = cache.get("hbcsf", 0);
  EXPECT_EQ(a.get(), b.get());  // cached, not rebuilt
  EXPECT_EQ(cache.size(), 1u);
  cache.get("hbcsf", 1);
  cache.get("coo", 0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_GE(cache.total_build_seconds(), 0.0);
  EXPECT_EQ(cache.try_get("hbcsf", 1), cache.get("hbcsf", 1));
  EXPECT_EQ(cache.try_get("bcsf", 2), nullptr);  // never requested
}

TEST(CpdAlsFormats, RunsWithAnyRegisteredFormat) {
  const SparseTensor x = generate_low_rank({12, 10, 8}, 4, 12 * 10 * 8, 0.0F, 81);
  CpdOptions ref_opts;
  ref_opts.rank = 3;
  ref_opts.max_iterations = 5;
  ref_opts.fit_tolerance = 0.0;
  ref_opts.format = "reference";
  const double ref_fit = cpd_als(x, ref_opts).final_fit;

  for (const std::string& name : FormatRegistry::instance().names()) {
    SCOPED_TRACE(name);
    CpdOptions opts = ref_opts;
    opts.format = name;
    opts.device = DeviceModel::tiny();
    const CpdResult r = cpd_als(x, opts);
    EXPECT_NEAR(r.final_fit, ref_fit, 0.02);
    ASSERT_EQ(r.mode_formats.size(), 3u);
    if (name != "auto") {
      for (const std::string& f : r.mode_formats) EXPECT_EQ(f, name);
    } else {
      // "auto" must report what it resolved to, not itself.
      for (const std::string& f : r.mode_formats) {
        EXPECT_NE(f, "auto");
        EXPECT_TRUE(FormatRegistry::instance().contains(f)) << f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The auto policy (§V binning + Fig-10 break-even)
// ---------------------------------------------------------------------------

PowerLawConfig high_stddev_config() {
  // Heavy-tailed slices AND a singleton-slice population: the §V mixed
  // case the hybrid format exists for.
  PowerLawConfig c;
  c.dims = {150, 200, 250};
  c.target_nnz = 40000;
  c.slice_alpha = 0.3;
  c.max_slice_frac = 0.3;
  c.fiber_alpha = 0.5;
  c.max_fiber_len = 200;
  c.singleton_slice_frac = 0.15;
  c.seed = 77;
  return c;
}

TEST(AutoPolicy, PicksHbcsfOnHighStddevMixedTensor) {
  const SparseTensor x = generate_power_law(high_stddev_config());
  const ModeStats s = compute_mode_stats(x, 0);
  // Sanity: this really is a high-variance mixed tensor.
  ASSERT_GT(s.nnz_per_slice.stddev, s.nnz_per_slice.mean);
  ASSERT_GT(s.singleton_slice_fraction, 0.05);

  const AutoDecision d = auto_select_format(x, 0);
  EXPECT_EQ(d.format, "hbcsf") << d.to_string();
  EXPECT_LE(d.breakeven_calls, AutoPolicyOptions{}.expected_mttkrp_calls);
  EXPECT_FALSE(d.rationale.empty());
}

TEST(AutoPolicy, PicksCooOnTinyTensor) {
  const SparseTensor x = small_tensor();  // 500 nnz: build never amortizes
  const AutoDecision d = auto_select_format(x, 0);
  EXPECT_EQ(d.format, "coo") << d.to_string();
  EXPECT_GT(d.breakeven_calls, AutoPolicyOptions{}.expected_mttkrp_calls);
}

TEST(AutoPolicy, BreakEvenGateRespectsExpectedCalls) {
  // The same mid-size tensor flips from structured to COO as the caller's
  // expected call count shrinks below the break-even point (Fig. 10).
  const SparseTensor x = generate_power_law(high_stddev_config());
  AutoPolicyOptions many;
  many.expected_mttkrp_calls = 1000.0;
  AutoPolicyOptions once;
  once.expected_mttkrp_calls = 0.5;
  EXPECT_NE(auto_select_format(x, 0, many).format, "coo");
  EXPECT_EQ(auto_select_format(x, 0, once).format, "coo");
}

TEST(AutoPolicy, DominantPopulationsPickPureFormats) {
  // All-singleton fibers, no singleton slices -> CSL dominant.
  PowerLawConfig csl_cfg;
  csl_cfg.dims = {100, 150, 200};
  csl_cfg.target_nnz = 30000;
  csl_cfg.fixed_fiber_len = 1;
  csl_cfg.seed = 31;
  const SparseTensor csl_like = generate_power_law(csl_cfg);
  const ModeStats s = compute_mode_stats(csl_like, 0);
  if (s.csl_slice_fraction >= 0.95) {
    EXPECT_EQ(auto_select_format(csl_like, 0).format, "csl");
  }

  // Uniformly CSF material -> bcsf (uber-like: no COO/CSL slices).
  PowerLawConfig csf_cfg;
  csf_cfg.dims = {60, 200, 300};
  csf_cfg.target_nnz = 50000;
  csf_cfg.slice_alpha = 1.2;
  csf_cfg.fiber_alpha = 1.0;
  csf_cfg.max_fiber_len = 64;
  csf_cfg.seed = 32;
  const SparseTensor csf_like = generate_power_law(csf_cfg);
  const ModeStats s2 = compute_mode_stats(csf_like, 0);
  if (s2.singleton_slice_fraction + s2.csl_slice_fraction <= 0.05) {
    EXPECT_EQ(auto_select_format(csf_like, 0).format, "bcsf");
  }
}

TEST(AutoPolicy, AutoPlanDelegatesAndReportsDecision) {
  const SparseTensor x = generate_power_law(high_stddev_config());
  const auto factors = make_random_factors(x.dims(), 4, 5);
  PlanOptions opts;
  opts.device = DeviceModel::tiny();
  const PlanPtr plan = FormatRegistry::instance().create("auto", x, 0, opts);
  EXPECT_EQ(plan->format(), "auto");
  EXPECT_NE(plan->detail().find("hbcsf"), std::string::npos);
  const DenseMatrix ref = mttkrp_reference(x, 0, factors);
  double scale = 1.0;
  for (value_t v : ref.data()) {
    scale = std::max(scale, static_cast<double>(std::abs(v)));
  }
  EXPECT_LT(ref.max_abs_diff(plan->run(factors).output), 1e-4 * scale);
}

std::vector<value_t> output_of(const TensorOpPlan& plan,
                               const std::vector<DenseMatrix>& factors) {
  const DenseMatrix out = plan.run(factors).output;
  return {out.data().begin(), out.data().end()};
}

TEST(AutoPolicy, AutoPlanMatchesItsResolvedFormatBitwise) {
  // `auto` sorts once for its statistics and builds the chosen format
  // from that permutation; the result must be that format's own build.
  const SparseTensor x = generate_power_law(high_stddev_config());
  const auto factors = make_random_factors(x.dims(), 8, 6);
  PlanOptions opts;
  opts.expected_mttkrp_calls = 64;
  for (index_t mode = 0; mode < x.order(); ++mode) {
    const PlanPtr plan = FormatRegistry::instance().create("auto", x, mode, opts);
    const PlanPtr direct = FormatRegistry::instance().create(
        plan->resolved_format(), x, mode, opts);
    EXPECT_NE(plan->resolved_format(), "coo") << "mode " << mode;
    EXPECT_EQ(plan->storage_bytes(), direct->storage_bytes()) << "mode " << mode;
    EXPECT_EQ(output_of(*plan, factors), output_of(*direct, factors))
        << "mode " << mode;
  }
}

TEST(FormatRegistry, SortedCreateMatchesThePlainBuild) {
  // A caller's sort permutation stands in for the format's own sort: same
  // storage, bitwise the same MTTKRP, on every mode of a 3- and a 4-mode
  // tensor.  Entries without a sorted factory build as plain create().
  const FormatRegistry& r = FormatRegistry::instance();
  EXPECT_TRUE(r.at("bcsf").sorted_factory);
  EXPECT_TRUE(r.at("csl").sorted_factory);
  EXPECT_TRUE(r.at("hbcsf").sorted_factory);
  EXPECT_FALSE(r.at("coo").sorted_factory);
  PowerLawConfig four = high_stddev_config();
  four.dims = {40, 50, 60, 30};
  four.target_nnz = 20000;
  for (const SparseTensor& x : {generate_power_law(high_stddev_config()),
                                generate_power_law(four)}) {
    const auto factors = make_random_factors(x.dims(), 8, 5);
    for (index_t mode = 0; mode < x.order(); ++mode) {
      for (const char* name : {"bcsf", "csl", "hbcsf", "coo"}) {
        const PlanPtr plain = r.create(name, x, mode);
        const PlanPtr sorted = r.create(
            name, x, mode, {}, x.sort_permutation(mode_order_for(mode, x.order())));
        EXPECT_EQ(sorted->storage_bytes(), plain->storage_bytes())
            << name << " mode " << mode;
        EXPECT_EQ(output_of(*sorted, factors), output_of(*plain, factors))
            << name << " mode " << mode;
      }
    }
  }
}

}  // namespace
}  // namespace bcsf
