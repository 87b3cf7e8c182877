// Tests for CSL and HB-CSF (the paper's second contribution): the Alg. 5
// slice classification, partition completeness, and the Fig. 4 storage
// walk-through (COO 24 words, CSF 24 words, HB-CSF 19 words).
#include <gtest/gtest.h>

#include "core/factors.hpp"
#include "formats/csl.hpp"
#include "formats/hbcsf.hpp"
#include "formats/storage.hpp"
#include "kernels/mttkrp.hpp"
#include "tensor/generator.hpp"
#include "tensor/tensor_stats.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

SparseTensor fig4_tensor() {
  SparseTensor t({3, 5, 6});
  const index_t coords[][3] = {
      {0, 1, 2},
      {1, 0, 0}, {1, 2, 3}, {1, 4, 1},
      {2, 1, 0}, {2, 1, 2}, {2, 1, 4}, {2, 1, 5},
  };
  value_t v = 1.0F;
  for (const auto& c : coords) t.push_back({c, 3}, v++);
  return t;
}

TEST(Csl, BuildAndAccess) {
  const CslTensor csl = build_csl(fig4_tensor(), 0);
  EXPECT_EQ(csl.num_slices(), 3u);
  EXPECT_EQ(csl.nnz(), 8u);
  EXPECT_NO_THROW(csl.validate());
  EXPECT_EQ(csl.slice_index(1), 1u);
  EXPECT_EQ(csl.slice_end(1) - csl.slice_begin(1), 3u);
  // Nonzero coordinates: position 0 = mode 1 (j), position 1 = mode 2 (k).
  EXPECT_EQ(csl.nz_index(0, csl.slice_begin(0)), 1u);
  EXPECT_EQ(csl.nz_index(1, csl.slice_begin(0)), 2u);
}

TEST(Csl, StorageFormula) {
  const CslTensor csl = build_csl(fig4_tensor(), 0);
  // 2S + (order-1)M words = 2*3 + 2*8 = 22.
  EXPECT_EQ(csl.index_storage_bytes(), 22u * kIndexBytes);
}

TEST(Csl, EmptyTensor) {
  const CslTensor csl = build_csl(SparseTensor({2, 2, 2}), 0);
  EXPECT_EQ(csl.num_slices(), 0u);
  EXPECT_NO_THROW(csl.validate());
}

TEST(Hbcsf, Fig4Classification) {
  const HbcsfTensor h = build_hbcsf(fig4_tensor(), 0);
  EXPECT_EQ(h.coo_nnz(), 1u);  // slice 0
  EXPECT_EQ(h.csl_nnz(), 3u);  // slice 1
  EXPECT_EQ(h.csf_nnz(), 4u);  // slice 2
  EXPECT_EQ(h.nnz(), 8u);
  EXPECT_NO_THROW(h.validate());
}

TEST(Hbcsf, Fig4StorageIs19Words) {
  // The paper's walk-through: COO 24 words, CSF 24 words, HB-CSF 19 words.
  const SparseTensor x = fig4_tensor();
  EXPECT_EQ(coo_storage(x).bytes, 24u * kIndexBytes);
  EXPECT_EQ(csf_storage(x, 0).bytes, 24u * kIndexBytes);
  EXPECT_EQ(hbcsf_storage(x, 0).bytes, 19u * kIndexBytes);
}

TEST(Hbcsf, CooGroupHoldsSingletonSlices) {
  const HbcsfTensor h = build_hbcsf(fig4_tensor(), 0);
  EXPECT_EQ(h.coo_index(0, 0), 0u);  // root coordinate of slice 0
  EXPECT_EQ(h.coo_index(1, 0), 1u);
  EXPECT_EQ(h.coo_index(2, 0), 2u);
  EXPECT_FLOAT_EQ(h.coo_value(0), 1.0F);
}

TEST(Hbcsf, PartitionMatchesModeStats) {
  PowerLawConfig cfg;
  cfg.dims = {300, 100, 80};
  cfg.target_nnz = 3000;
  cfg.singleton_slice_frac = 0.3;
  cfg.fixed_fiber_len = 1;  // CSL-heavy
  cfg.seed = 41;
  const SparseTensor x = generate_power_law(cfg);
  const ModeStats stats = compute_mode_stats(x, 0);
  const HbcsfTensor h = build_hbcsf(x, 0);

  // Singleton slices == COO group size (by slices == by nonzeros here).
  const auto expected_coo = static_cast<offset_t>(
      std::llround(stats.singleton_slice_fraction *
                   static_cast<double>(stats.num_slices)));
  EXPECT_EQ(h.coo_nnz(), expected_coo);
  // All fibers are singletons, so everything else is CSL.
  EXPECT_EQ(h.csf_nnz(), 0u);
  EXPECT_EQ(h.coo_nnz() + h.csl_nnz(), x.nnz());
}

TEST(Hbcsf, SortedTensorKeepsItsOrderWhateverThePermutation) {
  // Already in mode-0 order, with duplicate coordinates: the permutation
  // overload reads it as stored, like build_hbcsf(tensor, mode), so ties
  // never depend on how the caller's sort broke them.
  SparseTensor t({3, 4, 5});
  const index_t coords[][3] = {
      {0, 1, 2},                       // COO slice
      {1, 0, 0}, {1, 0, 0}, {1, 2, 3}, // duplicate pair, same fiber
      {2, 1, 0}, {2, 1, 0}, {2, 1, 4}, // duplicate pair
  };
  value_t v = 1.0F;
  for (const auto& c : coords) t.push_back({c, 3}, v++);
  ASSERT_TRUE(t.is_sorted(mode_order_for(0, 3)));
  // Also a valid sort, but with each duplicate pair swapped.
  const offset_vec swapped = {0, 2, 1, 3, 5, 4, 6};
  const HbcsfTensor want = build_hbcsf(t, 0);
  const HbcsfTensor got = build_hbcsf(t, 0, swapped);
  EXPECT_EQ(got.coo_nnz(), want.coo_nnz());
  EXPECT_EQ(got.csl().values(), want.csl().values());
  EXPECT_EQ(got.bcsf().csf().values(), want.bcsf().csf().values());
  EXPECT_EQ(got.index_storage_bytes(), want.index_storage_bytes());
  EXPECT_THROW(build_hbcsf(t, 0, offset_vec(3)), Error);
}

TEST(Hbcsf, MixedTensorPartitionsEverything) {
  PowerLawConfig cfg;
  cfg.dims = {200, 60, 120};
  cfg.target_nnz = 5000;
  cfg.singleton_slice_frac = 0.1;
  cfg.fiber_alpha = 0.6;
  cfg.max_fiber_len = 100;
  cfg.seed = 42;
  const SparseTensor x = generate_power_law(cfg);
  const HbcsfTensor h = build_hbcsf(x, 0);
  EXPECT_EQ(h.nnz(), x.nnz());
  EXPECT_GT(h.coo_nnz(), 0u);
  EXPECT_GT(h.csf_nnz(), 0u);
  EXPECT_NO_THROW(h.validate());
}

TEST(Hbcsf, MttkrpMatchesReferenceAllModes) {
  PowerLawConfig cfg;
  cfg.dims = {80, 90, 100};
  cfg.target_nnz = 4000;
  cfg.singleton_slice_frac = 0.2;
  cfg.seed = 43;
  const SparseTensor x = generate_power_law(cfg);
  const auto factors = make_random_factors(x.dims(), 8, 88);
  for (index_t mode = 0; mode < 3; ++mode) {
    const HbcsfTensor h = build_hbcsf(x, mode);
    const DenseMatrix ref = mttkrp_reference(x, mode, factors);
    const GpuMttkrpResult r =
        mttkrp_hbcsf_gpu(h, factors, DeviceModel::tiny());
    EXPECT_LT(ref.max_abs_diff(r.output), 2e-2) << "mode " << mode;
  }
}

TEST(Hbcsf, StorageNeverExceedsCsf) {
  // HB-CSF "consistently occupies less space than CSF" (SS VI-F).
  PowerLawConfig cfg;
  cfg.dims = {400, 300, 200};
  cfg.target_nnz = 8000;
  cfg.singleton_slice_frac = 0.25;
  cfg.seed = 44;
  const SparseTensor x = generate_power_law(cfg);
  for (index_t mode = 0; mode < 3; ++mode) {
    EXPECT_LE(hbcsf_storage(x, mode).bytes, csf_storage(x, mode).bytes)
        << "mode " << mode;
  }
}

TEST(Hbcsf, Order4Classification) {
  PowerLawConfig cfg;
  cfg.dims = {60, 20, 25, 30};
  cfg.target_nnz = 2000;
  cfg.singleton_slice_frac = 0.2;
  cfg.fixed_fiber_len = 1;
  cfg.seed = 45;
  const SparseTensor x = generate_power_law(cfg);
  const HbcsfTensor h = build_hbcsf(x, 0);
  EXPECT_EQ(h.nnz(), x.nnz());
  EXPECT_GT(h.coo_nnz(), 0u);
  EXPECT_GT(h.csl_nnz(), 0u);
  EXPECT_NO_THROW(h.validate());

  const auto factors = make_random_factors(x.dims(), 4, 99);
  const DenseMatrix ref = mttkrp_reference(x, 0, factors);
  const GpuMttkrpResult r = mttkrp_hbcsf_gpu(h, factors, DeviceModel::tiny());
  EXPECT_LT(ref.max_abs_diff(r.output), 2e-2);
}

}  // namespace
}  // namespace bcsf
