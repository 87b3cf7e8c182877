// Tests for the SPLATT baseline wrapper (ALLMODE, tiled traversal) and
// the cross-format storage accounting of SS III / Fig. 16.  The untiled
// SPLATT MTTKRP is the cpu-csf plan.
#include <gtest/gtest.h>

#include "core/factors.hpp"
#include "core/format_registry.hpp"
#include "formats/storage.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/splatt.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

SparseTensor test_tensor() {
  PowerLawConfig cfg;
  cfg.dims = {60, 80, 200};
  cfg.target_nnz = 4000;
  cfg.fiber_alpha = 0.7;
  cfg.max_fiber_len = 100;
  cfg.seed = 91;
  return generate_power_law(cfg);
}

/// SPLATT's untiled mode-`mode` MTTKRP: the cpu-csf plan.
DenseMatrix untiled(const SparseTensor& x, index_t mode,
                    const std::vector<DenseMatrix>& factors) {
  return FormatRegistry::instance()
      .create("cpu-csf", x, mode)
      ->run(factors)
      .output;
}

TEST(Splatt, AllmodeKeepsOneCsfPerMode) {
  const SparseTensor x = test_tensor();
  const SplattAllmode splatt(x);
  EXPECT_EQ(splatt.order(), 3u);
  for (index_t m = 0; m < 3; ++m) {
    EXPECT_EQ(splatt.csf(m).root_mode(), m);
    EXPECT_EQ(splatt.csf(m).nnz(), x.nnz());
  }
  EXPECT_GT(splatt.preprocessing_seconds(), 0.0);
}

TEST(Splatt, TiledMatchesUntiled) {
  const SparseTensor x = test_tensor();
  const auto factors = make_random_factors(x.dims(), 8, 92);
  const SplattAllmode t(x, SplattOptions{.tiling = true});
  for (index_t mode = 0; mode < 3; ++mode) {
    const DenseMatrix a = untiled(x, mode, factors);
    const DenseMatrix b = mttkrp_csf_cpu_tiled(t.csf(mode), factors, 8);
    EXPECT_LT(a.max_abs_diff(b), 1e-2) << "mode " << mode;
  }
}

TEST(Splatt, OneTileIsUntiled) {
  const SparseTensor x = test_tensor();
  const auto factors = make_random_factors(x.dims(), 8, 93);
  const CsfTensor csf = build_csf(x, 0);
  const DenseMatrix a = untiled(x, 0, factors);
  const DenseMatrix b = mttkrp_csf_cpu_tiled(csf, factors, 1);
  EXPECT_LT(a.max_abs_diff(b), 1e-3);
}

TEST(Splatt, MoreTilesThanLeafDimStillCorrect) {
  SparseTensor x({10, 10, 4});
  std::vector<index_t> c(3);
  for (index_t i = 0; i < 10; ++i) {
    c = {i, i, static_cast<index_t>(i % 4)};
    x.push_back(c, 1.0F);
  }
  const auto factors = make_random_factors(x.dims(), 4, 94);
  const CsfTensor csf = build_csf(x, 0);
  const DenseMatrix a = untiled(x, 0, factors);
  const DenseMatrix b = mttkrp_csf_cpu_tiled(csf, factors, 16);
  EXPECT_LT(a.max_abs_diff(b), 1e-4);
}

TEST(Splatt, TiledOrder4Correct) {
  PowerLawConfig cfg;
  cfg.dims = {20, 15, 10, 60};
  cfg.target_nnz = 1200;
  cfg.seed = 95;
  const SparseTensor x = generate_power_law(cfg);
  const auto factors = make_random_factors(x.dims(), 4, 96);
  const CsfTensor csf = build_csf(x, 1);
  const DenseMatrix a = untiled(x, 1, factors);
  const DenseMatrix b = mttkrp_csf_cpu_tiled(csf, factors, 4);
  EXPECT_LT(a.max_abs_diff(b), 1e-2);
}

TEST(Storage, CooClosedForm) {
  const SparseTensor x = test_tensor();
  EXPECT_EQ(coo_storage(x).bytes, coo_storage_formula(3, x.nnz()));
  EXPECT_EQ(coo_storage(x).bytes, 3u * x.nnz() * kIndexBytes);
}

TEST(Storage, CsfMatchesClosedForm) {
  const SparseTensor x = test_tensor();
  const CsfTensor csf = build_csf(x, 0);
  EXPECT_EQ(csf_storage(x, 0).bytes,
            csf_storage_formula(csf.num_slices(), csf.num_fibers(), csf.nnz()));
}

TEST(Storage, CsfBoundsFromPaper) {
  // SS III-B: CSF storage lies in [~1M, 5M] words for a 3-order tensor.
  const SparseTensor x = test_tensor();
  const std::size_t csf = csf_storage(x, 0).bytes;
  EXPECT_GE(csf, x.nnz() * kIndexBytes);
  EXPECT_LE(csf, 5u * x.nnz() * kIndexBytes);
}

TEST(Storage, HbcsfRangeFromPaper) {
  // SS V: HB-CSF storage is 4 x (1M ~ 3M) bytes.
  PowerLawConfig cfg;
  cfg.dims = {500, 300, 100};
  cfg.target_nnz = 5000;
  cfg.singleton_slice_frac = 0.3;
  cfg.fixed_fiber_len = 1;
  cfg.seed = 97;
  const SparseTensor x = generate_power_law(cfg);
  const std::size_t hb = hbcsf_storage(x, 0).bytes;
  EXPECT_GE(hb, x.nnz() * kIndexBytes);
  EXPECT_LE(hb, 3u * x.nnz() * kIndexBytes + 64);
}

TEST(Storage, WordsPerNnzNormalization) {
  const SparseTensor x = test_tensor();
  const StorageReport coo = coo_storage(x);
  EXPECT_NEAR(coo.words_per_nnz, 3.0, 1e-9);  // order-3 COO = 3 words/nnz
}

TEST(Storage, AllModesSumsAcrossModes) {
  const SparseTensor x = test_tensor();
  std::size_t manual = 0;
  for (index_t m = 0; m < 3; ++m) manual += csf_storage(x, m).bytes;
  EXPECT_EQ(csf_storage_all_modes(x), manual);
}

TEST(Storage, BcsfAddsSegmentsOverCsf) {
  PowerLawConfig cfg;
  cfg.dims = {30, 30, 500};
  cfg.target_nnz = 4000;
  cfg.fiber_alpha = 0.3;
  cfg.max_fiber_len = 400;
  cfg.seed = 98;
  const SparseTensor x = generate_power_law(cfg);
  // Splitting adds (index, pointer) pairs for the extra segments, so
  // B-CSF storage >= CSF storage.
  EXPECT_GE(bcsf_storage(x, 0).bytes, csf_storage(x, 0).bytes);
}

}  // namespace
}  // namespace bcsf
