// Tests for the slice/fiber statistics module, anchored on the paper's
// worked example (Fig. 4): a tensor with S = 3 slices, F = 5 fibers and
// M = 8 nonzeros whose three slices are exactly one COO candidate, one
// CSL candidate and one CSF slice.
#include <gtest/gtest.h>

#include "tensor/generator.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/tensor_stats.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

/// The Fig. 4 tensor: slice 0 has a single nonzero; slice 1 has three
/// singleton fibers; slice 2 has one fiber with four nonzeros.
SparseTensor fig4_tensor() {
  SparseTensor t({3, 5, 6});
  const index_t coords[][3] = {
      {0, 1, 2},                            // slice 0: COO candidate
      {1, 0, 0}, {1, 2, 3}, {1, 4, 1},      // slice 1: CSL candidate
      {2, 1, 0}, {2, 1, 2}, {2, 1, 4}, {2, 1, 5},  // slice 2: CSF
  };
  value_t v = 1.0F;
  for (const auto& c : coords) t.push_back({c, 3}, v++);
  return t;
}

TEST(TensorStats, Fig4SliceAndFiberCounts) {
  const ModeStats s = compute_mode_stats(fig4_tensor(), 0);
  EXPECT_EQ(s.num_slices, 3u);   // S = 3, as in the paper
  EXPECT_EQ(s.num_fibers, 5u);   // F = 5
  EXPECT_EQ(s.nnz, 8u);          // M = 8
}

TEST(TensorStats, Fig4Classification) {
  const ModeStats s = compute_mode_stats(fig4_tensor(), 0);
  // One of three slices is a singleton (COO), one is all-singleton-fiber
  // (CSL); the remaining slice is CSF.
  EXPECT_NEAR(s.singleton_slice_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.csl_slice_fraction, 1.0 / 3.0, 1e-12);
}

TEST(TensorStats, Fig4PerSliceDistribution) {
  const ModeStats s = compute_mode_stats(fig4_tensor(), 0);
  EXPECT_DOUBLE_EQ(s.nnz_per_slice.min, 1.0);
  EXPECT_DOUBLE_EQ(s.nnz_per_slice.max, 4.0);
  EXPECT_NEAR(s.nnz_per_slice.mean, 8.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.nnz_per_fiber.max, 4.0);
  EXPECT_NEAR(s.nnz_per_fiber.mean, 8.0 / 5.0, 1e-12);
}

TEST(TensorStats, CountScanMatchesManual) {
  SparseTensor t = fig4_tensor();
  const ModeOrder order = mode_order_for(0, 3);
  t.sort(order);
  const SliceFiberCounts c = count_slices_and_fibers(t, order);
  EXPECT_EQ(c.slice_index, (index_vec{0, 1, 2}));
  EXPECT_EQ(c.slice_nnz, (offset_vec{1, 3, 4}));
  EXPECT_EQ(c.fiber_nnz, (offset_vec{1, 1, 1, 1, 4}));
  EXPECT_EQ(c.slice_fiber_begin, (offset_vec{0, 1, 4, 5}));
}

TEST(TensorStats, OtherModesDifferStructurally) {
  const SparseTensor t = fig4_tensor();
  const ModeStats m1 = compute_mode_stats(t, 1);
  // Mode 1 has slices at j in {0,1,2,4}; j=1 collects 5 nonzeros.
  EXPECT_EQ(m1.num_slices, 4u);
  EXPECT_DOUBLE_EQ(m1.nnz_per_slice.max, 5.0);
}

TEST(TensorStats, EmptyTensor) {
  const SparseTensor t({3, 3, 3});
  const ModeStats s = compute_mode_stats(t, 0);
  EXPECT_EQ(s.num_slices, 0u);
  EXPECT_EQ(s.num_fibers, 0u);
}

TEST(TensorStats, AllModesCoverEveryMode) {
  const auto all = compute_all_mode_stats(fig4_tensor());
  ASSERT_EQ(all.size(), 3u);
  for (index_t m = 0; m < 3; ++m) {
    EXPECT_EQ(all[m].mode, m);
    EXPECT_EQ(all[m].nnz, 8u);
  }
}

void expect_same(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.gini, b.gini);
}

TEST(TensorStats, PermutationOverloadMatchesItsOwnSort) {
  PowerLawConfig cfg;
  cfg.dims = {60, 40, 50, 30};
  cfg.target_nnz = 6000;
  cfg.singleton_slice_frac = 0.2;
  cfg.seed = 46;
  const SparseTensor t = generate_power_law(cfg);
  for (index_t m = 0; m < t.order(); ++m) {
    const ModeStats want = compute_mode_stats(t, m);
    const std::uint64_t scans = exact_stat_scan_count();
    const ModeStats got = compute_mode_stats(
        t, m, t.sort_permutation(mode_order_for(m, t.order())));
    EXPECT_EQ(exact_stat_scan_count(), scans + 1);  // still one exact scan
    EXPECT_EQ(got.num_slices, want.num_slices) << "mode " << m;
    EXPECT_EQ(got.num_fibers, want.num_fibers) << "mode " << m;
    expect_same(got.nnz_per_slice, want.nnz_per_slice);
    expect_same(got.nnz_per_fiber, want.nnz_per_fiber);
    expect_same(got.fibers_per_slice, want.fibers_per_slice);
    EXPECT_EQ(got.singleton_slice_fraction, want.singleton_slice_fraction);
    EXPECT_EQ(got.csl_slice_fraction, want.csl_slice_fraction);
  }
  EXPECT_THROW(compute_mode_stats(t, 0, offset_vec(t.nnz() - 1)), Error);
}

TEST(TensorStats, Order2FiberEqualsSlice) {
  SparseTensor t({4, 4});
  const index_t coords[][2] = {{0, 1}, {0, 2}, {3, 0}};
  for (const auto& c : coords) t.push_back({c, 2}, 1.0F);
  const ModeStats s = compute_mode_stats(t, 0);
  EXPECT_EQ(s.num_slices, 2u);
  EXPECT_EQ(s.num_fibers, 2u);  // in a matrix, rows are both
}

}  // namespace
}  // namespace bcsf
