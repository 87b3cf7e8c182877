// Tests for B-CSF (the paper's first contribution): fbr-split and
// slc-split structure, semantics preservation, and the block schedule
// invariants, walk order included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/factors.hpp"
#include "formats/bcsf.hpp"
#include "kernels/mttkrp.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

SparseTensor heavy_fiber_tensor() {
  // One slice with a single 40-nonzero fiber plus a few small slices:
  // exercises both splits with hand-checkable numbers.
  SparseTensor t({5, 5, 64});
  std::vector<index_t> c(3);
  for (index_t k = 0; k < 40; ++k) {
    c = {0, 0, k};
    t.push_back(c, 1.0F);
  }
  for (index_t i = 1; i < 5; ++i) {
    c = {i, 1, static_cast<index_t>(i)};
    t.push_back(c, 2.0F);
  }
  return t;
}

TEST(Bcsf, FiberSplitRespectsThreshold) {
  BcsfOptions opts;
  opts.fiber_threshold = 16;
  const BcsfTensor b = build_bcsf(heavy_fiber_tensor(), 0, opts);
  EXPECT_NO_THROW(b.validate());
  // 40 nonzeros with threshold 16 -> segments of 16, 16, 8.
  EXPECT_EQ(b.split_fiber_count(), 1u);
  EXPECT_EQ(b.num_fiber_segments(), 3u + 4u);  // 3 segments + 4 small fibers
  const index_t fiber_level = b.csf().node_levels() - 1;
  for (offset_t f = 0; f < b.num_fiber_segments(); ++f) {
    EXPECT_LE(b.csf().child_end(fiber_level, f) -
                  b.csf().child_begin(fiber_level, f),
              16u);
  }
}

TEST(Bcsf, SegmentsRepeatFiberIndex) {
  BcsfOptions opts;
  opts.fiber_threshold = 16;
  const BcsfTensor b = build_bcsf(heavy_fiber_tensor(), 0, opts);
  const index_t fiber_level = b.csf().node_levels() - 1;
  // The three segments of the heavy fiber all carry j = 0.
  EXPECT_EQ(b.csf().node_index(fiber_level, 0), 0u);
  EXPECT_EQ(b.csf().node_index(fiber_level, 1), 0u);
  EXPECT_EQ(b.csf().node_index(fiber_level, 2), 0u);
}

TEST(Bcsf, SliceSplitProducesAtomicBlocks) {
  BcsfOptions opts;
  opts.fiber_threshold = 8;
  opts.block_nnz_capacity = 16;
  const BcsfTensor b = build_bcsf(heavy_fiber_tensor(), 0, opts);
  EXPECT_NO_THROW(b.validate());
  EXPECT_EQ(b.split_slice_count(), 1u);  // only the 40-nonzero slice
  offset_t atomic_blocks = 0;
  for (const auto& blk : b.blocks()) {
    if (blk.atomic_output) {
      ++atomic_blocks;
      EXPECT_EQ(blk.slice, 0u);
    }
  }
  EXPECT_GE(atomic_blocks, 2u);
}

TEST(Bcsf, NoSplitMeansOneBlockPerSlice) {
  BcsfOptions opts;
  opts.fiber_split = false;
  opts.slice_split = false;
  const BcsfTensor b = build_bcsf(heavy_fiber_tensor(), 0, opts);
  EXPECT_EQ(b.blocks().size(), b.csf().num_slices());
  EXPECT_EQ(b.split_fiber_count(), 0u);
  EXPECT_EQ(b.split_slice_count(), 0u);
  for (const auto& blk : b.blocks()) EXPECT_FALSE(blk.atomic_output);
}

TEST(Bcsf, SplittingPreservesMttkrpSemantics) {
  PowerLawConfig cfg;
  cfg.dims = {40, 50, 200};
  cfg.target_nnz = 6000;
  cfg.fiber_alpha = 0.5;
  cfg.max_fiber_len = 150;
  cfg.seed = 31;
  const SparseTensor x = generate_power_law(cfg);
  const auto factors = make_random_factors(x.dims(), 8, 77);
  const DeviceModel device = DeviceModel::tiny();

  for (index_t mode = 0; mode < 3; ++mode) {
    const DenseMatrix ref = mttkrp_reference(x, mode, factors);
    for (offset_t threshold : {4u, 32u, 1024u}) {
      BcsfOptions opts;
      opts.fiber_threshold = threshold;
      opts.block_nnz_capacity = 64;
      const BcsfTensor b = build_bcsf(x, mode, opts);
      b.validate();
      const GpuMttkrpResult r = mttkrp_bcsf_gpu(b, factors, device);
      EXPECT_LT(ref.max_abs_diff(r.output), 2e-2)
          << "mode " << mode << " threshold " << threshold;
    }
  }
}

TEST(Bcsf, BlocksPartitionNonzeros) {
  const BcsfTensor b = build_bcsf(heavy_fiber_tensor(), 0, BcsfOptions{});
  offset_t covered = 0;
  for (const auto& blk : b.blocks()) covered += blk.nnz;
  EXPECT_EQ(covered, b.nnz());
}

TEST(Bcsf, FiberCoordsMatchTreeWalk) {
  PowerLawConfig cfg;
  cfg.dims = {20, 15, 10, 25};
  cfg.target_nnz = 1500;
  cfg.seed = 32;
  const SparseTensor x = generate_power_law(cfg);
  const BcsfTensor b = build_bcsf(x, 2, BcsfOptions{});
  const CsfTensor& csf = b.csf();
  const index_t fiber_level = csf.node_levels() - 1;

  // Walk the tree and check each fiber's recorded ancestor coordinates.
  for (offset_t s = 0; s < csf.num_slices(); ++s) {
    offset_t n1_begin = csf.child_begin(0, s);
    offset_t n1_end = csf.child_end(0, s);
    for (offset_t n1 = n1_begin; n1 < n1_end; ++n1) {
      for (offset_t f = csf.child_begin(1, n1); f < csf.child_end(1, n1);
           ++f) {
        EXPECT_EQ(b.fiber_coord(0, f), csf.node_index(0, s));
        EXPECT_EQ(b.fiber_coord(1, f), csf.node_index(1, n1));
        EXPECT_EQ(b.fiber_coord(fiber_level, f),
                  csf.node_index(fiber_level, f));
      }
    }
  }
}

TEST(Bcsf, Order4SplitKeepsParentPointersConsistent) {
  PowerLawConfig cfg;
  cfg.dims = {10, 8, 12, 300};
  cfg.target_nnz = 3000;
  cfg.fiber_alpha = 0.4;
  cfg.max_fiber_len = 250;
  cfg.seed = 33;
  const SparseTensor x = generate_power_law(cfg);
  BcsfOptions opts;
  opts.fiber_threshold = 16;
  const BcsfTensor b = build_bcsf(x, 0, opts);
  EXPECT_NO_THROW(b.validate());  // validates the whole remapped tree
  EXPECT_GT(b.split_fiber_count(), 0u);

  const auto factors = make_random_factors(x.dims(), 4, 55);
  const DenseMatrix ref = mttkrp_reference(x, 0, factors);
  const GpuMttkrpResult r = mttkrp_bcsf_gpu(b, factors, DeviceModel::tiny());
  EXPECT_LT(ref.max_abs_diff(r.output), 2e-2);
}

TEST(Bcsf, RejectsZeroThreshold) {
  BcsfOptions opts;
  opts.fiber_threshold = 0;
  EXPECT_THROW(build_bcsf(heavy_fiber_tensor(), 0, opts), Error);
  BcsfOptions opts2;
  opts2.block_nnz_capacity = 0;
  EXPECT_THROW(build_bcsf(heavy_fiber_tensor(), 0, opts2), Error);
}

/// Windows of a walk order by kind: in place, or reordered (and the
/// most segments a reordered one holds).
struct WindowCounts {
  offset_t in_place = 0;
  offset_t reordered = 0;
  offset_t widest_reordered = 0;
};

/// Every walk-order window of `b` lists a permutation of its segments:
/// sorted by nonzero count with ties in segment order, or, marked in
/// place, fiber order -- always so for a window already in length order.
/// Pair bits pair consecutive entries of one count, greedily; only a
/// window's first entry may carry the in-place bit.
WindowCounts expect_length_order(const BcsfTensor& b) {
  const index_t fiber_level = b.csf().node_levels() - 1;
  const auto len = [&](offset_t f) {
    return b.csf().child_end(fiber_level, f) -
           b.csf().child_begin(fiber_level, f);
  };
  const std::vector<std::uint16_t>& order = b.walk_order();
  WindowCounts counts;
  EXPECT_EQ(order.size(), b.num_fiber_segments());
  if (order.size() != b.num_fiber_segments()) return counts;
  for (const BcsfTensor::Block& blk : b.blocks()) {
    for (offset_t w = blk.fiber_begin; w < blk.fiber_end;
         w += BcsfTensor::kOrderWindow) {
      const offset_t n = std::min(BcsfTensor::kOrderWindow, blk.fiber_end - w);
      std::vector<offset_t> walk;
      for (offset_t i = 0; i < n; ++i) {
        walk.push_back(w + (order[w + i] & BcsfTensor::kOrderIndex));
      }
      std::vector<offset_t> segments = walk;
      std::sort(segments.begin(), segments.end());
      for (offset_t i = 0; i < n; ++i) EXPECT_EQ(segments[i], w + i);
      const auto by_length = [&](offset_t f, offset_t g) {
        return len(f) < len(g) || (len(f) == len(g) && f < g);
      };
      if ((order[w] & BcsfTensor::kOrderInPlace) != 0) {
        EXPECT_EQ(walk, segments) << "window at segment " << w;
        ++counts.in_place;
      } else {
        EXPECT_TRUE(std::is_sorted(walk.begin(), walk.end(), by_length))
            << "window at segment " << w;
        EXPECT_FALSE(
            std::is_sorted(segments.begin(), segments.end(), by_length))
            << "window at segment " << w << " is in length order";
        ++counts.reordered;
        counts.widest_reordered = std::max(counts.widest_reordered, n);
      }
      bool second = false;
      for (offset_t i = 0; i < n; ++i) {
        const bool pair = !second && i + 1 < n &&
                          len(walk[i]) == len(walk[i + 1]);
        EXPECT_EQ((order[w + i] & BcsfTensor::kOrderPair) != 0, pair)
            << "entry " << i << " of the window at segment " << w;
        if (i > 0) {
          EXPECT_EQ(order[w + i] & BcsfTensor::kOrderInPlace, 0);
        }
        second = pair;
      }
    }
  }
  return counts;
}

TEST(Bcsf, WalkOrderSortsEachBlockBySegmentLength) {
  PowerLawConfig cfg;
  cfg.dims = {40, 50, 200};
  cfg.target_nnz = 6000;
  cfg.fiber_alpha = 0.5;
  cfg.max_fiber_len = 150;
  cfg.seed = 34;
  const SparseTensor x = generate_power_law(cfg);
  BcsfOptions small_blocks;
  small_blocks.fiber_threshold = 16;
  small_blocks.block_nnz_capacity = 64;
  WindowCounts total;
  for (index_t mode = 0; mode < 3; ++mode) {
    for (const BcsfOptions& opts :
         {BcsfOptions{}, small_blocks, BcsfOptions::unsplit()}) {
      SCOPED_TRACE("mode " + std::to_string(mode) + " capacity " +
                   std::to_string(opts.block_nnz_capacity) + " split " +
                   std::to_string(opts.slice_split));
      const BcsfTensor b = build_bcsf(x, mode, opts);
      EXPECT_NO_THROW(b.validate());
      const WindowCounts counts = expect_length_order(b);
      total.in_place += counts.in_place;
      total.reordered += counts.reordered;
    }
  }
  // Both kinds of window occur.
  EXPECT_GT(total.in_place, 0u);
  EXPECT_GT(total.reordered, 0u);
}

TEST(Bcsf, WalkOrderCutsAWideUnsplitSliceIntoWindows) {
  // Slice 0 holds 1300 fibers of 1-5 nonzeros: more segments than one
  // window addresses.
  SparseTensor t({2, 1300, 8});
  std::vector<index_t> c(3);
  for (index_t j = 0; j < 1300; ++j) {
    for (index_t k = 0; k < 1 + (7 * j) % 5; ++k) {
      c = {0, j, k};
      t.push_back(c, 1.0F);
    }
  }
  c = {1, 3, 2};
  t.push_back(c, 1.0F);
  const BcsfTensor b = build_bcsf(t, 0, BcsfOptions::unsplit());
  ASSERT_EQ(b.blocks().size(), 2u);
  EXPECT_EQ(b.blocks()[0].fiber_end - b.blocks()[0].fiber_begin, 1300u);
  EXPECT_NO_THROW(b.validate());
  EXPECT_EQ(expect_length_order(b).widest_reordered, BcsfTensor::kOrderWindow);
}

TEST(Bcsf, EmptyTensor) {
  const SparseTensor t({3, 3, 3});
  const BcsfTensor b = build_bcsf(t, 0);
  EXPECT_EQ(b.blocks().size(), 0u);
  EXPECT_NO_THROW(b.validate());
}

}  // namespace
}  // namespace bcsf
