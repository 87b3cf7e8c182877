// Tests for the streaming structural sketches (DESIGN.md §12): exactness
// of the slice-occupancy fields, accuracy bounds of the fiber estimators
// on uniform and power-law (Zipf-tailed) tensors, merge associativity
// (shard-merged == whole-tensor, bitwise on the integer state),
// incremental == from-scratch across apply/compact cycles, the sketched
// partitioner's cut equivalence, the approximate norm's error bound, and
// bulk ingest == a per-nonzero oracle, field for field and bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/auto_policy.hpp"
#include "tensor/dynamic_tensor.hpp"
#include "tensor/generator.hpp"
#include "tensor/partitioner.hpp"
#include "tensor/sketch.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/tensor_stats.hpp"
#include "util/error.hpp"

namespace bcsf {
namespace {

/// The Fig. 4 tensor (same worked example as tensor_stats_test): S = 3,
/// F = 5, M = 8, one COO slice, one CSL slice, one CSF slice.
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

SparseTensor zipf_tensor(offset_t nnz, std::uint64_t seed) {
  PowerLawConfig config;
  config.dims = {600, 400, 300};
  config.target_nnz = nnz;
  config.slice_alpha = 1.1;  // heavy Zipf-like slice tail
  config.fiber_alpha = 1.4;
  config.seed = seed;
  return generate_power_law(config);
}

/// Structural (integer) state equality: the fields the merge contract
/// promises are bitwise-associative.
void expect_same_structure(const ModeSketch& a, const ModeSketch& b) {
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.num_slices(), b.num_slices());
  EXPECT_EQ(a.singleton_slices(), b.singleton_slices());
  EXPECT_EQ(a.max_slice_nnz(), b.max_slice_nnz());
  EXPECT_EQ(a.sum_sq_slice_nnz(), b.sum_sq_slice_nnz());
  EXPECT_EQ(a.fibers_exact(), b.fibers_exact());
  EXPECT_EQ(a.estimate_fibers(), b.estimate_fibers());
  // AMS counters are integers, so the derived double is bit-identical.
  EXPECT_DOUBLE_EQ(a.estimate_fiber_sq_sum(), b.estimate_fiber_sq_sum());
}

void expect_same_structure(const TensorSketch& a, const TensorSketch& b) {
  ASSERT_EQ(a.order(), b.order());
  EXPECT_EQ(a.nnz(), b.nnz());
  for (index_t m = 0; m < a.order(); ++m) {
    expect_same_structure(a.mode(m), b.mode(m));
  }
}

TEST(Sketch, ExactFieldsMatchExactStatsOnFig4) {
  const SparseTensor t = fig4_tensor();
  const TensorSketch sketch = TensorSketch::build(t);
  for (index_t m = 0; m < 3; ++m) {
    const ModeStats exact = compute_mode_stats(t, m);
    const ModeStats approx = sketch.approx_mode_stats(m);
    EXPECT_EQ(approx.nnz, exact.nnz) << "mode " << m;
    EXPECT_EQ(approx.num_slices, exact.num_slices) << "mode " << m;
    EXPECT_DOUBLE_EQ(approx.singleton_slice_fraction,
                     exact.singleton_slice_fraction)
        << "mode " << m;
    EXPECT_NEAR(approx.nnz_per_slice.mean, exact.nnz_per_slice.mean, 1e-12);
    EXPECT_NEAR(approx.nnz_per_slice.stddev, exact.nnz_per_slice.stddev,
                1e-9);
    EXPECT_DOUBLE_EQ(approx.nnz_per_slice.max, exact.nnz_per_slice.max);
  }
  // One-shot builds carry the exact fiber count...
  EXPECT_TRUE(sketch.mode(0).fibers_exact());
  EXPECT_EQ(sketch.approx_mode_stats(0).num_fibers, 5u);
  // ...and even a streamed (add-by-add) sketch recovers F exactly here:
  // small-cardinality HLL falls back to linear counting.
  TensorSketch streamed(t.dims());
  std::vector<index_t> coords(3);
  for (offset_t z = 0; z < t.nnz(); ++z) {
    for (index_t m = 0; m < 3; ++m) coords[m] = t.coord(m, z);
    streamed.add(coords, t.value(z));
  }
  EXPECT_FALSE(streamed.mode(0).fibers_exact());
  EXPECT_EQ(streamed.approx_mode_stats(0).num_fibers, 5u);
}

/// Streams every entry through TensorSketch::add -- the incremental path,
/// which never gets the one-shot exact fiber count and so exercises the
/// HLL estimator the bounds tests below are about.
TensorSketch streamed_sketch(const SparseTensor& t) {
  TensorSketch sketch(t.dims());
  std::vector<index_t> coords(t.order());
  for (offset_t z = 0; z < t.nnz(); ++z) {
    for (index_t m = 0; m < t.order(); ++m) coords[m] = t.coord(m, z);
    sketch.add(coords, t.value(z));
  }
  return sketch;
}

TEST(Sketch, FiberEstimateWithinBoundsUniform) {
  // A uniform tensor's fiber count is near-distinct: with 40k nonzeros in
  // 200^3 cells almost every (i, j) pair is unique.  HLL at p = 12 has
  // ~1.6% standard error; assert 5 sigma.
  const SparseTensor t = generate_uniform({200, 200, 200}, 40000, 7);
  const TensorSketch streamed = streamed_sketch(t);
  const TensorSketch built = TensorSketch::build(t);
  for (index_t m = 0; m < 3; ++m) {
    const ModeStats exact = compute_mode_stats(t, m);
    const double est =
        static_cast<double>(streamed.approx_mode_stats(m).num_fibers);
    const double truth = static_cast<double>(exact.num_fibers);
    EXPECT_NEAR(est, truth, 0.08 * truth) << "mode " << m;
    // The one-shot build is exact, not merely within bounds.
    EXPECT_EQ(built.approx_mode_stats(m).num_fibers, exact.num_fibers)
        << "mode " << m;
  }
}

TEST(Sketch, FiberEstimateWithinBoundsZipf) {
  const SparseTensor t = zipf_tensor(60000, 11);
  const TensorSketch streamed = streamed_sketch(t);
  const TensorSketch built = TensorSketch::build(t);
  for (index_t m = 0; m < 3; ++m) {
    const ModeStats exact = compute_mode_stats(t, m);
    const double est =
        static_cast<double>(streamed.approx_mode_stats(m).num_fibers);
    const double truth = static_cast<double>(exact.num_fibers);
    EXPECT_NEAR(est, truth, 0.08 * truth) << "mode " << m;
    EXPECT_EQ(built.approx_mode_stats(m).num_fibers, exact.num_fibers)
        << "mode " << m;
  }
}

TEST(Sketch, CslFractionIsALowerBoundAndExactWhenFibersAreSingletons) {
  // All-singleton fibers: nnz == F, so the bound (S - S1 - (nnz - F))/S
  // collapses to the exact CSL fraction (every non-singleton slice is a
  // CSL slice).  The HLL estimate of F is clamped to <= nnz, so the
  // bound stays a lower bound even with estimator error.
  PowerLawConfig config;
  config.dims = {500, 300, 200};
  config.target_nnz = 30000;
  config.fixed_fiber_len = 1;
  config.seed = 3;
  const SparseTensor t = generate_power_law(config);
  const ModeStats exact = compute_mode_stats(t, 0);
  const ModeStats approx = TensorSketch::build(t).approx_mode_stats(0);
  EXPECT_LE(approx.csl_slice_fraction, exact.csl_slice_fraction + 1e-12);
  // A one-shot build has the exact F, so the bound collapses exactly.
  EXPECT_DOUBLE_EQ(approx.csl_slice_fraction, exact.csl_slice_fraction);
  // The streamed sketch only has the HLL F (clamped to <= nnz), so its
  // fraction stays a lower bound -- never an overestimate that could
  // misroute a CSF tensor to CSL.
  const ModeStats hll = streamed_sketch(t).approx_mode_stats(0);
  EXPECT_LE(hll.csl_slice_fraction, exact.csl_slice_fraction + 1e-12);
}

TEST(Sketch, MergeMatchesWholeTensorBitwise) {
  const SparseTensor t = zipf_tensor(20000, 19);
  const TensorSketch whole = TensorSketch::build(t);
  const TensorSketch streamed = streamed_sketch(t);

  // Split the nonzeros three ways round-robin (deliberately NOT by slice
  // range: merge must not care how the shards partition the stream).
  std::vector<SparseTensor> parts(3, SparseTensor(t.dims()));
  std::vector<index_t> coords(t.order());
  for (offset_t z = 0; z < t.nnz(); ++z) {
    for (index_t m = 0; m < t.order(); ++m) coords[m] = t.coord(m, z);
    parts[z % 3].push_back(coords, t.value(z));
  }
  std::vector<TensorSketch> sketches;
  sketches.reserve(parts.size());
  for (const SparseTensor& p : parts) {
    sketches.push_back(TensorSketch::build(p));
  }

  // Two different association orders are bitwise-identical to each other.
  // Overlapping slice ranges lapse the exact-fiber shortcut (in every
  // association), so against the whole-tensor sketch the merged state
  // matches on everything EXCEPT that shortcut: compare after streaming,
  // which holds only HLL state on both sides.
  TensorSketch left(t.dims());
  left.merge(sketches[0]);
  left.merge(sketches[1]);
  left.merge(sketches[2]);
  TensorSketch right(t.dims());
  right.merge(sketches[2]);
  right.merge(sketches[0]);
  right.merge(sketches[1]);
  expect_same_structure(left, right);
  EXPECT_FALSE(left.mode(0).fibers_exact());
  expect_same_structure(left, streamed);
  // The merged HLL estimate still lands within bounds of the whole
  // tensor's exact count.
  for (index_t m = 0; m < t.order(); ++m) {
    const double truth =
        static_cast<double>(whole.mode(m).estimate_fibers());
    EXPECT_NEAR(static_cast<double>(left.mode(m).estimate_fibers()), truth,
                0.08 * truth)
        << "mode " << m;
    EXPECT_EQ(left.mode(m).nnz(), whole.mode(m).nnz());
    EXPECT_EQ(left.mode(m).num_slices(), whole.mode(m).num_slices());
    EXPECT_EQ(left.mode(m).sum_sq_slice_nnz(),
              whole.mode(m).sum_sq_slice_nnz());
  }
}

TEST(Sketch, ExactFibersSurviveAscendingSliceDisjointMerges) {
  // The shard path: contiguous slice ranges on the partition mode, merged
  // in shard order.  The partition-mode sketch keeps the exact count of
  // its one-shot shard builds; the other modes (whose slice ranges
  // interleave across shards) lapse to HLL.
  const SparseTensor t = zipf_tensor(15000, 47);
  const TensorSketch whole = TensorSketch::build(t);
  const TensorPartition partition = partition_tensor(t, 0, 4);

  TensorSketch merged(t.dims());
  for (const TensorShard& shard : partition.shards) {
    merged.merge(TensorSketch::build(*shard.tensor));
  }
  EXPECT_TRUE(merged.mode(0).fibers_exact());
  EXPECT_EQ(merged.mode(0).estimate_fibers(),
            whole.mode(0).estimate_fibers());

  // Merging out of order must lapse (the ascending rule), never produce
  // a wrong "exact" count.
  TensorSketch reversed(t.dims());
  for (std::size_t s = partition.size(); s > 0; --s) {
    reversed.merge(TensorSketch::build(*partition.shards[s - 1].tensor));
  }
  EXPECT_FALSE(reversed.mode(0).fibers_exact());
}

TEST(Sketch, IncrementalMatchesFromScratchAcrossApplyAndCompact) {
  SparseTensor base = generate_uniform({120, 90, 70}, 8000, 23);
  DynamicSparseTensor dyn(share_tensor(std::move(base)));

  std::uint64_t version = 0;
  for (int round = 0; round < 4; ++round) {
    version = dyn.apply(
        generate_uniform({120, 90, 70}, 700, 100 + round));
    // From-scratch over the STORED entries: the base plus each frozen
    // chunk (delta duplicates intentionally count per stored entry).
    const TensorSnapshot snap = dyn.snapshot();
    TensorSketch scratch = TensorSketch::build(*snap.base);
    for (const TensorPtr& chunk : snap.deltas) {
      scratch.add_tensor(*chunk);
    }
    expect_same_structure(dyn.sketch(), scratch);
  }

  // Compact: the 2-arg replace_base rebuilds the base sketch inline; the
  // merged tensor is coalesced, so stored == logical afterwards.
  const TensorSnapshot snap = dyn.snapshot();
  TensorPtr merged = share_tensor(snap.merged(/*coalesce=*/true));
  dyn.replace_base(merged, version);
  expect_same_structure(dyn.sketch(), TensorSketch::build(*merged));

  // And the cycle continues cleanly after the swap.
  dyn.apply(generate_uniform({120, 90, 70}, 500, 777));
  const TensorSnapshot after = dyn.snapshot();
  TensorSketch scratch = TensorSketch::build(*after.base);
  for (const TensorPtr& chunk : after.deltas) scratch.add_tensor(*chunk);
  expect_same_structure(dyn.sketch(), scratch);
}

TEST(Sketch, NormTracksStoredEntriesWithBoundedCoalescedError) {
  SparseTensor base({64, 64, 64});
  // Power-of-two grid values: every sum below is exact in double, so the
  // identities hold to EQ, not NEAR (the repo's standard FP trick).
  const std::vector<std::vector<index_t>> base_coords{
      {1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const std::vector<value_t> base_values{0.5F, 1.0F, 2.0F};
  for (std::size_t z = 0; z < base_coords.size(); ++z) {
    base.push_back(base_coords[z], base_values[z]);
  }
  DynamicSparseTensor dyn(share_tensor(std::move(base)));
  EXPECT_DOUBLE_EQ(dyn.sketch_scalars().norm_sq(), 0.25 + 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(dyn.sketch_scalars().norm_sq_error_bound(), 0.0);

  // An update overlapping an existing coordinate: stored-entry norm now
  // differs from the coalesced norm by the cross term, which the bound
  // 2*sqrt(B*D) must cover.
  SparseTensor update({64, 64, 64});
  const std::vector<index_t> overlap{1, 2, 3};  // coalesces to 1.0 here
  const std::vector<index_t> fresh{9, 9, 9};
  update.push_back(overlap, 0.5F);
  update.push_back(fresh, 1.0F);
  const std::uint64_t version = dyn.apply(std::move(update));

  const SketchScalars scalars = dyn.sketch_scalars();
  const double stored = scalars.norm_sq();
  EXPECT_DOUBLE_EQ(stored, 5.25 + 0.25 + 1.0);
  const double coalesced = 1.0 + 1.0 + 4.0 + 1.0;  // (1,2,3) is now 1.0
  EXPECT_LE(std::abs(coalesced - stored), scalars.norm_sq_error_bound());

  // Compaction coalesces; the estimate becomes exact and the bound 0.
  const TensorSnapshot snap = dyn.snapshot();
  dyn.replace_base(share_tensor(snap.merged(/*coalesce=*/true)), version);
  EXPECT_DOUBLE_EQ(dyn.sketch_scalars().norm_sq(), coalesced);
  EXPECT_DOUBLE_EQ(dyn.sketch_scalars().norm_sq_error_bound(), 0.0);
}

/// Per-shard histogram of partition-mode coordinates: what the cut
/// equivalence check compares (intra-slice assignment order may differ
/// between the sorting and bucketing materializations, but identical
/// cuts force identical per-shard slice populations).
std::vector<std::vector<offset_t>> shard_slice_histograms(
    const TensorPartition& p) {
  std::vector<std::vector<offset_t>> out;
  for (const TensorShard& shard : p.shards) {
    std::vector<offset_t> hist(p.dims[p.mode], 0);
    for (offset_t z = 0; z < shard.tensor->nnz(); ++z) {
      ++hist[shard.tensor->coord(p.mode, z)];
    }
    out.push_back(std::move(hist));
  }
  return out;
}

TEST(Sketch, PartitionerCutsMatchExactPath) {
  const SparseTensor t = zipf_tensor(30000, 31);
  const TensorSketch sketch = TensorSketch::build(t);
  for (unsigned k : {2u, 3u, 5u, 8u, 16u}) {
    const TensorPartition exact = partition_tensor(t, 0, k);
    const TensorPartition fast = partition_tensor(t, 0, k, sketch.mode(0));
    ASSERT_EQ(fast.size(), exact.size()) << "k=" << k;
    EXPECT_EQ(fast.slice_begins, exact.slice_begins) << "k=" << k;
    for (std::size_t s = 0; s < exact.size(); ++s) {
      EXPECT_EQ(fast.shards[s].nnz(), exact.shards[s].nnz())
          << "k=" << k << " shard " << s;
      EXPECT_EQ(fast.shards[s].slice_begin, exact.shards[s].slice_begin);
      EXPECT_EQ(fast.shards[s].slice_end, exact.shards[s].slice_end);
    }
    EXPECT_EQ(shard_slice_histograms(fast), shard_slice_histograms(exact))
        << "k=" << k;
    EXPECT_EQ(fast.disjoint_slice_ranges(), exact.disjoint_slice_ranges());
  }
}

TEST(Sketch, PartitionerCutsMatchOnUniformAndSortedInput) {
  SparseTensor t = generate_uniform({100, 80, 60}, 12000, 41);
  const TensorSketch sketch = TensorSketch::build(t);
  const TensorPartition exact = partition_tensor(t, 0, 4);
  const TensorPartition fast = partition_tensor(t, 0, 4, sketch.mode(0));
  EXPECT_EQ(fast.slice_begins, exact.slice_begins);
  EXPECT_EQ(shard_slice_histograms(fast), shard_slice_histograms(exact));

  // Pre-sorted input exercises the exact path's no-copy branch; cuts
  // must still agree.
  t.sort(mode_order_for(0, 3));
  const TensorPartition exact2 = partition_tensor(t, 0, 6);
  const TensorPartition fast2 =
      partition_tensor(t, 0, 6, TensorSketch::build(t).mode(0));
  EXPECT_EQ(fast2.slice_begins, exact2.slice_begins);
  EXPECT_EQ(shard_slice_histograms(fast2), shard_slice_histograms(exact2));
}

TEST(Sketch, ShardPricingDropsReduceTermWhenCutsProvablySnap) {
  AutoPolicyOptions opts;
  // Flat slices: max slice well under a quarter of any per-shard budget,
  // so every cut snaps to a slice boundary and the reduce term vanishes.
  const ShardPricing flat = price_shard_count(1u << 22, 4096, opts, 4);
  // Same size with one dominant slice: cuts may land mid-slice, so the
  // pricing must keep charging the K-way merge.
  const ShardPricing skewed =
      price_shard_count(1u << 22, 4096, opts, offset_t{1} << 21);
  if (flat.shards > 1) {
    EXPECT_DOUBLE_EQ(flat.reduce_cost, 0.0);
  }
  if (skewed.shards > 1) {
    EXPECT_GT(skewed.reduce_cost, 0.0);
  }
  // Cheaper overhead can only widen the economic range: the skew-free
  // pricing never recommends FEWER shards.
  EXPECT_GE(flat.shards, skewed.shards);
}

TEST(Sketch, DeterministicAcrossBuilds) {
  // Replay safety: two builds over the same stream are identical, and
  // insertion order does not matter (the stream is a multiset).
  const SparseTensor t = zipf_tensor(10000, 53);
  const TensorSketch a = TensorSketch::build(t);
  const TensorSketch b = TensorSketch::build(t);
  expect_same_structure(a, b);

  SparseTensor reversed(t.dims());
  std::vector<index_t> coords(t.order());
  for (offset_t z = t.nnz(); z > 0; --z) {
    for (index_t m = 0; m < t.order(); ++m) coords[m] = t.coord(m, z - 1);
    reversed.push_back(coords, t.value(z - 1));
  }
  expect_same_structure(TensorSketch::build(reversed), a);
}


// --- Bulk ingest against a per-nonzero oracle --------------------------

/// The per-nonzero ModeSketch::add that bulk ingest replaced, kept here
/// verbatim as the oracle (the way linalg_test keeps the scalar Gram
/// loops): a hash-map slice histogram, an HLL register update with
/// std::ldexp, a branchy +/-1 AMS loop, and the exact fiber count from a
/// hash set of fiber hashes.  Its seeds are the sketch's fixed ones.
class OracleModeSketch {
 public:
  OracleModeSketch(index_t mode, index_t order) : mode_(mode) {
    const ModeOrder mode_order = mode_order_for(mode, order);
    fiber_modes_.assign(mode_order.begin(), mode_order.end() - 1);
  }

  void add(std::span<const index_t> coords) {
    const index_t slice = coords[mode_];
    if (nnz == 0) {
      min_slice = max_slice = slice;
    } else {
      min_slice = std::min(min_slice, slice);
      max_slice = std::max(max_slice, slice);
    }
    offset_t& c = hist[slice];
    sum_sq += 2 * static_cast<std::uint64_t>(c) + 1;
    if (c == 0) {
      ++singletons;
    } else if (c == 1) {
      --singletons;
    }
    ++c;
    if (c > max_slice_nnz) max_slice_nnz = c;
    ++nnz;

    std::uint64_t h = kFiberSeed ^ mode_;
    for (index_t m : fiber_modes_) h = sketch_mix64(h ^ coords[m]);
    fibers.insert(h);
    const std::size_t idx = static_cast<std::size_t>(h >> 52);
    const std::uint64_t w = (h << 12) | 1ULL;
    const std::uint8_t rho = static_cast<std::uint8_t>(std::countl_zero(w) + 1);
    std::uint8_t& reg = regs[idx];
    if (rho > reg) {
      inv_sum += std::ldexp(1.0, -static_cast<int>(rho)) -
                 std::ldexp(1.0, -static_cast<int>(reg));
      if (reg == 0) --zero_regs;
      reg = rho;
    }
    const std::uint64_t bits = sketch_mix64(h ^ kAmsSeed);
    for (std::size_t i = 0; i < ams.size(); ++i) {
      ams[i] += ((bits >> i) & 1U) ? 1 : -1;
    }
  }

  std::vector<SliceMass> slice_cdf() const {
    std::vector<SliceMass> cdf;
    for (const auto& [slice, count] : hist) cdf.push_back({slice, count});
    std::sort(cdf.begin(), cdf.end(), [](const SliceMass& a, const SliceMass& b) {
      return a.slice < b.slice;
    });
    return cdf;
  }

  static constexpr std::uint64_t kFiberSeed = 0x9ae16a3b2f90404fULL;
  static constexpr std::uint64_t kAmsSeed = 0x517cc1b727220a95ULL;

  std::unordered_map<index_t, offset_t> hist;
  offset_t nnz = 0;
  offset_t singletons = 0;
  offset_t max_slice_nnz = 0;
  std::uint64_t sum_sq = 0;
  index_t min_slice = 0;
  index_t max_slice = 0;
  std::vector<std::uint8_t> regs = std::vector<std::uint8_t>(4096, 0);
  double inv_sum = 4096.0;
  std::uint32_t zero_regs = 4096;
  std::vector<std::int64_t> ams = std::vector<std::int64_t>(32, 0);
  std::unordered_set<std::uint64_t> fibers;  // distinct fiber hashes

 private:
  index_t mode_;
  std::vector<index_t> fiber_modes_;
};

/// The oracle fed every stored entry of `t`, in storage order.
std::vector<OracleModeSketch> oracle_of(const SparseTensor& t) {
  std::vector<OracleModeSketch> oracle;
  for (index_t m = 0; m < t.order(); ++m) oracle.emplace_back(m, t.order());
  std::vector<index_t> coords(t.order());
  for (offset_t z = 0; z < t.nnz(); ++z) {
    for (index_t m = 0; m < t.order(); ++m) coords[m] = t.coord(m, z);
    for (OracleModeSketch& o : oracle) o.add(coords);
  }
  return oracle;
}

/// Every field of `s` against the oracle.  `exact` is the exact-fiber
/// flag `s` must carry; when set, its count must be the oracle's.
void expect_matches_oracle(const ModeSketch& s, const OracleModeSketch& o,
                           bool exact) {
  EXPECT_EQ(s.nnz(), o.nnz);
  EXPECT_EQ(s.num_slices(), static_cast<offset_t>(o.hist.size()));
  EXPECT_EQ(s.singleton_slices(), o.singletons);
  EXPECT_EQ(s.max_slice_nnz(), o.max_slice_nnz);
  EXPECT_EQ(s.sum_sq_slice_nnz(), o.sum_sq);
  if (o.nnz > 0) {
    EXPECT_EQ(s.slices().min_slice(), o.min_slice);
    EXPECT_EQ(s.slices().max_slice(), o.max_slice);
  }
  EXPECT_TRUE(std::ranges::equal(s.hll_registers(), o.regs));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.hll_register_sum()),
            std::bit_cast<std::uint64_t>(o.inv_sum));
  EXPECT_EQ(s.hll_zero_registers(), o.zero_regs);
  EXPECT_TRUE(std::ranges::equal(s.ams_counters(), o.ams));
  EXPECT_EQ(s.fibers_exact(), exact);
  if (exact) {
    EXPECT_EQ(s.exact_fibers(), static_cast<offset_t>(o.fibers.size()));
  }
  const std::vector<SliceMass> got = s.slice_cdf();
  const std::vector<SliceMass> want = o.slice_cdf();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].slice, want[i].slice);
    EXPECT_EQ(got[i].nnz, want[i].nnz);
  }
}

void expect_matches_oracle(const TensorSketch& s,
                           const std::vector<OracleModeSketch>& oracle,
                           bool exact) {
  ASSERT_EQ(s.order(), oracle.size());
  for (index_t m = 0; m < s.order(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    expect_matches_oracle(s.mode(m), oracle[m], exact);
  }
}

/// The nonzeros of `t` in [begin, end) of storage order.
SparseTensor range_of(const SparseTensor& t, offset_t begin, offset_t end) {
  SparseTensor out(t.dims());
  std::vector<index_t> coords(t.order());
  for (offset_t z = begin; z < end; ++z) {
    for (index_t m = 0; m < t.order(); ++m) coords[m] = t.coord(m, z);
    out.push_back(coords, t.value(z));
  }
  return out;
}

/// `t` followed by a copy of its first `n` entries (stored duplicates).
SparseTensor with_duplicates(const SparseTensor& t, offset_t n) {
  SparseTensor out = range_of(t, 0, t.nnz());
  std::vector<index_t> coords(t.order());
  for (offset_t z = 0; z < n; ++z) {
    for (index_t m = 0; m < t.order(); ++m) coords[m] = t.coord(m, z);
    out.push_back(coords, t.value(z));
  }
  return out;
}

/// Every ingest entry point -- TensorSketch::build, add_tensor, add,
/// DynamicSparseTensor::apply -- and a merge of two halves all reproduce
/// the per-nonzero oracle's state.
void expect_bulk_matches_oracle(const SparseTensor& t) {
  const std::vector<OracleModeSketch> oracle = oracle_of(t);
  {
    SCOPED_TRACE("build");
    expect_matches_oracle(TensorSketch::build(t), oracle, /*exact=*/true);
  }
  {
    SCOPED_TRACE("add");
    expect_matches_oracle(streamed_sketch(t), oracle, /*exact=*/false);
  }
  {
    SCOPED_TRACE("add_tensor");
    TensorSketch streamed(t.dims());
    streamed.add_tensor(t);
    expect_matches_oracle(streamed, oracle, /*exact=*/false);
  }
  {
    SCOPED_TRACE("apply");
    DynamicSparseTensor dyn(share_tensor(SparseTensor(t.dims())));
    dyn.apply(range_of(t, 0, t.nnz()));
    expect_matches_oracle(dyn.sketch(), oracle, /*exact=*/false);
  }
  {
    SCOPED_TRACE("merge of halves");
    const TensorSketch first = TensorSketch::build(range_of(t, 0, t.nnz() / 2));
    const TensorSketch second =
        TensorSketch::build(range_of(t, t.nnz() / 2, t.nnz()));
    TensorSketch merged = first;
    merged.merge(second);
    // The exact count survives only where the halves' slice ranges
    // ascend (storage-order halves usually interleave them).
    for (index_t m = 0; m < t.order(); ++m) {
      SCOPED_TRACE("mode " + std::to_string(m));
      const bool ascending = first.mode(m).slices().max_slice() <
                             second.mode(m).slices().min_slice();
      expect_matches_oracle(merged.mode(m), oracle[m], ascending);
    }
  }
}

/// Product of the fiber modes' extents for mode `mode` of `dims`.
double fiber_key_space(const std::vector<index_t>& dims, index_t mode) {
  const ModeOrder order = mode_order_for(mode, static_cast<index_t>(dims.size()));
  double keys = 1.0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) keys *= dims[order[i]];
  return keys;
}

TEST(SketchIngest, MatchesOracleOnFig4) {
  expect_bulk_matches_oracle(fig4_tensor());
}

TEST(SketchIngest, MatchesOracleWithDuplicatesAndEmptySlices) {
  // The appended copies are stored duplicates, which every field counts
  // once per stored entry.  Zipf slices are skewed; the sparse uniform
  // tensor leaves most slices of every mode empty.
  expect_bulk_matches_oracle(with_duplicates(zipf_tensor(12000, 61), 900));
  const SparseTensor sparse =
      with_duplicates(generate_uniform({900, 700, 500}, 400, 63), 60);
  expect_bulk_matches_oracle(sparse);
  const TensorSketch sketch = TensorSketch::build(sparse);
  for (index_t m = 0; m < sparse.order(); ++m) {
    EXPECT_LT(sketch.mode(m).num_slices(), sparse.dim(m)) << "mode " << m;
  }
}

TEST(SketchIngest, MatchesOracleOnTwoAndFourModes) {
  expect_bulk_matches_oracle(
      with_duplicates(generate_uniform({30, 24, 18, 12}, 6000, 67), 300));
  // Order 2: a fiber is its root coordinate alone.
  expect_bulk_matches_oracle(
      with_duplicates(generate_uniform({300, 200}, 5000, 68), 200));
}

TEST(SketchIngest, MatchesOracleAboveTheDenseSliceCap) {
  // Mode 0's extent is past the dense cap, so its histogram is hashed;
  // modes 1 and 2 stay dense.
  const std::vector<index_t> dims{SliceHistogram::kDenseSliceCap + 4321, 40,
                                  30};
  ASSERT_GT(dims[0], SliceHistogram::kDenseSliceCap);
  ASSERT_LE(dims[1], SliceHistogram::kDenseSliceCap);
  expect_bulk_matches_oracle(
      with_duplicates(generate_uniform(dims, 9000, 71), 500));
}

TEST(SketchIngest, MatchesOracleOnBothSidesOfTheFiberBitmapCap) {
  // nnz = 4000 puts the bitmap cap at 256000 keys: modes 0 and 1 (fiber
  // keys over modes {0, 1}: 1.2M) count exact fibers with the hash set,
  // mode 2 (keys over {2, 0}: 20000) with the bitmap.
  const std::vector<index_t> dims{4000, 300, 5};
  const SparseTensor t = generate_uniform(dims, 4000, 73);
  const double cap = static_cast<double>(ModeSketch::kFiberBitmapKeysPerNnz) *
                     static_cast<double>(t.nnz());
  EXPECT_GT(fiber_key_space(dims, 0), cap);
  EXPECT_GT(fiber_key_space(dims, 1), cap);
  EXPECT_LE(fiber_key_space(dims, 2), cap);
  expect_bulk_matches_oracle(t);
  // Small key spaces (every mode on the bitmap) with heavy fiber reuse.
  const std::vector<index_t> small{12, 10, 900};
  EXPECT_LE(fiber_key_space(small, 0), 64.0 * 3000);
  expect_bulk_matches_oracle(generate_uniform(small, 3000, 79));
}

TEST(SketchIngest, SliceHistogramMergeMatchesOneColumnPass) {
  // Dense and hashed histograms, merged from overlapping halves, equal
  // one pass over the whole column.
  for (const index_t extent : {index_t{500}, SliceHistogram::kDenseSliceCap + 1}) {
    const SparseTensor t = generate_uniform({extent, 20, 10}, 5000, 83);
    const std::span<const index_t> column = t.mode_indices(0);
    SliceHistogram whole(extent);
    whole.add_column(column);
    SliceHistogram left(extent);
    left.add_column(column.first(3000));
    SliceHistogram right(extent);
    for (const index_t s : column.subspan(3000)) right.add(s);
    left.merge(right);
    EXPECT_EQ(left.nnz(), whole.nnz());
    EXPECT_EQ(left.num_slices(), whole.num_slices());
    EXPECT_EQ(left.singleton_slices(), whole.singleton_slices());
    EXPECT_EQ(left.max_slice_nnz(), whole.max_slice_nnz());
    EXPECT_EQ(left.sum_sq_slice_nnz(), whole.sum_sq_slice_nnz());
    EXPECT_EQ(left.min_slice(), whole.min_slice());
    EXPECT_EQ(left.max_slice(), whole.max_slice());
    const std::vector<SliceMass> a = left.slice_cdf();
    const std::vector<SliceMass> b = whole.slice_cdf();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].slice, b[i].slice);
      EXPECT_EQ(a[i].nnz, b[i].nnz);
    }
  }
}

TEST(SketchIngest, RejectsSlicesOutsideTheExtent) {
  SliceHistogram dense(100);
  const std::vector<index_t> column{3, 100};
  EXPECT_THROW(dense.add_column(column), Error);
  EXPECT_THROW(dense.add(100), Error);
  EXPECT_EQ(dense.nnz(), 0u);
}

}  // namespace
}  // namespace bcsf
