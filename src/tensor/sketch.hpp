// Streaming per-mode structural sketches (DESIGN.md §12).
//
// Every planning decision in the stack -- §V format selection, the Fig-10
// break-even gate, shard pricing, partition cut placement -- is a function
// of per-mode structure: the nnz-per-slice distribution, the fiber count,
// and the slice-mass CDF.  `compute_mode_stats` derives those by sorting a
// copy of the tensor and scanning it, per mode, per call; this file keeps
// the same quantities *incrementally*, so a policy read after warm-up does
// no O(nnz) work at all.
//
// Three primitives per mode orientation:
//  1. Slice-occupancy histogram (SliceHistogram): an exact counter per
//     root index -- a dense array when the mode's extent is at most
//     kDenseSliceCap, a hash map above it -- plus running scalars (nnz,
//     singleton slices, sum of squared slice counts, max slice).  Also the
//     source of the slice-mass CDF the partitioner cuts against.
//  2. Fiber count-distinct: a HyperLogLog over hashed fiber keys (all
//     coordinates except the leaf mode).  Running register-sum state makes
//     the estimate O(1) to read.  One-shot whole-tensor builds additionally
//     record the EXACT fiber count (the builder can afford a transient
//     bitmap or hash set; the sketch itself stays sublinear), and that
//     exact count survives merges whose slice ranges are strictly
//     ascending -- the shard path -- because every fiber key contains its
//     root index.  Incremental adds and overlapping merges lapse to the
//     HLL estimate.
//  3. Fiber second moment: an AMS-style +/-1 projection with integer
//     counters, giving stddev(nnz/fiber) for the imbalance diagnostic.
//
// Bulk ingest (ModeSketch::build / add_tensor, TensorSketch::build /
// add_tensor) walks the tensor's coordinate columns once per mode and
// leaves exactly the state per-nonzero add() calls in storage order would:
// every field, including the bits of the HLL register sum, which is
// accumulated in the same order.
//
// Determinism contract: all hashing uses fixed compile-time seeds and the
// splitmix64 finalizer -- never std::random_device, rand() or time().
// Sketch state is therefore a pure function of the multiset of inserted
// (coords, value) pairs, which is what makes record/replay byte-identical
// and shard merges associative.  Every structural field is integer-valued,
// so merges are bitwise-exact in any association; only the value moments
// (norm_sq) are floating point, and those are exact on power-of-two-grid
// inputs (the repo's standard trick for order-independent FP checks).
//
// Thread safety: SliceHistogram/ModeSketch/TensorSketch are plain value
// types with no internal locking; DynamicSparseTensor guards its sketches
// with mutex_.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/sparse_tensor.hpp"
#include "tensor/tensor_stats.hpp"
#include "util/types.hpp"

namespace bcsf {

/// splitmix64 finalizer: the deterministic 64-bit mixer behind every
/// sketch hash.  Constants are fixed at compile time (replay safety).
constexpr std::uint64_t sketch_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Process-wide count of nonzeros ingested into sketches, once per mode:
/// every slice-histogram pass over n coordinates adds n, so a
/// TensorSketch::build or add_tensor over an order-N tensor adds N * nnz,
/// and the registration pre-pass over one partition mode adds nnz.  Tests
/// assert on deltas of this counter (DESIGN.md §12), in the style of
/// exact_stat_scan_count().
std::uint64_t sketch_ingest_count();

/// One (slice index, nonzero count) step of a mode's slice-mass CDF,
/// sorted by slice index.  Prefix sums over these are exactly the slice
/// boundary offsets of the sorted nonzero stream the exact partitioner
/// scans, which is why sketch-placed cuts reproduce its cut offsets.
struct SliceMass {
  index_t slice = 0;
  offset_t nnz = 0;
};

/// Exact nonzero count per slice of one mode, plus the running scalars
/// the policy reads.  Counts live in a dense array (8 bytes per slice of
/// the extent, allocated on the first nonzero) when the extent is at
/// most kDenseSliceCap, and in a hash map keyed by slice (one node per
/// non-empty slice) above it.  Both give identical results.
class SliceHistogram {
 public:
  /// Largest mode extent counted densely: 512 KiB of counts at most.
  static constexpr index_t kDenseSliceCap = index_t{1} << 16;

  SliceHistogram() = default;
  /// Histogram over slice indices in [0, extent).
  explicit SliceHistogram(index_t extent) : extent_(extent) {}

  /// Counts one nonzero in `slice`.
  void add(index_t slice);
  /// Counts one nonzero per entry of `slices`, in order (a tensor's
  /// coordinate column).  Same state as add() on each entry.
  void add_column(std::span<const index_t> slices);
  /// Folds another histogram over the same extent in: counts add, and
  /// the scalars become what adding its nonzeros one by one would give.
  void merge(const SliceHistogram& other);

  index_t extent() const { return extent_; }
  offset_t nnz() const { return nnz_; }
  /// S: non-empty slices.
  offset_t num_slices() const { return totals_.slices; }
  /// Slices with exactly one nonzero.
  offset_t singleton_slices() const { return totals_.singletons; }
  /// Largest slice's nonzero count (monotone under add/merge).
  offset_t max_slice_nnz() const { return totals_.max_slice; }
  /// Sum over slices of (nnz in slice)^2 (exact while nnz * max_slice
  /// fits in 64 bits).
  std::uint64_t sum_sq_slice_nnz() const { return totals_.sum_sq; }
  /// Smallest and largest slice seen (meaningful when nnz() > 0).
  index_t min_slice() const { return min_slice_; }
  index_t max_slice() const { return max_slice_; }

  /// Per non-empty slice, its nonzero count, sorted by slice index.
  /// O(extent) when dense, O(S log S) when hashed.
  std::vector<SliceMass> slice_cdf() const;

 private:
  /// The running scalars, kept together so a bulk pass can hold them in
  /// registers rather than re-reading them past every count it stores.
  struct Totals {
    offset_t slices = 0;
    offset_t singletons = 0;
    offset_t max_slice = 0;
    std::uint64_t sum_sq = 0;

    /// One more nonzero in a slice that held `before`.
    void count(offset_t before) {
      sum_sq += 2 * static_cast<std::uint64_t>(before) + 1;
      slices += before == 0;
      singletons += before == 0;
      singletons -= before == 1;
      max_slice = std::max(max_slice, before + 1);
    }
  };

  bool dense() const { return extent_ <= kDenseSliceCap; }
  /// Allocates the dense counts on first use (a no-op when hashed).
  void reserve_dense();
  /// Widens [min_slice_, max_slice_] to [lo, hi] (the first nonzeros set it).
  void cover(index_t lo, index_t hi);

  index_t extent_ = 0;
  std::vector<offset_t> dense_;  // extent_ counts once allocated
  std::unordered_map<index_t, offset_t> hashed_;
  offset_t nnz_ = 0;
  Totals totals_;
  index_t min_slice_ = 0;
  index_t max_slice_ = 0;
};

/// Streaming structural sketch of one mode orientation.
class ModeSketch {
 public:
  /// HyperLogLog precision: 2^12 = 4096 registers, standard error
  /// 1.04/sqrt(4096) ~ 1.6% on the fiber count.
  static constexpr unsigned kHllPrecision = 12;
  static constexpr std::size_t kHllRegisters = std::size_t{1} << kHllPrecision;
  /// AMS projection width for the fiber second moment; the relative error
  /// of the F2 estimate is ~sqrt(2/32) ~ 25% (diagnostic-grade only).
  static constexpr std::size_t kAmsCounters = 32;
  /// The exact fiber count uses a bitmap over the fiber key space (the
  /// product of the fiber modes' extents) when that space has at most
  /// this many keys per nonzero -- so the bitmap is never larger than the
  /// bucket array of a hash set reserved for the nonzeros -- and a hash
  /// set of 64-bit fiber hashes otherwise.
  static constexpr std::uint64_t kFiberBitmapKeysPerNnz = 64;

  ModeSketch() = default;
  /// Empty sketch for mode `mode` of a tensor with extents `dims`.
  ModeSketch(index_t mode, std::span<const index_t> dims);

  /// One-shot sketch of every stored entry of `tensor` that also records
  /// the exact distinct-fiber count.
  static ModeSketch build(index_t mode, const SparseTensor& tensor);

  /// Accounts one nonzero; `coords` holds all `order` coordinates.
  /// Lapses the exact fiber count (a lone add cannot know whether it
  /// started a new fiber).
  void add(std::span<const index_t> coords);
  /// add() for every stored entry of `tensor`, in storage order: the same
  /// state, from branch-light loops over its coordinate columns.
  void add_tensor(const SparseTensor& tensor);
  /// Folds another sketch of the same mode in.  All integer state merges
  /// exactly (counter sums, register max), in any association.  Exact
  /// fiber counts add through the merge iff both sides are exact and
  /// this sketch's slice range sits strictly below the other's (disjoint
  /// root ranges imply disjoint fibers); any other shape lapses to HLL.
  /// The ascending-range rule makes exactness association-independent:
  /// a merge sequence stays exact iff every adjacent non-empty pair is
  /// ascending, however the merges are grouped.
  void merge(const ModeSketch& other);

  index_t mode() const { return mode_; }
  /// The exact slice-occupancy histogram.
  const SliceHistogram& slices() const { return slices_; }
  offset_t nnz() const { return slices_.nnz(); }
  /// S: non-empty slices (exact).
  offset_t num_slices() const { return slices_.num_slices(); }
  /// Slices with exactly one nonzero (exact).
  offset_t singleton_slices() const { return slices_.singleton_slices(); }
  /// Largest slice's nonzero count (exact; monotone under add/merge).
  offset_t max_slice_nnz() const { return slices_.max_slice_nnz(); }
  /// Sum over slices of (nnz in slice)^2 (exact while nnz * max_slice
  /// fits in 64 bits).
  std::uint64_t sum_sq_slice_nnz() const { return slices_.sum_sq_slice_nnz(); }
  /// F: non-empty fibers.  Exact after a one-shot build (and across
  /// ascending slice-disjoint merges of exact sketches); otherwise a
  /// HyperLogLog estimate, ~1.6% standard error, clamped to the
  /// structural bounds [S, nnz].  O(1).
  offset_t estimate_fibers() const;
  /// True while estimate_fibers() returns the exact count (vacuously
  /// true for an empty sketch: zero fibers, exactly).
  bool fibers_exact() const { return fiber_exact_; }
  /// Estimated sum over fibers of (nnz in fiber)^2 (AMS, ~25% error).
  double estimate_fiber_sq_sum() const;

  /// Raw estimator state, for bitwise comparisons in tests.
  std::span<const std::uint8_t> hll_registers() const { return hll_regs_; }
  /// Running sum over registers of 2^-register.
  double hll_register_sum() const { return hll_inv_sum_; }
  std::uint32_t hll_zero_registers() const { return hll_zero_regs_; }
  std::span<const std::int64_t> ams_counters() const { return ams_; }
  /// The exact fiber count's running total (meaningful while
  /// fibers_exact()).
  offset_t exact_fibers() const { return exact_fibers_; }

  /// Approximate ModeStats with the same semantics as compute_mode_stats.
  /// Exact fields: nnz, num_slices, singleton_slice_fraction, and the
  /// count/sum/mean/stddev/max of nnz_per_slice.  Estimated fields:
  /// num_fibers, nnz_per_fiber (mean/stddev), fibers_per_slice mean, and
  /// csl_slice_fraction, which is the conservative lower bound
  ///   max(0, S - S1 - (nnz - F)) / S
  /// (every multi-nonzero fiber forces at least one excess nonzero, so
  /// CSF slices number at most nnz - F; the bound is tight when excess
  /// nonzeros concentrate in few slices and exact when all fibers are
  /// singletons AND F itself is exact -- which fibers_exact() guarantees
  /// on the policy path, where sketches come from one-shot base builds).
  /// Unmaintained distribution tails (min/p50/p99/gini) are left zero --
  /// no planning consumer reads them.
  ModeStats approx_mode_stats() const;

  /// The slice-mass CDF: per non-empty slice, its exact nonzero count,
  /// sorted by slice index; feeds partition cut placement.
  std::vector<SliceMass> slice_cdf() const { return slices_.slice_cdf(); }

  std::string to_string() const;

 private:
  /// The HLL and AMS updates for fiber hashes hash_of(0..n-1), in that
  /// order: the one implementation behind add() and add_tensor().
  template <typename HashOf>
  void observe_fibers(offset_t n, HashOf hash_of);
  /// Distinct fiber keys of `tensor` in this orientation.
  offset_t count_fibers(const SparseTensor& tensor) const;
  std::uint64_t fiber_hash(std::span<const index_t> coords) const;

  index_t mode_ = 0;
  /// Non-leaf modes of mode_order_for(mode, order), in orientation order:
  /// the coordinates that identify a fiber.
  std::vector<index_t> fiber_modes_;

  // --- slice occupancy (exact) ---
  SliceHistogram slices_;

  // --- fiber count-distinct (HyperLogLog) ---
  std::vector<std::uint8_t> hll_regs_;  // kHllRegisters once initialised
  double hll_inv_sum_ = 0.0;            // sum over registers of 2^-reg
  std::uint32_t hll_zero_regs_ = 0;

  // --- exact fiber count (one-shot builds, ascending merges) ---
  offset_t exact_fibers_ = 0;  // meaningful only while fiber_exact_
  bool fiber_exact_ = true;    // an empty sketch has exactly 0 fibers

  // --- fiber second moment (AMS, integer counters) ---
  std::vector<std::int64_t> ams_;  // kAmsCounters once initialised
};

/// Whole-tensor sketch: one ModeSketch per mode plus value moments.
/// Maintained by DynamicSparseTensor across apply/replace_base; shard
/// sketches merge into the whole-tensor sketch, so the serving layer
/// never rescans nonzeros to plan.
class TensorSketch {
 public:
  TensorSketch() = default;
  explicit TensorSketch(std::vector<index_t> dims);

  /// Builds a sketch of every stored entry of `tensor` (duplicates from
  /// uncoalesced deltas each count once, matching the stored-entry
  /// semantics of DynamicSparseTensor), with exact fiber counts.
  static TensorSketch build(const SparseTensor& tensor);

  void add(std::span<const index_t> coords, value_t value);
  /// add() for every stored entry of `tensor`, in storage order.
  void add_tensor(const SparseTensor& tensor);
  void merge(const TensorSketch& other);

  bool initialised() const { return !dims_.empty(); }
  index_t order() const { return static_cast<index_t>(dims_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }
  offset_t nnz() const { return nnz_; }
  /// Sum of squared stored values.  For a base + uncoalesced delta split
  /// B + D this misses the 2<base,delta> cross term of the coalesced
  /// norm; |cross| <= 2*sqrt(B*D) (Cauchy-Schwarz), the stated kStats
  /// error bound, which collapses to 0 right after compaction.
  double norm_sq() const { return norm_sq_; }

  const ModeSketch& mode(index_t m) const { return modes_.at(m); }
  ModeStats approx_mode_stats(index_t m) const {
    return modes_.at(m).approx_mode_stats();
  }
  std::vector<ModeStats> approx_all_mode_stats() const;

  std::string to_string() const;

 private:
  /// Sums the squared values of `tensor` into norm_sq_, in storage order.
  void add_norm(const SparseTensor& tensor);

  std::vector<index_t> dims_;
  std::vector<ModeSketch> modes_;
  offset_t nnz_ = 0;
  double norm_sq_ = 0.0;
};

}  // namespace bcsf
