// Per-mode structural statistics: the quantities that drive every load
// balance argument in the paper -- number of slices S, number of fibers F,
// and the distribution (mean/stddev/max) of nonzeros per slice and per
// fiber (Table II columns "stdev #nnz per slc" / "stdev #nnz per fbr").
#pragma once

#include <span>
#include <string>
#include <vector>

#include "tensor/sparse_tensor.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace bcsf {

/// Structure of one mode-orientation of a tensor: the (slice, fiber)
/// hierarchy obtained by sorting with `mode_order_for(mode, order)`.
/// A *slice* groups nonzeros sharing the root-mode index; a *fiber* groups
/// nonzeros sharing all indices except the leaf mode (§II-A).
struct ModeStats {
  index_t mode = 0;
  offset_t nnz = 0;
  offset_t num_slices = 0;  ///< S: non-empty slices
  offset_t num_fibers = 0;  ///< F: non-empty fibers

  SampleStats nnz_per_slice;
  SampleStats nnz_per_fiber;
  SampleStats fibers_per_slice;

  /// Fraction of slices containing exactly one nonzero (HB-CSF's COO group
  /// candidates, §V).
  double singleton_slice_fraction = 0.0;
  /// Fraction of slices whose fibers are all singletons (CSL candidates).
  double csl_slice_fraction = 0.0;

  std::string to_string() const;
};

/// Computes ModeStats for one mode.  The input does not need to be sorted;
/// a sort permutation is scanned, the nonzeros are not copied.
ModeStats compute_mode_stats(const SparseTensor& tensor, index_t mode);

/// The same stats from `perm`, a permutation that sorts the nonzeros by
/// mode_order_for(mode, order) (SparseTensor::sort_permutation), so a
/// caller that needs that permutation anyway sorts once.
ModeStats compute_mode_stats(const SparseTensor& tensor, index_t mode,
                             std::span<const offset_t> perm);

/// Computes ModeStats for every mode.  One shared index buffer is sorted
/// per mode; the nonzero arrays are never copied.
std::vector<ModeStats> compute_all_mode_stats(const SparseTensor& tensor);

/// Process-wide count of O(nnz) exact-stats scans (every
/// compute_mode_stats / compute_all_mode_stats sort+scan).  The serving
/// layer's sketch-backed planning must leave this flat after warm-up;
/// tests assert on deltas of this counter (DESIGN.md §12).
std::uint64_t exact_stat_scan_count();

/// Raw per-slice and per-fiber nonzero counts for a *sorted* tensor
/// (sorted by mode_order_for(mode, order)); used by the format builders so
/// they do not recompute the scan.
struct SliceFiberCounts {
  index_vec slice_index;            ///< root index of each non-empty slice
  offset_vec slice_nnz;             ///< nonzeros per non-empty slice
  offset_vec slice_fiber_begin;     ///< fiber range start per slice
  index_vec fiber_leaf_parent;      ///< (unused for order 3) reserved
  offset_vec fiber_nnz;             ///< nonzeros per non-empty fiber
};

SliceFiberCounts count_slices_and_fibers(const SparseTensor& sorted,
                                         const ModeOrder& order);

/// The same counts for the nonzeros perm[0], perm[1], ... of `tensor`, a
/// sequence sorted by `order` (e.g. SparseTensor::sort_permutation), so
/// the nonzero arrays need not be copied into sorted order first.
SliceFiberCounts count_slices_and_fibers(const SparseTensor& tensor,
                                         const ModeOrder& order,
                                         std::span<const offset_t> perm);

}  // namespace bcsf
