// DynamicSparseTensor: a growing tensor behind immutable versioned
// snapshots (DESIGN.md §6).
//
// The paper's structured formats (B-CSF / HB-CSF) assume a frozen tensor:
// the sort-dominated build is paid once and amortized over many MTTKRP
// calls.  Live tensors (user-item-time interactions) grow continuously,
// and rebuilding a structured format per insert would destroy exactly
// that economics.  This class splits the tensor into
//
//   * an immutable BASE snapshot -- the thing structured plans are built
//     from, shared by `TensorPtr` so retained plans never dangle -- and
//   * an append-only DELTA of frozen COO chunks, one per apply() batch.
//
// MTTKRP is linear in the tensor values, so a query over the full tensor
// decomposes as  result(base) + result(delta)  with no coordination
// between the two: the base contribution comes from a prebuilt plan, the
// delta contribution from a cheap COO sweep (kernels/mttkrp.hpp's
// mttkrp_delta_accumulate).  Once the delta grows past a threshold, a
// compaction merges base + delta into a new base (replace_base) and
// structured plans are rebuilt once -- restoring build-once/run-many.
//
// Thread-safety: all methods may be called from any thread.  snapshot()
// is O(#chunks) -- it copies shared_ptrs, never nonzeros -- so readers
// can take a snapshot per query.  A snapshot is immutable: later applies
// or compactions never mutate the chunks it references.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/sketch.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace bcsf {

/// O(1) scalar view of a DynamicSparseTensor's sketches, split by the
/// base/delta boundary so the approximate-norm error bound can be stated
/// (DESIGN.md §12): the stored-entry norm misses the 2<base,delta> cross
/// term of the coalesced tensor, bounded by Cauchy-Schwarz.
struct SketchScalars {
  offset_t nnz = 0;              ///< stored entries (base + delta chunks)
  double base_norm_sq = 0.0;     ///< sum of squared base values
  double delta_norm_sq = 0.0;    ///< sum of squared delta values

  double norm_sq() const { return base_norm_sq + delta_norm_sq; }
  /// |true coalesced norm_sq - norm_sq()| <= this; 0 right after a
  /// compaction (empty delta).
  double norm_sq_error_bound() const {
    return 2.0 * std::sqrt(base_norm_sq * delta_norm_sq);
  }
};

/// Heap bytes one delta nonzero occupies across the per-mode index
/// arrays and the value array -- the currency of the serving layer's
/// storage-budget accounting for un-compacted delta chunks
/// (DESIGN.md §10).
inline std::size_t delta_bytes_per_nnz(index_t order) {
  return static_cast<std::size_t>(order) * sizeof(index_t) + sizeof(value_t);
}

/// One immutable view of a DynamicSparseTensor: the base plus every delta
/// chunk appended since the base was installed.  Copies are cheap (vector
/// of shared_ptr); the referenced tensors are frozen forever.
struct TensorSnapshot {
  /// Monotonically increasing; bumped by every apply() and replace_base().
  std::uint64_t version = 0;
  /// Version at which `base` was installed (0 for the construction base).
  /// Two snapshots with equal base_version share the identical base
  /// object, so plans built from one serve the other.
  std::uint64_t base_version = 0;
  TensorPtr base;
  /// Frozen COO update batches in apply() order.  Duplicate coordinates
  /// (across chunks or against the base) are additive -- MTTKRP and norm
  /// computations are linear, so no merging is needed to answer queries.
  std::vector<TensorPtr> deltas;
  offset_t delta_nnz = 0;

  offset_t nnz() const { return base->nnz() + delta_nnz; }
  /// Heap bytes held by the delta chunks this snapshot references --
  /// what a compaction reclaims when it absorbs them into the base.
  std::size_t delta_storage_bytes() const {
    return static_cast<std::size_t>(delta_nnz) *
           delta_bytes_per_nnz(base->order());
  }
  /// Fraction of stored nonzeros living in the delta -- the compaction
  /// trigger signal: structured plans cover only base->nnz() of the
  /// tensor, so per-query COO work grows with this fraction.
  double delta_fraction() const;
  /// Materializes base + deltas as one COO tensor.  With `coalesce` the
  /// result is sorted and duplicate coordinates are summed (what a
  /// compaction installs as the new base); without it the nonzeros are
  /// simply concatenated in append order.
  SparseTensor merged(bool coalesce = false) const;
};

class DynamicSparseTensor {
 public:
  /// Wraps `base` as version 0.  The base is immutable from here on.
  /// Builds the base's structural sketch with one O(nnz) pass; callers
  /// that already hold a sketch of `base` (e.g. the sharded registration
  /// path, which sketches the whole tensor before splitting) use the
  /// second overload to skip it.
  explicit DynamicSparseTensor(TensorPtr base);
  DynamicSparseTensor(TensorPtr base, TensorSketch base_sketch);

  const std::vector<index_t>& dims() const { return dims_; }
  index_t order() const { return static_cast<index_t>(dims_.size()); }

  /// Current version (== snapshot().version, cheaper).
  std::uint64_t version() const;
  /// Nonzeros currently in the delta (frozen chunks only).
  offset_t delta_nnz() const;
  /// Heap bytes currently held by delta chunks (see TensorSnapshot).
  std::size_t delta_storage_bytes() const {
    return static_cast<std::size_t>(delta_nnz()) * delta_bytes_per_nnz(order());
  }

  /// O(#chunks) consistent view of the current state.
  TensorSnapshot snapshot() const;

  /// Merged structural sketch of everything currently stored (base +
  /// delta chunks), maintained incrementally: O(S + registers) to copy
  /// and fold, never O(nnz).  This is what every planning read consumes.
  TensorSketch sketch() const;

  /// Sketch of the CURRENT base snapshot only (delta excluded): the
  /// structure a plan built now would be built from, so it is what the
  /// upgrade policy reads.  O(S + registers) copy.
  TensorSketch base_sketch() const;

  /// O(1) scalar sketch view (nnz and the base/delta norm split).
  SketchScalars sketch_scalars() const;

  /// Appends one batch of additive updates: a COO tensor with the same
  /// dims whose values ADD to the coordinates they name (new coordinates
  /// insert, existing ones accumulate; a batch may itself contain
  /// duplicates).  The batch is validated, frozen, and visible to every
  /// snapshot taken after return.  Empty batches are a no-op returning
  /// the current version.  Returns the new version.
  std::uint64_t apply(SparseTensor updates);

  /// Installs `new_base`, which must incorporate exactly the old base
  /// plus every delta chunk with version <= `upto_version` (i.e. the
  /// merged() of a snapshot taken at `upto_version`).  Chunks applied
  /// after that snapshot are retained on top of the new base.  Returns
  /// the new version.  This is the compaction commit point; the caller
  /// (e.g. TensorOpService) does the merge off-line and swaps here.
  ///
  /// The first overload rebuilds the base sketch inline -- an O(nnz) pass
  /// under the lock, fine for offline callers.  The serving path uses the
  /// second overload with a sketch of `new_base` computed off the
  /// critical section, keeping the commit O(retained chunks).
  std::uint64_t replace_base(TensorPtr new_base, std::uint64_t upto_version);
  std::uint64_t replace_base(TensorPtr new_base, std::uint64_t upto_version,
                             TensorSketch new_base_sketch);

 private:
  mutable Mutex mutex_;
  std::vector<index_t> dims_;  // immutable after construction
  TensorPtr base_ BCSF_GUARDED_BY(mutex_);
  std::vector<TensorPtr> deltas_ BCSF_GUARDED_BY(mutex_);
  /// Version stamped per chunk, parallel to deltas_.
  std::vector<std::uint64_t> delta_versions_ BCSF_GUARDED_BY(mutex_);
  offset_t delta_nnz_ BCSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t version_ BCSF_GUARDED_BY(mutex_) = 0;
  std::uint64_t base_version_ BCSF_GUARDED_BY(mutex_) = 0;
  /// Structural sketches, split at the base/delta boundary so a
  /// compaction can swap in a fresh base sketch and rebuild only the
  /// (small) retained-delta side (DESIGN.md §12).
  TensorSketch base_sketch_ BCSF_GUARDED_BY(mutex_);
  TensorSketch delta_sketch_ BCSF_GUARDED_BY(mutex_);
};

}  // namespace bcsf
