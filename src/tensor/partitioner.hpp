// Mode-aware nnz-balanced tensor partitioning (DESIGN.md §8).
//
// The paper's load-balance insight -- split heavy fibers/slices into
// bounded blocks so no execution unit drowns (§IV) -- applied one level
// up: split one TENSOR into K shards of near-equal nonzero count, so no
// single plan build, kernel run, or compaction unit drowns either.  A
// shard is a contiguous range of root-mode slices; a slice heavier than
// the per-shard budget is split across shards at nonzero granularity,
// exactly the slc-split move of B-CSF at tensor granularity.
//
// Every operation the plan layer serves (MTTKRP, TTV, FIT) is linear in
// the tensor values, and the shards partition the nonzeros, so
//
//     op(tensor) = sum over shards of op(shard)
//
// holds exactly (in exact arithmetic; the consumers reduce partials in
// double).  Shards keep the FULL tensor dims -- a shard is the same
// tensor with most slices empty -- so factor matrices, outputs, and every
// existing kernel work unchanged per shard.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/sketch.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

/// Routing core shared by TensorPartition::shard_for_slice and the
/// serving layer's per-shard state (ONE implementation, so delta
/// routing can never drift from shard ownership): index of the LAST
/// entry of the ascending `shard_slice_begins` table that is <= `slice`,
/// 0 when the slice precedes every entry.  O(log K).
std::size_t route_slice(std::span<const index_t> shard_slice_begins,
                        index_t slice);

/// Splits an additive update batch into one COO batch per shard by
/// routing each nonzero's `mode` coordinate through route_slice.
/// result[s] may be empty for shards the batch does not touch.
std::vector<SparseTensor> split_updates(
    const std::vector<index_t>& dims, index_t mode,
    std::span<const index_t> shard_slice_begins, const SparseTensor& updates);

/// One shard: a frozen sub-tensor holding the nonzeros of a contiguous
/// root-mode slice range.  When a heavy slice was split, the boundary
/// slice's index appears in TWO consecutive shards' [slice_begin,
/// slice_end) ranges; routing (shard_for_slice) stays deterministic.
struct TensorShard {
  index_t slice_begin = 0;  ///< first root-mode slice index covered
  index_t slice_end = 0;    ///< one past the last covered (exclusive)
  TensorPtr tensor;         ///< full-dims sub-tensor (never null/empty)

  offset_t nnz() const { return tensor ? tensor->nnz() : 0; }
};

/// An nnz-balanced partition of one tensor along one mode.  Immutable
/// after construction; cheap to copy through the shared_ptr alias below.
struct TensorPartition {
  index_t mode = 0;            ///< root mode the slice ranges refer to
  std::vector<index_t> dims;   ///< dims of the source tensor (== each shard's)
  offset_t total_nnz = 0;      ///< sum over shards
  std::vector<TensorShard> shards;  ///< >= 1, each non-empty
  /// shards[s].slice_begin, ascending -- the route_slice table.
  index_vec slice_begins;

  std::size_t size() const { return shards.size(); }

  /// Shard that owns root-mode slice `slice` for ROUTING purposes: new
  /// nonzeros (delta chunks) with this root coordinate belong here.  For
  /// a split slice this is the LAST shard covering it; slices outside
  /// every range (empty in the source tensor) route to the nearest shard.
  /// Deterministic, total, O(log K).
  std::size_t shard_for_slice(index_t slice) const;

  /// Splits an additive update batch (same dims) into one COO batch per
  /// shard by routing each nonzero through shard_for_slice on its
  /// root-mode coordinate.  result[s] may be empty for shards the batch
  /// does not touch.  Linearity makes applying result[s] to shard s
  /// equivalent to applying `updates` to the whole tensor.
  std::vector<SparseTensor> split(const SparseTensor& updates) const;

  /// True when no root-mode slice is covered by two shards -- i.e. the
  /// partitioner never had to split a heavy slice, so every shard's
  /// [slice_begin, slice_end) range is pairwise disjoint.  This is the
  /// precondition of the disjoint-output execution path (DESIGN.md §8):
  /// for an op whose output mode IS the partition mode, each output row
  /// is then produced by exactly one shard and partials need no merge.
  bool disjoint_slice_ranges() const;

  /// Output-row ownership table for the disjoint-output path: K+1
  /// ascending entries with owned[0] == 0 and owned[K] == dims[mode];
  /// shard s owns output rows [owned[s], owned[s+1]).  Ownership extends
  /// each shard's slice range over rows that are empty in the source --
  /// exactly shard_for_slice's routing rule -- so the ranges tile
  /// [0, dims[mode]) and every delta nonzero routed to a shard lands
  /// inside that shard's owned rows.  Meaningful only when
  /// disjoint_slice_ranges() holds.
  index_vec owned_row_begins() const;

  /// Largest / smallest shard nonzero count (balance diagnostics).
  offset_t max_shard_nnz() const;
  offset_t min_shard_nnz() const;

  std::string to_string() const;  ///< e.g. "4 shards along mode 0, nnz 250/250/251/249"
};

using PartitionPtr = std::shared_ptr<const TensorPartition>;

/// Partitions `tensor` into (up to) `shards` nnz-balanced shards along
/// `mode`.  Cut points target equal nonzeros per shard; each cut snaps to
/// the nearest slice boundary when one lies within a quarter-budget, and
/// otherwise splits the slice mid-stream (heavy-slice splitting).  The
/// shard count is clamped to [1, nnz] so every shard is non-empty.
/// Throws bcsf::Error for an empty tensor or an out-of-range mode.
TensorPartition partition_tensor(const SparseTensor& tensor, index_t mode,
                                 unsigned shards);

/// Histogram-backed partitioning (DESIGN.md §12): places the same cuts
/// as the overload above -- the slice-mass CDF of `slices` (which is
/// exact) reproduces the slice boundary offsets of the sorted stream, and
/// the identical snap-or-split rule runs against them -- but never sorts
/// the nonzeros: shards are materialized by one bucketing pass in input
/// order.  O(nnz + S log S) instead of O(nnz log nnz), no scratch copy.
/// `slices` must count exactly `tensor`'s mode-`mode` coordinates.
TensorPartition partition_tensor(const SparseTensor& tensor, index_t mode,
                                 unsigned shards, const SliceHistogram& slices);
/// The same, from a mode-`mode` sketch of `tensor`.
TensorPartition partition_tensor(const SparseTensor& tensor, index_t mode,
                                 unsigned shards, const ModeSketch& sketch);

/// Shared-ownership convenience used by the plan and serving layers.
PartitionPtr share_partition(TensorPartition&& partition);

}  // namespace bcsf
