// ShardCombine: K shard results -> one op result (DESIGN.md §8).
//
// The paper's thread blocks combine their output rows two ways: a row
// one block owns is written straight out, and a row that §IV-A's
// slc-split spread over several blocks is summed.  Sharded execution
// combines shard results the same way.  Every op is linear in the tensor
// values and the shards partition the nonzeros, so
//
//     op(tensor) = sum over shards of (op(shard base) + op(shard delta))
//
// exactly.  ShardedPlan and the serving layer both combine through this
// one component:
//
//   * WINDOW path: every output row has one owner -- always with one
//     shard, and on partition-mode matrix ops over an unsplit partition.
//     Shard s writes its owned rows [begin, end) into the shared output;
//     with a delta it promotes just those rows to double once, sweeps the
//     delta there and casts back once.  Nothing is reduced, and a lone
//     shard's output buffer becomes the result as-is.
//   * MERGE path: rows are shared (other modes, or a split slice).  Shard
//     s promotes its whole output into a leased double partial and sweeps
//     its delta there; finish() sums the partials in shard order and
//     casts to value_t once.
//
// FIT is scalar: each shard's inner product plus its delta's is summed
// in double by finish().  A response therefore rounds at most once after
// the plans' own roundings, on either path.
//
// Thread-safety: add() may run concurrently for DISTINCT shards (their
// slots and row windows are private); finish() runs once, after every
// add() has returned.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/tensor_op.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/scratch_arena.hpp"

namespace bcsf {

class ShardCombine {
 public:
  /// `owned` is the partition's output-row ownership table
  /// (TensorPartition::owned_row_begins(), shards + 1 entries) when its
  /// slice ranges are disjoint, empty when a slice was split.  `owned`,
  /// `arena` and the request's factors/lambda must outlive the combine.
  ShardCombine(const OpRequest& request, const std::vector<index_t>& dims,
               index_t partition_mode, std::size_t shards,
               std::span<const index_t> owned, ScratchArena& arena);

  /// True when every output row of a matrix op on `request_mode` has one
  /// owning shard, so shards write row windows and nothing is reduced.
  static bool one_owner_per_row(std::size_t shards,
                                std::span<const index_t> owned,
                                index_t request_mode, index_t partition_mode) {
    return shards == 1 || (!owned.empty() && request_mode == partition_mode);
  }

  const OpRequest& request() const { return request_; }
  /// True when this request takes the window path.
  bool windowed() const { return windowed_; }

  /// Folds in shard `shard`'s plan result and the contribution of its
  /// frozen COO delta chunks (empty = none).  Throws bcsf::Error on a
  /// result of the wrong shape or a delta row outside the shard's window.
  void add(std::size_t shard, OpResult result,
           std::span<const TensorPtr> deltas = {});

  /// The combined result: reports summed in shard order (a lone shard's
  /// passes through unchanged), FIT scalars summed in double, and on the
  /// merge path the partials reduced with the single cast to value_t.
  /// Call once, after every shard's add().
  OpResult finish();

 private:
  struct Slot {
    ScratchLease partial;  ///< merge path: promoted output + delta terms
    double scalar = 0.0;   ///< FIT: base + delta inner product
    SimReport report;
  };

  /// Adds the delta chunks' matrix-op terms into `acc`, which holds
  /// output rows [row_begin, row_begin + acc.size() / rank).
  void sweep(std::span<const TensorPtr> deltas, std::span<double> acc,
             index_t row_begin) const;

  OpRequest request_;
  index_t rows_ = 0;
  rank_t rank_ = 0;
  std::span<const index_t> owned_;
  bool windowed_ = false;
  ScratchArena* arena_;
  DenseMatrix output_;  // window path: the shared output
  std::vector<Slot> slots_;
};

}  // namespace bcsf
