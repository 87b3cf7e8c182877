// ShardedPlan: one tensor served as K nnz-balanced shard plans
// (DESIGN.md §8).
//
// The registry's "sharded" meta format cuts the tensor along the plan's
// mode with tensor/partitioner.hpp, builds one inner plan per shard --
// IN PARALLEL when ShardingOptions::pool is set, with the calling thread
// participating so nested use from a pool task cannot deadlock -- and
// executes every op of the protocol as per-shard runs combined into one
// result by core/shard_combine.hpp, the combine the serving layer uses
// too.  All three ops are linear in the tensor values and the shards
// partition the nonzeros, so
//
//     op(tensor) = sum over shards of op(shard)
//
// is exact.  Rows with one owning shard (every row with one shard, and
// the partition mode's rows when no slice was split) are written as
// row windows of one shared output; shared rows reduce in double with a
// single cast back, and FIT partial inner products sum in double.
// Because each shard runs the inner format's own factory, "auto" per
// shard mixes formats: dense shard cores go to B-CSF/HB-CSF while
// sparse tails stay COO.
//
// What shards buy (the paper's load-balance argument, one level up):
//   * build latency -- K builds of nnz/K each, run concurrently, beat one
//     monolithic nnz build (sort-dominated, superlinear);
//   * bounded maintenance units -- the serving layer upgrades and
//     compacts per shard (serve/, DESIGN.md §8), so a hot shard pays
//     O(shard nnz), never O(total nnz);
//   * intra-request parallelism -- one request fans K kernel runs across
//     the pool instead of serializing on one monolithic kernel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/shard_combine.hpp"
#include "core/tensor_op_plan.hpp"
#include "tensor/partitioner.hpp"
#include "util/scratch_arena.hpp"

namespace bcsf {

class ShardedPlan final : public TensorOpPlan {
 public:
  /// Partitions `tensor` along `mode` into opts.sharding.shards shards
  /// (0 = auto_shard_count pricing) and builds one
  /// opts.sharding.shard_format plan per shard, in parallel on
  /// opts.sharding.pool when set.  Throws bcsf::Error if the inner
  /// format is "sharded" (no recursive sharding) or unknown.
  ShardedPlan(const SparseTensor& tensor, index_t mode,
              const PlanOptions& opts);

  /// Builds on an existing partition (the serving layer / tests hold one
  /// partition across modes).  `partition` must be non-null.
  ShardedPlan(PartitionPtr partition, index_t mode, const PlanOptions& opts);

  bool is_gpu() const override;
  std::size_t storage_bytes() const override;  ///< sum over shards
  std::string detail() const override;

  PlanRunResult run(const std::vector<DenseMatrix>& factors) const override;
  OpResult execute(const OpRequest& request) const override;

  std::size_t shard_count() const { return plans_.size(); }
  const TensorPartition& partition() const { return *partition_; }
  /// True when a matrix op on `request_mode` takes the DISJOINT-OUTPUT
  /// (window) path (§8): one shard, or the partition mode of a partition
  /// with no split slice, so each shard owns a private row range of the
  /// output and writes it directly -- no partials, no K-way reduce.
  bool disjoint_output(index_t request_mode) const {
    return ShardCombine::one_owner_per_row(plans_.size(), owned_rows_,
                                           request_mode, partition_->mode);
  }
  /// Resolved inner format per shard ("auto" never leaks).
  std::vector<std::string> shard_formats() const;
  /// Sum of the inner plans' build_seconds -- the WORK a parallel build
  /// spreads across the pool; build_seconds() on this plan is the wall
  /// time the registry measured around the whole (parallel) construction.
  double shard_build_seconds() const;
  /// Scratch buffers parked on the arena freelist.  Tests assert that
  /// every merge-path lease comes back, a shard that throws included.
  std::size_t scratch_pooled() const { return arena_.pooled(); }

 private:
  void build_shards(const PlanOptions& opts);

  PartitionPtr partition_;
  std::vector<std::shared_ptr<const TensorOpPlan>> plans_;  // one per shard
  ThreadPool* pool_ = nullptr;  // non-owning; null = sequential execution
  /// K+1 ownership table (owned_row_begins) when no slice was split, so
  /// partition-mode rows are private; empty otherwise.
  index_vec owned_rows_;
  /// Combine scratch (merge partials, delta windows); thread-safe, since
  /// execute() is const and concurrent.
  mutable ScratchArena arena_;
};

}  // namespace bcsf
