// ShardedPlan: one tensor served as K nnz-balanced shard plans
// (DESIGN.md §8).
//
// The registry's "sharded" meta format cuts the tensor along the plan's
// mode with tensor/partitioner.hpp, builds one inner plan per shard --
// IN PARALLEL when ShardingOptions::pool is set, with the calling thread
// participating so nested use from a pool task cannot deadlock -- and
// executes every op of the protocol as per-shard runs reduced into one
// result.  All three ops are linear in the tensor values and the shards
// partition the nonzeros, so
//
//     op(tensor) = sum over shards of op(shard)
//
// is exact; matrix partials and FIT partial inner products are reduced
// in double with a single cast back to float.  When the REQUEST mode is
// the partition mode and no slice was split, the reduce disappears
// entirely: shard slice ranges are then disjoint output rows, so each
// shard writes its own [begin, end) row window of one shared output
// (the disjoint-output path; the merge path serves the other modes from
// pooled scratch buffers).  Because each shard runs
// the inner format's own factory, "auto" per shard mixes formats: dense
// shard cores go to B-CSF/HB-CSF while sparse tails stay COO.
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
#include <span>
#include <string>
#include <vector>

#include "core/tensor_op_plan.hpp"
#include "tensor/partitioner.hpp"
#include "util/scratch_arena.hpp"

namespace bcsf {

/// Sums per-shard double partials (each row-major rows x rank) into one
/// float matrix with a SINGLE cast back -- the §8 cross-shard reduction
/// contract, shared by ShardedPlan and the sharded serving path so the
/// two can never drift.  Exact wherever the partials are (linearity).
/// Spans, not vectors: partials may live in pooled arena buffers.
DenseMatrix reduce_shard_partials(
    index_t rows, rank_t rank, std::span<const std::span<const double>> partials);

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
  /// path (§8): the request's output mode is the partition mode and no
  /// slice was split, so each shard owns a private row range of the
  /// output and writes it directly -- no partials, no K-way reduce.
  bool disjoint_output(index_t request_mode) const {
    return plans_.size() > 1 && disjoint_ && request_mode == partition_->mode;
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
  /// One shard's double-precision partial for a matrix-valued op.  The
  /// acc buffer is LEASED from arena_ per call and returns to it when the
  /// partial dies -- after the reduce, or when a sibling shard threw --
  /// so steady-state execution allocates nothing.
  struct Partial {
    ScratchLease acc;
    double scalar = 0.0;
    SimReport report;
  };

  void build_shards(const PlanOptions& opts);
  OpResult execute_disjoint(const OpRequest& request) const;
  OpResult execute_merge(const OpRequest& request) const;
  void finish_report(OpResult& result, double wall) const;

  PartitionPtr partition_;
  std::vector<std::shared_ptr<const TensorOpPlan>> plans_;  // one per shard
  ThreadPool* pool_ = nullptr;  // non-owning; null = sequential execution
  bool disjoint_ = false;       // no slice split: row ranges are private
  index_vec owned_rows_;        // K+1 ownership table (owned_row_begins)
  mutable ScratchArena arena_;  // thread-safe; execute() is const+concurrent
};

}  // namespace bcsf
