// The plan layer: one uniform contract over every format/kernel pair in
// the library (see DESIGN.md §2, §7).
//
// A plan is built ONCE from a (tensor, mode) pair -- paying the format
// construction cost the paper calls pre-processing (Figs. 9/10) -- and
// then EXECUTED many times against evolving inputs.  Since PR 4 the plan
// is op-generic: the same built structure serves MTTKRP, TTV and the CPD
// fit inner product through execute(), because all three ops walk the
// identical (slice, fiber, nonzero) traversal the format balances.  One
// build amortizes across every op on the tensor.  The plan exposes what
// every consumer layer needs to reason about that trade:
//   * build_seconds()  -- the amortizable pre-processing cost
//   * storage_bytes()  -- index storage (§III accounting, Fig. 16)
//   * execute()        -- any OpKind; run() is the MTTKRP fast path
//
// Lifecycle and thread-safety contract (what serve/ relies on):
//
//   * A plan is IMMUTABLE after construction.  run()/execute() never
//     mutate plan state, so any number of threads may execute on one plan
//     concurrently; outputs are bitwise reproducible for given inputs.
//   * Structured plans own their representation.  COO-family plans
//     ("coo", "cpu-coo", "reference") REFERENCE the source tensor --
//     their format IS the tensor -- so the tensor must outlive the
//     plan.  ConcurrentPlanCache (DESIGN.md §5) closes that hazard
//     structurally by pinning the tensor shared_ptr into every plan
//     deleter it hands out; code building plans directly through the
//     registry owns the lifetime problem itself.
//   * A plan is bound to one frozen tensor snapshot forever.  Growing
//     tensors are served as snapshot + delta (DESIGN.md §6): the plan
//     answers for its snapshot and the delta is swept separately --
//     plans never see in-place updates.  Every op is linear in the
//     tensor values, so the split is exact for all of them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tensor_op.hpp"
#include "formats/bcsf.hpp"
#include "formats/fcoo.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"
#include "linalg/dense_matrix.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf {

class ThreadPool;  // util/thread_pool.hpp; forward-declared to keep the
                   // plan header free of threading machinery

/// Knobs for the "sharded" meta format (core/sharded_plan.hpp,
/// DESIGN.md §8): how many nnz-balanced shards to cut the tensor into
/// and what to build per shard.
struct ShardingOptions {
  /// Number of shards; 1 = monolithic (a pass-through around one inner
  /// plan), 0 = let auto_shard_count price K from nnz and device
  /// saturation.  Always clamped so every shard is non-empty.
  unsigned shards = 1;
  /// Registry key built per shard.  "auto" re-runs the §V policy on each
  /// shard's own slice population, so dense shards go structured while
  /// sparse tails stay COO.  Must not itself be "sharded".
  std::string shard_format = "auto";
  /// Optional worker pool for PARALLEL shard builds and executions.  The
  /// calling thread always participates (util/thread_pool.hpp run_tasks),
  /// so passing a pool the caller is itself running on cannot deadlock.
  /// Null = sequential.  Non-owning; the pool must outlive the plan.
  ThreadPool* pool = nullptr;
};

/// Everything a plan factory may need beyond (tensor, mode).  One struct
/// so adding a knob for a new format does not ripple through signatures.
struct PlanOptions {
  DeviceModel device = DeviceModel::p100();
  BcsfOptions bcsf;
  FcooOptions fcoo;
  /// Consumed by the "sharded" meta format only (other formats ignore it).
  ShardingOptions sharding;
  /// Expected number of plan executions; drives the `auto` policy's
  /// Fig-10 break-even decision (CPD-ALS: iterations per mode).
  double expected_mttkrp_calls = 50.0;
  /// Workload hint for meta plans: "auto" resolves its delegate for THIS
  /// op (TTV's rank-1 arithmetic amortizes a build much more slowly than
  /// full-rank MTTKRP/FIT traffic).  Concrete formats ignore it -- their
  /// built structure serves every op.
  OpKind op = OpKind::kMttkrp;
};

struct PlanRunResult {
  DenseMatrix output;
  /// Simulated metrics for GPU plans; for CPU plans, `kernel` and
  /// `seconds` (wall clock) plus derived gflops are filled in.
  SimReport report;
};

class TensorOpPlan {
 public:
  virtual ~TensorOpPlan() = default;

  /// The registry key this plan was created under (e.g. "hbcsf").
  const std::string& format() const { return format_; }
  /// The format actually executing; differs from format() only for meta
  /// plans ("auto" reports its delegate's key).
  virtual const std::string& resolved_format() const { return format_; }
  /// Human-facing name matching the paper's figures (e.g. "HB-CSF").
  const std::string& display_name() const { return display_name_; }
  index_t mode() const { return mode_; }

  /// Format construction wall time, measured by the registry around the
  /// factory call (the paper's pre-processing cost).
  double build_seconds() const { return build_seconds_; }

  /// Index storage of this plan's representation (§III accounting).
  virtual std::size_t storage_bytes() const = 0;

  /// True when run() reports simulated-GPU metrics (SimReport semantics);
  /// false for real CPU kernels timed with wall clocks.
  virtual bool is_gpu() const = 0;

  /// Format-specific one-liner (e.g. HB-CSF's coo/csl/csf nnz split, the
  /// auto policy's rationale).  Empty when there is nothing to add.
  virtual std::string detail() const { return {}; }

  /// Executes MTTKRP against the given factors -- the format's native
  /// traversal, and the engine behind every other op.  Callable any
  /// number of times; the plan is immutable after construction.
  virtual PlanRunResult run(const std::vector<DenseMatrix>& factors) const = 0;

  /// run() into a caller-owned matrix: `out` ends up dims[mode()] x R
  /// (resized when its shape differs) holding bitwise run()'s output, and
  /// the report is returned.  `out` may alias factors[mode()] -- MTTKRP_n
  /// never reads A_n -- but no other factor.  The plans that run the
  /// arithmetic engine (every simulated GPU key, cpu-csf and cpu-coo)
  /// write into `out`'s storage, so a CPD-ALS mode update allocates
  /// nothing; the base implementation is run() plus a move.
  virtual SimReport run_into(const std::vector<DenseMatrix>& factors,
                             DenseMatrix& out) const;

  /// Executes any op (DESIGN.md §7).  `request.mode` must equal mode():
  /// a plan's representation is built for one traversal root.  The base
  /// implementation reuses the format's run() traversal -- TTV executes
  /// it at rank 1, FIT contracts its output with factors[mode] and
  /// lambda in double precision -- so every format supports every op
  /// with zero per-format kernel code.  Overrides may fuse; only
  /// "reference" does, with the double-accumulating kernels in
  /// kernels/ttv_fit.hpp.
  virtual OpResult execute(const OpRequest& request) const;

 protected:
  TensorOpPlan(std::string format, std::string display_name, index_t mode)
      : format_(std::move(format)),
        display_name_(std::move(display_name)),
        mode_(mode) {}

  /// Shared input validation + mode check for execute() overrides.
  void check_request(const OpRequest& request) const;

 private:
  friend class FormatRegistry;  // stamps build_seconds_ after the factory

  std::string format_;
  std::string display_name_;
  index_t mode_ = 0;
  double build_seconds_ = 0.0;
};

using PlanPtr = std::unique_ptr<TensorOpPlan>;

}  // namespace bcsf
