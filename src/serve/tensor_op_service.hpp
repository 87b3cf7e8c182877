// TensorOpService: the concurrent multi-op serving layer (DESIGN.md
// §5-§8).
//
// The paper frames format choice as an amortization problem: structured
// formats (B-CSF / HB-CSF) pay a sort-dominated build that COO does not,
// and Fig. 10's break-even gate says when that build pays for itself.
// This service makes the trade-off dynamic per tensor:
//
//   1. Requests are answered IMMEDIATELY from the zero-preprocessing
//      COO-family plan -- no caller ever waits on a format build.
//   2. Per-tensor call counts are tracked; when they cross the break-even
//      threshold (the auto policy's Fig-10 estimate, or an explicit
//      override), a structured-plan build is kicked off on the worker
//      pool in the background.
//   3. When the build completes, the serving delegate is atomically
//      swapped.  In-flight runs hold the old plan by shared_ptr and
//      finish on it; subsequent requests run structured.
//
// Since the sharded-plan redesign (DESIGN.md §8) every registered tensor
// is K NNZ-BALANCED SHARDS -- contiguous root-mode slice ranges cut by
// tensor/partitioner.hpp, heavy slices split -- and EVERY lifecycle unit
// above is per shard:
//
//   * each shard is its own DynamicSparseTensor behind its own plan
//     generation, so structured builds are O(shard nnz) and run
//     CONCURRENTLY on the pool (K small builds beat one monolithic
//     sort-dominated build to the structured format);
//   * queries fan out BATCH-AMORTIZED and SHARD-AFFINE: a submitted
//     batch becomes ONE task per (shard, batch) -- not K per request --
//     pinned to worker s % W by affinity hint so a shard's plan/delta
//     state stays cache-hot; the last shard to finish a request combines
//     and fulfills it.  One path serves every shard count: a single-shard
//     tensor's requests are simply one unhinted task each.  Shard results
//     combine through core/shard_combine.hpp, the combine ShardedPlan
//     uses too: rows with one owning shard (all rows with one shard, and
//     the partition mode's rows on an unsplit partition) are written as
//     row windows of one shared output; shared rows reduce per-shard
//     double partials from pooled arena buffers -- exact either way,
//     because every op in the protocol is linear in the tensor values;
//   * update batches are SPLIT BY SLICE RANGE and routed to their
//     shards, so a hot shard accumulates delta, upgrades, and compacts
//     on its own clock while cold shards stay COO -- the all-or-nothing
//     upgrade and O(total nnz) compaction of the monolithic design
//     become incremental;
//   * the auto policy runs per (shard, mode): dense shard cores go
//     structured, sparse tails stay COO -- format choice at shard
//     granularity.
//
// Batches may MIX OPS (DESIGN.md §7): each request names an OpKind
// (MTTKRP, TTV, fit inner product) and every op executes on the same
// per-(shard, mode) delegate -- a structured build triggered by any
// op's traffic serves all of them, which is why mode call counts
// aggregate across ops.
//
// Registered tensors are DYNAMIC (DESIGN.md §6): apply_updates() appends
// additive COO update batches without invalidating the structured plans.
// Each shard answers as
//
//      base-plan result  +  delta-COO contribution,
//
// which equals the op on the shard's merged tensor because every op in
// the protocol is linear; summing the shards then equals the op on the
// WHOLE merged tensor because the shards partition the nonzeros.  Every
// response names the (summed) snapshot version it was computed at.  When
// a shard's delta fraction crosses ServeOptions' compaction threshold, a
// background task merges that shard's base + delta into a new base,
// swaps in a fresh plan generation for that shard only, and the upgrade
// policy re-runs for the merged structure; in-flight queries finish on
// the old generation, which they hold by shared_ptr.
//
// Thread-safety: every public method may be invoked from any thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/shard_combine.hpp"
#include "serve/concurrent_plan_cache.hpp"
#include "tensor/dynamic_tensor.hpp"
#include "tensor/partitioner.hpp"
#include "util/fair_scheduler.hpp"
#include "util/memory_budget.hpp"
#include "util/scratch_arena.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace bcsf {

struct ServeOptions {
  /// Worker pool size; requests, per-shard fan-out, background upgrades,
  /// and compactions share it.
  unsigned workers = 4;
  /// Zero-preprocessing format answering from the first request.  Must be
  /// build-free (COO family: "coo", "cpu-coo", "reference").
  std::string initial_format = "coo";
  /// Structured target for the background upgrade.  "auto" asks the §V
  /// slice-binning policy per (shard, mode) (the Fig-10 expected-calls
  /// gate is NOT applied -- the observed-traffic threshold below plays
  /// that role); a COO-family target disables upgrade.  "sharded" is
  /// rejected: the service shards tensors itself.
  std::string upgrade_format = "auto";
  /// Per-(shard, mode) call count that triggers the upgrade -- the
  /// structured build amortizes against that mode's own traffic, matching
  /// Fig. 10.  Calls of EVERY op count, because the build serves all of
  /// them -- but gain-weighted: MTTKRP/FIT calls count 1.0, TTV calls
  /// count ttv_gain_fraction (~1/R), since a rank-1 sweep recoups
  /// proportionally less of the build.  <= 0 means use the auto
  /// policy's breakeven_calls for the (shard, mode) -- infinite when
  /// structure never pays, so undersized shards stay COO forever.
  double upgrade_threshold = 0.0;
  bool enable_upgrade = true;
  /// Per-shard delta fraction (shard delta nnz / shard nnz) at which a
  /// background compaction merges that shard's delta into a new base
  /// snapshot and the upgrade policy re-runs on the merged shard.  The
  /// default keeps the per-query COO sweep at most ~1/4 of each shard.
  double compact_threshold = 0.25;
  /// Compaction also waits for this many delta nonzeros IN THE SHARD, so
  /// tiny shards do not churn through merges worth less than a kernel
  /// launch.
  offset_t compact_min_nnz = 512;
  bool enable_compaction = true;
  /// Nnz-balanced shards per registered tensor: 1 = monolithic, 0 =
  /// auto_shard_count prices K from the tensor's nnz and device
  /// saturation, K = fixed count (clamped so every shard is non-empty).
  unsigned shards = 1;
  /// Mode whose slice ranges define the shards (and route update
  /// batches).  One partition serves all modes of a tensor.
  index_t shard_mode = 0;
  /// Service-wide cap on STRUCTURED-PLAN storage_bytes across every
  /// tenant (DESIGN.md §10); 0 = unlimited.  Enforced by pre-charge
  /// admission at build completion -- a finished build is installed only
  /// after evicting colder resident plans makes room, so plan residency
  /// never exceeds the budget at any instant.  Delta-chunk bytes count
  /// against the same number via the background reclaimer (eviction,
  /// then forced compaction) but are not pre-charged.
  std::size_t storage_budget_bytes = 0;
  /// Per-tick decay factor in (0, 1] for the per-(shard, mode) heat
  /// counters driving eviction order; one tick = one shard-handled
  /// request anywhere in the service.  1 disables decay (pure call
  /// counting).
  double heat_decay = 0.5;
  /// Structured builds admitted to the pool at once, drawn round-robin
  /// across tenants by the fair upgrade scheduler -- a whale tensor
  /// queueing many shard builds cannot starve other tenants' upgrades.
  /// 0 = one per worker.
  unsigned max_concurrent_upgrades = 2;
  /// Plan factory used by every generation's cache; tests inject
  /// counting/failing builders.  Default: FormatRegistry create.
  ConcurrentPlanCache::BuildFn build_fn;
  /// Device model, format knobs, expected calls for the policy.
  PlanOptions plan;
};

/// Factor matrices are shared across the requests of a batch (and across
/// batches) instead of copied per request.
using FactorsPtr = std::shared_ptr<const std::vector<DenseMatrix>>;
/// FIT column weights, shared the same way.  Null = all ones.
using LambdaPtr = std::shared_ptr<const std::vector<value_t>>;

/// One serve-layer operation.  `{tensor, mode, factors}` initializers
/// name an MTTKRP.
struct ServeRequest {
  ServeRequest() = default;
  ServeRequest(std::string tensor_name, index_t target_mode,
               FactorsPtr factor_set, OpKind op_kind = OpKind::kMttkrp,
               LambdaPtr fit_lambda = nullptr)
      : tensor(std::move(tensor_name)),
        mode(target_mode),
        factors(std::move(factor_set)),
        op(op_kind),
        lambda(std::move(fit_lambda)) {}

  std::string tensor;  ///< name passed to register_tensor
  index_t mode = 0;    ///< output mode (MTTKRP/TTV), traversal anchor (FIT)
  /// MTTKRP/FIT: dims[m] x R factor per mode.  TTV: dims[m] x 1 vectors.
  FactorsPtr factors;
  OpKind op = OpKind::kMttkrp;
  LambdaPtr lambda;  ///< FIT weights; ignored by the other ops
};

struct ServeResponse {
  /// MTTKRP: dims[mode] x R.  TTV: dims[mode] x 1.  FIT: empty.
  /// STATS: an (order + 1) x 8 summary answered from sketches -- row m
  /// (m < order) holds [nnz, num_slices, est. num_fibers, singleton slice
  /// fraction, est. CSL slice fraction (lower bound), mean nnz/slice,
  /// stddev nnz/slice, max slice nnz] for mode m; the final row holds
  /// [est. ||X||^2, norm error bound, delta nnz, base nnz, 0, 0, 0, 0].
  DenseMatrix output;
  SimReport report;
  /// Format(s) that executed the BASE contribution ("auto" never leaks:
  /// resolved key).  With several shards serving different formats this
  /// is "mixed"; the delta contribution, when present, is always a COO
  /// sweep.
  std::string served_format;
  /// The base plan of shard 0.  Holding it is safe after the service
  /// dies (it pins its snapshot); comparing pointers across responses
  /// observes the async upgrade swap.
  SharedPlan plan;
  std::uint64_t sequence = 0;  ///< 1-based per-tensor call number
  /// True once EVERY shard served this response from its structured
  /// (post-swap) delegate.
  bool upgraded = false;
  /// Tensor snapshot this response is the exact op result of: the sum of
  /// the per-shard versions held when the query visited each shard.
  /// Monotonic across a tensor's responses as observed by any single
  /// thread submitting and waiting in order.
  std::uint64_t snapshot_version = 0;
  /// Nonzeros the delta sweeps contributed on top of the base plans,
  /// summed over shards (0 == the response came purely from base
  /// snapshots).
  offset_t delta_nnz = 0;
  /// Shards that fanned out to serve this response.
  std::size_t shards = 1;
  OpKind op = OpKind::kMttkrp;  ///< echo of the request's op
  /// FIT: <X, Xhat> at snapshot_version (base plans + delta inner
  /// products, reduced in double).  STATS: estimated ||X||^2 of the
  /// coalesced tensor (sum of squared stored values; off by at most the
  /// final output row's error bound).  0 for matrix-valued ops.
  double scalar = 0.0;
  /// How the per-shard contributions were combined into `output`:
  /// "single" (one shard: its run as-is, with the plan's own report),
  /// "disjoint" (each shard wrote its owned row window of the shared
  /// output directly -- partition-mode matrix ops on an unsplit
  /// partition), or "merge" (per-shard double partials K-way reduced
  /// with one cast; FIT scalars summed in double).
  std::string reduce_path = "single";
  /// Wall ms from the FIRST shard task starting on this request until
  /// the LAST shard finished its contribution (kernel + delta sweep
  /// across the fan-out).  Pool queue wait ahead of the batch is
  /// EXCLUDED: billing it here made fan-out look slower the busier the
  /// pool was, which poisoned the bench's fan-out column.  0 for
  /// single-shard tensors, which have no fan-out.
  double fanout_ms = 0.0;
  /// Wall ms spent combining the per-shard contributions into the
  /// response (the K-way reduce on the merge path; metadata-only on the
  /// disjoint path).  0 for single-shard tensors.
  double reduce_ms = 0.0;
};

class TensorOpService {
 public:
  explicit TensorOpService(ServeOptions opts = {});
  /// Joins the pool; accepted requests, in-flight upgrades, and
  /// compactions complete.
  ~TensorOpService();

  TensorOpService(const TensorOpService&) = delete;
  TensorOpService& operator=(const TensorOpService&) = delete;

  /// Registers a tensor under a unique name, cutting it into the
  /// configured number of nnz-balanced shards (ServeOptions::shards)
  /// along ServeOptions::shard_mode.  No plan is built here -- the first
  /// request pays only the (free) per-shard COO plan construction.  Each
  /// shard becomes snapshot version 0 of its own DynamicSparseTensor.
  void register_tensor(const std::string& name, TensorPtr tensor);
  bool has_tensor(const std::string& name) const;

  /// Appends a batch of additive updates (a COO tensor with the same
  /// dims; duplicate coordinates add), SPLIT BY SLICE RANGE across the
  /// shards, and returns the new (summed) snapshot version.  Returns
  /// immediately -- no plan is rebuilt; queries already in flight finish
  /// on the snapshots they captured, queries submitted after return see
  /// the update.  May trigger background compactions on the shards the
  /// batch touched (see ServeOptions::compact_threshold).
  std::uint64_t apply_updates(const std::string& tensor,
                              SparseTensor updates);

  /// Enqueues one request; the future carries the response or the error.
  std::future<ServeResponse> submit(ServeRequest request);
  /// Enqueues a batch (possibly spanning tensors, modes, and ops);
  /// requests fan out across the worker pool.
  std::vector<std::future<ServeResponse>> submit_batch(
      std::vector<ServeRequest> batch);

  /// Op calls served (or admitted) so far for `tensor`, all ops summed.
  std::uint64_t call_count(const std::string& tensor) const;
  /// Resolved format currently serving (tensor, mode)'s base
  /// contribution: the shards' common format, or "mixed" when they
  /// disagree (e.g. a hot shard upgraded while cold shards stay COO).
  /// The initial format until background upgrades swap delegates (and
  /// again right after a shard compaction installs a fresh generation,
  /// until the re-upgrade lands).
  std::string current_format(const std::string& tensor, index_t mode) const;
  /// True once EVERY shard's structured delegate is installed for
  /// (tensor, mode) in its current generation; a shard compaction resets
  /// it until that shard's re-upgrade completes.
  bool upgraded(const std::string& tensor, index_t mode) const;

  /// Current snapshot version of `tensor`: the sum of the per-shard
  /// versions (0 until the first update).  Monotone.
  std::uint64_t snapshot_version(const std::string& tensor) const;
  /// Fraction of `tensor`'s nonzeros currently in the shards' delta
  /// buffers (aggregated).
  double delta_fraction(const std::string& tensor) const;
  /// Number of shard compactions committed for `tensor` so far (summed).
  std::uint64_t compaction_count(const std::string& tensor) const;
  /// Consistent snapshot of a SINGLE-SHARD tensor -- what a query
  /// submitted now would compute against.  Cheap (shares immutable
  /// storage).  Throws for a tensor sharded K > 1 ways: there is no one
  /// base then; use shard_snapshot per shard.
  TensorSnapshot snapshot(const std::string& tensor) const;

  /// Number of nnz-balanced shards serving `tensor`.
  std::size_t shard_count(const std::string& tensor) const;
  /// Consistent snapshot of one shard's dynamic sub-tensor.
  TensorSnapshot shard_snapshot(const std::string& tensor,
                                std::size_t shard) const;

  /// Point-in-time view of one shard's lifecycle, for observability
  /// (bench/serve_throughput's per-shard timings) and tests.
  struct ShardStatus {
    index_t slice_begin = 0;  ///< root-mode slice range this shard owns
    index_t slice_end = 0;
    offset_t base_nnz = 0;   ///< nonzeros in the shard's base snapshot
    offset_t delta_nnz = 0;  ///< nonzeros in its frozen delta chunks
    std::uint64_t snapshot_version = 0;  ///< the shard's own version
    std::uint64_t compactions = 0;       ///< commits on this shard
    std::string format;        ///< resolved format serving `mode`
    bool upgraded = false;     ///< structured delegate installed for `mode`
    double build_seconds = 0;  ///< build work in the current generation
  };
  std::vector<ShardStatus> shard_status(const std::string& tensor,
                                        index_t mode) const;
  /// Shard that updates with this root-mode (shard_mode) coordinate are
  /// routed to.
  std::size_t shard_for_slice(const std::string& tensor, index_t slice) const;

  // -- Budget & tenant observability (DESIGN.md §10) ------------------

  /// Configured structured-plan budget (0 = unlimited).
  std::size_t storage_budget_bytes() const { return budget_.budget(); }
  /// Structured-plan bytes currently charged against the budget.
  std::size_t plan_resident_bytes() const { return budget_.resident(); }
  /// High-water mark of plan_resident_bytes() -- with a budget set this
  /// is <= the budget by construction (pre-charge admission).
  std::size_t peak_plan_resident_bytes() const { return budget_.peak(); }
  /// Un-compacted delta-chunk bytes across every tenant.
  std::size_t delta_resident_bytes() const { return delta_bytes_.resident(); }
  /// Total budget-relevant residency: plans + delta chunks.
  std::size_t resident_bytes() const {
    return budget_.resident() + delta_bytes_.resident();
  }
  /// Structured plans evicted by the budget (reclaimer or admission).
  std::uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Finished builds dropped because eviction could not make room
  /// without removing hotter plans.
  std::uint64_t upgrade_reject_count() const {
    return upgrade_rejects_.load(std::memory_order_relaxed);
  }

  // -- Planning-latency observability (DESIGN.md §12) -----------------

  /// Upgrade-policy resolutions performed so far (one per (shard,
  /// generation, mode) that needed a format decision).
  std::uint64_t policy_resolution_count() const {
    return policy_resolutions_.load(std::memory_order_relaxed);
  }
  /// Wall seconds spent inside those resolutions -- the planning-latency
  /// numerator of bench serve_throughput's policy_ms column.  It stays
  /// flat in nnz: decisions read sketches, O(S) each.
  double policy_seconds() const {
    return static_cast<double>(policy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Per-tenant accounting snapshot, one entry per registered tensor in
  /// name order (what tensord reports in kPing acks).
  struct TenantStats {
    std::string name;
    std::size_t plan_bytes = 0;   ///< charged structured-plan bytes
    std::size_t delta_bytes = 0;  ///< un-compacted delta-chunk bytes
    std::uint64_t calls = 0;      ///< requests admitted for this tensor
    std::uint64_t structured_served = 0;  ///< shard runs on structured plans
    std::uint64_t coo_served = 0;         ///< shard runs on the COO fallback
    std::uint64_t evictions = 0;          ///< budget evictions suffered
    /// Sketched stored-nonzero count across the tenant's shards -- read
    /// from the O(1) sketch scalars, never a rescan (DESIGN.md §12).
    std::uint64_t sketch_nnz = 0;
    /// Sketched squared Frobenius norm (sum of squared stored values,
    /// shards summed); see ServeResponse's kStats row for error bounds.
    double norm_sq = 0.0;
  };
  std::vector<TenantStats> tenant_stats() const;

  /// Blocks until all accepted requests AND background work (upgrades,
  /// compactions, queued fair-scheduler builds) finished.
  void wait_idle() {
    // A queued upgrade only reaches the pool when an in-flight build
    // finishes, so alternate until both drain together.
    do {
      pool_.wait_idle();
    } while (!scheduler_.idle());
  }

  /// Graceful drain hook for front-ends (net/TensorServer, DESIGN.md
  /// §9): refuses new pool submissions, executes every accepted request
  /// and background task, and joins the workers.  Idempotent.  Queries
  /// submitted after this still resolve -- their futures carry the
  /// response computed INLINE on the submitting thread (the refused-
  /// submission fallback), never a broken promise.
  void shutdown() { pool_.shutdown(); }

  /// Tasks accepted but not yet started on the worker pool: the
  /// admission-control signal (net/TensorServer rejects queries with
  /// kOverloaded once this crosses its watermark).
  std::size_t queue_depth() const { return pool_.queue_depth(); }
  /// Worker pool width (admission watermarks default to a multiple).
  std::size_t workers() const { return pool_.size(); }
  /// Scratch buffers parked on the arena freelist.  Tests assert every
  /// combine lease returns here even when a shard, a build or the reduce
  /// throws.
  std::size_t scratch_pooled() const { return arena_.pooled(); }

  const ServeOptions& options() const { return opts_; }

 private:
  /// Test-only access (tests/): switches a fresh service, before its
  /// first register_tensor, to the exact sort+scan planning paths -- the
  /// validation oracle the sketch parity tests compare against.
  friend struct TensorOpServiceTestPeer;

  struct ModeSlot {
    mutable Mutex m;
    /// Serving delegate; swapped by the upgrade task.
    SharedPlan current BCSF_GUARDED_BY(m);
    bool upgraded_flag BCSF_GUARDED_BY(m) = false;
    bool policy_resolved BCSF_GUARDED_BY(m) = false;
    /// Empty = never upgrade this mode.
    std::string target_format BCSF_GUARDED_BY(m);
    double threshold BCSF_GUARDED_BY(m) = 0.0;
    /// This mode's cumulative call count over ALL ops (request
    /// sequencing).  Carried across compactions so a hot mode
    /// re-launches its structured build on the first post-compaction
    /// request.
    std::atomic<std::uint64_t> mode_calls{0};
    /// Per-op call counts feeding the GAIN-WEIGHTED upgrade trigger:
    /// the structured build serves every op, but a rank-1 TTV call
    /// recoups ~1/R of an MTTKRP call's build cost, so TTV traffic
    /// counts at AutoPolicyOptions::ttv_gain_fraction weight when
    /// compared against the break-even threshold.  A TTV-only workload
    /// therefore upgrades ~R x later (or never), matching the op-aware
    /// §3 policy; MTTKRP/FIT traffic counts at full weight.
    std::array<std::atomic<std::uint64_t>, 3> op_calls{};
    std::atomic<bool> upgrade_launched{false};
    /// Bytes this slot's installed structured plan has charged against
    /// the service budget (0 = nothing charged).  The SINGLE
    /// check-and-clear point shared by reclaimer eviction and compaction
    /// retirement, so the same plan can never be released twice.
    std::size_t charged_bytes BCSF_GUARDED_BY(m) = 0;
  };

  /// One immutable base snapshot together with every plan built from it:
  /// the unit a shard compaction retires wholesale.  Queries pair a
  /// Generation with a TensorSnapshot of the same base_version, so a
  /// plan can never be combined with a delta it already absorbed.
  /// Retired generations stay alive through the shared_ptr held by
  /// in-flight queries and upgrade tasks.
  struct Generation {
    Generation(TensorPtr base, PlanOptions plan_opts,
               std::uint64_t base_version, ConcurrentPlanCache::BuildFn build,
               double heat_decay)
        : cache(std::move(base), std::move(plan_opts), std::move(build),
                base_version, heat_decay),
          modes(cache.tensor()->order()) {}
    ConcurrentPlanCache cache;
    std::vector<ModeSlot> modes;
  };
  using GenerationPtr = std::shared_ptr<Generation>;

  /// One shard's full serving state: the pre-§8 per-tensor state at
  /// shard granularity.  Shards never share mutable state, which is what
  /// makes their upgrades and compactions independent.
  struct TensorState;

  struct ShardState {
    ShardState(TensorPtr base, PlanOptions plan_opts, index_t begin,
               index_t end, ConcurrentPlanCache::BuildFn build,
               double heat_decay)
        : slice_begin(begin),
          slice_end(end),
          dynamic(base),
          gen(std::make_shared<Generation>(std::move(base),
                                           std::move(plan_opts), 0,
                                           std::move(build), heat_decay)) {}
    const index_t slice_begin;  ///< root-mode slice range (see partitioner)
    const index_t slice_end;
    DynamicSparseTensor dynamic;
    // Guards the `gen` pointer AND its pairing with dynamic's base:
    // queries read both under a shared lock; the compaction commit swaps
    // both under the exclusive lock.  (The pairing half of the contract
    // is semantic -- DynamicSparseTensor has its own internal mutex --
    // so only the pointer itself is annotation-checkable.)
    mutable SharedMutex gen_mutex;
    GenerationPtr gen BCSF_GUARDED_BY(gen_mutex);
    std::atomic<bool> compacting{false};
    std::atomic<std::uint64_t> compactions{0};
    /// Owning tensor (stable address: TensorState is held by unique_ptr
    /// and never erased) -- gives shard-level code the tenant identity
    /// for fairness keys and per-tenant counters.  Set by
    /// register_tensor before publication.
    TensorState* owner = nullptr;
    std::size_t index = 0;  ///< position in owner->shards
  };

  struct TensorState {
    std::string name;  ///< registration name (the tenant identity)
    std::vector<index_t> dims;
    index_t partition_mode = 0;
    /// shards[s]'s slice_begin, ascending -- the routing table
    /// (partitioner's shard_for_slice rule over frozen ranges).
    std::vector<index_t> route_begin;
    /// K+1 output-row ownership table (partitioner's owned_row_begins):
    /// shard s owns partition-mode output rows [owned_begin[s],
    /// owned_begin[s+1]).  Populated only when the partition's slice
    /// ranges are pairwise disjoint (no heavy slice split), so
    /// partition-mode matrix ops take the disjoint-output path; empty for
    /// single-shard tensors, whose one shard owns every row anyway.
    std::vector<index_t> owned_begin;
    // unique_ptr: ShardState holds mutexes/atomics (immovable) and worker
    // tasks hold ShardState& across generations.
    std::vector<std::unique_ptr<ShardState>> shards;
    std::atomic<std::uint64_t> calls{0};
    /// Shard runs answered from a structured (post-upgrade) plan vs the
    /// COO fallback -- the plan-hit-rate numerator/denominator.
    std::atomic<std::uint64_t> structured_served{0};
    std::atomic<std::uint64_t> coo_served{0};
    /// Budget evictions this tenant has suffered.
    std::atomic<std::uint64_t> evictions{0};
    index_t order() const { return static_cast<index_t>(dims.size()); }
  };

  /// One shard's serving metadata for a response, produced by
  /// handle_shard; its numeric contribution goes into the item's combine.
  struct ShardRun {
    SharedPlan plan;
    std::string format;
    bool upgraded = false;
    std::uint64_t snapshot_version = 0;
    offset_t delta_nnz = 0;
  };

  /// One request of a shard-affine batch: the per-request slots the K
  /// (shard, batch) tasks fill concurrently.  The LAST shard to finish a
  /// request combines and fulfills the promise (remaining hits 0), so a
  /// batch pays K task submissions TOTAL instead of K per request.
  struct BatchItem {
    ServeRequest request;
    std::uint64_t sequence = 0;
    std::promise<ServeResponse> promise;
    /// Folds the shards' results together; its leases return to arena_
    /// when the item dies, on the failure paths too.
    std::optional<ShardCombine> combine;
    /// Stamped by the FIRST shard task to reach this item (exchange
    /// winner); fanout_ms measures from here so pool queue wait ahead
    /// of the batch is not billed as fan-out.  The stamp publishes to
    /// the finisher through the `remaining` release chain.
    std::atomic<bool> started{false};
    std::chrono::steady_clock::time_point first_start;
    std::vector<ShardRun> runs;  ///< one slot per shard
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< written by the failed-flag winner only
  };
  using BatchPtr = std::shared_ptr<std::vector<std::unique_ptr<BatchItem>>>;

  TensorState& state_for(const std::string& name) const;
  std::size_t route_slice(const TensorState& state, index_t slice) const;
  /// Answers a kStats request by merging the shards' sketches -- O(S +
  /// registers) per shard, never a nonzero touched, no plan, no fan-out.
  ServeResponse handle_stats(TensorState& state, const ServeRequest& request);
  /// Runs shard `s`'s (capture, count, execute, delta-sweep) sequence
  /// for `item`, folding its result into the item's combine.
  ShardRun handle_shard(TensorState& state, BatchItem& item, std::size_t s);
  /// Submits K (shard, batch) tasks -- one per shard, each sweeping the
  /// WHOLE batch for its shard, hinted to worker s when K > 1.
  void dispatch(TensorState& state, const BatchPtr& items);
  /// Called by the last shard task to finish `item`: combine + fulfill.
  void finalize_item(TensorState& state, BatchItem& item);
  ServeResponse reduce_item(TensorState& state, BatchItem& item);
  /// Computes (target format, threshold) for a mode of one generation's
  /// base; runs the §V policy when the options defer to it -- from the
  /// shard's streaming base sketch (O(S)), or from an O(nnz log nnz)
  /// scan of the base on the test-only exact path.
  /// Called with NO lock held; wall time feeds policy_seconds().
  std::pair<std::string, double> resolve_upgrade_policy(
      const ShardState& shard, const Generation& gen, index_t mode) const;
  void maybe_launch_upgrade(ShardState& shard, const GenerationPtr& gen,
                            index_t mode);
  void maybe_launch_compaction(ShardState& shard, const TensorSnapshot& snap);
  void run_compaction(ShardState& shard, bool force = false);

  // -- Budget machinery (DESIGN.md §10) ------------------------------

  /// The fair-scheduler job body: build the structured plan, admit its
  /// bytes (evicting colder plans as needed), install -- or drop the
  /// plan and make the tenant re-earn the threshold.
  void run_upgrade(ShardState& shard, GenerationPtr gen, index_t mode,
                   std::string target);
  /// Pre-charge admission: true (and `bytes` charged) once the plan
  /// fits, evicting strictly-colder installed plans to make room.
  /// Serialized by reclaim_mutex_, so concurrent admissions cannot
  /// overshoot the budget between check and charge.
  bool admit_plan_bytes(std::size_t bytes, double incoming_heat)
      BCSF_EXCLUDES(reclaim_mutex_);

  /// One evictable installed plan, ordered coldest-first with a total
  /// deterministic tiebreak.
  struct EvictionCandidate {
    double heat = 0.0;
    std::string tensor;
    std::size_t shard = 0;
    index_t mode = 0;
    GenerationPtr gen;
    TensorState* state = nullptr;
  };
  /// Every installed-and-charged plan slot, sorted (heat, tensor,
  /// shard, mode) ascending.  Requires reclaim_mutex_: candidate
  /// collection is part of the serialized check-then-evict-then-charge
  /// sequence (see the lock-order DAG, DESIGN.md §11).
  std::vector<EvictionCandidate> collect_candidates() const
      BCSF_REQUIRES(reclaim_mutex_);
  /// Uninstall + release one candidate; returns bytes freed (0 if a
  /// racer already evicted or a compaction retired it).  Requires
  /// reclaim_mutex_ for the same reason as collect_candidates().
  std::size_t evict_candidate(const EvictionCandidate& candidate)
      BCSF_REQUIRES(reclaim_mutex_);
  /// Release a retired/raced slot's charge (check-and-clear under its
  /// mutex); returns bytes released.
  std::size_t release_slot_charge(const GenerationPtr& gen, index_t mode);
  /// Kicks the background reclaimer when plans + delta exceed the
  /// budget (at most one in flight).
  void maybe_launch_reclaim();
  /// Evicts coldest plans, then force-compacts delta-heavy shards,
  /// until the fleet total fits again.
  void run_reclaim() BCSF_EXCLUDES(reclaim_mutex_);

  ServeOptions opts_;
  /// Sketch-backed planning (DESIGN.md §12): the upgrade policy, shard
  /// pricing, and partition cut placement read the streaming structural
  /// sketches DynamicSparseTensor maintains -- O(S) per decision, zero
  /// O(nnz) rescans after registration -- and every compaction commit
  /// re-runs the format decision from the merged base's fresh sketch.
  /// Only TensorOpServiceTestPeer clears it, before registration.
  bool sketch_policy_ = true;
  /// Pooled double buffers for merge-path partials and delta-swept row
  /// windows: steady-state traffic allocates no partials.
  mutable ScratchArena arena_;
  /// Structured-plan bytes vs the hard budget (pre-charge admission
  /// keeps resident <= budget); delta-chunk bytes tracked separately
  /// (reclaimed by forced compaction, not pre-charged).
  MemoryBudget budget_;
  MemoryBudget delta_bytes_;
  /// Logical clock for heat decay: one tick per shard-handled request.
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> upgrade_rejects_{0};
  /// Planning-latency accounting: resolutions and wall nanoseconds spent
  /// in resolve_upgrade_policy (see policy_seconds()).  Mutable: the
  /// resolver is logically const (a pure decision function); timing it
  /// is bookkeeping.
  mutable std::atomic<std::uint64_t> policy_ns_{0};
  mutable std::atomic<std::uint64_t> policy_resolutions_{0};
  std::atomic<bool> reclaiming_{false};
  /// Serializes admission charges and eviction sweeps so the budget
  /// check-then-charge is atomic across concurrent builds.  Head of the
  /// lock-order DAG (DESIGN.md §11): reclaim_mutex_ -> tensors_mutex_
  /// -> ShardState::gen_mutex -> {ModeSlot::m, the generation cache's
  /// shared_mutex} -> HeatSlot::m.  The ACQUIRED_BEFORE edge below is
  /// the compiler-checkable prefix (-Wthread-safety-beta); the per-shard
  /// and per-slot tails cross class boundaries, which the attribute
  /// cannot name, so they live in the DAG doc and stay TSan-verified.
  Mutex reclaim_mutex_ BCSF_ACQUIRED_BEFORE(tensors_mutex_);
  mutable SharedMutex tensors_mutex_;
  // unique_ptr: TensorState addresses stay stable across map rehash, so
  // worker tasks can hold TensorState& while new tensors register.
  std::map<std::string, std::unique_ptr<TensorState>> tensors_
      BCSF_GUARDED_BY(tensors_mutex_);
  // Declared before pool_ (destroyed after it): pool shutdown runs the
  // in-flight build wrappers, which call back into the scheduler.
  FairScheduler scheduler_;
  // Declared last: destroyed first, joining workers before the tensor
  // states their tasks reference go away.
  ThreadPool pool_;
};

}  // namespace bcsf
