#include "core/sharded_plan.hpp"

#include <functional>
#include <sstream>
#include <utility>

#include "core/auto_policy.hpp"
#include "core/format_registry.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bcsf {

DenseMatrix reduce_shard_partials(
    index_t rows, rank_t rank,
    std::span<const std::span<const double>> partials) {
  std::vector<double> acc(static_cast<std::size_t>(rows) * rank, 0.0);
  for (const std::span<const double>& partial : partials) {
    BCSF_CHECK(partial.size() == acc.size(),
               "reduce_shard_partials: partial has " << partial.size()
                                                     << " entries, expected "
                                                     << acc.size());
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += partial[i];
  }
  DenseMatrix out(rows, rank);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out.data()[i] = static_cast<value_t>(acc[i]);
  }
  return out;
}

ShardedPlan::ShardedPlan(const SparseTensor& tensor, index_t mode,
                         const PlanOptions& opts)
    : TensorOpPlan("sharded", "Sharded", mode), pool_(opts.sharding.pool) {
  unsigned shards = opts.sharding.shards;
  if (shards == 0) {
    AutoPolicyOptions pricing;
    pricing.expected_mttkrp_calls = opts.expected_mttkrp_calls;
    shards = auto_shard_count(tensor.nnz(), tensor.dim(mode), pricing);
  }
  partition_ = share_partition(partition_tensor(tensor, mode, shards));
  build_shards(opts);
}

ShardedPlan::ShardedPlan(PartitionPtr partition, index_t mode,
                         const PlanOptions& opts)
    : TensorOpPlan("sharded", "Sharded", mode),
      partition_(std::move(partition)),
      pool_(opts.sharding.pool) {
  BCSF_CHECK(partition_ != nullptr, "ShardedPlan: null partition");
  build_shards(opts);
}

void ShardedPlan::build_shards(const PlanOptions& opts) {
  const std::string& inner = opts.sharding.shard_format;
  BCSF_CHECK(inner != "sharded",
             "ShardedPlan: shard_format must name a non-sharded format");
  BCSF_CHECK(mode() < partition_->dims.size(),
             "ShardedPlan: mode " << mode() << " out of range");

  // Inner plans must not shard again, and they amortize against the same
  // expected traffic as the whole plan (every call fans out to every
  // shard, so per-shard call counts equal the plan's).
  PlanOptions shard_opts = opts;
  shard_opts.sharding = ShardingOptions{};

  disjoint_ = partition_->disjoint_slice_ranges();
  if (disjoint_) owned_rows_ = partition_->owned_row_begins();

  const std::size_t k = partition_->size();
  plans_.resize(k);
  std::vector<std::function<void()>> builds;
  builds.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    builds.push_back([this, s, &inner, &shard_opts] {
      const TensorShard& shard = partition_->shards[s];
      PlanPtr raw = FormatRegistry::instance().create(inner, *shard.tensor,
                                                      mode(), shard_opts);
      // Pin the shard tensor into the plan's deleter (the COO-family
      // lifetime rule, DESIGN.md §2): a retained shard plan keeps its
      // source sub-tensor alive even if the partition is dropped.
      TensorPtr pin = shard.tensor;
      plans_[s] = std::shared_ptr<const TensorOpPlan>(
          raw.release(), [pin](const TensorOpPlan* p) { delete p; });
    });
  }
  run_tasks(pool_, std::move(builds));
}

bool ShardedPlan::is_gpu() const {
  for (const auto& plan : plans_) {
    if (!plan->is_gpu()) return false;
  }
  return true;
}

std::size_t ShardedPlan::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& plan : plans_) total += plan->storage_bytes();
  return total;
}

std::vector<std::string> ShardedPlan::shard_formats() const {
  std::vector<std::string> out;
  out.reserve(plans_.size());
  for (const auto& plan : plans_) out.push_back(plan->resolved_format());
  return out;
}

double ShardedPlan::shard_build_seconds() const {
  double total = 0.0;
  for (const auto& plan : plans_) total += plan->build_seconds();
  return total;
}

std::string ShardedPlan::detail() const {
  std::ostringstream os;
  os << partition_->to_string() << "; formats";
  for (std::size_t s = 0; s < plans_.size(); ++s) {
    os << (s == 0 ? " " : "/") << plans_[s]->resolved_format();
  }
  return os.str();
}

void ShardedPlan::finish_report(OpResult& result, double wall) const {
  if (!is_gpu()) {
    // CPU shards overlap on the pool: the honest cost is the measured
    // wall time of the fan-out, not the sum of per-shard clocks (which
    // operator+= uses for sequential GPU launches).
    result.report.seconds = wall;
    result.report.gflops =
        wall > 0.0 ? result.report.total_flops / wall / 1e9 : 0.0;
  }
}

OpResult ShardedPlan::execute_disjoint(const OpRequest& request) const {
  const std::size_t k = plans_.size();
  const rank_t rank =
      request.kind == OpKind::kTtv ? 1 : request.factors->front().cols();
  OpResult result;
  result.output = DenseMatrix(partition_->dims[mode()], rank);

  std::vector<SimReport> reports(k);
  std::vector<std::function<void()>> runs;
  runs.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    runs.push_back([this, s, rank, &reports, &result, &request] {
      OpResult r = plans_[s]->execute(request);
      reports[s] = std::move(r.report);
      // Shard s produced nonzero rows ONLY inside its owned window (its
      // slice range; disjoint by construction), so moving that float
      // window into the shared output is the whole combine step -- the
      // single cast already happened inside the inner plan, and no other
      // shard touches these rows (TSan-checked in the race suites).
      const std::size_t begin =
          static_cast<std::size_t>(owned_rows_[s]) * rank;
      const std::size_t end =
          static_cast<std::size_t>(owned_rows_[s + 1]) * rank;
      const auto src = r.output.data();
      const auto dst = result.output.data();
      std::copy(src.begin() + begin, src.begin() + end, dst.begin() + begin);
    });
  }
  Timer timer;
  run_tasks(pool_, std::move(runs));
  const double wall = timer.seconds();

  for (std::size_t s = 0; s < k; ++s) {
    if (s == 0) {
      result.report = std::move(reports[s]);
    } else {
      result.report += reports[s];
    }
  }
  result.report.kernel = "ShardedDisjoint x" + std::to_string(k);
  finish_report(result, wall);
  return result;
}

OpResult ShardedPlan::execute_merge(const OpRequest& request) const {
  const std::size_t k = plans_.size();
  std::vector<Partial> partials(k);
  std::vector<std::function<void()>> runs;
  runs.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    runs.push_back([this, s, &partials, &request] {
      OpResult r = plans_[s]->execute(request);
      Partial& partial = partials[s];
      partial.report = std::move(r.report);
      partial.scalar = r.scalar;
      if (request.kind != OpKind::kFit) {
        // Arena-leased promote: the buffer comes back from reuse with
        // stale contents and is fully overwritten here.
        const auto data = r.output.data();
        partial.acc = ScratchLease(arena_, data.size());
        std::copy(data.begin(), data.end(), partial.acc.get().begin());
      }
    });
  }
  Timer timer;
  run_tasks(pool_, std::move(runs));
  const double wall = timer.seconds();

  OpResult result;
  bool first = true;
  for (Partial& partial : partials) {
    if (first) {
      result.report = std::move(partial.report);
      first = false;
    } else {
      result.report += partial.report;
    }
  }
  result.report.kernel = "Sharded x" + std::to_string(k);

  if (request.kind == OpKind::kFit) {
    // Partial inner products reduce in double; nothing to cast.
    for (const Partial& partial : partials) result.scalar += partial.scalar;
  } else {
    // Matrix ops: sum the shards' double partials, cast back to float
    // ONCE -- the whole sharded op rounds at a single boundary, matching
    // the reference kernels' promote-once contract.
    const rank_t rank =
        request.kind == OpKind::kTtv ? 1 : request.factors->front().cols();
    std::vector<std::span<const double>> accs;
    accs.reserve(k);
    for (const Partial& partial : partials) {
      accs.emplace_back(partial.acc.get());
    }
    result.output =
        reduce_shard_partials(partition_->dims[mode()], rank, accs);
  }
  finish_report(result, wall);
  return result;
}

OpResult ShardedPlan::execute(const OpRequest& request) const {
  check_request(request);
  if (plans_.size() == 1) {
    // Monolithic pass-through: no partial, no reduce -- the inner plan's
    // arithmetic verbatim (bitwise what the old single-shard reduce
    // produced, since float -> double -> float round-trips exactly).
    OpResult result = plans_.front()->execute(request);
    result.report.kernel = "Sharded x1";
    return result;
  }
  if (request.kind != OpKind::kFit && disjoint_output(request.mode)) {
    return execute_disjoint(request);
  }
  return execute_merge(request);
}

PlanRunResult ShardedPlan::run(const std::vector<DenseMatrix>& factors) const {
  OpRequest request;
  request.kind = OpKind::kMttkrp;
  request.mode = mode();
  request.factors = &factors;
  OpResult r = execute(request);
  return {std::move(r.output), std::move(r.report)};
}

}  // namespace bcsf
