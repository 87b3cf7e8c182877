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

  if (partition_->disjoint_slice_ranges()) {
    owned_rows_ = partition_->owned_row_begins();
  }

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

OpResult ShardedPlan::execute(const OpRequest& request) const {
  check_request(request);
  const std::size_t k = plans_.size();
  ShardCombine combine(request, partition_->dims, partition_->mode, k,
                       owned_rows_, arena_);
  std::vector<std::function<void()>> runs;
  runs.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    runs.push_back([this, s, &combine, &request] {
      combine.add(s, plans_[s]->execute(request));
    });
  }
  Timer timer;
  run_tasks(pool_, std::move(runs));
  const double wall = timer.seconds();

  OpResult result = combine.finish();
  result.report.kernel =
      (combine.windowed() ? "ShardedDisjoint x" : "Sharded x") +
      std::to_string(k);
  if (!is_gpu()) {
    // CPU shards overlap on the pool: the honest cost is the measured
    // wall time of the fan-out, not the sum of per-shard clocks (which
    // operator+= uses for sequential GPU launches).
    result.report.seconds = wall;
    result.report.gflops =
        wall > 0.0 ? result.report.total_flops / wall / 1e9 : 0.0;
  }
  return result;
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
