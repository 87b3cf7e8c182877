// Regression tests for the serving-path bug sweep (DESIGN.md §8):
//
//   * merge-path scratch leases must return to the arena when a shard's
//     execute throws (they used to leak: the explicit release lived only
//     on the success path), in the service and in ShardedPlan alike --
//     and a single-shard tensor, which takes the same dispatch path,
//     must leave no lease or budget charge behind when its build or its
//     kernel throws;
//   * submit/dispatch racing a pool shutdown must resolve EVERY future
//     with a value or a bcsf::Error -- never broken_promise (dispatch
//     used to call the throwing submit mid-loop, stranding the promises
//     of partially dispatched batches);
//   * fanout_ms must measure the fan-out (first shard task start to last
//     shard finish), not pool queue wait ahead of the batch (it used to
//     be dispatch-relative, so a busy pool inflated it).
//
// The first and third tests need misbehaving plans, so the file
// registers two test-only formats: one that throws in execute() on
// shards containing mode-0 slice 0, one that sleeps in execute().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/format_registry.hpp"
#include "core/sharded_plan.hpp"
#include "core/tensor_op_plan.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"
#include "tensor/partitioner.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bcsf {
namespace {

/// Delegates everything to an inner cpu-coo plan, with a hook run before
/// each execution -- the hook is where a test format misbehaves.
class HookedPlan : public TensorOpPlan {
 public:
  using Hook = void (*)(bool flagged);

  HookedPlan(std::string format, PlanPtr inner, Hook hook, bool flagged)
      : TensorOpPlan(format, format, inner->mode()),
        inner_(std::move(inner)),
        hook_(hook),
        flagged_(flagged) {}

  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  bool is_gpu() const override { return inner_->is_gpu(); }
  PlanRunResult run(const std::vector<DenseMatrix>& factors) const override {
    hook_(flagged_);
    return inner_->run(factors);
  }
  OpResult execute(const OpRequest& request) const override {
    hook_(flagged_);
    return inner_->execute(request);
  }

 private:
  PlanPtr inner_;
  Hook hook_;
  bool flagged_;  ///< shard-specific condition computed at build time
};

bool touches_slice_zero(const SparseTensor& t) {
  for (offset_t z = 0; z < t.nnz(); ++z) {
    if (t.coord(0, z) == 0) return true;
  }
  return false;
}

FormatRegistry::Factory hooked_factory(const char* name, HookedPlan::Hook hook) {
  return [name, hook](const SparseTensor& t, index_t mode,
                      const PlanOptions& opts) -> PlanPtr {
    return std::make_unique<HookedPlan>(
        name, FormatRegistry::instance().create("cpu-coo", t, mode, opts),
        hook, touches_slice_zero(t));
  };
}

/// Throws on shards whose sub-tensor contains mode-0 slice 0 -- in a
/// K-way partition exactly shard 0, so the sibling shards succeed and
/// their leases are the ones at stake.
FormatRegistrar flaky_registrar{{
    "flaky-serve-test", "FlakyServeTest",
    "test-only: execute() throws on shards containing mode-0 slice 0",
    PlanKind::kCpu, true,
    hooked_factory("flaky-serve-test", [](bool flagged) {
      if (flagged) throw Error("flaky-serve-test: poisoned shard");
    })}};

constexpr int kSleepMs = 120;

/// Sleeps in execute() -- a controllable stand-in for a slow shard kernel.
FormatRegistrar sleepy_registrar{{
    "sleepy-serve-test", "SleepyServeTest",
    "test-only: execute() sleeps to occupy the worker pool",
    PlanKind::kCpu, true,
    hooked_factory("sleepy-serve-test", [](bool) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSleepMs));
    })}};

// ---------------------------------------------------------------------------
// Bug 1: merge-path leases must survive a failing sibling shard.
// ---------------------------------------------------------------------------

TEST(ServeBugs, MergePathLeasesReturnWhenAShardThrows) {
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 4;
  opts.upgrade_format = "flaky-serve-test";
  opts.upgrade_threshold = 1;
  opts.enable_compaction = false;
  TensorOpService service(opts);

  const std::vector<index_t> dims{64, 32, 16};
  SparseTensor x = serve_test::exact_tensor(dims, 4000, 11);
  const index_t origin[] = {0, 0, 0};
  x.push_back(origin, 1.0F);  // guarantee shard 0 is poisoned
  service.register_tensor("t", share_tensor(std::move(x)));
  const auto factors = serve_test::exact_factors(dims, 8, 12);

  // Prime mode 1 (the merge path: mode != partition mode): the first
  // query serves COO and crosses the threshold, launching the flaky
  // upgrade on every shard.
  ServeResponse primed = service.submit({"t", 1, factors}).get();
  EXPECT_EQ(primed.reduce_path, "merge");
  service.wait_idle();
  ASSERT_TRUE(service.upgraded("t", 1));
  const std::size_t pooled = service.scratch_pooled();
  EXPECT_GE(pooled, 4u) << "the priming query's partials must be pooled";

  // Shard 0 now throws in execute(); shards 1-3 still take merge-path
  // leases.  Every failing request must hand those leases back -- the
  // leak left the arena empty and steady-state traffic reallocating.
  for (int i = 0; i < 5; ++i) {
    auto future = service.submit({"t", 1, factors});
    EXPECT_THROW(future.get(), Error);
    service.wait_idle();
    EXPECT_EQ(service.scratch_pooled(), pooled)
        << "iteration " << i << " leaked merge-path leases";
  }

  // The failure is per (shard, mode): a mode still serving COO answers.
  const ServeResponse ok = service.submit({"t", 2, factors}).get();
  EXPECT_EQ(ok.op, OpKind::kMttkrp);
  EXPECT_FALSE(ok.upgraded);
}

TEST(ServeBugs, PlanMergePathLeasesReturnWhenAShardThrows) {
  // The plan-layer twin: ShardedPlan::execute_merge leases its partials
  // from its own arena, and a throwing shard must not strand them either.
  const std::vector<index_t> dims{64, 32, 16};
  SparseTensor x = serve_test::exact_tensor(dims, 4000, 13);
  const index_t origin[] = {0, 0, 0};
  x.push_back(origin, 1.0F);  // guarantee shard 0 is poisoned
  const auto factors = serve_test::exact_factors(dims, 8, 14);

  ThreadPool pool(2);
  PlanOptions opts;
  opts.sharding.shard_format = "flaky-serve-test";
  opts.sharding.pool = &pool;
  // Partitioned along mode 0, run on mode 1: the merge path.
  const ShardedPlan plan(share_partition(partition_tensor(x, 0, 4)), 1, opts);
  ASSERT_EQ(plan.shard_count(), 4u);
  ASSERT_FALSE(plan.disjoint_output(1));
  EXPECT_EQ(plan.scratch_pooled(), 0u);

  // Shard 0 throws; shards 1-3 each took a lease, and all three must be
  // back on the freelist once the error has propagated.
  EXPECT_THROW(plan.run(*factors), Error);
  EXPECT_EQ(plan.scratch_pooled(), 3u)
      << "the sibling shards' merge-path leases leaked";
}

TEST(ServeBugs, SingleShardThrowingBuildLeavesNoLeaseOrCharge) {
  // Every build throws, the build-free COO plan included, so no request
  // can be answered.  Each future must carry the bcsf::Error, and the
  // failed requests must leave the arena and the budget as they found
  // them.
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 1;
  opts.storage_budget_bytes = std::size_t{1} << 30;
  opts.enable_compaction = false;
  opts.build_fn = [](const std::string& format, const SparseTensor&, index_t,
                     const PlanOptions&) -> PlanPtr {
    throw Error("build_fn: refusing to build '" + format + "'");
  };
  TensorOpService service(opts);

  const std::vector<index_t> dims{32, 24, 16};
  service.register_tensor(
      "t", share_tensor(serve_test::exact_tensor(dims, 1500, 41)));
  std::mt19937 rng(42);
  service.apply_updates("t", serve_test::exact_batch(dims, 64, rng));
  const auto factors = serve_test::exact_factors(dims, 4, 43);
  const auto vectors = serve_test::exact_factors(dims, 1, 44);
  const std::size_t pooled = service.scratch_pooled();

  std::vector<ServeRequest> batch;
  for (index_t mode = 0; mode < dims.size(); ++mode) {
    batch.emplace_back("t", mode, factors, OpKind::kMttkrp);
    batch.emplace_back("t", mode, vectors, OpKind::kTtv);
    batch.emplace_back("t", mode, factors, OpKind::kFit);
  }
  for (auto& future : service.submit_batch(std::move(batch))) {
    EXPECT_THROW(future.get(), Error);
  }
  service.wait_idle();
  EXPECT_EQ(service.scratch_pooled(), pooled);
  EXPECT_EQ(service.plan_resident_bytes(), 0u);
  EXPECT_EQ(service.eviction_count(), 0u);
}

TEST(ServeBugs, SingleShardThrowingKernelLeavesNoLeaseOrCharge) {
  // The one shard contains slice 0, so once the flaky upgrade lands its
  // every execute() throws.  The priming query sweeps a delta (one
  // window lease, pooled afterwards); the failing ones must leave the
  // pool and the installed plan's budget charge exactly as they were.
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 1;
  opts.storage_budget_bytes = std::size_t{1} << 30;
  opts.upgrade_format = "flaky-serve-test";
  opts.upgrade_threshold = 1;
  opts.enable_compaction = false;
  TensorOpService service(opts);

  const std::vector<index_t> dims{64, 32, 16};
  SparseTensor x = serve_test::exact_tensor(dims, 4000, 51);
  const index_t origin[] = {0, 0, 0};
  x.push_back(origin, 1.0F);
  service.register_tensor("t", share_tensor(std::move(x)));
  std::mt19937 rng(52);
  service.apply_updates("t", serve_test::exact_batch(dims, 64, rng));
  const auto factors = serve_test::exact_factors(dims, 8, 53);
  const auto vectors = serve_test::exact_factors(dims, 1, 54);

  for (index_t mode = 0; mode < dims.size(); ++mode) {
    const ServeResponse primed = service.submit({"t", mode, factors}).get();
    EXPECT_EQ(primed.reduce_path, "single");
  }
  service.wait_idle();
  for (index_t mode = 0; mode < dims.size(); ++mode) {
    ASSERT_TRUE(service.upgraded("t", mode));
  }
  const std::size_t pooled = service.scratch_pooled();
  const std::size_t charged = service.plan_resident_bytes();
  EXPECT_GT(charged, 0u);

  for (int round = 0; round < 3; ++round) {
    std::vector<ServeRequest> batch;
    for (index_t mode = 0; mode < dims.size(); ++mode) {
      batch.emplace_back("t", mode, factors, OpKind::kMttkrp);
      batch.emplace_back("t", mode, vectors, OpKind::kTtv);
      batch.emplace_back("t", mode, factors, OpKind::kFit);
    }
    for (auto& future : service.submit_batch(std::move(batch))) {
      EXPECT_THROW(future.get(), Error);
    }
    service.wait_idle();
    EXPECT_EQ(service.scratch_pooled(), pooled) << "round " << round;
    EXPECT_EQ(service.plan_resident_bytes(), charged) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Bug 2: dispatch racing shutdown must never strand a future.
// ---------------------------------------------------------------------------

TEST(ServeBugs, SubmitRacingShutdownResolvesEveryFuture) {
  // Alternate shard counts so single-shard tasks (one per request) and
  // sharded (shard, batch) tasks both race the drain.
  for (const unsigned shards : {1u, 2u, 1u, 2u}) {
    SCOPED_TRACE(shards);
    ServeOptions opts;
    opts.workers = 2;
    opts.shards = shards;
    opts.enable_upgrade = false;
    opts.enable_compaction = false;
    TensorOpService service(opts);

    const std::vector<index_t> dims{32, 24, 16};
    service.register_tensor(
        "t", share_tensor(serve_test::exact_tensor(dims, 1500, 21)));
    const auto factors = serve_test::exact_factors(dims, 4, 22);

    constexpr int kThreads = 3;
    constexpr int kBatches = 12;
    std::vector<std::vector<std::future<ServeResponse>>> futures(kThreads);
    serve_test::run_threads(kThreads, [&](int ti) {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<ServeRequest> batch;
        for (int r = 0; r < 4; ++r) {
          batch.emplace_back("t", static_cast<index_t>(r % dims.size()),
                             factors);
        }
        auto got = service.submit_batch(std::move(batch));
        for (auto& f : got) futures[ti].push_back(std::move(f));
        if (ti == 0 && b == kBatches / 2) {
          service.shutdown();  // mid-stream drain, racing the submitters
        }
      }
    });

    int resolved = 0;
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        try {
          const ServeResponse response = f.get();
          EXPECT_GT(response.sequence, 0u);
          ++resolved;
        } catch (const Error&) {
          ++resolved;  // a real serve error is an acceptable resolution
        } catch (const std::future_error& e) {
          ADD_FAILURE() << "stranded future (broken promise): " << e.what();
        }
      }
    }
    EXPECT_EQ(resolved, kThreads * kBatches * 4);
  }
}

TEST(ServeBugs, SingleShardSubmitsRacingShutdownResolve) {
  // One-request submits of every op on a single-shard tensor, with
  // deltas to sweep, while another thread drains the pool: each future
  // resolves to a response or a bcsf::Error, never a broken promise.
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 1;
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 4;
  TensorOpService service(opts);

  const std::vector<index_t> dims{32, 24, 16};
  service.register_tensor(
      "t", share_tensor(serve_test::exact_tensor(dims, 1500, 61)));
  std::mt19937 rng(62);
  service.apply_updates("t", serve_test::exact_batch(dims, 64, rng));
  const auto factors = serve_test::exact_factors(dims, 4, 63);
  const auto vectors = serve_test::exact_factors(dims, 1, 64);

  constexpr int kThreads = 3;
  constexpr int kRequests = 40;
  std::vector<std::vector<std::future<ServeResponse>>> futures(kThreads);
  serve_test::run_threads(kThreads + 1, [&](int ti) {
    if (ti == kThreads) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      service.shutdown();
      return;
    }
    for (int i = 0; i < kRequests; ++i) {
      const OpKind op = kAllOps[static_cast<std::size_t>(i) % kAllOps.size()];
      const index_t mode = static_cast<index_t>((ti + i) % dims.size());
      futures[ti].push_back(service.submit(
          {"t", mode, op == OpKind::kTtv ? vectors : factors, op}));
    }
  });

  int resolved = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      try {
        EXPECT_GT(f.get().sequence, 0u);
        ++resolved;
      } catch (const Error&) {
        ++resolved;
      } catch (const std::future_error& e) {
        ADD_FAILURE() << "stranded future (broken promise): " << e.what();
      }
    }
  }
  EXPECT_EQ(resolved, kThreads * kRequests);
}

// ---------------------------------------------------------------------------
// Bug 3: fanout_ms excludes pool queue wait ahead of the batch.
// ---------------------------------------------------------------------------

TEST(ServeBugs, FanoutExcludesQueueWaitAheadOfTheBatch) {
  ServeOptions opts;
  opts.workers = 1;  // strict FIFO: the gate group runs before "fast"
  opts.shards = 2;
  opts.upgrade_format = "sleepy-serve-test";
  opts.upgrade_threshold = 1;
  opts.enable_compaction = false;
  TensorOpService service(opts);

  const std::vector<index_t> dims{32, 24, 16};
  service.register_tensor(
      "gate", share_tensor(serve_test::exact_tensor(dims, 1200, 31)));
  service.register_tensor(
      "fast", share_tensor(serve_test::exact_tensor(dims, 1200, 32)));
  const auto factors = serve_test::exact_factors(dims, 4, 33);

  // Land the sleepy upgrade on "gate" only; "fast" keeps serving COO.
  service.submit({"gate", 1, factors}).get();
  service.wait_idle();
  ASSERT_TRUE(service.upgraded("gate", 1));

  // One batch, gate first: its two shard sweeps sleep kSleepMs each on
  // the single worker before the fast request's sweeps even START.
  std::vector<ServeRequest> batch;
  batch.emplace_back("gate", 1, factors);
  batch.emplace_back("fast", 1, factors);
  const auto t0 = std::chrono::steady_clock::now();
  auto futures = service.submit_batch(std::move(batch));
  const ServeResponse fast = futures[1].get();
  const double fast_latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const ServeResponse gate = futures[0].get();

  // The fast request WAITED behind ~2 * kSleepMs of gate work...
  EXPECT_GE(fast_latency_ms, 2 * kSleepMs * 0.8);
  // ...but its fan-out is just its own two cheap COO sweeps.  The old
  // dispatch-relative stamp billed the whole queue wait here.
  EXPECT_LT(fast.fanout_ms, kSleepMs * 0.8)
      << "fanout_ms is billing pool queue wait again";
  // The gate request's fan-out legitimately spans its two sleeps.
  EXPECT_GE(gate.fanout_ms, 2 * kSleepMs * 0.8);
}

}  // namespace
}  // namespace bcsf
