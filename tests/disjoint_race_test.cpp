// Racing writers on the disjoint-output path (DESIGN.md §8).
//
// The disjoint-output execution has K shard tasks writing CONCURRENTLY
// into one shared DenseMatrix with no lock and no reduce -- correct only
// because each shard's owned row window is provably private.  This suite
// carries the `concurrency` ctest label so CI replays exactly that claim
// under ThreadSanitizer, at both layers:
//
//   * plan layer: concurrent execute() calls on one ShardedPlan over one
//     pool (shared scratch arena, shared inner plans, per-call shared
//     outputs);
//   * serving layer: partition-mode requests taking the disjoint path
//     (reduce_path == "disjoint") racing non-partition-mode merges,
//     FIT scalars, and shard-routed updates.
//
// Values ride the power-of-two grid of serve_test_util.hpp, so every
// response must also match the sequential reference BITWISE -- a torn or
// misrouted write is a hard mismatch even when TSan is not watching.
#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::append_nonzeros;
using serve_test::bitwise_equal;
using serve_test::exact_batch;
using serve_test::exact_factors;
using serve_test::exact_tensor;
using serve_test::run_threads;

constexpr std::uint64_t kSeed = 7100;

TEST(DisjointRace, PlanLevelRacingWritersStayExact) {
  const SparseTensor x = exact_tensor({64, 24, 20}, 6400, kSeed);
  const auto factors = exact_factors(x.dims(), 8, kSeed + 1);
  const auto vectors = exact_factors(x.dims(), 1, kSeed + 2);
  const DenseMatrix mttkrp_ref = mttkrp_reference(x, 0, *factors);
  const DenseMatrix ttv_ref = ttv_reference(x, 0, *vectors);

  ThreadPool pool(4);
  PlanOptions opts;
  opts.device = DeviceModel::tiny();
  opts.sharding.shards = 4;
  opts.sharding.shard_format = "coo";
  opts.sharding.pool = &pool;
  const PlanPtr plan = FormatRegistry::instance().create("sharded", x, 0, opts);
  auto* sharded = dynamic_cast<const ShardedPlan*>(plan.get());
  ASSERT_NE(sharded, nullptr);
  ASSERT_TRUE(sharded->disjoint_output(0))
      << "fixture must actually exercise the disjoint writers";

  // Six threads x eight calls: every call fans four racing window-writers
  // into its own shared output, all calls share the plan, pool, and
  // scratch arena.
  std::atomic<int> mismatches{0};
  run_threads(6, [&](int tid) {
    for (int i = 0; i < 8; ++i) {
      if ((tid + i) % 3 == 2) {
        OpRequest ttv;
        ttv.kind = OpKind::kTtv;
        ttv.mode = 0;
        ttv.factors = vectors.get();
        if (!bitwise_equal(ttv_ref, plan->execute(ttv).output)) ++mismatches;
      } else {
        if (!bitwise_equal(mttkrp_ref, plan->run(*factors).output)) {
          ++mismatches;
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DisjointRace, ServeReportsReducePathAndOverheadTimings) {
  const std::vector<index_t> dims{48, 20, 16};
  const SparseTensor x = exact_tensor(dims, 2400, kSeed + 10);
  const auto factors = exact_factors(dims, 4, kSeed + 11);
  const auto vectors = exact_factors(dims, 1, kSeed + 12);
  const auto lambda = std::make_shared<const std::vector<value_t>>(4, 0.5F);

  ServeOptions opts;
  opts.workers = 4;
  opts.shards = 4;
  opts.enable_upgrade = false;
  opts.plan.device = DeviceModel::tiny();
  TensorOpService service(opts);
  service.register_tensor("t", share_tensor(SparseTensor(x)));

  auto make = [&](index_t mode, OpKind op) {
    ServeRequest r;
    r.tensor = "t";
    r.mode = mode;
    r.op = op;
    r.factors = op == OpKind::kTtv ? vectors : factors;
    if (op == OpKind::kFit) r.lambda = lambda;
    return r;
  };

  std::vector<ServeRequest> batch;
  std::vector<std::pair<index_t, OpKind>> meta;
  for (index_t mode = 0; mode < 3; ++mode) {
    for (OpKind op : kAllOps) {
      batch.push_back(make(mode, op));
      meta.emplace_back(mode, op);
    }
  }
  auto futures = service.submit_batch(std::move(batch));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto [mode, op] = meta[i];
    SCOPED_TRACE(testing::Message() << "mode=" << mode << " op="
                                    << static_cast<int>(op));
    const ServeResponse r = futures[i].get();
    EXPECT_EQ(r.shards, 4u);
    // Partition-mode matrix ops skip the reduce; everything else merges.
    const bool disjoint = mode == 0 && op != OpKind::kFit;
    EXPECT_EQ(r.reduce_path, disjoint ? "disjoint" : "merge");
    EXPECT_GE(r.fanout_ms, 0.0);
    EXPECT_GE(r.reduce_ms, 0.0);
    switch (op) {
      case OpKind::kMttkrp:
        EXPECT_TRUE(
            bitwise_equal(mttkrp_reference(x, mode, *factors), r.output));
        break;
      case OpKind::kTtv:
        EXPECT_TRUE(bitwise_equal(ttv_reference(x, mode, *vectors), r.output));
        break;
      case OpKind::kFit:
        EXPECT_EQ(r.scalar, fit_inner_reference(x, *factors, lambda.get()));
        break;
      case OpKind::kStats:
        ADD_FAILURE() << "kStats never reaches a plan";
        break;
    }
  }

  // A monolithic tensor never fans out: its one-shard fast path reports
  // "single" and zero reduce time by construction.
  ServeOptions mono = opts;
  mono.shards = 1;
  TensorOpService single(mono);
  single.register_tensor("t", share_tensor(SparseTensor(x)));
  ServeRequest req = make(0, OpKind::kMttkrp);
  req.tensor = "t";
  const ServeResponse r = single.submit(std::move(req)).get();
  EXPECT_EQ(r.reduce_path, "single");
  EXPECT_TRUE(bitwise_equal(mttkrp_reference(x, 0, *factors), r.output));
}

TEST(DisjointRace, RacingDisjointQueriesUpdatesAndMerges) {
  const std::vector<index_t> dims{32, 24, 16};
  SparseTensor oracle = exact_tensor(dims, 2000, kSeed + 20);
  const auto factors = exact_factors(dims, 4, kSeed + 21);

  ServeOptions opts;
  opts.workers = 4;
  opts.shards = 4;
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 6.0;
  opts.plan.device = DeviceModel::tiny();
  TensorOpService service(opts);
  service.register_tensor("t", share_tensor(SparseTensor(oracle)));

  auto make = [&](index_t mode) {
    ServeRequest r;
    r.tensor = "t";
    r.mode = mode;
    r.op = OpKind::kMttkrp;
    r.factors = factors;
    return r;
  };

  // Disjoint-path queries (mode 0), merge-path queries (mode 1), and
  // multi-shard updates race: TSan watches the shared-output window
  // writes interleave with generation swaps and arena recycling.
  std::atomic<bool> bad{false};
  std::vector<SparseTensor> applied[2];
  run_threads(6, [&](int tid) {
    std::mt19937 rng(20'000 + tid);
    if (tid < 2) {
      for (int i = 0; i < 8; ++i) {
        SparseTensor batch = exact_batch(dims, 48, rng);
        applied[tid].push_back(batch);
        service.apply_updates("t", std::move(batch));
      }
    } else {
      const index_t mode = tid % 2 == 0 ? 0 : 1;
      for (int i = 0; i < 10; ++i) {
        const ServeResponse r = service.submit(make(mode)).get();
        const char* want = mode == 0 ? "disjoint" : "merge";
        if (r.reduce_path != want) bad = true;
        if (r.output.rows() != dims[mode] || r.output.cols() != 4) bad = true;
      }
    }
  });
  EXPECT_FALSE(bad.load()) << "reduce_path or shape drifted under race";
  service.wait_idle();

  // Quiesced exactness: addition commutes, so the accumulated tensor is
  // the only admissible final state on BOTH paths.
  for (const auto& log : applied) {
    for (const SparseTensor& batch : log) append_nonzeros(oracle, batch);
  }
  for (index_t mode = 0; mode < 3; ++mode) {
    const ServeResponse r = service.submit(make(mode)).get();
    EXPECT_TRUE(
        bitwise_equal(mttkrp_reference(oracle, mode, *factors), r.output));
  }
}

}  // namespace
}  // namespace bcsf
