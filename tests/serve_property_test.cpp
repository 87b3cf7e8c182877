// Property suite for TensorOpService (DESIGN.md §5): random batched
// workloads -- random shapes, formats, modes, worker counts, and upgrade
// thresholds -- flow through the service, and EVERY response must match
// the sequential mttkrp_reference for its (mode, factors), including
// responses served while an async format upgrade swaps the delegate
// underneath them.
//
// Like concurrent_cache_test, the format pool is simulated-GPU formats
// plus the sequential reference so the suite is ThreadSanitizer-clean by
// construction (no OpenMP runtime in the loop).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::ref_scale;

/// Reference outputs per (mode, factor-set) for one tensor.
struct References {
  std::vector<std::vector<DenseMatrix>> by_factors;  // [factor_set][mode]
  std::vector<FactorsPtr> factor_sets;

  References(const SparseTensor& x, rank_t rank, int sets,
             std::uint64_t seed) {
    for (int s = 0; s < sets; ++s) {
      auto factors = std::make_shared<const std::vector<DenseMatrix>>(
          make_random_factors(x.dims(), rank, seed + 101 * s));
      std::vector<DenseMatrix> per_mode;
      for (index_t m = 0; m < x.order(); ++m) {
        per_mode.push_back(mttkrp_reference(x, m, *factors));
      }
      factor_sets.push_back(std::move(factors));
      by_factors.push_back(std::move(per_mode));
    }
  }
};

// The acceptance scenario: a deterministic run that OBSERVES the upgrade
// swap -- early responses served by the zero-preprocessing COO plan, late
// responses by the structured plan (different plan identity), and every
// single one equal to the reference.
TEST(MttkrpService, AsyncUpgradeSwapsPlanWhileResultsStayCorrect) {
  PowerLawConfig config;
  config.dims = {50, 40, 60};
  config.target_nnz = 4000;
  config.slice_alpha = 0.8;
  config.fiber_alpha = 0.8;
  config.max_fiber_len = 32;
  config.seed = 1234;
  SparseTensor x = generate_power_law(config);
  const index_t mode = 0;
  References refs(x, 16, 1, 77);

  ServeOptions opts;
  opts.workers = 4;
  opts.initial_format = "coo";
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 8;  // break-even crossed inside wave 1
  TensorOpService service(opts);
  service.register_tensor("t", share_tensor(std::move(x)));
  EXPECT_EQ(service.current_format("t", mode), "coo");

  const DenseMatrix& ref = refs.by_factors[0][mode];
  const double tol = 1e-4 * ref_scale(ref);
  std::set<const TensorOpPlan*> identities;
  std::set<std::string> formats;
  int checked = 0;
  // Three waves with drain points so the background upgrade task (queued
  // FIFO behind wave-1 requests) gets scheduled between waves; wave 2
  // typically straddles the swap, wave 3 is fully post-swap.
  auto run_wave = [&](int n) {
    std::vector<ServeRequest> batch(
        static_cast<std::size_t>(n),
        ServeRequest{"t", mode, refs.factor_sets[0]});
    for (auto& future : service.submit_batch(std::move(batch))) {
      ServeResponse r = future.get();
      identities.insert(r.plan.get());
      formats.insert(r.served_format);
      EXPECT_LT(ref.max_abs_diff(r.output), tol)
          << "sequence " << r.sequence << " served by " << r.served_format;
      ++checked;
    }
  };
  run_wave(16);  // crosses the threshold; serves from COO meanwhile
  run_wave(16);  // swap lands somewhere in here
  service.wait_idle();  // background build definitely finished
  EXPECT_TRUE(service.upgraded("t", mode));
  EXPECT_EQ(service.current_format("t", mode), "bcsf");
  run_wave(16);  // entirely on the structured delegate

  // The swap was observed in-stream: both delegates served traffic under
  // exactly two plan identities, and every response above was correct.
  EXPECT_EQ(identities.size(), 2u) << "expected exactly old + new plan";
  EXPECT_TRUE(formats.count("coo")) << "no response rode the initial plan";
  EXPECT_TRUE(formats.count("bcsf")) << "no response rode the upgrade";
  EXPECT_EQ(checked, 48);
  EXPECT_EQ(service.call_count("t"), 48u);
}

TEST(MttkrpService, RandomBatchedWorkloadsMatchReference) {
  std::mt19937 rng(20260731);
  const std::vector<std::string> upgrade_pool = {"bcsf", "csl", "gpu-csf",
                                                 "hbcsf", "auto"};
  const std::vector<std::string> initial_pool = {"coo", "reference"};

  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const index_t order = (trial % 2 == 0) ? 3 : 4;
    std::uniform_int_distribution<index_t> dim_dist(8, 32);
    std::vector<index_t> dims;
    for (index_t m = 0; m < order; ++m) dims.push_back(dim_dist(rng));
    // Clamp to half the cell count so the draw can never exceed what
    // generate_uniform can place, whatever the stdlib's RNG mapping.
    offset_t cells = 1;
    for (index_t d : dims) cells *= d;
    std::uniform_int_distribution<offset_t> nnz_dist(400, 2500);
    const offset_t nnz = std::min<offset_t>(nnz_dist(rng), cells / 2);
    SparseTensor x = generate_uniform(dims, nnz, 1000 + 7 * trial);

    const rank_t rank = (trial % 3 == 0) ? 4 : 8;
    References refs(x, rank, /*sets=*/2, 5000 + trial);

    ServeOptions opts;
    opts.workers = 1 + (rng() % 8);
    opts.initial_format = initial_pool[rng() % initial_pool.size()];
    opts.upgrade_format = upgrade_pool[rng() % upgrade_pool.size()];
    // Threshold 0 defers to the Fig-10 policy (which may say "never" for
    // these small tensors); otherwise upgrade somewhere mid-workload.
    opts.upgrade_threshold =
        (trial % 3 == 2) ? 0.0 : static_cast<double>(1 + rng() % 16);
    TensorOpService service(opts);
    service.register_tensor("x", share_tensor(std::move(x)));

    // Several batches so later ones straddle/follow the upgrade swap.
    std::uniform_int_distribution<index_t> mode_dist(0, order - 1);
    for (int wave = 0; wave < 4; ++wave) {
      std::vector<ServeRequest> batch;
      std::vector<std::pair<int, index_t>> expected_key;  // (set, mode)
      for (int i = 0; i < 12; ++i) {
        const int set = static_cast<int>(rng() % refs.factor_sets.size());
        const index_t mode = mode_dist(rng);
        batch.push_back({"x", mode, refs.factor_sets[set]});
        expected_key.emplace_back(set, mode);
      }
      auto futures = service.submit_batch(std::move(batch));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        ServeResponse r = futures[i].get();
        const auto [set, mode] = expected_key[i];
        const DenseMatrix& ref = refs.by_factors[set][mode];
        EXPECT_LT(ref.max_abs_diff(r.output), 1e-4 * ref_scale(ref))
            << "wave " << wave << " req " << i << " mode " << mode
            << " served by " << r.served_format;
      }
    }
    service.wait_idle();
    EXPECT_EQ(service.call_count("x"), 48u);
  }
}

TEST(MttkrpService, ServesMultipleTensorsIndependently) {
  SparseTensor a = generate_uniform({20, 20, 20}, 900, 3);
  SparseTensor b = generate_uniform({12, 18, 24, 10}, 1200, 4);
  References refs_a(a, 8, 1, 11);
  References refs_b(b, 8, 1, 22);

  ServeOptions opts;
  opts.workers = 4;
  opts.upgrade_format = "gpu-csf";
  opts.upgrade_threshold = 4;
  TensorOpService service(opts);
  service.register_tensor("a", share_tensor(std::move(a)));
  service.register_tensor("b", share_tensor(std::move(b)));
  EXPECT_TRUE(service.has_tensor("a"));
  EXPECT_FALSE(service.has_tensor("c"));
  EXPECT_THROW(service.submit({"c", 0, refs_a.factor_sets[0]}), Error);
  EXPECT_THROW(service.submit({"b", 4, refs_b.factor_sets[0]}), Error);

  std::vector<ServeRequest> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back({"a", static_cast<index_t>(i % 3), refs_a.factor_sets[0]});
    batch.push_back({"b", static_cast<index_t>(i % 4), refs_b.factor_sets[0]});
  }
  auto futures = service.submit_batch(std::move(batch));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResponse r = futures[i].get();
    const bool is_a = (i % 2 == 0);
    const index_t mode = static_cast<index_t>((i / 2) % (is_a ? 3 : 4));
    const DenseMatrix& ref =
        is_a ? refs_a.by_factors[0][mode] : refs_b.by_factors[0][mode];
    EXPECT_LT(ref.max_abs_diff(r.output), 1e-4 * ref_scale(ref));
  }
  service.wait_idle();
  EXPECT_EQ(service.call_count("a"), 10u);
  EXPECT_EQ(service.call_count("b"), 10u);
}

// The service refuses a non-COO initial format: the whole point of the
// serve-then-upgrade design is that the first request never waits on a
// structured build.
TEST(MttkrpService, RejectsPreprocessedInitialFormat) {
  ServeOptions opts;
  opts.initial_format = "bcsf";
  EXPECT_THROW(TensorOpService{opts}, Error);
}

// Destroying the service while accepted requests are still draining must
// complete every one of them -- including requests that cross the upgrade
// threshold mid-drain, whose background-build submission races the pool
// shutdown (regression: the service's own upgrade submit used to throw
// into the request handler and poison the response future).
TEST(MttkrpService, DestructionCompletesAcceptedRequests) {
  SparseTensor x = generate_uniform({20, 20, 20}, 800, 17);
  References refs(x, 4, 1, 44);
  const DenseMatrix& ref = refs.by_factors[0][0];
  const double tol = 1e-4 * ref_scale(ref);

  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<std::future<ServeResponse>> futures;
    {
      ServeOptions opts;
      opts.workers = 1;
      opts.upgrade_format = "bcsf";
      opts.upgrade_threshold = 1;  // every request wants to launch a build
      TensorOpService service(opts);
      service.register_tensor("x", share_tensor(SparseTensor(x)));
      futures = service.submit_batch(
          std::vector<ServeRequest>(8, ServeRequest{"x", 0,
                                                      refs.factor_sets[0]}));
    }  // destructor drains the queue while futures are outstanding
    for (auto& future : futures) {
      ServeResponse r = future.get();  // must not throw
      EXPECT_LT(ref.max_abs_diff(r.output), tol) << "sequence " << r.sequence;
    }
  }
}

// Upgrades can also be disabled outright: the delegate never swaps.
TEST(MttkrpService, DisabledUpgradeStaysOnInitialPlan) {
  SparseTensor x = generate_uniform({25, 25, 25}, 1500, 9);
  References refs(x, 8, 1, 33);
  ServeOptions opts;
  opts.workers = 2;
  opts.enable_upgrade = false;
  opts.upgrade_threshold = 1;
  TensorOpService service(opts);
  service.register_tensor("x", share_tensor(std::move(x)));

  std::vector<ServeRequest> batch(20,
                                   ServeRequest{"x", 0, refs.factor_sets[0]});
  for (auto& f : service.submit_batch(std::move(batch))) {
    EXPECT_EQ(f.get().served_format, "coo");
  }
  service.wait_idle();
  EXPECT_FALSE(service.upgraded("x", 0));
  EXPECT_EQ(service.current_format("x", 0), "coo");
}

}  // namespace
}  // namespace bcsf
