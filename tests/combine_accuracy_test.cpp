// Real-valued accuracy of the sharded combine (DESIGN.md §8).
//
// The grid suites (sharded_plan_test, sharded_serve_test,
// disjoint_race_test) ride values on which every sum is exact, so they
// cannot see a combine that rounds in the wrong place.  Here tensor
// values, delta values and factors are signed and off-grid, so
// summation order matters, and every response must stay within the fp32
// forward-error bound engine_test holds the kernels to
// (forward_error.hpp), measured against the double references on
// base + every delta chunk:
//
//   * the service at one shard and at four, for MTTKRP, TTV and FIT, on
//     the partition mode (disjoint path at four shards) and the other
//     modes (merge path), on COO and on upgraded B-CSF plans;
//   * ShardedPlan at one shard and at four, on the same split of modes;
//   * a single-shard MTTKRP or TTV response equals its plan's execute()
//     followed by the float in-place mttkrp_delta_accumulate, bit for
//     bit -- one promote, one double sweep, one cast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "forward_error.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::append_nonzeros;
using serve_test::bitwise_equal;
using test::forward_error_bound;

constexpr std::uint64_t kSeed = 8800;
constexpr rank_t kRank = 8;
const std::vector<index_t> kDims{64, 40, 48};

/// Distinct random coordinates with signed real values in [-1, 1].
SparseTensor real_tensor(offset_t nnz, std::uint64_t seed) {
  SparseTensor x = generate_uniform(kDims, nnz, seed);
  std::mt19937 rng(static_cast<std::uint32_t>(seed * 7 + 1));
  std::uniform_real_distribution<value_t> dist(-1.0F, 1.0F);
  for (value_t& v : x.values()) v = dist(rng);
  return x;
}

/// Additive update batch: random coordinates (collisions with stored
/// nonzeros included), signed real values.
SparseTensor real_batch(offset_t nnz, std::mt19937& rng) {
  std::uniform_real_distribution<value_t> dist(-1.0F, 1.0F);
  SparseTensor b(kDims);
  std::vector<index_t> coords(kDims.size());
  for (offset_t i = 0; i < nnz; ++i) {
    for (std::size_t m = 0; m < kDims.size(); ++m) {
      coords[m] = static_cast<index_t>(rng() % kDims[m]);
    }
    b.push_back(coords, dist(rng));
  }
  return b;
}

SparseTensor abs_tensor(const SparseTensor& x) {
  SparseTensor out = x;
  for (value_t& v : out.values()) v = std::abs(v);
  return out;
}

std::vector<DenseMatrix> abs_matrices(const std::vector<DenseMatrix>& in) {
  std::vector<DenseMatrix> out = in;
  for (DenseMatrix& m : out) {
    for (value_t& v : m.data()) v = std::abs(v);
  }
  return out;
}

std::vector<offset_t> row_nnz(const SparseTensor& x, index_t mode) {
  std::vector<offset_t> rows(x.dim(mode), 0);
  for (offset_t z = 0; z < x.nnz(); ++z) ++rows[x.coord(mode, z)];
  return rows;
}

/// The double references on `x` (base + deltas, uncoalesced: duplicate
/// coordinates are separate terms, as in the served sums) and the bounds.
struct Oracle {
  Oracle(const SparseTensor& tensor, std::uint64_t seed) : x(tensor) {
    factors = std::make_shared<const std::vector<DenseMatrix>>(
        make_random_factors(kDims, kRank, seed, -1.0F, 1.0F));
    vectors = std::make_shared<const std::vector<DenseMatrix>>(
        make_random_factors(kDims, 1, seed + 1, -1.0F, 1.0F));
    lambda = std::make_shared<const std::vector<value_t>>(
        std::vector<value_t>{0.75F, -1.25F, 0.5F, 1.0F, -0.3F, 2.0F, 0.1F,
                             -0.9F});
  }

  /// Largest |error| / bound over an MTTKRP (rank kRank) or TTV output.
  double matrix_ratio(const DenseMatrix& got, index_t mode, bool ttv) const {
    const auto& in = ttv ? *vectors : *factors;
    const DenseMatrix ref = ttv ? ttv_reference(x, mode, in)
                                : mttkrp_reference(x, mode, in);
    const DenseMatrix abs_ref =
        ttv ? ttv_reference(abs_tensor(x), mode, abs_matrices(in))
            : mttkrp_reference(abs_tensor(x), mode, abs_matrices(in));
    EXPECT_EQ(got.rows(), ref.rows());
    EXPECT_EQ(got.cols(), ref.cols());
    const std::vector<offset_t> rows = row_nnz(x, mode);
    double worst = 0.0;
    for (index_t i = 0; i < ref.rows(); ++i) {
      for (rank_t r = 0; r < ref.cols(); ++r) {
        const double err =
            std::abs(static_cast<double>(got(i, r)) - ref(i, r));
        const double bound =
            forward_error_bound(rows[i], x.order(), abs_ref(i, r));
        if (bound == 0.0) {
          EXPECT_EQ(err, 0.0) << "row " << i << " col " << r;
        } else {
          worst = std::max(worst, err / bound);
        }
      }
    }
    return worst;
  }

  /// |error| / bound for a FIT scalar anchored at `mode`: the MTTKRP
  /// route's per-entry bounds, weighted by |lambda_r A_mode(i, r)|, sum to
  /// at most the bound at the mode's longest row over <|X|, |Xhat|>.
  double fit_ratio(double got, index_t mode) const {
    const double ref = fit_inner_reference(x, *factors, lambda.get());
    std::vector<value_t> abs_lambda = *lambda;
    for (value_t& v : abs_lambda) v = std::abs(v);
    const double abs_sum = fit_inner_reference(
        abs_tensor(x), abs_matrices(*factors), &abs_lambda);
    const std::vector<offset_t> rows = row_nnz(x, mode);
    const offset_t longest = *std::max_element(rows.begin(), rows.end());
    return std::abs(got - ref) /
           forward_error_bound(longest, x.order(), abs_sum);
  }

  SparseTensor x;
  std::shared_ptr<const std::vector<DenseMatrix>> factors;
  std::shared_ptr<const std::vector<DenseMatrix>> vectors;
  std::shared_ptr<const std::vector<value_t>> lambda;
};

ServeRequest make_request(const Oracle& oracle, index_t mode, OpKind op) {
  ServeRequest r("t", mode, op == OpKind::kTtv ? oracle.vectors : oracle.factors,
                 op);
  if (op == OpKind::kFit) r.lambda = oracle.lambda;
  return r;
}

/// Registers a real-valued base, applies three delta chunks, and (when
/// `structured`) lands B-CSF on every shard and mode before returning.
/// Compaction is off, so every response sweeps all three chunks.
std::unique_ptr<TensorOpService> serve_with_deltas(unsigned shards,
                                                   bool structured,
                                                   SparseTensor& merged) {
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = shards;
  opts.enable_compaction = false;
  opts.enable_upgrade = structured;
  opts.upgrade_format = "bcsf";
  opts.upgrade_threshold = 1;
  opts.plan.device = DeviceModel::tiny();
  auto service = std::make_unique<TensorOpService>(opts);
  merged = real_tensor(3000, kSeed);
  service->register_tensor("t", share_tensor(SparseTensor(merged)));
  std::mt19937 rng(kSeed + 3);
  for (int chunk = 0; chunk < 3; ++chunk) {
    SparseTensor batch = real_batch(150, rng);
    append_nonzeros(merged, batch);
    service->apply_updates("t", std::move(batch));
  }
  return service;
}

void prime_upgrades(TensorOpService& service, const Oracle& oracle) {
  for (index_t mode = 0; mode < kDims.size(); ++mode) {
    service.submit(make_request(oracle, mode, OpKind::kMttkrp)).get();
  }
  service.wait_idle();
  for (index_t mode = 0; mode < kDims.size(); ++mode) {
    ASSERT_TRUE(service.upgraded("t", mode)) << "mode " << mode;
  }
}

class ServeCombineAccuracy
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(ServeCombineAccuracy, ResponsesStayWithinTheForwardErrorBound) {
  const auto [shards, structured] = GetParam();
  SparseTensor merged;
  auto service = serve_with_deltas(shards, structured, merged);
  ASSERT_EQ(service->shard_count("t"), shards);
  const Oracle oracle(merged, kSeed + 10);
  if (structured) prime_upgrades(*service, oracle);

  std::vector<ServeRequest> batch;
  for (index_t mode = 0; mode < kDims.size(); ++mode) {
    for (OpKind op : kAllOps) batch.push_back(make_request(oracle, mode, op));
  }
  auto futures = service->submit_batch(std::move(batch));
  std::size_t next = 0;
  for (index_t mode = 0; mode < kDims.size(); ++mode) {
    for (OpKind op : kAllOps) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards << " mode="
                                      << mode << " op="
                                      << static_cast<int>(op));
      const ServeResponse r = futures[next++].get();
      EXPECT_EQ(r.delta_nnz, 450u);
      // The fixture covers both combines: at four shards the partition
      // mode's matrix ops write row windows, everything else merges.
      const bool window = mode == 0 && op != OpKind::kFit;
      EXPECT_EQ(r.reduce_path,
                shards == 1 ? "single" : window ? "disjoint" : "merge");
      if (op == OpKind::kFit) {
        EXPECT_LE(oracle.fit_ratio(r.scalar, mode), 1.0);
      } else {
        EXPECT_LE(oracle.matrix_ratio(r.output, mode, op == OpKind::kTtv),
                  1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndPlans, ServeCombineAccuracy,
    ::testing::Combine(::testing::Values(1u, 4u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, bool>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_bcsf" : "_coo");
    });

TEST(ShardedPlanCombineAccuracy, OutputsStayWithinTheForwardErrorBound) {
  const Oracle oracle(real_tensor(3000, kSeed + 20), kSeed + 21);
  for (const unsigned shards : {1u, 4u}) {
    // One partition along mode 0 serves every mode: mode 0 takes the
    // window path, modes 1 and 2 merge (at four shards).
    const PartitionPtr partition =
        share_partition(partition_tensor(oracle.x, 0, shards));
    ASSERT_EQ(partition->size(), shards);
    for (const char* inner : {"coo", "bcsf"}) {
      for (index_t mode = 0; mode < kDims.size(); ++mode) {
        SCOPED_TRACE(testing::Message() << inner << " shards=" << shards
                                        << " mode=" << mode);
        PlanOptions opts;
        opts.device = DeviceModel::tiny();
        opts.sharding.shard_format = inner;
        const ShardedPlan plan(partition, mode, opts);
        if (shards > 1) {
          EXPECT_EQ(plan.disjoint_output(mode), mode == 0);
        }

        OpRequest req;
        req.mode = mode;
        req.kind = OpKind::kMttkrp;
        req.factors = oracle.factors.get();
        EXPECT_LE(oracle.matrix_ratio(plan.execute(req).output, mode, false),
                  1.0);
        req.kind = OpKind::kTtv;
        req.factors = oracle.vectors.get();
        EXPECT_LE(oracle.matrix_ratio(plan.execute(req).output, mode, true),
                  1.0);
        req.kind = OpKind::kFit;
        req.factors = oracle.factors.get();
        req.lambda = oracle.lambda.get();
        EXPECT_LE(oracle.fit_ratio(plan.execute(req).scalar, mode), 1.0);
      }
    }
  }
}

TEST(SingleShardServe, ResponseIsPlanPlusFloatDeltaSweep) {
  for (const bool structured : {false, true}) {
    SCOPED_TRACE(structured ? "bcsf" : "coo");
    SparseTensor merged;
    auto service = serve_with_deltas(1, structured, merged);
    const Oracle oracle(merged, kSeed + 30);
    if (structured) prime_upgrades(*service, oracle);
    const TensorSnapshot snap = service->snapshot("t");
    ASSERT_EQ(snap.deltas.size(), 3u);

    for (index_t mode = 0; mode < kDims.size(); ++mode) {
      for (OpKind op : kAllOps) {
        SCOPED_TRACE(testing::Message() << "mode=" << mode << " op="
                                        << static_cast<int>(op));
        const ServeResponse r =
            service->submit(make_request(oracle, mode, op)).get();
        ASSERT_EQ(r.snapshot_version, snap.version);
        OpRequest req;
        req.kind = op;
        req.mode = mode;
        req.factors =
            op == OpKind::kTtv ? oracle.vectors.get() : oracle.factors.get();
        req.lambda = op == OpKind::kFit ? oracle.lambda.get() : nullptr;
        OpResult expected = r.plan->execute(req);
        if (op == OpKind::kFit) {
          EXPECT_EQ(r.scalar, expected.scalar + fit_inner_delta(
                                                    snap.deltas, *req.factors,
                                                    req.lambda));
        } else {
          mttkrp_delta_accumulate(snap.deltas, mode, *req.factors,
                                  expected.output);
          EXPECT_TRUE(bitwise_equal(expected.output, r.output));
        }
      }
    }
  }
}

}  // namespace
}  // namespace bcsf
