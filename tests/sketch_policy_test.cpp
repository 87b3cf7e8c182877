// Sketch-backed planning tests (DESIGN.md §12): the sketch overload of
// auto_select_format must reproduce the exact policy's decisions across
// the registry corpus generators, and the serving path must do ZERO
// O(nnz) exact-stats work once sketches exist -- asserted through the
// exact_stat_scan_count() hook across a full register/query/update/
// upgrade/compact lifecycle.  The sketch_ingest_count() hook pins how
// often registration and compaction ingest nonzeros into sketches.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/auto_policy.hpp"
#include "serve/tensor_op_service.hpp"
#include "serve_test_util.hpp"
#include "tensor/generator.hpp"
#include "tensor/sketch.hpp"
#include "tensor/sparse_tensor.hpp"
#include "tensor/tensor_stats.hpp"

namespace bcsf {
namespace {

/// The decision corpus: one scaled-down twin per structural regime the §V
/// policy distinguishes (uniform/ultra-sparse COO, all-singleton-fiber
/// CSL, heavy-slice CSF/B-CSF, mixed HB-CSF), over several seeds.
std::vector<SparseTensor> decision_corpus() {
  std::vector<SparseTensor> corpus;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    corpus.push_back(generate_uniform({400, 300, 200}, 5000, seed));

    PowerLawConfig csl;
    csl.dims = {300, 250, 200};
    csl.target_nnz = 20000;
    csl.fixed_fiber_len = 1;
    csl.seed = seed;
    corpus.push_back(generate_power_law(csl));

    PowerLawConfig heavy;
    heavy.dims = {400, 300, 200};
    heavy.target_nnz = 40000;
    heavy.slice_alpha = 1.1;
    heavy.fiber_alpha = 1.3;
    heavy.seed = seed;
    corpus.push_back(generate_power_law(heavy));

    PowerLawConfig mixed;
    mixed.dims = {500, 300, 200};
    mixed.target_nnz = 30000;
    mixed.singleton_slice_frac = 0.3;
    mixed.seed = seed;
    corpus.push_back(generate_power_law(mixed));
  }
  return corpus;
}

TEST(SketchPolicy, ReproducesExactDecisionsOnCorpus) {
  // Tolerance band (documented in DESIGN.md §12): a mismatch is accepted
  // only when BOTH paths sit within 2% of the dominant_fraction gate --
  // i.e. the estimated CSL fraction straddles the 0.95 knife edge, where
  // the two formats are within noise of each other anyway.  Everywhere
  // else the sketch must reproduce the exact format verbatim.
  AutoPolicyOptions policy;
  int compared = 0;
  for (const SparseTensor& t : decision_corpus()) {
    const TensorSketch sketch = TensorSketch::build(t);
    for (index_t mode = 0; mode < t.order(); ++mode) {
      const AutoDecision exact = auto_select_format(t, mode, policy);
      const AutoDecision approx = auto_select_format(sketch, mode, policy);
      ++compared;
      if (approx.format == exact.format) continue;
      const double gate = policy.dominant_fraction;
      const auto near_gate = [gate](const AutoDecision& d) {
        return std::abs(d.coo_slice_fraction - gate) < 0.02 ||
               std::abs(d.coo_slice_fraction + d.csl_slice_fraction - gate) <
                   0.02;
      };
      EXPECT_TRUE(near_gate(exact) && near_gate(approx))
          << "mode " << mode << ": sketch chose '" << approx.format
          << "', exact chose '" << exact.format
          << "' away from the dominance gate\nexact: " << exact.to_string()
          << "\nsketch: " << approx.to_string();
    }
  }
  EXPECT_GE(compared, 36);  // 12 tensors x 3 modes
}

TEST(SketchPolicy, BreakevenAgreesWhenFormatsAgree) {
  const SparseTensor t = generate_uniform({200, 200, 200}, 20000, 9);
  const TensorSketch sketch = TensorSketch::build(t);
  const AutoDecision exact = auto_select_format(t, 0);
  const AutoDecision approx = auto_select_format(sketch, 0);
  ASSERT_EQ(approx.format, exact.format);
  if (std::isfinite(exact.breakeven_calls)) {
    // Break-even depends on S, F and nnz; only F is estimated (~1.6%).
    EXPECT_NEAR(approx.breakeven_calls, exact.breakeven_calls,
                0.1 * exact.breakeven_calls + 1.0);
  } else {
    EXPECT_FALSE(std::isfinite(approx.breakeven_calls));
  }
}

/// Drives a full serving lifecycle and returns how many exact O(nnz)
/// stat scans it triggered.
std::uint64_t scans_during_lifecycle(bool sketch_policy) {
  const std::uint64_t before = exact_stat_scan_count();
  {
    ServeOptions opts;
    opts.workers = 2;
    opts.shards = 3;
    opts.upgrade_threshold = 2.0;
    opts.compact_min_nnz = 64;
    opts.compact_threshold = 0.05;
    TensorOpService service(opts);
    if (!sketch_policy) TensorOpServiceTestPeer::use_exact_policy(service);

    PowerLawConfig config;
    config.dims = {200, 150, 100};
    config.target_nnz = 12000;
    config.slice_alpha = 1.2;
    config.seed = 17;
    service.register_tensor("t", share_tensor(generate_power_law(config)));

    auto factors = std::make_shared<const std::vector<DenseMatrix>>([] {
      std::vector<DenseMatrix> f;
      f.emplace_back(200, 8);
      f.emplace_back(150, 8);
      f.emplace_back(100, 8);
      for (auto& m : f) m.randomize(5);
      return f;
    }());

    for (int round = 0; round < 3; ++round) {
      // Queries on every mode (drives policy resolution + upgrades)...
      std::vector<ServeRequest> batch;
      for (index_t mode = 0; mode < 3; ++mode) {
        batch.emplace_back("t", mode, factors);
      }
      for (auto& f : service.submit_batch(std::move(batch))) f.get();
      // ...updates big enough to trip compaction (re-decision path)...
      service.apply_updates(
          "t", generate_uniform({200, 150, 100}, 2000, 900 + round));
      // ...and the approximate-stats op.
      ServeRequest stats("t", 0, nullptr, OpKind::kStats);
      service.submit(std::move(stats)).get();
      service.wait_idle();
    }
    service.wait_idle();
  }
  return exact_stat_scan_count() - before;
}

TEST(SketchPolicy, ServingPathDoesZeroExactScansWithSketches) {
  // The counting hook must actually count (otherwise the zero below is
  // vacuous): the exact-policy service performs O(nnz) scans...
  EXPECT_GT(scans_during_lifecycle(/*sketch_policy=*/false), 0u);
  // ...and the sketch-backed service performs NONE, anywhere in the
  // lifecycle: registration, policy resolution, upgrades, compactions,
  // and kStats queries all read sketches.
  EXPECT_EQ(scans_during_lifecycle(/*sketch_policy=*/true), 0u);
}

TEST(SketchPolicy, RegistrationPrePassRunsOnlyWhenSharding) {
  // Every shard's base sketch ingests each of its nonzeros once per mode.
  // Only a sharded registration adds the pass over the partition mode's
  // slices (shard pricing and cut placement read it); a fixed single
  // shard reads neither, so it skips that pass.
  const SparseTensor tensor = generate_uniform({120, 100, 80}, 6000, 31);
  for (const unsigned shards : {1u, 3u}) {
    ServeOptions opts;
    opts.workers = 2;
    opts.shards = shards;
    TensorOpService service(opts);
    const std::uint64_t before = sketch_ingest_count();
    service.register_tensor("t", share_tensor(SparseTensor(tensor)));
    const std::uint64_t passes = shards == 1 ? 3 : 4;
    EXPECT_EQ(sketch_ingest_count() - before, passes * tensor.nnz())
        << shards << " shard(s)";
    EXPECT_EQ(service.shard_count("t"), shards);
  }
}

TEST(SketchPolicy, CompactionIngestsTheMergedBaseOnce) {
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 1;
  opts.compact_min_nnz = 64;
  opts.compact_threshold = 0.05;
  TensorOpService service(opts);
  const std::vector<index_t> dims{120, 100, 80};
  service.register_tensor("t", share_tensor(generate_uniform(dims, 6000, 37)));

  const SparseTensor batch = generate_uniform(dims, 1500, 41);
  const std::uint64_t before = sketch_ingest_count();
  service.apply_updates("t", SparseTensor(batch));
  service.wait_idle();
  ASSERT_EQ(service.compaction_count("t"), 1u);
  const TensorSnapshot snap = service.snapshot("t");
  ASSERT_EQ(snap.delta_nnz, 0u);
  // The batch once into the delta sketch, then the coalesced base once
  // into the new base sketch: no other pass touches a nonzero.
  EXPECT_EQ(sketch_ingest_count() - before,
            3 * (batch.nnz() + snap.base->nnz()));
}

TEST(SketchPolicy, StatsOpAnswersFromSketches) {
  ServeOptions opts;
  opts.workers = 2;
  opts.shards = 4;
  TensorOpService service(opts);

  const SparseTensor tensor = generate_uniform({120, 100, 80}, 9000, 21);
  const double true_norm_sq = tensor.norm() * tensor.norm();
  service.register_tensor("t", share_tensor(SparseTensor(tensor)));

  ServeResponse response =
      service.submit(ServeRequest("t", 0, nullptr, OpKind::kStats)).get();
  EXPECT_EQ(response.served_format, "sketch");
  EXPECT_EQ(response.op, OpKind::kStats);
  EXPECT_EQ(response.shards, 4u);
  ASSERT_EQ(response.output.rows(), 4);
  ASSERT_EQ(response.output.cols(), 8);

  // Slice-level row fields are exact.  Fiber counts: the shard merge
  // keeps the exact count on the partition mode (ascending disjoint
  // slice ranges); the other modes interleave across shards and fall
  // back to the HLL estimate, so they get the estimator's bound.
  const TensorSketch reference = TensorSketch::build(tensor);
  for (index_t m = 0; m < 3; ++m) {
    const ModeStats expect = reference.approx_mode_stats(m);
    EXPECT_EQ(static_cast<offset_t>(response.output(m, 0)), expect.nnz);
    EXPECT_EQ(static_cast<offset_t>(response.output(m, 1)),
              expect.num_slices);
    if (m == 0) {
      EXPECT_EQ(static_cast<offset_t>(response.output(m, 2)),
                expect.num_fibers);
    } else {
      const double truth = static_cast<double>(expect.num_fibers);
      EXPECT_NEAR(response.output(m, 2), truth, 0.08 * truth)
          << "mode " << m;
    }
    EXPECT_NEAR(response.output(m, 3), expect.singleton_slice_fraction,
                1e-6);
  }
  // Clean (uncoalesced-delta-free) tensor: norm exact, error bound 0.
  EXPECT_NEAR(response.scalar, true_norm_sq, 1e-6 * true_norm_sq);
  EXPECT_DOUBLE_EQ(response.output(3, 1), 0.0F);
  EXPECT_EQ(static_cast<offset_t>(response.output(3, 2)), 0u);  // delta
  EXPECT_EQ(static_cast<offset_t>(response.output(3, 3)), tensor.nnz());

  // After updates the norm error bound covers the coalesced truth.
  service.apply_updates("t", generate_uniform({120, 100, 80}, 1500, 99));
  ServeResponse after =
      service.submit(ServeRequest("t", 0, nullptr, OpKind::kStats)).get();
  EXPECT_GT(after.delta_nnz, 0u);
  SparseTensor merged = tensor;
  const SparseTensor extra = generate_uniform({120, 100, 80}, 1500, 99);
  std::vector<index_t> coords(3);
  for (offset_t z = 0; z < extra.nnz(); ++z) {
    for (index_t m = 0; m < 3; ++m) coords[m] = extra.coord(m, z);
    merged.push_back(coords, extra.value(z));
  }
  merged.coalesce();
  const double merged_norm_sq = merged.norm() * merged.norm();
  EXPECT_LE(std::abs(merged_norm_sq - after.scalar),
            static_cast<double>(after.output(3, 1)) +
                1e-4 * merged_norm_sq);
}

TEST(SketchPolicy, PolicyLatencyCountersAdvance) {
  ServeOptions opts;
  opts.workers = 2;
  TensorOpService service(opts);
  service.register_tensor(
      "t", share_tensor(generate_uniform({100, 80, 60}, 5000, 5)));
  EXPECT_EQ(service.policy_resolution_count(), 0u);

  auto factors = std::make_shared<const std::vector<DenseMatrix>>([] {
    std::vector<DenseMatrix> f;
    f.emplace_back(100, 4);
    f.emplace_back(80, 4);
    f.emplace_back(60, 4);
    for (auto& m : f) m.randomize(7);
    return f;
  }());
  service.submit(ServeRequest("t", 0, factors)).get();
  service.wait_idle();
  EXPECT_GE(service.policy_resolution_count(), 1u);
  EXPECT_GE(service.policy_seconds(), 0.0);
}

}  // namespace
}  // namespace bcsf
