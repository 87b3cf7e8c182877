// Concurrency suite for the streaming sketches (DESIGN.md §12), run
// under TSan in CI (`concurrency` label): writers applying update
// batches and compactions race readers of sketch()/base_sketch()/
// sketch_scalars(), and the serving layer's kStats path races updates
// and traversal queries.  Assertions check the sketches stay internally
// consistent at every observation, not just at quiescence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/tensor_op_service.hpp"
#include "tensor/dynamic_tensor.hpp"
#include "tensor/generator.hpp"
#include "tensor/sketch.hpp"
#include "serve_test_util.hpp"

namespace bcsf {
namespace {

using serve_test::run_threads;

TEST(SketchConcurrency, ReadersRaceAppliersAndCompactions) {
  const std::vector<index_t> dims{150, 120, 90};
  DynamicSparseTensor dyn(share_tensor(generate_uniform(dims, 6000, 3)));

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kBatches = 12;
  std::atomic<int> writers_done{0};

  run_threads(kWriters + kReaders + 1, [&](int i) {
    if (i < kWriters) {
      for (int b = 0; b < kBatches; ++b) {
        dyn.apply(generate_uniform(dims, 300,
                                   1000 + static_cast<std::uint64_t>(i) * 100 +
                                       static_cast<std::uint64_t>(b)));
      }
      writers_done.fetch_add(1);
    } else if (i < kWriters + kReaders) {
      while (writers_done.load() < kWriters) {
        // Base first: base nnz only grows (each compaction's base holds
        // the previous one), and merged >= base at every instant, so a
        // later merged read bounds an earlier base read.  The reverse
        // order lets a compaction land between the reads and flake.
        const TensorSketch base = dyn.base_sketch();
        const TensorSketch merged = dyn.sketch();
        const SketchScalars scalars = dyn.sketch_scalars();
        // Internal consistency of each observation: the merged sketch
        // never shrinks below the base, every mode agrees on nnz, and
        // the scalar view's split sums to a finite norm.
        ASSERT_GE(merged.nnz(), base.nnz());
        for (index_t m = 0; m < merged.order(); ++m) {
          ASSERT_EQ(merged.mode(m).nnz(), merged.nnz());
          ASSERT_LE(merged.mode(m).num_slices(), merged.nnz());
        }
        ASSERT_GE(scalars.norm_sq(), 0.0);
        ASSERT_GE(scalars.norm_sq_error_bound(), 0.0);
      }
    } else {
      // Compactor: merge + 3-arg replace_base against live writers.
      for (int round = 0; round < 4; ++round) {
        const TensorSnapshot snap = dyn.snapshot();
        if (snap.delta_nnz == 0) continue;
        TensorPtr merged = share_tensor(snap.merged(/*coalesce=*/true));
        TensorSketch sketch = TensorSketch::build(*merged);
        dyn.replace_base(merged, snap.version, std::move(sketch));
      }
    }
  });

  // Quiescent check: incremental state == from-scratch over the stored
  // entries, after all the racing applies and base swaps.
  const TensorSnapshot snap = dyn.snapshot();
  TensorSketch scratch = TensorSketch::build(*snap.base);
  for (const TensorPtr& chunk : snap.deltas) scratch.add_tensor(*chunk);
  const TensorSketch incremental = dyn.sketch();
  EXPECT_EQ(incremental.nnz(), scratch.nnz());
  for (index_t m = 0; m < incremental.order(); ++m) {
    EXPECT_EQ(incremental.mode(m).num_slices(), scratch.mode(m).num_slices());
    EXPECT_EQ(incremental.mode(m).sum_sq_slice_nnz(),
              scratch.mode(m).sum_sq_slice_nnz());
    EXPECT_EQ(incremental.mode(m).estimate_fibers(),
              scratch.mode(m).estimate_fibers());
  }
}

TEST(SketchConcurrency, StatsOpRacesUpdatesAndQueries) {
  ServeOptions opts;
  opts.workers = 4;
  opts.shards = 3;
  opts.compact_min_nnz = 128;
  opts.compact_threshold = 0.05;
  TensorOpService service(opts);

  const std::vector<index_t> dims{120, 100, 80};
  service.register_tensor("t", share_tensor(generate_uniform(dims, 8000, 7)));
  const auto factors = std::make_shared<const std::vector<DenseMatrix>>([&] {
    std::vector<DenseMatrix> f;
    for (index_t m = 0; m < 3; ++m) f.emplace_back(dims[m], 4);
    for (auto& mat : f) mat.randomize(11);
    return f;
  }());

  std::atomic<int> updaters_done{0};
  run_threads(6, [&](int i) {
    if (i < 2) {
      // Updaters: trip compactions (and the post-compaction sketch
      // re-decision) while stats queries are in flight.
      for (int b = 0; b < 10; ++b) {
        service.apply_updates(
            "t", generate_uniform(dims, 400,
                                  500 + static_cast<std::uint64_t>(i) * 50 +
                                      static_cast<std::uint64_t>(b)));
      }
      updaters_done.fetch_add(1);
    } else if (i < 4) {
      while (updaters_done.load() < 2) {
        const ServeResponse r =
            service.submit(ServeRequest("t", 0, nullptr, OpKind::kStats))
                .get();
        ASSERT_EQ(r.served_format, "sketch");
        ASSERT_EQ(r.output.rows(), 4);
        // Monotone lower bound: the tensor only ever grows here.
        ASSERT_GE(static_cast<offset_t>(r.output(0, 0)), 8000u);
        ASSERT_GT(r.scalar, 0.0);
      }
    } else {
      while (updaters_done.load() < 2) {
        const ServeResponse r =
            service.submit(ServeRequest("t", i % 3, factors)).get();
        ASSERT_EQ(r.output.rows(), dims[i % 3]);
      }
    }
  });
  service.wait_idle();

  // Final stats answer agrees with a from-scratch sketch of the final
  // stored state, shard-merged == whole (the merge contract).
  const ServeResponse final_stats =
      service.submit(ServeRequest("t", 0, nullptr, OpKind::kStats)).get();
  offset_t stored = 0;
  for (std::size_t s = 0; s < service.shard_count("t"); ++s) {
    const TensorSnapshot snap = service.shard_snapshot("t", s);
    stored += snap.base->nnz();
    for (const TensorPtr& chunk : snap.deltas) stored += chunk->nnz();
  }
  EXPECT_EQ(static_cast<offset_t>(final_stats.output(0, 0)), stored);
}

}  // namespace
}  // namespace bcsf
