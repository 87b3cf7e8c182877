// google-benchmark microbenchmarks of the host-side building blocks:
// format construction, the simulator's cost walk, warm plan executes
// through the FormatRegistry -- one row per runnable registry key, the
// simulated formats and the real CPU kernels, plus a rank sweep of the
// engine on two served tenants' shapes, so every engine walk (B-CSF
// blocks, CSL segments, per-nonzero products, F-COO chunks) has a
// timing row -- the delta sweep of a served answer, the shard combine,
// the CPD-ALS dense kernels (Gram, SPD right-solve), and sketch
// ingest.  These measure actual wall time on this machine (unlike the
// simulated-GPU figures) and are the numbers a downstream user cares
// about for preprocessing budgets and serving latency.  Execute benches
// report GF/s with the COO flop convention, order x R per nonzero
// (DESIGN.md §1).
#include <benchmark/benchmark.h>

#include <chrono>

#include "bcsf/bcsf.hpp"
#include "core/shard_combine.hpp"

namespace {

using namespace bcsf;

constexpr rank_t kRank = 32;

const SparseTensor& bench_tensor() {
  static const SparseTensor x = [] {
    PowerLawConfig cfg;
    cfg.dims = {4000, 8000, 6000};
    cfg.target_nnz = 400'000;
    cfg.slice_alpha = 0.7;
    cfg.fiber_alpha = 0.9;
    cfg.max_fiber_len = 1024;
    cfg.seed = 777;
    return generate_power_law(cfg);
  }();
  return x;
}

const std::vector<DenseMatrix>& bench_factors() {
  static const std::vector<DenseMatrix> f =
      make_random_factors(bench_tensor().dims(), kRank, 123);
  return f;
}

/// GF/s (printed as GFLOP=<rate>/s) for `flops` per iteration.
void set_gflop_rate(benchmark::State& state, double flops) {
  state.counters["GFLOP"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

/// GF/s of one MTTKRP per iteration: order x R flops per nonzero.
void report_gflops(benchmark::State& state) {
  const SparseTensor& x = bench_tensor();
  set_gflop_rate(state, static_cast<double>(x.order()) * kRank *
                            static_cast<double>(x.nnz()));
  state.SetItemsProcessed(state.iterations() * x.nnz());
}

void BM_BuildCsf(benchmark::State& state) {
  const SparseTensor& x = bench_tensor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_csf(x, 0));
  }
  state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_BuildCsf)->Unit(benchmark::kMillisecond);

void BM_BuildBcsf(benchmark::State& state) {
  const SparseTensor& x = bench_tensor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_bcsf(x, 0));
  }
  state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_BuildBcsf)->Unit(benchmark::kMillisecond);

void BM_BuildHbcsf(benchmark::State& state) {
  const SparseTensor& x = bench_tensor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_hbcsf(x, 0));
  }
  state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_BuildHbcsf)->Unit(benchmark::kMillisecond);

void BM_BuildFcoo(benchmark::State& state) {
  const SparseTensor& x = bench_tensor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_fcoo(x, 0));
  }
  state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_BuildFcoo)->Unit(benchmark::kMillisecond);

void BM_BuildHicoo(benchmark::State& state) {
  const SparseTensor& x = bench_tensor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_hicoo(x));
  }
  state.SetItemsProcessed(state.iterations() * x.nnz());
}
BENCHMARK(BM_BuildHicoo)->Unit(benchmark::kMillisecond);

/// Warm execute of one registry plan on mode 0: the first run (outside
/// the timed loop) pays a simulated format's cost walk, so the loop times
/// what a serving request or an ALS iteration pays.
void BM_Execute(benchmark::State& state, const char* format) {
  const PlanPtr plan =
      FormatRegistry::instance().create(format, bench_tensor(), 0, {});
  benchmark::DoNotOptimize(plan->run(bench_factors()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->run(bench_factors()));
  }
  report_gflops(state);
}
BENCHMARK_CAPTURE(BM_Execute, gpu_csf, "gpu-csf")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, bcsf, "bcsf")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, hbcsf, "hbcsf")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, csl, "csl")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, coo, "coo")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, fcoo, "fcoo")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, reference, "reference")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, cpu_csf, "cpu-csf")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, cpu_coo, "cpu-coo")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, cpu_csl, "cpu-csl")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, cpu_csf_tiled, "cpu-csf-tiled")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Execute, cpu_hicoo, "cpu-hicoo")
    ->Unit(benchmark::kMillisecond);

/// The CPD-ALS dense work at the enron twin's largest mode (244268 x 32):
/// the factor's Gram and the right solve against a 32 x 32 SPD V.
constexpr index_t kDenseRows = 244'268;

const DenseMatrix& dense_factor() {
  static const DenseMatrix a = [] {
    DenseMatrix m(kDenseRows, kRank);
    m.randomize(31, -1.0F, 1.0F);
    return m;
  }();
  return a;
}

/// Upper triangle only: R(R+1)/2 multiply-adds per row.
void BM_Gram(benchmark::State& state) {
  const DenseMatrix& a = dense_factor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gram(a));
  }
  set_gflop_rate(state, static_cast<double>(a.rows()) * kRank * (kRank + 1));
}
BENCHMARK(BM_Gram)->Unit(benchmark::kMillisecond);

/// Forward and backward substitution: about R^2 multiply-adds per row.
void BM_SolveSpdRight(benchmark::State& state) {
  const DenseMatrix& b = dense_factor();
  DenseMatrix v = gram(b);
  for (rank_t i = 0; i < kRank; ++i) v(i, i) += 1.0F;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_spd_right(v, b));
  }
  set_gflop_rate(state, 2.0 * static_cast<double>(b.rows()) * kRank * kRank);
}
BENCHMARK(BM_SolveSpdRight)->Unit(benchmark::kMillisecond);

/// Sketch ingest (DESIGN.md §12): TensorSketch::build -- every mode's
/// slice histogram, HyperLogLog, AMS counters and exact fiber count --
/// which registration and each compaction pay once per stored nonzero.
/// ns_per_nnz is per stored nonzero, all modes together.
const SparseTensor& fleet_tenant_tensor() {
  // fleet-socket's largest tenant: 84,318 unique uniform cells.
  static const SparseTensor x = generate_uniform({96, 128, 72}, 84'318, 1);
  return x;
}

const SparseTensor& serve_base_tensor() {
  // The serve-updates base: 200k power-law nonzeros.
  static const SparseTensor x = [] {
    PowerLawConfig cfg;
    cfg.dims = {400, 600, 800};
    cfg.target_nnz = 200'000;
    cfg.slice_alpha = 0.8;
    cfg.fiber_alpha = 0.8;
    cfg.max_fiber_len = 64;
    cfg.seed = 1;
    return generate_power_law(cfg);
  }();
  return x;
}

void BM_SketchBuild(benchmark::State& state, const SparseTensor& (*input)()) {
  const SparseTensor& x = input();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TensorSketch::build(x));
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.SetItemsProcessed(state.iterations() * x.nnz());
  state.counters["ns_per_nnz"] =
      elapsed.count() / (static_cast<double>(state.iterations()) *
                         static_cast<double>(x.nnz()));
}
BENCHMARK_CAPTURE(BM_SketchBuild, fleet_tenant, &fleet_tenant_tensor)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SketchBuild, serve_base, &serve_base_tensor)
    ->Unit(benchmark::kMillisecond);

/// `t` with perfbench fleet-socket's exact-grid values (1, 1.5, ..., 3):
/// with grid factors every sum is exact in float, as in a served tenant.
SparseTensor with_grid_values(SparseTensor t) {
  for (offset_t z = 0; z < t.nnz(); ++z) {
    t.value(z) = 1.0F + 0.5F * static_cast<value_t>(z % 5);
  }
  return t;
}

/// The largest fleet tenant on the grid: ~6.9 nonzeros per mode-0 fiber
/// segment.
const SparseTensor& fleet_grid_tensor() {
  static const SparseTensor x = with_grid_values(fleet_tenant_tensor());
  return x;
}

/// A short-fiber fleet tenant on the grid, tenant 2's shape: 28,106
/// uniform cells, ~2.5 nonzeros per mode-0 fiber segment.
const SparseTensor& short_fiber_grid_tensor() {
  static const SparseTensor x =
      with_grid_values(generate_uniform({96, 128, 72}, 28'106, 2));
  return x;
}

/// Warm execute of a served tenant's mode-0 plan at the rank in
/// state.range(0), with fleet-socket's grid factors (multiples of 0.25
/// in [-1, 1]): ranks up to 16 run the engine's walks on register
/// tiles, 17 and 32 on runtime-rank scratch rows (DESIGN.md §1).
void BM_TenantExecute(benchmark::State& state, const char* format,
                      const SparseTensor& (*tenant)()) {
  const SparseTensor& x = tenant();
  const auto rank = static_cast<rank_t>(state.range(0));
  std::vector<DenseMatrix> factors;
  Rng rng(77);
  for (const index_t d : x.dims()) {
    DenseMatrix f(d, rank);
    for (value_t& v : f.data()) {
      v = 0.25F * (static_cast<value_t>(rng.uniform_index(9)) - 4.0F);
    }
    factors.push_back(std::move(f));
  }
  const PlanPtr plan = FormatRegistry::instance().create(format, x, 0, {});
  benchmark::DoNotOptimize(plan->run(factors));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan->run(factors));
  }
  set_gflop_rate(state, static_cast<double>(x.order()) * rank *
                            static_cast<double>(x.nnz()));
  state.SetItemsProcessed(state.iterations() * x.nnz());
}
void tenant_ranks(benchmark::internal::Benchmark* b) {
  b->ArgName("rank");
  for (const int rank : {1, 8, 16, 17, 32}) b->Arg(rank);
  b->Unit(benchmark::kMicrosecond);
}
BENCHMARK_CAPTURE(BM_TenantExecute, bcsf, "bcsf", &fleet_grid_tensor)
    ->Apply(tenant_ranks);
BENCHMARK_CAPTURE(BM_TenantExecute, hbcsf, "hbcsf", &fleet_grid_tensor)
    ->Apply(tenant_ranks);
BENCHMARK_CAPTURE(BM_TenantExecute, coo, "coo", &fleet_grid_tensor)
    ->Apply(tenant_ranks);
BENCHMARK_CAPTURE(BM_TenantExecute, csl, "csl", &fleet_grid_tensor)
    ->Apply(tenant_ranks);
BENCHMARK_CAPTURE(BM_TenantExecute, short_fiber_bcsf, "bcsf",
                  &short_fiber_grid_tensor)
    ->Apply(tenant_ranks);
BENCHMARK_CAPTURE(BM_TenantExecute, short_fiber_hbcsf, "hbcsf",
                  &short_fiber_grid_tensor)
    ->Apply(tenant_ranks);

/// The delta sweep a served answer adds to its base plan's result
/// (DESIGN.md §6) at a serve-updates shard's shape: 25 update batches of
/// 2000 uniform nonzeros (50k in all) over the 400x600x800 base, mode 0,
/// rank 32, into the double row window the shard combine sweeps into.
/// ns_per_nnz is per delta nonzero.
void BM_DeltaSweep(benchmark::State& state) {
  constexpr rank_t kDeltaRank = 32;
  const std::vector<index_t>& dims = serve_base_tensor().dims();
  std::vector<TensorPtr> deltas;
  offset_t nnz = 0;
  Rng rng(9);
  for (int batch = 0; batch < 25; ++batch) {
    SparseTensor chunk(dims);
    std::vector<index_t> coords(dims.size());
    for (int z = 0; z < 2000; ++z) {
      for (std::size_t m = 0; m < dims.size(); ++m) {
        coords[m] = rng.uniform_index(dims[m]);
      }
      chunk.push_back(coords, 1.0F);
    }
    nnz += chunk.nnz();
    deltas.push_back(share_tensor(std::move(chunk)));
  }
  const std::vector<DenseMatrix> factors =
      make_random_factors(dims, kDeltaRank, 5);
  std::vector<double> acc(static_cast<std::size_t>(dims[0]) * kDeltaRank);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    mttkrp_delta_accumulate(deltas, 0, factors, acc, 0);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.SetItemsProcessed(state.iterations() * nnz);
  state.counters["ns_per_nnz"] =
      elapsed.count() /
      (static_cast<double>(state.iterations()) * static_cast<double>(nnz));
}
BENCHMARK(BM_DeltaSweep)->Unit(benchmark::kMillisecond);

/// ShardCombine::add for 4 shards plus finish() at a serve-updates
/// request's shape: rank-32 MTTKRP over the 400x600x800 base, no deltas.
/// The window path (`windowed`) is mode 0 on a partition of mode 0, each
/// shard owning 100 rows; the merge path is mode 1 (600 shared rows),
/// which promotes every shard output to double and sums them in shard
/// order.  Building the shard results is not timed.  GF/s counts one
/// operation per shard output entry folded in: rows x R x 4.
void BM_ShardCombine(benchmark::State& state, bool windowed) {
  constexpr rank_t kCombineRank = 32;
  constexpr std::size_t kShards = 4;
  const std::vector<index_t>& dims = serve_base_tensor().dims();
  const index_t mode = windowed ? 0 : 1;
  const std::vector<index_t> owned = {0, 100, 200, 300, 400};
  const std::vector<DenseMatrix> factors =
      make_random_factors(dims, kCombineRank, 6);
  OpRequest request;
  request.mode = mode;
  request.factors = &factors;
  std::vector<DenseMatrix> outputs;
  for (std::size_t s = 0; s < kShards; ++s) {
    DenseMatrix out(dims[mode], kCombineRank);
    out.randomize(40 + s, -1.0F, 1.0F);
    outputs.push_back(std::move(out));
  }
  ScratchArena arena;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<OpResult> results(kShards);
    for (std::size_t s = 0; s < kShards; ++s) results[s].output = outputs[s];
    state.ResumeTiming();
    ShardCombine combine(request, dims, 0, kShards, owned, arena);
    for (std::size_t s = 0; s < kShards; ++s) {
      combine.add(s, std::move(results[s]));
    }
    benchmark::DoNotOptimize(combine.finish());
  }
  set_gflop_rate(state, static_cast<double>(dims[mode]) * kCombineRank *
                            static_cast<double>(kShards));
}
BENCHMARK_CAPTURE(BM_ShardCombine, window, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ShardCombine, merge, false)
    ->Unit(benchmark::kMicrosecond);

/// The B-CSF cost walk alone (cache model + SM scheduler, no arithmetic):
/// what a GPU plan pays once per rank.
void BM_SimulateBcsfKernel(benchmark::State& state) {
  const BcsfTensor b = build_bcsf(bench_tensor(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_bcsf_gpu(b, kRank, DeviceModel::p100()));
  }
  state.SetItemsProcessed(state.iterations() * b.nnz());
}
BENCHMARK(BM_SimulateBcsfKernel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
