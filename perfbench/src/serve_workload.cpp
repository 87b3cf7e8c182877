// Workload serve-updates: kernel-heavy serving with writes beside reads.
// An in-process TensorOpService (4 workers, 4 shards, default "auto"
// upgrade policy) serves a 400x600x800 power-law tensor at rank 32.  One
// generator thread keeps a fixed window of requests outstanding (closed
// loop); the op mix is mttkrp:ttv:fit = 4:2:1 over round-robin modes, and
// an additive update batch lands every kUpdateEvery queries.  This drives
// kernels, the shard fan-out (disjoint and merge combine paths), tensor
// deltas, compaction and re-upgrade builds; net is bypassed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernel_probe.hpp"
#include "core/factors.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/ttv_fit.hpp"
#include "serve/tensor_op_service.hpp"
#include "tensor/generator.hpp"

namespace perfbench {

namespace {

using bcsf::OpKind;

constexpr const char* kName = "bench";
constexpr unsigned kWorkers = 4;
constexpr unsigned kShards = 4;
constexpr bcsf::rank_t kRank = 32;
constexpr bcsf::offset_t kNnz = 200'000;
/// Requests the closed-loop generator keeps outstanding.
constexpr std::size_t kWindow = 8;
/// Queries between additive update batches, and nonzeros per batch.
constexpr int kUpdateEvery = 64;
constexpr bcsf::offset_t kUpdateNnz = 2'000;
/// mttkrp:ttv:fit weights.
constexpr std::array<int, 3> kOpMix = {4, 2, 1};
/// Service set-ups per run whose median is setup_s.
constexpr std::size_t kSetups = 3;
constexpr double kSetupTimeoutS = 60.0;
/// Frozen latency limit behind slo_frac.
constexpr double kLatencyLimitMs = 50.0;
/// Every kCheckEvery-th eligible response is checked, up to kMaxChecks.
constexpr int kCheckEvery = 16;
constexpr std::size_t kMaxChecks = 64;
/// Latency statistics are medians over windows of this many seconds
/// (each holds ~1000 queries, so its p99 has ~10 samples beyond it).
constexpr double kWindowS = 2.0;
constexpr std::size_t kMinWindowSamples = 500;
/// Allowed relative error against the double-accumulating references.
constexpr double kRelTolerance = 1e-4;

OpKind op_for(std::uint64_t issued) {
  const int total = kOpMix[0] + kOpMix[1] + kOpMix[2];
  const int slot = static_cast<int>(issued % static_cast<std::uint64_t>(total));
  if (slot < kOpMix[0]) return OpKind::kMttkrp;
  if (slot < kOpMix[0] + kOpMix[1]) return OpKind::kTtv;
  return OpKind::kFit;
}

/// Workload inputs, all derived from the seed.
struct Inputs {
  bcsf::SparseTensor base;
  bcsf::FactorsPtr factors;  ///< rank-32 factors (MTTKRP, FIT)
  bcsf::FactorsPtr vectors;  ///< rank-1 vectors (TTV)
  std::uint64_t seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  bcsf::PowerLawConfig config;
  config.dims = {400, 600, 800};
  config.target_nnz = kNnz;
  config.slice_alpha = 0.8;
  config.fiber_alpha = 0.8;
  config.max_fiber_len = 64;
  config.seed = seed;
  Inputs in;
  in.base = bcsf::generate_power_law(config);
  in.factors = std::make_shared<const std::vector<bcsf::DenseMatrix>>(
      bcsf::make_random_factors(in.base.dims(), kRank, seed + 1));
  in.vectors = std::make_shared<const std::vector<bcsf::DenseMatrix>>(
      bcsf::make_random_factors(in.base.dims(), 1, seed + 2));
  in.seed = seed;
  return in;
}

bcsf::ServeOptions serve_options() {
  bcsf::ServeOptions opts;
  opts.workers = kWorkers;
  opts.shards = kShards;
  return opts;
}

/// A response kept for the post-run correctness check.
struct Sample {
  std::size_t epoch = 0;  ///< update batches applied when it was served
  OpKind op = OpKind::kMttkrp;
  bcsf::index_t mode = 0;
  std::vector<float> output;
  double scalar = 0.0;
};

/// What one closed-loop phase observed.
struct Phase {
  std::vector<double> latency_ms;  ///< completed queries
  std::vector<double> at_s;        ///< completion, seconds into the phase
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_limit = 0;
  double wall_s = 0.0;
  std::vector<bcsf::SparseTensor> batches;  ///< updates, in apply order
  std::vector<Sample> samples;
  // Per-response accounting (traced phase).
  double fanout_ms = 0.0;
  double reduce_ms = 0.0;
  double delta_nnz = 0.0;
  std::vector<double> queue_depth;
  std::array<bcsf::SharedPlan, 3> plans;  ///< last ServeResponse::plan per mode
};

struct Pending {
  std::future<bcsf::ServeResponse> future;
  Clock::time_point submitted;
  OpKind op = OpKind::kMttkrp;
  bcsf::index_t mode = 0;
  std::size_t epoch = 0;
  std::uint64_t request = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(const Inputs& in, Tracer& tracer) : in_(in), tracer_(tracer) {}

  /// Registers the tensor in a fresh service and drives the query mix
  /// (no updates) until every (shard, mode) serves its structured plan.
  /// Returns the seconds that took.
  double set_up(std::unique_ptr<bcsf::TensorOpService>& service) {
    service = std::make_unique<bcsf::TensorOpService>(serve_options());
    const Clock::time_point start = Clock::now();
    {
      auto span = tracer_.scope("tensor.register");
      service->register_tensor(kName,
                               bcsf::share_tensor(bcsf::SparseTensor(in_.base)));
    }
    Phase warm;
    const bcsf::index_t order = in_.base.order();
    run(*service, warm, false, [&] {
      if (seconds_since(start) > kSetupTimeoutS) {
        throw std::runtime_error("serve-updates: plans not upgraded after " +
                                 std::to_string(kSetupTimeoutS) + " s");
      }
      for (bcsf::index_t m = 0; m < order; ++m) {
        if (!service->upgraded(kName, m)) return false;
      }
      return true;
    });
    if (warm.failed > 0) throw std::runtime_error("serve-updates: set-up failed");
    return seconds_since(start);
  }

  /// Closed loop: keeps kWindow queries outstanding until `done()`,
  /// applying an update batch every kUpdateEvery queries when `updates`.
  template <typename Done>
  void run(bcsf::TensorOpService& service, Phase& phase, bool updates,
           Done done) {
    std::mt19937_64 update_rng(in_.seed * 7919);
    std::deque<Pending> pending;
    int eligible = 0;
    const Clock::time_point start = Clock::now();
    start_ = start;
    bool stop = false;
    while (true) {
      while (!stop && pending.size() < kWindow) {
        if (done()) {
          stop = true;
          break;
        }
        if (updates && phase.issued > 0 && phase.issued % kUpdateEvery == 0 &&
            phase.batches.size() < phase.issued / kUpdateEvery) {
          apply_batch(service, phase, update_rng);
        }
        submit(service, phase, pending);
      }
      if (pending.empty()) break;
      // Sampled with the window full and again right after completions,
      // so the mean is not biased toward either end.
      if (tracer_.enabled()) {
        phase.queue_depth.push_back(static_cast<double>(service.queue_depth()));
      }
      collect(phase, pending, eligible);
      if (tracer_.enabled()) {
        phase.queue_depth.push_back(static_cast<double>(service.queue_depth()));
      }
    }
    phase.wall_s = seconds_since(start);
  }

 private:
  void apply_batch(bcsf::TensorOpService& service, Phase& phase,
                   std::mt19937_64& rng) {
    bcsf::SparseTensor batch(in_.base.dims());
    std::vector<bcsf::index_t> coords(in_.base.order());
    for (bcsf::offset_t z = 0; z < kUpdateNnz; ++z) {
      for (std::size_t m = 0; m < coords.size(); ++m) {
        coords[m] = static_cast<bcsf::index_t>(rng() % in_.base.dims()[m]);
      }
      batch.push_back(coords, 1.0F);
    }
    phase.batches.push_back(batch);
    {
      auto span = tracer_.scope("tensor.apply");
      service.apply_updates(kName, std::move(batch));
    }
    if (tracer_.enabled()) probe_delta(service, phase.batches.size());
  }

  /// Traced run only: the delta sweep one shard pays per query, timed on
  /// that shard's current snapshot (shards and modes in rotation).
  void probe_delta(bcsf::TensorOpService& service, std::size_t batch) {
    const std::size_t shard = batch % service.shard_count(kName);
    const auto mode = static_cast<bcsf::index_t>(batch % in_.base.order());
    const bcsf::TensorSnapshot snap = service.shard_snapshot(kName, shard);
    bcsf::DenseMatrix out(in_.base.dims()[mode], kRank);
    auto span = tracer_.scope("kernels.delta");
    bcsf::mttkrp_delta_accumulate(snap.deltas, mode, *in_.factors, out);
  }

  void submit(bcsf::TensorOpService& service, Phase& phase,
              std::deque<Pending>& pending) {
    Pending p;
    p.op = op_for(phase.issued);
    p.mode = static_cast<bcsf::index_t>(phase.issued % in_.base.order());
    p.epoch = phase.batches.size();
    p.request = ++phase.issued;
    bcsf::ServeRequest request(kName, p.mode,
                               p.op == OpKind::kTtv ? in_.vectors : in_.factors,
                               p.op);
    p.submitted = Clock::now();
    p.future = service.submit(std::move(request));
    pending.push_back(std::move(p));
  }

  /// Waits for at least one outstanding query and accounts every ready one.
  void collect(Phase& phase, std::deque<Pending>& pending, int& eligible) {
    using namespace std::chrono_literals;
    bool any = false;
    while (!any) {
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(0s) != std::future_status::ready) {
          ++it;
          continue;
        }
        finish(phase, *it, eligible);
        it = pending.erase(it);
        any = true;
      }
      if (!any) pending.front().future.wait_for(200us);
    }
  }

  void finish(Phase& phase, Pending& p, int& eligible) {
    bcsf::ServeResponse response;
    try {
      response = p.future.get();
    } catch (const std::exception& e) {
      ++phase.failed;
      std::cerr << "serve-updates: request failed: " << e.what() << "\n";
      return;
    }
    const Clock::time_point now = Clock::now();
    const double latency = ms_between(p.submitted, now);
    phase.latency_ms.push_back(latency);
    phase.at_s.push_back(std::chrono::duration<double>(now - start_).count());
    if (latency <= kLatencyLimitMs) ++phase.within_limit;
    phase.fanout_ms += response.fanout_ms;
    phase.reduce_ms += response.reduce_ms;
    phase.delta_nnz += static_cast<double>(response.delta_nnz);
    if (p.op == OpKind::kMttkrp) phase.plans[p.mode] = response.plan;
    if (tracer_.enabled()) trace_request(p, response, now);
    // Only a query served entirely between two update batches has a
    // known tensor: the base plus the batches applied before it.
    if (p.epoch == phase.batches.size() && ++eligible % kCheckEvery == 0 &&
        phase.samples.size() < kMaxChecks) {
      Sample s;
      s.epoch = p.epoch;
      s.op = p.op;
      s.mode = p.mode;
      s.output.assign(response.output.data().begin(),
                      response.output.data().end());
      s.scalar = response.scalar;
      phase.samples.push_back(std::move(s));
    }
  }

  /// One request's spans: the client-observed interval, split into the
  /// stages the service reports (queue = the remainder).
  void trace_request(const Pending& p, const bcsf::ServeResponse& r,
                     Clock::time_point end) {
    const auto ms = [](double v) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(v));
    };
    const std::uint64_t parent =
        tracer_.record("serve.request", p.submitted, end, p.request);
    const Clock::time_point reduce_start = end - ms(r.reduce_ms);
    const Clock::time_point fanout_start =
        std::max(p.submitted, reduce_start - ms(r.fanout_ms));
    tracer_.record("serve.queue", p.submitted, fanout_start, p.request, parent);
    tracer_.record("serve.fanout", fanout_start, reduce_start, p.request, parent);
    tracer_.record("serve.reduce", reduce_start, end, p.request, parent);
  }

  const Inputs& in_;
  Tracer& tracer_;
  Clock::time_point start_;  ///< start of the phase being run
};

/// Recomputes sampled responses with the reference kernels on the base
/// plus the update batches each one saw.
void check_samples(const Inputs& in, Phase& phase, RunResult& out) {
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });
  bcsf::SparseTensor merged = in.base;
  std::size_t applied = 0;
  std::vector<bcsf::index_t> coords(in.base.order());
  for (const Sample& s : phase.samples) {
    for (; applied < s.epoch; ++applied) {
      const bcsf::SparseTensor& batch = phase.batches[applied];
      for (bcsf::offset_t z = 0; z < batch.nnz(); ++z) {
        for (bcsf::index_t m = 0; m < batch.order(); ++m) {
          coords[m] = batch.coord(m, z);
        }
        merged.push_back(coords, batch.value(z));
      }
    }
    double err = 0.0;
    if (s.op == OpKind::kFit) {
      const double want = bcsf::fit_inner_reference(merged, *in.factors);
      err = std::abs(s.scalar - want) / std::max(1e-30, std::abs(want));
    } else {
      const bcsf::DenseMatrix want =
          s.op == OpKind::kMttkrp
              ? bcsf::mttkrp_reference(merged, s.mode, *in.factors)
              : bcsf::ttv_reference(merged, s.mode, *in.vectors);
      err = relative_error(s.output, {want.data().begin(), want.data().end()});
    }
    if (!(err <= kRelTolerance)) {
      ++phase.failed;
      out.fail_check(std::string("serve-updates: ") + bcsf::op_name(s.op) +
                     " mode " + std::to_string(s.mode) + " after " +
                     std::to_string(s.epoch) + " update batches: relative error " +
                     std::to_string(err));
    }
  }
  std::cout << "serve-updates: checked " << phase.samples.size()
            << " responses against the reference kernels\n";
}

void report_phase(const char* label, const Phase& phase) {
  const LatencySummary lat = summarize(phase.latency_ms);
  std::cout << "serve-updates: " << label << " " << phase.latency_ms.size()
            << " queries + " << phase.batches.size() << " update batches in "
            << phase.wall_s << " s, mean " << lat.mean_ms << " ms, p50 "
            << lat.p50_ms << " ms, p99 " << lat.p99_ms << " ms\n";
}

}  // namespace

RunResult run_serve_updates(const Args& args, Tracer& tracer) {
  const Inputs in = make_inputs(args.seed);
  std::cout << "serve-updates: tensor " << in.base.shape_string() << ", nnz "
            << in.base.nnz() << ", rank " << kRank << ", " << kShards
            << " shards, " << kWorkers << " workers, window " << kWindow
            << "\n";
  RunResult out;
  Tracer off(false);
  std::unique_ptr<bcsf::TensorOpService> service;

  // Untraced: set up kSetups times (setup_s is their median), then
  // measure on the last service.  The traced run measures untraced once
  // (the tracing-overhead baseline) and then again with spans.
  std::vector<double> setups;
  Phase plain;
  {
    ClosedLoop loop(in, off);
    const std::size_t n = args.trace ? 1 : kSetups;
    for (std::size_t i = 0; i < n; ++i) setups.push_back(loop.set_up(service));
    const Clock::time_point start = Clock::now();
    loop.run(*service, plain, true,
               [&] { return seconds_since(start) >= args.seconds; });
  }
  report_phase("untraced", plain);
  const double plan_mb =
      static_cast<double>(service->peak_plan_resident_bytes()) / kMiB;
  const double rss_mb = peak_rss_mb();
  out.attempted = plain.issued + plain.batches.size();

  if (!args.trace) {
    check_samples(in, plain, out);
    out.failed = plain.failed;
    EndToEnd e2e;
    e2e.setup_s = median(setups);
    const LatencySummary lat = summarize_windows(
        plain.latency_ms, plain.at_s, kWindowS, kMinWindowSamples);
    e2e.p50_ms = lat.p50_ms;
    e2e.req_s = static_cast<double>(plain.latency_ms.size()) / plain.wall_s;
    e2e.slo_frac = static_cast<double>(plain.within_limit) /
                   static_cast<double>(plain.issued);
    e2e.plan_mb = plan_mb;
    e2e.rss_mb = rss_mb;
    e2e.emit(out);
    return out;
  }

  service.reset();
  Phase traced;
  ClosedLoop loop(in, tracer);
  loop.set_up(service);
  {
    const Clock::time_point start = Clock::now();
    loop.run(*service, traced, true,
               [&] { return seconds_since(start) >= args.seconds; });
  }
  report_phase("traced", traced);
  out.attempted += traced.issued + traced.batches.size();
  check_samples(in, traced, out);
  out.failed = plain.failed + traced.failed;

  const auto served = static_cast<double>(std::max<std::size_t>(
      1, traced.latency_ms.size()));
  const double mean_latency = mean(traced.latency_ms);
  const double fanout = traced.fanout_ms / served;
  const double reduce = traced.reduce_ms / served;
  out.set("tensor.register_ms", tracer.stat("tensor.register").mean_ms(), "ms");
  out.set("tensor.apply_ms", tracer.stat("tensor.apply").mean_ms(), "ms");
  out.set("tensor.delta_nnz", traced.delta_nnz / served, "count");
  double build_s = 0.0;
  const bcsf::index_t order = in.base.order();
  for (bcsf::index_t m = 0; m < order; ++m) {
    for (const auto& status : service->shard_status(kName, m)) {
      build_s += status.build_seconds;
    }
  }
  out.set("formats.build_ms", build_s * 1e3, "ms");
  out.set("formats.storage_mb",
          static_cast<double>(service->plan_resident_bytes()) / kMiB, "MiB");
  out.set("core.policy_ms",
          service->policy_seconds() * 1e3 /
              static_cast<double>(
                  std::max<std::uint64_t>(1, service->policy_resolution_count())),
          "ms");
  out.set("serve.p99_ms",
          summarize_windows(plain.latency_ms, plain.at_s, kWindowS,
                            kMinWindowSamples)
              .p99_ms,
          "ms");
  out.set("serve.queue_ms", mean_latency - fanout - reduce, "ms");
  out.set("serve.queue_depth", mean(traced.queue_depth), "count");
  out.set("serve.fanout_ms", fanout, "ms");
  out.set("serve.reduce_ms", reduce, "ms");
  out.set("serve.unexplained_frac", (mean_latency - fanout - reduce) / mean_latency,
          "frac");
  std::uint64_t structured = 0;
  std::uint64_t coo = 0;
  for (const auto& ts : service->tenant_stats()) {
    structured += ts.structured_served;
    coo += ts.coo_served;
  }
  out.set("serve.hit_rate",
          static_cast<double>(structured) /
              static_cast<double>(std::max<std::uint64_t>(1, structured + coo)),
          "frac");
  out.set("serve.compactions",
          static_cast<double>(service->compaction_count(kName)), "count");
  out.set("serve.evictions", static_cast<double>(service->eviction_count()),
          "count");
  out.set("serve.upgrade_rejects",
          static_cast<double>(service->upgrade_reject_count()), "count");
  out.set("trace.overhead_pct",
          (mean_latency - mean(plain.latency_ms)) / mean(plain.latency_ms) * 100.0,
          "%");
  service->wait_idle();

  // Kernel probes on the plans that served the last MTTKRP of each mode
  // (shard 0's base plan), after the load has stopped.
  KernelProbe probe;
  const bcsf::TensorSnapshot shard0 = service->shard_snapshot(kName, 0);
  for (const bcsf::SharedPlan& plan : traced.plans) {
    if (plan) probe.add(tracer, *plan, *shard0.base, *in.factors, *in.vectors);
  }
  probe.emit(out);
  out.set("kernels.delta_ms", tracer.stat("kernels.delta").mean_ms(), "ms");
  return out;
}

}  // namespace perfbench
