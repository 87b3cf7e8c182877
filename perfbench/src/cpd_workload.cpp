// Workload cpd-enron: the library path of the paper.  cpd_als runs on the
// enron twin (4-order, ~540k nonzeros) at rank 32 with format "auto",
// a fixed iteration count and early stop off.  Formats and kernels carry
// the time, plus the single-threaded dense linalg on the 244k-row mode;
// serve and net are bypassed.
//
// The untraced run times cpd_als itself.  The traced run repeats the
// same ALS loop from the library's public calls (policy, registry build,
// plan run/execute, gram, solve, normalize, model norm) with a span
// around each, so every per-iteration millisecond lands in a named layer.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "kernel_probe.hpp"
#include "core/auto_policy.hpp"
#include "core/factors.hpp"
#include "core/format_registry.hpp"
#include "cpd/cpd_als.hpp"
#include "kernels/mttkrp.hpp"
#include "linalg/ops.hpp"
#include "linalg/spd_solve.hpp"
#include "serve/concurrent_plan_cache.hpp"
#include "tensor/datasets.hpp"
#include "tensor/generator.hpp"

namespace perfbench {

namespace {

constexpr bcsf::rank_t kRank = 32;
/// The Fig-10 break-even on the enron twin is ~6.35 calls per mode, so 8
/// iterations make "auto" resolve every mode to a structured format.
constexpr unsigned kIterations = 8;
/// Plan-cache builds per run whose median is setup_s.
constexpr std::size_t kSetups = 3;
/// Whole cpd_als calls per run, at least: averaging two calls halves the
/// weight of a slow patch of the shared machine.
constexpr std::size_t kMinCalls = 2;
/// Allowed |fit - reference-format fit| at the same seed and iterations.
constexpr double kFitTolerance = 1e-3;
/// Allowed relative error of one plan MTTKRP against mttkrp_reference.
constexpr double kKernelTolerance = 1e-4;
/// Frozen per-iteration latency limit behind slo_frac.
constexpr double kIterLimitMs = 10000.0;

/// Final fits of cpd_als(format="reference") at kRank and kIterations,
/// stored per seed (`perfbench --workload cpd-reference --seed <n>`
/// prints one).  A seed missing here is computed in the run instead.
constexpr std::pair<std::uint64_t, double> kReferenceFits[] = {
    {0, 0.0061415078055711003},
    {1, 0.006477436503693923},
    {2, 0.0066320168954260295},
    {3, 0.0065246635373702455},
    {4, 0.0066202200257596822},
    {5, 0.0066620142193040133},
    {6, 0.0062292181023382298},
    {7, 0.0067076102009125949},
    {8, 0.0064139746050814184},
    {9, 0.0063442676470212289},
    {10, 0.0067659039297714996},
    {11, 0.0064388068622937},
    {12, 0.0066646251722900507},
    {13, 0.0061563785283939021},
    {14, 0.0066593329970858761},
    {15, 0.0065159957435456661},
    {16, 0.0066335873907897858},
    {17, 0.006594365779276079},
    {18, 0.0064537829004936986},
    {19, 0.0068149727522971437},
    {20, 0.0065983598795782417},
    {21, 0.006158457864820388},
    {22, 0.0065630033063589499},
    {23, 0.0067290656662996051},
    {24, 0.0064331372860121361},
    {25, 0.0061355671271299261},
    {26, 0.006396536449509993},
    {27, 0.0064943249620282861},
    {28, 0.006309662783769987},
    {29, 0.0064629313048112369},
    {30, 0.0062057301108371377},
    {101, 0.0065961697531438102},
    {102, 0.0065010726911470806},
    {103, 0.0065936965678813353},
    {104, 0.0067282128875518765},
    {105, 0.0063583478270320404},
    {106, 0.0068024315378302225},
    {107, 0.006680913936392141},
    {108, 0.0063211112762556754},
    {109, 0.0067121246281752756},
    {110, 0.0064235625502834237},
    {4242, 0.0065706842918464847},
};

double reference_fit(const bcsf::SparseTensor& x, std::uint64_t seed);

bcsf::SparseTensor make_tensor(std::uint64_t seed) {
  bcsf::PowerLawConfig config = bcsf::dataset_spec("enron").twin;
  config.seed = seed;
  return bcsf::generate_power_law(config);
}

bcsf::CpdOptions cpd_options(std::uint64_t seed, const std::string& format) {
  bcsf::CpdOptions opts;
  opts.rank = kRank;
  opts.max_iterations = kIterations;
  opts.fit_tolerance = -std::numeric_limits<double>::infinity();
  opts.seed = seed;
  opts.format = format;
  return opts;
}

/// One cpd_als call, timed from outside.
struct CpdCall {
  bcsf::CpdResult result;
  double iter_ms = 0.0;  ///< (wall - preprocessing) / iterations
};

CpdCall timed_cpd(const bcsf::SparseTensor& x, const bcsf::CpdOptions& opts) {
  const Clock::time_point start = Clock::now();
  CpdCall call;
  call.result = bcsf::cpd_als(x, opts);
  const double wall_s = seconds_since(start);
  call.iter_ms = (wall_s - call.result.preprocessing_seconds) * 1e3 /
                 std::max(1U, call.result.iterations);
  return call;
}

/// Rebuilds the per-mode plans exactly as cpd_als does (same cache, same
/// options) and returns their build seconds and summed storage bytes.
std::pair<double, std::size_t> replica_setup(const bcsf::SparseTensor& x) {
  bcsf::PlanOptions plan_opts;
  plan_opts.expected_mttkrp_calls = static_cast<double>(kIterations);
  bcsf::ConcurrentPlanCache cache(bcsf::borrow_tensor(x), plan_opts);
  std::size_t bytes = 0;
  for (bcsf::index_t m = 0; m < x.order(); ++m) {
    bytes += cache.get("auto", m)->storage_bytes();
  }
  return {cache.total_build_seconds(), bytes};
}

void print_formats(const bcsf::CpdResult& r) {
  std::cout << "cpd-enron: " << r.iterations << " iterations, fit "
            << r.final_fit << ", formats";
  for (const std::string& f : r.mode_formats) std::cout << " " << f;
  std::cout << "\n";
}

RunResult untraced(const Args& args, const bcsf::SparseTensor& x) {
  RunResult out;
  const bcsf::CpdOptions opts = cpd_options(args.seed, "auto");
  // Whole calls, until both kMinCalls and --seconds are reached.
  std::vector<CpdCall> calls;
  const Clock::time_point start = Clock::now();
  do {
    calls.push_back(timed_cpd(x, opts));
  } while (calls.size() < kMinCalls || seconds_since(start) < args.seconds);
  print_formats(calls.front().result);

  std::vector<double> setups;
  std::vector<double> iter_ms;
  for (const CpdCall& c : calls) {
    setups.push_back(c.result.preprocessing_seconds);
    iter_ms.push_back(c.iter_ms);
  }
  // Replica builds top the sample up to kSetups and report plan storage
  // (cpd_als does not expose its plans).
  std::size_t plan_bytes = 0;
  do {
    const auto [seconds, bytes] = replica_setup(x);
    if (setups.size() < kSetups) setups.push_back(seconds);
    plan_bytes = bytes;
  } while (setups.size() < kSetups);
  const double rss_mb = peak_rss_mb();

  // Correctness: every call's final fit against the "reference" format's
  // fit at the same seed and iteration count.
  const double ref_fit = reference_fit(x, args.seed);
  std::cout << "cpd-enron: reference fit " << ref_fit << "\n";
  std::uint64_t good_iterations = 0;
  double iteration_ms_total = 0.0;
  for (const CpdCall& c : calls) {
    const unsigned iters = c.result.iterations;
    out.attempted += iters;
    iteration_ms_total += c.iter_ms * iters;
    const double diff = std::abs(c.result.final_fit - ref_fit);
    if (iters != kIterations || !(diff <= kFitTolerance)) {
      out.failed += iters;
      out.fail_check("cpd-enron: fit " + std::to_string(c.result.final_fit) +
                     " after " + std::to_string(iters) +
                     " iterations vs reference " + std::to_string(ref_fit));
    } else if (c.iter_ms <= kIterLimitMs) {
      good_iterations += iters;
    }
  }

  EndToEnd e2e;
  e2e.setup_s = median(setups);
  const LatencySummary lat = summarize(iter_ms);
  e2e.p50_ms = lat.p50_ms;
  e2e.req_s = static_cast<double>(out.attempted) / (iteration_ms_total / 1e3);
  e2e.slo_frac = static_cast<double>(good_iterations) /
                 static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
  e2e.plan_mb = static_cast<double>(plan_bytes) / kMiB;
  e2e.rss_mb = rss_mb;
  e2e.emit(out);
  return out;
}

RunResult traced(const Args& args, const bcsf::SparseTensor& x,
                 Tracer& tracer) {
  RunResult out;
  // Untraced baseline for the tracing-overhead figure.
  const CpdCall plain = timed_cpd(x, cpd_options(args.seed, "auto"));
  print_formats(plain.result);

  const bcsf::index_t order = x.order();
  bcsf::PlanOptions plan_opts;
  plan_opts.expected_mttkrp_calls = static_cast<double>(kIterations);
  bcsf::AutoPolicyOptions policy;
  policy.expected_mttkrp_calls = plan_opts.expected_mttkrp_calls;
  policy.op = plan_opts.op;
  std::vector<bcsf::PlanPtr> plans;
  std::size_t plan_bytes = 0;
  for (bcsf::index_t m = 0; m < order; ++m) {
    bcsf::AutoDecision decision;
    {
      auto span = tracer.scope("core.policy");
      decision = bcsf::auto_select_format(x, m, policy);
    }
    {
      auto span = tracer.scope("formats.build");
      plans.push_back(bcsf::FormatRegistry::instance().create(
          decision.format, x, m, plan_opts));
    }
    plan_bytes += plans.back()->storage_bytes();
  }

  std::vector<bcsf::DenseMatrix> factors =
      bcsf::make_random_factors(x.dims(), kRank, args.seed, 0.05F);
  std::vector<bcsf::value_t> lambda(kRank, 1.0F);
  double x_norm = 0.0;
  {
    auto span = tracer.scope("tensor.norm");
    x_norm = x.norm();
  }
  double fit = 0.0;
  for (unsigned iter = 0; iter < kIterations; ++iter) {
    auto iteration = tracer.scope("cpd.iteration");
    for (bcsf::index_t mode = 0; mode < order; ++mode) {
      bcsf::DenseMatrix mk;
      {
        auto span = tracer.scope(iter == 0 ? "kernels.mttkrp_first"
                                           : "kernels.mttkrp");
        mk = plans[mode]->run(factors).output;
      }
      bcsf::DenseMatrix v;
      {
        auto span = tracer.scope("linalg.gram");
        v = bcsf::gram_hadamard_except(factors, mode);
      }
      {
        auto span = tracer.scope("linalg.solve");
        factors[mode] = bcsf::solve_spd_right(v, mk);
      }
      {
        auto span = tracer.scope("linalg.normalize");
        lambda = bcsf::normalize_columns(factors[mode]);
      }
    }
    bcsf::OpRequest fit_request;
    fit_request.kind = bcsf::OpKind::kFit;
    fit_request.mode = order - 1;
    fit_request.factors = &factors;
    fit_request.lambda = &lambda;
    double inner = 0.0;
    {
      auto span = tracer.scope("kernels.fit");
      inner = plans[order - 1]->execute(fit_request).scalar;
    }
    double model_sq = 0.0;
    {
      auto span = tracer.scope("linalg.model_norm");
      model_sq = bcsf::cp_model_norm_sq(factors, lambda);
    }
    fit = bcsf::cp_fit_from_pieces(x_norm, inner, model_sq);
  }
  out.attempted = kIterations;
  if (!(std::abs(fit - plain.result.final_fit) <= kFitTolerance)) {
    out.failed = kIterations;
    out.fail_check("cpd-enron: traced loop fit " + std::to_string(fit) +
                   " vs cpd_als fit " + std::to_string(plain.result.final_fit));
  }

  // Baseline: plain single-threaded mttkrp_reference on the same modes,
  // which also checks each plan's output.  Not part of the ALS path, so
  // it is timed without a span.
  double reference_ms = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  for (bcsf::index_t m = 0; m < order; ++m) {
    const Clock::time_point start = Clock::now();
    const bcsf::DenseMatrix want = bcsf::mttkrp_reference(x, m, factors);
    reference_ms += ms_between(start, Clock::now());
    const bcsf::DenseMatrix got = plans[m]->run(factors).output;
    const double err = relative_error(
        {got.data().begin(), got.data().end()},
        {want.data().begin(), want.data().end()});
    if (!(err <= kKernelTolerance)) {
      out.fail_check("cpd-enron: mode " + std::to_string(m) + " " +
                     plans[m]->resolved_format() + " MTTKRP relative error " +
                     std::to_string(err));
    }
    const KernelWork work = mttkrp_work(x, m, kRank, plans[m]->storage_bytes());
    flops += work.flops;
    bytes += work.bytes;
  }

  const Tracer::Stat iterations = tracer.stat("cpd.iteration");
  const Tracer::Stat warm = tracer.stat("kernels.mttkrp");
  const Tracer::Stat first = tracer.stat("kernels.mttkrp_first");
  const double per_iter = 1.0 / static_cast<double>(kIterations);
  double covered = first.total_ms + warm.total_ms;
  for (const char* name : {"kernels.fit", "linalg.gram", "linalg.solve",
                           "linalg.normalize", "linalg.model_norm"}) {
    covered += tracer.stat(name).total_ms;
  }
  const double iter_ms = iterations.total_ms * per_iter;
  out.set("formats.build_ms", tracer.stat("formats.build").total_ms, "ms");
  out.set("formats.storage_mb", static_cast<double>(plan_bytes) / kMiB, "MiB");
  out.set("core.policy_ms", tracer.stat("core.policy").mean_ms(), "ms");
  out.set("kernels.mttkrp_ms", warm.mean_ms(), "ms");
  out.set("kernels.fit_ms", tracer.stat("kernels.fit").mean_ms(), "ms");
  out.set("kernels.first_ms", first.mean_ms(), "ms");
  out.set("kernels.reference_ms", reference_ms / order, "ms");
  out.set("kernels.flops", flops / order, "count");
  out.set("kernels.bytes", bytes / order, "bytes");
  out.set("kernels.ops_per_byte", flops / bytes, "flop/byte");
  out.set("kernels.gflops", flops / order / (warm.mean_ms() * 1e6), "GF/s");
  out.set("linalg.gram_ms", tracer.stat("linalg.gram").total_ms * per_iter, "ms");
  out.set("linalg.solve_ms", tracer.stat("linalg.solve").total_ms * per_iter,
          "ms");
  out.set("linalg.normalize_ms",
          tracer.stat("linalg.normalize").total_ms * per_iter, "ms");
  out.set("linalg.model_norm_ms",
          tracer.stat("linalg.model_norm").total_ms * per_iter, "ms");
  out.set("cpd.iterations", kIterations, "count");
  out.set("cpd.iter_ms", iter_ms, "ms");
  out.set("cpd.coverage", covered / iterations.total_ms, "frac");
  out.set("cpd.unattributed_ms", (iterations.total_ms - covered) * per_iter,
          "ms");
  out.set("trace.overhead_pct", (iter_ms - plain.iter_ms) / plain.iter_ms * 100.0,
          "%");
  if (!(std::abs(covered / iterations.total_ms - 1.0) <= 0.10)) {
    std::cout << "cpd-enron: per-layer spans cover only "
              << covered / iterations.total_ms << " of an iteration\n";
  }
  std::cout << "cpd-enron: untraced " << plain.iter_ms << " ms/iter, traced "
            << iter_ms << " ms/iter, coverage " << covered / iterations.total_ms
            << "\n";
  return out;
}

double reference_fit(const bcsf::SparseTensor& x, std::uint64_t seed) {
  for (const auto& [stored_seed, fit] : kReferenceFits) {
    if (stored_seed == seed) return fit;
  }
  return bcsf::cpd_als(x, cpd_options(seed, "reference")).final_fit;
}

}  // namespace

RunResult run_cpd_reference(const Args& args) {
  const bcsf::SparseTensor x = make_tensor(args.seed);
  const bcsf::CpdResult ref = bcsf::cpd_als(x, cpd_options(args.seed, "reference"));
  std::printf("    {%llu, %.17g},\n", static_cast<unsigned long long>(args.seed),
              ref.final_fit);
  return {};
}

RunResult run_cpd_enron(const Args& args, Tracer& tracer) {
  const bcsf::SparseTensor x = make_tensor(args.seed);
  std::cout << "cpd-enron: tensor " << x.shape_string() << ", nnz " << x.nnz()
            << ", rank " << kRank << ", " << kIterations << " iterations\n";
  return args.trace ? traced(args, x, tracer) : untraced(args, x);
}

}  // namespace perfbench
