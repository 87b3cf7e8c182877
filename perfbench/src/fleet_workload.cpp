// Workload fleet-socket: per-request overhead of the socket front end.
// 64 Zipf(1.1) tenants (96x128x72, harmonic nnz totalling ~400k,
// exact-grid values and rank-8 factors) are served by an in-process
// TensorServer (1 shard, a frozen structured-plan budget) over ONE unix
// socket TensorClient connection.  Closed loop: the client keeps a fixed
// window of pipelined requests outstanding.  Kernels are tiny, so net and
// serve overhead dominate; budget eviction and the COO fallback run
// because the working set of plans exceeds the budget.  Sharding, deltas
// and linalg are bypassed.
#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "kernel_probe.hpp"
#include "kernels/mttkrp.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/tensor_op_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kTenants = 64;
constexpr double kZipfS = 1.1;
constexpr bcsf::offset_t kFleetNnz = 400'000;
constexpr bcsf::offset_t kMinTenantNnz = 256;
constexpr bcsf::rank_t kRank = 8;
/// Two workers leave vCPUs for the socket and generator threads on the
/// 4-vCPU calibration machine (README.md, "Frozen constants").
constexpr unsigned kWorkers = 2;
/// Frozen structured-plan budget (calibration: README.md).
constexpr std::size_t kBudgetBytes = 7'500'000;
/// Pipelined requests the client keeps outstanding.  An open loop at a
/// fixed offered rate was the first design; its sub-millisecond latencies
/// followed the shared host's scheduling stalls (README.md).
constexpr std::size_t kWindow = 16;
/// Frozen latency limit behind slo_frac.
constexpr double kLatencyLimitMs = 10.0;
/// Answered and checked before measuring: the upgrade builds that follow
/// registration land here.
constexpr double kWarmupS = 4.0;
/// Requests in the generated schedule; a longer run wraps around it.
constexpr std::size_t kScheduleLength = 1 << 18;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kFrameHeaderBytes = 5;
/// Latency statistics are medians over one-second windows (each holds
/// ~4000 requests, so its p99 has ~40 samples beyond it).
constexpr double kWindowS = 1.0;
constexpr std::size_t kMinWindowSamples = 1000;

std::string tenant_name(int t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03d", t);
  return buf;
}

/// Workload inputs, all derived from the seed.
struct Inputs {
  std::vector<bcsf::SparseTensor> tenants;
  std::vector<bcsf::DenseMatrix> factors;  ///< shared by every tenant
  std::vector<bcsf::DenseMatrix> vectors;  ///< rank-1, for the TTV probe
  /// reference[t][m]: mttkrp_reference of tenant t, mode m -- exact on
  /// the grid, so served answers must match it bit for bit.
  std::vector<std::vector<bcsf::DenseMatrix>> reference;
  /// Request i asks for MTTKRP of tenant schedule[i % size] in mode i % 3.
  std::vector<int> schedule;
  int tenant(std::size_t i) const { return schedule[i % schedule.size()]; }
  const bcsf::DenseMatrix& answer(std::size_t i) const {
    return reference[tenant(i)][i % 3];
  }
};

Inputs make_inputs(std::uint64_t seed) {
  const std::vector<bcsf::index_t> dims = {96, 128, 72};
  Inputs in;
  double harmonic = 0.0;
  for (int t = 0; t < kTenants; ++t) harmonic += 1.0 / (t + 1);
  for (int t = 0; t < kTenants; ++t) {
    const auto want = std::max<bcsf::offset_t>(
        kMinTenantNnz, static_cast<bcsf::offset_t>(
                           static_cast<double>(kFleetNnz) / ((t + 1) * harmonic)));
    bcsf::SparseTensor tensor(dims);
    std::mt19937_64 rng(seed * 1000 + static_cast<std::uint64_t>(t));
    std::unordered_set<std::uint64_t> seen;
    std::vector<bcsf::index_t> coords(dims.size());
    while (tensor.nnz() < want) {
      std::uint64_t key = 0;
      for (std::size_t m = 0; m < dims.size(); ++m) {
        coords[m] = static_cast<bcsf::index_t>(rng() % dims[m]);
        key = key * dims[m] + coords[m];
      }
      // Unique cells: a structured build may coalesce duplicates where a
      // COO sweep sums them, which would break bitwise equality.
      if (!seen.insert(key).second) continue;
      tensor.push_back(coords, 1.0F + 0.5F * static_cast<float>(rng() % 5));
    }
    in.tenants.push_back(std::move(tensor));
  }
  // Multiples of 0.25 in [-1, 1]: every kernel sum is exact in float.
  std::mt19937_64 frng(seed + 77);
  for (const bcsf::index_t d : dims) {
    bcsf::DenseMatrix f(d, kRank);
    for (float& v : f.data()) {
      v = 0.25F * (static_cast<float>(frng() % 9) - 4.0F);
    }
    in.factors.push_back(std::move(f));
    bcsf::DenseMatrix v(d, 1);
    for (float& x : v.data()) x = 0.25F * (static_cast<float>(frng() % 9) - 4.0F);
    in.vectors.push_back(std::move(v));
  }
  for (const bcsf::SparseTensor& t : in.tenants) {
    std::vector<bcsf::DenseMatrix> per_mode;
    for (bcsf::index_t m = 0; m < t.order(); ++m) {
      per_mode.push_back(bcsf::mttkrp_reference(t, m, in.factors));
    }
    in.reference.push_back(std::move(per_mode));
  }
  bcsf::Rng zrng(seed ^ 0x5eedf1ee7ULL);
  bcsf::ZipfSampler zipf(kTenants, kZipfS, zrng);
  in.schedule.reserve(kScheduleLength);
  for (std::size_t i = 0; i < kScheduleLength; ++i) {
    in.schedule.push_back(static_cast<int>(zipf.sample()));
  }
  return in;
}

bcsf::ServeOptions serve_options() {
  bcsf::ServeOptions opts;
  opts.workers = kWorkers;
  opts.shards = 1;
  opts.storage_budget_bytes = kBudgetBytes;
  return opts;
}

enum class Outcome { kOk, kWrong, kRejected, kError };

/// What one closed-loop phase observed.  Counts cover every request,
/// warm-up included; latencies cover the measured ones.
struct Phase {
  std::vector<double> latency_ms;  ///< measured, answered correctly
  std::vector<double> at_s;        ///< completion, seconds into measuring
  std::vector<double> queue_depth;
  std::uint64_t attempted = 0;
  std::uint64_t measured = 0;
  std::uint64_t within_limit = 0;
  std::uint64_t wrong = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  double wall_s = 0.0;
  std::uint64_t failed() const { return wrong + rejected + errors; }
};

/// Runs `warmup + seconds` of the schedule keeping kWindow requests in
/// flight: `send(i)` issues request i, `receive(i, handle, done)` resolves
/// the oldest one (the socket answers in order per connection, and the
/// in-process baseline is resolved the same way).  Requests completed
/// during the warm-up are checked but their latency is not kept.
template <typename Handle, typename Send, typename Receive, typename Depth>
Phase closed_loop(double warmup, double seconds, Send send, Receive receive,
                  Depth depth, Tracer& tracer) {
  std::deque<std::pair<Handle, Clock::time_point>> window;
  Phase phase;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point measure_start = start;
  bool measuring = false;
  while (true) {
    const double elapsed = seconds_since(start);
    if (!measuring && elapsed >= warmup) {
      measuring = true;
      measure_start = Clock::now();
    }
    const bool more = elapsed < warmup + seconds;
    while (more && window.size() < kWindow) {
      window.emplace_back(send(next++), Clock::now());
    }
    if (window.empty()) break;
    const std::size_t index = next - window.size();
    Clock::time_point done;
    const Outcome outcome = receive(index, window.front().first, done);
    const Clock::time_point sent = window.front().second;
    window.pop_front();
    ++phase.attempted;
    switch (outcome) {
      case Outcome::kOk: break;
      case Outcome::kWrong: ++phase.wrong; break;
      case Outcome::kRejected: ++phase.rejected; break;
      case Outcome::kError: ++phase.errors; break;
    }
    if (!measuring) continue;
    ++phase.measured;
    if (tracer.enabled()) phase.queue_depth.push_back(depth());
    if (outcome == Outcome::kOk) {
      const double latency = ms_between(sent, done);
      phase.latency_ms.push_back(latency);
      phase.at_s.push_back(
          std::chrono::duration<double>(done - measure_start).count());
      if (latency <= kLatencyLimitMs) ++phase.within_limit;
    }
  }
  phase.wall_s = seconds_since(measure_start);
  return phase;
}

bool same_bits(const bcsf::DenseMatrix& a, const bcsf::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// Per-phase socket-side counters for the traced run.
struct NetCounters {
  std::uint64_t query_bytes = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t messages = 0;
};

class SocketFleet {
 public:
  SocketFleet(const Inputs& in, const std::string& socket_path, Tracer& tracer)
      : in_(in), tracer_(tracer) {
    bcsf::net::ServerOptions opts;
    opts.unix_path = socket_path;
    opts.serve = serve_options();
    // Admission never refuses at the offered rate, including the burst
    // of upgrade builds right after registration (tensord --watermark,
    // --max-in-flight); a refusal would count as a failure.
    opts.queue_watermark = 4096;
    opts.max_in_flight = 4096;
    server_ = std::make_unique<bcsf::net::TensorServer>(opts);
    client_ = std::make_unique<bcsf::net::TensorClient>(socket_path);
  }

  /// Registers every tenant over the socket; returns the seconds it took.
  double register_all() {
    const Clock::time_point start = Clock::now();
    for (int t = 0; t < kTenants; ++t) {
      auto span = tracer_.scope("net.register");
      client_->register_tensor(tenant_name(t), in_.tenants[t]);
    }
    return seconds_since(start);
  }

  Phase run(double seconds, NetCounters& counters) {
    using Handle = std::future<bcsf::net::Frame>;
    auto send = [&](std::size_t i) {
      bcsf::net::QueryMsg msg;
      msg.tensor = tenant_name(in_.tenant(i));
      msg.mode = static_cast<bcsf::index_t>(i % 3);
      msg.factors = in_.factors;
      if (!tracer_.enabled()) return client_->query_async(std::move(msg));
      const Clock::time_point e0 = Clock::now();
      const std::size_t bytes = bcsf::net::encode_query(msg).size();
      const Clock::time_point s0 = Clock::now();
      Handle handle = client_->query_async(std::move(msg));
      // They share the request id with the span the receiver records.
      tracer_.record("net.encode", e0, s0, i + 1);
      tracer_.record("net.send", s0, Clock::now(), i + 1);
      counters.query_bytes += bytes + kFrameHeaderBytes;
      return handle;
    };
    auto receive = [&](std::size_t i, Handle& handle, Clock::time_point& done) {
      try {
        const Clock::time_point w0 = Clock::now();
        bcsf::net::Frame frame = handle.get();
        const std::size_t frame_bytes = frame.payload.size() + kFrameHeaderBytes;
        const Clock::time_point d0 = Clock::now();
        const bcsf::net::ResultMsg result =
            bcsf::net::TensorClient::result_of(std::move(frame));
        done = Clock::now();
        if (tracer_.enabled()) {
          const std::uint64_t parent =
              tracer_.record("net.request", w0, done, i + 1);
          tracer_.record("net.decode", d0, done, i + 1, parent);
          counters.result_bytes += frame_bytes;
          ++counters.messages;
        }
        return same_bits(result.output, in_.answer(i)) ? Outcome::kOk
                                                       : Outcome::kWrong;
      } catch (const bcsf::net::OverloadedError&) {
        done = Clock::now();
        return Outcome::kRejected;
      } catch (const std::exception& e) {
        done = Clock::now();
        std::cerr << "fleet-socket: request failed: " << e.what() << "\n";
        return Outcome::kError;
      }
    };
    auto depth = [&] {
      return static_cast<double>(server_->service().queue_depth());
    };
    return closed_loop<Handle>(kWarmupS, seconds, send, receive, depth,
                               tracer_);
  }

  bcsf::net::TensorServer& server() { return *server_; }

 private:
  const Inputs& in_;
  Tracer& tracer_;
  std::unique_ptr<bcsf::net::TensorServer> server_;
  // Declared after the server: the client disconnects first.
  std::unique_ptr<bcsf::net::TensorClient> client_;
};

/// The same schedule submitted straight to a TensorOpService (no socket):
/// the baseline behind net.overhead_ms.  Also keeps the last served plan
/// of tenant 0 per mode for the kernel probes.
struct InProcess {
  Phase phase;
  double fanout_ms = 0.0;
  double reduce_ms = 0.0;
  std::vector<bcsf::SharedPlan> plans = std::vector<bcsf::SharedPlan>(3);
};

InProcess run_in_process(const Inputs& in, double seconds, Tracer& off) {
  bcsf::TensorOpService service(serve_options());
  for (int t = 0; t < kTenants; ++t) {
    service.register_tensor(tenant_name(t),
                            bcsf::share_tensor(bcsf::SparseTensor(in.tenants[t])));
  }
  const auto factors =
      std::make_shared<const std::vector<bcsf::DenseMatrix>>(in.factors);
  InProcess out;
  using Handle = std::future<bcsf::ServeResponse>;
  auto send = [&](std::size_t i) {
    return service.submit(bcsf::ServeRequest(
        tenant_name(in.tenant(i)), static_cast<bcsf::index_t>(i % 3), factors));
  };
  auto receive = [&](std::size_t i, Handle& handle, Clock::time_point& done) {
    try {
      const bcsf::ServeResponse r = handle.get();
      done = Clock::now();
      out.fanout_ms += r.fanout_ms;
      out.reduce_ms += r.reduce_ms;
      if (in.tenant(i) == 0) out.plans[i % 3] = r.plan;
      return same_bits(r.output, in.answer(i)) ? Outcome::kOk : Outcome::kWrong;
    } catch (const std::exception& e) {
      done = Clock::now();
      std::cerr << "fleet-socket: in-process request failed: " << e.what()
                << "\n";
      return Outcome::kError;
    }
  };
  auto depth = [&] { return static_cast<double>(service.queue_depth()); };
  out.phase = closed_loop<Handle>(kWarmupS, seconds, send, receive, depth,
                                  off);
  return out;
}

void report_phase(const char* label, const Phase& phase) {
  const LatencySummary lat = summarize(phase.latency_ms);
  std::cout << "fleet-socket: " << label << " " << phase.attempted
            << " requests in " << phase.wall_s << " s, mean " << lat.mean_ms
            << " ms, p50 " << lat.p50_ms << " ms, p99 " << lat.p99_ms
            << " ms, rejected " << phase.rejected << ", wrong " << phase.wrong
            << "\n";
}

/// Fails the run on wrong answers.
void gate(const Phase& phase, RunResult& out) {
  if (phase.wrong > 0) {
    out.fail_check("fleet-socket: " + std::to_string(phase.wrong) +
                   " responses differ from the exact reference");
  }
}

}  // namespace

RunResult run_fleet_socket(const Args& args, Tracer& tracer) {
  const Inputs in = make_inputs(args.seed);
  bcsf::offset_t fleet_nnz = 0;
  for (const auto& t : in.tenants) fleet_nnz += t.nnz();
  std::cout << "fleet-socket: " << kTenants << " tenants, fleet nnz "
            << fleet_nnz << ", rank " << kRank << ", window " << kWindow
            << ", budget " << kBudgetBytes << " bytes\n";
  const std::string socket_path =
      args.work_dir + "/fleet-" + std::to_string(::getpid()) + ".sock";
  RunResult out;
  Tracer off(false);

  // Untraced: kSetups fresh servers (setup_s is the median of their
  // registrations), measured on the last.
  std::vector<double> setups;
  std::unique_ptr<SocketFleet> fleet;
  const std::size_t n = args.trace ? 1 : kSetups;
  for (std::size_t i = 0; i < n; ++i) {
    fleet.reset();
    fleet = std::make_unique<SocketFleet>(in, socket_path, off);
    setups.push_back(fleet->register_all());
  }
  NetCounters unused;
  const Phase plain = fleet->run(args.seconds, unused);
  report_phase("socket", plain);
  std::cout << "fleet-socket: evictions "
            << fleet->server().service().eviction_count() << ", upgrade rejects "
            << fleet->server().service().upgrade_reject_count() << "\n";
  gate(plain, out);
  out.attempted = plain.attempted;
  out.failed = plain.failed();

  if (!args.trace) {
    const double peak_mb =
        static_cast<double>(fleet->server().service().peak_plan_resident_bytes()) /
        kMiB;
    EndToEnd e2e;
    e2e.setup_s = median(setups);
    const LatencySummary lat = summarize_windows(
        plain.latency_ms, plain.at_s, kWindowS, kMinWindowSamples);
    e2e.p50_ms = lat.p50_ms;
    e2e.req_s = static_cast<double>(plain.latency_ms.size()) / plain.wall_s;
    e2e.slo_frac = static_cast<double>(plain.within_limit) /
                   static_cast<double>(std::max<std::uint64_t>(1, plain.measured));
    e2e.plan_mb = peak_mb;
    e2e.rss_mb = peak_rss_mb();
    e2e.emit(out);
    return out;
  }

  // Traced socket phase on a fresh server.
  fleet.reset();
  fleet = std::make_unique<SocketFleet>(in, socket_path, tracer);
  fleet->register_all();
  NetCounters counters;
  const Phase traced = fleet->run(args.seconds, counters);
  report_phase("socket traced", traced);
  gate(traced, out);
  out.attempted += traced.attempted;
  out.failed += traced.failed();
  bcsf::TensorOpService& service = fleet->server().service();

  // In-process baseline over the same schedule.
  InProcess local = run_in_process(in, args.seconds, off);
  report_phase("in-process", local.phase);
  gate(local.phase, out);
  out.attempted += local.phase.attempted;
  out.failed += local.phase.failed();

  const double messages =
      static_cast<double>(std::max<std::uint64_t>(1, counters.messages));
  out.set("tensor.register_ms", tracer.stat("net.register").mean_ms(), "ms");
  out.set("net.encode_us", tracer.stat("net.encode").mean_ms() * 1e3, "us");
  out.set("net.decode_us", tracer.stat("net.decode").mean_ms() * 1e3, "us");
  out.set("net.query_bytes", static_cast<double>(counters.query_bytes) / messages,
          "bytes");
  out.set("net.result_bytes",
          static_cast<double>(counters.result_bytes) / messages, "bytes");
  out.set("net.overhead_ms",
          quantile(plain.latency_ms, 0.5) - quantile(local.phase.latency_ms, 0.5),
          "ms");
  out.set("net.rejected",
          static_cast<double>(fleet->server().stats().rejected), "count");

  double build_s = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    for (bcsf::index_t m = 0; m < 3; ++m) {
      for (const auto& status : service.shard_status(tenant_name(t), m)) {
        build_s += status.build_seconds;
      }
    }
  }
  out.set("formats.build_ms", build_s * 1e3, "ms");
  out.set("formats.storage_mb",
          static_cast<double>(service.plan_resident_bytes()) / kMiB, "MiB");
  out.set("core.policy_ms",
          service.policy_seconds() * 1e3 /
              static_cast<double>(
                  std::max<std::uint64_t>(1, service.policy_resolution_count())),
          "ms");
  const double local_served = static_cast<double>(
      std::max<std::size_t>(1, local.phase.latency_ms.size()));
  const double fanout = local.fanout_ms / local_served;
  const double reduce = local.reduce_ms / local_served;
  out.set("serve.p99_ms",
          summarize_windows(plain.latency_ms, plain.at_s, kWindowS,
                            kMinWindowSamples)
              .p99_ms,
          "ms");
  out.set("serve.queue_ms", mean(local.phase.latency_ms) - fanout - reduce, "ms");
  out.set("serve.queue_depth", mean(traced.queue_depth), "count");
  out.set("serve.fanout_ms", fanout, "ms");
  out.set("serve.reduce_ms", reduce, "ms");
  out.set("serve.unexplained_frac",
          (mean(traced.latency_ms) - fanout - reduce) / mean(traced.latency_ms),
          "frac");
  std::uint64_t structured = 0;
  std::uint64_t coo = 0;
  for (const auto& ts : service.tenant_stats()) {
    structured += ts.structured_served;
    coo += ts.coo_served;
  }
  out.set("serve.hit_rate",
          static_cast<double>(structured) /
              static_cast<double>(std::max<std::uint64_t>(1, structured + coo)),
          "frac");
  out.set("serve.evictions", static_cast<double>(service.eviction_count()),
          "count");
  out.set("serve.upgrade_rejects",
          static_cast<double>(service.upgrade_reject_count()), "count");
  out.set("trace.overhead_pct",
          (mean(traced.latency_ms) - mean(plain.latency_ms)) /
              mean(plain.latency_ms) * 100.0,
          "%");

  // Kernel probes on tenant 0's served plans (tiny kernels: these should
  // barely move this workload's end-to-end numbers).
  KernelProbe probe;
  for (const bcsf::SharedPlan& plan : local.plans) {
    if (plan) {
      probe.add(tracer, *plan, in.tenants[0], in.factors, in.vectors);
    }
  }
  probe.emit(out);
  return out;
}

}  // namespace perfbench
