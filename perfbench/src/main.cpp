// perfbench: the repository benchmark's executable.
//
//   perfbench --workload <cpd-enron|serve-updates|fleet-socket>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Runs one workload, checks its answers, and prints as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set (the run also writes its span log into --work-dir).
// Exits nonzero, printing no record, when the run cannot complete.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::RunResult;

/// Per-layer metrics of the traced run, in print order.  A workload that
/// does not exercise a layer leaves its metrics at 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"tensor.register_ms", "ms"},   {"tensor.apply_ms", "ms"},
    {"tensor.delta_nnz", "count"},  {"formats.build_ms", "ms"},
    {"formats.storage_mb", "MiB"},  {"core.policy_ms", "ms"},
    {"kernels.mttkrp_ms", "ms"},    {"kernels.ttv_ms", "ms"},
    {"kernels.fit_ms", "ms"},       {"kernels.first_ms", "ms"},
    {"kernels.delta_ms", "ms"},     {"kernels.reference_ms", "ms"},
    {"kernels.flops", "count"},     {"kernels.bytes", "bytes"},
    {"kernels.ops_per_byte", "flop/byte"},
    {"kernels.gflops", "GF/s"},     {"linalg.gram_ms", "ms"},
    {"linalg.solve_ms", "ms"},      {"linalg.normalize_ms", "ms"},
    {"linalg.model_norm_ms", "ms"}, {"cpd.iterations", "count"},
    {"cpd.iter_ms", "ms"},          {"cpd.coverage", "frac"},
    {"cpd.unattributed_ms", "ms"},  {"serve.p99_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.queue_depth", "count"}, {"serve.fanout_ms", "ms"},
    {"serve.reduce_ms", "ms"},      {"serve.unexplained_frac", "frac"},
    {"serve.hit_rate", "frac"},     {"serve.compactions", "count"},
    {"serve.evictions", "count"},   {"serve.upgrade_rejects", "count"},
    {"net.encode_us", "us"},        {"net.decode_us", "us"},
    {"net.query_bytes", "bytes"},   {"net.result_bytes", "bytes"},
    {"net.overhead_ms", "ms"},      {"net.rejected", "count"},
    {"self.tensor_ms", "ms"},
    {"self.formats_ms", "ms"},      {"self.core_ms", "ms"},
    {"self.kernels_ms", "ms"},      {"self.linalg_ms", "ms"},
    {"self.cpd_ms", "ms"},          {"self.serve_ms", "ms"},
    {"self.net_ms", "ms"},          {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

const std::vector<const char*> kEndToEnd = {
    "setup_s", "p50_ms", "req_s", "slo_frac", "plan_mb", "rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <cpd-enron|serve-updates|"
               "fleet-socket> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Orders the workload's metrics as the benchmark declares them, filling
/// per-layer metrics the workload does not exercise with 0.  Throws on a
/// missing end-to-end metric or an undeclared name.
void canonicalize(RunResult& result, bool traced) {
  auto find = [&](const std::string& name) -> const std::pair<double, std::string>* {
    for (const auto& entry : result.metrics) {
      if (entry.first == name) return &entry.second;
    }
    return nullptr;
  };
  std::vector<std::pair<std::string, std::pair<double, std::string>>> ordered;
  if (traced) {
    for (const auto& [name, unit] : kPerLayer) {
      const auto* found = find(name);
      ordered.push_back({name, {found ? found->first : 0.0, unit}});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto* found = find(name);
      if (found == nullptr) {
        throw std::runtime_error(std::string("missing metric ") + name);
      }
      ordered.push_back({name, *found});
    }
  }
  for (const auto& entry : result.metrics) {
    bool declared = false;
    for (const auto& o : ordered) declared = declared || o.first == entry.first;
    if (!declared) throw std::runtime_error("undeclared metric " + entry.first);
  }
  for (const auto& entry : ordered) {
    if (!std::isfinite(entry.second.first)) {
      throw std::runtime_error("metric " + entry.first + " is not finite");
    }
  }
  result.metrics = std::move(ordered);
}

void print_record(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  perfbench::Tracer tracer(args.trace);
  RunResult result;
  try {
    if (args.workload == "cpd-enron") {
      result = perfbench::run_cpd_enron(args, tracer);
    } else if (args.workload == "serve-updates") {
      result = perfbench::run_serve_updates(args, tracer);
    } else if (args.workload == "fleet-socket") {
      result = perfbench::run_fleet_socket(args, tracer);
    } else if (args.workload == "cpd-reference") {
      return perfbench::run_cpd_reference(args).correct ? 0 : 3;
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace) {
      result.set("trace.spans", static_cast<double>(tracer.span_count()),
                 "count");
      for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
        result.set("self." + layer + "_ms", ms, "ms");
      }
      const std::string path = args.work_dir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".jsonl";
      tracer.write_jsonl(path);
      std::cout << "span log: " << path << "\n";
    }
    canonicalize(result, args.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& why : result.errors) {
    std::cout << "CHECK FAILED: " << why << "\n";
  }
  std::cout.flush();
  print_record(result);
  return result.correct ? 0 : 3;
}
