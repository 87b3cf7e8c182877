// Serve-then-upgrade walkthrough (DESIGN.md §5): stand up an
// TensorOpService, register a tensor, and watch the amortization story
// play out -- early requests are answered instantly from the
// zero-preprocessing COO plan, the Fig-10 break-even count trips a
// background B-CSF build, and later requests ride the structured plan
// with no caller ever blocking on preprocessing.
//
//   ./serve_then_upgrade [--nnz=40000] [--rank=16] [--waves=6]
//                        [--wave-size=8] [--threshold=12]
#include <iostream>
#include <memory>
#include <vector>

#include "bcsf/bcsf.hpp"

int main(int argc, char** argv) {
  using namespace bcsf;
  const CliParser cli(argc, argv);
  const offset_t nnz = static_cast<offset_t>(cli.get_int("nnz", 40000));
  const rank_t rank = static_cast<rank_t>(cli.get_int("rank", 16));
  const int waves = static_cast<int>(cli.get_int("waves", 6));
  const int wave_size = static_cast<int>(cli.get_int("wave-size", 8));
  const double threshold = cli.get_double("threshold", 12);

  PowerLawConfig config;
  config.dims = {200, 300, 400};
  config.target_nnz = nnz;
  config.slice_alpha = 0.8;
  config.fiber_alpha = 0.8;
  config.max_fiber_len = 48;
  config.seed = 7;
  SparseTensor x = generate_power_law(config);
  const auto factors = std::make_shared<const std::vector<DenseMatrix>>(
      make_random_factors(x.dims(), rank, 42));
  const DenseMatrix truth = mttkrp_reference(x, 0, *factors);

  ServeOptions opts;
  opts.workers = 4;
  opts.initial_format = "coo";   // answer from request #1, zero build
  opts.upgrade_format = "auto";  // let the §V policy pick the structure
  opts.upgrade_threshold = threshold;
  TensorOpService service(opts);

  std::cout << "Registering " << x.shape_string() << " (" << x.nnz()
            << " nnz); serving mode-0 MTTKRP, upgrade after " << threshold
            << " calls.\n\n";
  service.register_tensor("demo", share_tensor(std::move(x)));

  for (int wave = 0; wave < waves; ++wave) {
    std::vector<ServeRequest> batch(
        static_cast<std::size_t>(wave_size),
        ServeRequest{"demo", 0, factors});
    auto futures = service.submit_batch(std::move(batch));

    int upgraded = 0;
    double max_err = 0.0;
    std::string formats;
    for (auto& future : futures) {
      ServeResponse r = future.get();
      if (r.upgraded) ++upgraded;
      max_err = std::max(max_err, truth.max_abs_diff(r.output));
      if (formats.find(r.served_format) == std::string::npos) {
        if (!formats.empty()) formats += "+";
        formats += r.served_format;
      }
    }
    std::cout << "wave " << wave << ": served by " << formats << "  ("
              << upgraded << "/" << wave_size
              << " post-upgrade, max |err| vs reference = " << max_err
              << ")\n";
  }

  service.wait_idle();
  std::cout << "\nFinal state: format = " << service.current_format("demo", 0)
            << ", upgraded = " << (service.upgraded("demo", 0) ? "yes" : "no")
            << ", calls served = " << service.call_count("demo") << "\n";
  return 0;
}
