// CPD-ALS with fit-based early stopping (DESIGN.md §7): the fit is
// evaluated each iteration -- its residual inner product <X, Xhat> is
// contracted from the last mode's MTTKRP output, so it costs no tensor
// traversal beyond the ALS sweep -- and iteration stops as soon as the
// improvement drops below the tolerance, instead of burning a fixed
// iteration budget.
//
// The demo decomposes an exactly low-rank tensor (so ALS converges fast
// and the early stop is obvious), prints the per-iteration fit history,
// and shows how many of the allowed iterations were actually used.
//
// Usage:
//   cpd_fit_stop [--format=cpu-csf] [--rank=4] [--max-iters=40]
//                [--tolerance=1e-3]
#include <cstdlib>
#include <iostream>

#include "bcsf/bcsf.hpp"

int main(int argc, char** argv) {
  using namespace bcsf;
  const CliParser cli(argc, argv);

  CpdOptions opts;
  opts.format = cli.get_string("format", "cpu-csf");
  opts.rank = static_cast<rank_t>(cli.get_int("rank", 4));
  opts.max_iterations = static_cast<unsigned>(cli.get_int("max-iters", 40));
  opts.fit_tolerance = cli.get_double("tolerance", 1e-3);
  opts.device = DeviceModel::p100();

  // Dense sampling of an exact rank-4 CP model: ALS should push the fit
  // toward 1 within a handful of iterations, then the FIT-based stop
  // fires long before max_iterations.
  const std::vector<index_t> dims = {30, 24, 18};
  const SparseTensor x =
      generate_low_rank(dims, 4, 30 * 24 * 18, /*noise=*/0.0F, /*seed=*/7);
  std::cout << "tensor: " << x.shape_string() << ", nnz=" << x.nnz()
            << "  (dense sample of an exact rank-4 model)\n"
            << "backend: " << opts.format << ", rank " << opts.rank
            << ", tolerance " << opts.fit_tolerance << ", at most "
            << opts.max_iterations << " iterations\n\n";

  const CpdResult result = cpd_als(x, opts);

  std::cout << "fit history (evaluated each iteration):\n";
  for (std::size_t i = 0; i < result.fit_history.size(); ++i) {
    const double fit = result.fit_history[i];
    const double gain = i == 0 ? fit : fit - result.fit_history[i - 1];
    std::cout << "  iter " << (i + 1) << ": fit = " << fit
              << (i == 0 ? "" : gain < opts.fit_tolerance
                                    ? "  (gain below tolerance -> stop)"
                                    : "")
              << "\n";
  }
  std::cout << "\nconverged after " << result.iterations << " of "
            << opts.max_iterations << " allowed iterations, final fit "
            << result.final_fit << "\n"
            << "preprocessing " << result.preprocessing_seconds * 1e3
            << " ms amortized over the MTTKRP sweeps\n";

  if (result.iterations >= opts.max_iterations) {
    std::cout << "(no early stop -- tighten --tolerance or raise "
                 "--max-iters)\n";
  }
  return EXIT_SUCCESS;
}
