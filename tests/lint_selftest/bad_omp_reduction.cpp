// lint-selftest-path: src/kernels/bad_omp_reduction.cpp
// lint-selftest-expect: omp-reduction
//
// Deliberate violation: an OpenMP reduction, here on the continuation
// line of a pragma that otherwise sizes its team correctly.  libgomp
// adds the per-thread partials in an order that depends on the team
// size, so the sum changes with OMP_NUM_THREADS.
#include <cstdint>
#include <vector>

int kernel_team_size();

double sum_all(const std::vector<double>& xs) {
  const auto n = static_cast<std::int64_t>(xs.size());
  double total = 0.0;
#pragma omp parallel for num_threads(kernel_team_size()) \
    schedule(static) reduction(+ : total)
  for (std::int64_t i = 0; i < n; ++i) total += xs[i];
  return total;
}
