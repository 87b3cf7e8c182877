// Ablation (§VI-A): SPLATT's ONEMODE vs ALLMODE.  ONEMODE keeps a single
// CSF and answers every mode from it (less memory, slower foreign-mode
// traversals); ALLMODE keeps one CSF per mode ("we use the most efficient
// ALLMODE setting").  Real single-thread wall time on this machine --
// the *relative* cost of foreign-mode traversal is the point.  ALLMODE
// runs each mode's cpu-csf plan, built before the timers start.
#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_util.hpp"
#include "kernels/extra_baselines.hpp"

int main() {
  using namespace bcsf;
  using namespace bcsf::bench;
#ifdef _OPENMP
  omp_set_num_threads(1);  // the ONEMODE walk is sequential
#endif
  print_header("Ablation -- SPLATT ONEMODE vs ALLMODE (wall time, 1 thread)",
               "ONEMODE answers all modes from one mode-1-rooted CSF");

  Table table({"tensor", "mode", "ALLMODE (ms)", "ONEMODE (ms)",
               "ONEMODE penalty", "storage ratio"});

  for (const std::string& name :
       {std::string("nell2"), std::string("uber"), std::string("nips")}) {
    const SparseTensor& x = twin(name);
    const auto& factors = factors_for(name);
    const CsfTensor root0 = build_csf(x, 0);

    std::vector<PlanPtr> allmode;
    std::size_t allmode_bytes = 0;
    for (index_t m = 0; m < x.order(); ++m) {
      allmode.push_back(FormatRegistry::instance().create("cpu-csf", x, m));
      allmode_bytes += allmode.back()->storage_bytes();
    }
    const double ratio = static_cast<double>(allmode_bytes) /
                         static_cast<double>(root0.index_storage_bytes());

    for (index_t mode = 0; mode < x.order(); ++mode) {
      Timer t_all;
      const DenseMatrix a = allmode[mode]->run(factors).output;
      const double allmode_ms = t_all.milliseconds();

      // ONEMODE's one tree is rooted at mode 0, so on mode 0 it runs the
      // root-mode kernel, as SPLATT does; other modes walk that tree.
      Timer t_one;
      const DenseMatrix b =
          mode == root0.root_mode()
              ? allmode[mode]->run(factors).output
              : mttkrp_csf_cpu_onemode(root0, mode, factors);
      const double onemode_ms = t_one.milliseconds();

      // Same semantics, different traversal.
      const double diff = a.max_abs_diff(b);
      BCSF_CHECK(diff < 1e-1, "onemode/allmode mismatch " << diff);

      table.row(name, static_cast<int>(mode), allmode_ms, onemode_ms,
                onemode_ms / allmode_ms, ratio);
    }
  }
  table.print();
  std::cout << "\nExpected shape: ONEMODE near-parity on the root mode, "
               "substantial penalty on foreign modes (the recursion cost "
               "the paper cites), while ALLMODE stores ~N times the "
               "indices.\n";
  return 0;
}
