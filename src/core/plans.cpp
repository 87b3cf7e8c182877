// Concrete TensorOpPlan implementations for every format/kernel pair in the
// library, each self-registering into the FormatRegistry.  This file is
// the ONLY place that knows which formats exist; everything above it
// (cpd, benches, examples, the enum shim) enumerates or looks up.
//
// To add a format: implement its plan class here (or in your own TU) and
// add one FormatRegistrar -- no consumer changes (DESIGN.md §4).
#include <cmath>
#include <iomanip>
#include <sstream>
#include <utility>

#include "core/auto_policy.hpp"
#include "core/format_registry.hpp"
#include "core/sharded_plan.hpp"
#include "formats/csf.hpp"
#include "formats/csl.hpp"
#include "formats/hbcsf.hpp"
#include "formats/hicoo.hpp"
#include "kernels/engine.hpp"
#include "kernels/gpu_common.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/splatt.hpp"
#include "kernels/ttv_fit.hpp"
#include "tensor/tensor_stats.hpp"
#include "util/timer.hpp"

namespace bcsf {

void ensure_builtin_plans_linked() {}  // linker anchor, see format_registry.cpp

namespace {

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

/// Wall-clock SimReport for real CPU kernels: `seconds` is measured, the
/// flop count uses the COO accounting (order x R per nonzero) so CPU and
/// GPU gflops columns are comparable.
SimReport cpu_report(const std::string& kernel, double seconds, index_t order,
                     offset_t nnz, rank_t rank) {
  SimReport r;
  r.kernel = kernel;
  r.seconds = seconds;
  r.total_flops =
      static_cast<double>(order) * rank * static_cast<double>(nnz);
  r.gflops = seconds > 0.0 ? r.total_flops / seconds / 1e9 : 0.0;
  return r;
}

/// Every simulated GPU plan: run_into() is the format's arithmetic engine
/// writing into the caller's matrix plus its cost walk, memoized per rank,
/// and run() is run_into() on a fresh matrix.  The structure a plan owns
/// is immutable for its lifetime and the walk is value-independent, so
/// every GPU key pays the cost model once per (plan, rank) (DESIGN.md §8).
class GpuPlanBase : public TensorOpPlan {
 public:
  GpuPlanBase(std::string format, std::string display, index_t mode,
              DeviceModel device)
      : TensorOpPlan(std::move(format), std::move(display), mode),
        device_(std::move(device)) {}
  bool is_gpu() const override { return true; }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const final {
    PlanRunResult r;
    r.report = run_into(f, r.output);
    return r;
  }
  SimReport run_into(const std::vector<DenseMatrix>& f,
                     DenseMatrix& out) const final {
    compute(f, out);  // validates the factors
    const rank_t rank = out.cols();
    return memoized_report(&memo_, rank, [&] { return simulate(rank); });
  }

 protected:
  /// The format's arithmetic engine (kernels/engine.hpp).
  virtual void compute(const std::vector<DenseMatrix>& f,
                       DenseMatrix& out) const = 0;
  /// The format's cost walk (simulate_*_gpu in kernels/mttkrp.hpp).
  virtual SimReport simulate(rank_t rank) const = 0;

  DeviceModel device_;

 private:
  mutable SimMemo memo_;
};

// ---------------------------------------------------------------------------
// Simulated GPU plans
// ---------------------------------------------------------------------------

/// GPU-CSF is B-CSF's schedule with both splits off, so the plan keeps
/// that unsplit B-CSF: same index storage as the CSF tree it wraps.
class GpuCsfPlan final : public GpuPlanBase {
 public:
  GpuCsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("gpu-csf", "GPU-CSF", mode, o.device),
        unsplit_(build_bcsf(t, mode, BcsfOptions::unsplit())) {}
  std::size_t storage_bytes() const override {
    return unsplit_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    bcsf_engine(unsplit_, f, out);
  }
  SimReport simulate(rank_t rank) const override {
    return simulate_csf_gpu(unsplit_, rank, device_);
  }

  BcsfTensor unsplit_;
};

class BcsfPlan final : public GpuPlanBase {
 public:
  BcsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("bcsf", "B-CSF", mode, o.device),
        bcsf_(build_bcsf(t, mode, o.bcsf)) {}
  BcsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o,
           offset_vec perm)
      : GpuPlanBase("bcsf", "B-CSF", mode, o.device),
        bcsf_(build_bcsf(t, mode, std::move(perm), o.bcsf)) {}
  std::size_t storage_bytes() const override {
    return bcsf_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    bcsf_engine(bcsf_, f, out);
  }
  SimReport simulate(rank_t rank) const override {
    return simulate_bcsf_gpu(bcsf_, rank, device_);
  }

  BcsfTensor bcsf_;
};

class CslPlan final : public GpuPlanBase {
 public:
  CslPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("csl", "CSL", mode, o.device), csl_(build_csl(t, mode)) {}
  CslPlan(const SparseTensor& t, index_t mode, const PlanOptions& o,
          offset_vec perm)
      : GpuPlanBase("csl", "CSL", mode, o.device),
        csl_(build_csl(t, mode, std::move(perm))) {}
  std::size_t storage_bytes() const override {
    return csl_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    csl_engine(csl_, f, device_, out);
  }
  SimReport simulate(rank_t rank) const override {
    return simulate_csl_gpu(csl_, rank, device_);
  }

  CslTensor csl_;
};

class HbcsfPlan final : public GpuPlanBase {
 public:
  HbcsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("hbcsf", "HB-CSF", mode, o.device),
        hb_(build_hbcsf(t, mode, o.bcsf)) {}
  HbcsfPlan(const SparseTensor& t, index_t mode, const PlanOptions& o,
            offset_vec perm)
      : GpuPlanBase("hbcsf", "HB-CSF", mode, o.device),
        hb_(build_hbcsf(t, mode, std::move(perm), o.bcsf)) {}
  std::size_t storage_bytes() const override {
    return hb_.index_storage_bytes();
  }
  std::string detail() const override {
    const double m = std::max<double>(1.0, static_cast<double>(hb_.nnz()));
    std::ostringstream os;
    os << "coo/csl/csf nnz % = " << std::fixed << std::setprecision(0)
       << 100.0 * hb_.coo_nnz() / m << "/" << 100.0 * hb_.csl_nnz() / m << "/"
       << 100.0 * hb_.csf_nnz() / m;
    return os.str();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    hbcsf_engine(hb_, f, device_, out);
  }
  SimReport simulate(rank_t rank) const override {
    return simulate_hbcsf_gpu(hb_, rank, device_);
  }

  HbcsfTensor hb_;
};

// COO's format IS the source tensor, so the COO-family plans (coo,
// cpu-coo, reference) reference it instead of copying: construction
// stays free (the paper's zero-preprocessing COO, Figs. 9/10) and no
// O(nnz) memory is duplicated.  The registry contract makes the caller
// keep the tensor alive AND immutable for the plan's lifetime (serving
// snapshots are versioned, never edited in place), so memoizing the COO
// cost walk per rank is sound too.  cpu-coo adds a slice order built
// once per plan.
class GpuCooPlan final : public GpuPlanBase {
 public:
  GpuCooPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("coo", "ParTI-COO", mode, o.device), tensor_(&t) {}
  std::size_t storage_bytes() const override {
    return tensor_->index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    coo_engine(*tensor_, mode(), f, out);
  }
  SimReport simulate(rank_t rank) const override {
    return simulate_coo_gpu(*tensor_, mode(), rank, device_);
  }

  const SparseTensor* tensor_;
};

class FcooPlan final : public GpuPlanBase {
 public:
  FcooPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : GpuPlanBase("fcoo", "F-COO", mode, o.device),
        fcoo_(build_fcoo(t, mode, o.fcoo)) {}
  std::size_t storage_bytes() const override {
    return fcoo_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    fcoo_engine(fcoo_, f, device_, out);
  }
  SimReport simulate(rank_t rank) const override {
    return simulate_fcoo_gpu(fcoo_, rank, device_);
  }

  FcooTensor fcoo_;
};

// ---------------------------------------------------------------------------
// Real CPU plans (wall-clock reports)
// ---------------------------------------------------------------------------

/// Every real CPU plan: run_into() times the format's kernel writing into
/// the caller's matrix and reports the wall clock (cpu_report), and run()
/// is run_into() on a fresh matrix -- GpuPlanBase's shape, with a
/// measured report in place of the cost walk.
class CpuPlanBase : public TensorOpPlan {
 public:
  CpuPlanBase(std::string format, std::string display, const SparseTensor& t,
              index_t mode)
      : TensorOpPlan(std::move(format), std::move(display), mode),
        order_(t.order()),
        nnz_(t.nnz()) {}
  bool is_gpu() const override { return false; }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const final {
    PlanRunResult r;
    r.report = run_into(f, r.output);
    return r;
  }
  SimReport run_into(const std::vector<DenseMatrix>& f,
                     DenseMatrix& out) const final {
    Timer t;
    compute(f, out);
    return cpu_report(display_name(), t.seconds(), order_, nnz_, out.cols());
  }

 protected:
  /// The format's MTTKRP into `out`: the arithmetic engine for cpu-csf and
  /// cpu-coo, which writes in place, and a kernel's returned matrix for
  /// the others.
  virtual void compute(const std::vector<DenseMatrix>& f,
                       DenseMatrix& out) const = 0;

 private:
  index_t order_;
  offset_t nnz_;
};

/// Fuses TTV and FIT into the double-accumulating reference kernels
/// (kernels/ttv_fit.hpp), the ground truth of every other key.
class ReferencePlan final : public CpuPlanBase {
 public:
  ReferencePlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : CpuPlanBase("reference", "Reference-COO", t, mode), tensor_(&t) {}
  std::size_t storage_bytes() const override {
    return tensor_->index_storage_bytes();
  }
  OpResult execute(const OpRequest& req) const override {
    if (req.kind != OpKind::kTtv && req.kind != OpKind::kFit) {
      return TensorOpPlan::execute(req);
    }
    check_request(req);
    OpResult res;
    Timer t;
    rank_t rank = 1;
    if (req.kind == OpKind::kTtv) {
      res.output = ttv_reference(*tensor_, mode(), *req.factors);
    } else {
      res.scalar = fit_inner_reference(*tensor_, *req.factors, req.lambda);
      rank = req.factors->front().cols();
    }
    res.report = cpu_report(display_name(), t.seconds(), tensor_->order(),
                            tensor_->nnz(), rank);
    return res;
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    out = mttkrp_reference(*tensor_, mode(), f);
  }

  const SparseTensor* tensor_;
};

/// References the tensor like every COO-family plan, plus its mode's
/// slice order, sorted once at build (charged to build_seconds() and
/// storage_bytes()).  The engine's per-nonzero product loop sweeps it in
/// slice-owned ranges.
class CpuCooPlan final : public CpuPlanBase {
 public:
  CpuCooPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : CpuPlanBase("cpu-coo", "CPU-COO", t, mode),
        tensor_(&t),
        order_(build_coo_slice_order(t, mode)) {}
  std::size_t storage_bytes() const override {
    return tensor_->index_storage_bytes() + order_.bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    coo_engine(*tensor_, order_, f, out);
  }

  const SparseTensor* tensor_;
  CooSliceOrder order_;
};

/// SPLATT's CSF loop (Alg. 3) is GPU-CSF's schedule: the B-CSF walk over
/// an unsplit B-CSF, whose index storage is the CSF tree's.
class CpuCsfPlan final : public CpuPlanBase {
 public:
  CpuCsfPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : CpuPlanBase("cpu-csf", "SPLATT", t, mode),
        unsplit_(build_bcsf(t, mode, BcsfOptions::unsplit())) {}
  std::size_t storage_bytes() const override {
    return unsplit_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    bcsf_engine(unsplit_, f, out);
  }

  BcsfTensor unsplit_;
};

class CpuCsfTiledPlan final : public CpuPlanBase {
 public:
  CpuCsfTiledPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : CpuPlanBase("cpu-csf-tiled", "SPLATT-tiled", t, mode),
        csf_(build_csf(t, mode)) {}
  std::size_t storage_bytes() const override {
    return csf_.index_storage_bytes();
  }

 private:
  /// Leaf-index tiles per MTTKRP.
  static constexpr index_t kTiles = 4;

  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    out = mttkrp_csf_cpu_tiled(csf_, f, kTiles);
  }

  CsfTensor csf_;
};

class CpuCslPlan final : public CpuPlanBase {
 public:
  CpuCslPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : CpuPlanBase("cpu-csl", "CPU-CSL", t, mode), csl_(build_csl(t, mode)) {}
  std::size_t storage_bytes() const override {
    return csl_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    out = mttkrp_csl_cpu(csl_, f);
  }

  CslTensor csl_;
};

class CpuHicooPlan final : public CpuPlanBase {
 public:
  CpuHicooPlan(const SparseTensor& t, index_t mode, const PlanOptions&)
      : CpuPlanBase("cpu-hicoo", "HiCOO", t, mode), hicoo_(build_hicoo(t)) {}
  std::size_t storage_bytes() const override {
    return hicoo_.index_storage_bytes();
  }

 private:
  void compute(const std::vector<DenseMatrix>& f,
               DenseMatrix& out) const override {
    out = mttkrp_hicoo_cpu(hicoo_, mode(), f);
  }

  HicooTensor hicoo_;
};

// ---------------------------------------------------------------------------
// The `auto` meta plan: decide per §V + Fig-10, then delegate
// ---------------------------------------------------------------------------

class AutoPlan final : public TensorOpPlan {
 public:
  AutoPlan(const SparseTensor& t, index_t mode, const PlanOptions& o)
      : TensorOpPlan("auto", "Auto", mode) {
    AutoPolicyOptions policy;
    policy.expected_mttkrp_calls = o.expected_mttkrp_calls;
    // Op-aware resolution: a TTV-dominated workload amortizes builds ~R x
    // slower, so "auto" may pick COO where full-rank traffic picks B-CSF.
    policy.op = o.op;
    // One sort serves both the statistics and the chosen format's build.
    offset_vec perm = t.sort_permutation(mode_order_for(mode, t.order()));
    decision_ = auto_select_format(compute_mode_stats(t, mode, perm), policy);
    inner_ = FormatRegistry::instance().create(decision_.format, t, mode, o,
                                               std::move(perm));
  }
  bool is_gpu() const override { return inner_->is_gpu(); }
  const std::string& resolved_format() const override {
    return inner_->format();
  }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::string detail() const override { return decision_.to_string(); }
  const AutoDecision& decision() const { return decision_; }
  PlanRunResult run(const std::vector<DenseMatrix>& f) const override {
    return inner_->run(f);
  }
  SimReport run_into(const std::vector<DenseMatrix>& f,
                     DenseMatrix& out) const override {
    return inner_->run_into(f, out);
  }
  OpResult execute(const OpRequest& req) const override {
    return inner_->execute(req);  // delegate fused paths, not just run()
  }

 private:
  AutoDecision decision_;
  PlanPtr inner_;
};

// ---------------------------------------------------------------------------
// Registrations
// ---------------------------------------------------------------------------

template <typename Plan>
FormatRegistry::Factory make() {
  return [](const SparseTensor& t, index_t mode, const PlanOptions& o) {
    return PlanPtr(new Plan(t, mode, o));
  };
}

template <typename Plan>
FormatRegistry::SortedFactory make_sorted() {
  return [](const SparseTensor& t, index_t mode, const PlanOptions& o,
            offset_vec perm) {
    return PlanPtr(new Plan(t, mode, o, std::move(perm)));
  };
}

using E = FormatRegistry::Entry;

FormatRegistrar r_gpu_csf{
    {"gpu-csf", "GPU-CSF", "plain CSF, one block per slice (§IV baseline)",
     PlanKind::kGpu, true, make<GpuCsfPlan>()}};
FormatRegistrar r_bcsf{
    {"bcsf", "B-CSF", "balanced CSF with fbr-/slc-split (§IV)",
     PlanKind::kGpu, true, make<BcsfPlan>(), kAllOpsMask,
     make_sorted<BcsfPlan>()}};
FormatRegistrar r_csl{
    {"csl", "CSL", "compressed slices, one warp per slice (§V-A)",
     PlanKind::kGpu, true, make<CslPlan>(), kAllOpsMask,
     make_sorted<CslPlan>()}};
FormatRegistrar r_hbcsf{
    {"hbcsf", "HB-CSF", "hybrid COO+CSL+B-CSF slice routing (§V)",
     PlanKind::kGpu, true, make<HbcsfPlan>(), kAllOpsMask,
     make_sorted<HbcsfPlan>()}};
FormatRegistrar r_coo{
    {"coo", "ParTI-COO", "thread per nonzero, global atomics [18]",
     PlanKind::kGpu, false, make<GpuCooPlan>()}};
FormatRegistrar r_fcoo{
    {"fcoo", "F-COO", "flagged COO with segmented scan [17]",
     PlanKind::kGpu, true, make<FcooPlan>()}};

FormatRegistrar r_reference{
    {"reference", "Reference-COO", "sequential double-accumulation ground truth",
     PlanKind::kCpu, false, make<ReferencePlan>()}};
FormatRegistrar r_cpu_coo{
    {"cpu-coo", "CPU-COO",
     "COO slices on the engine, slice order sorted at build (Alg. 2)",
     PlanKind::kCpu, false, make<CpuCooPlan>()}};
FormatRegistrar r_cpu_csf{
    {"cpu-csf", "SPLATT",
     "CSF on the engine (unsplit B-CSF), slice-owned ranges (Alg. 3)",
     PlanKind::kCpu, true, make<CpuCsfPlan>()}};
FormatRegistrar r_cpu_csf_tiled{
    {"cpu-csf-tiled", "SPLATT-tiled", "cache-blocked OpenMP CSF (4 tiles)",
     PlanKind::kCpu, true, make<CpuCsfTiledPlan>()}};
FormatRegistrar r_cpu_csl{
    {"cpu-csl", "CPU-CSL", "OpenMP CSL, parallel over slices (Alg. 4)",
     PlanKind::kCpu, true, make<CpuCslPlan>()}};
FormatRegistrar r_cpu_hicoo{
    {"cpu-hicoo", "HiCOO", "blocked COO with compressed offsets [13]",
     PlanKind::kCpu, false, make<CpuHicooPlan>()}};

FormatRegistrar r_auto{
    {"auto", "Auto", "picks COO/CSL/B-CSF/HB-CSF per §V + Fig-10 break-even",
     PlanKind::kMeta, true, make<AutoPlan>()}};

// Implemented in core/sharded_plan.cpp; registered here so this file
// stays the one catalogue of existing formats (and the linker anchor
// keeps the entry alive in static-archive consumers).
FormatRegistrar r_sharded{
    {"sharded", "Sharded",
     "K nnz-balanced slice-range shards, one inner plan each (§8)",
     PlanKind::kMeta, true, make<ShardedPlan>()}};

}  // namespace
}  // namespace bcsf
