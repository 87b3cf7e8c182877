// The arithmetic engine behind every simulated GPU key and the cpu-csf
// and cpu-coo keys (kernels/engine.hpp).
//
// Four contracts, on 2- to 5-mode tensors:
//  * the scalar loops: every engine key's output is bit for bit what its
//    format's work-unit walk, run one output entry (lane r) at a time,
//    produces -- at ranks 1-5, 7, 8, 12, 15, 16, 17 and 32, every mode,
//    both B-CSF output combines, B-CSF walks that run every window in
//    place and an unsplit slice cut into several walk-order windows --
//    and column r of a rank-R output is
//    the rank-1 run on column r of every factor, so neither row policy of
//    the engine's walks (register tiles up to rank 16, scratch rows
//    above) reorders a float statement of any lane;
//  * determinism: each output row is accumulated by one thread in
//    schedule order, so every registry key's MTTKRP, TTV and FIT answers
//    are bitwise identical at 1, 2, 3 and 4 OpenMP threads and inside a
//    pool task;
//  * ownership: the range cut covers every B-CSF block, CSL slice,
//    HB-CSF singleton and COO slice-order slice exactly once and never
//    splits a slice between ranges (a bitwise check alone can pass by
//    luck, when both halves of a slice land on one thread);
//  * accuracy on real-valued data: signed off-grid factors, so summation
//    order matters, and every entry stays within the fp32 forward-error
//    bound of the double-accumulating mttkrp_reference (see
//    forward_error_bound in forward_error.hpp).
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bcsf/bcsf.hpp"
#include "forward_error.hpp"

namespace bcsf {
namespace {

using test::forward_error_bound;

const char* const kGpuKeys[] = {"gpu-csf", "bcsf", "csl", "hbcsf", "coo",
                                "fcoo"};
/// The real CPU keys that run the engine: cpu-csf is the B-CSF walk over
/// an unsplit B-CSF, cpu-coo the per-nonzero loop over its slice order.
const char* const kCpuEngineKeys[] = {"cpu-csf", "cpu-coo"};
/// Every key whose output the engine computes.
const char* const kEngineKeys[] = {"gpu-csf", "bcsf", "csl",     "hbcsf",
                                   "coo",     "fcoo", "cpu-csf", "cpu-coo"};

struct Case {
  std::string name;
  PowerLawConfig config;
  /// Set for a hand-built tensor; otherwise generate_power_law(config).
  SparseTensor (*make)() = nullptr;

  SparseTensor tensor() const {
    return make != nullptr ? make() : generate_power_law(config);
  }
};

/// Mode-0 structure laid out by hand: three heavy slices whose split
/// fibers fill more than ten slc-split blocks each (atomic_output), slices of
/// singleton fibers (HB-CSF's CSL group), single-nonzero slices (its COO
/// group), light multi-fiber slices, and every odd slice empty.
SparseTensor heavy_slices_tensor() {
  std::mt19937 rng(74);
  std::uniform_real_distribution<float> value(0.5F, 1.5F);
  SparseTensor x({240, 64, 600});
  const auto put = [&](index_t i, index_t j, index_t k) {
    const index_t coords[] = {i, j, k};
    x.push_back(coords, value(rng));
  };
  for (index_t i = 0; i < 240; i += 2) {
    if (i % 80 == 10) {
      for (index_t j = 0; j < 24; ++j) {
        for (index_t k = 0; k < 300; ++k) put(i, j, (2 * k + j) % 600);
      }
    } else if (i % 6 == 0) {
      for (index_t j = 0; j < 20; ++j) put(i, j, (7 * i + 13 * j) % 600);
    } else if (i % 6 == 2) {
      put(i, i % 64, (3 * i) % 600);
    } else {
      for (index_t j = 0; j < 4; ++j) {
        for (index_t k = 0; k < 2 + (i + j) % 8; ++k) put(i, j, 5 * k + j);
      }
    }
  }
  return x;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  {
    // Heavy slices (slc-split blocks, long fibers) plus singleton slices
    // for HB-CSF's COO group.
    Case c;
    c.name = "skewed3d";
    c.config.dims = {60, 80, 400};
    c.config.target_nnz = 8000;
    c.config.slice_alpha = 0.4;
    c.config.max_slice_frac = 0.3;
    c.config.fiber_alpha = 0.6;
    c.config.max_fiber_len = 300;
    c.config.singleton_slice_frac = 0.1;
    c.config.seed = 71;
    out.push_back(c);
  }
  {
    // Singleton fibers: CSL slices, some long enough to span segments.
    Case c;
    c.name = "csl3d";
    c.config.dims = {200, 300, 500};
    c.config.target_nnz = 6000;
    c.config.fixed_fiber_len = 1;
    c.config.singleton_slice_frac = 0.3;
    c.config.slice_alpha = 0.5;
    c.config.seed = 72;
    out.push_back(c);
  }
  {
    Case c;
    c.name = "order4";
    c.config.dims = {40, 30, 25, 60};
    c.config.target_nnz = 6000;
    c.config.slice_alpha = 0.6;
    c.config.fiber_alpha = 0.8;
    c.config.max_fiber_len = 40;
    c.config.singleton_slice_frac = 0.1;
    c.config.seed = 73;
    out.push_back(c);
  }
  {
    Case c;
    c.name = "heavyslices3d";
    c.make = heavy_slices_tensor;
    out.push_back(c);
  }
  {
    // Order 2: a B-CSF fiber is its slice, so no level scales it.
    Case c;
    c.name = "order2";
    c.config.dims = {300, 200};
    c.config.target_nnz = 6000;
    c.config.slice_alpha = 0.6;
    c.config.max_slice_frac = 0.1;
    c.config.singleton_slice_frac = 0.1;
    c.config.seed = 76;
    out.push_back(c);
  }
  {
    // Order 5: each fiber is scaled by its own row and two middle levels.
    Case c;
    c.name = "order5";
    c.config.dims = {24, 16, 12, 10, 40};
    c.config.target_nnz = 6000;
    c.config.slice_alpha = 0.6;
    c.config.fiber_alpha = 0.8;
    c.config.max_fiber_len = 30;
    c.config.singleton_slice_frac = 0.1;
    c.config.seed = 77;
    out.push_back(c);
  }
  return out;
}

::testing::AssertionResult bitwise_equal(const DenseMatrix& a,
                                         const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  // An empty matrix (a FIT answer's output) has a null data(), which
  // memcmp may not take even for zero bytes.
  if (a.size() != 0 && std::memcmp(a.data().data(), b.data().data(),
                                   a.size() * sizeof(value_t)) != 0) {
    return ::testing::AssertionFailure()
           << "outputs differ (max |diff| " << a.max_abs_diff(b) << ")";
  }
  return ::testing::AssertionSuccess();
}

/// An op's answer: the output matrix and the FIT scalar, both bitwise.
::testing::AssertionResult same_answer(const OpResult& a, const OpResult& b) {
  if (std::memcmp(&a.scalar, &b.scalar, sizeof(double)) != 0) {
    return ::testing::AssertionFailure()
           << "scalars differ: " << a.scalar << " vs " << b.scalar;
  }
  return bitwise_equal(a.output, b.output);
}

/// Runs `fn` with OpenMP's default team size set to `threads` on the
/// calling thread.
template <typename Fn>
auto with_threads(int threads, Fn fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  auto out = fn();
  omp_set_num_threads(saved);
  return out;
#else
  (void)threads;
  return fn();
#endif
}

std::vector<DenseMatrix> abs_copy(const std::vector<DenseMatrix>& factors) {
  std::vector<DenseMatrix> out = factors;
  for (DenseMatrix& m : out) {
    for (value_t& v : m.data()) v = std::abs(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scalar oracles: each format's work units in schedule order, written
// out one output entry (lane r) at a time.  Each adds into `out`, which
// holds dims[root] x R zeros.
// ---------------------------------------------------------------------------

const value_t* row_of(const DenseMatrix& m, index_t i) {
  return m.data().data() + static_cast<std::size_t>(i) * m.cols();
}
value_t* row_of(DenseMatrix& m, index_t i) {
  return m.data().data() + static_cast<std::size_t>(i) * m.cols();
}

/// B-CSF blocks: per fiber segment t = sum of value x leaf row, scaled by
/// the fiber's own row and then each middle level, deepest first; t goes
/// into the output row (kPerFiber) or a per-block accumulator that is
/// added once at the block's end (kPerSliceShared).
void bcsf_oracle(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& f,
                 OutputCombine combine, DenseMatrix& out) {
  const CsfTensor& csf = bcsf.csf();
  const rank_t rank = f.front().cols();
  const ModeOrder& order = csf.mode_order();
  const index_t fiber_level = csf.node_levels() - 1;
  const bool shared = combine == OutputCombine::kPerSliceShared;
  std::vector<value_t> t(rank);
  std::vector<value_t> acc(rank);
  for (const BcsfTensor::Block& block : bcsf.blocks()) {
    value_t* y = row_of(out, csf.node_index(0, block.slice));
    for (rank_t r = 0; r < rank; ++r) acc[r] = 0.0F;
    for (offset_t fb = block.fiber_begin; fb < block.fiber_end; ++fb) {
      for (rank_t r = 0; r < rank; ++r) t[r] = 0.0F;
      for (offset_t z = csf.child_begin(fiber_level, fb);
           z < csf.child_end(fiber_level, fb); ++z) {
        const value_t* x = row_of(f[order.back()], csf.leaf_index(z));
        for (rank_t r = 0; r < rank; ++r) t[r] += csf.value(z) * x[r];
      }
      for (index_t level = fiber_level; level >= 1; --level) {
        const value_t* x =
            row_of(f[order[level]], bcsf.fiber_coord(level, fb));
        for (rank_t r = 0; r < rank; ++r) t[r] *= x[r];
      }
      value_t* dst = shared ? acc.data() : y;
      for (rank_t r = 0; r < rank; ++r) dst[r] += t[r];
    }
    if (shared) {
      for (rank_t r = 0; r < rank; ++r) y[r] += acc[r];
    }
  }
}

/// p = value, times each non-root factor row in mode order.
void product(value_t v, const std::vector<const value_t*>& rows, rank_t rank,
             std::vector<value_t>& p) {
  for (rank_t r = 0; r < rank; ++r) p[r] = v;
  for (const value_t* x : rows) {
    for (rank_t r = 0; r < rank; ++r) p[r] *= x[r];
  }
}

/// CSL slices in warp segments of `seg_nnz` nonzeros: each segment sums
/// its products from zero and adds the sum to the slice's row.
void csl_oracle(const CslTensor& csl, const std::vector<DenseMatrix>& f,
                offset_t seg_nnz, DenseMatrix& out) {
  const rank_t rank = f.front().cols();
  const ModeOrder& order = csl.mode_order();
  std::vector<value_t> p(rank);
  std::vector<value_t> acc(rank);
  std::vector<const value_t*> rows(csl.order() - 1);
  for (offset_t s = 0; s < csl.num_slices(); ++s) {
    value_t* y = row_of(out, csl.slice_index(s));
    for (offset_t z0 = csl.slice_begin(s); z0 < csl.slice_end(s);
         z0 += seg_nnz) {
      const offset_t z1 = std::min(z0 + seg_nnz, csl.slice_end(s));
      for (rank_t r = 0; r < rank; ++r) acc[r] = 0.0F;
      for (offset_t z = z0; z < z1; ++z) {
        for (index_t q = 0; q + 1 < csl.order(); ++q) {
          rows[q] = row_of(f[order[q + 1]], csl.nz_index(q, z));
        }
        product(csl.value(z), rows, rank, p);
        for (rank_t r = 0; r < rank; ++r) acc[r] += p[r];
      }
      for (rank_t r = 0; r < rank; ++r) y[r] += acc[r];
    }
  }
}

/// HB-CSF: its B-CSF group per fiber, its CSL group, and one product per
/// singleton added straight to the singleton's row.
void hbcsf_oracle(const HbcsfTensor& h, const std::vector<DenseMatrix>& f,
                  offset_t seg_nnz, DenseMatrix& out) {
  bcsf_oracle(h.bcsf(), f, OutputCombine::kPerFiber, out);
  csl_oracle(h.csl(), f, seg_nnz, out);
  const rank_t rank = f.front().cols();
  const ModeOrder& order = h.mode_order();
  std::vector<value_t> p(rank);
  std::vector<const value_t*> rows(h.order() - 1);
  for (offset_t z = 0; z < h.coo_nnz(); ++z) {
    for (index_t q = 1; q < h.order(); ++q) {
      rows[q - 1] = row_of(f[order[q]], h.coo_index(q, z));
    }
    product(h.coo_value(z), rows, rank, p);
    value_t* y = row_of(out, h.coo_index(0, z));
    for (rank_t r = 0; r < rank; ++r) y[r] += p[r];
  }
}

/// COO: nonzeros in storage order, each product added to its row.
void coo_oracle(const SparseTensor& x, index_t mode,
                const std::vector<DenseMatrix>& f, DenseMatrix& out) {
  const rank_t rank = f.front().cols();
  std::vector<value_t> p(rank);
  std::vector<const value_t*> rows;
  for (offset_t z = 0; z < x.nnz(); ++z) {
    rows.clear();
    for (index_t m = 0; m < x.order(); ++m) {
      if (m != mode) rows.push_back(row_of(f[m], x.coord(m, z)));
    }
    product(x.value(z), rows, rank, p);
    value_t* y = row_of(out, x.coord(mode, z));
    for (rank_t r = 0; r < rank; ++r) y[r] += p[r];
  }
}

/// F-COO: partitions cut into `chunk`-nonzero chunks; a chunk sums its
/// products from zero and flushes the sum to the current slice's row at
/// each slice start after its first nonzero and at its end.
void fcoo_oracle(const FcooTensor& fcoo, const std::vector<DenseMatrix>& f,
                 offset_t chunk, DenseMatrix& out) {
  const rank_t rank = f.front().cols();
  const ModeOrder& order = fcoo.mode_order();
  std::vector<value_t> p(rank);
  std::vector<value_t> acc(rank);
  std::vector<const value_t*> rows(fcoo.order() - 1);
  const offset_t m = fcoo.nnz();
  offset_t slice = 0;
  const auto flush = [&] {
    value_t* y = row_of(out, fcoo.slice_index(slice));
    for (rank_t r = 0; r < rank; ++r) y[r] += acc[r];
    for (rank_t r = 0; r < rank; ++r) acc[r] = 0.0F;
  };
  for (offset_t p0 = 0; p0 < m; p0 += fcoo.partition_size()) {
    const offset_t p1 = std::min(p0 + fcoo.partition_size(), m);
    for (offset_t c0 = p0; c0 < p1; c0 += chunk) {
      const offset_t c1 = std::min(c0 + chunk, p1);
      for (rank_t r = 0; r < rank; ++r) acc[r] = 0.0F;
      for (offset_t z = c0; z < c1; ++z) {
        if (fcoo.starts_slice(z)) {
          if (z != c0) flush();
          if (z > 0) ++slice;
        }
        for (index_t q = 0; q + 1 < fcoo.order(); ++q) {
          rows[q] = row_of(f[order[q + 1]], fcoo.nz_index(q, z));
        }
        product(fcoo.value(z), rows, rank, p);
        for (rank_t r = 0; r < rank; ++r) acc[r] += p[r];
      }
      if (c1 > c0) flush();
    }
  }
}

/// Every engine key's format for one mode, built as the registry builds
/// it from `opts`.
struct ModeFormats {
  ModeFormats(const SparseTensor& t, index_t m, const PlanOptions& opts)
      : x(t), mode(m), device(opts.device),
        unsplit(build_bcsf(t, m, BcsfOptions::unsplit())),
        bcsf(build_bcsf(t, m, opts.bcsf)),
        csl(build_csl(t, m)),
        hbcsf(build_hbcsf(t, m, opts.bcsf)),
        fcoo(build_fcoo(t, m, opts.fcoo)) {}

  /// The scalar oracle's output for `key` at the factors' rank.
  DenseMatrix oracle(const std::string& key,
                     const std::vector<DenseMatrix>& f) const {
    DenseMatrix out(x.dim(mode), f.front().cols());
    const auto seg_nnz = static_cast<offset_t>(device.csl_segment_nnz);
    if (key == "gpu-csf") {
      bcsf_oracle(unsplit, f, OutputCombine::kPerFiber, out);
    } else if (key == "bcsf") {
      bcsf_oracle(bcsf, f, OutputCombine::kPerFiber, out);
    } else if (key == "csl") {
      csl_oracle(csl, f, seg_nnz, out);
    } else if (key == "hbcsf") {
      hbcsf_oracle(hbcsf, f, seg_nnz, out);
    } else if (key == "coo") {
      coo_oracle(x, mode, f, out);
    } else if (key == "fcoo") {
      fcoo_oracle(fcoo, f, fcoo_chunk_nnz(fcoo, device), out);
    } else if (key == "cpu-csf") {
      bcsf_oracle(unsplit, f, OutputCombine::kPerFiber, out);
    } else if (key == "cpu-coo") {
      // Whole-slice segments: each slice sums its products in sort order.
      csl_oracle(csl, f, std::max<offset_t>(1, x.nnz()), out);
    } else {
      ADD_FAILURE() << "no oracle for " << key;
    }
    return out;
  }

  const SparseTensor& x;
  index_t mode;
  DeviceModel device;
  BcsfTensor unsplit;
  BcsfTensor bcsf;
  CslTensor csl;
  HbcsfTensor hbcsf;
  FcooTensor fcoo;
};

class EngineTest : public ::testing::TestWithParam<std::tuple<int, rank_t>> {};

TEST_P(EngineTest, BitwiseAtEveryTeamSizeAndInsidePoolTasks) {
  const auto [case_idx, rank] = GetParam();
  const Case c = cases()[case_idx];
  const SparseTensor x = c.tensor();
  const auto factors = make_random_factors(x.dims(), rank, 901, -1.0F, 1.0F);
  const auto vectors = make_random_factors(x.dims(), 1, 906, -1.0F, 1.0F);
  std::vector<value_t> lambda(rank);
  for (rank_t r = 0; r < rank; ++r) lambda[r] = 0.75F + 0.125F * (r % 5);
  PlanOptions opts;
  opts.device = DeviceModel::tiny(4, 16);
  ThreadPool pool(2);

  for (index_t mode = 0; mode < x.order(); ++mode) {
    for (const std::string& key : FormatRegistry::instance().names()) {
      const PlanPtr plan = FormatRegistry::instance().create(key, x, mode, opts);
      for (const OpKind op : kAllOps) {
        SCOPED_TRACE(c.name + " " + key + " " + op_name(op) + " mode " +
                     std::to_string(mode) + " rank " + std::to_string(rank));
        OpRequest req;
        req.kind = op;
        req.mode = mode;
        req.factors = op == OpKind::kTtv ? &vectors : &factors;
        req.lambda = op == OpKind::kFit ? &lambda : nullptr;
        const OpResult one =
            with_threads(1, [&] { return plan->execute(req); });
        for (int threads : {2, 3, 4}) {
          EXPECT_TRUE(same_answer(
              one, with_threads(threads, [&] { return plan->execute(req); })))
              << threads << " threads";
        }
        const OpResult pooled = pool.async([&] {
                                      EXPECT_EQ(kernel_team_size(), 1);
                                      return plan->execute(req);
                                    }).get();
        EXPECT_TRUE(same_answer(one, pooled)) << "inside a pool task";
      }
    }
  }
}

TEST_P(EngineTest, RealValuedOutputsStayWithinTheForwardErrorBound) {
  const auto [case_idx, rank] = GetParam();
  const Case c = cases()[case_idx];
  const SparseTensor x = c.tensor();
  const auto factors = make_random_factors(x.dims(), rank, 902, -1.0F, 1.0F);
  const auto abs_factors = abs_copy(factors);
  SparseTensor abs_x = x;
  for (value_t& v : abs_x.values()) v = std::abs(v);
  PlanOptions opts;
  opts.device = DeviceModel::tiny(4, 16);

  for (index_t mode = 0; mode < x.order(); ++mode) {
    const DenseMatrix ref = mttkrp_reference(x, mode, factors);
    const DenseMatrix abs_ref = mttkrp_reference(abs_x, mode, abs_factors);
    std::vector<offset_t> row_nnz(x.dim(mode), 0);
    for (offset_t z = 0; z < x.nnz(); ++z) ++row_nnz[x.coord(mode, z)];

    for (const char* key : kEngineKeys) {
      SCOPED_TRACE(c.name + " " + key + " mode " + std::to_string(mode) +
                   " rank " + std::to_string(rank));
      const DenseMatrix got =
          FormatRegistry::instance().create(key, x, mode, opts)->run(factors).output;
      ASSERT_EQ(got.rows(), ref.rows());
      double worst = 0.0;  // largest |error| / bound over the matrix
      for (index_t i = 0; i < ref.rows(); ++i) {
        for (rank_t r = 0; r < rank; ++r) {
          const double err = std::abs(static_cast<double>(got(i, r)) - ref(i, r));
          const double bound =
              forward_error_bound(row_nnz[i], x.order(), abs_ref(i, r));
          if (bound == 0.0) {
            EXPECT_EQ(err, 0.0) << "row " << i << " col " << r;
          } else {
            worst = std::max(worst, err / bound);
          }
        }
      }
      EXPECT_LE(worst, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(cases().size())),
        ::testing::Values<rank_t>(1, 8, 16, 17, 32)),
    [](const ::testing::TestParamInfo<std::tuple<int, rank_t>>& info) {
      return cases()[std::get<0>(info.param)].name + "_r" +
             std::to_string(std::get<1>(info.param));
    });

/// Ranks on both sides of the register-tile limit (16), every tile width
/// with and without a partial vector, and the scratch rows' 17 and 32.
const rank_t kOracleRanks[] = {1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 32};

class EngineOracleTest
    : public ::testing::TestWithParam<std::tuple<int, rank_t>> {};

/// Each of `keys`' plans against its scalar oracle, on every mode.
void expect_oracle_outputs(int case_idx, rank_t rank,
                           std::span<const char* const> keys) {
  const Case c = cases()[case_idx];
  const SparseTensor x = c.tensor();
  const auto factors = make_random_factors(x.dims(), rank, 903, -1.0F, 1.0F);
  PlanOptions opts;
  opts.device = DeviceModel::tiny(4, 16);

  for (index_t mode = 0; mode < x.order(); ++mode) {
    const ModeFormats formats(x, mode, opts);
    for (const char* key : keys) {
      SCOPED_TRACE(c.name + " " + key + " mode " + std::to_string(mode) +
                   " rank " + std::to_string(rank));
      const PlanPtr plan = FormatRegistry::instance().create(key, x, mode, opts);
      EXPECT_TRUE(bitwise_equal(formats.oracle(key, factors),
                                plan->run(factors).output));
    }
  }
}

TEST_P(EngineOracleTest, EveryGpuKeyMatchesTheScalarLoopsBitwise) {
  const auto [case_idx, rank] = GetParam();
  expect_oracle_outputs(case_idx, rank, kGpuKeys);
}

TEST_P(EngineOracleTest, CpuEngineKeysMatchTheScalarLoopsBitwise) {
  const auto [case_idx, rank] = GetParam();
  expect_oracle_outputs(case_idx, rank, kCpuEngineKeys);
}

TEST_P(EngineOracleTest, BcsfEngineMatchesTheScalarLoopsUnderBothCombines) {
  const auto [case_idx, rank] = GetParam();
  const Case c = cases()[case_idx];
  const SparseTensor x = c.tensor();
  const auto factors = make_random_factors(x.dims(), rank, 904, -1.0F, 1.0F);

  for (index_t mode = 0; mode < x.order(); ++mode) {
    const BcsfTensor bcsf = build_bcsf(x, mode);
    for (const OutputCombine combine :
         {OutputCombine::kPerFiber, OutputCombine::kPerSliceShared}) {
      SCOPED_TRACE(c.name + " mode " + std::to_string(mode) + " rank " +
                   std::to_string(rank) + " combine " +
                   std::to_string(static_cast<int>(combine)));
      DenseMatrix want(x.dim(mode), rank);
      bcsf_oracle(bcsf, factors, combine, want);
      DenseMatrix got;
      bcsf_engine(bcsf, factors, got, combine);
      EXPECT_TRUE(bitwise_equal(want, got));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, EngineOracleTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(cases().size())),
        ::testing::ValuesIn(kOracleRanks)),
    [](const ::testing::TestParamInfo<std::tuple<int, rank_t>>& info) {
      return cases()[std::get<0>(info.param)].name + "_r" +
             std::to_string(std::get<1>(info.param));
    });

/// Mode-0 fibers that all hold one count per slice (1-4 nonzeros by
/// slice), so every walk-order window of a mode-0 B-CSF is already in
/// length order and the walk runs it in place.
SparseTensor one_length_tensor() {
  std::mt19937 rng(78);
  std::uniform_real_distribution<float> value(0.5F, 1.5F);
  SparseTensor x({48, 40, 30});
  for (index_t i = 0; i < 48; ++i) {
    const index_t len = 1 + i % 4;
    for (index_t j = (i % 3); j < 40; j += 1 + i % 3) {
      for (index_t k = 0; k < len; ++k) {
        const index_t coords[] = {i, j, (j + 7 * k) % 30};
        x.push_back(coords, value(rng));
      }
    }
  }
  return x;
}

/// Slice 0 holds 1200 fibers of 1-6 nonzeros: an unsplit B-CSF walks it
/// in three windows.
SparseTensor wide_slice_tensor() {
  std::mt19937 rng(79);
  std::uniform_real_distribution<float> value(0.5F, 1.5F);
  SparseTensor x({3, 1200, 16});
  for (index_t j = 0; j < 1200; ++j) {
    for (index_t k = 0; k < 1 + (5 * j + j / 7) % 6; ++k) {
      const index_t coords[] = {0, j, (j + 3 * k) % 16};
      x.push_back(coords, value(rng));
    }
  }
  for (index_t j = 0; j < 20; ++j) {
    const index_t coords[] = {2, 9 * j, j % 16};
    x.push_back(coords, value(rng));
  }
  return x;
}

/// bcsf_engine(bcsf) against bcsf_oracle under both output combines.
void expect_bcsf_oracle(const BcsfTensor& bcsf,
                        const std::vector<DenseMatrix>& factors,
                        index_t rows) {
  for (const OutputCombine combine :
       {OutputCombine::kPerFiber, OutputCombine::kPerSliceShared}) {
    SCOPED_TRACE("combine " + std::to_string(static_cast<int>(combine)));
    DenseMatrix want(rows, factors.front().cols());
    bcsf_oracle(bcsf, factors, combine, want);
    DenseMatrix got;
    bcsf_engine(bcsf, factors, got, combine);
    EXPECT_TRUE(bitwise_equal(want, got));
  }
}

/// Whether every walk-order window of `bcsf` runs in place.
bool every_window_in_place(const BcsfTensor& bcsf) {
  for (const BcsfTensor::Block& b : bcsf.blocks()) {
    for (offset_t w = b.fiber_begin; w < b.fiber_end;
         w += BcsfTensor::kOrderWindow) {
      if ((bcsf.walk_order()[w] & BcsfTensor::kOrderInPlace) == 0) return false;
    }
  }
  return true;
}

class BcsfWalkOrderTest : public ::testing::TestWithParam<rank_t> {};

TEST_P(BcsfWalkOrderTest, InPlaceWindowsMatchTheScalarLoops) {
  const rank_t rank = GetParam();
  const SparseTensor x = one_length_tensor();
  const auto factors = make_random_factors(x.dims(), rank, 907, -1.0F, 1.0F);
  BcsfOptions small_blocks;  // slc-split blocks, atomic output rows
  small_blocks.block_nnz_capacity = 24;
  for (const BcsfOptions& opts :
       {BcsfOptions{}, small_blocks, BcsfOptions::unsplit()}) {
    SCOPED_TRACE("rank " + std::to_string(rank) + " capacity " +
                 std::to_string(opts.block_nnz_capacity) + " split " +
                 std::to_string(opts.slice_split));
    const BcsfTensor bcsf = build_bcsf(x, 0, opts);
    ASSERT_TRUE(every_window_in_place(bcsf));
    expect_bcsf_oracle(bcsf, factors, x.dim(0));
  }
}

TEST_P(BcsfWalkOrderTest, WideUnsplitSliceMatchesTheScalarLoops) {
  const rank_t rank = GetParam();
  const SparseTensor x = wide_slice_tensor();
  const auto factors = make_random_factors(x.dims(), rank, 908, -1.0F, 1.0F);
  const BcsfTensor bcsf = build_bcsf(x, 0, BcsfOptions::unsplit());
  ASSERT_GT(bcsf.blocks().front().fiber_end, 2 * BcsfTensor::kOrderWindow);
  // The first window is full and keeps all its rows.
  ASSERT_EQ(bcsf.walk_order().front() & BcsfTensor::kOrderInPlace, 0);
  SCOPED_TRACE("rank " + std::to_string(rank));
  expect_bcsf_oracle(bcsf, factors, x.dim(0));
}

INSTANTIATE_TEST_SUITE_P(Ranks, BcsfWalkOrderTest,
                         ::testing::ValuesIn(kOracleRanks),
                         [](const ::testing::TestParamInfo<rank_t>& info) {
                           return "r" + std::to_string(info.param);
                         });

/// Column `r` of `m` as a dims x 1 matrix.
DenseMatrix column(const DenseMatrix& m, rank_t r) {
  DenseMatrix out(m.rows(), 1);
  for (index_t i = 0; i < m.rows(); ++i) out(i, 0) = m(i, r);
  return out;
}

class EngineLaneTest : public ::testing::TestWithParam<const char*> {};

// Lanes never mix: column r of a rank-R output is, bit for bit, the
// rank-1 run on column r of every factor, at every rank the oracle test
// covers plus 24.  Off-grid values, so any reordering of a lane's float
// statements between the two runs would show.
TEST_P(EngineLaneTest, ColumnRIsTheRankOneRunOnColumnR) {
  const char* key = GetParam();
  PowerLawConfig cfg;
  cfg.dims = {300, 200, 160};
  cfg.target_nnz = 20000;
  cfg.slice_alpha = 0.7;
  cfg.fiber_alpha = 0.9;
  cfg.max_fiber_len = 160;
  cfg.singleton_slice_frac = 0.05;
  cfg.seed = 75;
  const SparseTensor x = generate_power_law(cfg);
  PlanOptions opts;
  opts.device = DeviceModel::tiny(4, 16);
  std::vector<rank_t> ranks(std::begin(kOracleRanks), std::end(kOracleRanks));
  ranks.push_back(24);

  for (index_t mode = 0; mode < x.order(); ++mode) {
    const PlanPtr plan = FormatRegistry::instance().create(key, x, mode, opts);
    for (const rank_t rank : ranks) {
      const auto factors =
          make_random_factors(x.dims(), rank, 905, -1.0F, 1.0F);
      const DenseMatrix wide = plan->run(factors).output;
      for (rank_t r = 0; r < rank; ++r) {
        SCOPED_TRACE(std::string(key) + " mode " + std::to_string(mode) +
                     " rank " + std::to_string(rank) + " column " +
                     std::to_string(r));
        std::vector<DenseMatrix> columns;
        for (const DenseMatrix& f : factors) columns.push_back(column(f, r));
        EXPECT_TRUE(
            bitwise_equal(column(wide, r), plan->run(columns).output));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Keys, EngineLaneTest, ::testing::ValuesIn(kEngineKeys),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// Nonzeros of one range.
offset_t range_nnz(const EngineRange& r, const BcsfTensor& bcsf,
                   const CslTensor& csl, const CooSliceOrder& coo) {
  offset_t nnz = 0;
  switch (r.units) {
    case EngineRange::Units::kBcsfBlocks:
      for (offset_t b = r.begin; b < r.end; ++b) nnz += bcsf.blocks()[b].nnz;
      break;
    case EngineRange::Units::kCslSlices:
      nnz = csl.slice_begin(r.end) - csl.slice_begin(r.begin);
      break;
    case EngineRange::Units::kSingletons:
      nnz = r.end - r.begin;
      break;
    case EngineRange::Units::kCooSlices:
      nnz = coo.slice_start[r.end] - coo.slice_start[r.begin];
      break;
  }
  return nnz;
}

/// The ownership contract of one range list: per unit kind the ranges
/// tile [0, units) exactly once, B-CSF ranges start only where the slice
/// changes, and every range but the last of its kind holds at least 2048
/// nonzeros (so a cut never degenerates to one range per unit).
void expect_owner_ranges(const std::vector<EngineRange>& ranges,
                         const BcsfTensor* bcsf, const CslTensor* csl,
                         offset_t singletons,
                         const CooSliceOrder* coo = nullptr) {
  const BcsfTensor empty_bcsf;
  const CslTensor empty_csl;
  const CooSliceOrder empty_coo;
  const BcsfTensor& b = bcsf != nullptr ? *bcsf : empty_bcsf;
  const CslTensor& s = csl != nullptr ? *csl : empty_csl;
  const CooSliceOrder& o = coo != nullptr ? *coo : empty_coo;
  const std::pair<EngineRange::Units, offset_t> kinds[] = {
      {EngineRange::Units::kBcsfBlocks, b.blocks().size()},
      {EngineRange::Units::kCslSlices, s.num_slices()},
      {EngineRange::Units::kSingletons, singletons},
      {EngineRange::Units::kCooSlices,
       o.slice_start.empty() ? 0 : o.slice_start.size() - 1}};
  for (const auto& [units, count] : kinds) {
    SCOPED_TRACE(static_cast<int>(units));
    std::vector<EngineRange> mine;
    for (const EngineRange& r : ranges) {
      if (r.units == units) mine.push_back(r);
    }
    std::sort(mine.begin(), mine.end(),
              [](const EngineRange& x, const EngineRange& y) {
                return x.begin < y.begin;
              });
    offset_t covered = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const EngineRange& r = mine[i];
      ASSERT_EQ(r.begin, covered) << "gap or overlap at range " << i;
      ASSERT_LT(r.begin, r.end) << "empty range " << i;
      covered = r.end;
      if (units == EngineRange::Units::kBcsfBlocks && r.begin > 0) {
        EXPECT_NE(b.blocks()[r.begin].slice, b.blocks()[r.begin - 1].slice)
            << "range " << i << " splits a slice";
      }
      EXPECT_EQ(r.nnz, range_nnz(r, b, s, o)) << "range " << i;
      if (i + 1 < mine.size()) {
        EXPECT_GE(r.nnz, 2048u) << "range " << i;
      }
    }
    EXPECT_EQ(covered, count);
  }
}

TEST(EngineRanges, CoverEveryUnitOnceAndNeverSplitASlice) {
  for (const Case& c : cases()) {
    const SparseTensor x = c.tensor();
    for (index_t mode = 0; mode < x.order(); ++mode) {
      const BcsfTensor bcsf = build_bcsf(x, mode);
      const CslTensor csl = build_csl(x, mode);
      const HbcsfTensor hbcsf = build_hbcsf(x, mode);
      const CooSliceOrder order = build_coo_slice_order(x, mode);
      for (int team : {1, 2, 3, 4, 64}) {
        SCOPED_TRACE(c.name + " mode " + std::to_string(mode) + " team " +
                     std::to_string(team));
        expect_owner_ranges(engine_ranges(bcsf, team), &bcsf, nullptr, 0);
        expect_owner_ranges(engine_ranges(csl, team), nullptr, &csl, 0);
        expect_owner_ranges(engine_ranges(hbcsf, team), &hbcsf.bcsf(),
                            &hbcsf.csl(), hbcsf.coo_nnz());
        expect_owner_ranges(engine_ranges(order, team), nullptr, nullptr, 0,
                            &order);
      }
    }
  }
}

TEST(EngineRanges, HeavySlicesKeepTheirSplitBlocksTogether) {
  // The hand-built case really exercises what the cut must respect.
  const SparseTensor x = heavy_slices_tensor();
  const BcsfTensor bcsf = build_bcsf(x, 0);
  const HbcsfTensor hbcsf = build_hbcsf(x, 0);
  EXPECT_LT(bcsf.csf().num_slices(), x.dim(0)) << "no empty slices";
  EXPECT_EQ(bcsf.split_slice_count(), 3u);
  EXPECT_GT(hbcsf.coo_nnz(), 0u);
  EXPECT_GT(hbcsf.csl_nnz(), 0u);
  EXPECT_GT(hbcsf.csf_nnz(), 0u);

  for (int team : {1, 3, 4}) {
    const std::vector<EngineRange> ranges = engine_ranges(bcsf, team);
    EXPECT_GT(ranges.size(), 3u) << "team " << team;
    // Each heavy slice's atomic_output blocks sit in one range.
    std::size_t heavy_ranges = 0;
    for (const EngineRange& r : ranges) {
      offset_t atomic = 0;
      for (offset_t b = r.begin; b < r.end; ++b) {
        atomic += bcsf.blocks()[b].atomic_output ? 1 : 0;
      }
      if (atomic > 0) {
        ++heavy_ranges;
        EXPECT_GE(atomic, 10u) << "a heavy slice was cut, team " << team;
      }
    }
    EXPECT_EQ(heavy_ranges, 3u) << "team " << team;
  }
}

TEST(KernelTeamSize, OneInsidePoolTasksAndRunTasksDrains) {
  EXPECT_FALSE(in_pool_task());
#ifdef _OPENMP
  EXPECT_EQ(kernel_team_size(), omp_get_max_threads());
#else
  EXPECT_EQ(kernel_team_size(), 1);
#endif
  ThreadPool pool(2);
  EXPECT_EQ(pool.async([] { return kernel_team_size(); }).get(), 1);

  // A run_tasks caller draining beside pool helpers is a pool task too;
  // without a pool run_tasks is plain sequential code.
  std::vector<int> seen(4, -1);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    tasks.push_back([&seen, i] { seen[i] = kernel_team_size(); });
  }
  run_tasks(&pool, tasks);
  for (int s : seen) EXPECT_EQ(s, 1);
  run_tasks(nullptr, tasks);
  for (int s : seen) EXPECT_EQ(s, kernel_team_size());
  EXPECT_FALSE(in_pool_task());
}

}  // namespace
}  // namespace bcsf
