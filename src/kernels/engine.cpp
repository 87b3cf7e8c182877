#include "kernels/engine.hpp"

#include <algorithm>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace bcsf {

int kernel_team_size() {
#ifdef _OPENMP
  return in_pool_task() ? 1 : omp_get_max_threads();
#else
  return 1;
#endif
}

namespace {

/// Row `i` of a row-major factor or output matrix with `rank` columns.
inline const value_t* row_of(const DenseMatrix& m, index_t i, rank_t rank) {
  return m.data().data() + static_cast<std::size_t>(i) * rank;
}
inline value_t* row_of(DenseMatrix& m, index_t i, rank_t rank) {
  return m.data().data() + static_cast<std::size_t>(i) * rank;
}

// The rank loops.  Each lane r performs the same float statements, in the
// same order, as the warp lane of the simulated schedule; vectorizing
// across r reorders nothing.
inline void fill_zero(value_t* x, rank_t rank) {
#pragma omp simd
  for (rank_t r = 0; r < rank; ++r) x[r] = 0.0F;
}
inline void axpy(value_t* y, value_t v, const value_t* x, rank_t rank) {
#pragma omp simd
  for (rank_t r = 0; r < rank; ++r) y[r] += v * x[r];
}
inline void scale(value_t* y, const value_t* x, rank_t rank) {
#pragma omp simd
  for (rank_t r = 0; r < rank; ++r) y[r] *= x[r];
}
inline void add(value_t* y, const value_t* x, rank_t rank) {
#pragma omp simd
  for (rank_t r = 0; r < rank; ++r) y[r] += x[r];
}
inline void broadcast(value_t* y, value_t v, rank_t rank) {
#pragma omp simd
  for (rank_t r = 0; r < rank; ++r) y[r] = v;
}

/// Every B-CSF block, in order, into `out` (Alg. 3 over fiber segments).
void run_bcsf(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& f,
              OutputCombine combine, DenseMatrix& out) {
  const CsfTensor& csf = bcsf.csf();
  const rank_t rank = f.front().cols();
  const ModeOrder& order = csf.mode_order();
  const index_t fiber_level = csf.node_levels() - 1;
  const DenseMatrix& leaf = f[order.back()];
  const bool shared = combine == OutputCombine::kPerSliceShared;
  std::vector<value_t> tmp(rank);
  std::vector<value_t> block_acc(rank);
  value_t* t = tmp.data();
  value_t* acc = block_acc.data();

  for (const BcsfTensor::Block& block : bcsf.blocks()) {
    value_t* y = row_of(out, csf.node_index(0, block.slice), rank);
    if (shared) fill_zero(acc, rank);
    for (offset_t fb = block.fiber_begin; fb < block.fiber_end; ++fb) {
      fill_zero(t, rank);
      const offset_t z_end = csf.child_end(fiber_level, fb);
      for (offset_t z = csf.child_begin(fiber_level, fb); z < z_end; ++z) {
        axpy(t, csf.value(z), row_of(leaf, csf.leaf_index(z), rank), rank);
      }
      // The fiber's own row first (Alg. 3 line 13), then middle levels.
      for (index_t level = fiber_level; level >= 1; --level) {
        scale(t, row_of(f[order[level]], bcsf.fiber_coord(level, fb), rank),
              rank);
      }
      add(shared ? acc : y, t, rank);
    }
    if (shared) add(y, acc, rank);
  }
}

/// Every CSL slice, in order, into `out` (Alg. 4), one accumulator per
/// warp segment of `device.csl_segment_nnz` nonzeros.
void run_csl(const CslTensor& csl, const std::vector<DenseMatrix>& f,
             const DeviceModel& device, DenseMatrix& out) {
  const auto seg_nnz = static_cast<offset_t>(device.csl_segment_nnz);
  const rank_t rank = f.front().cols();
  const ModeOrder& order = csl.mode_order();
  const index_t n_other = csl.order() - 1;
  std::vector<value_t> prod(rank);
  std::vector<value_t> seg(rank);
  value_t* p = prod.data();
  value_t* acc = seg.data();

  for (offset_t s = 0; s < csl.num_slices(); ++s) {
    value_t* y = row_of(out, csl.slice_index(s), rank);
    const offset_t end = csl.slice_end(s);
    for (offset_t z0 = csl.slice_begin(s); z0 < end; z0 += seg_nnz) {
      const offset_t z1 = std::min(z0 + seg_nnz, end);
      fill_zero(acc, rank);
      for (offset_t z = z0; z < z1; ++z) {
        broadcast(p, csl.value(z), rank);
        for (index_t q = 0; q < n_other; ++q) {
          scale(p, row_of(f[order[q + 1]], csl.nz_index(q, z), rank), rank);
        }
        add(acc, p, rank);
      }
      add(y, acc, rank);
    }
  }
}

/// HB-CSF's COO group: one nonzero per slice, so every nonzero owns its
/// output row.
void run_singletons(const HbcsfTensor& h, const std::vector<DenseMatrix>& f,
                    DenseMatrix& out) {
  const rank_t rank = f.front().cols();
  const ModeOrder& order = h.mode_order();
  std::vector<value_t> prod(rank);
  value_t* p = prod.data();
  for (offset_t z = 0; z < h.coo_nnz(); ++z) {
    broadcast(p, h.coo_value(z), rank);
    for (index_t q = 1; q < h.order(); ++q) {  // q = 0 is the root
      scale(p, row_of(f[order[q]], h.coo_index(q, z), rank), rank);
    }
    add(row_of(out, h.coo_index(0, z), rank), p, rank);
  }
}

/// Shapes `out` to rows x rank and zeroes it, reusing its storage when the
/// shape already matches.  Callers validate the factors first: `out` may
/// alias the root mode's factor, which no engine reads.
void reset_output(DenseMatrix& out, index_t rows, rank_t rank) {
  if (out.rows() == rows && out.cols() == rank) {
    out.fill(0.0F);
  } else {
    out = DenseMatrix(rows, rank);
  }
}

}  // namespace

void bcsf_engine(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& factors,
                 DenseMatrix& out, OutputCombine combine) {
  const CsfTensor& csf = bcsf.csf();
  check_factors(csf.dims(), factors);
  reset_output(out, csf.dims()[csf.root_mode()], factors.front().cols());
  run_bcsf(bcsf, factors, combine, out);
}

void csl_engine(const CslTensor& csl, const std::vector<DenseMatrix>& factors,
                const DeviceModel& device, DenseMatrix& out) {
  check_factors(csl.dims(), factors);
  reset_output(out, csl.dims()[csl.root_mode()], factors.front().cols());
  run_csl(csl, factors, device, out);
}

void hbcsf_engine(const HbcsfTensor& hbcsf,
                  const std::vector<DenseMatrix>& factors,
                  const DeviceModel& device, DenseMatrix& out) {
  check_factors(hbcsf.dims(), factors);
  reset_output(out, hbcsf.dims()[hbcsf.root_mode()], factors.front().cols());
  // A slice lives in exactly one group, so the groups write disjoint rows
  // of one output: no per-group temporaries, no combining pass.
  run_singletons(hbcsf, factors, out);
  run_csl(hbcsf.csl(), factors, device, out);
  run_bcsf(hbcsf.bcsf(), factors, OutputCombine::kPerFiber, out);
}

void coo_engine(const SparseTensor& tensor, index_t mode,
                const std::vector<DenseMatrix>& factors, DenseMatrix& out) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(mode < tensor.order(), "coo_engine: bad mode");
  const rank_t rank = factors.front().cols();
  reset_output(out, tensor.dim(mode), rank);
  std::vector<value_t> prod(rank);
  value_t* p = prod.data();
  for (offset_t z = 0; z < tensor.nnz(); ++z) {
    broadcast(p, tensor.value(z), rank);
    for (index_t m = 0; m < tensor.order(); ++m) {
      if (m == mode) continue;
      scale(p, row_of(factors[m], tensor.coord(m, z), rank), rank);
    }
    add(row_of(out, tensor.coord(mode, z), rank), p, rank);
  }
}

void fcoo_engine(const FcooTensor& fcoo, const std::vector<DenseMatrix>& factors,
                 const DeviceModel& device, DenseMatrix& out) {
  check_factors(fcoo.dims(), factors);
  const rank_t rank = factors.front().cols();
  const ModeOrder& order = fcoo.mode_order();
  const index_t n_other = fcoo.order() - 1;
  reset_output(out, fcoo.dims()[fcoo.root_mode()], rank);
  std::vector<value_t> prod(rank);
  std::vector<value_t> seg(rank);
  value_t* p = prod.data();
  value_t* acc = seg.data();

  const offset_t m = fcoo.nnz();
  const offset_t part = fcoo.partition_size();
  const offset_t chunk = fcoo_chunk_nnz(fcoo, device);
  offset_t slice_ordinal = 0;  // running ordinal into the compacted list
  for (offset_t p0 = 0; p0 < m; p0 += part) {
    const offset_t p1 = std::min(p0 + part, m);
    for (offset_t c0 = p0; c0 < p1; c0 += chunk) {
      const offset_t c1 = std::min(c0 + chunk, p1);
      // Segmented accumulation within the chunk: flush on slice change,
      // then the tail segment, which may continue into the next chunk.
      fill_zero(acc, rank);
      for (offset_t z = c0; z < c1; ++z) {
        if (fcoo.starts_slice(z)) {
          if (z != c0) {
            add(row_of(out, fcoo.slice_index(slice_ordinal), rank), acc, rank);
            fill_zero(acc, rank);
          }
          if (z > 0) ++slice_ordinal;
        }
        broadcast(p, fcoo.value(z), rank);
        for (index_t q = 0; q < n_other; ++q) {
          scale(p, row_of(factors[order[q + 1]], fcoo.nz_index(q, z), rank),
                rank);
        }
        add(acc, p, rank);
      }
      if (c1 > c0) {
        add(row_of(out, fcoo.slice_index(slice_ordinal), rank), acc, rank);
      }
    }
  }
}

}  // namespace bcsf
