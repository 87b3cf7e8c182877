#include "kernels/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>
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

/// Ranges per team thread, at least: a descheduled thread then holds
/// back one small range, not a share of the call.
constexpr offset_t kRangesPerThread = 16;
/// Nonzeros per range, at least, so a range's hand-out cost stays noise.
constexpr offset_t kMinRangeNnz = 2048;

// ---------------------------------------------------------------------------
// Row policies.  Each engine's work-unit walk is written once, as a
// template over a row policy that says where the rank-R rows it works on
// -- a fiber's partial, a segment's sum, a nonzero's product, a block's
// output row -- live: in registers (TileRows, ranks 1 to kMaxTileRank)
// or in the thread's scratch (ScratchRows, any rank).  Every row
// operation performs, on each lane r, the warp lane's float statement of
// the simulated schedule; vector lanes and simd iterations reorder
// nothing, so both policies compute the same bits.
// ---------------------------------------------------------------------------

/// Four value_t lanes in one SSE register, a GCC/Clang vector extension
/// like linalg/lanes.hpp's Lanes.  Its operations are lane-wise.
using Vec = value_t __attribute__((vector_size(4 * sizeof(value_t))));
constexpr rank_t kVecLanes = 4;
static_assert(sizeof(Vec) == kVecLanes * sizeof(value_t));

/// Widest rank the tiles take: at rank 16 a walk's two tiles and one
/// loaded factor row fill 12 of SSE2's 16 vector registers, while a
/// 32-wide tile spills.
constexpr rank_t kMaxTileRank = 16;

/// One rank-R row in registers: ceil(R / 4) vectors, the last one partial
/// when 4 does not divide R (its spare lanes are never stored).  The
/// vector loops are unrolled, as in linalg/, so the tile stays in
/// registers at -O2 too.
template <rank_t R>
struct Tile {
  static constexpr rank_t kVecs = (R + kVecLanes - 1) / kVecLanes;
  /// Lanes the last vector uses.
  static constexpr rank_t kTail = R - (kVecs - 1) * kVecLanes;

  Vec v[kVecs];

  void zero() {
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] = Vec{};
  }
  void splat(value_t s) {
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] = Vec{s, s, s, s};
  }
  // A partial last vector is assembled and taken apart lane by lane: a
  // partial memcpy would go through the stack, and the full-width reload
  // of a narrower store stalls on every nonzero.
  void load(const value_t* p) {
#pragma GCC unroll 4
    for (rank_t i = 0; i + 1 < kVecs; ++i) {
      std::memcpy(&v[i], p + i * kVecLanes, sizeof(Vec));
    }
    const value_t* q = p + (kVecs - 1) * kVecLanes;
    if constexpr (kTail == kVecLanes) {
      std::memcpy(&v[kVecs - 1], q, sizeof(Vec));
    } else {
      v[kVecs - 1] = Vec{q[0], kTail > 1 ? q[1] : 0.0F,
                         kTail > 2 ? q[2] : 0.0F, 0.0F};
    }
  }
  void store(value_t* p) const {
#pragma GCC unroll 4
    for (rank_t i = 0; i + 1 < kVecs; ++i) {
      std::memcpy(p + i * kVecLanes, &v[i], sizeof(Vec));
    }
    value_t* q = p + (kVecs - 1) * kVecLanes;
    if constexpr (kTail == kVecLanes) {
      std::memcpy(q, &v[kVecs - 1], sizeof(Vec));
    } else {
#pragma GCC unroll 4
      for (rank_t r = 0; r < kTail; ++r) q[r] = v[kVecs - 1][r];
    }
  }
  Tile& operator+=(const Tile& x) {
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] += x.v[i];
    return *this;
  }
  /// this *= the row at p.
  void mul(const value_t* p) {
    Tile x{};
    x.load(p);
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] *= x.v[i];
  }
  /// this += s * the row at p.
  void add_scaled(value_t s, const value_t* p) {
    Tile x{};
    x.load(p);
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] += s * x.v[i];
  }
  /// The row at p += this.
  void add_to(value_t* p) const {
    Tile y{};
    y.load(p);
    y += *this;
    y.store(p);
  }
};

/// One runtime-rank row: `rank` floats at `x` -- in the thread's scratch,
/// or an output row a walk accumulates into in place -- with Tile's
/// operations as omp simd loops.
struct ScratchRow {
  value_t* x;
  rank_t rank;

  void zero() {
#pragma omp simd
    for (rank_t r = 0; r < rank; ++r) x[r] = 0.0F;
  }
  void splat(value_t s) {
#pragma omp simd
    for (rank_t r = 0; r < rank; ++r) x[r] = s;
  }
  ScratchRow& operator+=(const ScratchRow& u) {
#pragma omp simd
    for (rank_t r = 0; r < rank; ++r) x[r] += u.x[r];
    return *this;
  }
  void mul(const value_t* p) {
#pragma omp simd
    for (rank_t r = 0; r < rank; ++r) x[r] *= p[r];
  }
  void add_scaled(value_t s, const value_t* p) {
#pragma omp simd
    for (rank_t r = 0; r < rank; ++r) x[r] += s * p[r];
  }
  void add_to(value_t* p) const {
#pragma omp simd
    for (rank_t r = 0; r < rank; ++r) p[r] += x[r];
  }
};

/// Rank-R rows in registers.  Needs no scratch.
template <rank_t R>
struct TileRows {
  using Row = Tile<R>;

  static constexpr std::size_t scratch_floats() { return 0; }
  static TileRows in(value_t* /*scratch*/) { return {}; }
  static Row row(rank_t /*k*/) { return {}; }
  /// The output row at y to accumulate into: a tile loaded from it,
  /// which close() stores back.
  static Row open(value_t* y) {
    Row r{};
    r.load(y);
    return r;
  }
  static void close(const Row& r, value_t* y) { r.store(y); }
  /// Row i of the row-major matrix at m.
  template <typename T>
  static T* at(T* m, index_t i) {
    return m + static_cast<std::size_t>(i) * R;
  }
};

/// Runtime-rank rows: row k of a walk starts at scratch + k * stride().
struct ScratchRows {
  using Row = ScratchRow;
  /// Rows a walk holds at once.
  static constexpr rank_t kRows = 2;

  rank_t rank;
  value_t* scratch = nullptr;

  /// Floats from one row to the next: every row starts as aligned as the
  /// scratch (16 bytes), so no vector access splits a cache line; with
  /// rows 4 bytes off, rank-17 B-CSF and HB-CSF ran ~1.2x slower at 4
  /// threads.
  std::size_t stride() const { return round_up<std::size_t>(rank, 4); }
  std::size_t scratch_floats() const { return kRows * stride(); }
  /// This policy on `scratch`, which holds scratch_floats() floats.
  ScratchRows in(value_t* s) const { return {rank, s}; }
  Row row(rank_t k) const { return {scratch + k * stride(), rank}; }
  /// The output row at y itself: the walk accumulates in place.  (A
  /// scratch copy of it ran rank-32 B-CSF 1.3-1.6x slower at 4 threads.)
  Row open(value_t* y) const { return {y, rank}; }
  void close(const Row& /*r*/, value_t* /*y*/) const {}
  template <typename T>
  T* at(T* m, index_t i) const {
    return m + static_cast<std::size_t>(i) * rank;
  }
};

/// Calls fn(rows) with the row policy for `rank`: TileRows<rank> up to
/// kMaxTileRank, ScratchRows above.
template <typename Fn>
void with_rows(rank_t rank, Fn fn) {
  const bool tiled = [&]<rank_t... I>(std::integer_sequence<rank_t, I...>) {
    return ((rank == I + 1 && (fn(TileRows<I + 1>{}), true)) || ...);
  }(std::make_integer_sequence<rank_t, kMaxTileRank>{});
  if (!tiled) fn(ScratchRows{rank});
}

/// The factor rows a work unit reads at one tree level or tensor mode:
/// unit u reads row coords[u] of the row-major `factor`.
struct RowSource {
  const index_t* coords;
  const value_t* factor;
};

/// The non-root rows of a CSL, HB-CSF COO-group, COO or F-COO nonzero,
/// in mode order: position p + 1 reads the coordinates at coords(p).
template <typename Coords>
std::vector<RowSource> position_sources(const ModeOrder& order,
                                        const std::vector<DenseMatrix>& f,
                                        Coords coords) {
  std::vector<RowSource> out;
  for (index_t p = 0; p + 1 < order.size(); ++p) {
    out.push_back({coords(p), f[order[p + 1]].data().data()});
  }
  return out;
}

/// p = the product of unit u: `value`, scaled by each source's row in
/// turn.
template <typename Rows>
void product(const Rows& rows, typename Rows::Row& p, value_t value,
             std::span<const RowSource> sources, offset_t u) {
  p.splat(value);
  for (const RowSource& s : sources) p.mul(rows.at(s.factor, s.coords[u]));
}

/// What the B-CSF walk reads, gathered once per call before the region:
/// the B-CSF's arrays, the leaf factor, and the rows a fiber segment is
/// scaled by, in order -- its own level (Alg. 3 line 13), then each
/// middle level up to level 1.
struct BcsfArrays {
  BcsfArrays(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& f)
      : blocks(bcsf.blocks().data()),
        fiber_ptr(bcsf.csf().level_pointers(bcsf.csf().node_levels() - 1)
                      .data()),
        slices(bcsf.csf().level_indices(0).data()),
        leaf_index(bcsf.csf().leaf_indices().data()),
        values(bcsf.csf().values().data()),
        leaf(f[bcsf.csf().mode_order().back()].data().data()) {
    const CsfTensor& csf = bcsf.csf();
    for (index_t up = 1; up < csf.node_levels(); ++up) {
      const index_t level = csf.node_levels() - up;
      levels.push_back({bcsf.fiber_coords(level).data(),
                        f[csf.mode_order()[level]].data().data()});
    }
  }

  const BcsfTensor::Block* blocks;
  const offset_t* fiber_ptr;
  const index_t* slices;
  const index_t* leaf_index;
  const value_t* values;
  const value_t* leaf;
  std::vector<RowSource> levels;
};

// The walks below run inside the engine's OpenMP region and stay out of
// line: at -O3 GCC otherwise inlines the scratch-row B-CSF walk into the
// region, where rank-32 B-CSF ran 1.2-1.4x slower at 4 threads (a cause
// not pinned down).

/// B-CSF blocks [begin, end), in order, into `out` (Alg. 3 over fiber
/// segments).  Each block opens its output row once, adds each fiber
/// segment's row to it in fiber order (or, under kPerSliceShared, adds
/// their sum once at the block's end) and closes it once; the next
/// slc-split block of the slice opens what this one closed.
template <typename Rows>
[[gnu::noinline]] void bcsf_walk(const BcsfArrays& a, const Rows& rows,
                                 OutputCombine combine, offset_t begin,
                                 offset_t end, value_t* out) {
  const std::span<const RowSource> levels = a.levels;
  const bool shared = combine == OutputCombine::kPerSliceShared;
  typename Rows::Row t = rows.row(1);
  for (offset_t b = begin; b < end; ++b) {
    const BcsfTensor::Block& block = a.blocks[b];
    value_t* y = rows.at(out, a.slices[block.slice]);
    typename Rows::Row acc = shared ? rows.row(0) : rows.open(y);
    if (shared) acc.zero();
    for (offset_t fb = block.fiber_begin; fb < block.fiber_end; ++fb) {
      t.zero();
      for (offset_t z = a.fiber_ptr[fb]; z < a.fiber_ptr[fb + 1]; ++z) {
        t.add_scaled(a.values[z], rows.at(a.leaf, a.leaf_index[z]));
      }
      for (const RowSource& level : levels) {
        t.mul(rows.at(level.factor, level.coords[fb]));
      }
      acc += t;
    }
    if (shared) {
      acc.add_to(y);
    } else {
      rows.close(acc, y);
    }
  }
}

/// CSL slices [begin, end), in order, into `out` (Alg. 4), one
/// accumulator per warp segment of `seg_nnz` nonzeros.
template <typename Rows>
[[gnu::noinline]] void csl_walk(const CslTensor& csl, const Rows& rows,
                                std::span<const RowSource> modes,
                                offset_t seg_nnz, offset_t begin,
                                offset_t end, value_t* out) {
  const value_t* values = csl.values().data();
  typename Rows::Row acc = rows.row(0);
  typename Rows::Row p = rows.row(1);
  for (offset_t s = begin; s < end; ++s) {
    value_t* y = rows.at(out, csl.slice_index(s));
    const offset_t s_end = csl.slice_end(s);
    for (offset_t z0 = csl.slice_begin(s); z0 < s_end; z0 += seg_nnz) {
      const offset_t z1 = std::min(z0 + seg_nnz, s_end);
      acc.zero();
      for (offset_t z = z0; z < z1; ++z) {
        product(rows, p, values[z], modes, z);
        acc += p;
      }
      acc.add_to(y);
    }
  }
}

/// The identity index map: unit u is nonzero u.
struct SameIds {
  offset_t operator[](offset_t u) const { return u; }
};

/// Units [begin, end), each the nonzero z = ids[u], that add their
/// product straight to their output row out_rows[z]: HB-CSF's singletons
/// and COO in storage order (SameIds), and a CooSliceOrder's slices (ids
/// = its perm).  Flattened: with three callers of product(), GCC
/// otherwise keeps its rank 9-16 tile version out of line, where the tile
/// round-trips the stack on every nonzero; forcing product() inline
/// everywhere instead changed the CSL walk's register allocation, and
/// rank-32 `csl` ran ~1.6x slower at 4 threads.  Starts on a cache line:
/// the rank-1 COO loop ran ~1.4x slower when unrelated code moved its
/// identical instructions 32 bytes.
template <typename Rows, typename Ids>
[[gnu::noinline, gnu::flatten, gnu::aligned(64)]] void add_products(
    const Rows& rows, Ids ids, const index_t* out_rows, const value_t* values,
    std::span<const RowSource> modes, offset_t begin, offset_t end,
    value_t* out) {
  typename Rows::Row p = rows.row(0);
  for (offset_t u = begin; u < end; ++u) {
    const offset_t z = ids[u];
    product(rows, p, values[z], modes, z);
    p.add_to(rows.at(out, out_rows[z]));
  }
}

/// Nonzeros a range aims for: at least kRangesPerThread ranges per team
/// thread, none below kMinRangeNnz.
offset_t range_target(offset_t nnz, int team) {
  const auto ranges = kRangesPerThread * static_cast<offset_t>(team);
  return std::max(kMinRangeNnz, ceil_div(nnz, ranges));
}

/// Appends `units` [0, n) to `out` in ranges of about `target` nonzeros,
/// cut greedily after a range reaches `target` but only before a unit u
/// with can_cut(u) -- one that starts a new output row.
template <typename NnzOf, typename CanCut>
void cut_ranges(EngineRange::Units units, offset_t n, offset_t target,
                NnzOf nnz_of, CanCut can_cut, std::vector<EngineRange>& out) {
  offset_t begin = 0;
  offset_t nnz = 0;
  for (offset_t u = 0; u < n; ++u) {
    if (nnz >= target && can_cut(u)) {
      out.push_back({units, begin, u, nnz});
      begin = u;
      nnz = 0;
    }
    nnz += nnz_of(u);
  }
  if (begin < n) out.push_back({units, begin, n, nnz});
}

/// Hand-out order: heaviest range first, ties in list order.
std::vector<EngineRange> heaviest_first(std::vector<EngineRange> ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const EngineRange& a, const EngineRange& b) {
              if (a.nnz != b.nnz) return a.nnz > b.nnz;
              if (a.units != b.units) return a.units < b.units;
              return a.begin < b.begin;
            });
  return ranges;
}

void append_ranges(const BcsfTensor& bcsf, offset_t target,
                   std::vector<EngineRange>& out) {
  const std::vector<BcsfTensor::Block>& blocks = bcsf.blocks();
  cut_ranges(
      EngineRange::Units::kBcsfBlocks, blocks.size(), target,
      [&](offset_t b) { return blocks[b].nnz; },
      // The slc-split blocks of one slice share its output row.
      [&](offset_t b) { return blocks[b].slice != blocks[b - 1].slice; }, out);
}

void append_ranges(const CslTensor& csl, offset_t target,
                   std::vector<EngineRange>& out) {
  cut_ranges(
      EngineRange::Units::kCslSlices, csl.num_slices(), target,
      [&](offset_t s) { return csl.slice_end(s) - csl.slice_begin(s); },
      [](offset_t) { return true; }, out);
}

/// The non-root rows of a COO nonzero: the other modes in increasing
/// order.
std::vector<RowSource> coo_sources(const SparseTensor& tensor, index_t mode,
                                   const std::vector<DenseMatrix>& factors) {
  const ModeOrder order = mode_order_for(mode, tensor.order());
  return position_sources(order, factors, [&](index_t p) {
    return tensor.mode_indices(order[p + 1]).data();
  });
}

/// Team-thread number inside the engine's region.
int team_thread() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Runs run(range, rows) for every range in ONE OpenMP region of
/// kernel_team_size() threads, handing the ranges out one at a time;
/// `rows` is the row policy for `rank` on the thread's own scratch.  The
/// scratch (padded apart so threads share no cache line; none for tiles)
/// is allocated before the region, which therefore never allocates or
/// throws.
template <typename Run>
void run_ranges(const std::vector<EngineRange>& ranges, int team,
                rank_t rank, Run run) {
  with_rows(rank, [&](const auto& rows) {
    const std::size_t floats = rows.scratch_floats();
    const std::size_t stride =
        floats == 0 ? 0 : round_up<std::size_t>(floats + 16, 16);
    std::vector<value_t> scratch(stride * static_cast<std::size_t>(team));
    const auto n = static_cast<std::ptrdiff_t>(ranges.size());
#pragma omp parallel for schedule(dynamic, 1) num_threads(kernel_team_size())
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      run(ranges[i], rows.in(scratch.data() + stride * team_thread()));
    }
  });
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

std::vector<EngineRange> engine_ranges(const BcsfTensor& bcsf, int team) {
  std::vector<EngineRange> out;
  append_ranges(bcsf, range_target(bcsf.nnz(), team), out);
  return heaviest_first(std::move(out));
}

std::vector<EngineRange> engine_ranges(const CslTensor& csl, int team) {
  std::vector<EngineRange> out;
  append_ranges(csl, range_target(csl.nnz(), team), out);
  return heaviest_first(std::move(out));
}

std::vector<EngineRange> engine_ranges(const CooSliceOrder& order, int team) {
  const offset_vec& start = order.slice_start;
  std::vector<EngineRange> out;
  cut_ranges(
      EngineRange::Units::kCooSlices, start.empty() ? 0 : start.size() - 1,
      range_target(order.perm.size(), team),
      [&](offset_t s) { return start[s + 1] - start[s]; },
      [](offset_t) { return true; }, out);
  return heaviest_first(std::move(out));
}

std::vector<EngineRange> engine_ranges(const HbcsfTensor& hbcsf, int team) {
  const offset_t target = range_target(hbcsf.nnz(), team);
  std::vector<EngineRange> out;
  append_ranges(hbcsf.bcsf(), target, out);
  append_ranges(hbcsf.csl(), target, out);
  cut_ranges(
      EngineRange::Units::kSingletons, hbcsf.coo_nnz(), target,
      [](offset_t) { return offset_t{1}; }, [](offset_t) { return true; },
      out);
  return heaviest_first(std::move(out));
}

void bcsf_engine(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& factors,
                 DenseMatrix& out, OutputCombine combine) {
  const CsfTensor& csf = bcsf.csf();
  check_factors(csf.dims(), factors);
  const rank_t rank = factors.front().cols();
  reset_output(out, csf.dims()[csf.root_mode()], rank);
  const int team = kernel_team_size();
  const std::vector<EngineRange> ranges = engine_ranges(bcsf, team);
  const BcsfArrays arrays(bcsf, factors);
  value_t* y = out.data().data();
  run_ranges(ranges, team, rank, [&](const EngineRange& r, const auto& rows) {
    bcsf_walk(arrays, rows, combine, r.begin, r.end, y);
  });
}

void csl_engine(const CslTensor& csl, const std::vector<DenseMatrix>& factors,
                const DeviceModel& device, DenseMatrix& out) {
  check_factors(csl.dims(), factors);
  const rank_t rank = factors.front().cols();
  reset_output(out, csl.dims()[csl.root_mode()], rank);
  const auto seg_nnz = static_cast<offset_t>(device.csl_segment_nnz);
  const int team = kernel_team_size();
  const std::vector<EngineRange> ranges = engine_ranges(csl, team);
  const std::vector<RowSource> modes =
      position_sources(csl.mode_order(), factors,
                       [&](index_t p) { return csl.nz_indices(p).data(); });
  value_t* y = out.data().data();
  run_ranges(ranges, team, rank, [&](const EngineRange& r, const auto& rows) {
    csl_walk(csl, rows, modes, seg_nnz, r.begin, r.end, y);
  });
}

void hbcsf_engine(const HbcsfTensor& hbcsf,
                  const std::vector<DenseMatrix>& factors,
                  const DeviceModel& device, DenseMatrix& out) {
  check_factors(hbcsf.dims(), factors);
  const rank_t rank = factors.front().cols();
  reset_output(out, hbcsf.dims()[hbcsf.root_mode()], rank);
  const auto seg_nnz = static_cast<offset_t>(device.csl_segment_nnz);
  const int team = kernel_team_size();
  // A slice lives in exactly one group, so the groups' ranges write
  // disjoint rows of one output: no per-group temporaries, no combining
  // pass.
  const std::vector<EngineRange> ranges = engine_ranges(hbcsf, team);
  const BcsfArrays bcsf(hbcsf.bcsf(), factors);
  const std::vector<RowSource> csl_modes = position_sources(
      hbcsf.csl().mode_order(), factors,
      [&](index_t p) { return hbcsf.csl().nz_indices(p).data(); });
  const std::vector<RowSource> coo_modes =
      position_sources(hbcsf.mode_order(), factors, [&](index_t p) {
        return hbcsf.coo_indices(p + 1).data();
      });
  value_t* y = out.data().data();
  run_ranges(ranges, team, rank, [&](const EngineRange& r, const auto& rows) {
    switch (r.units) {
      case EngineRange::Units::kBcsfBlocks:
        bcsf_walk(bcsf, rows, OutputCombine::kPerFiber, r.begin, r.end, y);
        break;
      case EngineRange::Units::kCslSlices:
        csl_walk(hbcsf.csl(), rows, csl_modes, seg_nnz, r.begin, r.end, y);
        break;
      case EngineRange::Units::kSingletons:
        add_products(rows, SameIds{}, hbcsf.coo_indices(0).data(),
                     hbcsf.coo_values().data(), coo_modes, r.begin, r.end, y);
        break;
      case EngineRange::Units::kCooSlices:
        break;  // no HB-CSF group
    }
  });
}

void coo_engine(const SparseTensor& tensor, index_t mode,
                const std::vector<DenseMatrix>& factors, DenseMatrix& out) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(mode < tensor.order(), "coo_engine: bad mode");
  const rank_t rank = factors.front().cols();
  reset_output(out, tensor.dim(mode), rank);
  const std::vector<RowSource> modes = coo_sources(tensor, mode, factors);
  with_rows(rank, [&](const auto& rows) {
    std::vector<value_t> scratch(rows.scratch_floats());
    add_products(rows.in(scratch.data()), SameIds{},
                 tensor.mode_indices(mode).data(), tensor.values().data(),
                 modes, 0, tensor.nnz(), out.data().data());
  });
}

void coo_engine(const SparseTensor& tensor, const CooSliceOrder& order,
                const std::vector<DenseMatrix>& factors, DenseMatrix& out) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(order.mode < tensor.order() && order.perm.size() == tensor.nnz(),
             "coo_engine: slice order built for another tensor");
  const index_t mode = order.mode;
  const rank_t rank = factors.front().cols();
  reset_output(out, tensor.dim(mode), rank);
  const int team = kernel_team_size();
  const std::vector<EngineRange> ranges = engine_ranges(order, team);
  const std::vector<RowSource> modes = coo_sources(tensor, mode, factors);
  const offset_t* perm = order.perm.data();
  const offset_t* start = order.slice_start.data();
  value_t* y = out.data().data();
  run_ranges(ranges, team, rank, [&](const EngineRange& r, const auto& rows) {
    add_products(rows, perm, tensor.mode_indices(mode).data(),
                 tensor.values().data(), modes, start[r.begin], start[r.end],
                 y);
  });
}

void fcoo_engine(const FcooTensor& fcoo, const std::vector<DenseMatrix>& factors,
                 const DeviceModel& device, DenseMatrix& out) {
  check_factors(fcoo.dims(), factors);
  const rank_t rank = factors.front().cols();
  reset_output(out, fcoo.dims()[fcoo.root_mode()], rank);
  const std::vector<RowSource> modes =
      position_sources(fcoo.mode_order(), factors,
                       [&](index_t p) { return fcoo.nz_indices(p).data(); });
  std::vector<value_t> scratch(ScratchRows{rank}.scratch_floats());
  const ScratchRows rows{rank, scratch.data()};
  ScratchRow acc = rows.row(0);
  ScratchRow p = rows.row(1);
  const value_t* values = fcoo.values().data();
  value_t* y = out.data().data();

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
      acc.zero();
      for (offset_t z = c0; z < c1; ++z) {
        if (fcoo.starts_slice(z)) {
          if (z != c0) {
            acc.add_to(rows.at(y, fcoo.slice_index(slice_ordinal)));
            acc.zero();
          }
          if (z > 0) ++slice_ordinal;
        }
        product(rows, p, values[z], modes, z);
        acc += p;
      }
      if (c1 > c0) acc.add_to(rows.at(y, fcoo.slice_index(slice_ordinal)));
    }
  }
}

}  // namespace bcsf
