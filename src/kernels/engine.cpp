#include "kernels/engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
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

/// Row `i` of a row-major factor or output matrix with `rank` columns.
inline const value_t* row_of(const DenseMatrix& m, index_t i, rank_t rank) {
  return m.data().data() + static_cast<std::size_t>(i) * rank;
}
inline value_t* row_of(DenseMatrix& m, index_t i, rank_t rank) {
  return m.data().data() + static_cast<std::size_t>(i) * rank;
}

// The runtime-rank loops: F-COO at every rank, the other engines above
// kMaxTileRank.  Each lane r performs the same float statements, in the
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

/// B-CSF blocks [begin, end), in order, into `out` (Alg. 3 over fiber
/// segments).  `scratch` holds 2 x rank floats.
void run_bcsf(const BcsfTensor& bcsf, const std::vector<DenseMatrix>& f,
              OutputCombine combine, offset_t begin, offset_t end,
              value_t* scratch, DenseMatrix& out) {
  const CsfTensor& csf = bcsf.csf();
  const rank_t rank = f.front().cols();
  const ModeOrder& order = csf.mode_order();
  const index_t fiber_level = csf.node_levels() - 1;
  const DenseMatrix& leaf = f[order.back()];
  const bool shared = combine == OutputCombine::kPerSliceShared;
  value_t* t = scratch;
  value_t* acc = scratch + rank;

  for (offset_t b = begin; b < end; ++b) {
    const BcsfTensor::Block& block = bcsf.blocks()[b];
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

/// CSL slices [begin, end), in order, into `out` (Alg. 4), one
/// accumulator per warp segment of `seg_nnz` nonzeros.  `scratch` holds
/// 2 x rank floats.
void run_csl(const CslTensor& csl, const std::vector<DenseMatrix>& f,
             offset_t seg_nnz, offset_t begin, offset_t end, value_t* scratch,
             DenseMatrix& out) {
  const rank_t rank = f.front().cols();
  const ModeOrder& order = csl.mode_order();
  const index_t n_other = csl.order() - 1;
  value_t* p = scratch;
  value_t* acc = scratch + rank;

  for (offset_t s = begin; s < end; ++s) {
    value_t* y = row_of(out, csl.slice_index(s), rank);
    const offset_t s_end = csl.slice_end(s);
    for (offset_t z0 = csl.slice_begin(s); z0 < s_end; z0 += seg_nnz) {
      const offset_t z1 = std::min(z0 + seg_nnz, s_end);
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

/// HB-CSF's COO-group nonzeros [begin, end): one nonzero per slice, so
/// every nonzero owns its output row.  `scratch` holds rank floats.
void run_singletons(const HbcsfTensor& h, const std::vector<DenseMatrix>& f,
                    offset_t begin, offset_t end, value_t* scratch,
                    DenseMatrix& out) {
  const rank_t rank = f.front().cols();
  const ModeOrder& order = h.mode_order();
  value_t* p = scratch;
  for (offset_t z = begin; z < end; ++z) {
    broadcast(p, h.coo_value(z), rank);
    for (index_t q = 1; q < h.order(); ++q) {  // q = 0 is the root
      scale(p, row_of(f[order[q]], h.coo_index(q, z), rank), rank);
    }
    add(row_of(out, h.coo_index(0, z), rank), p, rank);
  }
}

// ---------------------------------------------------------------------------
// Register tiles, for ranks 1 to kMaxTileRank: the same work units and
// float statements as the runtime loops above, with each rank-R row held
// in registers instead of scratch memory.
// ---------------------------------------------------------------------------

/// Four value_t lanes in one SSE register, a GCC/Clang vector extension
/// like linalg/lanes.hpp's Lanes.  Its operations are lane-wise.
using Vec = value_t __attribute__((vector_size(4 * sizeof(value_t))));
constexpr rank_t kVecLanes = 4;
static_assert(sizeof(Vec) == kVecLanes * sizeof(value_t));

/// Widest rank the tiles take: at rank 16 a kernel's two tiles and one
/// loaded factor row fill 12 of SSE2's 16 vector registers, while a
/// 32-wide tile spills.
constexpr rank_t kMaxTileRank = 16;

/// One rank-R row in registers: ceil(R / 4) vectors, the last one partial
/// when 4 does not divide R (its spare lanes hold zeros and are never
/// stored).  Lane r of every operation is the runtime loops' statement on
/// column r, so a tile computes what they compute, bit for bit.  The
/// vector loops are unrolled, as in linalg/, so the tile stays in
/// registers at -O2 too.
template <rank_t R>
struct Tile {
  static constexpr rank_t kVecs = (R + kVecLanes - 1) / kVecLanes;
  /// Lanes the last vector uses.
  static constexpr rank_t kTail = R - (kVecs - 1) * kVecLanes;

  Vec v[kVecs];

  static Tile zero() {
    Tile t{};
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) t.v[i] = Vec{};
    return t;
  }
  static Tile splat(value_t s) {
    Tile t{};
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) t.v[i] = Vec{s, s, s, s};
    return t;
  }
  // A partial last vector is assembled and taken apart lane by lane: a
  // partial memcpy would go through the stack, and the full-width reload
  // of a narrower store stalls on every nonzero.
  static Tile load(const value_t* p) {
    Tile t{};
#pragma GCC unroll 4
    for (rank_t i = 0; i + 1 < kVecs; ++i) {
      std::memcpy(&t.v[i], p + i * kVecLanes, sizeof(Vec));
    }
    const value_t* q = p + (kVecs - 1) * kVecLanes;
    if constexpr (kTail == kVecLanes) {
      std::memcpy(&t.v[kVecs - 1], q, sizeof(Vec));
    } else {
      t.v[kVecs - 1] = Vec{q[0], kTail > 1 ? q[1] : 0.0F,
                           kTail > 2 ? q[2] : 0.0F, 0.0F};
    }
    return t;
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
  Tile& operator*=(const Tile& x) {
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] *= x.v[i];
    return *this;
  }
  /// this += s * x: the runtime loops' axpy.
  void add_scaled(value_t s, const Tile& x) {
#pragma GCC unroll 4
    for (rank_t i = 0; i < kVecs; ++i) v[i] += s * x.v[i];
  }
};

/// Calls fn(std::integral_constant<rank_t, rank>{}) and returns true when
/// a tile takes `rank`; returns false for ranks above kMaxTileRank.
template <typename Fn>
bool with_tile(rank_t rank, Fn fn) {
  return [&]<rank_t... I>(std::integer_sequence<rank_t, I...>) {
    return ((rank == I + 1 &&
             (fn(std::integral_constant<rank_t, I + 1>{}), true)) ||
            ...);
  }(std::make_integer_sequence<rank_t, kMaxTileRank>{});
}

/// The factor rows a work unit reads at one tree level or tensor mode:
/// unit u reads row coords[u] of `factor`, row-major with the tile's rank.
struct RowSource {
  const index_t* coords;
  const value_t* factor;
};

template <rank_t R>
Tile<R> load_row(const value_t* m, index_t i) {
  return Tile<R>::load(m + static_cast<std::size_t>(i) * R);
}

/// Adds `x` to the output row at `y`.
template <rank_t R>
void add_to_row(value_t* y, const Tile<R>& x) {
  Tile<R> row = Tile<R>::load(y);
  row += x;
  row.store(y);
}

/// The runtime loops' product of unit u: `value` broadcast, then scaled
/// by each source's row in turn.
template <rank_t R>
Tile<R> product(value_t value, std::span<const RowSource> sources,
                offset_t u) {
  Tile<R> p = Tile<R>::splat(value);
  for (const RowSource& s : sources) p *= load_row<R>(s.factor, s.coords[u]);
  return p;
}

/// What run_bcsf_tiles reads, gathered once per call before the region:
/// the B-CSF's arrays, the leaf factor, and the rows a fiber segment is
/// scaled by in run_bcsf's order -- its own level, then each middle level
/// up to level 1.
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

/// run_bcsf on tiles.  Each block loads its output row once, adds each
/// fiber's tile to it in fiber order (or, under kPerSliceShared, adds
/// their sum once at the block's end) and stores it once; the next
/// slc-split block of the slice loads what this one stored.
template <rank_t R>
void run_bcsf_tiles(const BcsfArrays& a, OutputCombine combine,
                    offset_t begin, offset_t end, value_t* out) {
  const std::span<const RowSource> levels = a.levels;
  const bool shared = combine == OutputCombine::kPerSliceShared;
  for (offset_t b = begin; b < end; ++b) {
    const BcsfTensor::Block& block = a.blocks[b];
    value_t* y = out + static_cast<std::size_t>(a.slices[block.slice]) * R;
    Tile<R> row = shared ? Tile<R>::zero() : Tile<R>::load(y);
    for (offset_t fb = block.fiber_begin; fb < block.fiber_end; ++fb) {
      Tile<R> t = Tile<R>::zero();
      for (offset_t z = a.fiber_ptr[fb]; z < a.fiber_ptr[fb + 1]; ++z) {
        t.add_scaled(a.values[z], load_row<R>(a.leaf, a.leaf_index[z]));
      }
      for (const RowSource& level : levels) {
        t *= load_row<R>(level.factor, level.coords[fb]);
      }
      row += t;
    }
    if (shared) {
      add_to_row(y, row);
    } else {
      row.store(y);
    }
  }
}

/// run_csl on tiles: one accumulator tile per warp segment.
template <rank_t R>
void run_csl_tiles(const CslTensor& csl, std::span<const RowSource> modes,
                   offset_t seg_nnz, offset_t begin, offset_t end,
                   value_t* out) {
  const value_t* values = csl.values().data();
  for (offset_t s = begin; s < end; ++s) {
    value_t* y = out + static_cast<std::size_t>(csl.slice_index(s)) * R;
    const offset_t s_end = csl.slice_end(s);
    for (offset_t z0 = csl.slice_begin(s); z0 < s_end; z0 += seg_nnz) {
      const offset_t z1 = std::min(z0 + seg_nnz, s_end);
      Tile<R> acc = Tile<R>::zero();
      for (offset_t z = z0; z < z1; ++z) {
        acc += product<R>(values[z], modes, z);
      }
      add_to_row(y, acc);
    }
  }
}

/// Nonzeros [begin, end) that each add their product straight to their
/// output row rows[z]: run_singletons, and the COO engine, on tiles.
template <rank_t R>
void add_products(const index_t* rows, const value_t* values,
                  std::span<const RowSource> modes, offset_t begin,
                  offset_t end, value_t* out) {
  for (offset_t z = begin; z < end; ++z) {
    add_to_row(out + static_cast<std::size_t>(rows[z]) * R,
               product<R>(values[z], modes, z));
  }
}

/// The non-root rows of a CSL, HB-CSF COO-group or COO nonzero,
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

/// Team-thread number inside the engine's region.
int team_thread() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Runs run(range, scratch) for every range in ONE OpenMP region of
/// kernel_team_size() threads, handing the ranges out one at a time.
/// Each thread's `scratch` (`scratch_floats` floats, padded apart so
/// threads share no cache line; none for the tiles) is allocated before
/// the region, which therefore never allocates or throws.
template <typename Run>
void run_ranges(const std::vector<EngineRange>& ranges, int team,
                std::size_t scratch_floats, Run run) {
  const std::size_t stride =
      scratch_floats == 0 ? 0 : round_up<std::size_t>(scratch_floats + 16, 16);
  std::vector<value_t> scratch(stride * static_cast<std::size_t>(team));
  const auto n = static_cast<std::ptrdiff_t>(ranges.size());
#pragma omp parallel for schedule(dynamic, 1) num_threads(kernel_team_size())
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    run(ranges[i], scratch.data() + stride * team_thread());
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
  if (with_tile(rank, [&](auto width) {
        constexpr rank_t R = decltype(width)::value;
        const BcsfArrays arrays(bcsf, factors);
        value_t* y = out.data().data();
        run_ranges(ranges, team, 0, [&](const EngineRange& r, value_t*) {
          run_bcsf_tiles<R>(arrays, combine, r.begin, r.end, y);
        });
      })) {
    return;
  }
  run_ranges(ranges, team, 2 * rank,
             [&](const EngineRange& r, value_t* scratch) {
               run_bcsf(bcsf, factors, combine, r.begin, r.end, scratch, out);
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
  if (with_tile(rank, [&](auto width) {
        constexpr rank_t R = decltype(width)::value;
        const std::vector<RowSource> modes = position_sources(
            csl.mode_order(), factors,
            [&](index_t p) { return csl.nz_indices(p).data(); });
        value_t* y = out.data().data();
        run_ranges(ranges, team, 0, [&](const EngineRange& r, value_t*) {
          run_csl_tiles<R>(csl, modes, seg_nnz, r.begin, r.end, y);
        });
      })) {
    return;
  }
  run_ranges(ranges, team, 2 * rank,
             [&](const EngineRange& r, value_t* scratch) {
               run_csl(csl, factors, seg_nnz, r.begin, r.end, scratch, out);
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
  if (with_tile(rank, [&](auto width) {
        constexpr rank_t R = decltype(width)::value;
        const BcsfArrays bcsf(hbcsf.bcsf(), factors);
        const std::vector<RowSource> csl_modes = position_sources(
            hbcsf.csl().mode_order(), factors,
            [&](index_t p) { return hbcsf.csl().nz_indices(p).data(); });
        const std::vector<RowSource> coo_modes = position_sources(
            hbcsf.mode_order(), factors,
            [&](index_t p) { return hbcsf.coo_indices(p + 1).data(); });
        value_t* y = out.data().data();
        run_ranges(ranges, team, 0, [&](const EngineRange& r, value_t*) {
          switch (r.units) {
            case EngineRange::Units::kBcsfBlocks:
              run_bcsf_tiles<R>(bcsf, OutputCombine::kPerFiber, r.begin,
                                r.end, y);
              break;
            case EngineRange::Units::kCslSlices:
              run_csl_tiles<R>(hbcsf.csl(), csl_modes, seg_nnz, r.begin,
                               r.end, y);
              break;
            case EngineRange::Units::kSingletons:
              add_products<R>(hbcsf.coo_indices(0).data(),
                              hbcsf.coo_values().data(), coo_modes, r.begin,
                              r.end, y);
              break;
          }
        });
      })) {
    return;
  }
  run_ranges(ranges, team, 2 * rank,
             [&](const EngineRange& r, value_t* scratch) {
               switch (r.units) {
                 case EngineRange::Units::kBcsfBlocks:
                   run_bcsf(hbcsf.bcsf(), factors, OutputCombine::kPerFiber,
                            r.begin, r.end, scratch, out);
                   break;
                 case EngineRange::Units::kCslSlices:
                   run_csl(hbcsf.csl(), factors, seg_nnz, r.begin, r.end,
                           scratch, out);
                   break;
                 case EngineRange::Units::kSingletons:
                   run_singletons(hbcsf, factors, r.begin, r.end, scratch,
                                  out);
                   break;
               }
             });
}

void coo_engine(const SparseTensor& tensor, index_t mode,
                const std::vector<DenseMatrix>& factors, DenseMatrix& out) {
  check_factors(tensor.dims(), factors);
  BCSF_CHECK(mode < tensor.order(), "coo_engine: bad mode");
  const rank_t rank = factors.front().cols();
  reset_output(out, tensor.dim(mode), rank);
  if (with_tile(rank, [&](auto width) {
        constexpr rank_t R = decltype(width)::value;
        // The other modes in increasing order, as the runtime loop scales.
        const ModeOrder order = mode_order_for(mode, tensor.order());
        const std::vector<RowSource> modes =
            position_sources(order, factors, [&](index_t p) {
              return tensor.mode_indices(order[p + 1]).data();
            });
        add_products<R>(tensor.mode_indices(mode).data(),
                        tensor.values().data(), modes, 0, tensor.nnz(),
                        out.data().data());
      })) {
    return;
  }
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
