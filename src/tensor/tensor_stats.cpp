#include "tensor/tensor_stats.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <sstream>

#include "util/error.hpp"

namespace bcsf {

namespace {
// Every O(nnz) exact-stats scan bumps this counter.  The serving layer's
// sketch-backed policy path must never land here after warm-up; the
// regression suite asserts the count stays flat across a full serve
// lifecycle (DESIGN.md §12).
std::atomic<std::uint64_t> g_exact_stat_scans{0};
}  // namespace

std::uint64_t exact_stat_scan_count() {
  return g_exact_stat_scans.load(std::memory_order_relaxed);
}

namespace {

// The slice/fiber scan over nonzeros at(0), ..., at(m-1) of `tensor`, a
// sequence sorted by `order`: the tensor itself when it is sorted, or a
// sort permutation, which lets callers skip copying the nonzero arrays.
template <typename At>
SliceFiberCounts count_in_sequence(const SparseTensor& tensor,
                                   const ModeOrder& order, offset_t m, At at) {
  BCSF_CHECK(order.size() == tensor.order(),
             "count_slices_and_fibers: bad mode order");
  SliceFiberCounts out;
  if (m == 0) return out;

  const index_t root = order.front();
  const index_t n_modes = tensor.order();

  // A new fiber starts when any mode except the leaf changes; a new slice
  // starts when the root mode changes.
  auto same_fiber = [&](offset_t a, offset_t b) {
    for (index_t level = 0; level + 1 < n_modes; ++level) {
      if (tensor.coord(order[level], at(a)) !=
          tensor.coord(order[level], at(b))) {
        return false;
      }
    }
    return true;
  };

  // At most one fiber per nonzero: reserving that bound up front spares
  // the scan the reallocation peaks of growing the largest array.
  out.fiber_nnz.reserve(m);
  offset_t slice_start = 0;
  offset_t fiber_start = 0;
  out.slice_index.push_back(tensor.coord(root, at(0)));
  out.slice_fiber_begin.push_back(0);
  for (offset_t z = 1; z <= m; ++z) {
    const bool end_of_data = (z == m);
    const bool new_fiber = end_of_data || !same_fiber(z - 1, z);
    const bool new_slice = end_of_data || tensor.coord(root, at(z)) !=
                                              tensor.coord(root, at(z - 1));
    if (new_fiber) {
      out.fiber_nnz.push_back(z - fiber_start);
      fiber_start = z;
    }
    if (new_slice) {
      out.slice_nnz.push_back(z - slice_start);
      slice_start = z;
      if (!end_of_data) {
        out.slice_index.push_back(tensor.coord(root, at(z)));
        out.slice_fiber_begin.push_back(out.fiber_nnz.size());
      }
    }
  }
  out.slice_fiber_begin.push_back(out.fiber_nnz.size());
  return out;
}

// Distribution summaries and §V slice classification from a completed
// slice/fiber scan; shared by both exact entry points.  Consumes the
// scan: the per-fiber counts, up to one per nonzero, are summarized last
// by sorting them in place rather than a copy.
void fill_mode_stats(ModeStats& s, SliceFiberCounts c) {
  s.num_slices = c.slice_nnz.size();
  s.num_fibers = c.fiber_nnz.size();
  s.nnz_per_slice = compute_stats(std::span<const offset_t>(c.slice_nnz));

  offset_vec fibers_per_slice(s.num_slices);
  for (offset_t slc = 0; slc < s.num_slices; ++slc) {
    fibers_per_slice[slc] =
        c.slice_fiber_begin[slc + 1] - c.slice_fiber_begin[slc];
  }
  s.fibers_per_slice =
      compute_stats(std::span<const offset_t>(fibers_per_slice));

  offset_t singleton_slices = 0;
  offset_t csl_slices = 0;
  for (offset_t slc = 0; slc < s.num_slices; ++slc) {
    if (c.slice_nnz[slc] == 1) {
      ++singleton_slices;
      continue;  // classified as COO in HB-CSF, not CSL
    }
    bool all_singleton_fibers = true;
    for (offset_t f = c.slice_fiber_begin[slc]; f < c.slice_fiber_begin[slc + 1];
         ++f) {
      if (c.fiber_nnz[f] != 1) {
        all_singleton_fibers = false;
        break;
      }
    }
    if (all_singleton_fibers) ++csl_slices;
  }
  s.singleton_slice_fraction =
      static_cast<double>(singleton_slices) / static_cast<double>(s.num_slices);
  s.csl_slice_fraction =
      static_cast<double>(csl_slices) / static_cast<double>(s.num_slices);
  s.nnz_per_fiber = compute_stats_in_place(c.fiber_nnz);
}

}  // namespace

SliceFiberCounts count_slices_and_fibers(const SparseTensor& sorted,
                                         const ModeOrder& order) {
  return count_in_sequence(sorted, order, sorted.nnz(),
                           [](offset_t z) { return z; });
}

SliceFiberCounts count_slices_and_fibers(const SparseTensor& tensor,
                                         const ModeOrder& order,
                                         std::span<const offset_t> perm) {
  return count_in_sequence(tensor, order, perm.size(),
                           [perm](offset_t z) { return perm[z]; });
}

ModeStats compute_mode_stats(const SparseTensor& tensor, index_t mode) {
  if (tensor.nnz() == 0) return compute_mode_stats(tensor, mode, {});
  return compute_mode_stats(
      tensor, mode,
      tensor.sort_permutation(mode_order_for(mode, tensor.order())));
}

ModeStats compute_mode_stats(const SparseTensor& tensor, index_t mode,
                             std::span<const offset_t> perm) {
  ModeStats s;
  s.mode = mode;
  s.nnz = tensor.nnz();
  if (tensor.nnz() == 0) return s;
  BCSF_CHECK(perm.size() == tensor.nnz(),
             "compute_mode_stats: permutation length " << perm.size()
                                                       << " != nnz "
                                                       << tensor.nnz());
  g_exact_stat_scans.fetch_add(1, std::memory_order_relaxed);
  fill_mode_stats(s, count_slices_and_fibers(
                         tensor, mode_order_for(mode, tensor.order()), perm));
  return s;
}

std::vector<ModeStats> compute_all_mode_stats(const SparseTensor& tensor) {
  std::vector<ModeStats> all;
  all.reserve(tensor.order());
  // One permutation buffer, re-sorted per mode: the nonzero arrays are
  // never copied, and the allocation is paid once instead of per mode.
  std::vector<offset_t> perm(tensor.nnz());
  for (index_t mode = 0; mode < tensor.order(); ++mode) {
    ModeStats s;
    s.mode = mode;
    s.nnz = tensor.nnz();
    if (tensor.nnz() == 0) {
      all.push_back(s);
      continue;
    }
    g_exact_stat_scans.fetch_add(1, std::memory_order_relaxed);
    const ModeOrder order = mode_order_for(mode, tensor.order());
    std::iota(perm.begin(), perm.end(), offset_t{0});
    std::sort(perm.begin(), perm.end(), [&](offset_t a, offset_t b) {
      for (index_t level : order) {
        const index_t ca = tensor.coord(level, a);
        const index_t cb = tensor.coord(level, b);
        if (ca != cb) return ca < cb;
      }
      return false;
    });
    fill_mode_stats(s, count_slices_and_fibers(tensor, order, perm));
    all.push_back(s);
  }
  return all;
}

std::string ModeStats::to_string() const {
  std::ostringstream os;
  os << "mode " << mode << ": nnz=" << nnz << " S=" << num_slices
     << " F=" << num_fibers << " nnz/slc{" << nnz_per_slice.to_string()
     << "} nnz/fbr{" << nnz_per_fiber.to_string() << "}"
     << " coo_frac=" << singleton_slice_fraction
     << " csl_frac=" << csl_slice_fraction;
  return os.str();
}

}  // namespace bcsf
