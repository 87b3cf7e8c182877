#include "formats/bcsf.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace bcsf {

namespace {

/// Changes of nonzero count along a window's walk must fall by more than
/// one per this many segments for length order to pay: each change
/// costs the walk a mispredicted loop exit, each reordered segment a
/// kept row.
constexpr offset_t kSegmentsPerSavedChange = 4;

/// Calls fn(w, n) for each walk-order window (BcsfTensor::walk_order):
/// the n segments from segment w.
template <typename Fn>
void for_each_window(const std::vector<BcsfTensor::Block>& blocks, Fn fn) {
  for (const BcsfTensor::Block& b : blocks) {
    for (offset_t w = b.fiber_begin; w < b.fiber_end;
         w += BcsfTensor::kOrderWindow) {
      fn(w, std::min(BcsfTensor::kOrderWindow, b.fiber_end - w));
    }
  }
}

/// Writes the walk-order entries of a window of n segments, segment k
/// holding len(k) nonzeros, to entry[0, n): the segments stably sorted by
/// count, or fiber order when that sort saves at most n /
/// kSegmentsPerSavedChange changes of count (always so for a window
/// already in length order), then the pair bits.
template <typename Len>
void order_window(offset_t n, Len len, std::uint16_t* entry) {
  for (offset_t k = 0; k < n; ++k) entry[k] = static_cast<std::uint16_t>(k);
  std::stable_sort(entry, entry + n, [&](std::uint16_t x, std::uint16_t y) {
    return len(x) < len(y);
  });
  offset_t fiber_changes = 0;
  offset_t sorted_changes = 0;
  for (offset_t i = 1; i < n; ++i) {
    fiber_changes += len(i) != len(i - 1);
    sorted_changes += len(entry[i]) != len(entry[i - 1]);
  }
  const bool in_place =
      (fiber_changes - sorted_changes) * kSegmentsPerSavedChange <= n;
  if (in_place) {
    for (offset_t k = 0; k < n; ++k) entry[k] = static_cast<std::uint16_t>(k);
  }
  // Greedy along the walk: entry i pairs with i + 1 unless i - 1 took it.
  for (offset_t i = 0; i + 1 < n; ++i) {
    if (len(entry[i]) == len(entry[i + 1])) entry[i++] |= BcsfTensor::kOrderPair;
  }
  if (in_place) entry[0] |= BcsfTensor::kOrderInPlace;
}

/// Segment k's nonzero count in the window from segment w, under fiber
/// pointers `ptr`.
auto window_lengths(const offset_vec& ptr, offset_t w) {
  return [&ptr, w](offset_t k) { return ptr[w + k + 1] - ptr[w + k]; };
}

}  // namespace

/// Friend of both CsfTensor and BcsfTensor; performs the two splitting
/// passes on the tree it takes over.
class BcsfBuilder {
 public:
  static BcsfTensor build(CsfTensor csf, const BcsfOptions& opts) {
    BcsfTensor out;
    out.opts_ = opts;
    out.csf_ = std::move(csf);
    if (opts.fiber_split && out.csf_.order() >= 3) {
      split_fibers(out);
    }
    precompute_fiber_coords(out);
    build_blocks(out);
    build_order(out);
    return out;
  }

 private:
  // Splits every leaf-parent node with more than `fiber_threshold` leaves
  // into consecutive segments, rewriting the leaf-parent level's idx/ptr
  // arrays and remapping the grandparent level's pointers.
  static void split_fibers(BcsfTensor& out) {
    CsfTensor& csf = out.csf_;
    const index_t fiber_level = csf.node_levels() - 1;
    const offset_t threshold = out.opts_.fiber_threshold;
    BCSF_CHECK(threshold > 0, "bcsf: fiber_threshold must be positive");

    const index_vec& old_idx = csf.idx_[fiber_level];
    const offset_vec& old_ptr = csf.ptr_[fiber_level];
    const offset_t old_count = old_idx.size();

    offset_t segments = 0;
    for (offset_t f = 0; f < old_count; ++f) {
      segments += ceil_div(old_ptr[f + 1] - old_ptr[f], threshold);
    }
    index_vec new_idx;
    offset_vec new_ptr;
    new_idx.reserve(segments);
    new_ptr.reserve(segments + 1);
    new_ptr.push_back(0);

    // seg_start_of_old[f] = first segment produced from old fiber f; used
    // to remap the parent level's child pointers.
    offset_vec seg_start_of_old(old_count + 1);

    offset_t split_count = 0;
    for (offset_t f = 0; f < old_count; ++f) {
      seg_start_of_old[f] = new_idx.size();
      const offset_t begin = old_ptr[f];
      const offset_t end = old_ptr[f + 1];
      const offset_t len = end - begin;
      if (len > threshold) ++split_count;
      for (offset_t s = begin; s < end; s += threshold) {
        new_idx.push_back(old_idx[f]);
        new_ptr.push_back(std::min(s + threshold, end));
      }
    }
    seg_start_of_old[old_count] = new_idx.size();

    if (fiber_level > 0) {
      offset_vec& parent_ptr = csf.ptr_[fiber_level - 1];
      for (auto& p : parent_ptr) p = seg_start_of_old[p];
    }
    csf.idx_[fiber_level] = std::move(new_idx);
    csf.ptr_[fiber_level] = std::move(new_ptr);
    out.split_fiber_count_ = split_count;
  }

  // For each fiber segment, record the coordinate of its ancestor at every
  // middle node level, by walking each level's child ranges once (O(F)
  // total).
  static void precompute_fiber_coords(BcsfTensor& out) {
    const CsfTensor& csf = out.csf_;
    const index_t n_levels = csf.node_levels();
    const offset_t n_fibers = csf.num_fibers();
    out.fiber_coords_.assign(std::max<index_t>(n_levels, 2) - 2,
                             index_vec(n_fibers));

    // Propagate each node's index to all fibers in its subtree.  Compute
    // each node's fiber range by chaining pointers down.
    for (index_t level = 1; level + 1 < n_levels; ++level) {
      for (offset_t n = 0; n < csf.num_nodes(level); ++n) {
        offset_t begin = csf.child_begin(level, n);
        offset_t end = csf.child_end(level, n);
        for (index_t l = level + 1; l + 1 < n_levels; ++l) {
          begin = csf.level_pointers(l)[begin];
          end = csf.level_pointers(l)[end];
        }
        const index_t coord = csf.node_index(level, n);
        for (offset_t f = begin; f < end; ++f) {
          out.fiber_coords_[level - 1][f] = coord;
        }
      }
    }
  }

  // Packs each slice's fiber segments into thread-block bins.
  static void build_blocks(BcsfTensor& out) {
    const CsfTensor& csf = out.csf_;
    const index_t n_levels = csf.node_levels();
    const offset_t capacity = out.opts_.block_nnz_capacity;
    BCSF_CHECK(capacity > 0, "bcsf: block_nnz_capacity must be positive");

    auto leaf_count = [&](offset_t fiber) {
      return csf.child_end(n_levels - 1, fiber) -
             csf.child_begin(n_levels - 1, fiber);
    };

    for (offset_t slice = 0; slice < csf.num_slices(); ++slice) {
      // Fiber-segment range of this slice.
      offset_t fbr_begin = csf.child_begin(0, slice);
      offset_t fbr_end = csf.child_end(0, slice);
      for (index_t l = 1; l + 1 < n_levels; ++l) {
        fbr_begin = csf.level_pointers(l)[fbr_begin];
        fbr_end = csf.level_pointers(l)[fbr_end];
      }
      if (n_levels == 1) {
        // order-2 tensor: the slice is the fiber.
        fbr_begin = slice;
        fbr_end = slice + 1;
      }

      if (!out.opts_.slice_split) {
        BcsfTensor::Block b;
        b.slice = static_cast<index_t>(slice);
        b.fiber_begin = fbr_begin;
        b.fiber_end = fbr_end;
        for (offset_t f = fbr_begin; f < fbr_end; ++f) b.nnz += leaf_count(f);
        b.atomic_output = false;
        out.blocks_.push_back(b);
        continue;
      }

      const offset_t first_block = out.blocks_.size();
      BcsfTensor::Block cur;
      cur.slice = static_cast<index_t>(slice);
      cur.fiber_begin = fbr_begin;
      for (offset_t f = fbr_begin; f < fbr_end; ++f) {
        cur.nnz += leaf_count(f);
        if (cur.nnz >= capacity) {
          cur.fiber_end = f + 1;
          out.blocks_.push_back(cur);
          cur = BcsfTensor::Block{};
          cur.slice = static_cast<index_t>(slice);
          cur.fiber_begin = f + 1;
        }
      }
      if (cur.fiber_begin < fbr_end) {
        cur.fiber_end = fbr_end;
        out.blocks_.push_back(cur);
      }
      const offset_t produced = out.blocks_.size() - first_block;
      if (produced > 1) {
        ++out.split_slice_count_;
        for (offset_t b = first_block; b < out.blocks_.size(); ++b) {
          out.blocks_[b].atomic_output = true;
        }
      }
    }
  }

  // Records each window's walk order (BcsfTensor::walk_order).
  static void build_order(BcsfTensor& out) {
    const offset_vec& ptr =
        out.csf_.level_pointers(out.csf_.node_levels() - 1);
    out.order_.assign(out.csf_.num_fibers(), 0);
    for_each_window(out.blocks_, [&](offset_t w, offset_t n) {
      order_window(n, window_lengths(ptr, w), out.order_.data() + w);
    });
  }
};

BcsfTensor build_bcsf_from_csf(CsfTensor csf, const BcsfOptions& opts) {
  return BcsfBuilder::build(std::move(csf), opts);
}

BcsfTensor build_bcsf(const SparseTensor& tensor, index_t mode,
                      const BcsfOptions& opts) {
  return build_bcsf(
      tensor, mode,
      tensor.sort_permutation(mode_order_for(mode, tensor.order())), opts);
}

BcsfTensor build_bcsf(const SparseTensor& tensor, index_t mode,
                      offset_vec perm, const BcsfOptions& opts) {
  BCSF_CHECK(perm.size() == tensor.nnz(),
             "build_bcsf: permutation length " << perm.size() << " != nnz "
                                               << tensor.nnz());
  CsfTensor csf = build_csf_from_sorted(
      tensor, mode_order_for(mode, tensor.order()), perm);
  offset_vec().swap(perm);  // gone before the split, as in build_csf
  return BcsfBuilder::build(std::move(csf), opts);
}

index_t BcsfTensor::slice_of_fiber(offset_t f) const {
  // First fiber segment of slice s, by chaining pointers down the levels.
  const auto first_fiber = [this](offset_t s) {
    for (index_t level = 0; level + 1 < csf_.node_levels(); ++level) {
      s = csf_.child_begin(level, s);
    }
    return s;
  };
  // The last slice whose first segment is at or before f.
  offset_t lo = 0;
  offset_t hi = csf_.num_slices();
  while (hi - lo > 1) {
    const offset_t mid = lo + (hi - lo) / 2;
    if (first_fiber(mid) <= f) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return csf_.node_index(0, lo);
}

void BcsfTensor::validate() const {
  csf_.validate();
  const index_t fiber_level = csf_.node_levels() - 1;
  if (opts_.fiber_split && csf_.order() >= 3) {
    for (offset_t f = 0; f < csf_.num_fibers(); ++f) {
      const offset_t len =
          csf_.child_end(fiber_level, f) - csf_.child_begin(fiber_level, f);
      BCSF_CHECK(len <= opts_.fiber_threshold,
                 "bcsf validate: fiber segment " << f << " has " << len
                     << " nonzeros (threshold " << opts_.fiber_threshold << ")");
    }
  }
  // Blocks must tile every slice's fiber range exactly once, in order.
  offset_t covered = 0;
  offset_t total_nnz = 0;
  for (const auto& b : blocks_) {
    BCSF_CHECK(b.fiber_begin == covered,
               "bcsf validate: block fiber ranges not contiguous");
    BCSF_CHECK(b.fiber_end > b.fiber_begin, "bcsf validate: empty block");
    covered = b.fiber_end;
    total_nnz += b.nnz;
  }
  BCSF_CHECK(covered == csf_.num_fibers(),
             "bcsf validate: blocks do not cover all fiber segments");
  BCSF_CHECK(total_nnz == csf_.nnz(),
             "bcsf validate: block nnz totals " << total_nnz << " != " << csf_.nnz());
  // Each window lists its own length order (order_window).
  BCSF_CHECK(order_.size() == csf_.num_fibers(),
             "bcsf validate: walk order has " << order_.size()
                 << " entries for " << csf_.num_fibers() << " segments");
  const offset_vec& ptr = csf_.level_pointers(csf_.node_levels() - 1);
  std::vector<std::uint16_t> want(kOrderWindow);
  for_each_window(blocks_, [&](offset_t w, offset_t n) {
    order_window(n, window_lengths(ptr, w), want.data());
    BCSF_CHECK(std::equal(want.begin(), want.begin() + n, order_.begin() + w),
               "bcsf validate: the window at segment "
                   << w << " is not in its walk order");
  });
}

std::string BcsfTensor::summary() const {
  std::ostringstream os;
  os << "B-CSF(root mode " << root_mode() << "): nnz=" << nnz()
     << " slices=" << csf_.num_slices() << " fiber_segments="
     << num_fiber_segments() << " blocks=" << blocks_.size()
     << " split_fibers=" << split_fiber_count_
     << " split_slices=" << split_slice_count_;
  return os.str();
}

}  // namespace bcsf
