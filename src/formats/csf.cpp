#include "formats/csf.hpp"

#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace bcsf {

/// Friend of CsfTensor: builds the tree over a sorted sequence of
/// nonzeros, read in place through `at`.
class CsfBuilder {
 public:
  /// The CSF of nonzeros at(0), ..., at(m-1) of `t`, a sequence that
  /// must be sorted by `order` (checked).
  template <typename At>
  static CsfTensor build(const SparseTensor& t, const ModeOrder& order,
                         offset_t m, At at) {
    BCSF_CHECK(order.size() == t.order(), "build_csf: bad mode order");
    BCSF_CHECK(t.order() >= 2, "build_csf: order must be >= 2");

    CsfTensor csf;
    csf.mode_order_ = order;
    csf.dims_ = t.dims();
    const index_t n_levels = t.order() - 1;
    csf.idx_.resize(n_levels);
    csf.ptr_.resize(n_levels);

    // The shallowest node level whose coordinate changes between sorted
    // positions z-1 and z (n_levels: only the leaf changed).  That level
    // must have grown, as must the leaf when no level changed.
    const index_t leaf_mode = order.back();
    const auto changed_level = [&](offset_t z) {
      for (index_t level = 0; level < n_levels; ++level) {
        const index_t cur = t.coord(order[level], at(z));
        const index_t prev = t.coord(order[level], at(z - 1));
        if (cur != prev) {
          BCSF_CHECK(cur > prev, "build_csf: tensor not sorted by mode order");
          return level;
        }
      }
      BCSF_CHECK(t.coord(leaf_mode, at(z)) >= t.coord(leaf_mode, at(z - 1)),
                 "build_csf: tensor not sorted by mode order");
      return n_levels;
    };

    // One pass counts the nodes per level, so every array the plan keeps
    // is allocated once at its final size; a change at level L starts a
    // new node at levels L..n_levels-1.
    std::vector<offset_t> nodes(n_levels, m > 0 ? 1 : 0);
    for (offset_t z = 1; z < m; ++z) {
      for (index_t level = changed_level(z); level < n_levels; ++level) {
        ++nodes[level];
      }
    }
    for (index_t level = 0; level < n_levels; ++level) {
      csf.idx_[level].reserve(nodes[level]);
      csf.ptr_[level].reserve(nodes[level] + 1);
      csf.ptr_[level].push_back(0);
    }
    csf.leaf_inds_.resize(m);
    csf.vals_.resize(m);
    for (offset_t z = 0; z < m; ++z) {
      csf.leaf_inds_[z] = t.coord(leaf_mode, at(z));
      csf.vals_[z] = t.value(at(z));
    }
    if (m == 0) return csf;

    for (index_t level = 0; level < n_levels; ++level) {
      csf.idx_[level].push_back(t.coord(order[level], at(0)));
    }
    for (offset_t z = 1; z < m; ++z) {
      for (index_t level = changed_level(z); level < n_levels; ++level) {
        // Close the current node at `level`: record where its children
        // end (nodes at level L point into level L+1's node list, or the
        // leaf arrays when L == n_levels-1).
        const offset_t child_count =
            (level + 1 < n_levels) ? csf.idx_[level + 1].size() : z;
        csf.ptr_[level].push_back(child_count);
        csf.idx_[level].push_back(t.coord(order[level], at(z)));
      }
    }
    for (index_t level = 0; level < n_levels; ++level) {
      const offset_t child_count =
          (level + 1 < n_levels) ? csf.idx_[level + 1].size() : m;
      csf.ptr_[level].push_back(child_count);
    }
    return csf;
  }
};

CsfTensor build_csf_from_sorted(const SparseTensor& sorted,
                                const ModeOrder& order) {
  return CsfBuilder::build(sorted, order, sorted.nnz(),
                           [](offset_t z) { return z; });
}

CsfTensor build_csf_from_sorted(const SparseTensor& tensor,
                                const ModeOrder& order,
                                std::span<const offset_t> perm) {
  return CsfBuilder::build(tensor, order, perm.size(),
                           [perm](offset_t z) { return perm[z]; });
}

CsfTensor build_csf(const SparseTensor& tensor, index_t mode) {
  const ModeOrder order = mode_order_for(mode, tensor.order());
  return build_csf_from_sorted(tensor, order, tensor.sort_permutation(order));
}

offset_t CsfTensor::subtree_nnz(index_t level, offset_t n) const {
  offset_t begin = child_begin(level, n);
  offset_t end = child_end(level, n);
  for (index_t l = level + 1; l < node_levels(); ++l) {
    begin = ptr_[l][begin];
    end = ptr_[l][end];
  }
  return end - begin;
}

void CsfTensor::validate() const {
  const index_t n_levels = node_levels();
  for (index_t level = 0; level < n_levels; ++level) {
    const auto& idx = idx_[level];
    const auto& ptr = ptr_[level];
    BCSF_CHECK(ptr.size() == idx.size() + 1,
               "csf validate: pointer array length at level " << level);
    BCSF_CHECK(ptr.front() == 0, "csf validate: first pointer not 0");
    const offset_t child_total =
        (level + 1 < n_levels) ? idx_[level + 1].size() : nnz();
    BCSF_CHECK(ptr.back() == child_total,
               "csf validate: last pointer at level " << level);
    for (offset_t n = 0; n < idx.size(); ++n) {
      BCSF_CHECK(ptr[n] < ptr[n + 1],
                 "csf validate: empty node at level " << level << " pos " << n);
      BCSF_CHECK(idx[n] < dims_[mode_order_[level]],
                 "csf validate: node index out of bounds");
    }
  }
  for (index_t leaf : leaf_inds_) {
    BCSF_CHECK(leaf < dims_[mode_order_.back()],
               "csf validate: leaf index out of bounds");
  }
}

std::size_t CsfTensor::index_storage_bytes() const {
  // Per §III-B: each node level stores an index array and a pointer array
  // (counted at 4 bytes per entry, the paper's convention), the leaf level
  // stores one index per nonzero.  For order 3: 4 * (2S + 2F + M).
  std::size_t words = 0;
  for (index_t level = 0; level < node_levels(); ++level) {
    words += 2 * idx_[level].size();
  }
  words += leaf_inds_.size();
  return words * kIndexBytes;
}

std::string CsfTensor::summary() const {
  std::ostringstream os;
  os << "CSF(root mode " << root_mode() << "): nnz=" << nnz()
     << " S=" << num_slices() << " F=" << num_fibers()
     << " index_bytes=" << index_storage_bytes();
  return os.str();
}

}  // namespace bcsf
