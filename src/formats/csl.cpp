#include "formats/csl.hpp"

#include <sstream>

#include "util/error.hpp"

namespace bcsf {

/// Friend of CslTensor: builds over sorted nonzeros read in place.
class CslBuilder {
 public:
  /// The CSL whose slice s has root index slice_inds[s] and group
  /// positions [slice_ptr[s], slice_ptr[s+1]) (one extra entry == nnz);
  /// at(s, z) is the tensor nonzero at group position z of slice s.
  template <typename At>
  static CslTensor build(const SparseTensor& t, const ModeOrder& order,
                         index_vec slice_inds, offset_vec slice_ptr, At at) {
    BCSF_CHECK(order.size() == t.order(), "build_csl: bad mode order");
    BCSF_CHECK(slice_ptr.size() == slice_inds.size() + 1 &&
                   slice_ptr.front() == 0,
               "build_csl: caller-provided slice boundaries malformed");

    CslTensor csl;
    csl.mode_order_ = order;
    csl.dims_ = t.dims();
    csl.slice_inds_ = std::move(slice_inds);
    csl.slice_ptr_ = std::move(slice_ptr);
    const offset_t m = csl.slice_ptr_.back();
    const index_t n_other = t.order() - 1;
    csl.nz_inds_.assign(n_other, index_vec(m));
    csl.vals_.resize(m);
    for (offset_t s = 0; s < csl.num_slices(); ++s) {
      for (offset_t z = csl.slice_begin(s); z < csl.slice_end(s); ++z) {
        const offset_t src = at(s, z);
        for (index_t p = 0; p < n_other; ++p) {
          csl.nz_inds_[p][z] = t.coord(order[p + 1], src);
        }
        csl.vals_[z] = t.value(src);
      }
    }
    return csl;
  }

  /// Builds over nonzeros at(0), ..., at(m-1) of `t`, a sequence sorted by
  /// `order`, with the slice boundaries found by one scan of it.
  template <typename At>
  static CslTensor build(const SparseTensor& t, const ModeOrder& order,
                         offset_t m, At at) {
    const index_t root = order.front();
    index_vec slice_inds;
    offset_vec slice_ptr;
    for (offset_t z = 0; z < m; ++z) {
      if (z == 0 || t.coord(root, at(z)) != t.coord(root, at(z - 1))) {
        slice_inds.push_back(t.coord(root, at(z)));
        slice_ptr.push_back(z);
      }
    }
    slice_ptr.push_back(m);
    return build(t, order, std::move(slice_inds), std::move(slice_ptr),
                 [&at](offset_t, offset_t z) { return at(z); });
  }
};

CslTensor build_csl_from_runs(const SparseTensor& tensor,
                              const ModeOrder& order,
                              std::span<const offset_t> perm,
                              std::span<const offset_t> starts,
                              index_vec slice_inds, offset_vec slice_ptr) {
  BCSF_CHECK(starts.size() + 1 == slice_ptr.size(),
             "build_csl: one run start per slice");
  // Group position z of slice s is sorted position z + shift[s].
  offset_vec shift(starts.size());
  for (std::size_t s = 0; s < starts.size(); ++s) {
    shift[s] = starts[s] - slice_ptr[s];
  }
  return CslBuilder::build(
      tensor, order, std::move(slice_inds), std::move(slice_ptr),
      [perm, &shift](offset_t s, offset_t z) { return perm[z + shift[s]]; });
}

CslTensor build_csl(const SparseTensor& tensor, index_t mode) {
  return build_csl(
      tensor, mode,
      tensor.sort_permutation(mode_order_for(mode, tensor.order())));
}

CslTensor build_csl(const SparseTensor& tensor, index_t mode,
                    offset_vec perm) {
  BCSF_CHECK(perm.size() == tensor.nnz(),
             "build_csl: permutation length " << perm.size() << " != nnz "
                                              << tensor.nnz());
  return CslBuilder::build(tensor, mode_order_for(mode, tensor.order()),
                           perm.size(),
                           [&perm](offset_t z) { return perm[z]; });
}

void CslTensor::validate() const {
  BCSF_CHECK(slice_ptr_.size() == slice_inds_.size() + 1,
             "csl validate: slice pointer length");
  if (!slice_ptr_.empty()) {
    BCSF_CHECK(slice_ptr_.front() == 0, "csl validate: first pointer not 0");
    BCSF_CHECK(slice_ptr_.back() == nnz(), "csl validate: last pointer");
  }
  for (offset_t s = 0; s + 1 < slice_ptr_.size(); ++s) {
    BCSF_CHECK(slice_ptr_[s] < slice_ptr_[s + 1], "csl validate: empty slice");
  }
  for (index_t p = 0; p + 1 < mode_order_.size(); ++p) {
    BCSF_CHECK(nz_inds_[p].size() == vals_.size(),
               "csl validate: nonzero index array length");
  }
}

std::string CslTensor::summary() const {
  std::ostringstream os;
  os << "CSL(root mode " << root_mode() << "): nnz=" << nnz()
     << " S=" << num_slices() << " index_bytes=" << index_storage_bytes();
  return os.str();
}

}  // namespace bcsf
