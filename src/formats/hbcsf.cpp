#include "formats/hbcsf.hpp"

#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace bcsf {

HbcsfTensor build_hbcsf(const SparseTensor& tensor, index_t mode,
                        const BcsfOptions& opts) {
  const ModeOrder order = mode_order_for(mode, tensor.order());
  // Compaction hands over coalesced (identity-sorted) tensors, which need
  // no sort; the overload below reads those in place.
  return build_hbcsf(tensor, mode,
                     tensor.is_sorted(order) ? offset_vec(tensor.nnz())
                                             : tensor.sort_permutation(order),
                     opts);
}

HbcsfTensor build_hbcsf(const SparseTensor& tensor, index_t mode,
                        offset_vec perm, const BcsfOptions& opts) {
  const ModeOrder order = mode_order_for(mode, tensor.order());
  const offset_t m = tensor.nnz();
  BCSF_CHECK(perm.size() == m, "build_hbcsf: permutation length "
                                   << perm.size() << " != nnz " << m);
  // Sorted position z holds nonzero perm[z]; the nonzeros are read in
  // place, never copied into sorted order.  A tensor already in order is
  // read as it stands, so ties among duplicate coordinates never depend
  // on how the caller's sort broke them.
  if (tensor.is_sorted(order)) {
    std::iota(perm.begin(), perm.end(), offset_t{0});
  }

  // Classify each slice (Alg. 5 lines 1-16) in one scan: a single
  // nonzero goes to COO, a slice whose fibers are all singletons to CSL,
  // anything with a longer fiber to B-CSF.
  enum class Group : std::uint8_t { kCoo, kCsl, kCsf };
  struct Slice {
    offset_t nnz = 0;
    Group group = Group::kCsl;
  };
  std::vector<Slice> slices;
  const index_t root = order.front();
  const auto same_fiber = [&](offset_t a, offset_t b) {
    for (index_t level = 1; level + 1 < tensor.order(); ++level) {
      if (tensor.coord(order[level], a) != tensor.coord(order[level], b)) {
        return false;
      }
    }
    return true;
  };
  for (offset_t z = 0; z < m; ++z) {
    const index_t slice = tensor.coord(root, perm[z]);
    if (z == 0 || slice != tensor.coord(root, perm[z - 1])) {
      slices.emplace_back();
    } else if (same_fiber(perm[z], perm[z - 1])) {
      slices.back().group = Group::kCsf;
    }
    ++slices.back().nnz;
  }
  offset_t coo_nnz = 0;
  offset_t csl_slices = 0;
  for (Slice& slc : slices) {
    if (slc.nnz == 1) {
      slc.group = Group::kCoo;
      ++coo_nnz;
    } else if (slc.group == Group::kCsl) {
      ++csl_slices;
    }
  }

  HbcsfTensor out;
  out.mode_order_ = order;
  out.dims_ = tensor.dims();
  out.coo_inds_.assign(tensor.order(), index_vec());
  for (index_vec& inds : out.coo_inds_) inds.reserve(coo_nnz);
  out.coo_vals_.reserve(coo_nnz);
  // The CSL group as runs of `perm`, one per slice, with the boundaries
  // the classification found (saving the builder's re-scan).
  offset_vec csl_starts;
  index_vec csl_slice_inds;
  offset_vec csl_slice_ptr;
  csl_starts.reserve(csl_slices);
  csl_slice_inds.reserve(csl_slices);
  csl_slice_ptr.reserve(csl_slices + 1);
  csl_slice_ptr.push_back(0);
  offset_t z = 0;  // cursor over sorted nonzeros
  for (const Slice& slc : slices) {
    if (slc.group == Group::kCoo) {
      for (index_t p = 0; p < tensor.order(); ++p) {
        out.coo_inds_[p].push_back(tensor.coord(order[p], perm[z]));
      }
      out.coo_vals_.push_back(tensor.value(perm[z]));
    } else if (slc.group == Group::kCsl) {
      csl_starts.push_back(z);
      csl_slice_inds.push_back(tensor.coord(root, perm[z]));
      csl_slice_ptr.push_back(csl_slice_ptr.back() + slc.nnz);
    }
    z += slc.nnz;
  }
  out.csl_ = build_csl_from_runs(tensor, order, perm, csl_starts,
                                 std::move(csl_slice_inds),
                                 std::move(csl_slice_ptr));

  // Then the B-CSF group's positions, compacted into the front of `perm`
  // (every write lands on a position already read).  Both groups keep
  // the sorted order, so their builders need no re-sorting.
  offset_t csf_nnz = 0;
  z = 0;
  for (const Slice& slc : slices) {
    if (slc.group == Group::kCsf) {
      for (offset_t i = z; i < z + slc.nnz; ++i) perm[csf_nnz++] = perm[i];
    }
    z += slc.nnz;
  }
  std::vector<Slice>().swap(slices);
  // Only those positions are still read: a right-sized copy lets the
  // full-length permutation go before the B-CSF group's arrays exist.
  perm.resize(csf_nnz);
  perm.shrink_to_fit();
  CsfTensor csf = build_csf_from_sorted(tensor, order, perm);
  offset_vec().swap(perm);  // the last transient, gone before the split
  out.bcsf_ = build_bcsf_from_csf(std::move(csf), opts);
  return out;
}

void HbcsfTensor::validate() const {
  csl_.validate();
  bcsf_.validate();
  for (index_t p = 0; p < order(); ++p) {
    BCSF_CHECK(coo_inds_[p].size() == coo_vals_.size(),
               "hbcsf validate: COO group array length");
    for (index_t idx : coo_inds_[p]) {
      BCSF_CHECK(idx < dims_[mode_order_[p]],
                 "hbcsf validate: COO index out of bounds");
    }
  }
  // Every CSL slice must consist of singleton fibers, i.e. no two nonzeros
  // in a CSL slice may share all non-leaf coordinates.
  for (offset_t s = 0; s < csl_.num_slices(); ++s) {
    for (offset_t a = csl_.slice_begin(s) + 1; a < csl_.slice_end(s); ++a) {
      bool same_fiber = true;
      for (index_t p = 0; p + 2 < order(); ++p) {  // non-root, non-leaf coords
        if (csl_.nz_index(p, a) != csl_.nz_index(p, a - 1)) {
          same_fiber = false;
          break;
        }
      }
      BCSF_CHECK(!same_fiber || order() == 2,
                 "hbcsf validate: CSL slice " << s << " has a multi-nonzero fiber");
    }
  }
}

std::string HbcsfTensor::summary() const {
  std::ostringstream os;
  os << "HB-CSF(root mode " << root_mode() << "): nnz=" << nnz() << " [coo="
     << coo_nnz() << " csl=" << csl_nnz() << " csf=" << csf_nnz()
     << "] index_bytes=" << index_storage_bytes();
  return os.str();
}

}  // namespace bcsf
