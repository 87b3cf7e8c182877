#include "tensor/partitioner.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace bcsf {

namespace {

// Equal-nnz cut points over a sorted nonzero stream whose slice boundary
// offsets are `starts` (with a trailing nnz sentinel), snapped to the
// nearest boundary when one is within a quarter of the per-shard budget;
// a cut left mid-slice SPLITS that slice across two shards (the paper's
// slc-split, lifted to tensor granularity).  Every cut is clamped to
// [previous cut + 1, nnz - remaining shards], which guarantees exactly k
// strictly non-empty shards for any k <= nnz.  Shared by the sorting and
// the sketch-backed partitioners, so their cuts are always identical.
offset_vec place_cuts(offset_t nnz, offset_t k, const offset_vec& starts) {
  const offset_t budget = ceil_div<offset_t>(nnz, k);
  const offset_t slack = budget / 4;
  offset_vec cuts;
  cuts.push_back(0);
  for (offset_t i = 1; i < k; ++i) {
    const offset_t lo = cuts.back() + 1;  // previous shard stays non-empty
    const offset_t hi = nnz - (k - i);    // room for the remaining shards
    const offset_t raw = std::clamp(i * nnz / k, lo, hi);
    auto it = std::lower_bound(starts.begin(), starts.end(), raw);
    offset_t cut = raw;
    offset_t best = slack + 1;
    for (const auto candidate : {it, it == starts.begin() ? it : it - 1}) {
      if (candidate == starts.end()) continue;
      const offset_t boundary = *candidate;
      if (boundary < lo || boundary > hi) continue;
      const offset_t dist = boundary > raw ? boundary - raw : raw - boundary;
      if (dist <= slack && dist < best) {
        best = dist;
        cut = boundary;
      }
    }
    cuts.push_back(cut);
  }
  cuts.push_back(nnz);
  return cuts;
}

}  // namespace

std::size_t route_slice(std::span<const index_t> shard_slice_begins,
                        index_t slice) {
  BCSF_CHECK(!shard_slice_begins.empty(), "route_slice: empty routing table");
  // Last shard whose slice_begin <= slice: for a split slice that is the
  // shard holding the slice's TAIL, so freshly routed nonzeros pile onto
  // the shard already charged for the heavy slice's overflow.
  std::size_t lo = 0;
  std::size_t hi = shard_slice_begins.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (shard_slice_begins[mid] <= slice) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<SparseTensor> split_updates(
    const std::vector<index_t>& dims, index_t mode,
    std::span<const index_t> shard_slice_begins, const SparseTensor& updates) {
  BCSF_CHECK(updates.dims() == dims, "split_updates: update dims mismatch");
  BCSF_CHECK(mode < dims.size(), "split_updates: mode out of range");
  std::vector<SparseTensor> out;
  out.reserve(shard_slice_begins.size());
  for (std::size_t s = 0; s < shard_slice_begins.size(); ++s) {
    out.emplace_back(dims);
  }

  const index_t order = updates.order();
  std::vector<index_t> coords(order);
  for (offset_t z = 0; z < updates.nnz(); ++z) {
    for (index_t m = 0; m < order; ++m) coords[m] = updates.coord(m, z);
    out[route_slice(shard_slice_begins, coords[mode])].push_back(
        coords, updates.value(z));
  }
  return out;
}

std::size_t TensorPartition::shard_for_slice(index_t slice) const {
  return route_slice(slice_begins, slice);
}

std::vector<SparseTensor> TensorPartition::split(
    const SparseTensor& updates) const {
  return split_updates(dims, mode, slice_begins, updates);
}

bool TensorPartition::disjoint_slice_ranges() const {
  for (std::size_t s = 0; s + 1 < shards.size(); ++s) {
    // A split slice shows up as shard s's end overlapping shard s+1's
    // begin (the partitioner keeps ranges sorted and contiguous).
    if (shards[s].slice_end > shards[s + 1].slice_begin) return false;
  }
  return true;
}

index_vec TensorPartition::owned_row_begins() const {
  index_vec owned;
  owned.reserve(shards.size() + 1);
  owned.push_back(0);
  for (std::size_t s = 1; s < shards.size(); ++s) {
    owned.push_back(shards[s].slice_begin);
  }
  owned.push_back(dims[mode]);
  return owned;
}

offset_t TensorPartition::max_shard_nnz() const {
  offset_t best = 0;
  for (const TensorShard& s : shards) best = std::max(best, s.nnz());
  return best;
}

offset_t TensorPartition::min_shard_nnz() const {
  offset_t best = total_nnz;
  for (const TensorShard& s : shards) best = std::min(best, s.nnz());
  return best;
}

std::string TensorPartition::to_string() const {
  std::ostringstream os;
  os << shards.size() << " shard" << (shards.size() == 1 ? "" : "s")
     << " along mode " << mode << ", nnz";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    os << (s == 0 ? " " : "/") << shards[s].nnz();
  }
  return os.str();
}

TensorPartition partition_tensor(const SparseTensor& tensor, index_t mode,
                                 unsigned shards) {
  BCSF_CHECK(tensor.nnz() > 0, "partition_tensor: empty tensor");
  BCSF_CHECK(mode < tensor.order(),
             "partition_tensor: mode " << mode << " out of range for order "
                                       << tensor.order());
  const offset_t nnz = tensor.nnz();
  const offset_t k = std::clamp<offset_t>(shards == 0 ? 1 : shards, 1, nnz);

  // Root-mode-major order groups each slice's nonzeros contiguously, so a
  // shard is one contiguous run of the sorted stream.  Copy only when a
  // sort is actually needed -- generator/FROSTT tensors often arrive
  // sorted, and an O(nnz) scratch copy on the register path would double
  // transient memory for nothing.
  const ModeOrder order = mode_order_for(mode, tensor.order());
  SparseTensor scratch;
  const SparseTensor* source = &tensor;
  if (!tensor.is_sorted(order)) {
    scratch = tensor;
    scratch.sort(order);
    source = &scratch;
  }
  const SparseTensor& sorted = *source;

  // Slice boundaries of the sorted stream: starts[i] is the offset where
  // the i-th non-empty slice begins.
  offset_vec starts;
  for (offset_t z = 0; z < nnz; ++z) {
    if (z == 0 || sorted.coord(mode, z) != sorted.coord(mode, z - 1)) {
      starts.push_back(z);
    }
  }
  starts.push_back(nnz);

  // Cut placement lives in place_cuts (shared with the sketch-backed
  // overload below, which must reproduce these cuts exactly).
  const offset_vec cuts = place_cuts(nnz, k, starts);

  TensorPartition partition;
  partition.mode = mode;
  partition.dims = tensor.dims();
  partition.total_nnz = nnz;
  partition.shards.reserve(cuts.size() - 1);

  std::vector<index_t> coords(tensor.order());
  for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
    const offset_t begin = cuts[s];
    const offset_t end = cuts[s + 1];
    SparseTensor piece(tensor.dims());
    piece.reserve(end - begin);
    for (offset_t z = begin; z < end; ++z) {
      for (index_t m = 0; m < tensor.order(); ++m) {
        coords[m] = sorted.coord(m, z);
      }
      piece.push_back(coords, sorted.value(z));
    }
    TensorShard shard;
    shard.slice_begin = sorted.coord(mode, begin);
    shard.slice_end = sorted.coord(mode, end - 1) + 1;
    shard.tensor = share_tensor(std::move(piece));
    partition.slice_begins.push_back(shard.slice_begin);
    partition.shards.push_back(std::move(shard));
  }
  return partition;
}

TensorPartition partition_tensor(const SparseTensor& tensor, index_t mode,
                                 unsigned shards, const ModeSketch& sketch) {
  BCSF_CHECK(sketch.mode() == mode,
             "partition_tensor: sketch of mode " << sketch.mode()
                                                 << " used to cut mode " << mode);
  return partition_tensor(tensor, mode, shards, sketch.slices());
}

TensorPartition partition_tensor(const SparseTensor& tensor, index_t mode,
                                 unsigned shards, const SliceHistogram& slices) {
  BCSF_CHECK(tensor.nnz() > 0, "partition_tensor: empty tensor");
  BCSF_CHECK(mode < tensor.order(),
             "partition_tensor: mode " << mode << " out of range for order "
                                       << tensor.order());
  BCSF_CHECK(slices.extent() == tensor.dim(mode) && slices.nnz() == tensor.nnz(),
             "partition_tensor: slice histogram does not describe mode "
                 << mode << " of this tensor");
  const offset_t nnz = tensor.nnz();
  const offset_t k = std::clamp<offset_t>(shards == 0 ? 1 : shards, 1, nnz);

  // The slice-occupancy histogram is exact, so its prefix sums ARE the
  // slice boundary offsets of the (never materialized) sorted stream --
  // the same `starts` array the sorting path scans for.
  const std::vector<SliceMass> cdf = slices.slice_cdf();
  offset_vec starts;
  starts.reserve(cdf.size() + 1);
  offset_t acc = 0;
  for (const SliceMass& s : cdf) {
    starts.push_back(acc);
    acc += s.nnz;
  }
  BCSF_CHECK(acc == nnz, "partition_tensor: slice masses sum to "
                             << acc << ", tensor has " << nnz);
  starts.push_back(nnz);

  const offset_vec cuts = place_cuts(nnz, k, starts);

  // Root-mode slice containing virtual position `pos` of the sorted
  // stream (for shard slice ranges).
  auto slice_at = [&](offset_t pos) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
    return cdf[static_cast<std::size_t>(it - starts.begin()) - 1].slice;
  };

  // One bucketing pass in input order: a nonzero's virtual position is
  // its slice's start offset plus the count of same-slice nonzeros seen
  // before it, which is exactly where the sorting path would have placed
  // it (up to intra-slice order, which no consumer depends on).
  const std::size_t num_shards = static_cast<std::size_t>(cuts.size()) - 1;
  std::vector<SparseTensor> pieces;
  pieces.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    pieces.emplace_back(tensor.dims());
    pieces[s].reserve(cuts[s + 1] - cuts[s]);
  }
  std::unordered_map<index_t, offset_t> next_pos;  // slice -> next virtual pos
  next_pos.reserve(cdf.size());
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    next_pos.emplace(cdf[i].slice, starts[i]);
  }
  std::vector<index_t> coords(tensor.order());
  for (offset_t z = 0; z < nnz; ++z) {
    for (index_t m = 0; m < tensor.order(); ++m) coords[m] = tensor.coord(m, z);
    const auto it = next_pos.find(coords[mode]);
    BCSF_CHECK(it != next_pos.end(),
               "partition_tensor: slice " << coords[mode] << " missing from histogram");
    const offset_t vpos = it->second++;
    const std::size_t s =
        static_cast<std::size_t>(std::upper_bound(cuts.begin(), cuts.end(), vpos) -
                                 cuts.begin()) -
        1;
    pieces[s].push_back(coords, tensor.value(z));
  }

  TensorPartition partition;
  partition.mode = mode;
  partition.dims = tensor.dims();
  partition.total_nnz = nnz;
  partition.shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    TensorShard shard;
    shard.slice_begin = slice_at(cuts[s]);
    shard.slice_end = slice_at(cuts[s + 1] - 1) + 1;
    shard.tensor = share_tensor(std::move(pieces[s]));
    partition.slice_begins.push_back(shard.slice_begin);
    partition.shards.push_back(std::move(shard));
  }
  return partition;
}

PartitionPtr share_partition(TensorPartition&& partition) {
  return std::make_shared<const TensorPartition>(std::move(partition));
}

}  // namespace bcsf
