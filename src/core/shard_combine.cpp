#include "core/shard_combine.hpp"

#include <algorithm>
#include <utility>

#include "kernels/mttkrp.hpp"
#include "kernels/ttv_fit.hpp"
#include "util/error.hpp"

namespace bcsf {

namespace {

/// True when a sweep over `deltas` would add anything (a null chunk
/// counts, so the sweep's own check reports it).
bool has_nonzeros(std::span<const TensorPtr> deltas) {
  return std::any_of(deltas.begin(), deltas.end(), [](const TensorPtr& c) {
    return c == nullptr || c->nnz() > 0;
  });
}

}  // namespace

ShardCombine::ShardCombine(const OpRequest& request,
                           const std::vector<index_t>& dims,
                           index_t partition_mode, std::size_t shards,
                           std::span<const index_t> owned, ScratchArena& arena)
    : request_(request), owned_(owned), arena_(&arena), slots_(shards) {
  BCSF_CHECK(shards > 0, "ShardCombine: no shards");
  BCSF_CHECK(owned.empty() || owned.size() == shards + 1,
             "ShardCombine: ownership table has " << owned.size()
                                                  << " entries for " << shards
                                                  << " shards");
  if (request.kind == OpKind::kFit) return;
  BCSF_CHECK(request.mode < dims.size() && request.factors != nullptr &&
                 !request.factors->empty(),
             "ShardCombine: malformed matrix-op request");
  rows_ = dims[request.mode];
  rank_ = request.kind == OpKind::kTtv ? 1 : request.factors->front().cols();
  windowed_ = one_owner_per_row(shards, owned, request.mode, partition_mode);
  // Shards write their windows concurrently, so several windows need the
  // output up front; a lone shard's own buffer becomes it in add().
  if (windowed_ && shards > 1) output_ = DenseMatrix(rows_, rank_);
}

void ShardCombine::sweep(std::span<const TensorPtr> deltas,
                         std::span<double> acc, index_t row_begin) const {
  if (request_.kind == OpKind::kMttkrp) {
    mttkrp_delta_accumulate(deltas, request_.mode, *request_.factors, acc,
                            row_begin);
  } else {
    ttv_delta_accumulate(deltas, request_.mode, *request_.factors, acc,
                         row_begin);
  }
}

void ShardCombine::add(std::size_t shard, OpResult result,
                       std::span<const TensorPtr> deltas) {
  Slot& slot = slots_[shard];
  slot.report = std::move(result.report);
  if (request_.kind == OpKind::kFit) {
    slot.scalar = result.scalar + fit_inner_delta(deltas, *request_.factors,
                                                  request_.lambda);
    return;
  }
  BCSF_CHECK(result.output.rows() == rows_ && result.output.cols() == rank_,
             "ShardCombine: shard " << shard << " returned "
                                    << result.output.rows() << " x "
                                    << result.output.cols() << ", expected "
                                    << rows_ << " x " << rank_);
  const bool swept = has_nonzeros(deltas);

  if (!windowed_) {
    // Merge: promote the whole output into a leased partial.  A recycled
    // buffer comes back with stale contents; the copy overwrites them all.
    const auto data = result.output.data();
    slot.partial = ScratchLease(*arena_, data.size());
    std::copy(data.begin(), data.end(), slot.partial.get().begin());
    if (swept) sweep(deltas, slot.partial.get(), 0);
    return;
  }

  // Window: the shard's rows outside [begin, end) are zero in its plan
  // output and in its routed delta, so dropping them loses nothing.
  const bool lone = slots_.size() == 1;
  const index_t begin = lone ? 0 : owned_[shard];
  const index_t end = lone ? rows_ : owned_[shard + 1];
  const std::size_t lo = static_cast<std::size_t>(begin) * rank_;
  const std::size_t hi = static_cast<std::size_t>(end) * rank_;
  if (lone) {
    output_ = std::move(result.output);
  } else {
    const auto src = result.output.data();
    std::copy(src.begin() + lo, src.begin() + hi, output_.data().begin() + lo);
  }
  if (!swept) return;
  // Promote the window once, sweep in double, cast back once.
  const std::span<value_t> rows = output_.data().subspan(lo, hi - lo);
  ScratchLease lease(*arena_, rows.size());
  const std::span<double> acc(lease.get());
  std::copy(rows.begin(), rows.end(), acc.begin());
  sweep(deltas, acc, begin);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    rows[i] = static_cast<value_t>(acc[i]);
  }
}

OpResult ShardCombine::finish() {
  OpResult result;
  result.report = std::move(slots_.front().report);
  for (std::size_t s = 1; s < slots_.size(); ++s) {
    result.report += slots_[s].report;
  }
  if (request_.kind == OpKind::kFit) {
    for (const Slot& slot : slots_) result.scalar += slot.scalar;
  } else if (windowed_) {
    result.output = std::move(output_);
  } else {
    // The single cast boundary of the merge path: each entry sums the
    // shards' double partials in shard order, then rounds once.
    std::vector<const double*> partials;
    partials.reserve(slots_.size());
    for (const Slot& slot : slots_) partials.push_back(slot.partial.get().data());
    result.output = DenseMatrix(rows_, rank_);
    const auto out = result.output.data();
    for (std::size_t i = 0; i < out.size(); ++i) {
      double sum = 0.0;
      for (const double* partial : partials) sum += partial[i];
      out[i] = static_cast<value_t>(sum);
    }
  }
  return result;
}

}  // namespace bcsf
