#include "serve/tensor_op_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <tuple>
#include <utility>

#include "core/auto_policy.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace bcsf {

namespace {

/// Formats whose "build" is free because their representation IS the
/// source tensor (DESIGN.md §2).  Only these may serve the initial path,
/// and upgrading to one of them would buy nothing.
bool is_coo_family(const std::string& format) {
  return ConcurrentPlanCache::coo_family(format);
}

}  // namespace

TensorOpService::TensorOpService(ServeOptions opts)
    : opts_(std::move(opts)),
      budget_(opts_.storage_budget_bytes),
      scheduler_(pool_, opts_.max_concurrent_upgrades == 0
                            ? opts_.workers
                            : opts_.max_concurrent_upgrades),
      pool_(opts_.workers) {
  BCSF_CHECK(is_coo_family(opts_.initial_format),
             "TensorOpService: initial_format '"
                 << opts_.initial_format
                 << "' is not zero-preprocessing (COO family)");
  BCSF_CHECK(opts_.upgrade_format != "sharded",
             "TensorOpService: upgrade_format 'sharded' is redundant -- the "
             "service shards tensors itself (ServeOptions::shards)");
  BCSF_CHECK(opts_.heat_decay > 0.0 && opts_.heat_decay <= 1.0,
             "TensorOpService: heat_decay must be in (0, 1], got "
                 << opts_.heat_decay);
}

TensorOpService::~TensorOpService() = default;

void TensorOpService::register_tensor(const std::string& name,
                                      TensorPtr tensor) {
  BCSF_CHECK(!name.empty(), "TensorOpService: empty tensor name");
  BCSF_CHECK(tensor != nullptr,
             "TensorOpService: null tensor '" << name << "'");
  BCSF_CHECK(tensor->nnz() > 0,
             "TensorOpService: tensor '" << name << "' has no nonzeros");
  BCSF_CHECK(opts_.shard_mode < tensor->order(),
             "TensorOpService: shard_mode " << opts_.shard_mode
                                            << " out of range for tensor '"
                                            << name << "'");

  // Count the partition mode's slices in ONE pass over its coordinate
  // column (DESIGN.md §12): shard pricing reads the slice skew and the
  // partitioner cuts against the slice-mass CDF, replacing the register
  // path's O(nnz log nnz) sort.  A fixed single shard reads neither.
  SliceHistogram reg_slices(tensor->dim(opts_.shard_mode));
  if (sketch_policy_ && opts_.shards != 1) {
    reg_slices.add_column(tensor->mode_indices(opts_.shard_mode));
  }

  // Auto pricing is overhead-aware (DESIGN.md §8): the partition mode's
  // extent scales the merge traffic a sharded request pays, so tensors
  // below the fan-out/reduce break-even stay monolithic.  The sketched
  // slice skew additionally drops the reduce term when every cut
  // provably lands on a slice boundary (disjoint-output pricing).
  const unsigned want =
      opts_.shards == 0
          ? auto_shard_count(tensor->nnz(), tensor->dim(opts_.shard_mode),
                             AutoPolicyOptions{},
                             sketch_policy_ ? reg_slices.max_slice_nnz()
                                            : offset_t{0})
          : opts_.shards;
  auto state = std::make_unique<TensorState>();
  state->name = name;
  state->dims = tensor->dims();
  state->partition_mode = opts_.shard_mode;
  if (want <= 1) {
    // Monolithic: one shard covering every slice, no partition copy.
    state->route_begin.push_back(0);
    state->shards.push_back(std::make_unique<ShardState>(
        std::move(tensor), opts_.plan, 0, state->dims[opts_.shard_mode],
        opts_.build_fn, opts_.heat_decay));
  } else {
    const TensorPartition partition =
        sketch_policy_
            ? partition_tensor(*tensor, opts_.shard_mode, want, reg_slices)
            : partition_tensor(*tensor, opts_.shard_mode, want);
    BCSF_INFO << "TensorOpService: tensor '" << name << "' -> "
              << partition.to_string();
    // Unsplit slice ranges make partition-mode output rows private per
    // shard -- the disjoint-output serving path; a split (overlapping)
    // partition falls back to the merge path for every mode.
    if (partition.disjoint_slice_ranges()) {
      state->owned_begin = partition.owned_row_begins();
    }
    for (const TensorShard& shard : partition.shards) {
      state->route_begin.push_back(shard.slice_begin);
      state->shards.push_back(std::make_unique<ShardState>(
          shard.tensor, opts_.plan, shard.slice_begin, shard.slice_end,
          opts_.build_fn, opts_.heat_decay));
    }
  }
  for (std::size_t s = 0; s < state->shards.size(); ++s) {
    state->shards[s]->owner = state.get();  // stable: held by unique_ptr
    state->shards[s]->index = s;
  }

  WriterLock lock(tensors_mutex_);
  const bool inserted = tensors_.emplace(name, std::move(state)).second;
  BCSF_CHECK(inserted, "TensorOpService: tensor '" << name
                                                   << "' already registered");
}

bool TensorOpService::has_tensor(const std::string& name) const {
  ReaderLock lock(tensors_mutex_);
  return tensors_.count(name) > 0;
}

TensorOpService::TensorState& TensorOpService::state_for(
    const std::string& name) const {
  ReaderLock lock(tensors_mutex_);
  auto it = tensors_.find(name);
  BCSF_CHECK(it != tensors_.end(),
             "TensorOpService: unknown tensor '" << name << "'");
  return *it->second;
}

std::size_t TensorOpService::route_slice(const TensorState& state,
                                         index_t slice) const {
  // The partitioner's routing rule, verbatim: routing must never drift
  // from the slice ownership the partition established.
  return bcsf::route_slice(state.route_begin, slice);
}

std::uint64_t TensorOpService::apply_updates(const std::string& tensor,
                                             SparseTensor updates) {
  TensorState& state = state_for(tensor);
  BCSF_CHECK(updates.dims() == state.dims,
             "TensorOpService: update dims mismatch for '" << tensor << "'");

  // Delta chunks count against the storage budget the moment they are
  // frozen; compaction commits release exactly what they absorb.
  const std::size_t per_nnz = delta_bytes_per_nnz(state.order());

  if (state.shards.size() == 1) {
    ShardState& shard = *state.shards.front();
    delta_bytes_.charge(static_cast<std::size_t>(updates.nnz()) * per_nnz);
    const std::uint64_t version = shard.dynamic.apply(std::move(updates));
    // The compaction trigger also rides on queries; checking here keeps an
    // update-heavy, query-light workload from growing the delta unbounded.
    maybe_launch_compaction(shard, shard.dynamic.snapshot());
    maybe_launch_reclaim();
    return version;
  }

  // Route each nonzero to its shard by slice range (the partitioner's
  // split, one shared implementation), then apply the per-shard
  // sub-batches.  Only touched shards bump their version (and possibly
  // compact); cold shards stay exactly as they were.
  std::vector<SparseTensor> routed = split_updates(
      state.dims, state.partition_mode, state.route_begin, updates);

  std::uint64_t version_sum = 0;
  for (std::size_t s = 0; s < routed.size(); ++s) {
    ShardState& shard = *state.shards[s];
    if (routed[s].nnz() > 0) {
      delta_bytes_.charge(static_cast<std::size_t>(routed[s].nnz()) * per_nnz);
      shard.dynamic.apply(std::move(routed[s]));
      maybe_launch_compaction(shard, shard.dynamic.snapshot());
    }
    version_sum += shard.dynamic.version();
  }
  maybe_launch_reclaim();
  return version_sum;
}

std::future<ServeResponse> TensorOpService::submit(ServeRequest request) {
  std::vector<ServeRequest> batch;
  batch.push_back(std::move(request));
  return std::move(submit_batch(std::move(batch)).front());
}

std::vector<std::future<ServeResponse>> TensorOpService::submit_batch(
    std::vector<ServeRequest> batch) {
  // Validate the WHOLE batch before enqueuing anything: a bad request
  // throws synchronously and nothing was dispatched.
  std::vector<TensorState*> states;
  states.reserve(batch.size());
  for (const ServeRequest& request : batch) {
    // kStats is factor-free: it is answered from sketches, not a
    // traversal contracted against factor matrices.
    BCSF_CHECK(request.op == OpKind::kStats ||
                   (request.factors != nullptr && !request.factors->empty()),
               "TensorOpService: request has no factors");
    TensorState& state = state_for(request.tensor);
    BCSF_CHECK(request.mode < state.order(),
               "TensorOpService: mode " << request.mode
                                        << " out of range for tensor '"
                                        << request.tensor << "'");
    states.push_back(&state);
  }

  std::vector<std::future<ServeResponse>> futures(batch.size());

  // Group the batch's requests per tensor (submission order preserved
  // within each group) so a sharded tensor's group pays ONE task per
  // shard -- the batch-amortized fan-out -- instead of K tasks per
  // request.  A single-shard tensor's requests stay a group each: one
  // task per request, free to run in parallel on any worker, where one
  // task for the group would run them in sequence.
  std::vector<std::pair<TensorState*, BatchPtr>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TensorState& state = *states[i];
    if (batch[i].op == OpKind::kStats) {
      // kStats never fans out, whatever the shard count: merging the
      // shards' sketches is O(S + registers) per shard, so one task
      // answers it without touching a plan or a nonzero.  A task the
      // stopping pool refuses runs INLINE, so the future still resolves.
      auto task = std::make_shared<std::packaged_task<ServeResponse()>>(
          [this, &state, req = std::move(batch[i])] {
            return handle_stats(state, req);
          });
      futures[i] = task->get_future();
      if (!pool_.try_submit([task] { (*task)(); })) (*task)();
      continue;
    }
    auto item = std::make_unique<BatchItem>();
    item->request = std::move(batch[i]);
    futures[i] = item->promise.get_future();
    auto group = groups.end();
    if (state.shards.size() > 1) {
      group = std::find_if(groups.begin(), groups.end(),
                           [&state](const auto& g) {
                             return g.first == &state;
                           });
    }
    if (group == groups.end()) {
      groups.emplace_back(
          &state, std::make_shared<std::vector<std::unique_ptr<BatchItem>>>());
      group = std::prev(groups.end());
    }
    group->second->push_back(std::move(item));
  }
  for (auto& [state, items] : groups) dispatch(*state, items);
  return futures;
}

void TensorOpService::dispatch(TensorState& state, const BatchPtr& items) {
  const std::size_t k = state.shards.size();
  for (auto& item_ptr : *items) {
    BatchItem& item = *item_ptr;
    item.sequence = state.calls.fetch_add(1, std::memory_order_relaxed) + 1;
    item.runs.resize(k);
    item.remaining.store(k, std::memory_order_relaxed);
    OpRequest op_request;
    op_request.kind = item.request.op;
    op_request.mode = item.request.mode;
    op_request.factors = item.request.factors.get();
    op_request.lambda = item.request.lambda.get();
    item.combine.emplace(op_request, state.dims, state.partition_mode, k,
                         state.owned_begin, arena_);
  }

  // One task per (shard, batch), hinted to worker s % W: shard s's plan,
  // delta chunks, and generation state stay on one worker's cache across
  // the whole batch, and the submission cost is K total.  The hint is
  // soft -- a busy worker's queue is stealable (ThreadPool), so a slow
  // shard never serializes the batch behind it.  A lone shard has no
  // siblings to keep apart, so its task goes unhinted to any worker.
  //
  // try_submit, NOT submit: a submit racing pool shutdown used to throw
  // out of this loop, stranding every promise of the items the already-
  // submitted tasks could not finish alone (`remaining` never reached 0)
  // -- callers saw broken_promise or lost futures.  A refused task runs
  // INLINE on the submitting thread instead, so exactly K shard sweeps
  // execute no matter when the pool stops and every promise is fulfilled.
  for (std::size_t s = 0; s < k; ++s) {
    auto sweep = [this, &state, items, s] {
          for (auto& item_ptr : *items) {
            BatchItem& item = *item_ptr;
            // First task to reach the item stamps the fan-out start; the
            // stamp reaches the finisher via the `remaining` release
            // chain below.
            if (!item.started.exchange(true, std::memory_order_acq_rel)) {
              item.first_start = std::chrono::steady_clock::now();
            }
            try {
              item.runs[s] = handle_shard(state, item, s);
            } catch (...) {
              // First failing shard wins the flag and records the error
              // BEFORE its decrement below publishes it to the finisher.
              if (!item.failed.exchange(true, std::memory_order_acq_rel)) {
                item.error = std::current_exception();
              }
            }
            if (item.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              finalize_item(state, item);
            }
          }
        };
    const bool queued =
        k == 1 ? pool_.try_submit(sweep) : pool_.try_submit(sweep, s);
    if (!queued) sweep();
  }
}

void TensorOpService::finalize_item(TensorState& state, BatchItem& item) {
  try {
    if (item.failed.load(std::memory_order_acquire)) {
      item.promise.set_exception(item.error);
      return;
    }
    item.promise.set_value(reduce_item(state, item));
  } catch (...) {
    item.promise.set_exception(std::current_exception());
  }
}

ServeResponse TensorOpService::reduce_item(TensorState& state,
                                           BatchItem& item) {
  const std::size_t k = state.shards.size();
  // Measured from the FIRST shard task starting, not from dispatch:
  // dispatch-relative fan-out billed pool queue wait (every request
  // queued behind the batch inflated it), which is admission's number,
  // not the fan-out's.
  const double fanout_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - item.first_start)
          .count();

  Timer reduce_timer;
  OpResult combined = item.combine->finish();
  ServeResponse response;
  response.output = std::move(combined.output);
  response.scalar = combined.scalar;
  response.report = std::move(combined.report);
  response.sequence = item.sequence;
  response.shards = k;
  response.op = item.request.op;
  response.upgraded = true;
  for (std::size_t s = 0; s < k; ++s) {
    const ShardRun& run = item.runs[s];
    response.snapshot_version += run.snapshot_version;
    response.delta_nnz += run.delta_nnz;
    response.upgraded = response.upgraded && run.upgraded;
    if (s == 0) {
      response.served_format = run.format;
    } else if (response.served_format != run.format) {
      response.served_format = "mixed";
    }
  }
  response.plan = std::move(item.runs.front().plan);
  // A one-shard response carries its run as-is: the plan's own report,
  // reduce_path "single", and no fan-out or reduce time.
  if (k > 1) {
    response.report.kernel = "Serve x" + std::to_string(k);
    response.reduce_path = item.combine->windowed() ? "disjoint" : "merge";
    response.fanout_ms = fanout_ms;
    response.reduce_ms = reduce_timer.milliseconds();
  }
  return response;
}

std::uint64_t TensorOpService::call_count(const std::string& tensor) const {
  return state_for(tensor).calls.load(std::memory_order_relaxed);
}

std::string TensorOpService::current_format(const std::string& tensor,
                                            index_t mode) const {
  TensorState& state = state_for(tensor);
  BCSF_CHECK(mode < state.order(), "TensorOpService: mode out of range");
  std::string common;
  for (const auto& shard : state.shards) {
    GenerationPtr gen;
    {
      ReaderLock lock(shard->gen_mutex);
      gen = shard->gen;
    }
    ModeSlot& slot = gen->modes[mode];
    std::string format;
    {
      MutexLock lock(slot.m);
      format =
          slot.current ? slot.current->resolved_format() : opts_.initial_format;
    }
    if (common.empty()) {
      common = std::move(format);
    } else if (common != format) {
      return "mixed";
    }
  }
  return common;
}

bool TensorOpService::upgraded(const std::string& tensor, index_t mode) const {
  TensorState& state = state_for(tensor);
  BCSF_CHECK(mode < state.order(), "TensorOpService: mode out of range");
  for (const auto& shard : state.shards) {
    GenerationPtr gen;
    {
      ReaderLock lock(shard->gen_mutex);
      gen = shard->gen;
    }
    ModeSlot& slot = gen->modes[mode];
    MutexLock lock(slot.m);
    if (!slot.upgraded_flag) return false;
  }
  return true;
}

std::uint64_t TensorOpService::snapshot_version(
    const std::string& tensor) const {
  std::uint64_t sum = 0;
  for (const auto& shard : state_for(tensor).shards) {
    sum += shard->dynamic.version();
  }
  return sum;
}

double TensorOpService::delta_fraction(const std::string& tensor) const {
  offset_t delta = 0;
  offset_t total = 0;
  for (const auto& shard : state_for(tensor).shards) {
    const TensorSnapshot snap = shard->dynamic.snapshot();
    delta += snap.delta_nnz;
    total += snap.nnz();
  }
  return total == 0 ? 0.0
                    : static_cast<double>(delta) / static_cast<double>(total);
}

std::uint64_t TensorOpService::compaction_count(
    const std::string& tensor) const {
  std::uint64_t sum = 0;
  for (const auto& shard : state_for(tensor).shards) {
    sum += shard->compactions.load(std::memory_order_relaxed);
  }
  return sum;
}

std::vector<TensorOpService::TenantStats> TensorOpService::tenant_stats()
    const {
  std::vector<TenantStats> out;
  ReaderLock lock(tensors_mutex_);
  out.reserve(tensors_.size());
  for (const auto& [name, state] : tensors_) {
    TenantStats stats;
    stats.name = name;
    stats.calls = state->calls.load(std::memory_order_relaxed);
    stats.structured_served =
        state->structured_served.load(std::memory_order_relaxed);
    stats.coo_served = state->coo_served.load(std::memory_order_relaxed);
    stats.evictions = state->evictions.load(std::memory_order_relaxed);
    for (const auto& shard : state->shards) {
      stats.delta_bytes += shard->dynamic.delta_storage_bytes();
      const SketchScalars scalars = shard->dynamic.sketch_scalars();
      stats.sketch_nnz += static_cast<std::uint64_t>(scalars.nnz);
      stats.norm_sq += scalars.norm_sq();
      GenerationPtr gen;
      {
        ReaderLock gen_lock(shard->gen_mutex);
        gen = shard->gen;
      }
      for (ModeSlot& slot : gen->modes) {
        MutexLock slot_lock(slot.m);
        stats.plan_bytes += slot.charged_bytes;
      }
    }
    out.push_back(std::move(stats));
  }
  return out;
}

TensorSnapshot TensorOpService::snapshot(const std::string& tensor) const {
  TensorState& state = state_for(tensor);
  BCSF_CHECK(state.shards.size() == 1,
             "TensorOpService: tensor '"
                 << tensor << "' is sharded " << state.shards.size()
                 << " ways; use shard_snapshot(name, shard)");
  return state.shards.front()->dynamic.snapshot();
}

std::size_t TensorOpService::shard_count(const std::string& tensor) const {
  return state_for(tensor).shards.size();
}

TensorSnapshot TensorOpService::shard_snapshot(const std::string& tensor,
                                               std::size_t shard) const {
  TensorState& state = state_for(tensor);
  BCSF_CHECK(shard < state.shards.size(),
             "TensorOpService: shard " << shard << " out of range for '"
                                       << tensor << "'");
  return state.shards[shard]->dynamic.snapshot();
}

std::vector<TensorOpService::ShardStatus> TensorOpService::shard_status(
    const std::string& tensor, index_t mode) const {
  TensorState& state = state_for(tensor);
  BCSF_CHECK(mode < state.order(), "TensorOpService: mode out of range");
  std::vector<ShardStatus> out;
  out.reserve(state.shards.size());
  for (const auto& shard : state.shards) {
    GenerationPtr gen;
    {
      ReaderLock lock(shard->gen_mutex);
      gen = shard->gen;
    }
    const TensorSnapshot snap = shard->dynamic.snapshot();
    ShardStatus status;
    status.slice_begin = shard->slice_begin;
    status.slice_end = shard->slice_end;
    status.base_nnz = snap.base->nnz();
    status.delta_nnz = snap.delta_nnz;
    status.snapshot_version = snap.version;
    status.compactions = shard->compactions.load(std::memory_order_relaxed);
    status.build_seconds = gen->cache.total_build_seconds();
    ModeSlot& slot = gen->modes[mode];
    MutexLock lock(slot.m);
    status.format =
        slot.current ? slot.current->resolved_format() : opts_.initial_format;
    status.upgraded = slot.upgraded_flag;
    out.push_back(std::move(status));
  }
  return out;
}

std::size_t TensorOpService::shard_for_slice(const std::string& tensor,
                                             index_t slice) const {
  return route_slice(state_for(tensor), slice);
}

TensorOpService::ShardRun TensorOpService::handle_shard(TensorState& state,
                                                       BatchItem& item,
                                                       std::size_t s) {
  ShardState& shard = *state.shards[s];
  const ServeRequest& request = item.request;
  // Capture (generation, snapshot) consistently: the shared lock pairs a
  // base's plans with exactly the delta chunks the base does NOT contain.
  // Everything after this block works on immutable state, so the query
  // races nothing.
  GenerationPtr gen;
  TensorSnapshot snap;
  {
    ReaderLock lock(shard.gen_mutex);
    gen = shard.gen;
    snap = shard.dynamic.snapshot();
  }

  ModeSlot& slot = gen->modes[request.mode];
  slot.mode_calls.fetch_add(1, std::memory_order_relaxed);
  slot.op_calls[static_cast<std::size_t>(request.op)].fetch_add(
      1, std::memory_order_relaxed);
  // One tick of the service-wide heat clock per shard-handled request;
  // the generation's heat counter drives budget-eviction order.
  const std::uint64_t now =
      tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  gen->cache.note_call(request.mode, now);

  SharedPlan plan;
  bool was_upgraded = false;
  {
    MutexLock lock(slot.m);
    plan = slot.current;
    was_upgraded = slot.upgraded_flag;
  }
  if (!plan) {
    // First touch of this mode in this generation -- or first touch
    // after a budget eviction uninstalled the structured plan: the
    // COO-family plan is build-free, so the request still answers
    // immediately (single-flight dedupes racers).
    SharedPlan initial = gen->cache.get(opts_.initial_format, request.mode);
    MutexLock lock(slot.m);
    if (!slot.current) slot.current = std::move(initial);
    plan = slot.current;
    was_upgraded = slot.upgraded_flag;
  }
  (was_upgraded ? state.structured_served : state.coo_served)
      .fetch_add(1, std::memory_order_relaxed);

  if (opts_.enable_upgrade && !was_upgraded) {
    maybe_launch_upgrade(shard, gen, request.mode);
  }

  // Base contribution through the plan (the op protocol dispatches TTV
  // and FIT onto the same traversal the structured build balanced), plus
  // the per-op delta sweep: every op is linear in the tensor values, so
  // the frozen COO chunks' contribution on top of the base plan's result
  // yields the op on the shard's merged tensor.  Chunks are immutable;
  // no lock is held.
  ShardCombine& combine = *item.combine;
  combine.add(s, plan->execute(combine.request()), snap.deltas);

  maybe_launch_compaction(shard, snap);

  ShardRun out;
  out.format = plan->resolved_format();
  out.plan = std::move(plan);
  out.upgraded = was_upgraded;
  out.snapshot_version = snap.version;
  out.delta_nnz = snap.delta_nnz;
  return out;
}

ServeResponse TensorOpService::handle_stats(TensorState& state,
                                            const ServeRequest& request) {
  const std::uint64_t sequence =
      state.calls.fetch_add(1, std::memory_order_relaxed) + 1;

  // Fold the shards' sketches: the shards partition the nonzeros and
  // sketch merge is exact on every integer structural field, so the
  // merged sketch matches a whole-tensor sketch bit for bit.  Each
  // shard's base/delta norm cross-term bound adds, so the summed bound
  // covers the merged estimate too.
  TensorSketch merged(state.dims);
  double norm_err = 0.0;
  offset_t delta_nnz = 0;
  std::uint64_t version_sum = 0;
  for (const auto& shard : state.shards) {
    merged.merge(shard->dynamic.sketch());
    norm_err += shard->dynamic.sketch_scalars().norm_sq_error_bound();
    delta_nnz += shard->dynamic.delta_nnz();
    version_sum += shard->dynamic.version();
  }

  const index_t order = state.order();
  DenseMatrix out(order + 1, 8);
  for (index_t m = 0; m < order; ++m) {
    const ModeStats stats = merged.approx_mode_stats(m);
    const auto row = out.row(m);
    row[0] = static_cast<value_t>(stats.nnz);
    row[1] = static_cast<value_t>(stats.num_slices);
    row[2] = static_cast<value_t>(stats.num_fibers);
    row[3] = static_cast<value_t>(stats.singleton_slice_fraction);
    row[4] = static_cast<value_t>(stats.csl_slice_fraction);
    row[5] = static_cast<value_t>(stats.nnz_per_slice.mean);
    row[6] = static_cast<value_t>(stats.nnz_per_slice.stddev);
    row[7] = static_cast<value_t>(merged.mode(m).max_slice_nnz());
  }
  const auto tail = out.row(order);
  tail[0] = static_cast<value_t>(merged.norm_sq());
  tail[1] = static_cast<value_t>(norm_err);
  tail[2] = static_cast<value_t>(delta_nnz);
  tail[3] = static_cast<value_t>(
      merged.nnz() >= delta_nnz ? merged.nnz() - delta_nnz : offset_t{0});

  ServeResponse response;
  response.output = std::move(out);
  response.scalar = merged.norm_sq();
  response.served_format = "sketch";
  response.sequence = sequence;
  response.shards = state.shards.size();
  response.op = request.op;
  response.snapshot_version = version_sum;
  response.delta_nnz = delta_nnz;
  return response;
}

std::pair<std::string, double> TensorOpService::resolve_upgrade_policy(
    const ShardState& shard, const Generation& gen, index_t mode) const {
  const auto t0 = std::chrono::steady_clock::now();
  std::string target = opts_.upgrade_format;
  double threshold = opts_.upgrade_threshold;
  if (target == "auto" || threshold <= 0.0) {
    AutoPolicyOptions policy;
    // The policy's expected-calls gate answers "will enough calls ever
    // arrive?" from a static guess.  The service KNOWS: it counts real
    // traffic and launches exactly at break-even, so the gate must not
    // veto the target -- only an infinite break-even (structure yields
    // no per-call gain) or coo-dominant slice binning disables upgrade.
    // Mixed-op traffic is priced at the MTTKRP rate: full-rank calls
    // dominate the gain, and the built structure serves every op anyway.
    // Running on a SHARD's base, the saturation term sees the shard's
    // own nnz: undersized shards price an infinite break-even and stay
    // COO -- per-shard format choice, the §8 point.
    policy.expected_mttkrp_calls = std::numeric_limits<double>::infinity();
    // Sketch path (DESIGN.md §12): the §V bins come from the shard's
    // streaming base sketch -- O(S) reads, no nonzero touched.  If a
    // compaction retired `gen` between capture and here, the sketch
    // describes the NEWER base; the decision lands in the retired
    // generation's slot, which the fresh generation's own resolution
    // supersedes anyway.  The test-only exact path scans the
    // generation's base (the oracle the parity tests compare against).
    const AutoDecision decision =
        sketch_policy_
            ? auto_select_format(shard.dynamic.base_sketch(), mode, policy)
            : auto_select_format(*gen.cache.tensor(), mode, policy);
    if (target == "auto") target = decision.format;
    if (threshold <= 0.0) {
      threshold = std::isfinite(decision.breakeven_calls)
                      ? std::max(1.0, std::ceil(decision.breakeven_calls))
                      : std::numeric_limits<double>::infinity();
    }
  }
  // Upgrading to a zero-preprocessing format is a no-op: stay as served.
  if (is_coo_family(target)) target.clear();
  policy_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  policy_resolutions_.fetch_add(1, std::memory_order_relaxed);
  return {std::move(target), threshold};
}

void TensorOpService::maybe_launch_upgrade(ShardState& shard,
                                           const GenerationPtr& gen,
                                           index_t mode) {
  ModeSlot& slot = gen->modes[mode];
  if (slot.upgrade_launched.load(std::memory_order_acquire)) return;

  std::string target;
  double threshold = 0.0;
  bool resolved;
  {
    MutexLock lock(slot.m);
    resolved = slot.policy_resolved;
    if (resolved) {
      target = slot.target_format;
      threshold = slot.threshold;
    }
  }
  if (!resolved) {
    // The policy scan is O(shard nnz), so it runs with NO lock held:
    // requests for this mode keep serving meanwhile.  Concurrent
    // resolvers compute the same answer; first publish wins.  After a
    // compaction this runs afresh on the NEW base -- the merged
    // structure may bin differently.
    auto [fresh_target, fresh_threshold] =
        resolve_upgrade_policy(shard, *gen, mode);
    MutexLock lock(slot.m);
    if (!slot.policy_resolved) {
      slot.target_format = std::move(fresh_target);
      slot.threshold = fresh_threshold;
      slot.policy_resolved = true;
    }
    target = slot.target_format;
    threshold = slot.threshold;
  }

  if (target.empty()) {
    // Nothing to upgrade to; pin the flag so later calls return fast.
    slot.upgrade_launched.store(true, std::memory_order_release);
    return;
  }
  // Gain-weighted traffic vs the break-even threshold: MTTKRP and FIT
  // calls recoup the build at the full-rank rate, a rank-1 TTV call at
  // ~1/R of it -- so TTV-dominated modes launch the sort-dominated
  // build only once the discounted traffic actually pays for it (the
  // op-aware §3 economics applied to OBSERVED calls).
  const double effective_calls =
      static_cast<double>(slot.op_calls[static_cast<std::size_t>(
                                            OpKind::kMttkrp)]
                              .load(std::memory_order_relaxed)) +
      static_cast<double>(
          slot.op_calls[static_cast<std::size_t>(OpKind::kFit)].load(
              std::memory_order_relaxed)) +
      static_cast<double>(
          slot.op_calls[static_cast<std::size_t>(OpKind::kTtv)].load(
              std::memory_order_relaxed)) *
          AutoPolicyOptions{}.ttv_gain_fraction;
  if (effective_calls < threshold) return;
  if (slot.upgrade_launched.exchange(true, std::memory_order_acq_rel)) return;

  // The job holds the generation alive; if a compaction retires it
  // mid-build, run_upgrade detects the swap and releases its charge.
  // Builds are queued per TENANT through the fair scheduler: each shard
  // still gets its own build (K structured builds of nnz/K each overlap
  // up to max_concurrent_upgrades), but a whale tensor queueing dozens
  // of shard builds alternates with other tenants instead of
  // monopolizing the pool.  An abandoned job (pool shutdown) re-arms so
  // the state machine stays honest.
  FairScheduler::Job job;
  job.run = [this, &shard, gen, mode, target] {
    run_upgrade(shard, gen, mode, target);
  };
  job.abandon = [gen, mode] {
    gen->modes[mode].upgrade_launched.store(false, std::memory_order_release);
  };
  scheduler_.enqueue(shard.owner != nullptr ? shard.owner->name : "",
                     std::move(job));
}

void TensorOpService::run_upgrade(ShardState& shard, GenerationPtr gen,
                                  index_t mode, std::string target) {
  ModeSlot& slot = gen->modes[mode];
  try {
    // Break-even crossed: pay the structured build off the request
    // path.  Single-flight in the cache dedupes against anyone else.
    SharedPlan structured = gen->cache.get(target, mode);
    const std::size_t bytes = structured->storage_bytes();
    const double incoming =
        gen->cache.heat(mode, tick_.load(std::memory_order_relaxed));
    if (!admit_plan_bytes(bytes, incoming)) {
      // The budget cannot make room among strictly-colder plans: drop
      // the freshly built plan and make this mode RE-EARN the threshold
      // (op_calls zeroed before re-arming), so a tenant colder than the
      // resident set cannot thrash build/evict cycles.
      gen->cache.evict(target, mode);
      for (auto& count : slot.op_calls) {
        count.store(0, std::memory_order_relaxed);
      }
      upgrade_rejects_.fetch_add(1, std::memory_order_relaxed);
      BCSF_INFO << "TensorOpService: budget rejected " << bytes
                << "-byte '" << target << "' plan for tenant '"
                << (shard.owner != nullptr ? shard.owner->name : "?")
                << "' mode " << mode;
      slot.upgrade_launched.store(false, std::memory_order_release);
      return;
    }
    {
      MutexLock lock(slot.m);
      slot.current = std::move(structured);  // in-flight runs keep the old
                                             // plan alive via SharedPlan
      slot.upgraded_flag = true;
      slot.charged_bytes = bytes;
    }
    // A compaction may have retired this generation between the charge
    // and the install; its retirement sweep could then have run before
    // our charged_bytes was visible.  Re-check and release ourselves --
    // check-and-clear under slot.m keeps this single-shot either way.
    bool retired;
    {
      ReaderLock lock(shard.gen_mutex);
      retired = shard.gen != gen;
    }
    if (retired) budget_.release(release_slot_charge(gen, mode));
    maybe_launch_reclaim();
  } catch (...) {
    // Build failed; re-arm so a later request retries the upgrade.
    slot.upgrade_launched.store(false, std::memory_order_release);
  }
}

bool TensorOpService::admit_plan_bytes(std::size_t bytes,
                                       double incoming_heat) {
  if (budget_.unlimited()) {
    budget_.charge(bytes);
    return true;
  }
  MutexLock lock(reclaim_mutex_);
  if (budget_.resident() + bytes <= budget_.budget()) {
    budget_.charge(bytes);
    return true;
  }
  if (bytes > budget_.budget()) return false;  // can never fit
  for (const EvictionCandidate& candidate : collect_candidates()) {
    if (budget_.resident() + bytes <= budget_.budget()) break;
    // Evict strictly-colder plans only: displacing a hotter resident
    // for a colder newcomer would invert the policy.
    if (candidate.heat >= incoming_heat) break;
    evict_candidate(candidate);
  }
  if (budget_.resident() + bytes <= budget_.budget()) {
    budget_.charge(bytes);
    return true;
  }
  return false;
}

std::vector<TensorOpService::EvictionCandidate>
TensorOpService::collect_candidates() const {
  std::vector<EvictionCandidate> out;
  const std::uint64_t now = tick_.load(std::memory_order_relaxed);
  ReaderLock lock(tensors_mutex_);
  for (const auto& [name, state] : tensors_) {
    for (std::size_t s = 0; s < state->shards.size(); ++s) {
      ShardState& shard = *state->shards[s];
      GenerationPtr gen;
      {
        ReaderLock gen_lock(shard.gen_mutex);
        gen = shard.gen;
      }
      for (index_t m = 0; m < static_cast<index_t>(gen->modes.size()); ++m) {
        ModeSlot& slot = gen->modes[m];
        bool charged;
        {
          MutexLock slot_lock(slot.m);
          charged = slot.upgraded_flag && slot.charged_bytes > 0;
        }
        if (charged) {
          out.push_back({gen->cache.heat(m, now), name, s, m, gen,
                         state.get()});
        }
      }
    }
  }
  // Coldest first, with a total deterministic tiebreak so the
  // eviction-oracle test can predict the order exactly.
  std::sort(out.begin(), out.end(),
            [](const EvictionCandidate& a, const EvictionCandidate& b) {
              return std::tie(a.heat, a.tensor, a.shard, a.mode) <
                     std::tie(b.heat, b.tensor, b.shard, b.mode);
            });
  return out;
}

std::size_t TensorOpService::release_slot_charge(const GenerationPtr& gen,
                                                 index_t mode) {
  ModeSlot& slot = gen->modes[mode];
  MutexLock lock(slot.m);
  const std::size_t bytes = slot.charged_bytes;
  slot.charged_bytes = 0;
  return bytes;
}

std::size_t TensorOpService::evict_candidate(
    const EvictionCandidate& candidate) {
  ModeSlot& slot = candidate.gen->modes[candidate.mode];
  std::size_t bytes = 0;
  std::string format;
  {
    MutexLock lock(slot.m);
    if (!slot.upgraded_flag || slot.charged_bytes == 0) return 0;
    bytes = slot.charged_bytes;
    slot.charged_bytes = 0;
    format = slot.target_format;  // always concrete once installed
    // Uninstall: the next request lazily re-acquires the COO fallback
    // (handle_shard's !plan path); in-flight runs keep the evicted plan
    // alive via their SharedPlan until they finish.
    slot.current.reset();
    slot.upgraded_flag = false;
  }
  candidate.gen->cache.evict(format, candidate.mode);
  // Re-earn the threshold before rebuilding: zero the traffic counters
  // FIRST, then re-arm the launch flag, so a racing request cannot
  // relaunch off the stale counts.
  for (auto& count : slot.op_calls) count.store(0, std::memory_order_relaxed);
  slot.upgrade_launched.store(false, std::memory_order_release);
  budget_.release(bytes);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  if (candidate.state != nullptr) {
    candidate.state->evictions.fetch_add(1, std::memory_order_relaxed);
  }
  BCSF_INFO << "TensorOpService: evicted " << bytes << "-byte '" << format
            << "' plan (tenant '" << candidate.tensor << "' shard "
            << candidate.shard << " mode " << candidate.mode << ", heat "
            << candidate.heat << ")";
  return bytes;
}

void TensorOpService::maybe_launch_reclaim() {
  if (budget_.unlimited()) return;
  if (budget_.resident() + delta_bytes_.resident() <= budget_.budget()) {
    return;
  }
  if (reclaiming_.exchange(true, std::memory_order_acq_rel)) return;
  if (!pool_.try_submit([this] { run_reclaim(); })) {
    reclaiming_.store(false, std::memory_order_release);
  }
}

void TensorOpService::run_reclaim() {
  try {
    const auto total = [this] {
      return budget_.resident() + delta_bytes_.resident();
    };
    // Pass 1: drop the coldest structured plans while the fleet total
    // (plans + delta) is over budget.
    {
      MutexLock lock(reclaim_mutex_);
      for (const EvictionCandidate& candidate : collect_candidates()) {
        if (total() <= budget_.budget()) break;
        evict_candidate(candidate);
      }
    }
    // Pass 2: still over -- the delta chunks themselves are the weight.
    // Force-compact delta-carrying shards coldest-tensor-first; each
    // commit absorbs the shard's chunks into a fresh base and releases
    // their bytes.
    if (total() > budget_.budget()) {
      struct Target {
        double heat = 0.0;
        std::string tensor;
        std::size_t index = 0;
        ShardState* shard = nullptr;
      };
      std::vector<Target> targets;
      const std::uint64_t now = tick_.load(std::memory_order_relaxed);
      {
        ReaderLock lock(tensors_mutex_);
        for (const auto& [name, state] : tensors_) {
          for (std::size_t s = 0; s < state->shards.size(); ++s) {
            ShardState& shard = *state->shards[s];
            if (shard.dynamic.delta_nnz() == 0) continue;
            GenerationPtr gen;
            {
              ReaderLock gen_lock(shard.gen_mutex);
              gen = shard.gen;
            }
            double heat = 0.0;
            for (index_t m = 0; m < static_cast<index_t>(gen->modes.size());
                 ++m) {
              heat += gen->cache.heat(m, now);
            }
            targets.push_back({heat, name, s, &shard});
          }
        }
      }
      std::sort(targets.begin(), targets.end(),
                [](const Target& a, const Target& b) {
                  return std::tie(a.heat, a.tensor, a.index) <
                         std::tie(b.heat, b.tensor, b.index);
                });
      for (const Target& target : targets) {
        if (total() <= budget_.budget()) break;
        if (target.shard->compacting.exchange(true,
                                              std::memory_order_acq_rel)) {
          continue;  // a normal compaction is already running here
        }
        run_compaction(*target.shard, /*force=*/true);
      }
    }
  } catch (...) {
    // Reclaim is best-effort; a failed sweep re-triggers on later
    // updates.
  }
  reclaiming_.store(false, std::memory_order_release);
}

void TensorOpService::maybe_launch_compaction(ShardState& shard,
                                              const TensorSnapshot& snap) {
  if (!opts_.enable_compaction || opts_.compact_threshold <= 0.0) return;
  if (snap.delta_nnz < opts_.compact_min_nnz) return;
  if (snap.delta_fraction() < opts_.compact_threshold) return;
  if (shard.compacting.exchange(true, std::memory_order_acq_rel)) return;
  const bool queued =
      pool_.try_submit([this, &shard] { run_compaction(shard); });
  if (!queued) shard.compacting.store(false, std::memory_order_release);
}

void TensorOpService::run_compaction(ShardState& shard, bool force) {
  try {
    // Capture and merge OFF the commit path: queries keep serving from
    // the current generation while the O(shard nnz log nnz) coalesce
    // runs -- and only THIS shard is merged, never the whole tensor
    // (the incremental-compaction point of §8).  Re-validate the
    // trigger against a FRESH snapshot: the launcher may have held a
    // stale one (captured before a just-committed compaction), and
    // merging a sub-threshold delta is wasted work.  A FORCED compaction
    // (budget reclaim) skips the threshold economics -- any delta at all
    // is weight worth dropping -- but still needs delta to absorb.
    const TensorSnapshot snap = shard.dynamic.snapshot();
    const bool due = force ? snap.delta_nnz > 0
                           : snap.delta_nnz >= opts_.compact_min_nnz &&
                                 snap.delta_fraction() >=
                                     opts_.compact_threshold;
    if (due) {
      TensorPtr new_base = share_tensor(snap.merged(/*coalesce=*/true));
      // The merged base's sketch is built HERE, off the commit path
      // (DESIGN.md §12): the writer critical section below then stays
      // O(retained chunks), and the post-commit format re-decision
      // reads this same sketch for free.
      TensorSketch new_base_sketch = TensorSketch::build(*new_base);
      GenerationPtr old_gen;
      GenerationPtr new_gen;
      {
        // Commit: swap the base and the plan generation as one atomic
        // step against the queries' shared-lock capture.  Chunks applied
        // since `snap` stay in the delta, now on top of the new base.
        WriterLock lock(shard.gen_mutex);
        const std::uint64_t new_version = shard.dynamic.replace_base(
            new_base, snap.version, std::move(new_base_sketch));
        new_gen = std::make_shared<Generation>(std::move(new_base),
                                               opts_.plan, new_version,
                                               opts_.build_fn,
                                               opts_.heat_decay);
        old_gen = std::move(shard.gen);
        const std::uint64_t now = tick_.load(std::memory_order_relaxed);
        for (std::size_t m = 0; m < new_gen->modes.size(); ++m) {
          // Carry traffic counters (total and per-op): a hot mode
          // re-launches its structured build (and re-runs the §V policy
          // on the merged base) on the first post-compaction request
          // instead of re-earning the threshold from zero.
          new_gen->modes[m].mode_calls.store(
              old_gen->modes[m].mode_calls.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
          for (std::size_t op = 0; op < old_gen->modes[m].op_calls.size();
               ++op) {
            new_gen->modes[m].op_calls[op].store(
                old_gen->modes[m].op_calls[op].load(
                    std::memory_order_relaxed),
                std::memory_order_relaxed);
          }
          // Carry heat too: eviction order must reflect the mode's
          // traffic history, not reset because the base was merged.
          const index_t mode = static_cast<index_t>(m);
          new_gen->cache.set_heat(mode, old_gen->cache.heat(mode, now), now);
        }
        shard.gen = new_gen;  // new_gen stays live for the re-decision below
      }
      shard.compactions.fetch_add(1, std::memory_order_relaxed);
      // Retire the old generation's budget footprint: release each
      // installed plan's charge (check-and-clear under slot.m -- a
      // racing evictor or a late-installing upgrade can only release
      // once) and the delta bytes this commit absorbed into the base.
      std::size_t released = 0;
      for (std::size_t m = 0; m < old_gen->modes.size(); ++m) {
        released +=
            release_slot_charge(old_gen, static_cast<index_t>(m));
      }
      if (released > 0) budget_.release(released);
      delta_bytes_.release(snap.delta_storage_bytes());
      // Re-decision for free on every replace_base (DESIGN.md §12): the
      // merged base's sketch is already installed, so the §V policy
      // re-runs per mode at O(S), pre-resolving the fresh generation's
      // slots -- and a mode whose CARRIED traffic already clears its new
      // threshold relaunches its structured build now, instead of
      // waiting for the next request to notice.
      if (sketch_policy_ && opts_.enable_upgrade) {
        for (std::size_t m = 0; m < new_gen->modes.size(); ++m) {
          const index_t mode = static_cast<index_t>(m);
          auto [target, threshold] =
              resolve_upgrade_policy(shard, *new_gen, mode);
          {
            ModeSlot& slot = new_gen->modes[m];
            MutexLock slot_lock(slot.m);
            if (!slot.policy_resolved) {
              slot.target_format = std::move(target);
              slot.threshold = threshold;
              slot.policy_resolved = true;
            }
          }
          maybe_launch_upgrade(shard, new_gen, mode);
        }
      }
    }
    shard.compacting.store(false, std::memory_order_release);
  } catch (...) {
    // Merge failed (e.g. allocation); re-arm so a later trigger retries.
    shard.compacting.store(false, std::memory_order_release);
  }
}

}  // namespace bcsf
