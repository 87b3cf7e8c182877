// Streaming structural sketches (DESIGN.md §12).  All hashing is seeded
// with fixed compile-time constants -- deterministic across runs, replay
// and shards -- and every structural counter is integer-valued, so merges
// are bitwise-exact in any association.
#include "tensor/sketch.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "util/error.hpp"

namespace bcsf {

namespace {

// Fixed hash seeds (arbitrary odd constants; never derived from time or
// any runtime entropy source).
constexpr std::uint64_t kFiberSeed = 0x9ae16a3b2f90404fULL;
constexpr std::uint64_t kAmsSeed = 0x517cc1b727220a95ULL;

/// 2^-r for every value an HLL register can hold (0..64): exact doubles,
/// the values std::ldexp(1.0, -r) returns.
constexpr std::array<double, 65> kPow2Neg = [] {
  std::array<double, 65> table{};
  double v = 1.0;
  for (double& x : table) {
    x = v;
    v *= 0.5;
  }
  return table;
}();

/// Byte j of kByteBits[b] is bit j of b: adding kByteBits[b] to a word
/// bumps eight per-bit counters at once, one per byte lane.
constexpr std::array<std::uint64_t, 256> kByteBits = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    for (unsigned j = 0; j < 8; ++j) {
      table[b] |= static_cast<std::uint64_t>((b >> j) & 1U) << (8 * j);
    }
  }
  return table;
}();

std::atomic<std::uint64_t> g_sketch_ingested{0};

}  // namespace

std::uint64_t sketch_ingest_count() {
  return g_sketch_ingested.load(std::memory_order_relaxed);
}

// --- SliceHistogram ---------------------------------------------------

void SliceHistogram::reserve_dense() {
  if (dense() && dense_.empty()) dense_.assign(extent_, 0);
}

void SliceHistogram::cover(index_t lo, index_t hi) {
  if (nnz_ == 0) {
    min_slice_ = lo;
    max_slice_ = hi;
  } else {
    min_slice_ = std::min(min_slice_, lo);
    max_slice_ = std::max(max_slice_, hi);
  }
}

void SliceHistogram::add(index_t slice) { add_column({&slice, 1}); }

void SliceHistogram::add_column(std::span<const index_t> slices) {
  if (slices.empty()) return;
  const auto [lo, hi] = std::minmax_element(slices.begin(), slices.end());
  BCSF_CHECK(*hi < extent_, "SliceHistogram: slice " << *hi
                                << " outside extent " << extent_);
  g_sketch_ingested.fetch_add(slices.size(), std::memory_order_relaxed);
  cover(*lo, *hi);
  nnz_ += slices.size();
  Totals totals = totals_;
  if (dense()) {
    reserve_dense();
    offset_t* counts = dense_.data();
    for (const index_t s : slices) totals.count(counts[s]++);
  } else {
    for (const index_t s : slices) totals.count(hashed_[s]++);
  }
  totals_ = totals;
}

void SliceHistogram::merge(const SliceHistogram& other) {
  BCSF_CHECK(extent_ == other.extent_,
             "SliceHistogram::merge: extents " << extent_ << " and "
                                               << other.extent_ << " differ");
  if (other.nnz_ == 0) return;
  cover(other.min_slice_, other.max_slice_);
  nnz_ += other.nnz_;
  // Exact counter sums with O(overlap) scalar fixups.
  Totals totals = totals_;
  totals.slices += other.totals_.slices;
  totals.singletons += other.totals_.singletons;
  totals.sum_sq += other.totals_.sum_sq;
  totals.max_slice = std::max(totals.max_slice, other.totals_.max_slice);
  reserve_dense();
  const auto fold = [&](index_t slice, offset_t c2) {
    offset_t& c = dense() ? dense_[slice] : hashed_[slice];
    const offset_t c1 = c;
    c = c1 + c2;
    if (c1 == 0) return;
    // An overlapping slice counts once, and cannot stay a singleton;
    // remove whatever each side counted for it.
    --totals.slices;
    totals.sum_sq += 2 * static_cast<std::uint64_t>(c1) * c2;
    if (c1 == 1) --totals.singletons;
    if (c2 == 1) --totals.singletons;
    totals.max_slice = std::max(totals.max_slice, c);
  };
  if (other.dense()) {
    for (index_t s = 0; s < extent_; ++s) {
      if (other.dense_[s] != 0) fold(s, other.dense_[s]);
    }
  } else {
    for (const auto& [slice, c2] : other.hashed_) fold(slice, c2);
  }
  totals_ = totals;
}

std::vector<SliceMass> SliceHistogram::slice_cdf() const {
  std::vector<SliceMass> cdf;
  cdf.reserve(static_cast<std::size_t>(totals_.slices));
  if (dense()) {
    for (index_t s = 0; s < dense_.size(); ++s) {
      if (dense_[s] != 0) cdf.push_back({s, dense_[s]});
    }
    return cdf;
  }
  for (const auto& [slice, count] : hashed_) cdf.push_back({slice, count});
  std::sort(cdf.begin(), cdf.end(),
            [](const SliceMass& a, const SliceMass& b) { return a.slice < b.slice; });
  return cdf;
}

// --- ModeSketch -------------------------------------------------------

ModeSketch::ModeSketch(index_t mode, std::span<const index_t> dims)
    : mode_(mode) {
  const index_t order = static_cast<index_t>(dims.size());
  BCSF_CHECK(mode < order, "ModeSketch: mode " << mode << " out of range for order "
                                               << order);
  const ModeOrder mode_order = mode_order_for(mode, order);
  // A fiber is identified by every coordinate except the leaf mode's.
  fiber_modes_.assign(mode_order.begin(), mode_order.end() - 1);
  slices_ = SliceHistogram(dims[mode]);
  hll_regs_.assign(kHllRegisters, 0);
  hll_inv_sum_ = static_cast<double>(kHllRegisters);  // all registers at 0
  hll_zero_regs_ = static_cast<std::uint32_t>(kHllRegisters);
  ams_.assign(kAmsCounters, 0);
}

ModeSketch ModeSketch::build(index_t mode, const SparseTensor& tensor) {
  ModeSketch sketch(mode, tensor.dims());
  sketch.add_tensor(tensor);
  sketch.exact_fibers_ = sketch.count_fibers(tensor);
  sketch.fiber_exact_ = true;
  return sketch;
}

std::uint64_t ModeSketch::fiber_hash(std::span<const index_t> coords) const {
  std::uint64_t h = kFiberSeed ^ mode_;
  for (index_t m : fiber_modes_) h = sketch_mix64(h ^ coords[m]);
  return h;
}

template <typename HashOf>
void ModeSketch::observe_fibers(offset_t n, HashOf hash_of) {
  // Locals rather than members in the loop: the register stores below
  // would otherwise force a reload of each member per nonzero.
  std::uint8_t* regs = hll_regs_.data();
  double inv_sum = hll_inv_sum_;
  std::uint32_t zero_regs = hll_zero_regs_;
  // AMS sign bits are counted in byte lanes (8 counters per word, one
  // word per 8 bits) and flushed before a lane can overflow; each counter
  // then moves by (ones - zeros), the sum of its +/-1 steps.
  constexpr std::size_t kWords = kAmsCounters / 8;
  constexpr unsigned kLaneMax = 255;
  std::array<std::uint64_t, kWords> lanes{};
  std::array<std::int64_t, kAmsCounters> ones{};
  const auto flush = [&] {
    for (std::size_t w = 0; w < kWords; ++w) {
      for (std::size_t j = 0; j < 8; ++j) {
        ones[8 * w + j] += static_cast<std::int64_t>((lanes[w] >> (8 * j)) & 0xFF);
      }
      lanes[w] = 0;
    }
  };
  unsigned pending = 0;
  for (offset_t z = 0; z < n; ++z) {
    const std::uint64_t h = hash_of(z);
    // HyperLogLog: the top bits pick the register, the leading zeros of
    // the rest (capped by the |1) give the rank.
    const std::size_t idx = static_cast<std::size_t>(h >> (64 - kHllPrecision));
    const std::uint8_t rho = static_cast<std::uint8_t>(
        std::countl_zero((h << kHllPrecision) | 1ULL) + 1);
    const std::uint8_t reg = regs[idx];
    if (rho > reg) {
      inv_sum += kPow2Neg[rho] - kPow2Neg[reg];
      zero_regs -= reg == 0;
      regs[idx] = rho;
    }
    const std::uint64_t bits = sketch_mix64(h ^ kAmsSeed);
    for (std::size_t w = 0; w < kWords; ++w) {
      lanes[w] += kByteBits[(bits >> (8 * w)) & 0xFF];
    }
    if (++pending == kLaneMax) {
      flush();
      pending = 0;
    }
  }
  flush();
  hll_inv_sum_ = inv_sum;
  hll_zero_regs_ = zero_regs;
  const auto total = static_cast<std::int64_t>(n);
  for (std::size_t i = 0; i < kAmsCounters; ++i) ams_[i] += 2 * ones[i] - total;
}

void ModeSketch::add(std::span<const index_t> coords) {
  BCSF_ASSERT(!hll_regs_.empty(), "ModeSketch::add on default-constructed sketch");
  // A lone add cannot know whether this fiber was seen before; the exact
  // count lapses until a one-shot build re-establishes it.
  fiber_exact_ = false;
  slices_.add(coords[mode_]);
  const std::uint64_t h = fiber_hash(coords);
  observe_fibers(1, [h](offset_t) { return h; });
}

void ModeSketch::add_tensor(const SparseTensor& tensor) {
  BCSF_ASSERT(!hll_regs_.empty(),
              "ModeSketch::add_tensor on default-constructed sketch");
  BCSF_CHECK(tensor.order() == fiber_modes_.size() + 1 &&
                 tensor.dim(mode_) == slices_.extent(),
             "ModeSketch::add_tensor: tensor " << tensor.shape_string()
                                               << " does not fit mode " << mode_);
  if (tensor.nnz() == 0) return;
  fiber_exact_ = false;
  slices_.add_column(tensor.mode_indices(mode_));
  // fiber_hash over the coordinate columns.
  std::vector<const index_t*> columns;
  for (index_t m : fiber_modes_) columns.push_back(tensor.mode_indices(m).data());
  const std::uint64_t seed = kFiberSeed ^ mode_;
  observe_fibers(tensor.nnz(), [&](offset_t z) {
    std::uint64_t h = seed;
    for (const index_t* column : columns) h = sketch_mix64(h ^ column[z]);
    return h;
  });
}

offset_t ModeSketch::count_fibers(const SparseTensor& tensor) const {
  const offset_t n = tensor.nnz();
  if (n == 0) return 0;
  // A fiber's key is its fiber-mode coordinates in mixed radix; the key
  // space gets a bitmap when it is small next to the nonzero count.
  const std::uint64_t limit = kFiberBitmapKeysPerNnz * n;
  std::uint64_t keys = 1;
  for (index_t m : fiber_modes_) {
    const std::uint64_t extent = tensor.dim(m);
    keys = keys > limit / extent ? limit + 1 : keys * extent;
  }
  if (keys <= limit) {
    std::vector<std::uint64_t> seen((keys + 63) / 64, 0);
    std::vector<const index_t*> columns;
    std::vector<std::uint64_t> radix;
    for (index_t m : fiber_modes_) {
      columns.push_back(tensor.mode_indices(m).data());
      radix.push_back(tensor.dim(m));
    }
    for (offset_t z = 0; z < n; ++z) {
      std::uint64_t key = 0;
      for (std::size_t i = 0; i < columns.size(); ++i) {
        key = key * radix[i] + columns[i][z];
      }
      seen[key >> 6] |= std::uint64_t{1} << (key & 63);
    }
    offset_t fibers = 0;
    for (const std::uint64_t word : seen) fibers += std::popcount(word);
    return fibers;
  }
  // Transient O(F) set of 64-bit fiber hashes: "exact" up to hash
  // collisions (~F^2 / 2^65).
  std::unordered_set<std::uint64_t> fibers;
  fibers.reserve(static_cast<std::size_t>(n));
  const index_t order = tensor.order();
  std::vector<index_t> coord(order);
  for (offset_t z = 0; z < n; ++z) {
    for (index_t m = 0; m < order; ++m) coord[m] = tensor.coord(m, z);
    fibers.insert(fiber_hash(coord));
  }
  return static_cast<offset_t>(fibers.size());
}

void ModeSketch::merge(const ModeSketch& other) {
  if (other.hll_regs_.empty()) return;  // default-constructed: nothing to fold
  BCSF_CHECK(!hll_regs_.empty() && mode_ == other.mode_ &&
                 fiber_modes_ == other.fiber_modes_ &&
                 slices_.extent() == other.slices_.extent(),
             "ModeSketch::merge: incompatible sketches (mode "
                 << mode_ << " vs " << other.mode_ << ")");

  // Exact fiber counts add iff both sides are exact and this sketch's
  // slice range sits strictly below the other's: disjoint root ranges
  // imply disjoint fiber keys (every fiber key contains its root index).
  // Empty sides are transparent.  The strictly-ascending rule -- rather
  // than mere range disjointness -- is what keeps the lapse decision
  // independent of merge association (a sequence is exact iff every
  // adjacent non-empty pair ascends, however the merges are grouped).
  const bool ascending = nnz() == 0 || other.nnz() == 0 ||
                         slices_.max_slice() < other.slices_.min_slice();
  fiber_exact_ = fiber_exact_ && other.fiber_exact_ && ascending;
  exact_fibers_ += other.exact_fibers_;

  slices_.merge(other.slices_);

  // HyperLogLog: register-wise max.
  for (std::size_t j = 0; j < kHllRegisters; ++j) {
    const std::uint8_t theirs = other.hll_regs_[j];
    std::uint8_t& reg = hll_regs_[j];
    if (theirs > reg) {
      hll_inv_sum_ += kPow2Neg[theirs] - kPow2Neg[reg];
      if (reg == 0) --hll_zero_regs_;
      reg = theirs;
    }
  }

  // AMS: counters add (same sign hashes on both sides).
  for (std::size_t i = 0; i < kAmsCounters; ++i) ams_[i] += other.ams_[i];
}

offset_t ModeSketch::estimate_fibers() const {
  if (nnz() == 0 || hll_regs_.empty()) return 0;
  if (fiber_exact_) return exact_fibers_;
  const double m = static_cast<double>(kHllRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double est = alpha * m * m / hll_inv_sum_;
  if (est <= 2.5 * m && hll_zero_regs_ > 0) {
    // Linear counting: exact-regime correction for small cardinalities.
    est = m * std::log(m / static_cast<double>(hll_zero_regs_));
  }
  // Structural bounds: every non-empty slice holds >= 1 fiber and every
  // fiber holds >= 1 nonzero.
  const double lo = static_cast<double>(num_slices());
  const double hi = static_cast<double>(nnz());
  return static_cast<offset_t>(std::llround(std::clamp(est, lo, hi)));
}

double ModeSketch::estimate_fiber_sq_sum() const {
  if (nnz() == 0 || ams_.empty()) return 0.0;
  double acc = 0.0;
  for (std::int64_t w : ams_) {
    acc += static_cast<double>(w) * static_cast<double>(w);
  }
  const double est = acc / static_cast<double>(kAmsCounters);
  // F2 is at least nnz (all fibers singleton) and at most nnz^2 (one fiber).
  const double n = static_cast<double>(nnz());
  return std::clamp(est, n, n * n);
}

ModeStats ModeSketch::approx_mode_stats() const {
  ModeStats s;
  s.mode = mode_;
  s.nnz = nnz();
  s.num_slices = num_slices();
  if (s.num_slices == 0) return s;

  const double n = static_cast<double>(s.nnz);
  const double slices = static_cast<double>(s.num_slices);

  s.nnz_per_slice.count = static_cast<std::size_t>(s.num_slices);
  s.nnz_per_slice.sum = n;
  s.nnz_per_slice.mean = n / slices;
  const double slice_var = std::max(
      0.0, static_cast<double>(sum_sq_slice_nnz()) / slices -
               s.nnz_per_slice.mean * s.nnz_per_slice.mean);
  s.nnz_per_slice.stddev = std::sqrt(slice_var);
  s.nnz_per_slice.max = static_cast<double>(max_slice_nnz());
  s.nnz_per_slice.min = 0.0;  // not maintained (no planning consumer)

  s.singleton_slice_fraction = static_cast<double>(singleton_slices()) / slices;

  const offset_t fibers = estimate_fibers();
  s.num_fibers = fibers;
  const double f = static_cast<double>(fibers);
  if (fibers > 0) {
    s.nnz_per_fiber.count = static_cast<std::size_t>(fibers);
    s.nnz_per_fiber.sum = n;
    s.nnz_per_fiber.mean = n / f;
    const double fiber_var =
        std::max(0.0, estimate_fiber_sq_sum() / f -
                          s.nnz_per_fiber.mean * s.nnz_per_fiber.mean);
    s.nnz_per_fiber.stddev = std::sqrt(fiber_var);

    s.fibers_per_slice.count = static_cast<std::size_t>(s.num_slices);
    s.fibers_per_slice.sum = f;
    s.fibers_per_slice.mean = f / slices;
  }

  // CSL lower bound: each of the (at most nnz - F) excess nonzeros sits in
  // a multi-nonzero fiber, and every CSF slice owns at least one of them.
  const offset_t excess = s.nnz > fibers ? s.nnz - fibers : 0;
  const offset_t multi = s.num_slices - singleton_slices();
  const offset_t csl = multi > excess ? multi - excess : 0;
  s.csl_slice_fraction = static_cast<double>(csl) / slices;
  return s;
}

std::string ModeSketch::to_string() const {
  std::ostringstream os;
  os << "mode " << mode_ << ": nnz=" << nnz() << " S=" << num_slices()
     << " S1=" << singleton_slices() << " max_slice=" << max_slice_nnz()
     << (fiber_exact_ ? " F=" : " F~=") << estimate_fibers();
  return os.str();
}

// --- TensorSketch -----------------------------------------------------

TensorSketch::TensorSketch(std::vector<index_t> dims) : dims_(std::move(dims)) {
  BCSF_CHECK(!dims_.empty(), "TensorSketch: empty dims");
  const index_t order = static_cast<index_t>(dims_.size());
  modes_.reserve(order);
  for (index_t m = 0; m < order; ++m) modes_.emplace_back(m, dims_);
}

TensorSketch TensorSketch::build(const SparseTensor& tensor) {
  TensorSketch sketch;
  sketch.dims_ = tensor.dims();
  // One-shot builds also record exact fiber counts, which makes the CSL
  // lower bound tight on the policy path: when N >> S even HLL's ~1.6%
  // error on F can swallow (S - S1) entirely and misroute pure-CSL
  // tensors to hbcsf.
  sketch.modes_.reserve(tensor.order());
  for (index_t m = 0; m < tensor.order(); ++m) {
    sketch.modes_.push_back(ModeSketch::build(m, tensor));
  }
  sketch.nnz_ = tensor.nnz();
  sketch.add_norm(tensor);
  return sketch;
}

void TensorSketch::add(std::span<const index_t> coords, value_t value) {
  BCSF_ASSERT(coords.size() == dims_.size(), "TensorSketch::add: bad coords");
  for (ModeSketch& m : modes_) m.add(coords);
  ++nnz_;
  norm_sq_ += static_cast<double>(value) * static_cast<double>(value);
}

void TensorSketch::add_tensor(const SparseTensor& tensor) {
  BCSF_CHECK(tensor.dims() == dims_, "TensorSketch::add_tensor: dims mismatch");
  for (ModeSketch& m : modes_) m.add_tensor(tensor);
  nnz_ += tensor.nnz();
  add_norm(tensor);
}

void TensorSketch::add_norm(const SparseTensor& tensor) {
  for (const value_t v : tensor.values()) {
    norm_sq_ += static_cast<double>(v) * static_cast<double>(v);
  }
}

void TensorSketch::merge(const TensorSketch& other) {
  if (!other.initialised()) return;
  if (!initialised()) {
    *this = other;
    return;
  }
  BCSF_CHECK(dims_ == other.dims_, "TensorSketch::merge: dims mismatch");
  for (index_t m = 0; m < order(); ++m) modes_[m].merge(other.modes_[m]);
  nnz_ += other.nnz_;
  norm_sq_ += other.norm_sq_;
}

std::vector<ModeStats> TensorSketch::approx_all_mode_stats() const {
  std::vector<ModeStats> out;
  out.reserve(modes_.size());
  for (const ModeSketch& m : modes_) out.push_back(m.approx_mode_stats());
  return out;
}

std::string TensorSketch::to_string() const {
  std::ostringstream os;
  os << "TensorSketch: nnz=" << nnz_ << " norm_sq=" << norm_sq_;
  for (const ModeSketch& m : modes_) os << "\n  " << m.to_string();
  return os.str();
}

}  // namespace bcsf
