// Shared helpers for the serving-layer test suites (concurrent_cache_test,
// serve_property_test, dynamic_update_test, mixed_op_serve_test, ...).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.hpp"
#include "serve/tensor_op_service.hpp"
#include "tensor/generator.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/types.hpp"

namespace bcsf::serve_test {

/// Largest absolute entry of the reference output, floored at 1: fp32
/// kernels accumulate in different orders than the double-precision
/// reference, so comparison tolerances scale with the output magnitude
/// (same convention as mttkrp_equivalence_test).
inline double ref_scale(const DenseMatrix& ref) {
  double scale = 1.0;
  for (value_t v : ref.data()) {
    scale = std::max(scale, static_cast<double>(std::abs(v)));
  }
  return scale;
}

/// Launches `n` threads that first block on a shared start gate, then run
/// `body(thread_index)`; joins them all.  The gate maximizes overlap.
template <typename Body>
void run_threads(int n, Body body) {
  std::promise<void> go;
  std::shared_future<void> gate = go.get_future().share();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([i, gate, &body] {
      gate.wait();
      body(i);
    });
  }
  go.set_value();
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Exact-grid inputs (see dynamic_update_test for the full argument): all
// values live on a coarse power-of-two grid -- small-integer tensor
// values, factor entries that are multiples of 0.5 with |entry| <= 1 --
// so every product carries <= 8 mantissa bits and every partial sum stays
// far below 2^18.  ALL float and double arithmetic in every kernel is
// then exact, making results independent of accumulation order,
// base/delta split, and coalescing: any wrong or missing nonzero is a
// hard bitwise mismatch.
// ---------------------------------------------------------------------------

/// Tensor with distinct random coordinates and small-integer values.
inline SparseTensor exact_tensor(const std::vector<index_t>& dims,
                                 offset_t nnz, std::uint64_t seed) {
  SparseTensor x = generate_uniform(dims, nnz, seed);
  std::mt19937 rng(seed * 31 + 7);
  for (value_t& v : x.values()) {
    v = static_cast<value_t>(1 + rng() % 3);
  }
  return x;
}

/// One rank-`rank` factor per mode; entries are multiples of 0.5 in
/// [-1, 1].  rank == 1 gives exact TTV vectors.
inline std::shared_ptr<const std::vector<DenseMatrix>> exact_factors(
    const std::vector<index_t>& dims, rank_t rank, std::uint64_t seed) {
  std::mt19937 rng(seed);
  std::vector<DenseMatrix> factors;
  for (index_t d : dims) {
    DenseMatrix m(d, rank);
    for (value_t& v : m.data()) {
      v = 0.5F * static_cast<value_t>(static_cast<int>(rng() % 5) - 2);
    }
    factors.push_back(std::move(m));
  }
  return std::make_shared<const std::vector<DenseMatrix>>(std::move(factors));
}

/// Additive update batch: random coordinates (may collide with existing
/// nonzeros -- that is the point), nonzero integer values in [-3, 3].
inline SparseTensor exact_batch(const std::vector<index_t>& dims, offset_t nnz,
                                std::mt19937& rng) {
  SparseTensor b(dims);
  std::vector<index_t> coords(dims.size());
  for (offset_t i = 0; i < nnz; ++i) {
    for (std::size_t m = 0; m < dims.size(); ++m) {
      coords[m] = static_cast<index_t>(rng() % dims[m]);
    }
    const int magnitude = 1 + static_cast<int>(rng() % 3);
    b.push_back(coords,
                static_cast<value_t>(rng() % 2 ? magnitude : -magnitude));
  }
  return b;
}

inline void append_nonzeros(SparseTensor& dst, const SparseTensor& src) {
  std::vector<index_t> coords(dst.order());
  for (offset_t z = 0; z < src.nnz(); ++z) {
    for (index_t m = 0; m < dst.order(); ++m) coords[m] = src.coord(m, z);
    dst.push_back(coords, src.value(z));
  }
}

inline ::testing::AssertionResult bitwise_equal(const DenseMatrix& expected,
                                                const DenseMatrix& actual) {
  if (expected.rows() != actual.rows() || expected.cols() != actual.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const auto e = expected.data();
  const auto a = actual.data();
  if (std::memcmp(e.data(), a.data(), e.size() * sizeof(value_t)) != 0) {
    return ::testing::AssertionFailure()
           << "bitwise mismatch, max |diff| = "
           << expected.max_abs_diff(actual);
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bcsf::serve_test

namespace bcsf {

/// Test-only access to TensorOpService internals (the class befriends
/// this struct; no serving caller can reach them).
struct TensorOpServiceTestPeer {
  /// Switches a fresh `service` to the exact sort+scan planning paths --
  /// shard pricing, cut placement and the upgrade policy scan the tensor
  /// instead of reading sketches: the validation oracle the sketch parity
  /// tests compare against.  Call before the first register_tensor.
  static void use_exact_policy(TensorOpService& service) {
    service.sketch_policy_ = false;
  }
};

}  // namespace bcsf
