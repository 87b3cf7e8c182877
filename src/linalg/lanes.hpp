// Two doubles in one vector register: the lane type of the tiled dense
// kernels (linalg/ops.cpp, linalg/spd_solve.cpp).  A GCC/Clang vector
// extension, so it needs no intrinsics and lowers to SSE2 on x86-64.
// Every operation is elementwise and each lane is an independent output
// entry, so vectorizing this way reorders no sum.  The kernels' loops over
// small Lanes arrays carry `#pragma GCC unroll`: fully unrolled, those
// accumulator arrays live in registers (without it GCC 12 at -O2 keeps
// them in memory, and the Gram and solve run 1.5-2x slower).
#pragma once

#include <cstddef>
#include <cstring>

namespace bcsf {

using Lanes = double __attribute__((vector_size(2 * sizeof(double))));
inline constexpr unsigned kLanes = 2;

inline Lanes load_lanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_lanes(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

}  // namespace bcsf
