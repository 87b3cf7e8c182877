// lint-selftest-path: src/core/bad_float.cpp
// lint-selftest-expect: float-accumulate
//
// Deliberate violation: a stray single-precision accumulator in a
// reduce path.  Shard partials accumulate in double with ONE cast back
// to value_t inside ShardCombine (core/shard_combine.cpp); a float
// accumulator makes sharded results diverge from unsharded ones.
#include <vector>

float sum_partials(const std::vector<float>& partial) {
  float acc = 0.0f;
  for (float v : partial) acc += v;
  return acc;
}
