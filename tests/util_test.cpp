// Unit tests for the util substrate: arithmetic helpers, statistics,
// random samplers, CLI parsing, and the error macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace bcsf {
namespace {

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div<offset_t>(0, 5), 0u);
}

TEST(Types, RoundUp) {
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
  EXPECT_EQ(round_up(1, 128), 128);
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    BCSF_CHECK(1 == 2, "custom context " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom context 42"),
              std::string::npos);
  }
}

TEST(Error, AssertThrows) {
  EXPECT_THROW(BCSF_ASSERT(false, "bug"), Error);
  EXPECT_NO_THROW(BCSF_ASSERT(true, "fine"));
}

TEST(Stats, KnownSample) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const SampleStats s = compute_stats(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, EmptySample) {
  const SampleStats s = compute_stats(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleElement) {
  const std::vector<offset_t> xs = {7};
  const SampleStats s = compute_stats(std::span<const offset_t>(xs));
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 7.0);
}

TEST(Stats, GiniUniformIsZero) {
  const std::vector<double> xs(100, 3.0);
  EXPECT_NEAR(compute_stats(xs).gini, 0.0, 1e-9);
}

TEST(Stats, GiniConcentratedIsHigh) {
  std::vector<double> xs(100, 0.0);
  xs.back() = 1000.0;
  EXPECT_GT(compute_stats(xs).gini, 0.95);
}

TEST(Stats, MedianInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(compute_stats(xs).p50, 2.5);
}

TEST(Stats, InPlaceMatchesTheCopy) {
  std::vector<offset_t> xs(1001);
  std::uint64_t state = 12345;
  for (offset_t& x : xs) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    x = (state >> 33) % 5000;
  }
  const SampleStats want = compute_stats(std::span<const offset_t>(xs));
  const SampleStats got = compute_stats_in_place(xs);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.stddev, want.stddev);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.gini, want.gini);
}

TEST(Stats, Log2Histogram) {
  const std::vector<offset_t> xs = {0, 1, 1, 2, 3, 4, 7, 8, 1000};
  const Log2Histogram h = log2_histogram(xs);
  EXPECT_EQ(h.zeros, 1u);
  ASSERT_GE(h.buckets.size(), 10u);
  EXPECT_EQ(h.buckets[0], 2u);  // {1, 1}
  EXPECT_EQ(h.buckets[1], 2u);  // {2, 3}
  EXPECT_EQ(h.buckets[2], 2u);  // {4, 7}
  EXPECT_EQ(h.buckets[3], 1u);  // {8}
  EXPECT_EQ(h.buckets[9], 1u);  // {1000}
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_THROW(rng.uniform(5, 4), Error);
}

TEST(Rng, UniformIndexCoversDomain) {
  Rng rng(6);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 2000; ++i) seen[rng.uniform_index(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, ParetoBounded) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.pareto(1.5, 1.0, 100.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
  }
  EXPECT_THROW(rng.pareto(0.0, 1.0, 2.0), Error);
  EXPECT_THROW(rng.pareto(1.0, 2.0, 1.0), Error);
}

TEST(Rng, ParetoHeavierTailWithSmallerAlpha) {
  Rng rng(8);
  auto mean = [&](double alpha) {
    double acc = 0.0;
    for (int i = 0; i < 20000; ++i) acc += rng.pareto(alpha, 1.0, 10000.0);
    return acc / 20000.0;
  };
  EXPECT_GT(mean(0.5), mean(2.5) * 3.0);
}

TEST(Zipf, FirstElementMostLikely) {
  Rng rng(9);
  ZipfSampler zipf(100, 1.1, rng);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample()];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99] * 5);
}

TEST(Zipf, StaysInDomain) {
  Rng rng(10);
  ZipfSampler zipf(5, 2.0, rng);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.sample(), 5u);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=1.5", "--name", "foo",
                        "positional", "--flag",      "--count", "42"};
  const CliParser cli(8, argv);
  EXPECT_EQ(cli.program(), "prog");
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(cli.get_string("name", ""), "foo");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_int("count", 0), 42);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliParser cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", -3), -3);
  EXPECT_EQ(cli.get_string("missing", "d"), "d");
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, BoolForms) {
  const char* argv[] = {"prog", "--a=true", "--b=false", "--c=1", "--d=0"};
  const CliParser cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, RejectsBadBool) {
  const char* argv[] = {"prog", "--x=maybe"};
  const CliParser cli(2, argv);
  EXPECT_THROW(cli.get_bool("x", false), Error);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GT(t.milliseconds(), 0.0);
}

TEST(Logging, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

}  // namespace
}  // namespace bcsf
