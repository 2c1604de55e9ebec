// Unit tests for src/common: rng, stats, ring buffer, table, env, check.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/appender.hpp"
#include "common/check.hpp"
#include "common/checksum.hpp"
#include "common/env.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace ioguard {
namespace {

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    IOGUARD_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, ComparisonMacrosPrintBothOperands) {
  try {
    const int lhs = 3, rhs = 7;
    IOGUARD_CHECK_EQ(lhs, rhs);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('3'), std::string::npos);
    EXPECT_NE(what.find('7'), std::string::npos);
  }
  EXPECT_NO_THROW(IOGUARD_CHECK_EQ(4, 4));
  EXPECT_NO_THROW(IOGUARD_CHECK_LE(4, 5));
  EXPECT_NO_THROW(IOGUARD_CHECK_LT(4, 5));
  EXPECT_NO_THROW(IOGUARD_CHECK_GE(5, 5));
  EXPECT_NO_THROW(IOGUARD_CHECK_GT(6, 5));
  EXPECT_NO_THROW(IOGUARD_CHECK_NE(6, 5));
  EXPECT_THROW(IOGUARD_CHECK_GT(5, 5), CheckFailure);
}

TEST(Check, ComparisonMsgMacrosCarryContext) {
  try {
    IOGUARD_CHECK_LE_MSG(9, 2, "budget overran");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget overran"), std::string::npos);
    EXPECT_NE(what.find('9'), std::string::npos);
  }
}

TEST(Check, CheckOpEvaluatesOperandsOnce) {
  int calls = 0;
  const auto bump = [&calls] { return ++calls; };
  IOGUARD_CHECK_GE(bump(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(Check, DcheckMsgCompilesInBothModes) {
  // Under NDEBUG this is ((void)sizeof(...)): the condition must stay
  // type-checked but unevaluated; in debug builds a true condition is a
  // no-op either way.
  int touched = 0;
  IOGUARD_DCHECK_MSG(touched == 0, "untouched");
  IOGUARD_DCHECK(touched >= 0);
#ifdef NDEBUG
  IOGUARD_DCHECK((++touched, true));  // must not evaluate
  EXPECT_EQ(touched, 0);
#endif
}

TEST(Types, CycleSlotConversions) {
  EXPECT_EQ(cycles_to_slots(250, 100), 2u);
  EXPECT_EQ(slots_to_cycles(3, 100), 300u);
  EXPECT_DOUBLE_EQ(cycles_to_seconds(kClockHz), 1.0);
  EXPECT_EQ(us_to_cycles(1.0), 100u);
}

TEST(Types, StrongIdsDoNotMix) {
  VmId vm{3};
  TaskId task{3};
  EXPECT_TRUE(vm.valid());
  EXPECT_FALSE(VmId{}.valid());
  EXPECT_EQ(vm, VmId{3});
  EXPECT_NE(vm, VmId{4});
  // Different tag types are distinct types; equality across them would not
  // compile. Hash support works in maps:
  std::hash<VmId> h;
  EXPECT_EQ(h(vm), h(VmId{3}));
  (void)task;
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(123);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (f1() == f2()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.log_uniform(10.0, 100.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 100.0 + 1e-9);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.raw().m2, 32.0, 1e-12);  // the sample variance is m2 / (n-1)
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyExtremaAreNaN) {
  OnlineStats s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, a, b;
  Rng r(17);
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform(-3, 10);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  // The variance bound 1e-9 at n - 1 = 499.
  EXPECT_NEAR(a.raw().m2, all.raw().m2, 499 * 1e-9);
}

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.05);
}

TEST(RingBuffer, FifoOrderAndBackPressure) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.push(3));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.push(4));  // back-pressure, not overwrite
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 1);
  EXPECT_EQ(rb.at(2), 3);
  EXPECT_EQ(rb.pop().value(), 1);
  EXPECT_EQ(rb.pop().value(), 2);
  EXPECT_TRUE(rb.push(5));
  EXPECT_EQ(rb.pop().value(), 3);
  EXPECT_EQ(rb.pop().value(), 5);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, WrapsManyTimes) {
  RingBuffer<int> rb(2);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(rb.push(i));
    ASSERT_EQ(rb.pop().value(), i);
  }
}

TEST(TextTable, RendersAlignedAndCsv) {
  TextTable t({"name", "value"});
  t.add(std::string("alpha"), 42);
  t.add(std::string("b,c"), 3.14159);
  EXPECT_EQ(t.rows(), 2u);

  std::ostringstream box;
  t.render(box);
  EXPECT_NE(box.str().find("| alpha"), std::string::npos);
  EXPECT_NE(box.str().find("| b,c"), std::string::npos);
  EXPECT_NE(box.str().find("3.14"), std::string::npos);
}

TEST(TextTable, RejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

// ---- Appender ---------------------------------------------------------------

std::string printf_fixed(double v, int precision) {
  char buf[400];  // DBL_MAX at %.6f is 316 bytes
  const int n = std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string ostream_fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// The doubles every formatting sweep runs over: signed zeros, subnormals,
/// extremes, specials, exact decimal ties at fixed and at significant-digit
/// precisions, and a seeded sweep of bit patterns and ordinary values.
std::vector<double> formatting_inputs() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inputs = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000FFFFFFFFFFFFFull}),  // largest
                                                                    // subnormal
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      kInf,
      -kInf,
      kNaN,
      -kNaN,
      1e22,
      9007199254740993.0,  // 2^53 + 1 rounds to 2^53
      0.1,
      2.0 / 3.0,
      1.0 - DBL_EPSILON / 2,
      -1e-9,  // rounds to a negative zero at every precision here
      0.9999995,
      0.0000005,
  };
  // Exact decimal ties at precision p: odd multiples of 2^-(p+1).
  for (int p = 0; p <= 6; ++p) {
    const double unit = std::ldexp(1.0, -(p + 1));
    for (int m = 1; m < 64; m += 2) {
      inputs.push_back(m * unit);
      inputs.push_back(-m * unit);
      inputs.push_back(1000 + m * unit);
    }
  }
  // Integers on either side of every power of ten up to 10^17, where "%g"
  // switches from digits to an exponent.
  for (double p10 = 1; p10 <= 1e17; p10 *= 10)
    for (const double v : {p10 - 1, p10, p10 + 1}) {
      inputs.push_back(v);
      inputs.push_back(-v);
    }
  // Exact ties at 1-3 significant digits: d5 x 10^e for every leading d.
  for (int d = 1; d < 100; ++d)
    for (double scale = 1; scale < 1e15; scale *= 10) {
      inputs.push_back((10 * d + 5) * scale);
      inputs.push_back(-(10 * d + 5) * scale);
    }
  // Seeded sweep: any bit pattern, and values near the 6th decimal.
  Rng rng(20240607);
  for (int i = 0; i < 4000; ++i) {
    inputs.push_back(std::bit_cast<double>(rng()));
    inputs.push_back(rng.uniform(-1000.0, 1000.0));
    inputs.push_back(std::round(rng.uniform(0.0, 1e7)) / 1e7);
  }
  return inputs;
}

TEST(Appender, FixedMatchesPrintfAtPrecisionsZeroToSix) {
  const std::vector<double> inputs = formatting_inputs();
  for (const double v : inputs) {
    for (int p = 0; p <= 6; ++p) {
      std::string out = "x";
      Appender(&out).put_fixed(v, p);
      ASSERT_EQ(out, std::string("x").append(printf_fixed(v, p)))
          << std::hexfloat << v << " at precision " << p;
      ASSERT_EQ(out, std::string("x").append(ostream_fixed(v, p)))
          << std::hexfloat << v << " at precision " << p;
    }
  }
  EXPECT_EQ(fmt_double(2.0 / 3.0, 6), "0.666667");
  EXPECT_THROW(fmt_double(1.0, Appender::kMaxFixedPrecision + 1),
               CheckFailure);
}

std::string printf_general(double v, int precision) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%.*g", precision, v);
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string ostream_general(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

TEST(Appender, GeneralMatchesPrintfAtPrecisionsOneToSeventeen) {
  for (const double v : formatting_inputs()) {
    for (int p = 1; p <= Appender::kMaxGeneralPrecision; ++p) {
      std::string out = "x";
      Appender(&out).put_general(v, p);
      ASSERT_EQ(out, std::string("x").append(printf_general(v, p)))
          << std::hexfloat << v << " at precision " << p;
      ASSERT_EQ(out, std::string("x").append(ostream_general(v, p)))
          << std::hexfloat << v << " at precision " << p;
    }
  }
  std::string out;
  Appender(&out).put_general(2.5, 1).put_char(' ').put_general(1e-5, 15);
  EXPECT_EQ(out, "2 1e-05");
  EXPECT_THROW(Appender(&out).put_general(1.0, 0), CheckFailure);
  EXPECT_THROW(
      Appender(&out).put_general(1.0, Appender::kMaxGeneralPrecision + 1),
      CheckFailure);
}

TEST(Appender, ChunkedWritesGiveTheSameBytesWhereverTheBoundaryFalls) {
  // Records of every length from 0 to 40 bytes, so a threshold lands inside,
  // at the start and at the end of records.
  std::string whole;
  {
    Appender a(&whole);
    for (int r = 0; r <= 40; ++r)
      a.put(std::string(static_cast<std::size_t>(r), 'a' + r % 26))
          .put_int(r);
  }
  for (const std::size_t min_bytes :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{7}, std::size_t{40}, std::size_t{41}, std::size_t{500},
        whole.size() - 1, whole.size(), Appender::kChunkBytes}) {
    std::ostringstream os;
    std::string buf;
    Appender a(&buf);
    std::size_t writes = 0;
    for (int r = 0; r <= 40; ++r) {
      a.put(std::string(static_cast<std::size_t>(r), 'a' + r % 26))
          .put_int(r);
      const std::size_t before = buf.size();
      a.write_to(os, min_bytes);
      if (before >= min_bytes) {
        ++writes;
        EXPECT_TRUE(buf.empty()) << "reaching the threshold empties the buffer";
      } else {
        EXPECT_EQ(buf.size(), before) << "below the threshold nothing moves";
      }
    }
    a.write_to(os, 0);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(os.str(), whole) << "threshold " << min_bytes;
    if (min_bytes <= 1) {
      EXPECT_EQ(writes, 41u);
    }
    if (min_bytes > whole.size()) {
      EXPECT_EQ(writes, 0u);
    }
  }
}

TEST(Appender, IntegersAndHexMatchStreams) {
  const auto streamed = [](auto v, bool hex) {
    std::ostringstream os;
    if (hex) os << std::hex;
    os << v;
    return os.str();
  };
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                               std::int64_t{42},
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()}) {
    std::string out;
    Appender(&out).put_int(v);
    EXPECT_EQ(out, streamed(v, false));
  }
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{0xdeadbeef},
        std::uint64_t{0xCBF29CE484222325ull},
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string dec;
    std::string hex;
    Appender(&dec).put_int(v);
    Appender(&hex).put_hex(v);
    EXPECT_EQ(dec, streamed(v, false));
    EXPECT_EQ(hex, streamed(v, true));
  }
  std::string small;
  Appender(&small).put_int(std::uint8_t{255}).put_char(' ').put_int(-7);
  EXPECT_EQ(small, "255 -7");
}

TEST(Appender, JsonEscapesQuotesBackslashesAndControlBytes) {
  std::string out;
  Appender(&out).put_json_escaped(
      "a\"b\\c\nd\re\tf\x01g\x1f\b\f\x7f\xc3\xa9/");
  EXPECT_EQ(out,
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\\u0008\\u000c\x7f"
            "\xc3\xa9/");
  std::string nul;
  Appender(&nul).put_json_escaped(std::string_view("\0x", 2));
  EXPECT_EQ(nul, "\\u0000x");
  std::string plain;
  Appender(&plain).put_json_escaped("tenant0").put_json_escaped("");
  EXPECT_EQ(plain, "tenant0");
}

TEST(Checksum, Fnv1a64UpdateChainsOverAnySplit) {
  const std::string text =
      "tenant0/vm1|pi=50,theta=4|1:1234:5:1200;2:800:3:760;\n"
      "tenant1/\xc3\xa9|pi=10,theta=2|7:300:100:290;\n";
  const std::uint64_t whole = fnv1a64(text);
  EXPECT_EQ(fnv1a64_update(fnv1a64_init(), ""), fnv1a64(""));
  for (std::size_t i = 0; i <= text.size(); ++i) {
    for (std::size_t j = i; j <= text.size(); ++j) {
      std::uint64_t h = fnv1a64_init();
      h = fnv1a64_update(h, std::string_view(text).substr(0, i));
      h = fnv1a64_update(h, std::string_view(text).substr(i, j - i));
      h = fnv1a64_update(h, std::string_view(text).substr(j));
      ASSERT_EQ(h, whole) << "split at " << i << " and " << j;
    }
  }
}

TEST(Env, FallbacksAndParsing) {
  ::setenv("IOGUARD_TEST_INT", "42", 1);
  ::setenv("IOGUARD_TEST_BAD", "xyz", 1);
  EXPECT_EQ(env_int("IOGUARD_TEST_INT", 7), 42);
  EXPECT_EQ(env_int("IOGUARD_TEST_BAD", 7), 7);
  EXPECT_EQ(env_int("IOGUARD_TEST_UNSET_123", 7), 7);
  EXPECT_EQ(env_string("IOGUARD_TEST_UNSET_123", "d"), "d");
}

TEST(MixSeed, DeterministicAndOrderSensitive) {
  EXPECT_EQ(mix_seed(42, 3, 7), mix_seed(42, 3, 7));
  // Swapping stream and index must land in a different stream -- the affine
  // base*7919+t scheme this replaces collided exactly here.
  EXPECT_NE(mix_seed(42, 3, 7), mix_seed(42, 7, 3));
  EXPECT_NE(mix_seed(42, 3, 7), mix_seed(43, 3, 7));
  EXPECT_NE(mix_seed(42, 3, 7), mix_seed(42, 3, 8));
}

TEST(MixSeed, NoCollisionsAcrossRealisticGrid) {
  // base x stream x index grid of the size the experiment drivers use; all
  // derived seeds must be distinct (the old scheme collided whenever
  // base1*7919 + t1 == base2*7919 + t2).
  std::set<std::uint64_t> seen;
  std::size_t n = 0;
  for (std::uint64_t base : {1ULL, 2ULL, 42ULL, 43ULL}) {
    for (std::uint64_t stream = 0; stream < 16; ++stream) {
      for (std::uint64_t t = 0; t < 64; ++t) {
        seen.insert(mix_seed(base, stream, t));
        ++n;
      }
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(MixSeed, AdjacentInputsFlipManyBits) {
  // splitmix64 avalanche: neighbouring trial indices must not produce
  // near-identical seeds (popcount of the XOR stays near 32).
  for (std::uint64_t t = 0; t < 32; ++t) {
    const auto d = mix_seed(42, 0, t) ^ mix_seed(42, 0, t + 1);
    EXPECT_GE(std::popcount(d), 10u) << "t=" << t;
  }
}

TEST(OnlineStats, MergeEmptySides) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);  // empty lhs: adopt rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  OnlineStats c, d;
  c.merge(d);  // both empty
  EXPECT_EQ(c.count(), 0u);
}

TEST(SampleSet, MergeMatchesSequentialAndHandlesEmpty) {
  SampleSet all, a, b;
  Rng r(23);
  for (int i = 0; i < 301; ++i) {
    const double x = r.uniform(-5, 5);
    all.add(x);
    (i % 3 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.percentile(50.0), all.percentile(50.0));
  EXPECT_DOUBLE_EQ(a.percentile(99.0), all.percentile(99.0));
  EXPECT_DOUBLE_EQ(a.max(), all.max());

  SampleSet empty;
  a.merge(empty);  // empty rhs: no-op
  EXPECT_EQ(a.count(), all.count());
  empty.merge(a);  // empty lhs: adopt rhs
  EXPECT_EQ(empty.count(), all.count());
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), all.percentile(50.0));
}

TEST(SampleSet, ConstPercentileMatchesSortingPath) {
  SampleSet sorting, scratch;
  Rng r(31);
  for (int i = 0; i < 257; ++i) {
    const double x = r.uniform(0, 1000);
    sorting.add(x);
    scratch.add(x);
  }
  const SampleSet& c = scratch;  // const overload: nth_element on a copy
  for (double p : {0.0, 12.5, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(c.percentile(p), sorting.percentile(p)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(c.max(), sorting.max());
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  // The pool must be reusable across batches.
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 2);
}

TEST(ThreadPool, SingleJobRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  pool.parallel_for(3, [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Still usable after a failed batch.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

}  // namespace
}  // namespace ioguard
