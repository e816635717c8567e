// Tests for the small utilities: rng, stats, table, cli, thread pool,
// memory meter, function_ref.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "util/function_ref.hpp"
#include "util/mem_meter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace paramount {
namespace {

// ---- Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.next_u64() != b.next_u64();
  EXPECT_GT(differing, 12);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// ---- RunningStats / percentile ----

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, VarianceOfSingleSampleIsZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, EmptyRunningStatsMinMaxAreNaN) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(0.0);  // 0 must now be reported, not confused with "empty"
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Stats, PercentileOfEmptySampleIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
  EXPECT_TRUE(std::isnan(percentile({}, 0.0)));
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, Formatting) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3u << 20), "3.0 MiB");
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0125), "12.50 ms");
}

// ---- Table ----

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.render().find("| x |"), std::string::npos);
}

TEST(Table, SeparatorInsertsRule) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + top + bottom + the explicit separator = 4 rules
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

// ---- CliFlags ----

TEST(Cli, ParsesAllKinds) {
  CliFlags flags("test");
  flags.add_int("n", 1, "count")
      .add_double("p", 0.5, "prob")
      .add_bool("verbose", false, "talk")
      .add_string("name", "x", "label");
  const char* argv[] = {"prog",           "--n=42",   "--p", "0.25",
                        "--verbose",      "--name=hi"};
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("p"), 0.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "hi");
}

TEST(Cli, DefaultsSurviveNoArgs) {
  CliFlags flags("test");
  flags.add_int("n", 7, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 7);
}

TEST(Cli, NoPrefixDisablesBool) {
  CliFlags flags("test");
  flags.add_bool("fast", true, "speed");
  const char* argv[] = {"prog", "--no-fast"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("fast"));
}

TEST(Cli, HelpReturnsFalse) {
  CliFlags flags("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, HelpListsFlags) {
  CliFlags flags("my tool");
  flags.add_int("iterations", 3, "how many times");
  const std::string h = flags.help();
  EXPECT_NE(h.find("my tool"), std::string::npos);
  EXPECT_NE(h.find("--iterations=3"), std::string::npos);
  EXPECT_NE(h.find("how many times"), std::string::npos);
}

// ---- ThreadPool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    count.fetch_add(1);
    pool.submit([&] { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

// Park every worker, each on its own flag, submit a burst, then free one
// worker: it alone runs the whole burst from the one queue, in submission
// order. While all are parked the queue-depth gauge holds the backlog.
TEST(ThreadPool, LoneFreeWorkerRunsBurstInSubmissionOrder) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kBurst = 32;
  obs::Telemetry telemetry(kWorkers, /*trace_capacity_per_shard=*/64);
  ThreadPool pool(kWorkers, &telemetry);
  const auto queue_depth = [&telemetry] {
    return telemetry.snapshot().find_gauge("pool.queue_depth")->total;
  };

  std::atomic<std::size_t> parked{0};
  std::array<std::atomic<bool>, kWorkers> release{};
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.submit([&, w] {
      parked.fetch_add(1);
      while (!release[w].load()) std::this_thread::yield();
    });
  }
  while (parked.load() < kWorkers) std::this_thread::yield();

  std::vector<int> order(kBurst, -1);
  std::atomic<int> started{0};
  for (int i = 0; i < kBurst; ++i) {
    pool.submit(
        [&, i] { order[static_cast<std::size_t>(started.fetch_add(1))] = i; });
  }
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(queue_depth(), static_cast<std::uint64_t>(kBurst));
  }

  release[0].store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (started.load() < kBurst &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const int started_alone = started.load();
  for (std::atomic<bool>& flag : release) flag.store(true);
  pool.wait_idle();

  EXPECT_EQ(started_alone, kBurst)
      << "burst stalled with " << started_alone << "/" << kBurst
      << " tasks run by the one free worker";
  std::vector<int> submission_order(kBurst);
  std::iota(submission_order.begin(), submission_order.end(), 0);
  EXPECT_EQ(order, submission_order);
  if constexpr (obs::kTelemetryEnabled) {
    EXPECT_EQ(queue_depth(), 0u);
  }
}

TEST(ThreadPool, BurstRunsEveryTaskAcrossWorkers) {
  constexpr std::size_t kWorkers = 8;
  ThreadPool pool(kWorkers);
  std::atomic<int> ran{0};
  for (int i = 0; i < 2000; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2000);
}

// ---- MemoryMeter ----

TEST(MemoryMeter, TracksCurrentAndPeak) {
  MemoryMeter meter;
  meter.charge(100);
  meter.charge(50);
  EXPECT_EQ(meter.current_bytes(), 150u);
  EXPECT_EQ(meter.peak_bytes(), 150u);
  meter.release(120);
  EXPECT_EQ(meter.current_bytes(), 30u);
  EXPECT_EQ(meter.peak_bytes(), 150u);
}

TEST(MemoryMeter, BudgetThrowsAndRollsBack) {
  MemoryMeter meter(100);
  meter.charge(90);
  EXPECT_THROW(meter.charge(20), MemoryBudgetExceeded);
  EXPECT_EQ(meter.current_bytes(), 90u);  // rolled back
}

TEST(MemoryMeter, ScopedChargeReleasesOnDestruction) {
  MemoryMeter meter;
  {
    ScopedCharge charge(meter, 64);
    EXPECT_EQ(meter.current_bytes(), 64u);
    charge.resize(128);
    EXPECT_EQ(meter.current_bytes(), 128u);
    charge.resize(32);
    EXPECT_EQ(meter.current_bytes(), 32u);
  }
  EXPECT_EQ(meter.current_bytes(), 0u);
}

TEST(MemoryMeter, ExceptionCarriesDetails) {
  MemoryMeter meter(10);
  try {
    meter.charge(25);
    FAIL() << "expected throw";
  } catch (const MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.budget(), 10u);
    EXPECT_EQ(e.requested_total(), 25u);
  }
}

// ---- parse_byte_size ----

TEST(ParseByteSize, PlainDecimalIsBytes) {
  std::uint64_t bytes = 0;
  ASSERT_TRUE(parse_byte_size("1048576", &bytes));
  EXPECT_EQ(bytes, 1048576u);
  ASSERT_TRUE(parse_byte_size("0", &bytes));
  EXPECT_EQ(bytes, 0u);
}

TEST(ParseByteSize, BinarySuffixesCaseInsensitive) {
  std::uint64_t bytes = 0;
  ASSERT_TRUE(parse_byte_size("512k", &bytes));
  EXPECT_EQ(bytes, 512u << 10);
  ASSERT_TRUE(parse_byte_size("64M", &bytes));
  EXPECT_EQ(bytes, std::uint64_t{64} << 20);
  ASSERT_TRUE(parse_byte_size("2G", &bytes));
  EXPECT_EQ(bytes, std::uint64_t{2} << 30);
  ASSERT_TRUE(parse_byte_size("64MB", &bytes));
  EXPECT_EQ(bytes, std::uint64_t{64} << 20);
  ASSERT_TRUE(parse_byte_size("64MiB", &bytes));
  EXPECT_EQ(bytes, std::uint64_t{64} << 20);
  ASSERT_TRUE(parse_byte_size("1gb", &bytes));
  EXPECT_EQ(bytes, std::uint64_t{1} << 30);
}

TEST(ParseByteSize, RejectsMalformedInput) {
  std::uint64_t bytes = 99;
  EXPECT_FALSE(parse_byte_size("", &bytes));
  EXPECT_FALSE(parse_byte_size("abc", &bytes));
  EXPECT_FALSE(parse_byte_size("-64M", &bytes));
  EXPECT_FALSE(parse_byte_size("64Q", &bytes));
  EXPECT_FALSE(parse_byte_size("64Mx", &bytes));
  EXPECT_FALSE(parse_byte_size("M", &bytes));
  EXPECT_EQ(bytes, 99u);  // failed parses leave the output untouched
}

TEST(ParseByteSize, RejectsShiftOverflow) {
  std::uint64_t bytes = 0;
  // 2^34 GiB would overflow 64-bit bytes; just inside the limit is fine.
  EXPECT_FALSE(parse_byte_size("17179869184G", &bytes));
  ASSERT_TRUE(parse_byte_size("17179869183G", &bytes));
  EXPECT_EQ(bytes, std::uint64_t{17179869183u} << 30);
}

// ---- FunctionRef ----

TEST(FunctionRef, InvokesLambda) {
  int hits = 0;
  auto fn = [&](int x) { hits += x; };
  FunctionRef<void(int)> ref = fn;
  ref(2);
  ref(3);
  EXPECT_EQ(hits, 5);
}

TEST(FunctionRef, ReturnsValue) {
  auto doubler = [](int x) { return x * 2; };
  FunctionRef<int(int)> ref = doubler;
  EXPECT_EQ(ref(21), 42);
}

}  // namespace
}  // namespace paramount
