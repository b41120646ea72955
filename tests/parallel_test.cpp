#include "support/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

// The suite runner lives with the benches (bench/common.h); the determinism
// contract it carries is pinned here.
#include "common.h"
#include "device/device.h"
#include "support/rng.h"

namespace qfs {
namespace {

// ---------------------------------------------------------------------------
// derive_seed
// ---------------------------------------------------------------------------

TEST(DeriveSeed, DeterministicAndStreamSensitive) {
  EXPECT_EQ(derive_seed(2022, 0), derive_seed(2022, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    seen.insert(derive_seed(2022, stream));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across streams
  EXPECT_NE(derive_seed(1, 7), derive_seed(2, 7));  // seed-sensitive
}

TEST(DeriveSeed, AdjacentSeedsGiveUnrelatedStreams) {
  // Rng(derive_seed(s, i)) and Rng(derive_seed(s, i+1)) must not produce
  // correlated first draws (raw counter seeds would).
  Rng a(derive_seed(2022, 5));
  Rng b(derive_seed(2022, 6));
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    if (a.uniform_int(0, 1 << 20) != b.uniform_int(0, 1 << 20)) differs = true;
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { ++count; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

// ---------------------------------------------------------------------------
// parallel_map
// ---------------------------------------------------------------------------

TEST(ParallelMap, PreservesInputOrder) {
  for (int jobs : {1, 2, 8}) {
    auto out = parallel_map(jobs, 257, [](std::size_t i) {
      return static_cast<int>(i) * 3;
    });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ParallelMap, ZeroJobsMeansAuto) {
  EXPECT_GE(recommended_jobs(), 1);
  EXPECT_EQ(resolve_jobs(0), recommended_jobs());
  EXPECT_EQ(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(5), 5);
  auto out = parallel_map(0, 10, [](std::size_t i) { return i; });
  EXPECT_EQ(out.size(), 10u);
}

TEST(ParallelMap, EmptyAndSingleton) {
  EXPECT_TRUE(parallel_map(4, 0, [](std::size_t) { return 1; }).empty());
  auto one = parallel_map(4, 1, [](std::size_t) { return std::string("x"); });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "x");
}

TEST(ParallelMap, PropagatesFirstExceptionByIndex) {
  for (int jobs : {1, 4}) {
    try {
      parallel_map(jobs, 64, [](std::size_t i) -> int {
        if (i == 3 || i == 40) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
        return 0;
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Serial order: index 3 fails first. The parallel path must report
      // the same lowest-index failure (index 40 may or may not also run).
      EXPECT_STREQ(e.what(), "boom at 3");
    }
  }
}

TEST(ParallelMap, RunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_map(8, hits.size(), [&hits](std::size_t i) { return ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------------
// ProgressReporter
// ---------------------------------------------------------------------------

TEST(ProgressReporter, DotsEveryStrideAndFinalNewline) {
  std::ostringstream os;
  ProgressReporter progress(3, &os);
  for (int i = 0; i < 10; ++i) progress.tick();
  progress.finish();
  progress.finish();  // idempotent
  EXPECT_EQ(os.str(), "...\n");
}

TEST(ProgressReporter, ThreadSafeTicks) {
  std::ostringstream os;
  ProgressReporter progress(1, &os);
  parallel_map(8, 40, [&progress](std::size_t) {
    progress.tick();
    return 0;
  });
  progress.finish();
  EXPECT_EQ(os.str(), std::string(40, '.') + "\n");
}

// ---------------------------------------------------------------------------
// run_suite determinism (the RNG stream-coupling bugfix)
// ---------------------------------------------------------------------------

bench::SuiteRunConfig small_suite_config() {
  bench::SuiteRunConfig config;
  config.suite.random_count = 6;
  config.suite.real_count = 6;
  config.suite.reversible_count = 4;
  config.suite.max_qubits = 12;
  config.suite.max_gates = 300;
  config.mapping.placer = "degree-match";
  config.mapping.router = "lookahead";
  return config;
}

TEST(RunSuiteDeterminism, ByteIdenticalAcrossJobs) {
  device::Device dev = device::surface17_device();
  bench::SuiteRunConfig config = small_suite_config();
  std::string reference;
  for (int jobs : {1, 2, 8}) {
    config.jobs = jobs;
    std::string csv = bench::suite_rows_to_csv(bench::run_suite(dev, config));
    if (reference.empty()) {
      reference = csv;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(csv, reference) << "output diverged at --jobs " << jobs;
    }
  }
}

TEST(RunSuiteDeterminism, RepeatedRunsWithSameSeedMatch) {
  device::Device dev = device::surface17_device();
  bench::SuiteRunConfig config = small_suite_config();
  config.jobs = 4;
  std::string first = bench::suite_rows_to_csv(bench::run_suite(dev, config));
  std::string second = bench::suite_rows_to_csv(bench::run_suite(dev, config));
  EXPECT_EQ(first, second);
}

TEST(RunSuiteDeterminism, DifferentSeedsDiffer) {
  device::Device dev = device::surface17_device();
  bench::SuiteRunConfig config = small_suite_config();
  std::string a = bench::suite_rows_to_csv(bench::run_suite(dev, config));
  config.seed = 1234;
  std::string b = bench::suite_rows_to_csv(bench::run_suite(dev, config));
  EXPECT_NE(a, b);
}

TEST(RunSuiteDeterminism, AddingABenchmarkDoesNotPerturbEarlierRows) {
  // The original bug: one Rng threaded through generation and every
  // map_circuit call meant circuit i's mapping depended on how many draws
  // circuits 0..i-1 consumed, so growing the suite silently changed every
  // existing row. With per-circuit seed derivation, the first N random
  // benchmarks are identical whether or not an (N+1)-th exists.
  device::Device dev = device::surface17_device();
  bench::SuiteRunConfig config = small_suite_config();
  config.suite.real_count = 0;
  config.suite.reversible_count = 0;
  auto rows_small = bench::run_suite(dev, config);
  config.suite.random_count += 1;
  auto rows_grown = bench::run_suite(dev, config);
  ASSERT_EQ(rows_grown.size(), rows_small.size() + 1);
  rows_grown.pop_back();
  EXPECT_EQ(bench::suite_rows_to_csv(rows_grown),
            bench::suite_rows_to_csv(rows_small));
}

}  // namespace
}  // namespace qfs
