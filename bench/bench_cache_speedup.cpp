// Compilation-cache microbench: cold vs warm wall clock over the paper's
// 200-circuit suite, pinning the acceptance contract of the cache
// subsystem:
//   1. the warm run's CSV is byte-identical to the cold run's,
//   2. hit/miss counters are exact (200 misses cold, 200 disk hits warm),
//      including under a parallel fan-out (--jobs),
//   3. the warm run is at least --min-speedup times faster (default 5x;
//      0 disables the timing assertion for load-sensitive CI runners).
//
//   bench_cache_speedup [--jobs N] [--min-speedup X] [--max-gates N]
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common.h"
#include "report/table.h"
#include "support/strings.h"
#include "support/timer.h"

using namespace qfs;

namespace {

struct TimedRun {
  std::string csv;
  double seconds = 0.0;
  cache::CacheStatsSnapshot stats;
};

TimedRun timed_suite_run(const device::Device& device,
                         bench::SuiteRunConfig config,
                         cache::CompileCache& cache) {
  config.cache = &cache;
  qfs::StopWatch watch;
  auto rows = bench::run_suite(device, config);
  TimedRun run;
  run.seconds = watch.elapsed_seconds();
  run.csv = bench::suite_rows_to_csv(rows);
  run.stats = cache.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const service::RequestFlagValues flags = bench::request_flags(argc, argv);
  const int jobs = flags.jobs;
  const double min_speedup = bench::double_flag(argc, argv, "--min-speedup", 5.0);
  std::cout << "=== Compilation cache: cold vs warm suite run ===\n\n";

  device::Device dev = bench::resolve_device(flags, "surface17");
  bench::SuiteRunConfig config;
  config.jobs = jobs;
  config.suite.max_qubits = 17;
  config.suite.max_gates = bench::int_flag(argc, argv, "--max-gates", 3000);
  // An expensive pipeline, so the cold path pays for real placement and
  // routing work (the configuration the cache is for): annealing placement
  // plus SABRE refinement dominates the shared per-run work (suite
  // generation, profiling), which the cache cannot remove.
  config.mapping.placer = "annealing";
  config.mapping.router = "lookahead";
  config.mapping.sabre_refinement_rounds = 2;

  std::string dir = (std::filesystem::temp_directory_path() /
                     "qfs_bench_cache_speedup")
                        .string();
  std::filesystem::remove_all(dir);
  const std::uint64_t kCircuits = 200;

  std::cerr << "cold run ";
  cache::CompileCache cold_cache(cache::CacheConfig{dir});
  TimedRun cold = timed_suite_run(dev, config, cold_cache);
  bench::SuiteRunConfig cold_summary = config;
  cold_summary.cache = &cold_cache;
  bench::print_cache_summary(cold_summary);

  std::cerr << "warm run ";
  // A fresh cache instance on the same directory: the memory tier is cold,
  // so every hit is served by the content-addressed disk store — the
  // cross-process reuse scenario.
  cache::CompileCache warm_cache(cache::CacheConfig{dir});
  TimedRun warm = timed_suite_run(dev, config, warm_cache);
  bench::SuiteRunConfig warm_summary = config;
  warm_summary.cache = &warm_cache;
  bench::print_cache_summary(warm_summary);

  report::TextTable t({"run", "wall clock (s)", "hits", "misses", "stores"});
  t.add_row({"cold", bench::fmt(cold.seconds, 3),
             std::to_string(cold.stats.hits()),
             std::to_string(cold.stats.misses),
             std::to_string(cold.stats.stores)});
  t.add_row({"warm", bench::fmt(warm.seconds, 3),
             std::to_string(warm.stats.hits()),
             std::to_string(warm.stats.misses),
             std::to_string(warm.stats.stores)});
  std::cout << t.to_string() << "\n";

  bool ok = true;
  auto check = [&ok](bool condition, const std::string& what) {
    std::cout << (condition ? "PASS" : "FAIL") << ": " << what << "\n";
    ok = ok && condition;
  };
  check(cold.csv == warm.csv, "warm CSV byte-identical to cold CSV");
  check(cold.stats.misses == kCircuits && cold.stats.stores == kCircuits &&
            cold.stats.hits() == 0,
        "cold counters exact (" + std::to_string(kCircuits) +
            " misses, stores)");
  check(warm.stats.disk_hits == kCircuits && warm.stats.misses == 0 &&
            warm.stats.corrupt_entries == 0,
        "warm counters exact (" + std::to_string(kCircuits) + " disk hits)");
  double speedup = warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;
  std::cout << "warm speedup: " << bench::fmt(speedup, 2) << "x (required >= "
            << bench::fmt(min_speedup, 2) << "x)\n";
  if (min_speedup > 0.0) {
    check(speedup >= min_speedup, "warm run meets the speedup floor");
  }

  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
