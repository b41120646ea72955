#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "stats/descriptive.h"

namespace perfbench {

void Report::metric(std::string name, double value) {
  metrics.push_back(Metric{std::move(name), value});
}

void Report::error(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

double peak_rss_mb_self() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

/// 2 MiB of table: past a core's L2, so the chase waits on the shared cache
/// the way the compile path's gate lists and distance tables do.
constexpr std::size_t kProbeEntries = std::size_t{1} << 19;
constexpr int kProbeSteps = 16384;
/// Sorted after the chase, for the branchy part of the compile path.
constexpr std::size_t kProbeSortEntries = 2048;
/// One slice's thread CPU time on a quiet 4-core x86 host.
constexpr double kQuietSliceMs = 1.6;

}  // namespace

SpeedProbe::SpeedProbe()
    : next_(kProbeEntries), scratch_(kProbeSortEntries) {
  std::iota(next_.begin(), next_.end(), 0u);
  // Sattolo's shuffle: a single cycle through every entry.
  std::uint64_t state = 2022;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next_[i], next_[(state >> 33) % i]);
  }
}

void SpeedProbe::sample() {
  const double start_ms = thread_cpu_ms();
  std::uint32_t at = at_;
  for (int step = 0; step < kProbeSteps; ++step) {
    at = next_[at];
    scratch_[static_cast<std::size_t>(step) % scratch_.size()] = at;
  }
  at_ = at;
  std::sort(scratch_.begin(), scratch_.end());
  samples_ms_.push_back(thread_cpu_ms() - start_ms);
}

double SpeedProbe::slowdown() const {
  if (samples_ms_.empty()) return 1.0;
  return qfs::stats::median(samples_ms_) / kQuietSliceMs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void make_dir(const std::string& path) {
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
