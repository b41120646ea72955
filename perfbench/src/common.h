// Shared pieces of the qfs benchmark harness: command-line options, the
// result record every workload fills in, order statistics, and process
// bookkeeping (peak RSS, scratch directories).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2022;
  int seconds = 10;
  bool trace = false;
  /// Path of the qfsd binary built next to the harness.
  std::string qfsd;
  /// Private scratch directory for cache dirs and sockets;
  /// created by the harness and removed before it exits.
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string span_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one invocation reports: the contract's result line plus the output
/// digest later runs compare against ("same bytes"). Units live in one
/// table in main.cpp, keyed by metric name.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::string output_digest;

  void metric(std::string name, double value);
  /// Record a failed output check (printed to stderr; the run is incorrect).
  void error(const std::string& what);
};

/// Peak resident set size of this process in MB.
double peak_rss_mb_self();

/// CPU time of the calling thread in milliseconds. Unlike wall time it
/// leaves out the time the thread spends preempted or descheduled.
double thread_cpu_ms();

/// How fast the host runs code right now, from a fixed slice of reference
/// work that uses no qfs code, so no change to the program can move it.
///
/// On a shared host the speed of the same code drifts by up to 2x from one
/// run to the next (neighbours on sibling hyperthreads, clock frequency,
/// memory bandwidth), and thread CPU time only leaves out the time a thread
/// sat descheduled. The suite workloads therefore time one slice next to
/// every request and divide the request's CPU time by the pass's slowdown:
/// "ms at quiet-host speed".
class SpeedProbe {
 public:
  SpeedProbe();

  /// Run and time one slice (thread CPU time).
  void sample();
  /// Median slice time since the last reset over the slice's time on a
  /// quiet host: 1 there, 1.5 when the host runs the slice a third slower.
  double slowdown() const;
  void reset() { samples_ms_.clear(); }

 private:
  std::vector<std::uint32_t> next_;  ///< one random cycle over the table
  std::vector<std::uint32_t> scratch_;
  std::uint32_t at_ = 0;
  std::vector<double> samples_ms_;
};

std::string read_file(const std::string& path);
void make_dir(const std::string& path);
void remove_tree(const std::string& path);

/// How many times set-up is repeated per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

void run_suite_cold(const Options& options, Report& report);
void run_suite_warm(const Options& options, Report& report);
void run_daemon_open(const Options& options, Report& report);

}  // namespace perfbench
