// suite_cold and suite_warm: the paper's 200-circuit suite sent one request
// at a time, on one thread, to an in-process CompileService configured like
// qfsc (resilient pipeline, surface97, degree-match placer, lookahead
// router, latency on) over a CompileCache with the default configuration
// and a disk directory.
//
// The suite itself is the paper's fixed benchmark set,
// paper_suite(Rng(2022)), sent in suite order; the run's --seed is every
// request's compile seed (`qfsc --seed`), so it changes the cache keys, and
// with them which memory-tier shards fill and evict, but not the circuits.
// (Drawing a new suite per seed moves throughput and tail latency by a third
// from seed to seed, and shuffling the send order moves the peak RSS by a
// tenth; either would swamp a regression bound.)
//
//   suite_cold  every timed pass starts from an empty disk directory, so
//               every request compiles and stores.
//   suite_warm  set-up fills the disk directory with one cold pass (in a
//               child process, so its memory does not count); every timed
//               pass opens a fresh CompileCache on it, the second run of
//               `qfsc --cache-dir` or a daemon restart, so every request is
//               a disk hit.
//
// A request's latency is the CPU time of the calling thread across
// execute(). The call runs on that one thread and does its disk I/O
// through the page cache, so this is its wall time minus the time the
// thread sat preempted or descheduled: on a shared host that time comes
// from the neighbours, and counting it moved the suite figures by a
// quarter to a third from run to run. CPU time still moves with the speed
// the host gives the thread, by up to 1.7x between runs, so each pass also
// times a SpeedProbe slice after every request and divides its latencies
// by the pass's slowdown.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/equiv.h"
#include "cache/cache.h"
#include "common.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "replay.h"
#include "service/service.h"
#include "sim/stabilizer.h"
#include "support/hash.h"
#include "stats/descriptive.h"
#include "support/rng.h"
#include "support/timer.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using qfs::service::CompileRequest;
using qfs::service::CompileResponse;

constexpr std::uint64_t kSuiteSeed = 2022;
/// What one timed pass takes on a quiet 4-core x86 box; one pass is timed
/// per this many seconds of --seconds.
constexpr double kColdPassSeconds = 6.0;
constexpr double kWarmPassSeconds = 4.0;

struct SuiteInputs {
  /// In suite order; a request's id is its index.
  std::vector<CompileRequest> requests;
  long total_gates = 0;  ///< source gates over the whole suite
};

/// Suite generation and QASM rendering: the set-up every suite run pays.
SuiteInputs make_inputs(std::uint64_t seed) {
  qfs::Rng suite_rng(kSuiteSeed);
  std::vector<qfs::workloads::Benchmark> suite =
      qfs::workloads::paper_suite(suite_rng);
  SuiteInputs inputs;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    CompileRequest request;
    request.id = std::to_string(i);
    request.qasm = qfs::qasm::to_qasm(suite[i].circuit);
    request.source_name = suite[i].name;
    request.device = "surface97";
    request.options.placer = "degree-match";
    request.options.router = "lookahead";
    request.options.compute_latency = true;
    request.seed = seed;
    inputs.total_gates += suite[i].circuit.gate_count();
    inputs.requests.push_back(std::move(request));
  }
  return inputs;
}

std::unique_ptr<qfs::cache::CompileCache> open_cache(const std::string& dir) {
  qfs::cache::CacheConfig config;
  config.disk_dir = dir;
  return std::make_unique<qfs::cache::CompileCache>(config);
}

struct PassResult {
  std::vector<double> latency_ms;
  std::vector<std::string> digests;
  long ok = 0;
  long hits = 0;
  double overhead_pct_sum = 0.0;
  double fidelity_loss_pct_sum = 0.0;
  long swaps = 0;
  qfs::cache::CacheStatsSnapshot stats;
  /// Process peak RSS at the end of the pass. The first pass's is reported:
  /// later passes add allocator fragmentation, and their number depends on
  /// --seconds.
  double peak_rss_mb = 0.0;
  /// The SpeedProbe's slowdown over the pass (1 without a probe).
  double slowdown = 1.0;
};

/// One pass over the suite. Only execute() is timed; `inspect` runs between
/// requests, outside the timed region. With a `probe`, a probe slice runs
/// right after every request and the latencies are divided by the pass's
/// slowdown. (Right after, not before: the first pass checks every artifact
/// between requests, which evicts the probe's table from the caches and
/// would make that pass alone look slow.)
PassResult run_pass(
    const SuiteInputs& inputs, const std::string& cache_dir,
    const std::function<void(std::size_t, const CompileResponse&)>& inspect,
    SpeedProbe* probe = nullptr) {
  std::unique_ptr<qfs::cache::CompileCache> cache = open_cache(cache_dir);
  qfs::service::ServiceConfig config;
  config.cache = cache.get();
  qfs::service::CompileService service(config);
  PassResult pass;
  if (probe != nullptr) probe->reset();
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    const double start_ms = thread_cpu_ms();
    CompileResponse response = service.execute(inputs.requests[i]);
    pass.latency_ms.push_back(thread_cpu_ms() - start_ms);
    if (probe != nullptr) probe->sample();
    pass.digests.push_back(response.mapped_digest);
    if (response.ok()) ++pass.ok;
    if (response.cache_hit) ++pass.hits;
    pass.overhead_pct_sum += response.mapping.gate_overhead_pct;
    pass.fidelity_loss_pct_sum += response.mapping.fidelity_decrease_pct;
    pass.swaps += response.mapping.swaps_inserted;
    if (inspect) inspect(i, response);
  }
  pass.stats = cache->stats();
  pass.peak_rss_mb = peak_rss_mb_self();
  if (probe != nullptr) {
    pass.slowdown = probe->slowdown();
    for (double& ms : pass.latency_ms) ms /= pass.slowdown;
  }
  return pass;
}

/// The output check run on every distinct artifact: translation validation
/// against the parsed source, plus a stabilizer-simulation check when the
/// source and the artifact are Clifford-only.
class ArtifactChecker {
 public:
  explicit ArtifactChecker(Report& report) : report_(report) {
    std::string error;
    if (!qfs::service::CompileService::parse_device("surface97", device_,
                                                    error)) {
      report_.error("cannot build surface97: " + error);
    }
  }

  /// False (and recorded) when the response is not a correct artifact.
  bool check(const CompileRequest& request, const CompileResponse& response) {
    if (!response.ok() || !response.has_mapping) {
      report_.error("request " + request.id + " (" + request.source_name +
                    ") failed: " + response.error_message);
      return false;
    }
    auto source = qfs::qasm::parse(request.qasm);
    if (!source.is_ok()) {
      report_.error("request " + request.id + " source does not parse");
      return false;
    }
    const qfs::mapper::MappingResult& m = response.mapping;
    qfs::analysis::TranslationArtifact artifact;
    artifact.mapped = &m.mapped;
    artifact.initial_layout = m.initial_layout;
    artifact.final_layout = m.final_layout;
    artifact.swaps_inserted = m.swaps_inserted;
    if (!qfs::analysis::translation_is_valid(source.value(), device_,
                                             artifact)) {
      report_.error("request " + request.id + " (" + request.source_name +
                    ") artifact fails translation validation");
      return false;
    }
    if (qfs::sim::is_clifford_circuit(source.value()) &&
        qfs::sim::is_clifford_circuit(m.mapped)) {
      ++clifford_checked_;
      if (!qfs::sim::clifford_mapping_preserves_state(
              source.value(), m.mapped, m.initial_layout, m.final_layout)) {
        report_.error("request " + request.id + " (" + request.source_name +
                      ") fails the stabilizer check");
        return false;
      }
    }
    return true;
  }

  int clifford_checked() const { return clifford_checked_; }

 private:
  Report& report_;
  qfs::device::Device device_;
  int clifford_checked_ = 0;
};

std::string digest_of(const std::vector<std::string>& digests) {
  qfs::Hasher hasher;
  for (const std::string& d : digests) hasher.update(d + "\n");
  return hasher.finish().hex();
}

/// How many passes a run of `seconds` times, at least one. The count
/// depends only on the run length, never on how fast the passes ran, so
/// every run reports the same statistic over the same number of samples.
int pass_count(int seconds, double nominal_pass_seconds) {
  return std::max(1, static_cast<int>(seconds / nominal_pass_seconds));
}

/// `count` timed passes. The first pass checks every artifact; later
/// passes must reproduce its digests.
std::vector<PassResult> timed_passes(
    int count, const SuiteInputs& inputs,
    const std::function<std::string()>& cache_dir_for_pass,
    const std::function<void(const std::string&)>& after_pass,
    Report& report) {
  ArtifactChecker checker(report);
  SpeedProbe probe;
  std::vector<PassResult> passes;
  for (int index = 0; index < count; ++index) {
    std::string dir = cache_dir_for_pass();
    PassResult pass = run_pass(
        inputs, dir,
        [&](std::size_t i, const CompileResponse& response) {
          ++report.attempted;
          bool good = index == 0
                          ? checker.check(inputs.requests[i], response)
                          : response.ok() &&
                                response.mapped_digest ==
                                    passes.front().digests[i];
          if (!good) {
            ++report.failed;
            if (index > 0) {
              report.error("pass " + std::to_string(index) + " request " +
                           std::to_string(i) + " digest differs from pass 0");
            }
          }
        },
        &probe);
    std::cerr << "perfbench: pass " << index << " host slowdown "
              << pass.slowdown << "\n";
    after_pass(dir);
    passes.push_back(std::move(pass));
  }
  std::cerr << "perfbench: " << passes.size() << " timed passes of "
            << inputs.requests.size() << " requests ("
            << inputs.total_gates << " source gates); "
            << checker.clifford_checked()
            << " artifacts also checked by stabilizer simulation\n";
  return passes;
}

void report_passes(const SuiteInputs& inputs,
                   const std::vector<PassResult>& passes, double setup_s,
                   Report& report) {
  // Every pass repeats identical work from an identical cache state, so a
  // request's latency is its fastest pass: host noise only ever adds time.
  std::vector<double> latency_ms = passes.front().latency_ms;
  for (const PassResult& pass : passes) {
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      latency_ms[i] = std::min(latency_ms[i], pass.latency_ms[i]);
    }
  }
  const double execute_s =
      std::accumulate(latency_ms.begin(), latency_ms.end(), 0.0) / 1e3;
  const PassResult& first = passes.front();
  const double n = static_cast<double>(inputs.requests.size());
  report.metric("setup_s", setup_s);
  report.metric("throughput_kgates_s", inputs.total_gates / 1e3 / execute_s);
  using qfs::stats::percentile_nearest_rank;
  report.metric("latency_ms.p50", percentile_nearest_rank(latency_ms, 0.50));
  report.metric("achieved_rps", latency_ms.size() / execute_s);
  report.metric("success_rate",
                static_cast<double>(report.attempted - report.failed) /
                    static_cast<double>(std::max(1L, report.attempted)));
  report.metric("peak_rss_mb", first.peak_rss_mb);
  report.metric("gate_overhead_pct.mean", first.overhead_pct_sum / n);
  report.metric("fidelity_loss_pct.mean", first.fidelity_loss_pct_sum / n);
  report.metric("swaps_total", static_cast<double>(first.swaps));
  report.output_digest = digest_of(first.digests);
}

void flush_to_disk(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// Fill `dir` with one cold pass in a child process and return the pass's
/// digests (empty on failure).
std::vector<std::string> cold_fill(const SuiteInputs& inputs,
                                   const std::string& dir) {
  std::string digest_file = dir + ".digests";
  pid_t pid = ::fork();
  if (pid < 0) return {};
  if (pid == 0) {
    PassResult pass = run_pass(inputs, dir, nullptr);
    std::ofstream out(digest_file);
    for (const std::string& d : pass.digests) out << d << "\n";
    out.close();
    ::_exit(out && pass.ok == static_cast<long>(inputs.requests.size()) ? 0
                                                                         : 1);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  std::vector<std::string> digests;
  std::ifstream in(digest_file);
  for (std::string line; std::getline(in, line);) digests.push_back(line);
  return digests;
}

}  // namespace

void run_suite_cold(const Options& options, Report& report) {
  SuiteInputs inputs;
  std::vector<double> setup_times;
  // A tenth of a second each, so more repeats than elsewhere steady the
  // median.
  const int repeats = options.trace ? 1 : 3 * kSetupRepeats;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    qfs::StopWatch watch;
    inputs = make_inputs(options.seed);
    setup_times.push_back(watch.elapsed_seconds());
  }

  int dirs = 0;
  auto fresh_dir = [&] {
    std::string dir = options.work_dir + "/cold-" + std::to_string(dirs++);
    remove_tree(dir);
    return dir;
  };
  if (options.trace) {
    traced_replay(inputs.requests,
                  [&] { return open_cache(fresh_dir()); },
                  options.span_file, report);
    return;
  }
  std::vector<PassResult> passes =
      timed_passes(pass_count(options.seconds, kColdPassSeconds), inputs,
                   fresh_dir, remove_tree, report);
  report_passes(inputs, passes, qfs::stats::median(setup_times), report);
}

void run_suite_warm(const Options& options, Report& report) {
  SuiteInputs inputs;
  std::vector<std::string> cold_digests;
  std::string fill_dir;
  std::vector<double> setup_times;
  for (int repeat = 0; repeat < (options.trace ? 1 : kSetupRepeats); ++repeat) {
    if (!fill_dir.empty()) remove_tree(fill_dir);
    fill_dir = options.work_dir + "/fill-" + std::to_string(repeat);
    qfs::StopWatch watch;
    inputs = make_inputs(options.seed);
    cold_digests = cold_fill(inputs, fill_dir);
    setup_times.push_back(watch.elapsed_seconds());
    // Write the filled tier back now, untimed, rather than during a later
    // timed pass or the next run.
    flush_to_disk(fill_dir);
  }
  const double setup_s = qfs::stats::median(setup_times);
  if (cold_digests.size() != inputs.requests.size()) {
    report.error("the cold fill of the disk cache failed");
    return;
  }

  if (options.trace) {
    traced_replay(inputs.requests, [&] { return open_cache(fill_dir); },
                  options.span_file, report);
    return;
  }
  std::vector<PassResult> passes = timed_passes(
      pass_count(options.seconds, kWarmPassSeconds), inputs,
      [&] { return fill_dir; }, [](const std::string&) {}, report);
  const long n = static_cast<long>(inputs.requests.size());
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    if (pass.hits != n || static_cast<long>(pass.stats.disk_hits) != n) {
      report.error("warm pass " + std::to_string(p) + " served " +
                   std::to_string(pass.hits) + "/" + std::to_string(n) +
                   " requests from the cache (" +
                   std::to_string(pass.stats.disk_hits) + " disk hits)");
    }
  }
  std::cerr << "perfbench: warm cache hits " << passes.front().hits << "/" << n
            << "\n";
  for (std::size_t i = 0; i < cold_digests.size(); ++i) {
    if (passes.front().digests[i] != cold_digests[i]) {
      ++report.failed;
      report.error("request " + std::to_string(i) +
                   ": warm digest differs from the cold digest");
    }
  }
  report_passes(inputs, passes, setup_s, report);
}

}  // namespace perfbench
