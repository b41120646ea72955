// qfs_perfbench: one benchmark run of one workload.
//
//   qfs_perfbench --workload suite_cold|suite_warm|daemon_open --seed N
//                 --seconds S --trace 0|1 --qfsd PATH --work-dir DIR
//                 --span-file FILE
//
// With --trace 0 it measures the end-to-end metrics with nothing traced;
// with --trace 1 it runs the traced replay instead and reports the
// per-layer metrics. Either way it checks the program's outputs, prints an
// "output_digest" line, and ends its standard output with one JSON result
// line. Run it from the checkout root (it reads tools/testdata);
// perfbench/run.py builds this binary and qfsd, then runs it.

#include <charconv>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric the benchmark defines, with its unit (BENCHMARK.json lists
// the same names). A traced run prints every per-layer metric; those that
// do not apply to a workload (the wire metrics of the suite workloads) read
// 0.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_kgates_s", "kgates/s"},
    {"latency_ms.p50", "ms"},
    {"achieved_rps", "req/s"},
    {"success_rate", "fraction"},
    {"peak_rss_mb", "MB"},
    {"gate_overhead_pct.mean", "%"},
    {"fidelity_loss_pct.mean", "%"},
    {"swaps_total", "count"},
};

const MetricSpec kPerLayer[] = {
    {"qasm.parse.ms", "ms"},
    {"qasm.parse.mb_s", "MB/s"},
    {"qasm.emit.ms", "ms"},
    {"compiler.decompose.ms", "ms"},
    {"compiler.expand_swaps.ms", "ms"},
    {"compiler.schedule.ms", "ms"},
    {"mapper.place.ms", "ms"},
    {"mapper.route.ms", "ms"},
    {"mapper.route.kgates_s", "kgates/s"},
    {"mapper.self.ms", "ms"},
    {"mapper.swaps", "count"},
    {"mapper.attempts_per_request", "count"},
    {"analysis.validate.ms", "ms"},
    {"analysis.validate.calls_per_request", "count"},
    {"cache.fingerprint.ms", "ms"},
    {"cache.lookup.ms", "ms"},
    {"cache.deserialize.ms", "ms"},
    {"cache.serialize.ms", "ms"},
    {"cache.store.ms", "ms"},
    {"cache.payload_mb", "MB"},
    {"cache.hit_ratio", "fraction"},
    {"cache.evictions", "count"},
    {"service.digest.ms", "ms"},
    {"service.execute.ms", "ms"},
    {"service.self.ms", "ms"},
    {"codec.request.us", "us"},
    {"codec.response.us", "us"},
    {"server.queue_ms.p50", "ms"},
    {"server.queue_ms.p99", "ms"},
    {"server.total_ms.p50", "ms"},
    {"server.total_ms.p99", "ms"},
    {"wire.ms.p50", "ms"},
    {"wire.ms.p99", "ms"},
    {"loadgen.lag_ms.p99", "ms"},
    {"server.rejected", "count"},
    {"replay.drift_requests", "count"},
    {"trace.overhead_ms", "ms"},
};

std::string json_number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

/// The result line: exactly the metrics of the run's kind, in table order.
std::string result_line(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    double value = 0.0;
    for (const Metric& m : report.metrics) {
      if (m.name == spec.name) value = m.value;
    }
    out += first ? "\"" : ", \"";
    first = false;
    out += spec.name;
    out += "\": {\"value\": ";
    out += json_number(value);
    out += ", \"unit\": \"";
    out += spec.unit;
    out += "\"}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  return out + "}}";
}

bool parse_options(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--qfsd") {
      options.qfsd = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--span-file") {
      options.span_file = value;
    } else {
      std::cerr << "qfs_perfbench: unknown flag " << flag << "\n";
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds >= 1 &&
         !options.qfsd.empty() && !options.work_dir.empty() &&
         !options.span_file.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse_options(argc, argv, options)) {
      std::cerr << "usage: qfs_perfbench --workload W --seed N --seconds S "
                   "--trace 0|1 --qfsd PATH --work-dir DIR --span-file FILE\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "qfs_perfbench: bad flag value: " << e.what() << "\n";
    return 2;
  }

  void (*run)(const Options&, Report&) = nullptr;
  if (options.workload == "suite_cold") {
    run = perfbench::run_suite_cold;
  } else if (options.workload == "suite_warm") {
    run = perfbench::run_suite_warm;
  } else if (options.workload == "daemon_open") {
    run = perfbench::run_daemon_open;
  } else {
    std::cerr << "qfs_perfbench: unknown workload '" << options.workload
              << "' (suite_cold | suite_warm | daemon_open)\n";
    return 2;
  }

  Report report;
  perfbench::remove_tree(options.work_dir);
  perfbench::make_dir(options.work_dir);
  run(options, report);
  perfbench::remove_tree(options.work_dir);

  if (report.attempted == 0) report.error("no request was attempted");
  if (!report.output_digest.empty()) {
    std::cout << "output_digest " << options.workload << " "
              << report.output_digest << "\n";
  }
  std::cout << result_line(report, options.trace) << std::endl;
  return report.correct ? 0 : 1;
}
