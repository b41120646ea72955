// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/checkers.h"
#include "analysis/diagnostic.h"
#include "mapper/pipeline.h"
#include "profile/circuit_profile.h"
#include "report/cache_summary.h"
#include "service/api.h"
#include "service/flags.h"
#include "service/service.h"
#include "support/assert.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workloads/suite.h"

namespace qfs::bench {

/// One suite circuit after profiling and mapping: everything the paper's
/// evaluation figures plot.
struct SuiteRow {
  std::string name;
  workloads::Family family = workloads::Family::kRandom;
  profile::CircuitProfile profile;
  mapper::MappingResult mapping;
};

struct SuiteRunConfig {
  std::uint64_t seed = 2022;  // the paper's venue year: fixed default seed
  /// Worker threads for the compile fan-out (0 = one per hardware thread).
  /// Output is byte-identical for every value, including 1.
  int jobs = 1;
  workloads::SuiteOptions suite;
  mapper::MappingOptions mapping;
  /// Optional compilation cache (not owned). When set, each circuit's
  /// mapping is keyed by (canonical QASM, device, mapping options, derived
  /// seed) and reused on a hit; artifacts round-trip exactly, so warm runs
  /// are byte-identical to cold ones (pinned by cache_test and
  /// bench_cache_speedup).
  cache::CompileCache* cache = nullptr;
};

/// Profile every suite circuit and map it onto `device`, fanning the
/// per-circuit work over `config.jobs` threads. Rows come back in suite
/// order. Prints a progress dot every 20 circuits (benches run
/// interactively).
///
/// Determinism contract: suite generation uses a single Rng(config.seed)
/// stream (suite contents depend only on the seed), and the mapping of
/// circuit i draws from an independent Rng(derive_seed(config.seed, i))
/// stream — never from a stream shared with generation or with other
/// circuits. Row i therefore depends only on (seed, i): results are
/// byte-identical for any jobs value, and adding or removing a benchmark
/// never perturbs the other rows.
inline std::vector<SuiteRow> run_suite(const device::Device& device,
                                       const SuiteRunConfig& config,
                                       const std::vector<workloads::Benchmark>& suite) {
  // Every per-circuit compile goes through the same service entrypoint the
  // daemon and qfsc use, with the "direct" pipeline pinning the historical
  // one-attempt bench semantics. Circuit and device are lent by pointer —
  // nothing is serialized on this path.
  service::ServiceConfig service_config;
  service_config.cache = config.cache;
  const service::CompileService service(service_config);
  qfs::ProgressReporter progress(20);
  auto rows =
      qfs::parallel_map(config.jobs, suite.size(), [&](std::size_t i) {
        const auto& b = suite[i];
        SuiteRow row;
        row.name = b.name;
        row.family = b.family;
        row.profile = profile::profile_circuit(b.circuit);
        service::CompileRequest request;
        request.circuit = &b.circuit;
        request.source_name = b.name;
        request.device_obj = &device;
        request.options = config.mapping;
        request.pipeline = "direct";
        request.seed = qfs::derive_seed(config.seed, i);
        request.want_digest = false;
        service::CompileResponse resp = service.execute(request);
        QFS_ASSERT_MSG(resp.ok(), "suite compile failed for " + b.name +
                                      ": " + resp.error_message);
        row.mapping = std::move(resp.mapping);
        progress.tick();
        return row;
      });
  progress.finish();
  return rows;
}

/// The generated-suite form every figure bench uses: draw the paper suite
/// from Rng(config.seed), then compile it. The explicit-suite overload
/// above is the ingestion path (QASMBench fixtures, checked-in corpora) —
/// identical compile semantics, externally supplied circuits.
inline std::vector<SuiteRow> run_suite(const device::Device& device,
                                       const SuiteRunConfig& config) {
  qfs::Rng suite_rng(config.seed);
  return run_suite(device, config,
                   workloads::make_suite(config.suite, suite_rng));
}

/// Resolve the bench's target device: the --device registry spec when the
/// user gave one, else the bench's historical default. Exits with code 1 on
/// an unknown spec (same contract as the other flag errors).
inline device::Device resolve_device(const service::RequestFlagValues& flags,
                                     const std::string& fallback_spec) {
  const std::string& spec = flags.device_set ? flags.device : fallback_spec;
  device::Device dev;
  std::string error;
  if (!service::CompileService::parse_device(spec, dev, error)) {
    std::cerr << "bad --device: " << error << "\n";
    std::exit(1);
  }
  return dev;
}

inline std::string fmt(double v, int precision = 3) {
  return qfs::format_double(v, precision);
}

/// Run the static verifier (analysis::analyze_circuit, physical stage) over
/// every mapped circuit of the suite and abort on the first diagnostic.
/// A mapper bug that emits a non-native or non-adjacent gate would silently
/// skew every figure downstream — better to die loudly here.
inline void verify_suite_rows(const std::vector<SuiteRow>& rows,
                              const device::Device& device) {
  analysis::CheckOptions opts;
  opts.device = &device;
  opts.physical = true;
  for (const auto& r : rows) {
    auto diags = analysis::analyze_circuit(r.mapping.mapped, opts);
    if (diags.empty()) continue;
    std::cerr << "suite verification failed:\n"
              << analysis::render_diagnostics(diags, r.name);
    std::exit(2);
  }
}

/// Marker per family, following the paper's figures (squares = synthetic,
/// circles = real).
inline char family_marker(workloads::Family family) {
  switch (family) {
    case workloads::Family::kRandom: return 's';
    case workloads::Family::kReal: return 'o';
    case workloads::Family::kReversible: return 'r';
  }
  return '?';
}

/// Canonical CSV rendering of suite rows; what the determinism ctest pins
/// byte-identical across --jobs values.
inline std::string suite_rows_to_csv(const std::vector<SuiteRow>& rows) {
  std::ostringstream os;
  os << "name,family,gates_before,gates_after,swaps,gate_overhead_pct,"
        "depth_after,fidelity_decrease_pct\n";
  for (const auto& r : rows) {
    os << r.name << ',' << workloads::family_name(r.family) << ','
       << r.mapping.gates_before << ',' << r.mapping.gates_after << ','
       << r.mapping.swaps_inserted << ','
       << fmt(r.mapping.gate_overhead_pct, 4) << ',' << r.mapping.depth_after
       << ',' << fmt(r.mapping.fidelity_decrease_pct, 4) << '\n';
  }
  return os.str();
}

/// Parse the shared request flags every bench understands (--jobs,
/// --cache-dir, --seed, --placer, --router, --device) through the service
/// layer's single implementation; unknown arguments are ignored so benches
/// can add their own. Exits with code 1 on a malformed value, matching the
/// historical parse_jobs behaviour this replaces.
inline service::RequestFlagValues request_flags(int argc, char** argv) {
  service::RequestFlagValues flags;
  qfs::Status status = service::parse_request_flags(argc, argv, flags);
  if (!status.is_ok()) {
    std::cerr << argv[0] << ": " << status.message() << "\n";
    std::exit(1);
  }
  return flags;
}

/// Value of a bench-local integer flag (`--max-gates 800`), or `fallback`
/// when the flag is absent. A missing, malformed or negative value exits 1.
inline int int_flag(int argc, char** argv, const std::string& flag,
                    int fallback) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != flag) continue;
    int value = 0;
    if (i + 1 >= argc || !qfs::parse_int(argv[i + 1], value) || value < 0) {
      std::cerr << argv[0] << ": bad " << flag << " value '"
                << (i + 1 < argc ? argv[i + 1] : "") << "'\n";
      std::exit(1);
    }
    return value;
  }
  return fallback;
}

/// Value of a bench-local real flag (a gate such as `--min-speedup 5`), or
/// `fallback` when the flag is absent. A missing, malformed, non-finite or
/// negative value exits 1: a typo must never read as 0 (what atof makes of
/// "abc") and silently switch a gate off.
inline double double_flag(int argc, char** argv, const std::string& flag,
                          double fallback) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != flag) continue;
    double value = 0.0;
    if (i + 1 >= argc || !qfs::parse_double(argv[i + 1], value) ||
        !std::isfinite(value) || value < 0.0) {
      std::cerr << argv[0] << ": bad " << flag << " value '"
                << (i + 1 < argc ? argv[i + 1] : "") << "'\n";
      std::exit(1);
    }
    return value;
  }
  return fallback;
}

/// Print the standard suite-bench cache summary line (stderr, alongside the
/// progress dots) when a cache was in use.
inline void print_cache_summary(const SuiteRunConfig& config) {
  if (config.cache == nullptr) return;
  std::cerr << report::cache_summary_line(config.cache->stats()) << "\n";
}

}  // namespace qfs::bench
