// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
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
#include "support/json.h"
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
  /// mapping is keyed like rung 0 of a resilient compile of the same
  /// (canonical QASM, device, mapping options, derived seed) and reused on
  /// a hit once the validator has proved it; artifacts round-trip exactly,
  /// so warm runs are byte-identical to cold ones (pinned by cache_test and
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
  // daemon and qfsc use. The "direct" pipeline runs rung 0 of the resilient
  // ladder alone: one map_circuit attempt, proved by the translation
  // validator (QFS101-QFS110) whether it was compiled fresh or read from
  // the cache, and a failure aborts the bench. Circuit and device are lent
  // by pointer — nothing is serialized on this path.
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
/// every mapped circuit of the suite and exit 2 on the first diagnostic,
/// warnings included. run_suite has already proved every row with the
/// translation validator; this adds the checker's warnings, such as
/// QFS003, which the validator does not look at.
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

// --- BENCH_*.json row files -------------------------------------------------
//
// The append-only perf-trajectory files (BENCH_compile.json,
// BENCH_device_zoo.json) share one format: a top-level object with the
// bench's name, a schema version, optional header members and a `rows`
// array. Each invocation appends its rows under its --label, so the
// before/after evidence for a change lands in the file itself.

/// One bench's row-file format.
struct BenchFileFormat {
  /// Binary name that prefixes the refusal and write-failure messages.
  std::string tool;
  /// The top-level "bench" value, e.g. "compile".
  std::string bench;
  int schema = 1;
  /// Extra top-level string members of a fresh file, written in order
  /// between "schema" and "rows".
  std::vector<std::pair<std::string, std::string>> header;
  /// Members every row carries as non-empty strings.
  std::vector<std::string> string_fields;
  /// The bench's own row check, run after the string fields: why `row` is
  /// malformed (e.g. "has bad ms/gates"), or "" when it is well formed.
  std::string (*check_row)(const JsonValue& row) = nullptr;
};

/// A bench file open for appending: the top-level members, and the rows
/// kept apart so a bench can append rows while it reads the earlier ones.
struct BenchFile {
  JsonValue root;
  JsonValue rows;
};

/// Why `root` is not a file of `format` ("bad top-level schema", "row 3
/// missing class"), or "" when it is one. Never aborts on malformed input.
inline std::string bench_file_error(const BenchFileFormat& format,
                                    const JsonValue& root) {
  if (!root.is_object()) return "bad top-level schema";
  const JsonValue* schema = root.find("schema");
  const JsonValue* bench = root.find("bench");
  const JsonValue* rows = root.find("rows");
  if (schema == nullptr || !schema->is_integer() ||
      schema->as_integer() != format.schema || bench == nullptr ||
      !bench->is_string() || bench->as_string() != format.bench ||
      rows == nullptr || !rows->is_array() || rows->size() == 0) {
    return "bad top-level schema";
  }
  for (std::size_t i = 0; i < rows->size(); ++i) {
    const JsonValue& row = rows->at(i);
    const std::string where = "row " + std::to_string(i) + " ";
    if (!row.is_object()) return where + "is not an object";
    for (const std::string& key : format.string_fields) {
      const JsonValue* field = row.find(key);
      if (field == nullptr || !field->is_string() ||
          field->as_string().empty()) {
        return where + "missing " + key;
      }
    }
    std::string problem = format.check_row(row);
    if (!problem.empty()) return where + problem;
  }
  return "";
}

/// Open `path` for appending. A fresh root comes back when `fresh` is set
/// or the file cannot be read. An existing file that is not a valid file of
/// `format` (what --validate would reject) exits 1 and is left untouched,
/// before the bench times anything.
inline BenchFile load_bench_file(const BenchFileFormat& format,
                                 const std::string& path, bool fresh) {
  std::ifstream in(path);
  if (in && !fresh) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = JsonValue::parse(buffer.str());
    if (parsed.is_ok() && bench_file_error(format, parsed.value()).empty()) {
      JsonValue rows = *parsed.value().find("rows");
      return {std::move(parsed.value()), std::move(rows)};
    }
    std::cerr << format.tool << ": " << path
              << " exists but is not a valid bench file; refusing to "
                 "overwrite it\n";
    std::exit(1);
  }
  BenchFile file{JsonValue::object(), JsonValue::array()};
  file.root.set("bench", JsonValue::string(format.bench));
  file.root.set("schema", JsonValue::integer(format.schema));
  for (const auto& [key, value] : format.header)
    file.root.set(key, JsonValue::string(value));
  file.root.set("rows", JsonValue::array());
  return file;
}

/// Write `file` to `path` with its rows in place. Prints "appended rows to
/// PATH" on stdout, or returns false after "TOOL: cannot write PATH".
inline bool write_bench_file(const BenchFileFormat& format,
                             const std::string& path, BenchFile file) {
  file.root.set("rows", std::move(file.rows));
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << format.tool << ": cannot write " << path << "\n";
    return false;
  }
  out << file.root.to_pretty_string() << "\n";
  out.close();
  std::cout << "appended rows to " << path << "\n";
  return true;
}

/// --validate: re-read the written `path` and check it against `format`.
/// The reason for a failure goes to stderr, then a PASS/FAIL line to
/// stdout. Returns whether the file passed.
inline bool validate_bench_file(const BenchFileFormat& format,
                                const std::string& path) {
  const bool valid = [&] {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "validate: cannot open " << path << "\n";
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = JsonValue::parse(buffer.str());
    if (!parsed.is_ok()) {
      std::cerr << "validate: " << parsed.status().message() << "\n";
      return false;
    }
    const std::string error = bench_file_error(format, parsed.value());
    if (!error.empty()) {
      std::cerr << "validate: " << error << "\n";
      return false;
    }
    return true;
  }();
  std::cout << (valid ? "PASS" : "FAIL") << ": " << path
            << " matches the bench schema\n";
  return valid;
}

}  // namespace qfs::bench
