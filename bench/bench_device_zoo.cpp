// Device-zoo coverage bench: compile the paper suite onto every zoo
// backend (heavy-hex, sycamore grid, trapped-ion, neutral-atom) through the
// registry (the translation validator proves each artifact inside
// run_suite), and append one machine-readable row per backend to
// BENCH_device_zoo.json.
// This is the cross-backend counterpart of bench_compile_hotpath: it tracks
// how routing overhead, fidelity loss, and compile time move across
// connectivity regimes, not across code revisions of one device.
//
// Rows are append-only under --label (same idiom as BENCH_compile.json), so
// a mapper change lands its before/after evidence for every connectivity
// regime in the file itself.
//
//   bench_device_zoo --label NAME [--out FILE] [--smoke] [--fresh]
//                    [--validate] [--qasm-dir DIR]
//
//   --label NAME     row label (e.g. "lookahead-v2"); required
//   --out FILE       JSON file to append to (default BENCH_device_zoo.json)
//   --smoke          small suite draw (CI perf-smoke job)
//   --fresh          start a new file instead of appending (ctest)
//   --validate       re-parse the written file and check the schema
//   --qasm-dir DIR   compile the .qasm corpus in DIR (e.g. the QASMBench
//                    fixtures) instead of the generated paper suite
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "backends/registry.h"
#include "common.h"
#include "report/table.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/timer.h"
#include "workloads/suite.h"
#include "workloads/suite_io.h"

using namespace qfs;

namespace {

constexpr int kSchemaVersion = 1;

struct Options {
  std::string label;
  std::string out = "BENCH_device_zoo.json";
  bool smoke = false;
  bool fresh = false;
  bool validate = false;
  std::string qasm_dir;
};

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_device_zoo: " << flag << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--label") {
      opts.label = value("--label");
    } else if (arg == "--out") {
      opts.out = value("--out");
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--fresh") {
      opts.fresh = true;
    } else if (arg == "--validate") {
      opts.validate = true;
    } else if (arg == "--qasm-dir") {
      opts.qasm_dir = value("--qasm-dir");
    } else {
      std::cerr << "bench_device_zoo: unknown flag " << arg << "\n";
      std::exit(1);
    }
  }
  if (opts.label.empty()) {
    std::cerr << "bench_device_zoo: --label is required\n";
    std::exit(1);
  }
  return opts;
}

/// The four zoo backends, at the same shapes the acceptance tests pin.
/// All are >= 20 qubits, so one suite draw fits every target and the
/// cross-backend numbers compare the same input circuits.
const char* kBackends[] = {
    "heavy_hex(rows=3,cols=9)",
    "sycamore(rows=5,cols=4)",
    "trapped_ion(ions=20)",
    "neutral_atom(rows=4,cols=5,radius=1.5)",
};

struct ZooRow {
  std::string backend;  ///< canonical registry spec
  std::string device;   ///< generated device name
  int qubits = 0;
  int edges = 0;
  int circuits = 0;
  double mean_overhead_pct = 0.0;
  double mean_fidelity_decrease_pct = 0.0;
  int swaps = 0;
  double compile_ms = 0.0;
};

ZooRow bench_backend(const std::string& spec,
                     const std::vector<workloads::Benchmark>& suite) {
  auto dev = backends::make_device(spec);
  if (!dev.is_ok()) {
    std::cerr << "bench_device_zoo: " << dev.status().message() << "\n";
    std::exit(1);
  }
  const device::Device& device = dev.value();

  bench::SuiteRunConfig config;
  config.mapping.placer = "degree-match";
  config.mapping.router = "lookahead";
  qfs::StopWatch watch;
  std::vector<bench::SuiteRow> rows = bench::run_suite(device, config, suite);
  const double compile_ms = watch.elapsed_ms();

  ZooRow out;
  out.backend = device.spec();
  out.device = device.name();
  out.qubits = device.num_qubits();
  out.edges = static_cast<int>(device.topology().edge_list().size());
  out.circuits = static_cast<int>(rows.size());
  out.compile_ms = compile_ms;
  for (const auto& r : rows) {
    out.mean_overhead_pct += r.mapping.gate_overhead_pct;
    out.mean_fidelity_decrease_pct += r.mapping.fidelity_decrease_pct;
    out.swaps += r.mapping.swaps_inserted;
  }
  if (!rows.empty()) {
    out.mean_overhead_pct /= static_cast<double>(rows.size());
    out.mean_fidelity_decrease_pct /= static_cast<double>(rows.size());
  }
  return out;
}

std::string check_zoo_row(const JsonValue& row) {
  for (const char* key : {"qubits", "edges", "circuits", "swaps"}) {
    const JsonValue* field = row.find(key);
    if (field == nullptr || !field->is_integer() || field->as_integer() < 0)
      return std::string("has bad ") + key;
  }
  const JsonValue* ms = row.find("compile_ms");
  if (ms == nullptr || !ms->is_number() || ms->as_number() < 0.0)
    return "has bad compile_ms";
  return "";
}

const bench::BenchFileFormat kFormat{
    .tool = "bench_device_zoo",
    .bench = "device_zoo",
    .schema = kSchemaVersion,
    .header = {},
    .string_fields = {"label", "backend", "device", "suite"},
    .check_row = check_zoo_row};

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  std::cout << "=== Device zoo: paper suite across connectivity regimes "
               "(label: "
            << opts.label << (opts.smoke ? ", smoke" : "") << ") ===\n\n";

  // One suite, every backend: either the checked-in QASM corpus or a
  // generated paper-suite draw capped at 17 qubits so it fits the
  // smallest zoo target (20 qubits).
  std::vector<workloads::Benchmark> suite;
  std::string suite_name;
  if (!opts.qasm_dir.empty()) {
    auto loaded = workloads::load_qasm_directory(opts.qasm_dir);
    if (!loaded.is_ok()) {
      std::cerr << "bench_device_zoo: " << loaded.status().message() << "\n";
      return 1;
    }
    suite = std::move(loaded.value());
    suite_name = "qasm:" + opts.qasm_dir;
  } else {
    workloads::SuiteOptions suite_options;
    suite_options.max_qubits = 17;
    suite_options.max_gates = opts.smoke ? 200 : 600;
    if (opts.smoke) {
      suite_options.random_count = 4;
      suite_options.real_count = 4;
      suite_options.reversible_count = 2;
    }
    qfs::Rng suite_rng(2022);
    suite = workloads::make_suite(suite_options, suite_rng);
    suite_name = opts.smoke ? "paper-smoke" : "paper";
  }

  bench::BenchFile file = bench::load_bench_file(kFormat, opts.out, opts.fresh);

  report::TextTable table({"backend", "qubits", "edges", "circuits",
                           "overhead %", "fid. loss %", "swaps",
                           "compile ms"});
  for (const char* spec : kBackends) {
    std::cerr << spec << " ";
    ZooRow row = bench_backend(spec, suite);
    table.add_row({row.backend, std::to_string(row.qubits),
                   std::to_string(row.edges), std::to_string(row.circuits),
                   bench::fmt(row.mean_overhead_pct, 2),
                   bench::fmt(row.mean_fidelity_decrease_pct, 2),
                   std::to_string(row.swaps), bench::fmt(row.compile_ms, 1)});

    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue::string(opts.label));
    entry.set("backend", JsonValue::string(row.backend));
    entry.set("device", JsonValue::string(row.device));
    entry.set("suite", JsonValue::string(suite_name));
    entry.set("qubits", JsonValue::integer(row.qubits));
    entry.set("edges", JsonValue::integer(row.edges));
    entry.set("circuits", JsonValue::integer(row.circuits));
    entry.set("mean_overhead_pct", JsonValue::number(row.mean_overhead_pct));
    entry.set("mean_fidelity_decrease_pct",
              JsonValue::number(row.mean_fidelity_decrease_pct));
    entry.set("swaps", JsonValue::integer(row.swaps));
    entry.set("compile_ms", JsonValue::number(row.compile_ms));
    entry.set("smoke", JsonValue::boolean(opts.smoke));
    file.rows.push_back(std::move(entry));
  }
  std::cerr << "\n";
  std::cout << table.to_string() << "\n";

  if (!bench::write_bench_file(kFormat, opts.out, std::move(file))) return 1;
  if (opts.validate && !bench::validate_bench_file(kFormat, opts.out)) return 1;
  return 0;
}
