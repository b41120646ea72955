// Compile hot-path harness: times each pipeline phase (parse, decompose,
// place, route, routed-circuit lowering, schedule, full pipeline, validate,
// QASM emit, cache store/hit) per circuit class, each class on its own
// device (surface-97 unless the row says otherwise), plus the device build
// the service runs per request (device_build, on surface-97 and the
// 467-qubit heavy-hex lattice), and appends
// machine-readable rows to BENCH_compile.json, the perf trajectory the
// hot-path work is pinned against (DESIGN.md §13).
//
// Rows are append-only: each invocation adds one row per (class, phase)
// under --label, and every new row that has a predecessor with the same
// (class, phase) but a *different* label records a speedup_vs delta against
// it — the before/after evidence for an optimization lands in the file
// itself. Each row also carries a digest: the re-emitted QASM text of the
// parsed circuit (parse phase), the QASM text of the lowered circuit
// (decompose and lower_routed phases), the placer's layout (place_degree
// phase), cache::artifact_digest of the
// MappingResult (pipeline phase) or of what cache::load_mapping returns
// for it (cache_store and cache_hit phases, so equal digests show an exact
// round trip), the routed circuit (routing phases), start cycles and
// makespan (schedule phase), the validator's verdict and rendered
// diagnostics (validate phase), the emitted QASM text (emit_qasm phase) or
// canonical_device_text followed by the hop-distance table (device_build),
// so cross-label byte-identity of compiler output is checkable straight
// from the JSON. Parse rows also carry mb_s, the QASM text's MB/s.
//
//   bench_compile_hotpath --label NAME [--out FILE] [--repeat N] [--smoke]
//                         [--validate] [--floor-route-kgps X]
//
//   --label NAME            row label (e.g. "seed-ir", "flat-ir"); required
//   --out FILE              JSON file to append to (default BENCH_compile.json)
//   --repeat N              timed repetitions per phase; the median is
//                           recorded (default 3)
//   --smoke                 small shapes + repeat 1 (CI perf-smoke job)
//   --fresh                 start a new file instead of appending (ctest)
//   --validate              re-parse the written file and check the schema
//   --floor-route-kgps X    fail (exit 1) unless lookahead routing sustains
//                           at least X kilogates/s on the densest random
//                           class — the ctest regression floor for the
//                           routing inner loop (0 disables; default 0)
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/equiv.h"
#include "backends/registry.h"
#include "cache/artifact.h"
#include "cache/cache.h"
#include "cache/fingerprint.h"
#include "common.h"
#include "compiler/decompose.h"
#include "compiler/schedule.h"
#include "device/device.h"
#include "mapper/pipeline.h"
#include "mapper/placement.h"
#include "mapper/routing.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "report/table.h"
#include "service/service.h"
#include "stats/descriptive.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/timer.h"
#include "workloads/algorithms.h"
#include "workloads/random_circuit.h"

using namespace qfs;

namespace {

constexpr int kSchemaVersion = 1;

struct Options {
  std::string label;
  std::string out = "BENCH_compile.json";
  int repeat = 3;
  bool smoke = false;
  bool fresh = false;
  bool validate = false;
  double floor_route_kgps = 0.0;
};

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_compile_hotpath: " << flag << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--label") {
      opts.label = value("--label");
    } else if (arg == "--out") {
      opts.out = value("--out");
    } else if (arg == "--repeat") {
      if (!qfs::parse_int(value("--repeat"), opts.repeat) || opts.repeat < 1) {
        std::cerr << "bench_compile_hotpath: bad --repeat\n";
        std::exit(1);
      }
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--fresh") {
      opts.fresh = true;
    } else if (arg == "--validate") {
      opts.validate = true;
    } else if (arg == "--floor-route-kgps") {
      opts.floor_route_kgps =
          bench::double_flag(argc, argv, "--floor-route-kgps", 0.0);
      ++i;  // double_flag exits on a missing value
    } else {
      std::cerr << "bench_compile_hotpath: unknown flag " << arg << "\n";
      std::exit(1);
    }
  }
  if (opts.label.empty()) {
    std::cerr << "bench_compile_hotpath: --label is required\n";
    std::exit(1);
  }
  if (opts.smoke) opts.repeat = 1;
  return opts;
}

/// One benchmarked circuit class: a deterministic generator (fixed seeds
/// only) on a fixed device, so every invocation times identical work and
/// cross-label digests are comparable.
struct CircuitClass {
  std::string name;
  circuit::Circuit circuit;
  /// Device spec in backends::make_device syntax.
  std::string device = "surface97";
  /// The phases timed for this class; empty times every phase.
  std::vector<std::string> phases;
  /// The densest random class carries the routing throughput floor.
  bool floor_carrier = false;
};

circuit::Circuit random_class_circuit(int num_qubits, int num_gates,
                                      double two_qubit_fraction,
                                      std::uint64_t seed) {
  qfs::Rng rng(seed);
  workloads::RandomCircuitSpec spec;
  spec.num_qubits = num_qubits;
  spec.num_gates = num_gates;
  spec.two_qubit_fraction = two_qubit_fraction;
  return workloads::random_circuit(spec, rng);
}

std::vector<CircuitClass> make_classes(bool smoke) {
  const int scale = smoke ? 1 : 4;
  std::vector<CircuitClass> classes;
  auto add = [&classes](std::string name,
                        circuit::Circuit circuit) -> CircuitClass& {
    classes.emplace_back();
    classes.back().name = std::move(name);
    classes.back().circuit = std::move(circuit);
    return classes.back();
  };
  add("ghz48", workloads::ghz(48));
  add("qft20", workloads::qft(20, true));
  add("bv40", workloads::bernstein_vazirani(40, 0x5a5a5a5a5aULL));
  {
    qfs::Rng rng(7);
    add("qv16", workloads::quantum_volume(16, smoke ? 4 : 8, rng));
  }
  add("random_dense", random_class_circuit(40, 750 * scale, 0.5, 11))
      .floor_carrier = true;
  add("random_sparse", random_class_circuit(40, 750 * scale, 0.2, 13));
  // The widest coupler scan: 160 qubits spread over a 467-qubit heavy-hex
  // lattice, routing and the full pipeline only.
  CircuitClass& wide =
      add("random_hh467", random_class_circuit(160, 750 * scale, 0.5, 17));
  wide.device = "heavy_hex(rows=13,cols=29)";
  wide.phases = {"route_lookahead", "pipeline"};
  return classes;
}

/// Median wall-clock over `repeat` runs of `fn` (nearest-rank p50, the
/// shared percentile implementation — satellite S1's single source of
/// truth for rank semantics).
template <typename Fn>
double median_ms(int repeat, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    qfs::StopWatch watch;
    fn();
    samples.push_back(watch.elapsed_ms());
  }
  return stats::percentile_nearest_rank(std::move(samples), 0.5);
}

struct Row {
  std::string phase;
  double ms = 0.0;
  int gates = 0;
  /// Throughput in kilogates/second (gates / ms); 0 when not meaningful.
  double kgps = 0.0;
  /// Text throughput in MB/s of the parse phase; 0 for the others.
  double mb_s = 0.0;
  /// Digest of the phase's output; every phase sets one.
  std::string digest;
};

std::string digest_of(const std::string& bytes) {
  return qfs::hash128(bytes).hex();
}

/// The virtual-to-physical map of a layout: the bytes a placement phase's
/// digest covers.
std::string layout_bytes(const mapper::Layout& layout) {
  std::ostringstream os;
  os << "layout";
  for (int p : layout.v2p()) os << ' ' << p;
  os << '\n';
  return os.str();
}

/// Start cycles in program order plus the makespan: the bytes a schedule
/// phase's digest covers.
std::string schedule_bytes(const compiler::Schedule& schedule) {
  std::ostringstream os;
  for (const auto& sg : schedule.gates) os << sg.start_cycle << '\n';
  os << "makespan " << schedule.makespan_cycles << '\n';
  return os.str();
}

/// Run the class's phases on `device` and return their rows.
std::vector<Row> bench_class(const CircuitClass& cls,
                             const device::Device& device, int repeat,
                             const std::string& cache_dir) {
  std::vector<Row> rows;
  auto timed = [&cls](const std::string& phase) {
    return cls.phases.empty() ||
           std::find(cls.phases.begin(), cls.phases.end(), phase) !=
               cls.phases.end();
  };
  auto add = [&rows, &timed](const std::string& phase, double ms, int gates,
                             std::string digest = std::string()) {
    if (!timed(phase)) return;
    Row row;
    row.phase = phase;
    row.ms = ms;
    row.gates = gates;
    row.kgps = ms > 0.0 ? static_cast<double>(gates) / ms : 0.0;
    row.digest = std::move(digest);
    rows.push_back(std::move(row));
  };

  // Each phase is timed in its own statement before its row is added: a
  // digest passed alongside the timing call would be computed in an
  // unspecified order relative to it, possibly over the previous output.

  // Phase: parse the class's OpenQASM text, the first layer of every
  // service request.
  double ms = 0.0;
  if (timed("parse")) {
    const std::string source = qasm::to_qasm(cls.circuit);
    circuit::Circuit parsed;
    ms = median_ms(repeat, [&] {
      auto result = qasm::parse(source);
      QFS_ASSERT_MSG(result.is_ok(), result.status().to_string());
      parsed = std::move(result).value();
    });
    add("parse", ms, static_cast<int>(parsed.size()),
        digest_of(qasm::to_qasm(parsed)));
    if (ms > 0.0) {
      rows.back().mb_s = static_cast<double>(source.size()) / 1e3 / ms;
    }
  }

  // Phase: decompose to the device's primitive set. Everything downstream
  // times the decomposed circuit, as the pipeline does.
  circuit::Circuit decomposed;
  ms = median_ms(repeat, [&] {
    decomposed = compiler::decompose_to_gateset(cls.circuit, device.gateset());
  });
  add("decompose", ms, static_cast<int>(cls.circuit.size()),
      digest_of(qasm::to_qasm(decomposed)));
  const int gates = static_cast<int>(decomposed.size());

  // Phase: placement (degree-match: the distance-table-heavy placer that
  // is cheap enough to time per class; annealing is timed by
  // bench_cache_speedup's cold run).
  if (timed("place_degree")) {
    mapper::Layout placement;
    ms = median_ms(repeat, [&] {
      qfs::Rng rng(1);
      placement = mapper::DegreeMatchPlacer().place(decomposed, device, rng);
    });
    add("place_degree", ms, gates, digest_of(layout_bytes(placement)));
  }

  // Phases: routing from the identity layout (fixed start so the digest is
  // label-comparable), trivial and lookahead.
  const mapper::Layout identity = mapper::Layout::identity(device.num_qubits());
  mapper::RoutingResult routed;
  if (timed("route_trivial")) {
    ms = median_ms(repeat, [&] {
      qfs::Rng rng(1);
      routed = mapper::TrivialRouter().route(decomposed, device, identity, rng);
    });
    add("route_trivial", ms, gates, digest_of(qasm::to_qasm(routed.mapped)));
  }
  ms = median_ms(repeat, [&] {
    qfs::Rng rng(1);
    routed = mapper::LookaheadRouter().route(decomposed, device, identity, rng);
  });
  add("route_lookahead", ms, gates, digest_of(qasm::to_qasm(routed.mapped)));

  // Phase: lowering the routed circuit to primitives (SWAPs expanded, then
  // decomposed), as map_circuit's last step does.
  if (timed("lower_routed")) {
    circuit::Circuit lowered;
    ms = median_ms(repeat, [&] {
      lowered = compiler::decompose_to_gateset(
          compiler::expand_swaps(routed.mapped), device.gateset());
    });
    add("lower_routed", ms, static_cast<int>(routed.mapped.size()),
        digest_of(qasm::to_qasm(lowered)));
  }

  // Phase: ASAP scheduling of the routed circuit with its SWAPs expanded
  // to CNOTs. map_circuit schedules a different circuit: the output of
  // decompose_to_gateset(expand_swaps(...)), lowered to the native set.
  if (timed("schedule_asap")) {
    circuit::Circuit physical = compiler::expand_swaps(routed.mapped);
    compiler::Schedule schedule;
    ms = median_ms(
        repeat, [&] { schedule = compiler::asap_schedule(physical, device); });
    add("schedule_asap", ms, static_cast<int>(physical.size()),
        digest_of(schedule_bytes(schedule)));
  }

  // Phase: the full mapping pipeline under the heavy configuration
  // (degree placer + lookahead router), whose artifact digest is the
  // byte-identity witness for the whole compile.
  mapper::MappingOptions mopts;
  mopts.placer = "degree-match";
  mopts.router = "lookahead";
  mapper::MappingResult mapping;
  ms = median_ms(repeat, [&] {
    qfs::Rng rng(1);
    mapping = mapper::map_circuit(cls.circuit, device, mopts, rng);
  });
  add("pipeline", ms, gates, cache::artifact_digest(mapping).hex());
  // Every remaining phase times that artifact.
  if (!timed("validate") && !timed("emit_qasm") && !timed("cache_store") &&
      !timed("cache_hit")) {
    return rows;
  }

  // Phase: translation validation of that artifact against its source, as
  // the service runs it on every compile and cache hit.
  analysis::TranslationArtifact artifact;
  artifact.mapped = &mapping.mapped;
  artifact.initial_layout = mapping.initial_layout;
  artifact.final_layout = mapping.final_layout;
  artifact.swaps_inserted = mapping.swaps_inserted;
  std::vector<analysis::Diagnostic> findings;
  ms = median_ms(repeat, [&] {
    findings = analysis::validate_translation(cls.circuit, device, artifact);
  });
  const bool valid =
      analysis::translation_is_valid(cls.circuit, device, artifact);
  add("validate", ms, mapping.gates_after,
      digest_of(std::string(valid ? "valid\n" : "invalid\n") +
                analysis::render_diagnostics(findings)));

  // Phase: OpenQASM emission of the mapped circuit (the service's digest
  // input).
  std::string mapped_qasm;
  ms = median_ms(repeat, [&] { mapped_qasm = qasm::to_qasm(mapping.mapped); });
  add("emit_qasm", ms, mapping.gates_after, digest_of(mapped_qasm));

  // Phases: cache store + disk hit for that artifact. A fresh cache
  // instance per lookup run keeps the memory tier cold, so the hit path
  // timed here is deserialization + content-addressed disk read — the
  // cross-process warm-compile scenario. Both rows digest what a fresh
  // load_mapping returns, so a digest equal to the pipeline row's shows an
  // exact round trip through the stored bytes.
  const cache::Fingerprint key = cache::compile_fingerprint(
      qasm::to_qasm(cls.circuit), device, mopts, /*seed=*/1);
  std::optional<mapper::MappingResult> loaded;
  auto load = [&] {
    cache::CompileCache hit_cache(cache::CacheConfig{cache_dir});
    loaded = cache::load_mapping(hit_cache, key);
    QFS_ASSERT_MSG(loaded.has_value(), "cache hit phase missed");
  };
  ms = median_ms(repeat, [&] {
    cache::CompileCache store_cache(cache::CacheConfig{cache_dir});
    cache::store_mapping(store_cache, key, mapping);
  });
  load();
  add("cache_store", ms, mapping.gates_after,
      cache::artifact_digest(*loaded).hex());
  loaded.reset();
  ms = median_ms(repeat, load);
  add("cache_hit", ms, mapping.gates_after,
      cache::artifact_digest(*loaded).hex());
  return rows;
}

/// The device_build phase: CompileService::parse_device on `spec`, as the
/// service resolves a request's device. The digest covers the canonical
/// device text and the hop-distance table.
Row bench_device_build(const std::string& spec, int repeat) {
  device::Device device;
  const double ms = median_ms(repeat, [&] {
    std::string error;
    const bool ok = service::CompileService::parse_device(spec, device, error);
    QFS_ASSERT_MSG(ok, error);
  });
  const std::vector<int>& dist = device.topology().tables()->dist;
  Row row;
  row.phase = "device_build";
  row.ms = ms;
  row.digest = digest_of(
      cache::canonical_device_text(device) +
      std::string(reinterpret_cast<const char*>(dist.data()),
                  dist.size() * sizeof(int)));
  return row;
}

// --- BENCH_compile.json rows and deltas -----------------------------------

std::string check_compile_row(const JsonValue& row) {
  const JsonValue* ms = row.find("ms");
  const JsonValue* gates = row.find("gates");
  if (ms == nullptr || !ms->is_number() || ms->as_number() < 0.0 ||
      gates == nullptr || !gates->is_integer() || gates->as_integer() < 0) {
    return "has bad ms/gates";
  }
  return "";
}

const bench::BenchFileFormat kFormat{
    .tool = "bench_compile_hotpath",
    .bench = "compile",
    .schema = kSchemaVersion,
    .header = {{"device", "surface97"}},
    .string_fields = {"label", "class", "phase"},
    .check_row = check_compile_row};

/// The most recent existing row with the same (class, phase) and a
/// different label — the "before" a new row's delta is computed against.
const JsonValue* find_predecessor(const JsonValue& rows,
                                  const std::string& cls,
                                  const std::string& phase,
                                  const std::string& label) {
  const JsonValue* best = nullptr;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& row = rows.at(i);
    if (row.find("class")->as_string() == cls &&
        row.find("phase")->as_string() == phase &&
        row.find("label")->as_string() != label) {
      best = &row;  // keep scanning: later rows are more recent
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  std::cout << "=== Compile hot-path phase timings (label: " << opts.label
            << (opts.smoke ? ", smoke" : "") << ") ===\n\n";

  bench::BenchFile file = bench::load_bench_file(kFormat, opts.out, opts.fresh);

  // One cache directory per process, so concurrent runs (parallel ctest)
  // never delete each other's artifacts.
  std::string cache_dir = (std::filesystem::temp_directory_path() /
                           ("qfs_bench_compile_hotpath." +
                            std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(cache_dir);

  report::TextTable table(
      {"class", "phase", "ms (median)", "kgates/s", "vs prior"});
  bool floor_ok = true;
  double floor_kgps_seen = -1.0;

  auto record = [&](const std::string& cls, const std::string& device_spec,
                    bool floor_carrier, const Row& row) {
    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue::string(opts.label));
    entry.set("class", JsonValue::string(cls));
    // The file header names the default device; other rows carry theirs.
    if (device_spec != "surface97")
      entry.set("device", JsonValue::string(device_spec));
    entry.set("phase", JsonValue::string(row.phase));
    entry.set("ms", JsonValue::number(row.ms));
    entry.set("reps", JsonValue::integer(opts.repeat));
    entry.set("gates", JsonValue::integer(row.gates));
    entry.set("smoke", JsonValue::boolean(opts.smoke));
    if (row.kgps > 0.0) entry.set("kgps", JsonValue::number(row.kgps));
    if (row.mb_s > 0.0) entry.set("mb_s", JsonValue::number(row.mb_s));
    if (!row.digest.empty())
      entry.set("digest", JsonValue::string(row.digest));

    std::string delta_text = "-";
    const JsonValue* prior =
        find_predecessor(file.rows, cls, row.phase, opts.label);
    if (prior != nullptr) {
      const JsonValue* prior_ms = prior->find("ms");
      const JsonValue* prior_label = prior->find("label");
      if (prior_ms != nullptr && prior_ms->as_number() > 0.0 && row.ms > 0.0) {
        const double speedup = prior_ms->as_number() / row.ms;
        JsonValue delta = JsonValue::object();
        delta.set("label", *prior_label);
        delta.set("ms", *prior_ms);
        delta.set("speedup", JsonValue::number(speedup));
        entry.set("speedup_vs", std::move(delta));
        delta_text = bench::fmt(speedup, 2) + "x vs " +
                     prior_label->as_string();
      }
    }

    if (floor_carrier && row.phase == "route_lookahead")
      floor_kgps_seen = row.kgps;
    table.add_row({cls, row.phase, bench::fmt(row.ms, 3),
                   row.kgps > 0.0 ? bench::fmt(row.kgps, 1) : "-",
                   delta_text});
    file.rows.push_back(std::move(entry));
  };

  for (const auto& cls : make_classes(opts.smoke)) {
    std::cerr << cls.name << " ";
    auto device = backends::make_device(cls.device);
    QFS_ASSERT_MSG(device.is_ok(), device.status().to_string());
    for (const Row& row :
         bench_class(cls, device.value(), opts.repeat, cache_dir)) {
      record(cls.name, cls.device, cls.floor_carrier, row);
    }
  }
  // The device build has no circuit: one row per device, its class named
  // after the device.
  for (const auto& [cls, spec] :
       {std::pair<std::string, std::string>{"surface97", "surface97"},
        {"hh467", "heavy_hex(rows=13,cols=29)"}}) {
    std::cerr << cls << " ";
    record(cls, spec, false, bench_device_build(spec, opts.repeat));
  }
  std::cerr << "\n";
  std::cout << table.to_string() << "\n";

  if (!bench::write_bench_file(kFormat, opts.out, std::move(file))) return 1;

  std::filesystem::remove_all(cache_dir);

  bool ok = true;
  if (opts.validate) ok = bench::validate_bench_file(kFormat, opts.out);
  if (opts.floor_route_kgps > 0.0) {
    floor_ok = floor_kgps_seen >= opts.floor_route_kgps;
    std::cout << (floor_ok ? "PASS" : "FAIL")
              << ": lookahead routing throughput "
              << bench::fmt(floor_kgps_seen, 1) << " kgates/s (floor "
              << bench::fmt(opts.floor_route_kgps, 1) << ")\n";
    ok = ok && floor_ok;
  }
  return ok ? 0 : 1;
}
