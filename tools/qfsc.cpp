// qfsc — the qfs command-line compiler driver.
//
// Reads OpenQASM 2.0 circuits (file arguments or stdin), compiles them for
// a chosen device, and prints a mapping report and optionally the compiled
// QASM, the timed ISA program, or the interaction-graph profile. Several
// input files are batch-compiled over --jobs worker threads with output
// bytes independent of the job count.
//
// Since the service layer landed, qfsc is a thin renderer: every compile,
// lint and verify goes through service::CompileService::execute() — the
// same entrypoint the qfsd daemon serves over its socket — and this file
// only turns CompileRequest/CompileResponse into the historical CLI bytes
// and exit codes (0 ok, 1 bad input, 2 compile failed, 3 lint errors).
//
//   qfsc --device surface17 --placer annealing --router lookahead in.qasm
//   qfsc --device surface97 --jobs 8 --emit-qasm batch/*.qasm
//   cat in.qasm | qfsc --device line:20 --emit-qasm
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "backends/registry.h"
#include "cache/cache.h"
#include "cache/fingerprint.h"
#include "circuit/draw.h"
#include "profile/circuit_profile.h"
#include "profile/dot_export.h"
#include "profile/interaction.h"
#include "qasm/parser.h"
#include "report/cache_summary.h"
#include "report/table.h"
#include "service/api.h"
#include "service/flags.h"
#include "service/service.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace {

using namespace qfs;

struct CliOptions {
  std::string device = "surface17";
  std::string placer = "trivial";
  std::string router = "trivial";
  int sabre_rounds = 0;
  std::uint64_t seed = 2022;
  bool emit_qasm = false;
  bool emit_cqasm = false;
  bool emit_timed = false;
  bool emit_dot = false;
  bool emit_json = false;
  bool profile_only = false;
  bool lint = false;
  bool verify = false;
  bool verify_output = false;
  bool recommend = false;
  bool draw_circuit = false;
  bool avoid_crosstalk = false;
  std::string calibration_path;
  std::string fault_spec;
  int max_attempts = 4;
  int jobs = 1;  // worker threads for batch compiles; 0 = auto
  std::string cache_dir;     // persistent compile cache root; "" = off
  bool cache_stats = false;  // emit cache counters after compiling
  std::vector<std::string> input_paths;  // empty: stdin
  /// The shared execution engine (owned by main; thread-safe, one cache
  /// across --jobs workers — the same engine qfsd serves remotely).
  const service::CompileService* service = nullptr;
};

void print_usage() {
  std::cout <<
      "usage: qfsc [options] [input.qasm ...]\n"
      "\n"
      "options:\n"
      "  --device <spec>   a backend-registry spec: a name, optionally with\n"
      "                    parameters — surface17, heavyhex27,\n"
      "                    heavy_hex(rows=3,cols=9), sycamore(5,4),\n"
      "                    trapped_ion(ions=20), neutral_atom(4,5,radius=1.5)\n"
      "                    — or file:<topology.txt>; the legacy colon forms\n"
      "                    line:<N>, grid:<R>x<C>, full:<N> still work\n"
      "                    (default surface17; see --list-devices)\n"
      "  --placer <name>   trivial | random | degree-match | annealing |\n"
      "                    subgraph | noise-aware                (default trivial)\n"
      "  --router <name>   trivial | lookahead | noise-aware | bridge |\n"
      "                    optimal                               (default trivial)\n"
      "  --sabre <n>       SABRE placement-refinement rounds     (default 0)\n"
      "  --seed <n>        RNG seed                              (default 2022)\n"
      "  --calibration <f> load per-qubit/per-edge fidelities from a file\n"
      "  --inject-faults <spec>\n"
      "                    degrade the device before compiling; spec is\n"
      "                    semicolon-separated key=value pairs, e.g.\n"
      "                    'dead_qubits=3|17;dead_edge_fraction=0.1;\n"
      "                    drift=0.02;seed=7' (compilation then targets the\n"
      "                    largest connected healthy subgraph)\n"
      "  --max-attempts <n> fallback ladder length for resilient\n"
      "                    compilation                         (default 4)\n"
      "  --jobs <n>        compile multiple input files over n worker\n"
      "                    threads (0 = one per hardware thread); output\n"
      "                    order and bytes are independent of n (default 1)\n"
      "  --cache-dir <d>   reuse compilation results from the persistent\n"
      "                    content-addressed cache rooted at <d> (created on\n"
      "                    demand; safe to share across --jobs workers and\n"
      "                    concurrent qfsc processes)\n"
      "  --cache-stats     after compiling, print cache hit/miss counters as\n"
      "                    JSON on stdout (without --cache-dir this enables\n"
      "                    an in-memory cache for the run)\n"
      "  --emit-qasm       print the compiled OpenQASM program\n"
      "  --emit-cqasm      print the compiled cQASM 1.0 program\n"
      "  --emit-timed      print the scheduled, timed ISA program\n"
      "  --emit-dot        print the interaction graph in Graphviz DOT\n"
      "  --emit-json       print the mapping report as JSON\n"
      "  --crosstalk-safe  schedule with crosstalk exclusion (with --emit-timed)\n"
      "  --lint            run the static circuit linter (device-independent\n"
      "                    checks: operand ranges, duplicate operands, gates\n"
      "                    after measurement, idle qubits, unreachable ops)\n"
      "                    and exit; diagnostics go to stdout, exit code 3\n"
      "                    when any error-severity finding exists\n"
      "  --verify          like --lint, but treat the input as a *mapped\n"
      "                    physical* circuit for --device and additionally\n"
      "                    check gate-set membership, coupling-graph\n"
      "                    adjacency, register width and the scheduled\n"
      "                    program's control-group timing\n"
      "  --verify-output   after compiling, run the translation validator\n"
      "                    over the produced artifact: every physical gate\n"
      "                    must realize exactly one source gate under the\n"
      "                    tracked qubit permutation (QFS101-QFS110); a\n"
      "                    failure is reported as an internal compiler\n"
      "                    error (exit 6) with the findings\n"
      "  --profile         print the interaction-graph profile and exit\n"
      "  --recommend       use (and print) the profile-based strategy\n"
      "                    recommendation instead of --placer/--router\n"
      "  --draw            print the input circuit as ASCII art first\n"
      "  --version         print the compiler version and the salt folded\n"
      "                    into every cache key, then exit\n"
      "  --list-devices    print every registered backend with its\n"
      "                    parameter ranges and defaults, then exit\n"
      "  --help            this text\n"
      "\n"
      "Circuits are read from the positional files, or stdin when omitted.\n"
      "With several input files, each is compiled independently (see\n"
      "--jobs); reports are prefixed per file and the exit code is that of\n"
      "the first failing input.\n";
}

/// Build the service request for one source. Everything behavioural lives
/// in the request; qfsc itself only renders the response.
service::CompileRequest build_request(const CliOptions& cli,
                                      const std::string& source,
                                      const std::string& source_name) {
  service::CompileRequest request;
  request.mode = cli.verify  ? service::RequestMode::kVerify
                 : cli.lint ? service::RequestMode::kLint
                            : service::RequestMode::kCompile;
  request.qasm = source;
  request.source_name = source_name;
  request.device = cli.device;
  request.calibration_path = cli.calibration_path;
  request.fault_spec = cli.fault_spec;
  request.options.placer = cli.placer;
  request.options.router = cli.router;
  request.options.sabre_refinement_rounds = cli.sabre_rounds;
  request.options.compute_latency = true;
  request.seed = cli.seed;
  request.max_attempts = cli.max_attempts;
  request.recommend = cli.recommend;
  request.crosstalk_safe = cli.avoid_crosstalk;
  request.emit_qasm = cli.emit_qasm;
  request.emit_cqasm = cli.emit_cqasm;
  request.emit_timed = cli.emit_timed;
  request.verify_artifact = cli.verify_output;
  return request;
}

/// Render a lint/verify response in the historical CLI format.
int render_lint(const CliOptions& cli, const service::CompileResponse& resp,
                const std::string& source_name, std::ostream& out,
                std::ostream& err) {
  if (!resp.ok() && resp.code != service::ErrorCode::kLintError) {
    err << "qfsc: " << resp.error_message << "\n";
    return service::exit_code_for(resp.code);
  }
  if (cli.emit_json) {
    out << analysis::diagnostics_to_json(resp.diagnostics).to_pretty_string()
        << "\n";
  } else {
    out << analysis::render_diagnostics(resp.diagnostics, source_name);
  }
  err << "qfsc: " << (cli.verify ? "verify" : "lint") << ": "
      << analysis::diagnostic_summary(resp.diagnostics) << "\n";
  return service::exit_code_for(resp.code);
}

/// Compile one QASM source end to end through the service, writing
/// artifacts to `out` (stdout in single-file mode) and diagnostics/reports
/// to `err`. Returns the PR-2 exit-code contract: 0 = ok, 1 = bad input,
/// 2 = compilation failed, 3 = lint/verify errors (with --lint/--verify).
int compile_source(const CliOptions& cli, const std::string& source,
                   const std::string& source_name, std::ostream& out,
                   std::ostream& err) {
  service::CompileRequest request = build_request(cli, source, source_name);
  if (cli.lint || cli.verify) {
    return render_lint(cli, cli.service->execute(request), source_name, out,
                       err);
  }

  // The circuit-introspection modes (--draw/--emit-dot/--profile) render
  // client-side; parse here and lend the circuit to the request so the
  // source is parsed exactly once.
  circuit::Circuit local;
  if (cli.draw_circuit || cli.emit_dot || cli.profile_only) {
    auto parsed = qasm::parse(source);
    if (!parsed.is_ok()) {
      err << "qfsc: " << parsed.status().to_string() << "\n";
      return 1;
    }
    local = std::move(parsed).value();
    request.circuit = &local;

    if (cli.draw_circuit) {
      circuit::DrawOptions draw_opts;
      draw_opts.show_params = false;
      err << circuit::draw(local, draw_opts) << "\n";
    }
    if (cli.emit_dot) {
      profile::DotOptions dot;
      dot.graph_name = "interaction";
      out << profile::to_dot(profile::interaction_graph(local), dot);
      if (!cli.emit_qasm && !cli.emit_cqasm && !cli.emit_timed &&
          !cli.profile_only) {
        return 0;
      }
    }
    if (cli.profile_only) {
      profile::CircuitProfile p = profile::profile_circuit(local);
      report::TextTable t({"metric", "value"});
      t.add_row({"qubits (active)", std::to_string(p.num_qubits)});
      t.add_row({"gates", std::to_string(p.gate_count)});
      t.add_row({"two-qubit gate %",
                 format_double(100.0 * p.two_qubit_fraction, 1)});
      t.add_row({"depth", std::to_string(p.depth)});
      t.add_row({"interaction edges", std::to_string(p.ig_edges)});
      t.add_row({"avg shortest path", format_double(p.avg_shortest_path, 3)});
      t.add_row({"max degree", std::to_string(p.max_degree)});
      t.add_row({"min degree", std::to_string(p.min_degree)});
      t.add_row({"adjacency std dev", format_double(p.adj_matrix_stddev, 3)});
      out << t.to_string();
      return 0;
    }
  }

  service::CompileResponse resp = cli.service->execute(request);

  // Side-channel notes come back even when the compile later failed, in
  // the order the pre-service tool printed them.
  if (!resp.fault_note.empty()) {
    err << "fault injection: " << resp.fault_note << "\n";
  }
  if (!resp.recommend_note.empty()) {
    err << "recommendation: " << resp.recommend_note << "\n";
  }
  if (!resp.ok()) {
    err << resp.attempt_log;  // full ladder on resilient failure ("" else)
    if (!resp.diagnostics.empty()) {
      // --verify-output findings: the artifact failed translation validation.
      err << analysis::render_diagnostics(resp.diagnostics, source_name);
    }
    err << "qfsc: " << resp.error_message << "\n";
    return service::exit_code_for(resp.code);
  }
  if (!resp.attempt_log.empty()) {
    // Fallbacks were needed; show the full ladder so the outcome is
    // explainable.
    err << resp.attempt_log;
  }

  const mapper::MappingResult& result = resp.mapping;
  report::TextTable t({"metric", "value"});
  t.add_row({"device", resp.device_name});
  t.add_row({"placer / router", resp.placer_used + " / " + resp.router_used});
  t.add_row({"gates before -> after", std::to_string(result.gates_before) +
                                          " -> " +
                                          std::to_string(result.gates_after)});
  t.add_row({"SWAPs inserted", std::to_string(result.swaps_inserted)});
  t.add_row({"gate overhead %", format_double(result.gate_overhead_pct, 1)});
  t.add_row({"depth before -> after", std::to_string(result.depth_before) +
                                          " -> " +
                                          std::to_string(result.depth_after)});
  t.add_row({"est. fidelity before", format_double(result.fidelity_before, 5)});
  t.add_row({"est. fidelity after", format_double(result.fidelity_after, 5)});
  t.add_row({"fidelity decrease %",
             format_double(result.fidelity_decrease_pct, 2)});
  t.add_row({"latency ns before -> after",
             format_double(result.latency_before_ns, 0) + " -> " +
                 format_double(result.latency_after_ns, 0)});
  err << t.to_string();

  if (cli.emit_json) {
    out << service::mapping_metrics_json(resp).to_pretty_string() << "\n";
  }
  out << resp.mapped_qasm;
  out << resp.mapped_cqasm;
  out << resp.timed_text;
  return 0;
}

/// Read one input (file path, or stdin when empty) and compile it.
int compile_path(const CliOptions& cli, const std::string& path,
                 std::ostream& out, std::ostream& err) {
  std::string source;
  if (path.empty()) {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    source = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      err << "qfsc: cannot open '" << path << "'\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }
  return compile_source(cli, source, path.empty() ? "<stdin>" : path, out,
                        err);
}

/// Batch mode: compile every input over --jobs worker threads. Per-file
/// streams are buffered and flushed in input order, so stdout/stderr are
/// byte-identical for any --jobs value. The exit code is that of the first
/// failing input (in input order), preserving the single-file contract
/// (1 = bad input, 2 = compilation failed).
int run_batch(const CliOptions& cli) {
  struct FileResult {
    int rc = 0;
    std::string out;
    std::string err;
  };
  auto results = qfs::parallel_map(
      cli.jobs, cli.input_paths.size(), [&cli](std::size_t i) {
        std::ostringstream out, err;
        FileResult r;
        r.rc = compile_path(cli, cli.input_paths[i], out, err);
        r.out = out.str();
        r.err = err.str();
        return r;
      });
  int exit_code = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cerr << "qfsc: === " << cli.input_paths[i] << " ===\n"
              << results[i].err;
    std::cout << results[i].out;
    if (exit_code == 0 && results[i].rc != 0) exit_code = results[i].rc;
  }
  return exit_code;
}

/// Every option qfsc understands (for did-you-mean suggestions): the
/// shared request flags plus the tool-specific ones.
std::vector<std::string> known_flags() {
  std::vector<std::string> flags = service::shared_request_flags();
  for (const char* flag :
       {"--help", "--sabre", "--calibration", "--inject-faults",
        "--max-attempts", "--emit-qasm", "--emit-cqasm", "--emit-timed",
        "--emit-dot", "--emit-json", "--crosstalk-safe", "--profile",
        "--lint", "--verify", "--verify-output", "--recommend", "--draw",
        "--cache-stats", "--version", "--list-devices"}) {
    flags.emplace_back(flag);
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  service::RequestFlagValues shared;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string shared_error;
    switch (service::consume_request_flag(argc, argv, i, shared,
                                          shared_error)) {
      case service::FlagParse::kConsumed:
        continue;
      case service::FlagParse::kError:
        std::cerr << "qfsc: " << shared_error << "\n";
        return 1;
      case service::FlagParse::kNotMine:
        break;
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qfsc: missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--version") {
      std::cout << "qfsc (qfs full-stack NISQ compiler)\n"
                << "cache key salt: " << cache::kCacheVersionSalt << "\n";
      return 0;
    } else if (arg == "--list-devices") {
      std::cout << backends::list_devices_text();
      return 0;
    } else if (arg == "--cache-stats") {
      cli.cache_stats = true;
    } else if (arg == "--sabre") {
      if (!qfs::parse_int(next(), cli.sabre_rounds) || cli.sabre_rounds < 0) {
        std::cerr << "qfsc: bad --sabre round count\n";
        return 1;
      }
    } else if (arg == "--emit-qasm") {
      cli.emit_qasm = true;
    } else if (arg == "--emit-cqasm") {
      cli.emit_cqasm = true;
    } else if (arg == "--emit-dot") {
      cli.emit_dot = true;
    } else if (arg == "--emit-json") {
      cli.emit_json = true;
    } else if (arg == "--calibration") {
      cli.calibration_path = next();
    } else if (arg == "--inject-faults") {
      cli.fault_spec = next();
    } else if (arg == "--max-attempts") {
      if (!qfs::parse_int(next(), cli.max_attempts) || cli.max_attempts < 1) {
        std::cerr << "qfsc: bad --max-attempts count\n";
        return 1;
      }
    } else if (arg == "--emit-timed") {
      cli.emit_timed = true;
    } else if (arg == "--crosstalk-safe") {
      cli.avoid_crosstalk = true;
    } else if (arg == "--profile") {
      cli.profile_only = true;
    } else if (arg == "--lint") {
      cli.lint = true;
    } else if (arg == "--verify") {
      cli.verify = true;
    } else if (arg == "--verify-output") {
      cli.verify_output = true;
    } else if (arg == "--recommend") {
      cli.recommend = true;
    } else if (arg == "--draw") {
      cli.draw_circuit = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "qfsc: unknown option '" << arg << "'";
      std::string suggestion = closest_match(arg, known_flags());
      if (!suggestion.empty()) std::cerr << " (did you mean " << suggestion
                                         << "?)";
      std::cerr << " (try --help)\n";
      return 1;
    } else {
      cli.input_paths.push_back(arg);
    }
  }
  cli.device = shared.device;
  cli.placer = shared.placer;
  cli.router = shared.router;
  cli.seed = shared.seed;
  cli.jobs = shared.jobs;
  cli.cache_dir = shared.cache_dir;

  std::unique_ptr<cache::CompileCache> compile_cache;
  if (!cli.cache_dir.empty() || cli.cache_stats) {
    cache::CacheConfig cache_config;
    cache_config.disk_dir = cli.cache_dir;  // "" = in-memory tier only
    compile_cache = std::make_unique<cache::CompileCache>(cache_config);
  }
  service::ServiceConfig service_config;
  service_config.cache = compile_cache.get();
  // The CLI reads local files the user already owns; the wire-facing size
  // bound is a daemon concern.
  service_config.max_source_bytes = std::numeric_limits<std::size_t>::max();
  service::CompileService engine(service_config);
  cli.service = &engine;

  int rc = cli.input_paths.size() > 1
               ? run_batch(cli)
               : compile_path(cli,
                              cli.input_paths.empty() ? "" : cli.input_paths[0],
                              std::cout, std::cerr);
  if (cli.cache_stats && compile_cache != nullptr) {
    cache::CacheStatsSnapshot snap = compile_cache->stats();
    JsonValue doc = JsonValue::object();
    doc.set("cache", report::cache_stats_to_json(snap));
    std::cout << doc.to_pretty_string() << "\n";
    std::cerr << report::cache_summary_line(snap) << "\n";
  }
  return rc;
}
