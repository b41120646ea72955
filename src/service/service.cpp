#include "service/service.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/checkers.h"
#include "analysis/equiv.h"
#include "backends/registry.h"
#include "cache/fingerprint.h"
#include "cache/memo.h"
#include "compiler/schedule.h"
#include "device/calibration.h"
#include "device/faults.h"
#include "isa/timed_program.h"
#include "mapper/placement.h"
#include "mapper/recommend.h"
#include "mapper/routing.h"
#include "profile/circuit_profile.h"
#include "qasm/cqasm_writer.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "support/hash.h"
#include "support/strings.h"
#include "support/timer.h"

namespace qfs::service {

namespace {

// Measurement timing goes through the shared monotonic helper
// (support/timer.h) — one implementation for every latency figure.
using Clock = qfs::MonotonicClock;
using qfs::ms_since;

CompileResponse fail(CompileResponse response, ErrorCode code,
                     std::string message) {
  response.code = code;
  response.error_message = std::move(message);
  return response;
}

/// The direct pipeline's strict-name rejection: "unknown placer 'x'", plus
/// a did-you-mean when a known name is close.
std::string unknown_strategy(const std::string& what, const std::string& name,
                             const std::vector<std::string>& known) {
  std::string message = "unknown " + what + " '" + name + "'";
  std::string suggestion = closest_match(name, known);
  if (!suggestion.empty()) message += " (did you mean '" + suggestion + "'?)";
  return message;
}

/// Resolve the request's circuit source text. In-process circuit pointers
/// skip this entirely (handled by the caller).
qfs::Status resolve_source(const CompileRequest& request,
                           std::size_t max_bytes, std::string& source,
                           std::string& source_name) {
  if (!request.qasm.empty() && !request.qasm_path.empty()) {
    return qfs::invalid_argument(
        "request sets both 'qasm' and 'qasm_path'; pick one");
  }
  if (!request.qasm.empty()) {
    source = request.qasm;
    source_name = "<request>";
  } else if (!request.qasm_path.empty()) {
    std::ifstream in(request.qasm_path);
    if (!in) {
      return qfs::invalid_argument("cannot open '" + request.qasm_path + "'");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    source_name = request.qasm_path;
  } else {
    return qfs::invalid_argument(
        "request carries no circuit: set 'qasm' or 'qasm_path'");
  }
  if (!request.source_name.empty()) source_name = request.source_name;
  if (source.size() > max_bytes) {
    return qfs::resource_exhausted(
        "source is " + std::to_string(source.size()) +
        " bytes; the service accepts at most " + std::to_string(max_bytes));
  }
  return qfs::Status::ok();
}

/// Build the request's device: named spec or in-process override, then
/// calibration and fault-injection overlays. On success `fault_note`
/// carries the degradation summary qfsc prints as "fault injection: ...".
qfs::Status resolve_device(const CompileRequest& request, device::Device& dev,
                           std::string& fault_note, ErrorCode& code) {
  code = ErrorCode::kInvalidRequest;
  if (request.device_obj != nullptr) {
    dev = *request.device_obj;
  } else {
    std::string error;
    if (!CompileService::parse_device(request.device, dev, error)) {
      return qfs::invalid_argument(error);
    }
  }
  if (!request.calibration.empty() || !request.calibration_path.empty()) {
    std::string text = request.calibration;
    if (text.empty()) {
      std::ifstream cal(request.calibration_path);
      if (!cal) {
        return qfs::invalid_argument("cannot open calibration '" +
                                     request.calibration_path + "'");
      }
      std::stringstream buffer;
      buffer << cal.rdbuf();
      text = buffer.str();
    }
    auto model = device::parse_calibration(text, dev.num_qubits());
    if (!model.is_ok()) {
      // qfsc has always rendered nested parse failures with their status
      // prefix ("parse_error: ..."); keep the wire message byte-identical.
      return qfs::invalid_argument(model.status().to_string());
    }
    dev.mutable_error_model() = model.value();
  }
  if (!request.fault_spec.empty()) {
    auto spec = device::parse_fault_spec(request.fault_spec);
    if (!spec.is_ok()) {
      return qfs::invalid_argument(spec.status().to_string());
    }
    device::FaultInjector injector(std::move(spec).value());
    auto degraded = injector.apply(dev);
    if (!degraded.is_ok()) {
      return qfs::invalid_argument("fault injection: " +
                                   degraded.status().to_string());
    }
    fault_note = degraded.value().summary();
    dev = std::move(degraded).value().device;
  }
  return qfs::Status::ok();
}

/// Lint / verify the request without compiling it (qfsc --lint/--verify).
/// Parse failures become lint diagnostics (the QFS100 contract), never a
/// kParseError response.
CompileResponse run_lint(const CompileRequest& request,
                         const std::string& source,
                         const circuit::Circuit* parsed_circuit,
                         CompileResponse response) {
  analysis::CheckOptions opts;
  device::Device dev;
  if (request.mode == RequestMode::kVerify) {
    std::string fault_note;
    ErrorCode code = ErrorCode::kInvalidRequest;
    qfs::Status status = resolve_device(request, dev, fault_note, code);
    if (!status.is_ok()) {
      return fail(std::move(response), code, status.message());
    }
    response.fault_note = fault_note;
    response.device_name = dev.name();
    opts.device = &dev;
    opts.physical = true;
  }

  circuit::Circuit local;
  const circuit::Circuit* circuit = parsed_circuit;
  if (circuit == nullptr) {
    auto parsed = qasm::parse(source);
    if (!parsed.is_ok()) {
      response.diagnostics = analysis::lint_source(source, opts);
      response.code = analysis::has_errors(response.diagnostics)
                          ? ErrorCode::kLintError
                          : ErrorCode::kOk;
      return response;
    }
    local = std::move(parsed).value();
    circuit = &local;
  }
  response.diagnostics = analysis::analyze_circuit(*circuit, opts);
  if (request.mode == RequestMode::kVerify &&
      !analysis::has_errors(response.diagnostics) &&
      circuit->num_qubits() <= dev.num_qubits()) {
    compiler::ScheduleOptions sched;
    sched.avoid_crosstalk = request.crosstalk_safe;
    auto schedule = compiler::asap_schedule(*circuit, dev, sched);
    auto program = isa::lower_to_timed_program(*circuit, schedule);
    auto timed = analysis::analyze_timed_program(program, dev);
    response.diagnostics.insert(response.diagnostics.end(), timed.begin(),
                                timed.end());
  }
  response.code = analysis::has_errors(response.diagnostics)
                      ? ErrorCode::kLintError
                      : ErrorCode::kOk;
  return response;
}

CompileResponse execute_impl(const ServiceConfig& config,
                             const CompileRequest& request) {
  Clock::time_point start = Clock::now();
  CompileResponse response;
  response.id = request.id;

  // deadline_ms == 0 means "already expired": the admission-to-dispatch
  // budget is enforced by the server, but a zero budget is decidable here,
  // which keeps the deadline path testable without a daemon.
  if (request.deadline_ms == 0.0) {
    return fail(std::move(response), ErrorCode::kDeadlineExceeded,
                "deadline expired before compilation started");
  }

  // Chaos directives are intercepted by chaos-enabled supervised workers
  // (`qfsd --worker --enable-chaos`) before the service sees them; a
  // directive that reaches this layer was sent to a deployment that does
  // not fault-inject, and silently compiling it would mask the mistake.
  if (!request.chaos.empty()) {
    return fail(std::move(response), ErrorCode::kInvalidRequest,
                "chaos injection requires a chaos-enabled supervised daemon "
                "(qfsd --worker-procs N --enable-chaos)");
  }

  // --- Source resolution + parse ---------------------------------------
  std::string source;
  std::string source_name = "<request>";
  const circuit::Circuit* circuit = request.circuit;
  if (circuit == nullptr) {
    qfs::Status status = resolve_source(request, config.max_source_bytes,
                                        source, source_name);
    if (!status.is_ok()) {
      ErrorCode code = status.code() == qfs::StatusCode::kResourceExhausted
                           ? ErrorCode::kResourceExhausted
                           : ErrorCode::kInvalidRequest;
      return fail(std::move(response), code, status.message());
    }
  } else if (!request.source_name.empty()) {
    source_name = request.source_name;
  }

  if (request.mode != RequestMode::kCompile) {
    response = run_lint(request, source, circuit, std::move(response));
    response.timing.total_ms = ms_since(start);
    return response;
  }

  circuit::Circuit local;
  if (circuit == nullptr) {
    auto parsed = qasm::parse(source);
    if (!parsed.is_ok()) {
      return fail(std::move(response), ErrorCode::kParseError,
                  parsed.status().to_string());
    }
    local = std::move(parsed).value();
    circuit = &local;
  }

  // --- Device + options ------------------------------------------------
  device::Device dev;
  ErrorCode device_code = ErrorCode::kInvalidRequest;
  qfs::Status status =
      resolve_device(request, dev, response.fault_note, device_code);
  if (!status.is_ok()) {
    return fail(std::move(response), device_code, status.message());
  }
  response.device_name = dev.name();

  mapper::MappingOptions options = request.options;
  if (request.recommend) {
    auto rec = mapper::recommend_mapping(profile::profile_circuit(*circuit));
    std::vector<int> keep_layout = std::move(options.initial_layout);
    bool keep_latency = options.compute_latency;
    int keep_sabre = options.sabre_refinement_rounds;
    options = rec.options;
    options.initial_layout = std::move(keep_layout);
    options.compute_latency = keep_latency;
    options.sabre_refinement_rounds = keep_sabre;
    response.recommend_note = "placer=" + options.placer +
                              " router=" + options.router + " (" +
                              rec.rationale + ")";
  }
  // The resilient pipeline deliberately accepts unknown strategies: its
  // fallback ladder catches the mapper's contract violation and climbs to a
  // configuration that works, which is the long-standing qfsc behaviour.
  // Only the direct pipeline, which runs exactly one attempt, rejects them
  // up front.
  const bool direct = request.pipeline == "direct";
  if (direct && !mapper::is_known_placer(options.placer)) {
    return fail(std::move(response), ErrorCode::kInvalidRequest,
                unknown_strategy("placer", options.placer,
                                 mapper::known_placer_names()));
  }
  if (direct && !mapper::is_known_router(options.router)) {
    return fail(std::move(response), ErrorCode::kInvalidRequest,
                unknown_strategy("router", options.router,
                                 mapper::known_router_names()));
  }
  if (!options.initial_layout.empty() &&
      static_cast<int>(options.initial_layout.size()) !=
          circuit->num_qubits()) {
    return fail(std::move(response), ErrorCode::kInvalidRequest,
                "initial_layout has " +
                    std::to_string(options.initial_layout.size()) +
                    " entries for a " +
                    std::to_string(circuit->num_qubits()) +
                    "-qubit circuit");
  }

  response.timing.parse_ms = ms_since(start);
  Clock::time_point compile_start = Clock::now();

  cache::CompileCache* cache =
      request.cache_policy == CachePolicy::kBypass ? nullptr : config.cache;

  // --- Compile ----------------------------------------------------------
  // One path for both pipelines. "direct" is rung 0 of the resilient ladder
  // on its own: the same map_circuit from a fresh Rng(seed), proved by the
  // ladder's validate_attempt like every other rung, cached under the same
  // per-attempt key.
  if (!direct && request.pipeline != "resilient") {
    return fail(std::move(response), ErrorCode::kInvalidRequest,
                "unknown pipeline '" + request.pipeline +
                    "' (resilient | direct)");
  }
  mapper::ResilientOptions resilient;
  resilient.base = options;
  resilient.max_attempts = direct ? 1 : request.max_attempts;
  resilient.seed = request.seed;
  // Per-request hit accounting: wrap the memo hooks rather than diffing
  // the cache's global counters, which other in-flight requests mutate
  // concurrently. Only a fresh compile is stored, so cache_hit is true
  // exactly when the returned mapping was read, and a store that follows a
  // hit means the ladder rejected that hit: a corrupt payload.
  mapper::AttemptMemo memo;
  bool memo_hit = false;
  if (cache != nullptr) {
    cache::Fingerprint base = cache::compile_fingerprint(
        qasm::to_qasm(*circuit), dev, options, request.seed);
    mapper::AttemptMemo inner;
    if (direct) {
      // The ladder's validate_attempt already proves every hit; checking
      // it in the lookup too would run the validator twice per hit.
      inner = cache::make_attempt_memo(*cache, base);
    } else {
      // Hits are revalidated against the source circuit: a semantically
      // corrupted artifact counts as a corrupt payload + miss and the rung
      // recompiles fresh.
      cache::MemoValidation validation;
      validation.source = circuit;
      validation.device = &dev;
      inner = cache::make_attempt_memo(*cache, base, validation);
    }
    memo.lookup = [&memo_hit, lookup = std::move(inner.lookup)](
                      const std::string& key, mapper::MappingResult* out) {
      memo_hit = lookup(key, out);
      return memo_hit;
    };
    memo.store = [&memo_hit, cache, store = std::move(inner.store)](
                     const std::string& key,
                     const mapper::MappingResult& result) {
      if (memo_hit) cache->count_corrupt_payload();
      memo_hit = false;
      store(key, result);
    };
    resilient.memo = &memo;
  }
  mapper::CompileAttemptLog attempt_log;
  auto compiled =
      mapper::compile_resilient(*circuit, dev, resilient, &attempt_log);
  if (!compiled.is_ok()) {
    response.attempt_log = mapper::attempt_log_to_string(attempt_log);
    return fail(std::move(response), ErrorCode::kCompileFailed,
                compiled.status().to_string());
  }
  if (attempt_log.size() > 1) {
    response.attempt_log = mapper::attempt_log_to_string(attempt_log);
  }
  mapper::ResilientResult result = std::move(compiled).value();
  response.mapping = std::move(result.mapping);
  response.has_mapping = true;
  response.placer_used = result.options_used.placer;
  response.router_used = result.options_used.router;
  response.seed_used = result.seed_used;
  response.cache_hit = memo_hit;

  response.timing.compile_ms = ms_since(compile_start);

  // --- Artifacts ---------------------------------------------------------
  if (request.want_digest) {
    response.mapped_digest =
        qfs::hash128(qasm::to_qasm(response.mapping.mapped)).hex();
  }
  if (request.emit_qasm) {
    response.mapped_qasm = qasm::to_qasm(response.mapping.mapped);
  }
  if (request.emit_cqasm) {
    response.mapped_cqasm = qasm::to_cqasm(response.mapping.mapped);
  }
  isa::TimedProgram timed;
  bool have_timed = false;
  if (request.emit_timed) {
    compiler::ScheduleOptions sched;
    sched.avoid_crosstalk = request.crosstalk_safe;
    auto schedule =
        compiler::asap_schedule(response.mapping.mapped, dev, sched);
    timed = isa::lower_to_timed_program(response.mapping.mapped, schedule);
    have_timed = true;
    response.timed_text = timed.to_text();
  }

  // --- Output verification (qfsc --verify-output / "verify_artifact") ----
  // Independent proof that what we are about to hand out still computes the
  // request's circuit: the permutation-tracking translation validator over
  // the mapping (and the emitted timed program, when there is one). A
  // failure here is by definition a compiler bug, not a bad request.
  if (request.verify_artifact) {
    analysis::TranslationArtifact artifact;
    artifact.mapped = &response.mapping.mapped;
    artifact.initial_layout = response.mapping.initial_layout;
    artifact.final_layout = response.mapping.final_layout;
    artifact.swaps_inserted = response.mapping.swaps_inserted;
    if (have_timed) artifact.timed = &timed;
    std::vector<analysis::Diagnostic> findings =
        analysis::validate_translation(*circuit, dev, artifact);
    if (analysis::has_errors(findings)) {
      response.diagnostics = std::move(findings);
      return fail(std::move(response), ErrorCode::kInternal,
                  "compiled artifact failed translation validation");
    }
  }
  response.timing.total_ms = ms_since(start);
  return response;
}

}  // namespace

bool CompileService::parse_device(const std::string& spec,
                                  device::Device& out, std::string& error) {
  // Legacy colon forms (line:N, grid:RxC, full:N) and file: topologies keep
  // their historical spellings and error messages; everything else resolves
  // through the backend registry ("name" or "name(params)" specs).
  if (starts_with(spec, "line:")) {
    int n = 0;
    if (!parse_int(spec.substr(5), n) || n < 1) {
      error = "bad line size in '" + spec + "'";
      return false;
    }
    out = device::line_device(n);
  } else if (starts_with(spec, "full:")) {
    int n = 0;
    if (!parse_int(spec.substr(5), n) || n < 1) {
      error = "bad size in '" + spec + "'";
      return false;
    }
    out = device::fully_connected_device(n);
  } else if (starts_with(spec, "file:")) {
    std::ifstream in(std::string(spec.substr(5)));
    if (!in) {
      error = "cannot open topology file '" + spec.substr(5) + "'";
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto topo = device::parse_topology(buffer.str());
    if (!topo.is_ok()) {
      error = topo.status().to_string();
      return false;
    }
    std::string name = topo.value().name();
    out = device::Device(name, std::move(topo).value(),
                         device::surface_code_gateset(), device::ErrorModel());
  } else if (starts_with(spec, "grid:")) {
    auto dims = split(spec.substr(5), 'x');
    int r = 0, c = 0;
    if (dims.size() != 2 || !parse_int(dims[0], r) || !parse_int(dims[1], c) ||
        r < 1 || c < 1) {
      error = "bad grid spec in '" + spec + "' (expected grid:RxC)";
      return false;
    }
    out = device::grid_device(r, c);
  } else {
    auto made = backends::make_device(spec);
    if (!made.is_ok()) {
      error = made.status().message();
      return false;
    }
    out = std::move(made).value();
  }
  return true;
}

CompileResponse CompileService::execute(const CompileRequest& request) const {
  try {
    return execute_impl(config_, request);
  } catch (const std::exception& e) {
    CompileResponse response;
    response.id = request.id;
    return fail(std::move(response), ErrorCode::kInternal,
                std::string("unexpected exception: ") + e.what());
  } catch (...) {
    CompileResponse response;
    response.id = request.id;
    return fail(std::move(response), ErrorCode::kInternal,
                "unexpected non-standard exception");
  }
}

}  // namespace qfs::service
