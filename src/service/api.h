// The unified compile API: one request/response contract for every qfs
// entrypoint (qfsc, the suite benches, the qfsd daemon and its clients).
//
// A CompileRequest says everything a compilation depends on — circuit,
// device + calibration/fault overrides, pipeline, mapping options, seed,
// cache policy, deadline — and a CompileResponse carries the typed outcome:
// a stable wire error taxonomy (ErrorCode) mapped onto the qfsc exit-code
// contract, the MappingResult metrics, lint diagnostics, cache hit/miss,
// and a timing breakdown. Both have canonical JSON forms; the daemon speaks
// them line-delimited over a socket, and offline tools construct the same
// structs in memory, so "the daemon returns exactly what qfsc prints" is a
// testable byte-level contract (see tools/service_contract_test.cmake).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "circuit/circuit.h"
#include "device/device.h"
#include "mapper/pipeline.h"
#include "support/json.h"
#include "support/status.h"

namespace qfs::service {

// ---------------------------------------------------------------------------
// Wire error taxonomy.
//
// One enum shared by daemon JSON responses and qfsc exit codes. The first
// four non-ok codes are the frozen PR 2/PR 4 contract (exit 1 = unusable
// input or configuration, 2 = compilation failed, 3 = lint/verify errors);
// the service-only codes extend the sequence without disturbing it. Names
// are part of the wire format: never reuse or renumber.
// ---------------------------------------------------------------------------
enum class ErrorCode {
  kOk = 0,
  kInvalidRequest,     ///< bad envelope, option, device or calibration
  kParseError,         ///< the QASM source did not parse
  kCompileFailed,      ///< every mapping attempt failed / circuit too wide
  kLintError,          ///< error-severity diagnostics in lint/verify mode
  kDeadlineExceeded,   ///< the request's deadline expired before completion
  kResourceExhausted,  ///< admission queue full or request over size limits
  kInternal,           ///< a bug: anything that escaped the layers above
};

/// Stable wire name ("ok", "invalid_request", ...).
const char* error_code_name(ErrorCode code);

/// Inverse of error_code_name; false on an unknown name.
bool error_code_from_name(std::string_view name, ErrorCode& out);

/// The qfsc exit code for a response code: 0 ok, 1 invalid_request |
/// parse_error, 2 compile_failed, 3 lint_error (the frozen PR 2/PR 4
/// contract), then 4 deadline_exceeded, 5 resource_exhausted, 6 internal.
int exit_code_for(ErrorCode code);

/// What the service should do with the request's circuit.
enum class RequestMode {
  kCompile,  ///< full pipeline; metrics + artifacts in the response
  kLint,     ///< device-independent static checks only
  kVerify,   ///< physical-stage checks against the request's device
};

const char* request_mode_name(RequestMode mode);
bool request_mode_from_name(std::string_view name, RequestMode& out);

/// Cache behaviour for one request.
enum class CachePolicy {
  kDefault,  ///< read and write the service's shared cache (if any)
  kBypass,   ///< compile fresh; neither read nor write
};

const char* cache_policy_name(CachePolicy policy);
bool cache_policy_from_name(std::string_view name, CachePolicy& out);

// ---------------------------------------------------------------------------
// CompileRequest
// ---------------------------------------------------------------------------
struct CompileRequest {
  /// Opaque client token echoed in the response ("" = none).
  std::string id;

  RequestMode mode = RequestMode::kCompile;

  /// The circuit, exactly one of: inline QASM text, a server-readable path,
  /// or (in-process callers only; never on the wire) a pre-parsed circuit.
  std::string qasm;
  std::string qasm_path;
  const circuit::Circuit* circuit = nullptr;  ///< borrowed, not owned

  /// Name used in rendered diagnostics ("" = derived from qasm_path or
  /// "<request>").
  std::string source_name;

  /// Device spec ("surface17", "line:20", "file:topo.txt", ...), or an
  /// in-process device object that overrides it (borrowed, not owned).
  std::string device = "surface17";
  const device::Device* device_obj = nullptr;

  /// Calibration overrides: inline file text, or a server-readable path.
  std::string calibration;
  std::string calibration_path;

  /// Fault-injection spec (device/faults.h), "" = none.
  std::string fault_spec;

  /// Mapping pipeline configuration (placer, router, SABRE rounds, latency).
  mapper::MappingOptions options;

  /// "resilient" (fallback ladder of up to `max_attempts` rungs, qfsc's
  /// default) or "direct" (rung 0 alone, the suite benches' path: strict
  /// placer/router names, one map_circuit attempt from Rng(seed), proved by
  /// the translation validator like every rung). Both key the cache per
  /// attempt, so a direct request and a resilient rung 0 with the same
  /// options and seed share one entry.
  std::string pipeline = "resilient";

  std::uint64_t seed = 2022;
  int max_attempts = 4;  ///< resilient-ladder length (direct runs one)

  /// Replace placer/router with the profile-based recommendation.
  bool recommend = false;

  /// Schedule emitted timed programs with crosstalk exclusion.
  bool crosstalk_safe = false;

  // Which artifacts to include in the response (metrics always come back).
  bool emit_qasm = false;
  bool emit_cqasm = false;
  bool emit_timed = false;
  /// Compute the canonical digest of the mapped circuit (on by default; the
  /// suite benches switch it off to keep the hot loop lean).
  bool want_digest = true;

  /// Run the translation validator (analysis/equiv.h) over the compiled
  /// artifact before responding: a compile whose output fails QFS101-QFS110
  /// comes back as an internal error with the findings attached instead of
  /// an invalid mapping. qfsc exposes this as --verify-output; qfsd honors
  /// it on every wire request.
  bool verify_artifact = false;

  CachePolicy cache_policy = CachePolicy::kDefault;

  /// Wall-clock budget in milliseconds from admission. Negative = none;
  /// 0 = already expired (useful for testing the deadline path).
  double deadline_ms = -1.0;

  /// Retry generation: 0 for the first send, incremented by the retrying
  /// Client so the daemon can count retries observed server-side. Encoded
  /// on the wire only when non-zero.
  int attempt = 0;

  /// Chaos-injection directive for fault-tolerance testing: "" (none,
  /// the only value the service accepts), or "hang" | "crash" | "exit",
  /// honoured exclusively by chaos-enabled supervised workers
  /// (`qfsd --worker-procs N --enable-chaos`). Anything else, or any
  /// non-empty value on an unsupervised daemon, is an invalid_request.
  std::string chaos;
};

// ---------------------------------------------------------------------------
// CompileResponse
// ---------------------------------------------------------------------------
struct TimingBreakdown {
  double queue_ms = 0.0;    ///< admission -> dispatch (daemon only)
  double parse_ms = 0.0;    ///< QASM parse + device/calibration setup
  double compile_ms = 0.0;  ///< mapping pipeline (or cache hit) time
  double total_ms = 0.0;    ///< service-side wall clock for the request
};

struct CompileResponse {
  std::string id;  ///< echoed from the request

  ErrorCode code = ErrorCode::kOk;
  /// Human-readable failure detail; rendered by qfsc as "qfsc: <message>".
  std::string error_message;

  bool ok() const { return code == ErrorCode::kOk; }

  /// Compile-mode result (has_mapping false in lint/verify mode or on
  /// failure).
  bool has_mapping = false;
  mapper::MappingResult mapping;

  /// Name of the device actually compiled for (post fault injection).
  std::string device_name;
  std::string placer_used;
  std::string router_used;
  std::uint64_t seed_used = 0;

  /// Lint/verify findings (also populated on lint-mode parse errors, per
  /// the QFS100 contract).
  std::vector<analysis::Diagnostic> diagnostics;

  /// Side-channel notes qfsc renders on stderr, byte-compatible with the
  /// pre-service output: "surface-97-degraded ..." fault summaries,
  /// "placer=... router=... (...)" recommendation rationale, and the
  /// multi-line resilient attempt log.
  std::string fault_note;
  std::string recommend_note;
  std::string attempt_log;

  /// True when the returned mapping was read from the shared cache. A hit
  /// the validator rejects is recompiled fresh and does not count.
  bool cache_hit = false;

  TimingBreakdown timing;

  /// Requested artifacts ("" when not requested).
  std::string mapped_qasm;
  std::string mapped_cqasm;
  std::string timed_text;

  /// hash128 of the canonical QASM of the mapped circuit (32 hex chars);
  /// the cross-entrypoint byte-identity anchor.
  std::string mapped_digest;
};

// ---------------------------------------------------------------------------
// Canonical JSON (de)serialization.
// ---------------------------------------------------------------------------

/// Encode a request for the wire. In-process borrowed pointers (circuit,
/// device_obj) cannot travel: circuits are rendered to canonical QASM;
/// encoding a device_obj request is a contract violation.
JsonValue request_to_json(const CompileRequest& request);

/// Decode and validate a request object. Unknown fields are rejected with
/// a did-you-mean suggestion; so are wrong field types and out-of-range
/// values. The error message is safe to echo to untrusted clients.
qfs::StatusOr<CompileRequest> request_from_json(const JsonValue& json);

/// Parse one line-delimited wire request (JSON text -> validated request).
qfs::StatusOr<CompileRequest> parse_request_line(std::string_view line);

JsonValue response_to_json(const CompileResponse& response);

/// Decode a response (loadgen, tests). Fields the encoder omits for brevity
/// come back as their defaults; every encoded field round-trips exactly.
qfs::StatusOr<CompileResponse> response_from_json(const JsonValue& json);

/// The mapping-metrics document qfsc has always printed for --emit-json
/// (device, placer/router, gate/depth/fidelity/latency metrics, layouts),
/// plus the mapped-circuit digest. Shared verbatim by the daemon response
/// ("metrics" member) so offline and service output are byte-identical.
JsonValue mapping_metrics_json(const CompileResponse& response);

/// Error payload for a malformed wire line that never became a request.
JsonValue error_response_json(ErrorCode code, const std::string& message,
                              const std::string& id = "");

}  // namespace qfs::service
