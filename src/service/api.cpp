#include "service/api.h"

#include <limits>
#include <utility>

#include "qasm/writer.h"
#include "support/assert.h"
#include "support/strings.h"

namespace qfs::service {

namespace {

struct ErrorCodeName {
  ErrorCode code;
  const char* name;
};

constexpr ErrorCodeName kErrorCodeNames[] = {
    {ErrorCode::kOk, "ok"},
    {ErrorCode::kInvalidRequest, "invalid_request"},
    {ErrorCode::kParseError, "parse_error"},
    {ErrorCode::kCompileFailed, "compile_failed"},
    {ErrorCode::kLintError, "lint_error"},
    {ErrorCode::kDeadlineExceeded, "deadline_exceeded"},
    {ErrorCode::kResourceExhausted, "resource_exhausted"},
    {ErrorCode::kInternal, "internal"},
};

}  // namespace

const char* error_code_name(ErrorCode code) {
  for (const auto& entry : kErrorCodeNames) {
    if (entry.code == code) return entry.name;
  }
  return "internal";
}

bool error_code_from_name(std::string_view name, ErrorCode& out) {
  for (const auto& entry : kErrorCodeNames) {
    if (name == entry.name) {
      out = entry.code;
      return true;
    }
  }
  return false;
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return 0;
    case ErrorCode::kInvalidRequest: return 1;
    case ErrorCode::kParseError: return 1;
    case ErrorCode::kCompileFailed: return 2;
    case ErrorCode::kLintError: return 3;
    case ErrorCode::kDeadlineExceeded: return 4;
    case ErrorCode::kResourceExhausted: return 5;
    case ErrorCode::kInternal: return 6;
  }
  return 6;
}

const char* request_mode_name(RequestMode mode) {
  switch (mode) {
    case RequestMode::kCompile: return "compile";
    case RequestMode::kLint: return "lint";
    case RequestMode::kVerify: return "verify";
  }
  return "compile";
}

bool request_mode_from_name(std::string_view name, RequestMode& out) {
  if (name == "compile") {
    out = RequestMode::kCompile;
  } else if (name == "lint") {
    out = RequestMode::kLint;
  } else if (name == "verify") {
    out = RequestMode::kVerify;
  } else {
    return false;
  }
  return true;
}

const char* cache_policy_name(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kDefault: return "default";
    case CachePolicy::kBypass: return "bypass";
  }
  return "default";
}

bool cache_policy_from_name(std::string_view name, CachePolicy& out) {
  if (name == "default") {
    out = CachePolicy::kDefault;
  } else if (name == "bypass") {
    out = CachePolicy::kBypass;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request encoding
// ---------------------------------------------------------------------------

namespace {

/// Every member a wire request may carry, for unknown-field did-you-mean.
const std::vector<std::string>& known_request_fields() {
  static const std::vector<std::string> fields = {
      "id",          "mode",           "qasm",
      "qasm_path",   "source_name",    "device",
      "calibration", "calibration_path", "inject_faults",
      "placer",      "router",         "sabre",
      "initial_layout", "compute_latency", "pipeline",
      "seed",        "max_attempts",   "recommend",
      "crosstalk_safe", "emit_qasm",   "emit_cqasm",
      "emit_timed",  "digest",         "cache",
      "deadline_ms", "attempt",        "chaos",
      "verify_artifact",
  };
  return fields;
}

}  // namespace

JsonValue request_to_json(const CompileRequest& request) {
  QFS_ASSERT_MSG(request.device_obj == nullptr,
                 "an in-process device object cannot be serialized");
  JsonValue doc = JsonValue::object();
  if (!request.id.empty()) doc.set("id", JsonValue::string(request.id));
  doc.set("mode", JsonValue::string(request_mode_name(request.mode)));
  if (request.circuit != nullptr) {
    doc.set("qasm", JsonValue::string(qasm::to_qasm(*request.circuit)));
  } else if (!request.qasm.empty()) {
    doc.set("qasm", JsonValue::string(request.qasm));
  } else if (!request.qasm_path.empty()) {
    doc.set("qasm_path", JsonValue::string(request.qasm_path));
  }
  if (!request.source_name.empty()) {
    doc.set("source_name", JsonValue::string(request.source_name));
  }
  doc.set("device", JsonValue::string(request.device));
  if (!request.calibration.empty()) {
    doc.set("calibration", JsonValue::string(request.calibration));
  }
  if (!request.calibration_path.empty()) {
    doc.set("calibration_path", JsonValue::string(request.calibration_path));
  }
  if (!request.fault_spec.empty()) {
    doc.set("inject_faults", JsonValue::string(request.fault_spec));
  }
  doc.set("placer", JsonValue::string(request.options.placer));
  doc.set("router", JsonValue::string(request.options.router));
  if (request.options.sabre_refinement_rounds != 0) {
    doc.set("sabre",
            JsonValue::integer(request.options.sabre_refinement_rounds));
  }
  if (!request.options.initial_layout.empty()) {
    JsonValue layout = JsonValue::array();
    for (int p : request.options.initial_layout) {
      layout.push_back(JsonValue::integer(p));
    }
    doc.set("initial_layout", std::move(layout));
  }
  if (request.options.compute_latency) {
    doc.set("compute_latency", JsonValue::boolean(true));
  }
  doc.set("pipeline", JsonValue::string(request.pipeline));
  doc.set("seed", JsonValue::integer(
                      static_cast<long long>(request.seed)));
  if (request.max_attempts != 4) {
    doc.set("max_attempts", JsonValue::integer(request.max_attempts));
  }
  if (request.recommend) doc.set("recommend", JsonValue::boolean(true));
  if (request.crosstalk_safe) {
    doc.set("crosstalk_safe", JsonValue::boolean(true));
  }
  if (request.emit_qasm) doc.set("emit_qasm", JsonValue::boolean(true));
  if (request.emit_cqasm) doc.set("emit_cqasm", JsonValue::boolean(true));
  if (request.emit_timed) doc.set("emit_timed", JsonValue::boolean(true));
  if (!request.want_digest) doc.set("digest", JsonValue::boolean(false));
  if (request.verify_artifact) {
    doc.set("verify_artifact", JsonValue::boolean(true));
  }
  if (request.cache_policy != CachePolicy::kDefault) {
    doc.set("cache", JsonValue::string(cache_policy_name(
                         request.cache_policy)));
  }
  if (request.deadline_ms >= 0) {
    doc.set("deadline_ms", JsonValue::number(request.deadline_ms));
  }
  if (request.attempt != 0) {
    doc.set("attempt", JsonValue::integer(request.attempt));
  }
  if (!request.chaos.empty()) {
    doc.set("chaos", JsonValue::string(request.chaos));
  }
  return doc;
}

namespace {

qfs::Status field_error(const std::string& field, const std::string& what) {
  return qfs::invalid_argument("request field '" + field + "': " + what);
}

qfs::Status read_string(const JsonValue& value, const std::string& field,
                        std::string& out) {
  if (!value.is_string()) return field_error(field, "expected a string");
  out = value.as_string();
  return qfs::Status::ok();
}

qfs::Status read_bool(const JsonValue& value, const std::string& field,
                      bool& out) {
  if (!value.is_bool()) return field_error(field, "expected a boolean");
  out = value.as_bool();
  return qfs::Status::ok();
}

qfs::Status read_int(const JsonValue& value, const std::string& field,
                     long long min, long long max, long long& out) {
  if (!value.is_integer()) return field_error(field, "expected an integer");
  long long v = value.as_integer();
  if (v < min || v > max) {
    return field_error(field, "value " + std::to_string(v) +
                                  " out of range [" + std::to_string(min) +
                                  ", " + std::to_string(max) + "]");
  }
  out = v;
  return qfs::Status::ok();
}

}  // namespace

qfs::StatusOr<CompileRequest> request_from_json(const JsonValue& json) {
  if (!json.is_object()) {
    return qfs::invalid_argument("request must be a JSON object");
  }
  CompileRequest request;
  for (const auto& [field, value] : json.members()) {
    qfs::Status status = qfs::Status::ok();
    if (field == "id") {
      if (value.is_integer()) {
        request.id = std::to_string(value.as_integer());
      } else {
        status = read_string(value, field, request.id);
      }
    } else if (field == "mode") {
      std::string name;
      status = read_string(value, field, name);
      if (status.is_ok() && !request_mode_from_name(name, request.mode)) {
        status = field_error(field, "unknown mode '" + name +
                                        "' (compile | lint | verify)");
      }
    } else if (field == "qasm") {
      status = read_string(value, field, request.qasm);
    } else if (field == "qasm_path") {
      status = read_string(value, field, request.qasm_path);
    } else if (field == "source_name") {
      status = read_string(value, field, request.source_name);
    } else if (field == "device") {
      status = read_string(value, field, request.device);
    } else if (field == "calibration") {
      status = read_string(value, field, request.calibration);
    } else if (field == "calibration_path") {
      status = read_string(value, field, request.calibration_path);
    } else if (field == "inject_faults") {
      status = read_string(value, field, request.fault_spec);
    } else if (field == "placer") {
      status = read_string(value, field, request.options.placer);
    } else if (field == "router") {
      status = read_string(value, field, request.options.router);
    } else if (field == "sabre") {
      long long v = 0;
      status = read_int(value, field, 0, 1000, v);
      request.options.sabre_refinement_rounds = static_cast<int>(v);
    } else if (field == "initial_layout") {
      if (!value.is_array()) {
        status = field_error(field, "expected an array of integers");
      } else {
        for (std::size_t i = 0; status.is_ok() && i < value.size(); ++i) {
          long long v = 0;
          status = read_int(value.at(i), field, 0, 1 << 20, v);
          if (status.is_ok()) {
            request.options.initial_layout.push_back(static_cast<int>(v));
          }
        }
      }
    } else if (field == "compute_latency") {
      status = read_bool(value, field, request.options.compute_latency);
    } else if (field == "pipeline") {
      status = read_string(value, field, request.pipeline);
    } else if (field == "seed") {
      long long v = 0;
      status = read_int(value, field, 0,
                        std::numeric_limits<long long>::max(), v);
      request.seed = static_cast<std::uint64_t>(v);
    } else if (field == "max_attempts") {
      long long v = 0;
      status = read_int(value, field, 1, 1000, v);
      request.max_attempts = static_cast<int>(v);
    } else if (field == "recommend") {
      status = read_bool(value, field, request.recommend);
    } else if (field == "crosstalk_safe") {
      status = read_bool(value, field, request.crosstalk_safe);
    } else if (field == "emit_qasm") {
      status = read_bool(value, field, request.emit_qasm);
    } else if (field == "emit_cqasm") {
      status = read_bool(value, field, request.emit_cqasm);
    } else if (field == "emit_timed") {
      status = read_bool(value, field, request.emit_timed);
    } else if (field == "digest") {
      status = read_bool(value, field, request.want_digest);
    } else if (field == "verify_artifact") {
      status = read_bool(value, field, request.verify_artifact);
    } else if (field == "cache") {
      std::string name;
      status = read_string(value, field, name);
      if (status.is_ok() &&
          !cache_policy_from_name(name, request.cache_policy)) {
        status = field_error(field, "unknown cache policy '" + name +
                                        "' (default | bypass)");
      }
    } else if (field == "deadline_ms") {
      if (!value.is_number()) {
        status = field_error(field, "expected a number");
      } else {
        request.deadline_ms = value.as_number();
        if (request.deadline_ms < 0) {
          status = field_error(field, "must be >= 0");
        }
      }
    } else if (field == "attempt") {
      long long v = 0;
      status = read_int(value, field, 0, 1000, v);
      request.attempt = static_cast<int>(v);
    } else if (field == "chaos") {
      status = read_string(value, field, request.chaos);
      if (status.is_ok() && !request.chaos.empty() &&
          request.chaos != "hang" && request.chaos != "crash" &&
          request.chaos != "exit") {
        status = field_error(field, "unknown chaos directive '" +
                                        request.chaos +
                                        "' (hang | crash | exit)");
      }
    } else {
      std::string message = "unknown request field '" + field + "'";
      std::string suggestion = closest_match(field, known_request_fields());
      if (!suggestion.empty()) {
        message += " (did you mean '" + suggestion + "'?)";
      }
      return qfs::invalid_argument(message);
    }
    if (!status.is_ok()) return status;
  }
  if (request.qasm.empty() && request.qasm_path.empty()) {
    return qfs::invalid_argument(
        "request carries no circuit: set 'qasm' or 'qasm_path'");
  }
  if (!request.qasm.empty() && !request.qasm_path.empty()) {
    return qfs::invalid_argument(
        "request sets both 'qasm' and 'qasm_path'; pick one");
  }
  return request;
}

qfs::StatusOr<CompileRequest> parse_request_line(std::string_view line) {
  auto json = JsonValue::parse(line);
  if (!json.is_ok()) return json.status();
  return request_from_json(json.value());
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

JsonValue mapping_metrics_json(const CompileResponse& response) {
  const mapper::MappingResult& result = response.mapping;
  JsonValue layouts = JsonValue::object();
  JsonValue init = JsonValue::array();
  for (int p : result.initial_layout) init.push_back(JsonValue::integer(p));
  JsonValue fin = JsonValue::array();
  for (int p : result.final_layout) fin.push_back(JsonValue::integer(p));
  layouts.set("initial", std::move(init)).set("final", std::move(fin));

  JsonValue doc = JsonValue::object();
  doc.set("device", JsonValue::string(response.device_name))
      .set("placer", JsonValue::string(response.placer_used))
      .set("router", JsonValue::string(response.router_used))
      .set("gates_before", JsonValue::integer(result.gates_before))
      .set("gates_after", JsonValue::integer(result.gates_after))
      .set("swaps_inserted", JsonValue::integer(result.swaps_inserted))
      .set("gate_overhead_pct", JsonValue::number(result.gate_overhead_pct))
      .set("depth_before", JsonValue::integer(result.depth_before))
      .set("depth_after", JsonValue::integer(result.depth_after))
      .set("fidelity_before", JsonValue::number(result.fidelity_before))
      .set("fidelity_after", JsonValue::number(result.fidelity_after))
      .set("fidelity_decrease_pct",
           JsonValue::number(result.fidelity_decrease_pct))
      .set("latency_before_ns", JsonValue::number(result.latency_before_ns))
      .set("latency_after_ns", JsonValue::number(result.latency_after_ns));
  if (!response.mapped_digest.empty()) {
    doc.set("mapped_digest", JsonValue::string(response.mapped_digest));
  }
  doc.set("layouts", std::move(layouts));
  return doc;
}

JsonValue response_to_json(const CompileResponse& response) {
  JsonValue doc = JsonValue::object();
  if (!response.id.empty()) doc.set("id", JsonValue::string(response.id));
  doc.set("ok", JsonValue::boolean(response.ok()));
  doc.set("code", JsonValue::string(error_code_name(response.code)));
  if (!response.error_message.empty()) {
    doc.set("error", JsonValue::string(response.error_message));
  }
  if (response.has_mapping) {
    doc.set("metrics", mapping_metrics_json(response));
    doc.set("seed_used", JsonValue::integer(
                             static_cast<long long>(response.seed_used)));
  }
  if (!response.diagnostics.empty()) {
    doc.set("diagnostics", analysis::diagnostics_to_json(
                               response.diagnostics));
  }
  if (!response.fault_note.empty() || !response.recommend_note.empty() ||
      !response.attempt_log.empty()) {
    JsonValue notes = JsonValue::object();
    if (!response.fault_note.empty()) {
      notes.set("fault", JsonValue::string(response.fault_note));
    }
    if (!response.recommend_note.empty()) {
      notes.set("recommendation", JsonValue::string(response.recommend_note));
    }
    if (!response.attempt_log.empty()) {
      notes.set("attempt_log", JsonValue::string(response.attempt_log));
    }
    doc.set("notes", std::move(notes));
  }
  doc.set("cache_hit", JsonValue::boolean(response.cache_hit));
  JsonValue timing = JsonValue::object();
  timing.set("queue_ms", JsonValue::number(response.timing.queue_ms))
      .set("parse_ms", JsonValue::number(response.timing.parse_ms))
      .set("compile_ms", JsonValue::number(response.timing.compile_ms))
      .set("total_ms", JsonValue::number(response.timing.total_ms));
  doc.set("timing", std::move(timing));
  if (!response.mapped_qasm.empty()) {
    doc.set("mapped_qasm", JsonValue::string(response.mapped_qasm));
  }
  if (!response.mapped_cqasm.empty()) {
    doc.set("mapped_cqasm", JsonValue::string(response.mapped_cqasm));
  }
  if (!response.timed_text.empty()) {
    doc.set("timed_text", JsonValue::string(response.timed_text));
  }
  return doc;
}

namespace {

qfs::Status decode_metrics(const JsonValue& metrics, CompileResponse& out) {
  if (!metrics.is_object()) {
    return qfs::parse_error("response 'metrics' is not an object");
  }
  auto str = [&metrics](const char* key, std::string& field) {
    const JsonValue* v = metrics.find(key);
    if (v != nullptr && v->is_string()) field = v->as_string();
  };
  auto integer = [&metrics](const char* key, int& field) {
    const JsonValue* v = metrics.find(key);
    if (v != nullptr && v->is_integer()) {
      field = static_cast<int>(v->as_integer());
    }
  };
  auto number = [&metrics](const char* key, double& field) {
    const JsonValue* v = metrics.find(key);
    if (v != nullptr && v->is_number()) field = v->as_number();
  };
  str("device", out.device_name);
  str("placer", out.placer_used);
  str("router", out.router_used);
  str("mapped_digest", out.mapped_digest);
  mapper::MappingResult& m = out.mapping;
  integer("gates_before", m.gates_before);
  integer("gates_after", m.gates_after);
  integer("swaps_inserted", m.swaps_inserted);
  number("gate_overhead_pct", m.gate_overhead_pct);
  integer("depth_before", m.depth_before);
  integer("depth_after", m.depth_after);
  number("fidelity_before", m.fidelity_before);
  number("fidelity_after", m.fidelity_after);
  number("fidelity_decrease_pct", m.fidelity_decrease_pct);
  number("latency_before_ns", m.latency_before_ns);
  number("latency_after_ns", m.latency_after_ns);
  const JsonValue* layouts = metrics.find("layouts");
  if (layouts != nullptr && layouts->is_object()) {
    auto layout = [&layouts](const char* key, std::vector<int>& field) {
      const JsonValue* arr = layouts->find(key);
      if (arr == nullptr || !arr->is_array()) return;
      for (std::size_t i = 0; i < arr->size(); ++i) {
        if (arr->at(i).is_integer()) {
          field.push_back(static_cast<int>(arr->at(i).as_integer()));
        }
      }
    };
    layout("initial", m.initial_layout);
    layout("final", m.final_layout);
  }
  out.has_mapping = true;
  return qfs::Status::ok();
}

}  // namespace

qfs::StatusOr<CompileResponse> response_from_json(const JsonValue& json) {
  if (!json.is_object()) {
    return qfs::parse_error("response must be a JSON object");
  }
  CompileResponse response;
  const JsonValue* id = json.find("id");
  if (id != nullptr && id->is_string()) response.id = id->as_string();
  const JsonValue* code = json.find("code");
  if (code == nullptr || !code->is_string() ||
      !error_code_from_name(code->as_string(), response.code)) {
    return qfs::parse_error("response carries no valid 'code'");
  }
  const JsonValue* error = json.find("error");
  if (error != nullptr && error->is_string()) {
    response.error_message = error->as_string();
  }
  const JsonValue* metrics = json.find("metrics");
  if (metrics != nullptr) {
    qfs::Status status = decode_metrics(*metrics, response);
    if (!status.is_ok()) return status;
  }
  const JsonValue* seed_used = json.find("seed_used");
  if (seed_used != nullptr && seed_used->is_integer()) {
    response.seed_used = static_cast<std::uint64_t>(seed_used->as_integer());
  }
  const JsonValue* diagnostics = json.find("diagnostics");
  if (diagnostics != nullptr) {
    auto decoded = analysis::diagnostics_from_json(*diagnostics);
    if (!decoded.is_ok()) return decoded.status();
    response.diagnostics = std::move(decoded).value();
  }
  const JsonValue* notes = json.find("notes");
  if (notes != nullptr && notes->is_object()) {
    auto note = [&notes](const char* key, std::string& field) {
      const JsonValue* v = notes->find(key);
      if (v != nullptr && v->is_string()) field = v->as_string();
    };
    note("fault", response.fault_note);
    note("recommendation", response.recommend_note);
    note("attempt_log", response.attempt_log);
  }
  const JsonValue* cache_hit = json.find("cache_hit");
  if (cache_hit != nullptr && cache_hit->is_bool()) {
    response.cache_hit = cache_hit->as_bool();
  }
  const JsonValue* timing = json.find("timing");
  if (timing != nullptr && timing->is_object()) {
    auto number = [&timing](const char* key, double& field) {
      const JsonValue* v = timing->find(key);
      if (v != nullptr && v->is_number()) field = v->as_number();
    };
    number("queue_ms", response.timing.queue_ms);
    number("parse_ms", response.timing.parse_ms);
    number("compile_ms", response.timing.compile_ms);
    number("total_ms", response.timing.total_ms);
  }
  auto text = [&json](const char* key, std::string& field) {
    const JsonValue* v = json.find(key);
    if (v != nullptr && v->is_string()) field = v->as_string();
  };
  text("mapped_qasm", response.mapped_qasm);
  text("mapped_cqasm", response.mapped_cqasm);
  text("timed_text", response.timed_text);
  return response;
}

JsonValue error_response_json(ErrorCode code, const std::string& message,
                              const std::string& id) {
  CompileResponse response;
  response.id = id;
  response.code = code;
  response.error_message = message;
  return response_to_json(response);
}

}  // namespace qfs::service
