#include "support/status.h"

namespace qfs {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
  }
  return "unknown";
}

std::string Status::to_string() const {
  if (is_ok()) return "ok";
  std::string s = status_code_name(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace qfs
