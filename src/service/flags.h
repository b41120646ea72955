// Shared command-line handling for everything that constructs a
// CompileRequest: qfsc, the suite benches, qfsd and qfsd_loadgen.
//
// Before the service layer existed, --jobs/--cache-dir/--seed/--placer/
// --router were parsed three times (qfsc's flag loop, bench::parse_jobs,
// bench::parse_cache_dir) with three divergent error messages. This header
// is the single implementation: a per-argument consumer for strict parsers
// that enumerate every flag (qfsc) and a whole-argv scanner for lenient ones
// that only pick out the shared set (benches). The strict parsers reject a
// near-miss flag with qfs::closest_match (support/strings.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace qfs::service {

/// Values of the request flags every qfs entrypoint understands.
struct RequestFlagValues {
  int jobs = 1;  ///< worker threads (0 = one per hardware thread)
  std::string cache_dir;
  std::uint64_t seed = 2022;
  std::string placer = "trivial";
  std::string router = "trivial";
  std::string device = "surface17";

  // Which of the above were given explicitly (callers with different
  // defaults apply only what the user actually set).
  bool jobs_set = false;
  bool cache_dir_set = false;
  bool seed_set = false;
  bool placer_set = false;
  bool router_set = false;
  bool device_set = false;
};

/// The flag spellings consume_request_flag recognises.
const std::vector<std::string>& shared_request_flags();

enum class FlagParse {
  kNotMine,   ///< argv[i] is not a shared request flag; untouched
  kConsumed,  ///< consumed argv[i] (and its value; i advanced past both)
  kError,     ///< a shared flag with a missing or malformed value
};

/// Try to consume argv[i] as one of the shared request flags. On kConsumed,
/// `i` is left on the last argument consumed (the caller's `++i` moves on);
/// on kError, `error` describes the problem ("bad --jobs value '-3'").
FlagParse consume_request_flag(int argc, char** argv, int& i,
                               RequestFlagValues& out, std::string& error);

/// Lenient whole-argv scan: consume every shared request flag, ignore
/// everything else (positional arguments, tool-specific flags). The suite
/// benches call this once instead of hand-rolling their own loops. The only
/// error is a malformed value for a recognised flag.
qfs::Status parse_request_flags(int argc, char** argv, RequestFlagValues& out);

}  // namespace qfs::service
