#include "service/flags.h"

#include <algorithm>

#include "support/strings.h"

namespace qfs::service {

const std::vector<std::string>& shared_request_flags() {
  static const std::vector<std::string> flags = {
      "--jobs", "--cache-dir", "--seed", "--placer", "--router", "--device"};
  return flags;
}

FlagParse consume_request_flag(int argc, char** argv, int& i,
                               RequestFlagValues& out, std::string& error) {
  const std::string arg = argv[i];
  auto is_shared = [&arg] {
    const auto& flags = shared_request_flags();
    return std::find(flags.begin(), flags.end(), arg) != flags.end();
  };
  if (!is_shared()) return FlagParse::kNotMine;
  if (i + 1 >= argc) {
    error = "missing value for " + arg;
    return FlagParse::kError;
  }
  const std::string value = argv[++i];
  auto bad_value = [&]() {
    error = "bad " + arg + " value '" + value + "'";
    return FlagParse::kError;
  };
  if (arg == "--jobs") {
    if (!qfs::parse_int(value, out.jobs) || out.jobs < 0) return bad_value();
    out.jobs_set = true;
  } else if (arg == "--cache-dir") {
    out.cache_dir = value;
    out.cache_dir_set = true;
  } else if (arg == "--seed") {
    int seed = 0;
    if (!qfs::parse_int(value, seed) || seed < 0) return bad_value();
    out.seed = static_cast<std::uint64_t>(seed);
    out.seed_set = true;
  } else if (arg == "--placer") {
    out.placer = value;
    out.placer_set = true;
  } else if (arg == "--router") {
    out.router = value;
    out.router_set = true;
  } else {  // --device
    out.device = value;
    out.device_set = true;
  }
  return FlagParse::kConsumed;
}

qfs::Status parse_request_flags(int argc, char** argv,
                                RequestFlagValues& out) {
  for (int i = 1; i < argc; ++i) {
    std::string error;
    if (consume_request_flag(argc, argv, i, out, error) == FlagParse::kError) {
      return qfs::invalid_argument(error);
    }
  }
  return qfs::Status::ok();
}

}  // namespace qfs::service
