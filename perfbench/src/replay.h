// Traced replay of CompileService::execute.
//
// For each request the replay walks the same public calls the service
// makes for a compile-mode, resilient-pipeline, inline-QASM request —
// parse, device, fingerprint, the attempt memo (lookup, deserialize,
// revalidate), the fallback ladder (decompose, place, route, expand,
// schedule, validate), the memo store (serialize, store) and the output
// digest — and records a span around each one. The spans sit in the
// benchmark, not in the program, so the replay can drift from the service
// when the service's call sequence changes; traced_replay() detects that by comparing every
// request's digest, attempt count, cache hit and wall time with an
// untraced CompileService::execute of the same request.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common.h"
#include "service/api.h"

namespace perfbench {

/// The traced run shared by every workload: executes `requests` once
/// through an untraced CompileService and once through replay_execute,
/// each over a fresh cache from `make_cache`, checks replay fidelity, adds
/// the per-layer metrics to `report` and writes the spans to `span_path`.
void traced_replay(
    const std::vector<qfs::service::CompileRequest>& requests,
    const std::function<std::unique_ptr<qfs::cache::CompileCache>()>&
        make_cache,
    const std::string& span_path, Report& report);

}  // namespace perfbench
