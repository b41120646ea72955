// qfsd_loadgen — load generator, chaos harness and wire client for qfsd.
//
// Modes:
//
//   Closed-loop load (default): N client connections fire a total request
//   budget at the daemon in pipelined bursts, match responses by id, and
//   report p50/p99 latency, throughput and cache-hit counts — optionally
//   as BENCH_service JSON. Self-throttled: a slow daemon slows the
//   clients, so overload never shows up in the tail. Exit code 0 only
//   when every connection survived and every response came back ok.
//
//   Open-loop load (--rate R): requests arrive on a fixed schedule of R
//   per second regardless of how fast the daemon answers, and latency is
//   measured from each request's *scheduled* arrival time (wrk2-style, so
//   queueing delay under overload is charged to the tail instead of being
//   silently absorbed — no coordinated omission). Overload shows up as
//   shed/deadline-expired counts, which are reported and recorded but are
//   not failures.
//
//   Chaos storm (--chaos, needs --spawn): the open-loop load (every request
//   due at once when --rate is 0) against a supervised daemon spawned with
//   --enable-chaos, while every fault class the supervision layer claims to
//   survive is injected from the one --seed:
//     - SIGKILL of a random live worker (pids read off the stats op) every
//       150 ms for the whole run;
//     - hang/crash/exit directives on 15% of the requests (a hang runs
//       into the per-request watchdog);
//     - malformed frames (non-JSON garbage, JSON non-objects, unknown
//       fields), oversized frames and mid-write disconnects.
//   A fault-free warm-up compiles each circuit once first. The run passes
//   only when: every request is answered exactly once; no load connection
//   is lost (worker death is not connection death); every ok result of a
//   clean request carries a digest, one per circuit across the whole run;
//   the warm-up is all ok; every complete malformed frame earns a typed
//   error; the daemon answers stats after the storm and exits 0; and the
//   chaos really happened (faults injected, worker deaths observed,
//   workers restarted).
//
//   --once <file>: send one compile request and print the response's
//   "metrics" document verbatim, pretty-printed. Byte-identical to
//   `qfsc --emit-json` stdout for the same flags — the cross-entrypoint
//   contract pinned by tools/service_contract_test.cmake.
//
//   --spawn <qfsd>: fork/exec a private daemon on a scratch Unix socket
//   (forwarding every --spawn-arg), run the selected mode against it, then
//   ask it to shut down and reap it. Makes ctest self-contained.
//
//   qfsd_loadgen --spawn $(which qfsd) --clients 8 --requests 100 a.qasm
//   qfsd_loadgen --spawn ./qfsd --spawn-arg --worker-procs --spawn-arg 2
//                --rate 200 --requests 400 --retries 3 a.qasm
//   qfsd_loadgen --spawn ./qfsd --spawn-arg --worker-procs --spawn-arg 2
//                --chaos --seed 2022 --deadline-ms 8000 --retries 4 a.qasm
//   qfsd_loadgen --connect unix:/tmp/qfsd.sock --once qft4.qasm
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/api.h"
#include "service/client.h"
#include "service/flags.h"
#include "stats/descriptive.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"
#include "support/timer.h"

namespace {

using namespace qfs;
using Clock = qfs::MonotonicClock;

// ---------------------------------------------------------------------------
// Options and request construction
// ---------------------------------------------------------------------------

struct LoadgenOptions {
  std::string connect;          // existing endpoint ("" = need --spawn)
  std::string spawn;            // path to a qfsd binary to run privately
  std::vector<std::string> spawn_args;  // forwarded to the spawned daemon
  std::string once_path;        // --once: single-request contract mode
  int clients = 8;
  int requests = 100;           // total across all clients
  int burst = 4;                // closed-loop: pipelined requests per burst
  double rate = 0.0;            // > 0: open-loop arrivals per second
  int retries = 1;              // client attempts per request (1 = no retry)
  double deadline_ms = -1.0;
  bool chaos = false;           // fault storm against a chaos-enabled daemon
  bool require_warm_hits = false;
  std::string bench_json;       // "" = don't write
  service::RequestFlagValues shared;  // --device/--placer/--router/--seed
  std::vector<std::string> qasm_paths;
};

qfs::StatusOr<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return qfs::invalid_argument("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The compile request every mode sends: mirrors the qfsc defaults so the
/// daemon's answers are comparable with the offline tool.
service::CompileRequest base_request(const LoadgenOptions& opts,
                                     std::string qasm_text,
                                     const std::string& source_name) {
  service::CompileRequest request;
  request.qasm = std::move(qasm_text);
  request.source_name = source_name;
  request.device = opts.shared.device;
  request.options.placer = opts.shared.placer;
  request.options.router = opts.shared.router;
  request.options.compute_latency = true;
  request.seed = opts.shared.seed;
  request.deadline_ms = opts.deadline_ms;
  return request;
}

service::RetryPolicy retry_policy(const LoadgenOptions& opts) {
  service::RetryPolicy policy;
  policy.max_attempts = opts.retries;
  return policy;
}

// ---------------------------------------------------------------------------
// Server-side stats surfacing (supervision counters)
// ---------------------------------------------------------------------------

/// Fetch {"op":"stats"}. Returns the raw stats doc (null JsonValue when the
/// daemon does not answer).
JsonValue fetch_stats(const std::string& endpoint) {
  service::Client client(endpoint);
  auto stats = client.op("stats");
  if (!stats.is_ok()) return JsonValue::null();
  return std::move(stats).value();
}

/// The supervisor's `key` counter out of a stats doc (0 when the daemon
/// runs no supervisor).
long long supervisor_count(const JsonValue& stats, const char* key) {
  const JsonValue* sup = stats.is_object() ? stats.find("supervisor") : nullptr;
  const JsonValue* v = sup != nullptr && sup->is_object() ? sup->find(key)
                                                          : nullptr;
  return v != nullptr && v->is_integer() ? v->as_integer() : 0;
}

void report_server_stats(const JsonValue& stats) {
  if (!stats.is_object()) return;
  const JsonValue* server = stats.find("server");
  if (server != nullptr && server->is_object()) {
    const JsonValue* retries = server->find("retries_observed");
    if (retries != nullptr && retries->is_integer()) {
      std::cerr << "qfsd_loadgen: server observed " << retries->as_integer()
                << " retried requests\n";
    }
  }
  if (stats.find("supervisor") != nullptr) {
    std::cerr << "qfsd_loadgen: supervisor: "
              << supervisor_count(stats, "restarts") << " worker restarts ("
              << supervisor_count(stats, "crashes") << " crashes, "
              << supervisor_count(stats, "hung_killed") << " hung-killed), "
              << supervisor_count(stats, "breaker_trips") << " breaker trips, "
              << supervisor_count(stats, "shed") << " requests shed\n";
  }
}

// ---------------------------------------------------------------------------
// --once (byte-identity mode)
// ---------------------------------------------------------------------------

int run_once(const LoadgenOptions& opts, const std::string& endpoint) {
  auto source = read_file(opts.once_path);
  if (!source.is_ok()) {
    std::cerr << "qfsd_loadgen: " << source.status().message() << "\n";
    return 1;
  }
  service::CompileRequest request =
      base_request(opts, std::move(source).value(), opts.once_path);
  request.id = "once";
  service::Client client(endpoint, retry_policy(opts));
  service::RetryStats retry_stats;
  service::CompileResponse response = client.call(request, &retry_stats);
  if (client.last_response_line().empty()) {
    std::cerr << "qfsd_loadgen: connection dropped before a response\n";
    return 1;
  }
  if (!response.ok()) {
    std::cerr << "qfsd_loadgen: " << service::error_code_name(response.code)
              << ": " << response.error_message << "\n";
    return service::exit_code_for(response.code);
  }
  // Print the wire document verbatim (not a re-encoded struct): this is
  // exactly what `qfsc --emit-json` prints for the same compile.
  auto json = JsonValue::parse(client.last_response_line());
  const JsonValue* metrics =
      json.is_ok() && json.value().is_object() ? json.value().find("metrics")
                                               : nullptr;
  if (metrics == nullptr) {
    std::cerr << "qfsd_loadgen: response carries no metrics\n";
    return 1;
  }
  std::cout << metrics->to_pretty_string() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Load statistics
// ---------------------------------------------------------------------------

struct LoadStats {
  std::vector<double> latencies_ms;
  long long ok = 0;
  long long failed = 0;           ///< every non-ok response
  long long shed = 0;             ///< ...of which resource_exhausted
  long long deadline_expired = 0; ///< ...of which deadline_exceeded
  long long cache_hits = 0;
  long long retries = 0;          ///< client-side retry attempts
  long long dropped_connections = 0;
  long long digest_conflicts = 0; ///< a circuit compiled to two digests
  long long missing_digests = 0;  ///< clean ok result without a digest
  std::map<std::string, std::string> digest_by_source;  ///< first seen
};

/// Record the digest of a clean (directive-free) request's ok result: one
/// digest per circuit, crashes and retries included.
void record_digest(LoadStats& stats, const std::string& source,
                   const std::string& digest) {
  if (digest.empty()) {
    ++stats.missing_digests;
    return;
  }
  auto [it, inserted] = stats.digest_by_source.emplace(source, digest);
  if (!inserted && it->second != digest) ++stats.digest_conflicts;
}

void merge_into(LoadStats& stats, std::mutex& mu, LoadStats local) {
  std::lock_guard<std::mutex> lock(mu);
  stats.ok += local.ok;
  stats.failed += local.failed;
  stats.shed += local.shed;
  stats.deadline_expired += local.deadline_expired;
  stats.cache_hits += local.cache_hits;
  stats.retries += local.retries;
  stats.dropped_connections += local.dropped_connections;
  stats.digest_conflicts += local.digest_conflicts;
  stats.missing_digests += local.missing_digests;
  for (const auto& [source, digest] : local.digest_by_source) {
    record_digest(stats, source, digest);
  }
  stats.latencies_ms.insert(stats.latencies_ms.end(),
                            local.latencies_ms.begin(),
                            local.latencies_ms.end());
}

void count_response(LoadStats& local, const service::CompileResponse& resp) {
  if (resp.ok()) {
    ++local.ok;
  } else {
    ++local.failed;
    if (resp.code == service::ErrorCode::kResourceExhausted) ++local.shed;
    if (resp.code == service::ErrorCode::kDeadlineExceeded) {
      ++local.deadline_expired;
    }
  }
  if (resp.cache_hit) ++local.cache_hits;
}

// ---------------------------------------------------------------------------
// Closed-loop mode (pipelined bursts, self-throttled)
// ---------------------------------------------------------------------------

/// One client connection: its slice of the request budget, sent in
/// pipelined bursts, responses matched by id. Raw sockets rather than the
/// retrying Client: pipelining needs out-of-order completion, and the
/// closed-loop contract ("every request answered ok") wants failures
/// surfaced, not retried away.
void run_client_closed(const std::string& endpoint,
                       const std::vector<service::CompileRequest>& requests,
                       int burst, LoadStats& stats, std::mutex& stats_mu) {
  std::string error;
  int fd = service::connect_endpoint(endpoint, error);
  if (fd < 0) {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++stats.dropped_connections;
    return;
  }
  service::LineReader reader(fd);
  LoadStats local;
  std::size_t next_to_send = 0;
  std::vector<std::pair<std::string, Clock::time_point>> inflight;
  bool alive = true;
  while (alive && (next_to_send < requests.size() || !inflight.empty())) {
    // Fire one burst...
    while (next_to_send < requests.size() &&
           inflight.size() < static_cast<std::size_t>(burst)) {
      const service::CompileRequest& request = requests[next_to_send];
      std::string line = service::request_to_json(request).to_string() + "\n";
      inflight.emplace_back(request.id, Clock::now());
      ++next_to_send;
      if (!service::send_all(fd, line)) {
        alive = false;
        ++local.dropped_connections;
        break;
      }
    }
    // ...then drain responses until the window has room again.
    while (alive && !inflight.empty() &&
           (inflight.size() >= static_cast<std::size_t>(burst) ||
            next_to_send >= requests.size())) {
      std::string line;
      if (!reader.next(line)) {
        alive = false;
        ++local.dropped_connections;
        break;
      }
      auto json = JsonValue::parse(line);
      auto decoded =
          json.is_ok() && json.value().is_object()
              ? service::response_from_json(json.value())
              : qfs::StatusOr<service::CompileResponse>(
                    qfs::parse_error("malformed response line"));
      if (!decoded.is_ok()) {
        ++local.failed;  // unframed garbage: count it, keep draining
        continue;
      }
      const service::CompileResponse& resp = decoded.value();
      auto it = std::find_if(inflight.begin(), inflight.end(),
                             [&resp](const auto& entry) {
                               return entry.first == resp.id;
                             });
      if (it == inflight.end()) {
        ++local.failed;  // unmatched response: count it, keep draining
        continue;
      }
      local.latencies_ms.push_back(ms_since(it->second));
      inflight.erase(it);
      count_response(local, resp);
    }
  }
  local.failed += static_cast<long long>(inflight.size());
  ::close(fd);
  merge_into(stats, stats_mu, std::move(local));
}

// ---------------------------------------------------------------------------
// Open-loop mode (fixed arrival rate)
// ---------------------------------------------------------------------------

/// One open-loop client thread: its interleaved slice of the global
/// arrival schedule, one blocking (retrying) call per scheduled request.
/// Latency runs from the scheduled arrival, so time spent waiting behind
/// an overloaded daemon counts against the tail.
void run_client_open(const std::string& endpoint,
                     const std::vector<service::CompileRequest>& requests,
                     const std::vector<double>& scheduled_ms,
                     Clock::time_point start,
                     const service::RetryPolicy& policy, LoadStats& stats,
                     std::mutex& stats_mu) {
  service::Client client(endpoint, policy);
  LoadStats local;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    double wait_ms = scheduled_ms[i] - ms_since(start);
    if (wait_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
    service::RetryStats retry_stats;
    service::CompileResponse response =
        client.call(requests[i], &retry_stats);
    local.latencies_ms.push_back(ms_since(start) - scheduled_ms[i]);
    local.retries += retry_stats.retries;
    local.dropped_connections +=
        retry_stats.connect_failures + retry_stats.dropped_connections;
    count_response(local, response);
    if (response.ok() && requests[i].chaos.empty()) {
      record_digest(local, requests[i].source_name, response.mapped_digest);
    }
  }
  merge_into(stats, stats_mu, std::move(local));
}

// ---------------------------------------------------------------------------
// Chaos storm (--chaos)
// ---------------------------------------------------------------------------

constexpr double kKillIntervalMs = 150.0;  // worker-killer cadence
constexpr double kChaosFraction = 0.15;    // share of requests with a directive
constexpr int kVandalRounds = 24;

/// What the storm did besides the load itself.
struct ChaosTally {
  LoadStats warm;                   ///< the fault-free warm-up
  std::size_t warmups = 0;
  long long directives = 0;         ///< requests carrying a chaos directive
  std::atomic<long long> kills{0};  ///< worker SIGKILLs delivered
  long long vandal_frames = 0;      ///< complete malformed frames sent
  long long vandal_typed_errors = 0;  ///< ...answered with a typed error
};

/// The worker killer: every interval, read the live worker pids off the
/// stats op and SIGKILL one chosen by the seeded Rng.
void run_worker_killer(const std::string& endpoint, std::uint64_t seed,
                       const std::atomic<bool>& stop,
                       std::atomic<long long>& kills) {
  Rng rng(derive_seed(seed, /*stream=*/2));
  service::Client client(endpoint);
  while (!stop.load()) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kKillIntervalMs));
    auto stats = client.op("stats");
    if (!stats.is_ok() || !stats.value().is_object()) continue;
    const JsonValue* sup = stats.value().find("supervisor");
    if (sup == nullptr || !sup->is_object()) continue;
    const JsonValue* pids = sup->find("worker_pids");
    if (pids == nullptr || !pids->is_array() || pids->size() == 0) continue;
    std::size_t which =
        static_cast<std::size_t>(rng.uniform_index(pids->size()));
    if (pids->at(which).is_integer()) {
      pid_t pid = static_cast<pid_t>(pids->at(which).as_integer());
      if (pid > 1 && ::kill(pid, SIGKILL) == 0) ++kills;
    }
  }
}

/// The vandal: malformed frames, oversized frames and mid-write
/// disconnects on throwaway connections. Every complete frame must earn a
/// typed error response; half frames may simply be dropped with the
/// connection, but the daemon must survive all of it.
void run_vandal(const std::string& endpoint, std::uint64_t seed,
                ChaosTally& tally) {
  Rng rng(derive_seed(seed, /*stream=*/3));
  // Send one complete frame; count it, and its answer when the reply
  // carries `marker`.
  auto frame = [&tally](int fd, const std::string& text, const char* marker) {
    if (!service::send_all(fd, text)) return false;
    ++tally.vandal_frames;
    std::string line;
    if (service::LineReader(fd).next(line) &&
        line.find(marker) != std::string::npos) {
      ++tally.vandal_typed_errors;
    }
    return true;
  };
  for (int round = 0; round < kVandalRounds; ++round) {
    std::string error;
    int fd = service::connect_endpoint(endpoint, error);
    if (fd < 0) continue;  // transient; the stats probe at the end decides
    int which = rng.uniform_int(0, 3);
    if (which == 0) {
      // Non-JSON garbage and a JSON non-object: one typed error each.
      if (frame(fd, "this is not json\n", "\"code\"")) {
        frame(fd, "[1,2,3]\n", "\"code\"");
      }
    } else if (which == 1) {
      // Unknown field: typed invalid_request with a did-you-mean.
      frame(fd, "{\"qasm\":\"x\",\"devcie\":\"s17\"}\n", "invalid_request");
    } else if (which == 2) {
      // Oversized source (past --max-request-bytes): typed
      // resource_exhausted, connection stays up.
      frame(fd, "{\"qasm\":\"" + std::string(96 * 1024, 'x') + "\"}\n",
            "resource_exhausted");
    } else {
      // Mid-write disconnect: half a request line, then hang up. No
      // response owed; the daemon just must not die (SIGPIPE hardening).
      service::send_all(fd, "{\"qasm\":\"OPENQASM 2.0; include \\\"qel");
    }
    ::close(fd);
  }
}

/// The storm's pass/fail verdict (see the header comment), after the load
/// and supervisor reports. The daemon's exit code on shutdown, the last
/// invariant, is checked by main for every mode.
bool chaos_invariants_hold(const LoadgenOptions& opts, const LoadStats& stats,
                           const ChaosTally& tally,
                           const JsonValue& server_stats) {
  const long long crashes = supervisor_count(server_stats, "crashes");
  const long long hung_killed = supervisor_count(server_stats, "hung_killed");
  const long long answered = stats.ok + stats.failed;
  std::cerr << "qfsd_loadgen: warm-up " << tally.warm.ok << "/"
            << tally.warmups << " ok, " << answered << "/" << opts.requests
            << " requests answered, " << tally.directives
            << " chaos directives, " << tally.kills.load()
            << " worker SIGKILLs\n"
            << "qfsd_loadgen: vandal sent " << tally.vandal_frames
            << " bad frames, " << tally.vandal_typed_errors
            << " answered with typed errors\n";

  bool held = true;
  auto check = [&held](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "qfsd_loadgen: INVARIANT VIOLATED: " << what << "\n";
      held = false;
    }
  };
  check(answered == opts.requests,
        "every accepted request gets exactly one response (" +
            std::to_string(answered) + "/" + std::to_string(opts.requests) +
            ")");
  check(stats.dropped_connections == 0,
        "load-client connections must survive worker death (" +
            std::to_string(stats.dropped_connections) + " transport losses)");
  check(stats.digest_conflicts == 0,
        "ok results must be byte-consistent per circuit (" +
            std::to_string(stats.digest_conflicts) + " digest conflicts)");
  check(stats.missing_digests == 0,
        "ok results must carry a mapped digest (" +
            std::to_string(stats.missing_digests) + " missing)");
  // The warm-up ran with no faults in flight: anything short of all-ok
  // there is a real service bug, not storm collateral. (Storm-phase ok
  // counts are load-dependent and deliberately not an invariant — a full
  // brownout under a saturated machine is typed, answered, and correct.)
  check(tally.warm.ok == static_cast<long long>(tally.warmups) &&
            tally.warm.dropped_connections == 0,
        "pre-storm warm-up compiles all complete ok (" +
            std::to_string(tally.warm.ok) + "/" +
            std::to_string(tally.warmups) + ")");
  check(tally.vandal_typed_errors == tally.vandal_frames,
        "every complete malformed frame earns a typed error (" +
            std::to_string(tally.vandal_typed_errors) + "/" +
            std::to_string(tally.vandal_frames) + ")");
  check(server_stats.is_object(), "daemon answers stats after the storm");
  check(tally.kills.load() > 0 || tally.directives > 0,
        "chaos was actually injected");
  check(crashes + hung_killed > 0,
        "worker deaths were actually observed by the supervisor");
  check(supervisor_count(server_stats, "restarts") > 0,
        "the supervisor actually restarted workers");
  if (held) std::cerr << "qfsd_loadgen: chaos invariants held\n";
  return held;
}

// ---------------------------------------------------------------------------
// Load driver (every mode but --once)
// ---------------------------------------------------------------------------

int run_load(const LoadgenOptions& opts, const std::string& endpoint) {
  // Materialise the request schedule up front: round-robin over the input
  // circuits, ids globally unique, identical options everywhere so repeat
  // compiles hit the daemon's shared cache.
  std::vector<std::string> sources;
  for (const std::string& path : opts.qasm_paths) {
    auto source = read_file(path);
    if (!source.is_ok()) {
      std::cerr << "qfsd_loadgen: " << source.status().message() << "\n";
      return 1;
    }
    sources.push_back(std::move(source).value());
  }
  // Chaos rides on the open-loop path: retrying clients, and with no
  // --rate every request is due at once.
  const bool open_loop = opts.rate > 0.0 || opts.chaos;
  ChaosTally tally;
  Rng chaos_rng(derive_seed(opts.shared.seed, /*stream=*/1));
  const std::vector<std::string> directives = {"hang", "crash", "exit"};
  std::vector<std::vector<service::CompileRequest>> per_client(
      static_cast<std::size_t>(opts.clients));
  std::vector<std::vector<double>> per_client_schedule(
      static_cast<std::size_t>(opts.clients));
  for (int i = 0; i < opts.requests; ++i) {
    std::size_t which = static_cast<std::size_t>(i) % sources.size();
    service::CompileRequest request = base_request(
        opts, sources[which], opts.qasm_paths[which]);
    request.id = "r" + std::to_string(i);
    if (opts.chaos && chaos_rng.bernoulli(kChaosFraction)) {
      request.chaos = directives[static_cast<std::size_t>(
          chaos_rng.uniform_index(directives.size()))];
      ++tally.directives;
    }
    std::size_t slot = static_cast<std::size_t>(i) %
                       static_cast<std::size_t>(opts.clients);
    per_client[slot].push_back(std::move(request));
    if (open_loop) {
      // Deterministic fixed-rate arrivals: request i is due at i/rate.
      per_client_schedule[slot].push_back(
          opts.rate > 0.0 ? 1000.0 * static_cast<double>(i) / opts.rate
                          : 0.0);
    }
  }

  LoadStats stats;
  std::mutex stats_mu;
  service::RetryPolicy policy = retry_policy(opts);
  std::atomic<bool> stop_storm{false};
  std::vector<std::thread> storm;
  if (opts.chaos) {
    // Pre-storm warm-up: one clean compile per circuit while nothing is
    // injecting faults yet. These must all succeed, and they seed the
    // digest table the storm's results must stay byte-identical with.
    std::vector<service::CompileRequest> warmup;
    for (std::size_t which = 0; which < sources.size(); ++which) {
      warmup.push_back(
          base_request(opts, sources[which], opts.qasm_paths[which]));
      warmup.back().id = "w" + std::to_string(which);
    }
    tally.warmups = warmup.size();
    run_client_open(endpoint, warmup, std::vector<double>(warmup.size(), 0.0),
                    Clock::now(), policy, tally.warm, stats_mu);
    stats.digest_by_source = tally.warm.digest_by_source;
    storm.emplace_back([&] {
      run_worker_killer(endpoint, opts.shared.seed, stop_storm, tally.kills);
    });
    storm.emplace_back([&] { run_vandal(endpoint, opts.shared.seed, tally); });
  }
  Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(per_client.size());
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back([&, c] {
      if (open_loop) {
        run_client_open(endpoint, per_client[c], per_client_schedule[c],
                        start, policy, stats, stats_mu);
      } else {
        run_client_closed(endpoint, per_client[c], opts.burst, stats,
                          stats_mu);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  double wall_ms = ms_since(start);
  stop_storm.store(true);
  for (std::thread& t : storm) t.join();

  // One shared percentile implementation: empty-safe, exact at p=0/p=1.
  double p50 = qfs::stats::percentile_nearest_rank(stats.latencies_ms, 0.50);
  double p99 = qfs::stats::percentile_nearest_rank(stats.latencies_ms, 0.99);
  double throughput =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(stats.ok) / wall_ms : 0.0;

  const std::string mode =
      opts.chaos ? "chaos" : open_loop ? "open" : "closed";
  std::cerr << "qfsd_loadgen: " << mode << (opts.chaos ? " storm" : "-loop")
            << (opts.rate > 0.0 ? " @ " + format_double(opts.rate, 1) +
                                      " req/s"
                                : std::string())
            << ": " << stats.ok << "/" << opts.requests << " ok, "
            << stats.failed << " failed (" << stats.shed << " shed, "
            << stats.deadline_expired << " deadline), "
            << stats.dropped_connections << " dropped connections, "
            << stats.retries << " retries, " << stats.cache_hits
            << " cache hits\n"
            << "qfsd_loadgen: p50 " << format_double(p50, 3) << " ms, p99 "
            << format_double(p99, 3) << " ms, "
            << format_double(throughput, 1) << " req/s over "
            << format_double(wall_ms, 1) << " ms\n";

  JsonValue server_stats = fetch_stats(endpoint);
  report_server_stats(server_stats);

  if (!opts.bench_json.empty()) {
    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::string("service"))
        .set("mode", JsonValue::string(mode))
        .set("clients", JsonValue::integer(opts.clients))
        .set("requests", JsonValue::integer(opts.requests))
        .set("burst", JsonValue::integer(opts.burst))
        .set("rate_rps", JsonValue::number(opts.rate))
        .set("ok", JsonValue::integer(stats.ok))
        .set("failed", JsonValue::integer(stats.failed))
        .set("shed", JsonValue::integer(stats.shed))
        .set("deadline_expired",
             JsonValue::integer(stats.deadline_expired))
        .set("retries", JsonValue::integer(stats.retries))
        .set("dropped_connections",
             JsonValue::integer(stats.dropped_connections))
        .set("cache_hits", JsonValue::integer(stats.cache_hits))
        .set("p50_ms", JsonValue::number(p50))
        .set("p99_ms", JsonValue::number(p99))
        .set("throughput_rps", JsonValue::number(throughput))
        .set("wall_ms", JsonValue::number(wall_ms));
    if (server_stats.is_object()) {
      const JsonValue* sup = server_stats.find("supervisor");
      if (sup != nullptr && sup->is_object()) {
        JsonValue copy = *sup;
        doc.set("supervisor", std::move(copy));
      }
    }
    std::ofstream out(opts.bench_json);
    if (!out) {
      std::cerr << "qfsd_loadgen: cannot write '" << opts.bench_json << "'\n";
      return 1;
    }
    out << doc.to_pretty_string() << "\n";
  }

  if (opts.chaos) {
    if (!chaos_invariants_hold(opts, stats, tally, server_stats)) return 1;
  } else if (open_loop) {
    // Under deliberate overload sheds and expired deadlines are the signal
    // being measured, not a failure; hard failures and transport losses
    // still are.
    long long hard_failed =
        stats.failed - stats.shed - stats.deadline_expired;
    if (stats.dropped_connections > 0 || hard_failed > 0 || stats.ok == 0) {
      return 1;
    }
  } else {
    if (stats.dropped_connections > 0 || stats.failed > 0 ||
        stats.ok != opts.requests) {
      return 1;
    }
  }
  if (opts.require_warm_hits && stats.cache_hits == 0) {
    std::cerr << "qfsd_loadgen: expected warm cache hits, saw none\n";
    return 1;
  }
  return 0;
}

void print_usage() {
  std::cout <<
      "usage: qfsd_loadgen (--connect <endpoint> | --spawn <qfsd-binary>)\n"
      "                    [options] input.qasm [...]\n"
      "\n"
      "options:\n"
      "  --connect <spec>  endpoint of a running daemon (unix:<path> or\n"
      "                    tcp:<port>)\n"
      "  --spawn <qfsd>    run a private daemon for the duration\n"
      "  --spawn-arg <a>   extra argument for the spawned daemon\n"
      "                    (repeatable, e.g. --spawn-arg --worker-procs\n"
      "                    --spawn-arg 2)\n"
      "  --once <file>     send one request; print its metrics JSON verbatim\n"
      "                    (byte-identical to `qfsc --emit-json`)\n"
      "  --clients <n>     concurrent client connections      (default 8)\n"
      "  --requests <n>    total requests across clients      (default 100)\n"
      "  --burst <n>       closed-loop: pipelined requests per connection\n"
      "                    (default 4)\n"
      "  --rate <r>        open-loop mode: fixed arrival rate in requests\n"
      "                    per second; latency measured from the scheduled\n"
      "                    arrival (default 0 = closed loop)\n"
      "  --retries <n>     client attempts per request, retrying only\n"
      "                    connect/internal/resource_exhausted and never\n"
      "                    past the deadline                  (default 1)\n"
      "  --deadline-ms <x> per-request deadline               (default none)\n"
      "  --chaos           fault storm (needs --spawn): worker SIGKILLs,\n"
      "                    hang/crash/exit directives and hostile frames,\n"
      "                    seeded by --seed; exit 0 only when every chaos\n"
      "                    invariant holds. The daemon also gets\n"
      "                    --enable-chaos --max-request-bytes 65536\n"
      "  --require-warm-hits  fail unless the daemon reports cache hits\n"
      "  --bench-json <f>  write the load report as JSON to <f>\n"
      "  --device/--placer/--router/--seed  forwarded into every request\n"
      "  --help            this text\n";
}

const std::vector<std::string>& known_loadgen_flags() {
  static const std::vector<std::string> flags = {
      "--help",     "--connect", "--spawn",   "--spawn-arg",
      "--once",     "--clients", "--requests",
      "--burst",    "--rate",    "--retries",
      "--deadline-ms", "--chaos",   "--require-warm-hits",
      "--bench-json",
  };
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string shared_error;
    switch (service::consume_request_flag(argc, argv, i, opts.shared,
                                          shared_error)) {
      case service::FlagParse::kConsumed:
        continue;
      case service::FlagParse::kError:
        std::cerr << "qfsd_loadgen: " << shared_error << "\n";
        return 1;
      case service::FlagParse::kNotMine:
        break;
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qfsd_loadgen: missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    auto bad_value = [&] {
      std::cerr << "qfsd_loadgen: bad " << arg << " value '" << argv[i]
                << "'\n";
      return 1;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--connect") {
      opts.connect = next();
    } else if (arg == "--spawn") {
      opts.spawn = next();
    } else if (arg == "--spawn-arg") {
      opts.spawn_args.push_back(next());
    } else if (arg == "--once") {
      opts.once_path = next();
    } else if (arg == "--clients") {
      if (!parse_int(next(), opts.clients) || opts.clients < 1) {
        return bad_value();
      }
    } else if (arg == "--requests") {
      if (!parse_int(next(), opts.requests) || opts.requests < 1) {
        return bad_value();
      }
    } else if (arg == "--burst") {
      if (!parse_int(next(), opts.burst) || opts.burst < 1) return bad_value();
    } else if (arg == "--rate") {
      // NaN compares false against everything: reject it (and infinity)
      // explicitly rather than fall back to a silent closed loop.
      if (!parse_double(next(), opts.rate) || !std::isfinite(opts.rate) ||
          opts.rate < 0) {
        return bad_value();
      }
    } else if (arg == "--retries") {
      if (!parse_int(next(), opts.retries) || opts.retries < 1) {
        return bad_value();
      }
    } else if (arg == "--deadline-ms") {
      if (!parse_double(next(), opts.deadline_ms) ||
          !std::isfinite(opts.deadline_ms)) {
        return bad_value();
      }
    } else if (arg == "--chaos") {
      opts.chaos = true;
    } else if (arg == "--require-warm-hits") {
      opts.require_warm_hits = true;
    } else if (arg == "--bench-json") {
      opts.bench_json = next();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "qfsd_loadgen: unknown option '" << arg << "'";
      std::string suggestion =
          closest_match(arg, known_loadgen_flags());
      if (!suggestion.empty()) {
        std::cerr << " (did you mean " << suggestion << "?)";
      }
      std::cerr << " (try --help)\n";
      return 1;
    } else {
      opts.qasm_paths.push_back(arg);
    }
  }

  if (opts.once_path.empty() && opts.qasm_paths.empty()) {
    std::cerr << "qfsd_loadgen: no input circuits (try --help)\n";
    return 1;
  }
  if (opts.connect.empty() && opts.spawn.empty()) {
    std::cerr << "qfsd_loadgen: need --connect or --spawn (try --help)\n";
    return 1;
  }
  if (opts.chaos) {
    if (opts.spawn.empty()) {
      std::cerr << "qfsd_loadgen: --chaos needs --spawn (try --help)\n";
      return 1;
    }
    // A small request-size cap so the vandal's oversized frames are
    // rejected fast.
    opts.spawn_args.insert(opts.spawn_args.end(),
                           {"--enable-chaos", "--max-request-bytes", "65536"});
  }

  service::SpawnedDaemon daemon;
  std::string endpoint = opts.connect;
  if (!opts.spawn.empty()) {
    std::string error;
    if (!service::spawn_daemon(opts.spawn, opts.spawn_args, daemon, error)) {
      std::cerr << "qfsd_loadgen: " << error << "\n";
      return 1;
    }
    endpoint = daemon.endpoint;
  }

  int rc = opts.once_path.empty() ? run_load(opts, endpoint)
                                  : run_once(opts, endpoint);

  if (daemon.pid > 0) {
    int daemon_rc = service::stop_daemon(daemon);
    if (daemon_rc != 0) {
      std::cerr << "qfsd_loadgen: daemon exited with code " << daemon_rc
                << "\n";
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
