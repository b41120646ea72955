// daemon_open: a qfsd daemon (2 worker threads, default in-memory cache) on
// a Unix socket, driven in open loop at a fixed rate over two pipelined
// connections.
//
// Requests use the qfsc defaults (surface17, trivial placer and router,
// latency on) over the 12 QASMBench fixtures plus qft4/bv6/toffoli3/ghz5.
// A seeded pool makes about half the requests repeat an earlier request
// (a cache read) and half carry a new compile seed (compile + store).
//
// The generator sends each pre-encoded request line at its due time,
// whatever is still in flight; one receiver thread reads both connections
// and timestamps each response line, which is matched to its request by
// "id" afterwards. Latency is measured from the due time, so a stall shows
// up in every request it delays; how late the sender itself ran is
// reported as loadgen.lag_ms.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "qasm/parser.h"
#include "replay.h"
#include "service/client.h"
#include "service/service.h"
#include "sim/equivalence.h"
#include "stats/descriptive.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/timer.h"

namespace perfbench {

namespace {

using qfs::service::CompileRequest;
using qfs::service::CompileResponse;
using qfs::service::SpawnedDaemon;
using qfs::stats::percentile_nearest_rank;

/// Offered load: an eighth of what two daemon workers sustain on a quiet
/// 4-core x86 box (about 4000 req/s, where the 64-request admission queue
/// starts rejecting). On a shared host whose speed swings by 2x the margin
/// keeps the queue short; at 2000 req/s the tail latencies moved by a third
/// from run to run, and at 1000 req/s a host stall once filled the queue.
constexpr double kRatePerSecond = 500.0;
constexpr int kDaemonWorkers = 2;
constexpr int kConnections = 2;
/// Latency percentiles are taken per window of this many consecutive
/// requests (so each window's p99 has 10 samples beyond it; the remainder
/// joins the last window), and the run reports the median over its
/// windows: a stall from a neighbour on the host moves one or two windows,
/// while a slowdown of qfsd's own, periodic or steady, moves most of them.
constexpr std::size_t kWindowRequests = 1000;
/// The first request is due this long after the receiver starts.
constexpr double kLeadMs = 20.0;
/// Responses still missing this long after the last send count as failed.
constexpr double kDrainMs = 20e3;

const char* const kFixtures[] = {
    "tools/testdata/qasmbench/adder_n4.qasm",
    "tools/testdata/qasmbench/bell_n4.qasm",
    "tools/testdata/qasmbench/bv_n8.qasm",
    "tools/testdata/qasmbench/fredkin_n3.qasm",
    "tools/testdata/qasmbench/grover_n5.qasm",
    "tools/testdata/qasmbench/ising_n10.qasm",
    "tools/testdata/qasmbench/qaoa_n6.qasm",
    "tools/testdata/qasmbench/qft_n7.qasm",
    "tools/testdata/qasmbench/qpe_n9.qasm",
    "tools/testdata/qasmbench/simon_n6.qasm",
    "tools/testdata/qasmbench/variational_n4.qasm",
    "tools/testdata/qasmbench/wstate_n3.qasm",
    "tools/testdata/qft4.qasm",
    "tools/testdata/bv6.qasm",
    "tools/testdata/toffoli3.qasm",
    "tools/testdata/ghz5.qasm",
};

struct Fixture {
  std::string name;
  std::string qasm;
  qfs::circuit::Circuit circuit;
};

struct Workload {
  std::vector<Fixture> fixtures;
  std::vector<CompileRequest> requests;  ///< in send order; id = index
  std::vector<std::string> lines;        ///< encoded wire lines
  std::vector<int> source_gates;         ///< per request
  std::vector<int> distinct_of;          ///< request -> distinct request
  std::vector<int> distinct_first;       ///< distinct -> first request
};

/// Reads the fixtures relative to the working directory, the checkout root.
bool load_fixtures(std::vector<Fixture>& out, Report& report) {
  for (const char* path : kFixtures) {
    Fixture f;
    f.name = path;
    f.qasm = read_file(path);
    auto parsed = qfs::qasm::parse(f.qasm);
    if (f.qasm.empty() || !parsed.is_ok()) {
      report.error(std::string("cannot load fixture ") + path);
      return false;
    }
    f.circuit = std::move(parsed).value();
    out.push_back(std::move(f));
  }
  return true;
}

Workload make_workload(const Options& options, std::vector<Fixture> fixtures) {
  Workload w;
  w.fixtures = std::move(fixtures);
  qfs::Rng rng(options.seed);
  const int n = static_cast<int>(kRatePerSecond * options.seconds);
  for (int i = 0; i < n; ++i) {
    if (!w.distinct_first.empty() && rng.bernoulli(0.5)) {
      auto pick = static_cast<std::size_t>(
          rng.uniform_index(w.distinct_first.size()));
      auto first = static_cast<std::size_t>(w.distinct_first[pick]);
      CompileRequest request = w.requests[first];
      request.id = std::to_string(i);
      w.distinct_of.push_back(static_cast<int>(pick));
      w.source_gates.push_back(w.source_gates[first]);
      w.requests.push_back(std::move(request));
    } else {
      const Fixture& f = w.fixtures[static_cast<std::size_t>(
          rng.uniform_index(w.fixtures.size()))];
      CompileRequest request;
      request.id = std::to_string(i);
      request.qasm = f.qasm;
      request.source_name = f.name;
      request.device = "surface17";
      request.options.compute_latency = true;
      request.seed = 1000 + w.distinct_first.size();
      w.distinct_of.push_back(static_cast<int>(w.distinct_first.size()));
      w.distinct_first.push_back(i);
      w.source_gates.push_back(f.circuit.gate_count());
      w.requests.push_back(std::move(request));
    }
  }
  for (const CompileRequest& request : w.requests) {
    w.lines.push_back(qfs::service::request_to_json(request).to_string() +
                      "\n");
  }
  return w;
}

/// Fork/exec qfsd on `socket_path` and wait until it answers ping; stop it
/// with service::stop_daemon. service::spawn_daemon does the same but
/// always puts the socket under /tmp, and the benchmark reads and writes
/// only inside its checkout.
bool spawn_qfsd(const std::string& qfsd, const std::string& socket_path,
                SpawnedDaemon& out, std::string& error) {
  out.pid = -1;
  out.endpoint = "unix:" + socket_path;
  std::vector<std::string> args = {qfsd, "--listen", out.endpoint,
                                   "--workers", std::to_string(kDaemonWorkers)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);    // never outlive the benchmark
    ::dup2(STDERR_FILENO, STDOUT_FILENO);  // keep the result line alone
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  for (int attempt = 0; attempt < 2000; ++attempt) {
    std::string ignored;
    int fd = qfs::service::connect_endpoint(out.endpoint, ignored);
    if (fd >= 0) {
      std::string line;
      bool ok = qfs::service::send_all(fd, "{\"op\":\"ping\"}\n") &&
                qfs::service::LineReader(fd).next(line) &&
                line.find("\"ok\"") != std::string::npos;
      ::close(fd);
      if (ok) {
        out.pid = pid;
        return true;
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      error = "qfsd exited before answering ping";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  error = "qfsd never answered ping";
  return false;
}

/// A live process's peak resident set size (VmHWM) in MB; 0 if unreadable.
double peak_rss_mb_of(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Reference {
  std::vector<std::string> digests;  ///< per distinct request
  /// One in-process compile per distinct digest, for the simulation check.
  std::map<std::string, std::pair<int, CompileResponse>> artifacts;
};

/// Offline reference compiles: every distinct request through an in-process
/// CompileService with no cache.
Reference reference_compiles(const Workload& w) {
  qfs::service::CompileService service;
  Reference ref;
  for (int first : w.distinct_first) {
    const CompileRequest& request = w.requests[static_cast<std::size_t>(first)];
    CompileResponse response = service.execute(request);
    ref.digests.push_back(response.ok() ? response.mapped_digest : "");
    if (response.ok() && !ref.artifacts.count(response.mapped_digest)) {
      std::string digest = response.mapped_digest;
      ref.artifacts.emplace(digest, std::make_pair(first, std::move(response)));
    }
  }
  return ref;
}

/// Times are milliseconds since the open loop's origin.
struct Arrival {
  double at_ms = 0.0;
  std::string line;
};

struct OpenLoopResult {
  std::vector<double> due_ms;
  std::vector<double> sent_ms;
  std::vector<Arrival> arrivals;
  bool send_failed = false;
};

/// Reads every connection until `expected` lines arrived or `deadline_ms`.
void receive(const std::array<int, kConnections>& fds, std::size_t expected,
             qfs::MonotonicClock::time_point origin, double deadline_ms,
             std::vector<Arrival>& arrivals) {
  std::array<std::string, kConnections> buffers;
  std::array<pollfd, kConnections> polls{};
  for (std::size_t k = 0; k < polls.size(); ++k) {
    polls[k] = {fds[k], POLLIN, 0};
  }
  char chunk[64 * 1024];
  while (arrivals.size() < expected && qfs::ms_since(origin) < deadline_ms) {
    if (::poll(polls.data(), polls.size(), 20) <= 0) continue;
    const double at_ms = qfs::ms_since(origin);
    for (std::size_t k = 0; k < polls.size(); ++k) {
      if (polls[k].fd < 0 || polls[k].revents == 0) continue;
      ssize_t got = ::recv(polls[k].fd, chunk, sizeof chunk, 0);
      if (got <= 0) {
        polls[k].fd = -1;  // peer closed; poll ignores negative fds
        continue;
      }
      buffers[k].append(chunk, static_cast<std::size_t>(got));
      std::size_t start = 0;
      for (std::size_t nl;
           (nl = buffers[k].find('\n', start)) != std::string::npos;
           start = nl + 1) {
        arrivals.push_back({at_ms, buffers[k].substr(start, nl - start)});
      }
      buffers[k].erase(0, start);
    }
  }
}

OpenLoopResult open_loop(const Workload& w,
                         const std::array<int, kConnections>& fds) {
  OpenLoopResult result;
  const std::size_t n = w.lines.size();
  result.due_ms.resize(n);
  result.sent_ms.resize(n);
  result.arrivals.reserve(n);
  const double period_ms = 1e3 / kRatePerSecond;
  const qfs::MonotonicClock::time_point origin = qfs::MonotonicClock::now();
  const double deadline_ms =
      kLeadMs + period_ms * static_cast<double>(n) + kDrainMs;
  std::thread receiver(receive, std::cref(fds), n, origin, deadline_ms,
                       std::ref(result.arrivals));
  for (std::size_t i = 0; i < n; ++i) {
    result.due_ms[i] = kLeadMs + period_ms * static_cast<double>(i);
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<qfs::MonotonicClock::duration>(
                     std::chrono::duration<double, std::milli>(
                         result.due_ms[i])));
    result.sent_ms[i] = qfs::ms_since(origin);
    if (!qfs::service::send_all(fds[i % kConnections], w.lines[i])) {
      result.send_failed = true;
      break;
    }
  }
  receiver.join();
  return result;
}

/// Drop measurements and barriers so the statevector check compares the
/// unitary parts (the fixtures measure only at the end).
qfs::circuit::Circuit unitary_part(const qfs::circuit::Circuit& circuit) {
  qfs::circuit::Circuit out(circuit.num_qubits(), circuit.name());
  for (const auto& g : circuit.gates()) {
    if (qfs::circuit::is_unitary(g.kind)) out.add(g);
  }
  return out;
}

}  // namespace

void run_daemon_open(const Options& options, Report& report) {
  std::vector<Fixture> fixtures;
  if (!load_fixtures(fixtures, report)) return;
  Workload w = make_workload(options, std::move(fixtures));
  const std::size_t n = w.requests.size();

  // Set-up: spawn-to-first-ping plus the offline reference compiles,
  // repeated; the last daemon serves the timed run.
  const int repeats = options.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_times;
  SpawnedDaemon daemon;
  Reference ref;
  for (int k = 0; k < repeats; ++k) {
    qfs::service::stop_daemon(daemon);  // the previous repeat's, if any
    qfs::StopWatch watch;
    std::string error;
    std::string socket =
        options.work_dir + "/qfsd-" + std::to_string(k) + ".sock";
    if (!spawn_qfsd(options.qfsd, socket, daemon, error)) {
      report.error(error);
      return;
    }
    ref = reference_compiles(w);
    setup_times.push_back(watch.elapsed_seconds());
  }

  std::array<int, kConnections> fds;
  fds.fill(-1);
  for (int& fd : fds) {
    std::string error;
    fd = qfs::service::connect_endpoint(daemon.endpoint, error);
    if (fd < 0) {
      report.error("connect: " + error);
      for (int open_fd : fds) {
        if (open_fd >= 0) ::close(open_fd);
      }
      qfs::service::stop_daemon(daemon);
      return;
    }
  }
  OpenLoopResult run = open_loop(w, fds);
  for (int fd : fds) ::close(fd);
  if (run.send_failed) report.error("a request could not be sent");

  // Server-side counters and the daemon's peak RSS, then stop it.
  long rejected = 0;
  {
    qfs::service::Client client(daemon.endpoint);
    auto stats = client.op("stats");
    const qfs::JsonValue* server =
        stats.is_ok() ? stats.value().find("server") : nullptr;
    const qfs::JsonValue* count =
        server != nullptr ? server->find("rejected") : nullptr;
    if (count != nullptr && count->is_integer()) rejected = count->as_integer();
  }
  const double daemon_rss_mb = peak_rss_mb_of(daemon.pid);
  if (daemon_rss_mb <= 0.0) report.error("cannot read the daemon's VmHWM");
  qfs::service::stop_daemon(daemon);

  // Match responses to requests and check them.
  std::vector<CompileResponse> responses(n);
  std::vector<double> received_ms(n, -1.0);
  for (const Arrival& arrival : run.arrivals) {
    auto json = qfs::JsonValue::parse(arrival.line);
    auto decoded = json.is_ok() ? qfs::service::response_from_json(json.value())
                                : qfs::StatusOr<CompileResponse>(json.status());
    int id = -1;
    if (!decoded.is_ok() || !qfs::parse_int(decoded.value().id, id) ||
        id < 0 || static_cast<std::size_t>(id) >= n ||
        received_ms[static_cast<std::size_t>(id)] >= 0) {
      report.error("unmatched response line: " + arrival.line.substr(0, 120));
      continue;
    }
    auto k = static_cast<std::size_t>(id);
    received_ms[k] = arrival.at_ms;
    responses[k] = std::move(decoded).value();
  }

  const std::size_t windows = std::max<std::size_t>(1, n / kWindowRequests);
  std::vector<std::vector<double>> latency_ms(windows);
  std::vector<double> queue_ms, total_ms, wire_ms, lag_ms;
  qfs::Hasher output;
  double last_ms = run.due_ms.front();
  double gates = 0.0;
  // Mapping quality is averaged over distinct artifacts, one per fixture,
  // so it does not depend on how often the seed's pool repeats each one.
  std::map<std::string, const qfs::mapper::MappingResult*> distinct;
  long good = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++report.attempted;
    const CompileResponse& r = responses[i];
    const std::string& expected =
        ref.digests[static_cast<std::size_t>(w.distinct_of[i])];
    if (received_ms[i] < 0 || !r.ok() || r.mapped_digest != expected) {
      ++report.failed;
      if (report.failed <= 5) {
        std::string what =
            received_ms[i] < 0
                ? std::string("no response")
                : std::string(qfs::service::error_code_name(r.code)) +
                      " digest " + r.mapped_digest + " expected " + expected;
        report.error("request " + std::to_string(i) + ": " + what);
      }
      continue;
    }
    ++good;
    output.update(r.mapped_digest + "\n");
    last_ms = std::max(last_ms, received_ms[i]);
    latency_ms[std::min(i / kWindowRequests, windows - 1)].push_back(
        received_ms[i] - run.due_ms[i]);
    queue_ms.push_back(r.timing.queue_ms);
    total_ms.push_back(r.timing.total_ms);
    wire_ms.push_back(received_ms[i] - run.sent_ms[i] - r.timing.queue_ms -
                      r.timing.total_ms);
    lag_ms.push_back(run.sent_ms[i] - run.due_ms[i]);
    gates += w.source_gates[i];
    distinct.emplace(r.mapped_digest, &r.mapping);
  }

  // Each distinct artifact must also pass the statevector check.
  for (const auto& [digest, entry] : ref.artifacts) {
    const auto& [first, response] = entry;
    const auto& fixture_qasm = w.requests[static_cast<std::size_t>(first)].qasm;
    auto source = qfs::qasm::parse(fixture_qasm);
    qfs::Rng rng(options.seed);
    const qfs::mapper::MappingResult& m = response.mapping;
    if (!source.is_ok() ||
        !qfs::sim::mapping_preserves_semantics(
            unitary_part(source.value()), unitary_part(m.mapped),
            m.initial_layout, m.final_layout, rng, 1)) {
      report.error("artifact " + digest + " of request " +
                   std::to_string(first) + " fails the statevector check");
    }
  }

  const double wall_s = std::max(last_ms - run.due_ms.front(), 1e-6) / 1e3;
  const double lag_p99 = percentile_nearest_rank(lag_ms, 0.99);
  std::cerr << "perfbench: " << good << "/" << n << " responses ok at "
            << kRatePerSecond << " req/s; " << w.distinct_first.size()
            << " distinct requests, " << ref.artifacts.size()
            << " distinct artifacts; generator lag p99 " << lag_p99
            << " ms; " << rejected << " rejected\n";
  report.output_digest = output.finish().hex();

  if (!options.trace) {
    report.metric("setup_s", qfs::stats::median(setup_times));
    report.metric("throughput_kgates_s", gates / 1e3 / wall_s);
    auto windowed = [&](double q) {
      std::vector<double> per_window;
      for (const std::vector<double>& window : latency_ms) {
        per_window.push_back(percentile_nearest_rank(window, q));
      }
      return qfs::stats::median(per_window);
    };
    report.metric("latency_ms.p50", windowed(0.50));
    report.metric("achieved_rps", good / wall_s);
    report.metric("success_rate",
                  static_cast<double>(good) / static_cast<double>(n));
    report.metric("peak_rss_mb", daemon_rss_mb);
    double overhead = 0.0, fidelity_loss = 0.0, swaps = 0.0;
    for (const auto& [digest, m] : distinct) {
      overhead += m->gate_overhead_pct;
      fidelity_loss += m->fidelity_decrease_pct;
      swaps += m->swaps_inserted;
    }
    const double artifacts = std::max<double>(1, distinct.size());
    report.metric("gate_overhead_pct.mean", overhead / artifacts);
    report.metric("fidelity_loss_pct.mean", fidelity_loss / artifacts);
    report.metric("swaps_total", swaps);
    return;
  }
  report.metric("server.queue_ms.p50", percentile_nearest_rank(queue_ms, 0.50));
  report.metric("server.queue_ms.p99", percentile_nearest_rank(queue_ms, 0.99));
  report.metric("server.total_ms.p50", percentile_nearest_rank(total_ms, 0.50));
  report.metric("server.total_ms.p99", percentile_nearest_rank(total_ms, 0.99));
  report.metric("wire.ms.p50", percentile_nearest_rank(wire_ms, 0.50));
  report.metric("wire.ms.p99", percentile_nearest_rank(wire_ms, 0.99));
  report.metric("loadgen.lag_ms.p99", lag_p99);
  report.metric("server.rejected", static_cast<double>(rejected));
  traced_replay(
      w.requests,
      [] {
        return std::make_unique<qfs::cache::CompileCache>(
            qfs::cache::CacheConfig{});
      },
      options.span_file, report);
}

}  // namespace perfbench
