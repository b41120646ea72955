#include "service/supervisor.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "service/client.h"
#include "support/json.h"
#include "support/rng.h"

namespace qfs::service {

// ---------------------------------------------------------------------------
// Backoff schedule.
// ---------------------------------------------------------------------------

double backoff_delay_ms(const BackoffPolicy& policy, int attempt,
                        std::uint64_t seed) {
  double base = policy.initial_ms;
  for (int i = 0; i < attempt && base < policy.max_ms; ++i) {
    base *= policy.multiplier;
  }
  base = std::min(base, policy.max_ms);
  if (policy.jitter <= 0.0) return base;
  // derive_seed gives a statistically independent 64-bit stream per
  // (seed, attempt); fold it into [0, 1) the usual 53-bit way.
  std::uint64_t bits =
      qfs::derive_seed(seed, static_cast<std::uint64_t>(attempt));
  double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return base * (1.0 + policy.jitter * (2.0 * unit - 1.0));
}

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

void CircuitBreaker::prune(double now_ms) {
  while (!restarts_.empty() && restarts_.front() < now_ms - config_.window_ms) {
    restarts_.pop_front();
  }
}

void CircuitBreaker::record_restart(double now_ms) {
  restarts_.push_back(now_ms);
  prune(now_ms);
  if (static_cast<int>(restarts_.size()) > config_.max_restarts) {
    if (!tripped_) ++trips_;
    tripped_ = true;
    // Restarts while open keep extending the quiet period.
    open_until_ms_ = now_ms + config_.cooldown_ms;
  }
}

bool CircuitBreaker::open(double now_ms) {
  if (!tripped_) return false;
  if (now_ms < open_until_ms_) return true;
  prune(now_ms);
  if (static_cast<int>(restarts_.size()) > config_.max_restarts) {
    return true;  // the window is still saturated: stay open
  }
  tripped_ = false;  // cooldown elapsed and the window drained: recover
  return false;
}

int CircuitBreaker::restarts_in_window(double now_ms) {
  prune(now_ms);
  return static_cast<int>(restarts_.size());
}

// ---------------------------------------------------------------------------
// Supervisor.
// ---------------------------------------------------------------------------

namespace {

/// SIGKILL a worker's whole process group: the worker leads its own group
/// (see spawn_worker_locked), so its descendants die with it.
void kill_worker_group(pid_t pid) {
  if (pid > 0) ::kill(-pid, SIGKILL);
}

CompileResponse typed_response(const CompileRequest& request, ErrorCode code,
                               std::string message) {
  CompileResponse response;
  response.id = request.id;
  response.code = code;
  response.error_message = std::move(message);
  return response;
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config)
    : config_(std::move(config)),
      breaker_(config_.breaker),
      epoch_(std::chrono::steady_clock::now()) {}

Supervisor::~Supervisor() { shutdown(); }

double Supervisor::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

qfs::Status Supervisor::start() {
  if (config_.command.empty()) {
    return qfs::invalid_argument("supervisor has no worker command");
  }
  if (config_.workers < 1) {
    return qfs::invalid_argument("supervisor needs at least one worker");
  }
  std::lock_guard<std::mutex> lock(mu_);
  workers_.resize(static_cast<std::size_t>(config_.workers));
  double now = now_ms();
  for (Worker& worker : workers_) {
    if (!spawn_worker_locked(worker, now)) {
      // fork/socketpair failure at startup is a configuration-grade error;
      // a worker that execs and then dies is handled by the monitor.
      return qfs::io_error(std::string("spawn worker: ") +
                           std::strerror(errno));
    }
  }
  started_ = true;
  monitor_ = std::thread([this] { monitor_loop(); });
  return qfs::Status::ok();
}

bool Supervisor::spawn_worker_locked(Worker& worker, double now) {
  int sp[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sp) != 0) {
    return false;
  }
  // Build argv before fork: only async-signal-safe calls may run between
  // fork and exec in a multi-threaded parent.
  std::vector<char*> argv;
  argv.reserve(config_.command.size() + 1);
  for (const std::string& arg : config_.command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sp[0]);
    ::close(sp[1]);
    return false;
  }
  if (pid == 0) {
    // Child: the worker speaks the line protocol on stdin/stdout (both
    // ends of one bidirectional socketpair fd). Everything else we own is
    // CLOEXEC, so exec drops it. It leads a new process group, so one
    // kill reaches everything it spawns.
    ::setpgid(0, 0);
    ::dup2(sp[1], STDIN_FILENO);
    ::dup2(sp[1], STDOUT_FILENO);
    ::close(sp[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  // Set the group from both sides: whichever runs first wins the race
  // against a kill aimed at the group (EACCES after exec is harmless).
  ::setpgid(pid, pid);
  ::close(sp[1]);
  worker.pid = pid;
  worker.fd = sp[0];
  worker.alive = true;
  worker.busy = false;
  worker.restart_at_ms = now;
  ++spawn_seq_;
  ++counters_.spawns;
  return true;
}

void Supervisor::mark_dead_locked(Worker& worker, double now, bool hung) {
  if (!worker.alive) return;
  worker.alive = false;
  worker.busy = false;
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.pid > 0) zombies_.push_back(worker.pid);
  worker.pid = -1;
  ++worker.consecutive_failures;
  if (hung) {
    ++counters_.hung_killed;
  } else {
    ++counters_.crashes;
  }
  breaker_.record_restart(now);
  counters_.breaker_trips = breaker_.trips();
  worker.restart_at_ms =
      now + backoff_delay_ms(config_.backoff, worker.consecutive_failures - 1,
                             qfs::derive_seed(config_.seed, spawn_seq_));
  monitor_wake_.notify_all();
}

CompileResponse Supervisor::execute(const CompileRequest& request,
                                    double budget_ms) {
  const double start = now_ms();
  // The watchdog budget: the request's own deadline when it has one, the
  // hang-timeout backstop otherwise (< 0 = unbounded).
  const double watchdog_ms =
      budget_ms >= 0.0 ? budget_ms : config_.hang_timeout_ms;

  Worker* worker = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      double now = now_ms();
      if (stopping_) {
        return typed_response(request, ErrorCode::kResourceExhausted,
                              "supervisor is shutting down");
      }
      if (breaker_.open(now)) {
        ++counters_.shed;
        return typed_response(
            request, ErrorCode::kResourceExhausted,
            "worker restart storm: circuit breaker open (brownout), "
            "retry after the restart window clears");
      }
      for (Worker& candidate : workers_) {
        if (candidate.alive && !candidate.busy) {
          worker = &candidate;
          break;
        }
      }
      if (worker != nullptr) break;
      double elapsed = now - start;
      if (watchdog_ms >= 0.0 && elapsed >= watchdog_ms) {
        return typed_response(
            request,
            budget_ms >= 0.0 ? ErrorCode::kDeadlineExceeded
                             : ErrorCode::kResourceExhausted,
            budget_ms >= 0.0
                ? "deadline expired waiting for a free compile worker"
                : "no live compile worker within the hang timeout");
      }
      // Wake periodically: a respawn or breaker recovery can free a slot
      // without signalling this exact waiter.
      worker_free_.wait_for(lock, std::chrono::milliseconds(20));
    }
    worker->busy = true;
    ++counters_.requests;
  }

  // Forward with the *remaining* budget so the worker's own deadline
  // accounting matches the caller's.
  CompileRequest forwarded = request;
  if (budget_ms >= 0.0) {
    forwarded.deadline_ms = std::max(0.0, budget_ms - (now_ms() - start));
  }
  const std::string line = request_to_json(forwarded).to_string() + '\n';

  const pid_t pid = worker->pid;
  // The channel carries one response line per request line, so a reader
  // per request has nothing to carry over. EOF: the worker exited or was
  // killed mid-request. Timeout: it outlived the watchdog.
  std::string response_line;
  LineReader::Result result = LineReader::Result::kEof;
  if (send_all(worker->fd, line)) {
    LineReader reader(worker->fd);
    result = reader.read(
        response_line,
        watchdog_ms >= 0.0 ? std::max(0.0, watchdog_ms - (now_ms() - start))
                           : -1.0);
  }

  std::lock_guard<std::mutex> lock(mu_);
  double now = now_ms();
  if (result == LineReader::Result::kTimeout) {
    // The watchdog fired: the worker is wedged (or just too slow, which is
    // indistinguishable). SIGKILL is the only reliable remedy; the monitor
    // reaps it and schedules the restart.
    kill_worker_group(pid);
    mark_dead_locked(*worker, now, /*hung=*/true);
    return typed_response(
        request, ErrorCode::kDeadlineExceeded,
        "compile worker killed by the deadline watchdog after " +
            std::to_string(watchdog_ms) + " ms");
  }
  if (result == LineReader::Result::kEof) {
    mark_dead_locked(*worker, now, /*hung=*/false);
    return typed_response(
        request, ErrorCode::kInternal,
        "compile worker died mid-request; the compile is deterministic and "
        "idempotent, so retrying is safe");
  }

  auto json = JsonValue::parse(response_line);
  auto decoded = json.is_ok() ? response_from_json(json.value())
                              : qfs::StatusOr<CompileResponse>(json.status());
  if (!decoded.is_ok()) {
    // A worker that breaks the wire protocol can no longer be trusted:
    // treat it like a crash.
    kill_worker_group(pid);
    mark_dead_locked(*worker, now, /*hung=*/false);
    return typed_response(request, ErrorCode::kInternal,
                          "compile worker returned a malformed response: " +
                              decoded.status().message());
  }
  worker->busy = false;
  worker->consecutive_failures = 0;
  worker_free_.notify_one();
  CompileResponse response = std::move(decoded).value();
  response.id = request.id;  // the channel is 1:1; trust it over the echo
  return response;
}

void Supervisor::monitor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    double now = now_ms();

    // Reap zombies handed over by execute() (crashed or watchdog-killed
    // workers) without blocking: a SIGKILLed child can take a tick to
    // become reapable.
    for (std::size_t i = 0; i < zombies_.size();) {
      int status = 0;
      if (::waitpid(zombies_[i], &status, WNOHANG) == zombies_[i]) {
        zombies_.erase(zombies_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    // Spontaneous deaths of idle workers (a chaos SIGKILL, an OOM kill):
    // a busy worker's death is the executing thread's to detect via EOF.
    for (Worker& worker : workers_) {
      if (worker.alive && !worker.busy) {
        int status = 0;
        pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
        if (reaped == worker.pid) {
          worker.pid = -1;  // already reaped: don't re-queue as a zombie
          mark_dead_locked(worker, now, /*hung=*/false);
        }
      }
    }

    // Restart dead workers whose backoff delay has elapsed — unless the
    // breaker is open, in which case the fleet stays down (brownout) until
    // the restart window clears.
    if (!breaker_.open(now)) {
      for (Worker& worker : workers_) {
        if (!worker.alive && now >= worker.restart_at_ms) {
          if (spawn_worker_locked(worker, now)) {
            ++counters_.restarts;
            worker_free_.notify_all();
          } else {
            ++worker.consecutive_failures;
            worker.restart_at_ms =
                now + backoff_delay_ms(config_.backoff,
                                       worker.consecutive_failures - 1,
                                       qfs::derive_seed(config_.seed,
                                                        spawn_seq_));
          }
        }
      }
    }

    monitor_wake_.wait_for(lock, std::chrono::milliseconds(10));
  }
}

void Supervisor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  monitor_wake_.notify_all();
  worker_free_.notify_all();
  if (monitor_.joinable()) monitor_.join();

  std::lock_guard<std::mutex> lock(mu_);
  // Close the pipes: a healthy worker exits on stdin EOF.
  for (Worker& worker : workers_) {
    if (worker.fd >= 0) {
      ::close(worker.fd);
      worker.fd = -1;
    }
  }
  // Grace period, then SIGKILL the stragglers (hung workers ignore EOF).
  std::vector<pid_t> pending;
  for (Worker& worker : workers_) {
    if (worker.alive && worker.pid > 0) pending.push_back(worker.pid);
    worker.alive = false;
    worker.pid = -1;
  }
  for (pid_t pid : zombies_) pending.push_back(pid);
  zombies_.clear();
  for (int attempt = 0; attempt < 40 && !pending.empty(); ++attempt) {
    for (std::size_t i = 0; i < pending.size();) {
      int status = 0;
      if (::waitpid(pending[i], &status, WNOHANG) == pending[i]) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (pending.empty()) break;
    if (attempt == 19) {
      for (pid_t pid : pending) kill_worker_group(pid);
    }
    ::usleep(5 * 1000);
  }
  for (pid_t pid : pending) {
    kill_worker_group(pid);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

SupervisorCounters Supervisor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<int> Supervisor::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> pids;
  for (const Worker& worker : workers_) {
    if (worker.alive && worker.pid > 0) {
      pids.push_back(static_cast<int>(worker.pid));
    }
  }
  return pids;
}

bool Supervisor::breaker_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  // CircuitBreaker::open prunes its window (logically const, physically
  // not); the mutex makes the mutation safe here.
  auto& self = const_cast<Supervisor&>(*this);
  return self.breaker_.open(self.now_ms());
}

}  // namespace qfs::service
