// Crash-isolated worker supervision for the qfsd service tier.
//
// A Supervisor owns a fleet of child worker processes (fork/exec of
// `qfsd --worker`, each speaking the existing line-delimited CompileRequest/
// CompileResponse JSON over a socketpair) and runs every compilation inside
// one of them. A compiler crash — segfault, OOM kill, runaway assert — then
// takes down one worker, not the daemon and every in-flight request sharing
// its address space:
//
//   - a worker that dies mid-request surfaces as a typed `internal`
//     response ("retry is safe": compilation is deterministic and
//     idempotent, so the retrying client gets byte-identical results);
//   - a worker that hangs past the request deadline is SIGKILLed by the
//     per-request watchdog and the request fails fast with
//     `deadline_exceeded` instead of wedging a slot forever;
//   - every worker leads its own process group, and every kill (watchdog,
//     malformed output, shutdown) goes to the whole group, so nothing a
//     worker started outlives it;
//   - dead workers are restarted with jittered exponential backoff, and a
//     restart storm (too many restarts inside a sliding window) trips a
//     circuit breaker: the supervisor stops respawning and sheds incoming
//     requests with typed `resource_exhausted` until the window clears,
//     then recovers on its own.
//
// The backoff schedule and the breaker state machine are deliberately pure
// (explicit clock parameters, seeded jitter) so the unit tests can walk
// them deterministically without sleeping.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/api.h"
#include "support/status.h"

namespace qfs::service {

// ---------------------------------------------------------------------------
// Backoff schedule (pure).
// ---------------------------------------------------------------------------
struct BackoffPolicy {
  double initial_ms = 25.0;   ///< delay before the first restart
  double multiplier = 2.0;    ///< growth per consecutive failure
  double max_ms = 2000.0;     ///< exponential growth clamps here
  double jitter = 0.25;       ///< +-fraction of the base delay
};

/// Delay before restart `attempt` (0-based consecutive-failure count):
/// min(max_ms, initial_ms * multiplier^attempt), scaled by a deterministic
/// jitter factor in [1 - jitter, 1 + jitter) derived from (seed, attempt).
/// Pure: same inputs, same delay — the unit tests pin the whole schedule.
double backoff_delay_ms(const BackoffPolicy& policy, int attempt,
                        std::uint64_t seed);

// ---------------------------------------------------------------------------
// Restart-storm circuit breaker (pure state machine, injected clock).
// ---------------------------------------------------------------------------
struct BreakerConfig {
  /// Restarts tolerated inside the sliding window; one more trips the
  /// breaker.
  int max_restarts = 8;
  double window_ms = 10'000.0;   ///< sliding restart-counting window
  double cooldown_ms = 1'000.0;  ///< minimum open time once tripped
};

/// Sliding-window circuit breaker over worker restarts. All methods take an
/// explicit monotonic timestamp, so tests drive it with a fake clock. Not
/// internally synchronized; the Supervisor calls it under its own mutex.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config) : config_(config) {}

  /// Record one worker restart (called when a worker dies).
  void record_restart(double now_ms);

  /// True while the breaker is open (brownout): shed requests, don't
  /// respawn. Recovers automatically once the cooldown has elapsed AND the
  /// sliding window has drained back under the limit.
  bool open(double now_ms);

  /// Restarts currently inside the sliding window.
  int restarts_in_window(double now_ms);

  std::uint64_t trips() const { return trips_; }

 private:
  void prune(double now_ms);

  BreakerConfig config_;
  std::deque<double> restarts_;
  bool tripped_ = false;
  double open_until_ms_ = 0.0;
  std::uint64_t trips_ = 0;
};

// ---------------------------------------------------------------------------
// Supervisor.
// ---------------------------------------------------------------------------
struct SupervisorConfig {
  /// Full argv of the worker process, e.g. {"/path/qfsd", "--worker",
  /// "--cache-dir", "/var/qfs"}. The tests substitute /bin/sh fakes.
  std::vector<std::string> command;

  /// Worker processes (compile concurrency of the supervised daemon).
  int workers = 2;

  BackoffPolicy backoff;
  BreakerConfig breaker;

  /// Watchdog for requests that carry no deadline of their own: a worker
  /// silent for this long is presumed hung and killed (< 0 disables the
  /// backstop — then only per-request deadlines bound a hang).
  double hang_timeout_ms = 30'000.0;

  /// Seed for the deterministic backoff jitter.
  std::uint64_t seed = 2022;
};

/// Monotonic counters, readable while the supervisor runs.
struct SupervisorCounters {
  std::uint64_t spawns = 0;         ///< fork/exec attempts (initial fleet too)
  std::uint64_t restarts = 0;       ///< respawns after a death
  std::uint64_t crashes = 0;        ///< workers that died (EOF / exit / signal)
  std::uint64_t hung_killed = 0;    ///< workers SIGKILLed by the watchdog
  std::uint64_t breaker_trips = 0;  ///< times the restart storm opened it
  std::uint64_t shed = 0;           ///< requests shed while the breaker is open
  std::uint64_t requests = 0;       ///< requests handed to a worker
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawn the initial worker fleet and the monitor thread. A worker that
  /// dies instantly is not a start() error — the monitor restarts it and
  /// the breaker handles the pathological case — but an empty command or a
  /// failed socketpair/fork is.
  qfs::Status start();

  /// Run one request in a worker. `budget_ms` is the remaining wall-clock
  /// deadline (admission time already subtracted by the caller); < 0 means
  /// no deadline, bounded only by the hang-timeout backstop. Every outcome
  /// is a typed response: `internal` for a crashed worker,
  /// `deadline_exceeded` for a hung-then-killed one or an expired wait,
  /// `resource_exhausted` while the breaker sheds.
  CompileResponse execute(const CompileRequest& request, double budget_ms);

  /// Close every worker's pipe (they exit on EOF), reap them — SIGKILL
  /// after a short grace for the hung ones — and join the monitor.
  /// Idempotent. The caller must have drained execute() callers first.
  void shutdown();

  SupervisorCounters counters() const;

  /// PIDs of the currently-live workers (the chaos harness SIGKILLs these).
  std::vector<int> worker_pids() const;

  /// True while shedding (the brownout state, for the stats op).
  bool breaker_open() const;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;  ///< parent end of the socketpair (-1 = not running)
    bool alive = false;
    bool busy = false;
    int consecutive_failures = 0;
    double restart_at_ms = 0.0;  ///< earliest respawn time (monotonic ms)
  };

  double now_ms() const;
  bool spawn_worker_locked(Worker& worker, double now);
  void mark_dead_locked(Worker& worker, double now, bool hung);
  void monitor_loop();

  SupervisorConfig config_;

  mutable std::mutex mu_;
  std::condition_variable worker_free_;
  std::condition_variable monitor_wake_;
  std::vector<Worker> workers_;
  std::deque<pid_t> zombies_;  ///< dead pids awaiting waitpid by the monitor
  CircuitBreaker breaker_;
  SupervisorCounters counters_;
  std::uint64_t spawn_seq_ = 0;  ///< jitter substream per respawn
  bool stopping_ = false;
  bool started_ = false;

  std::thread monitor_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace qfs::service
