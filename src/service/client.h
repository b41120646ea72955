// Deadline-aware qfsd wire client with idempotent retry.
//
// Compilation is deterministic and idempotent (same request, same bytes —
// the PR 5/PR 6 byte-identity contract), so retrying a failed request can
// never produce a different answer, only a later one. That makes the retry
// policy purely a question of *which failures are worth retrying*:
//
//   retryable:      connect failure, connection dropped mid-call, typed
//                   `internal` (a worker crashed under the request), typed
//                   `resource_exhausted` (admission bounce or supervisor
//                   brownout — backoff gives the window time to clear);
//   not retryable:  `deadline_exceeded` (the budget is gone by definition),
//                   `invalid_request`/`parse_error`/`compile_failed`/
//                   `lint_error` (deterministic: the retry would fail the
//                   same way).
//
// Retries never extend the deadline: the request's `deadline_ms` is an
// overall budget measured from the first attempt, each attempt is sent
// with the *remaining* budget, and backoff sleeps are clamped to it.
//
// The low-level pieces (connect_endpoint, send_all, LineReader, private
// daemon spawn) are exposed too. send_all and LineReader are the only
// socket writer and reader of the wire: the server's connections, the
// supervisor's worker channel, `qfsd --worker`, qfsd_loadgen (load, chaos
// storm and --once) and the tests all frame lines through them.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "service/api.h"
#include "service/supervisor.h"  // BackoffPolicy / backoff_delay_ms
#include "support/json.h"
#include "support/status.h"

namespace qfs::service {

// ---------------------------------------------------------------------------
// Low-level wire plumbing (shared by every qfsd client tool).
// ---------------------------------------------------------------------------

/// Connect to "unix:<path>", "tcp:<port>" or "tcp:<host>:<port>" (loopback).
/// Returns the socket fd, or -1 with `error` filled in.
int connect_endpoint(const std::string& spec, std::string& error);

/// Write all of `text` (MSG_NOSIGNAL; a dead peer is a false return, not a
/// process-killing SIGPIPE).
bool send_all(int fd, const std::string& text);

/// Buffered '\n'-framed line reader over a socket. The buffer is compacted
/// once per recv, not once per line, so a chunk holding many pipelined
/// lines is split in linear time.
class LineReader {
 public:
  /// Why read() returned.
  enum class Result {
    kLine,      ///< `line` holds the next line, without its newline
    kEof,       ///< peer closed or the socket failed; see pending()
    kTimeout,   ///< no complete line within the timeout
    kOverflow,  ///< more than `max_pending` bytes arrived without a newline
  };

  /// `max_pending` bounds the unterminated bytes buffered before read()
  /// gives up with kOverflow (default: unbounded).
  explicit LineReader(
      int fd,
      std::size_t max_pending = std::numeric_limits<std::size_t>::max())
      : fd_(fd), max_pending_(max_pending) {}

  /// Next line without its newline; false on EOF/error/overflow.
  bool next(std::string& line) { return read(line) == Result::kLine; }

  /// Next line, waiting at most `timeout_ms` in total (< 0: no limit).
  Result read(std::string& line, double timeout_ms = -1.0);

  /// The unterminated bytes received so far: at kEof, a final line the
  /// peer sent without a newline.
  std::string_view pending() const {
    return std::string_view(buffer_).substr(start_);
  }

 private:
  int fd_;
  std::size_t max_pending_;
  std::string buffer_;
  std::size_t start_ = 0;    ///< first byte not yet returned as a line
  std::size_t scanned_ = 0;  ///< buffer_[start_, scanned_) holds no '\n'
};

/// A private daemon forked for the duration of a test/tool run.
struct SpawnedDaemon {
  pid_t pid = -1;
  std::string endpoint;  ///< "unix:<scratch path>"
};

/// Fork/exec `qfsd_path` on a scratch Unix socket with `extra_args`
/// appended after --listen, and wait until it answers ping. False (with
/// `error`) when it never comes up.
bool spawn_daemon(const std::string& qfsd_path,
                  const std::vector<std::string>& extra_args,
                  SpawnedDaemon& out, std::string& error);

/// Ask a spawned daemon to shut down (wire op, SIGTERM fallback) and reap
/// it. Returns its exit code (128 on abnormal exit).
int stop_daemon(const SpawnedDaemon& daemon);

// ---------------------------------------------------------------------------
// Retrying client.
// ---------------------------------------------------------------------------

struct RetryPolicy {
  /// Total tries including the first (1 = no retry).
  int max_attempts = 4;

  /// Backoff between attempts (same schedule the supervisor uses).
  BackoffPolicy backoff{/*initial_ms=*/10.0, /*multiplier=*/2.0,
                        /*max_ms=*/500.0, /*jitter=*/0.25};

  /// Seed for the deterministic backoff jitter.
  std::uint64_t seed = 2022;
};

/// What one call() actually did, for load reports and tests.
struct RetryStats {
  int attempts = 0;             ///< sends tried (>= 1 unless pre-expired)
  int retries = 0;              ///< attempts beyond the first
  int connect_failures = 0;     ///< could not even connect
  int dropped_connections = 0;  ///< connection died after the send
  int retryable_responses = 0;  ///< typed internal/resource_exhausted seen
  double backoff_ms = 0.0;      ///< total time spent sleeping
  bool gave_up = false;         ///< retry budget or deadline exhausted
};

/// One persistent connection to a qfsd endpoint, reconnecting and retrying
/// per RetryPolicy. Not thread-safe: one Client per client thread.
class Client {
 public:
  explicit Client(std::string endpoint, RetryPolicy policy = RetryPolicy{});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Run one request to completion. Always returns a typed response:
  /// transport failures that outlive the retry budget synthesize an
  /// `internal` response, an expired overall deadline synthesizes
  /// `deadline_exceeded`. `stats` (optional) reports the attempt history.
  CompileResponse call(CompileRequest request, RetryStats* stats = nullptr);

  /// Raw wire line of the last response that came off the socket ("" when
  /// the last call() synthesized its response locally). `--once` prints
  /// the metrics out of this verbatim, preserving the byte-identity
  /// contract with `qfsc --emit-json`.
  const std::string& last_response_line() const { return last_line_; }

  /// Send a control op ({"op":"ping"} / {"op":"stats"}) and decode the
  /// reply. No retry: ops are cheap probes, failure is an answer too.
  qfs::StatusOr<JsonValue> op(const std::string& name);

  /// Drop the persistent connection (the next call reconnects).
  void disconnect();

 private:
  bool ensure_connected(std::string& error);

  std::string endpoint_;
  RetryPolicy policy_;
  int fd_ = -1;
  LineReader reader_{-1};
  std::string last_line_;
};

}  // namespace qfs::service
