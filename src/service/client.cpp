#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "support/rng.h"
#include "support/strings.h"
#include "support/timer.h"

namespace qfs::service {

namespace {

// Measurement timing goes through the shared monotonic helper
// (support/timer.h) — one implementation for every latency figure.
using Clock = qfs::MonotonicClock;
using qfs::ms_since;

}  // namespace

// ---------------------------------------------------------------------------
// Low-level plumbing.
// ---------------------------------------------------------------------------

int connect_endpoint(const std::string& spec, std::string& error) {
  if (qfs::starts_with(spec, "unix:")) {
    std::string path = spec.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      error = "bad unix socket path '" + path + "'";
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      error = std::string("connect '") + path + "': " + std::strerror(errno);
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  if (qfs::starts_with(spec, "tcp:")) {
    // Accept both "tcp:<port>" and "tcp:127.0.0.1:<port>" (the form a
    // daemon prints as its endpoint).
    std::string rest = spec.substr(4);
    std::string host = "127.0.0.1";
    std::size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      host = rest.substr(0, colon);
      rest = rest.substr(colon + 1);
    }
    int port = 0;
    if (!qfs::parse_int(rest, port) || port < 1 || port > 65535) {
      error = "bad tcp port in '" + spec + "'";
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      error = "bad tcp host in '" + spec + "'";
      return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      error = "connect '" + spec + "': " + std::strerror(errno);
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  error = "bad endpoint '" + spec + "' (expected unix:<path> or tcp:<port>)";
  return -1;
}

bool send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

LineReader::Result LineReader::read(std::string& line, double timeout_ms) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      line.assign(buffer_, start_, nl - start_);
      start_ = scanned_ = nl + 1;
      return Result::kLine;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() - start_ > max_pending_) return Result::kOverflow;
    if (timeout_ms >= 0.0) {
      double remaining_ms = timeout_ms - ms_since(start);
      if (remaining_ms <= 0.0) return Result::kTimeout;
      // One millisecond of slack: poll rounds down, and the caller's
      // deadline must have passed when kTimeout comes back.
      pollfd pfd{fd_, POLLIN, 0};
      int rc = ::poll(&pfd, 1,
                      static_cast<int>(std::min(remaining_ms + 1.0, 1e9)));
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) return Result::kEof;
      if (rc == 0) return Result::kTimeout;
    }
    // Every line already returned leaves the buffer in one erase.
    buffer_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
    char chunk[64 * 1024];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Result::kEof;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool spawn_daemon(const std::string& qfsd_path,
                  const std::vector<std::string>& extra_args,
                  SpawnedDaemon& out, std::string& error) {
  static unsigned spawn_counter = 0;
  std::string socket_path = "/tmp/qfsd-client-" + std::to_string(::getpid()) +
                            "-" + std::to_string(++spawn_counter) + ".sock";
  out.endpoint = "unix:" + socket_path;

  std::vector<std::string> args;
  args.push_back(qfsd_path);
  args.push_back("--listen");
  args.push_back(out.endpoint);
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  out.pid = pid;
  // The daemon is up once it answers a ping on its socket.
  for (int attempt = 0; attempt < 400; ++attempt) {
    std::string connect_error;
    int fd = connect_endpoint(out.endpoint, connect_error);
    if (fd >= 0) {
      bool ok = send_all(fd, "{\"op\":\"ping\"}\n");
      std::string line;
      LineReader reader(fd);
      ok = ok && reader.next(line) && line.find("\"ok\"") != std::string::npos;
      ::close(fd);
      if (ok) return true;
    }
    int wait_status = 0;
    if (::waitpid(pid, &wait_status, WNOHANG) == pid) {
      out.pid = -1;
      error = "daemon exited before accepting connections";
      return false;
    }
    ::usleep(25 * 1000);
  }
  error = "daemon never answered ping on " + out.endpoint;
  return false;
}

int stop_daemon(const SpawnedDaemon& daemon) {
  if (daemon.pid <= 0) return 128;
  std::string error;
  int fd = connect_endpoint(daemon.endpoint, error);
  if (fd >= 0) {
    send_all(fd, "{\"op\":\"shutdown\"}\n");
    std::string line;
    LineReader(fd).next(line);  // wait for the ack so the drain has begun
    ::close(fd);
  } else {
    ::kill(daemon.pid, SIGTERM);
  }
  int wait_status = 0;
  ::waitpid(daemon.pid, &wait_status, 0);
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : 128;
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

Client::Client(std::string endpoint, RetryPolicy policy)
    : endpoint_(std::move(endpoint)), policy_(policy) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = LineReader(-1);
}

bool Client::ensure_connected(std::string& error) {
  if (fd_ >= 0) return true;
  fd_ = connect_endpoint(endpoint_, error);
  reader_ = LineReader(fd_);
  return fd_ >= 0;
}

namespace {

CompileResponse synthesized(const CompileRequest& request, ErrorCode code,
                            std::string message) {
  CompileResponse response;
  response.id = request.id;
  response.code = code;
  response.error_message = std::move(message);
  return response;
}

bool retryable_code(ErrorCode code) {
  // `internal` = a worker crashed under the request (idempotent: safe);
  // `resource_exhausted` = admission bounce or supervisor brownout
  // (transient by construction). Everything else is either deterministic
  // (would fail identically) or a spent deadline.
  return code == ErrorCode::kInternal || code == ErrorCode::kResourceExhausted;
}

}  // namespace

CompileResponse Client::call(CompileRequest request, RetryStats* stats) {
  RetryStats local;
  RetryStats& s = stats != nullptr ? *stats : local;
  s = RetryStats{};
  last_line_.clear();

  const Clock::time_point start = Clock::now();
  const double budget_ms = request.deadline_ms;  // overall, from first send
  CompileResponse last_failure =
      synthesized(request, ErrorCode::kInternal, "no attempt was made");

  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    double remaining_ms = budget_ms >= 0.0 ? budget_ms - ms_since(start) : -1.0;
    if (budget_ms >= 0.0 && remaining_ms <= 0.0) {
      s.gave_up = true;
      return synthesized(request, ErrorCode::kDeadlineExceeded,
                         "request deadline expired after " +
                             std::to_string(s.attempts) + " attempt(s)");
    }

    ++s.attempts;
    s.retries = s.attempts - 1;
    request.attempt = attempt;
    if (budget_ms >= 0.0) request.deadline_ms = remaining_ms;

    std::string error;
    if (!ensure_connected(error)) {
      ++s.connect_failures;
      last_failure = synthesized(request, ErrorCode::kInternal,
                                 "connect failed: " + error);
    } else {
      const std::string line = request_to_json(request).to_string() + '\n';
      std::string response_line;
      bool got = send_all(fd_, line) && reader_.next(response_line);
      if (!got) {
        ++s.dropped_connections;
        disconnect();
        last_failure =
            synthesized(request, ErrorCode::kInternal,
                        "connection dropped before a response arrived");
      } else {
        auto json = JsonValue::parse(response_line);
        auto decoded = json.is_ok()
                           ? response_from_json(json.value())
                           : qfs::StatusOr<CompileResponse>(json.status());
        if (!decoded.is_ok()) {
          // A peer that breaks framing cannot be trusted to stay in sync:
          // drop the connection and retry fresh.
          ++s.dropped_connections;
          disconnect();
          last_failure = synthesized(
              request, ErrorCode::kInternal,
              "malformed response: " + decoded.status().message());
        } else {
          CompileResponse response = std::move(decoded).value();
          if (!retryable_code(response.code)) {
            last_line_ = response_line;
            return response;
          }
          ++s.retryable_responses;
          last_failure = std::move(response);
          last_line_ = response_line;
        }
      }
    }

    if (attempt + 1 >= policy_.max_attempts) break;
    double delay_ms =
        backoff_delay_ms(policy_.backoff, attempt,
                         qfs::derive_seed(policy_.seed,
                                          static_cast<std::uint64_t>(attempt)));
    if (budget_ms >= 0.0) {
      remaining_ms = budget_ms - ms_since(start);
      if (remaining_ms <= 0.0) {
        s.gave_up = true;
        return synthesized(request, ErrorCode::kDeadlineExceeded,
                           "request deadline expired after " +
                               std::to_string(s.attempts) + " attempt(s)");
      }
      delay_ms = std::min(delay_ms, remaining_ms);
    }
    s.backoff_ms += delay_ms;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }

  s.gave_up = true;
  return last_failure;
}

qfs::StatusOr<JsonValue> Client::op(const std::string& name) {
  std::string error;
  if (!ensure_connected(error)) return qfs::io_error(error);
  if (!send_all(fd_, "{\"op\":\"" + name + "\"}\n")) {
    disconnect();
    return qfs::io_error("send failed for op '" + name + "'");
  }
  std::string response_line;
  if (!reader_.next(response_line)) {
    disconnect();
    return qfs::io_error("connection dropped during op '" + name + "'");
  }
  return JsonValue::parse(response_line);
}

}  // namespace qfs::service
