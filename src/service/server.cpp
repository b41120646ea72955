#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "backends/registry.h"
#include "report/cache_summary.h"
#include "service/client.h"
#include "support/json.h"
#include "support/strings.h"
#include "support/timer.h"

namespace qfs::service {

namespace {

// Measurement timing goes through the shared monotonic helper
// (support/timer.h) — one implementation for every latency figure.
using Clock = qfs::MonotonicClock;
using qfs::ms_since;

}  // namespace

// One accepted socket: the reader thread and every worker task holding a
// response for it share ownership; the fd closes when the last one lets go,
// so a response never races a close.
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Serialize `text` + '\n' onto the socket. Returns false when the peer
  /// is gone; the error is not fatal to the server.
  bool write_line(const std::string& text) {
    std::lock_guard<std::mutex> lock(write_mu);
    return send_all(fd, text + '\n');
  }

  const int fd;
  std::mutex write_mu;
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  service_ = CompileService(config_.service);
}

Server::~Server() {
  shutdown();
  wait();
}

qfs::Status Server::start() {
  const std::string& spec = config_.listen;
  if (starts_with(spec, "unix:")) {
    is_unix_ = true;
    unix_path_ = spec.substr(5);
    if (unix_path_.empty()) {
      return qfs::invalid_argument("empty unix socket path in '" + spec +
                                   "'");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path_.size() >= sizeof(addr.sun_path)) {
      return qfs::invalid_argument("unix socket path too long: " +
                                   unix_path_);
    }
    std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size() + 1);
    // CLOEXEC everywhere: supervised worker children must not inherit the
    // listener or any connection fd (an inherited fd would keep a "closed"
    // client connection alive and mask its EOF).
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return qfs::io_error(std::string("socket: ") + std::strerror(errno));
    }
    // A stale socket file from a crashed daemon would make bind fail;
    // removing it first is the conventional unix-daemon behaviour.
    ::unlink(unix_path_.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      qfs::Status status = qfs::io_error("bind '" + unix_path_ +
                                         "': " + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    endpoint_ = "unix:" + unix_path_;
  } else if (starts_with(spec, "tcp:")) {
    int port = 0;
    if (!parse_int(spec.substr(4), port) || port < 0 || port > 65535) {
      return qfs::invalid_argument("bad tcp port in '" + spec + "'");
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      return qfs::io_error(std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      qfs::Status status = qfs::io_error("bind tcp:" + std::to_string(port) +
                                         ": " + std::strerror(errno));
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    endpoint_ =
        "tcp:127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
  } else {
    return qfs::invalid_argument(
        "bad listen spec '" + spec + "' (expected unix:<path> or tcp:<port>)");
  }

  if (::listen(listen_fd_, 128) != 0) {
    qfs::Status status =
        qfs::io_error(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (!config_.supervisor.command.empty()) {
    supervisor_ = std::make_unique<Supervisor>(config_.supervisor);
    qfs::Status status = supervisor_->start();
    if (!status.is_ok()) {
      supervisor_.reset();
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (is_unix_ && !unix_path_.empty()) ::unlink(unix_path_.c_str());
      return status;
    }
  }
  pool_ = std::make_unique<qfs::ThreadPool>(
      qfs::resolve_jobs(config_.workers));
  accept_thread_ = std::thread([this] { accept_loop(); });
  return qfs::Status::ok();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listening socket shut down (signal or "op":"shutdown")
    }
    auto conn = std::make_shared<Connection>(fd);
    // A connection accepted while another thread starts the shutdown could
    // miss its half-close sweep; re-check after registration below.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Modest reaping so a long-lived daemon doesn't accumulate slots.
      std::erase_if(conns_, [](const std::weak_ptr<Connection>& w) {
        return w.expired();
      });
      conns_.push_back(conn);
    }
    if (stopping_.load()) continue;  // dropped: fd closes with the last ref
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections;
    }
    {
      std::lock_guard<std::mutex> lock(readers_mu_);
      ++active_readers_;
    }
    std::thread([this, conn = std::move(conn)]() mutable {
      serve_connection(std::move(conn));
      std::lock_guard<std::mutex> lock(readers_mu_);
      --active_readers_;
      readers_done_.notify_all();
    }).detach();
  }
  shutdown();
}

void Server::serve_connection(std::shared_ptr<Connection> conn) {
  LineReader reader(conn->fd, config_.max_line_bytes);
  std::string line;
  LineReader::Result result;
  while ((result = reader.read(line)) == LineReader::Result::kLine) {
    handle_line(conn, std::move(line));
  }
  if (result == LineReader::Result::kOverflow) {
    // Framing can't be trusted past an overlong line: answer once and hang
    // up without handling the unterminated tail.
    conn->write_line(
        error_response_json(
            ErrorCode::kResourceExhausted,
            "request line exceeds " +
                std::to_string(config_.max_line_bytes) + " bytes")
            .to_string());
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.rejected;
    return;
  }
  // A trailing request without a final newline still deserves an answer.
  handle_line(conn, std::string(reader.pending()));
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         std::string line) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;

  auto json = JsonValue::parse(line);
  if (!json.is_ok()) {
    conn->write_line(error_response_json(ErrorCode::kInvalidRequest,
                                         json.status().message())
                         .to_string());
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.failed;
    return;
  }

  // Echo the client's id even when the request itself is rejected.
  std::string id;
  if (json.value().is_object()) {
    const JsonValue* id_field = json.value().find("id");
    if (id_field != nullptr && id_field->is_string()) {
      id = id_field->as_string();
    } else if (id_field != nullptr && id_field->is_integer()) {
      id = std::to_string(id_field->as_integer());
    }
  }

  if (json.value().is_object()) {
    const JsonValue* op = json.value().find("op");
    if (op != nullptr) {
      if (!op->is_string() || !handle_op(conn, op->as_string(), id)) {
        conn->write_line(
            error_response_json(
                ErrorCode::kInvalidRequest,
                "unknown op (ping | stats | devices | shutdown)", id)
                .to_string());
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.failed;
      }
      return;
    }
  }

  auto request = request_from_json(json.value());
  if (!request.is_ok()) {
    conn->write_line(error_response_json(ErrorCode::kInvalidRequest,
                                         request.status().message(), id)
                         .to_string());
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.failed;
    return;
  }
  dispatch(conn, std::move(request).value());
}

bool Server::handle_op(const std::shared_ptr<Connection>& conn,
                       const std::string& op, const std::string& id) {
  JsonValue doc = JsonValue::object();
  if (!id.empty()) doc.set("id", JsonValue::string(id));
  doc.set("ok", JsonValue::boolean(true)).set("op", JsonValue::string(op));
  if (op == "ping") {
    conn->write_line(doc.to_string());
    return true;
  }
  if (op == "stats") {
    ServerCounters c = counters();
    JsonValue server = JsonValue::object();
    server
        .set("connections",
             JsonValue::integer(static_cast<long long>(c.connections)))
        .set("requests",
             JsonValue::integer(static_cast<long long>(c.requests)))
        .set("ok", JsonValue::integer(static_cast<long long>(c.ok)))
        .set("failed", JsonValue::integer(static_cast<long long>(c.failed)))
        .set("rejected",
             JsonValue::integer(static_cast<long long>(c.rejected)))
        .set("deadline_expired",
             JsonValue::integer(static_cast<long long>(c.deadline_expired)))
        .set("cache_hits",
             JsonValue::integer(static_cast<long long>(c.cache_hits)))
        .set("retries_observed",
             JsonValue::integer(static_cast<long long>(c.retries_observed)))
        .set("inflight", JsonValue::integer(inflight_.load()))
        .set("workers", JsonValue::integer(pool_ ? pool_->size() : 0));
    doc.set("server", std::move(server));
    if (supervisor_ != nullptr) {
      SupervisorCounters sc = supervisor_->counters();
      JsonValue sup = JsonValue::object();
      sup.set("requests",
              JsonValue::integer(static_cast<long long>(sc.requests)))
          .set("spawns", JsonValue::integer(static_cast<long long>(sc.spawns)))
          .set("restarts",
               JsonValue::integer(static_cast<long long>(sc.restarts)))
          .set("crashes",
               JsonValue::integer(static_cast<long long>(sc.crashes)))
          .set("hung_killed",
               JsonValue::integer(static_cast<long long>(sc.hung_killed)))
          .set("breaker_trips",
               JsonValue::integer(static_cast<long long>(sc.breaker_trips)))
          .set("shed", JsonValue::integer(static_cast<long long>(sc.shed)))
          .set("breaker_open",
               JsonValue::boolean(supervisor_->breaker_open()));
      JsonValue pids = JsonValue::array();
      for (int pid : supervisor_->worker_pids()) {
        pids.push_back(JsonValue::integer(pid));
      }
      sup.set("worker_pids", std::move(pids));
      doc.set("supervisor", std::move(sup));
    }
    if (service_.cache() != nullptr) {
      doc.set("cache", report::cache_stats_to_json(service_.cache()->stats()));
    }
    conn->write_line(doc.to_string());
    return true;
  }
  if (op == "devices") {
    // Registry enumeration for remote clients: the same entries and
    // parameter ranges `qfsc --list-devices` prints locally.
    JsonValue devices = JsonValue::array();
    for (const auto& info : backends::BackendRegistry::global().entries()) {
      JsonValue entry = JsonValue::object();
      entry.set("name", JsonValue::string(info.name))
          .set("summary", JsonValue::string(info.summary));
      JsonValue params = JsonValue::array();
      for (const auto& p : info.params) {
        JsonValue param = JsonValue::object();
        param.set("name", JsonValue::string(p.name))
            .set("min", JsonValue::number(p.min_value))
            .set("max", JsonValue::number(p.max_value))
            .set("default", JsonValue::number(p.default_value))
            .set("integer", JsonValue::boolean(p.integer))
            .set("doc", JsonValue::string(p.doc));
        params.push_back(std::move(param));
      }
      entry.set("params", std::move(params));
      devices.push_back(std::move(entry));
    }
    doc.set("devices", std::move(devices));
    conn->write_line(doc.to_string());
    return true;
  }
  if (op == "shutdown") {
    conn->write_line(doc.to_string());
    // Kick the accept loop; it runs the actual graceful drain. Doing the
    // drain here would deadlock: shutdown() waits for this reader thread.
    ::shutdown(listen_fd_, SHUT_RDWR);
    return true;
  }
  return false;
}

void Server::dispatch(const std::shared_ptr<Connection>& conn,
                      CompileRequest request) {
  // The chaos field is a test-only fault-injection directive: only a
  // supervised daemon started with --enable-chaos honours it, everywhere
  // else it is a client error (never silently compiled — see service.cpp).
  if (!request.chaos.empty() &&
      (supervisor_ == nullptr || !config_.enable_chaos)) {
    conn->write_line(
        error_response_json(ErrorCode::kInvalidRequest,
                            "chaos injection is disabled on this daemon "
                            "(start with --worker-procs N --enable-chaos)",
                            request.id)
            .to_string());
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.failed;
    return;
  }
  if (stopping_.load() || pool_ == nullptr) {
    conn->write_line(error_response_json(ErrorCode::kResourceExhausted,
                                         "server is shutting down",
                                         request.id)
                         .to_string());
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.rejected;
    return;
  }
  // Bounded admission: count this request in, bounce if the daemon is full.
  if (inflight_.fetch_add(1) >= config_.max_queue) {
    inflight_.fetch_sub(1);
    conn->write_line(
        error_response_json(
            ErrorCode::kResourceExhausted,
            "admission queue full (" + std::to_string(config_.max_queue) +
                " requests in flight)",
            request.id)
            .to_string());
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.rejected;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.requests;
    if (request.attempt > 0) ++counters_.retries_observed;
  }
  if (request.deadline_ms < 0) request.deadline_ms = config_.default_deadline_ms;
  Clock::time_point admitted = Clock::now();
  pool_->submit([this, conn, request = std::move(request), admitted] {
    double queue_ms = ms_since(admitted);
    CompileResponse response;
    if (request.deadline_ms >= 0 && queue_ms >= request.deadline_ms) {
      response.id = request.id;
      response.code = ErrorCode::kDeadlineExceeded;
      response.error_message =
          "deadline of " + std::to_string(request.deadline_ms) +
          " ms expired in the admission queue";
    } else if (supervisor_ != nullptr) {
      // Crash-isolated path: hand the request to a child worker with the
      // budget that remains after its queue wait.
      double budget_ms = request.deadline_ms >= 0
                             ? request.deadline_ms - queue_ms
                             : -1.0;
      response = supervisor_->execute(request, budget_ms);
    } else {
      response = service_.execute(request);
    }
    response.timing.queue_ms = queue_ms;
    conn->write_line(response_to_json(response).to_string());
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      if (response.ok()) {
        ++counters_.ok;
      } else {
        ++counters_.failed;
      }
      if (response.code == ErrorCode::kDeadlineExceeded) {
        ++counters_.deadline_expired;
      }
      if (response.cache_hit) ++counters_.cache_hits;
    }
    inflight_.fetch_sub(1);
  });
}

void Server::shutdown() {
  if (stopping_.exchange(true)) {
    return;  // another thread is already driving (or has finished) the stop
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Half-close every connection: readers see EOF and stop admitting, but
  // in-flight responses still flush through the write side.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& weak : conns_) {
      if (auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  {
    std::unique_lock<std::mutex> lock(readers_mu_);
    readers_done_.wait(lock, [this] { return active_readers_ == 0; });
  }
  if (pool_) {
    pool_->wait_idle();
    pool_.reset();  // joins the workers
  }
  // Only after the pool is gone is no execute() in flight, so the worker
  // fleet can be torn down safely.
  if (supervisor_) supervisor_->shutdown();
  // accept_loop reads listen_fd_ until it returns: close the fd only after
  // that, joining the thread unless it is the one driving this stop.
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (is_unix_ && !unix_path_.empty()) ::unlink(unix_path_.c_str());
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void Server::wait() {
  // Joined under stop_mu_ so two waiters never join the same thread.
  std::unique_lock<std::mutex> lock(stop_mu_);
  stopped_cv_.wait(lock, [this] { return stopped_; });
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

}  // namespace qfs::service
