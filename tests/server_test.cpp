// In-process tests for the qfsd network engine: wire framing, the control
// ops, typed error handling for hostile lines (a malformed request must
// never kill the daemon), bounded admission, per-request deadlines, and
// concurrent clients sharing one server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "support/json.h"

namespace qfs::service {
namespace {

const char* kBellQasm =
    "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";

/// Minimal blocking line-protocol client for the tests, on the library's
/// wire plumbing (no retry, unlike service::Client: the tests drive raw
/// frames and want to see exactly what comes back).
class Client {
 public:
  explicit Client(const std::string& endpoint) { connect(endpoint); }

 private:
  // ASSERT_* needs a void function, so the constructor delegates.
  void connect(const std::string& endpoint) {
    std::string error;
    fd_ = connect_endpoint(endpoint, error);
    ASSERT_GE(fd_, 0) << error;
    reader_ = LineReader(fd_);
  }

 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  void send_raw(const std::string& bytes) {
    ASSERT_TRUE(send_all(fd_, bytes)) << "send: " << std::strerror(errno);
  }

  /// Half-close: the server sees EOF, responses still flow back.
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// Next '\n'-terminated line, or "" on EOF.
  std::string read_line() {
    std::string line;
    return reader_.next(line) ? line : "";
  }

  JsonValue read_json() {
    std::string line = read_line();
    EXPECT_FALSE(line.empty()) << "connection closed mid-conversation";
    auto parsed = JsonValue::parse(line);
    EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string() << ": "
                                << line;
    return parsed.is_ok() ? parsed.value() : JsonValue::object();
  }

  bool eof() { return read_line().empty(); }

 private:
  int fd_ = -1;
  LineReader reader_{-1};
};

std::string field(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  return (m != nullptr && m->is_string()) ? m->as_string() : "";
}

class ServerTest : public ::testing::Test {
 protected:
  void start(ServerConfig config) {
    server_ = std::make_unique<Server>(std::move(config));
    qfs::Status status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->shutdown();
      server_->wait();
    }
  }

  ServerConfig tcp_config() {
    ServerConfig config;
    config.listen = "tcp:0";  // ephemeral loopback port
    config.workers = 2;
    return config;
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingOverTcp) {
  start(tcp_config());
  Client client(server_->endpoint());
  client.send_line("{\"op\":\"ping\"}");
  JsonValue resp = client.read_json();
  EXPECT_TRUE(resp.find("ok")->as_bool());
  EXPECT_EQ(field(resp, "op"), "ping");
}

TEST_F(ServerTest, PingOverUnixSocket) {
  ServerConfig config = tcp_config();
  config.listen =
      "unix:/tmp/qfsd-test-" + std::to_string(::getpid()) + ".sock";
  start(config);
  Client client(server_->endpoint());
  client.send_line("{\"op\":\"ping\"}");
  EXPECT_TRUE(client.read_json().find("ok")->as_bool());
}

TEST_F(ServerTest, CompilesOverTheWire) {
  start(tcp_config());
  Client client(server_->endpoint());
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::string("t-1"));
  req.set("qasm", JsonValue::string(kBellQasm));
  client.send_line(req.to_string());
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "t-1");
  EXPECT_TRUE(resp.find("ok")->as_bool()) << field(resp, "error");
  EXPECT_EQ(field(resp, "code"), "ok");
  const JsonValue* metrics = resp.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(field(*metrics, "device"), "surface-17");
  EXPECT_EQ(field(*metrics, "mapped_digest").size(), 32u);
}

TEST_F(ServerTest, MalformedLinesNeverKillTheConnection) {
  start(tcp_config());
  Client client(server_->endpoint());

  client.send_line("this is not json");
  JsonValue resp = client.read_json();
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(field(resp, "code"), "invalid_request");

  client.send_line("{\"qasm\":\"x\",\"qasm\":\"y\"}");  // duplicate key
  EXPECT_EQ(field(client.read_json(), "code"), "invalid_request");

  client.send_line("{\"id\":\"bad-1\",\"qasm\":\"x\",\"plaser\":\"a\"}");
  resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "bad-1");  // id echoed even when rejected
  EXPECT_EQ(field(resp, "code"), "invalid_request");

  // The same connection still serves a valid request afterwards.
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::string("after"));
  req.set("qasm", JsonValue::string(kBellQasm));
  client.send_line(req.to_string());
  resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "after");
  EXPECT_TRUE(resp.find("ok")->as_bool());
}

TEST_F(ServerTest, UnparsableQasmIsATypedResponse) {
  start(tcp_config());
  Client client(server_->endpoint());
  client.send_line("{\"id\":\"p-1\",\"qasm\":\"qreg q[1]; bogus q[0];\"}");
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "p-1");
  EXPECT_EQ(field(resp, "code"), "parse_error");
}

TEST_F(ServerTest, UnknownOpIsRejected) {
  start(tcp_config());
  Client client(server_->endpoint());
  client.send_line("{\"op\":\"reboot\"}");
  JsonValue resp = client.read_json();
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_NE(field(resp, "error").find("unknown op"), std::string::npos);
}

TEST_F(ServerTest, ExpiredDeadlineIsTyped) {
  start(tcp_config());
  Client client(server_->endpoint());
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::string("d-1"));
  req.set("qasm", JsonValue::string(kBellQasm));
  req.set("deadline_ms", JsonValue::integer(0));  // already expired
  client.send_line(req.to_string());
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "d-1");
  EXPECT_EQ(field(resp, "code"), "deadline_exceeded");
  // The worker bumps the counter after flushing the response.
  for (int i = 0; i < 200 && server_->counters().deadline_expired == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->counters().deadline_expired, 1u);
}

TEST_F(ServerTest, OversizedCircuitIsTyped) {
  ServerConfig config = tcp_config();
  config.service.max_source_bytes = 32;
  start(config);
  Client client(server_->endpoint());
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::string("big"));
  req.set("qasm", JsonValue::string(kBellQasm));  // > 32 bytes
  client.send_line(req.to_string());
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "big");
  EXPECT_EQ(field(resp, "code"), "resource_exhausted");
}

TEST_F(ServerTest, OverlongLineClosesTheConnection) {
  ServerConfig config = tcp_config();
  config.max_line_bytes = 256;
  start(config);
  Client client(server_->endpoint());
  // An unterminated line past the limit: framing cannot be trusted, so the
  // server answers once and hangs up.
  client.send_raw("{\"qasm\":\"" + std::string(1024, 'h'));
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "code"), "resource_exhausted");
  EXPECT_TRUE(client.eof());
}

TEST_F(ServerTest, UnterminatedFinalLineIsAnswered) {
  start(tcp_config());
  Client client(server_->endpoint());
  // The last request before the client's EOF carries no newline.
  client.send_raw("{\"op\":\"ping\"}");
  client.finish_sending();
  JsonValue resp = client.read_json();
  EXPECT_TRUE(resp.find("ok")->as_bool());
  EXPECT_EQ(field(resp, "op"), "ping");
  EXPECT_TRUE(client.eof());
}

TEST_F(ServerTest, AdmissionQueueBouncesWhenFull) {
  ServerConfig config = tcp_config();
  config.workers = 1;
  config.max_queue = 1;
  start(config);
  Client client(server_->endpoint());

  // Pipeline a burst: with one worker and one in-flight slot, the reader
  // admits the first slow request and must bounce most of the rest with a
  // typed resource_exhausted instead of queueing without bound. A slow
  // placer keeps the worker busy long enough to make the race one-sided.
  JsonValue req = JsonValue::object();
  req.set("qasm", JsonValue::string(kBellQasm));
  req.set("placer", JsonValue::string("annealing"));
  req.set("sabre", JsonValue::integer(4));
  std::string line = req.to_string();
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) client.send_line(line);

  int bounced = 0, served = 0;
  for (int i = 0; i < kBurst; ++i) {
    JsonValue resp = client.read_json();
    if (field(resp, "code") == "resource_exhausted") {
      EXPECT_NE(field(resp, "error").find("admission queue full"),
                std::string::npos);
      ++bounced;
    } else {
      EXPECT_EQ(field(resp, "code"), "ok");
      ++served;
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(bounced, 0);
  const auto expected_rejected = static_cast<std::uint64_t>(bounced);
  for (int i = 0;
       i < 200 && server_->counters().rejected < expected_rejected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->counters().rejected, expected_rejected);
}

TEST_F(ServerTest, StatsOpReportsCounters) {
  start(tcp_config());
  Client client(server_->endpoint());
  JsonValue req = JsonValue::object();
  req.set("qasm", JsonValue::string(kBellQasm));
  client.send_line(req.to_string());
  client.read_json();

  client.send_line("{\"op\":\"stats\"}");
  JsonValue stats = client.read_json();
  EXPECT_TRUE(stats.find("ok")->as_bool());
  const JsonValue* server = stats.find("server");
  ASSERT_NE(server, nullptr);
  const JsonValue* requests = server->find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->as_integer(), 1);
}

TEST_F(ServerTest, ShutdownOpDrainsAndStops) {
  start(tcp_config());
  Client client(server_->endpoint());
  client.send_line("{\"op\":\"shutdown\"}");
  JsonValue ack = client.read_json();
  EXPECT_TRUE(ack.find("ok")->as_bool());
  server_->wait();  // returns once the graceful drain completes
  // New connections are refused after shutdown.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  std::size_t colon = server_->endpoint().rfind(':');
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(server_->endpoint().substr(colon + 1))));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

TEST_F(ServerTest, ShutdownOpUnlinksTheUnixSocket) {
  ServerConfig config = tcp_config();
  const std::string path =
      "/tmp/qfsd-test-unlink-" + std::to_string(::getpid()) + ".sock";
  config.listen = "unix:" + path;
  start(config);
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);
  Client client(server_->endpoint());
  client.send_line("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(client.read_json().find("ok")->as_bool());
  server_->wait();
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << path << " left behind";
}

TEST_F(ServerTest, MidWriteClientDisconnectDoesNotKillTheDaemon) {
  start(tcp_config());

  // A fat circuit with emit_qasm makes each response tens of kilobytes;
  // eight of them pipelined and then an immediate close leaves the writer
  // flushing into a dead socket. Without MSG_NOSIGNAL that's a SIGPIPE and
  // the whole test process dies — this is the regression pin.
  std::string fat = "OPENQASM 2.0;\nqreg q[5];\n";
  for (int i = 0; i < 1200; ++i) {
    // Alternate h/x per wire so no optimizer can cancel the body away.
    fat += (i % 2 == 0 ? "h q[" : "x q[") + std::to_string(i % 5) + "];\n";
  }
  JsonValue req = JsonValue::object();
  req.set("qasm", JsonValue::string(fat));
  req.set("emit_qasm", JsonValue::boolean(true));
  std::string line = req.to_string();
  {
    Client doomed(server_->endpoint());
    for (int i = 0; i < 8; ++i) doomed.send_line(line);
    // Destructor closes the socket with every response still in flight.
  }

  // The daemon is still alive and still serves a fresh connection.
  Client client(server_->endpoint());
  JsonValue probe = JsonValue::object();
  probe.set("id", JsonValue::string("alive"));
  probe.set("qasm", JsonValue::string(kBellQasm));
  client.send_line(probe.to_string());
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "alive");
  EXPECT_TRUE(resp.find("ok")->as_bool()) << field(resp, "error");
}

TEST_F(ServerTest, ChaosFieldIsRejectedWithoutChaosWorkers) {
  start(tcp_config());  // in-process compilation: no supervised workers
  Client client(server_->endpoint());
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::string("x-1"));
  req.set("qasm", JsonValue::string(kBellQasm));
  req.set("chaos", JsonValue::string("crash"));
  client.send_line(req.to_string());
  JsonValue resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "x-1");
  EXPECT_EQ(field(resp, "code"), "invalid_request");
  EXPECT_NE(field(resp, "error").find("chaos"), std::string::npos);

  // An unknown chaos verb is rejected at the codec layer.
  req.set("chaos", JsonValue::string("explode"));
  client.send_line(req.to_string());
  EXPECT_EQ(field(client.read_json(), "code"), "invalid_request");

  // The same connection still compiles without the field.
  JsonValue clean = JsonValue::object();
  clean.set("id", JsonValue::string("x-2"));
  clean.set("qasm", JsonValue::string(kBellQasm));
  client.send_line(clean.to_string());
  resp = client.read_json();
  EXPECT_EQ(field(resp, "id"), "x-2");
  EXPECT_TRUE(resp.find("ok")->as_bool());
}

TEST_F(ServerTest, ConcurrentClientsAllSucceed) {
  ServerConfig config = tcp_config();
  config.workers = 4;
  start(config);

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 5;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      Client client(server_->endpoint());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        JsonValue req = JsonValue::object();
        req.set("id", JsonValue::string(std::to_string(c) + "-" +
                                        std::to_string(i)));
        req.set("qasm", JsonValue::string(kBellQasm));
        client.send_line(req.to_string());
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        JsonValue resp = client.read_json();
        if (resp.find("ok") != nullptr && resp.find("ok")->as_bool()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), kClients * kRequestsPerClient);
  // Workers bump the counters after flushing the response, so give the
  // last few tasks a moment to finish their accounting.
  const auto expected =
      static_cast<std::uint64_t>(kClients * kRequestsPerClient);
  for (int i = 0; i < 200 && server_->counters().ok < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->counters().ok, expected);
}

// ---------------------------------------------------------------------------
// LineReader: the one '\n' framer behind every qfsd socket reader.
// ---------------------------------------------------------------------------

class LineReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds_), 0);
  }
  void TearDown() override {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  void peer_send(const std::string& bytes) {
    ASSERT_TRUE(send_all(fds_[1], bytes));
  }
  void peer_close() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  int fd() const { return fds_[0]; }

  int fds_[2] = {-1, -1};
};

TEST_F(LineReaderTest, SeveralLinesInOneRead) {
  peer_send("a\nbb\n\nccc\n");
  peer_close();
  LineReader reader(fd());
  std::string line;
  for (const char* expected : {"a", "bb", "", "ccc"}) {
    ASSERT_EQ(reader.read(line), LineReader::Result::kLine);
    EXPECT_EQ(line, expected);
  }
  EXPECT_EQ(reader.read(line), LineReader::Result::kEof);
  EXPECT_TRUE(reader.pending().empty());
}

TEST_F(LineReaderTest, EofMidLineLeavesTheTailPending) {
  peer_send("one\ntw");
  peer_send("o");
  peer_close();
  LineReader reader(fd());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "one");
  EXPECT_FALSE(reader.next(line));
  EXPECT_EQ(reader.pending(), "two");
}

TEST_F(LineReaderTest, ByteLimitBoundsTheUnterminatedTail) {
  // The bound is on the unterminated bytes left once every complete line
  // of a read is split off: exactly 8 of them still fit.
  peer_send("0123456789\n01234567");
  LineReader reader(fd(), 8);
  std::string line;
  ASSERT_EQ(reader.read(line), LineReader::Result::kLine);
  EXPECT_EQ(line, "0123456789");
  EXPECT_EQ(reader.read(line, 20.0), LineReader::Result::kTimeout);
  peer_send("8");
  EXPECT_EQ(reader.read(line), LineReader::Result::kOverflow);
  EXPECT_EQ(reader.pending(), "012345678");
}

TEST_F(LineReaderTest, TimeoutOnASilentPeer) {
  LineReader reader(fd());
  std::string line;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.read(line, 50.0), LineReader::Result::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
  // A partial line survives the timeout and completes on the next read.
  peer_send("par");
  EXPECT_EQ(reader.read(line, 20.0), LineReader::Result::kTimeout);
  EXPECT_EQ(reader.pending(), "par");
  peer_send("tial\n");
  ASSERT_EQ(reader.read(line, 1000.0), LineReader::Result::kLine);
  EXPECT_EQ(line, "partial");
  // A zero budget still returns a line that is already buffered.
  peer_send("x\ny\n");
  ASSERT_EQ(reader.read(line, 1000.0), LineReader::Result::kLine);
  ASSERT_EQ(reader.read(line, 0.0), LineReader::Result::kLine);
  EXPECT_EQ(line, "y");
}

}  // namespace
}  // namespace qfs::service
