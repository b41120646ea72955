// Fault-tolerance tier tests: the pure backoff schedule and circuit-breaker
// state machine (injected clock, no sleeps), the Supervisor against /bin/sh
// fake workers (crash, hang, restart storm), and the retrying Client
// against a real in-process server.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "service/supervisor.h"
#include "support/json.h"

namespace qfs::service {
namespace {

const char* kBellQasm =
    "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";

// ---------------------------------------------------------------------------
// Backoff schedule (pure).
// ---------------------------------------------------------------------------

TEST(BackoffTest, PureSameInputsSameDelay) {
  BackoffPolicy policy;
  for (int attempt = 0; attempt < 12; ++attempt) {
    EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, attempt, 7),
                     backoff_delay_ms(policy, attempt, 7));
  }
}

TEST(BackoffTest, ExponentialGrowthStaysInsideJitterBounds) {
  BackoffPolicy policy;  // 25 ms * 2^n, clamp 2000, +-25%
  for (int attempt = 0; attempt < 12; ++attempt) {
    double base =
        std::min(policy.max_ms,
                 policy.initial_ms * std::pow(policy.multiplier, attempt));
    double delay = backoff_delay_ms(policy, attempt, 2022);
    EXPECT_GE(delay, base * (1.0 - policy.jitter)) << "attempt " << attempt;
    EXPECT_LE(delay, base * (1.0 + policy.jitter)) << "attempt " << attempt;
  }
}

TEST(BackoffTest, ZeroJitterIsTheExactSchedule) {
  BackoffPolicy policy;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 0, 1), 25.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 1, 1), 50.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 2, 99), 100.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 6, 99), 1600.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 7, 99), 2000.0);   // clamp
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 40, 99), 2000.0);  // no overflow
}

TEST(BackoffTest, JitterVariesAcrossSeeds) {
  BackoffPolicy policy;
  // Not a tautology: with jitter from a 53-bit fold of derive_seed, two
  // distinct seeds colliding on every attempt would be a broken fold.
  bool any_differ = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (backoff_delay_ms(policy, attempt, 1) !=
        backoff_delay_ms(policy, attempt, 2)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

// ---------------------------------------------------------------------------
// Circuit breaker (pure state machine, injected clock).
// ---------------------------------------------------------------------------

BreakerConfig small_breaker() {
  BreakerConfig config;
  config.max_restarts = 3;
  config.window_ms = 1000.0;
  config.cooldown_ms = 500.0;
  return config;
}

TEST(CircuitBreakerTest, StaysClosedAtTheLimit) {
  CircuitBreaker breaker(small_breaker());
  breaker.record_restart(0.0);
  breaker.record_restart(10.0);
  breaker.record_restart(20.0);  // exactly max_restarts: tolerated
  EXPECT_EQ(breaker.restarts_in_window(30.0), 3);
  EXPECT_FALSE(breaker.open(30.0));
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, OneMoreRestartTrips) {
  CircuitBreaker breaker(small_breaker());
  for (double t : {0.0, 10.0, 20.0, 40.0}) breaker.record_restart(t);
  EXPECT_TRUE(breaker.open(41.0));
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, StaysOpenThroughCooldownAndSaturatedWindow) {
  CircuitBreaker breaker(small_breaker());
  for (double t : {0.0, 10.0, 20.0, 40.0}) breaker.record_restart(t);
  // Cooldown runs until 40 + 500 = 540.
  EXPECT_TRUE(breaker.open(539.0));
  // Cooldown over, but all four restarts are still inside the 1000 ms
  // window: stay open rather than flap.
  EXPECT_TRUE(breaker.open(600.0));
  // At 1041 the window (now - 1000) has drained every restart: recover.
  EXPECT_FALSE(breaker.open(1041.0));
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, RestartsWhileOpenExtendTheQuietPeriod) {
  CircuitBreaker breaker(small_breaker());
  for (double t : {0.0, 10.0, 20.0, 40.0}) breaker.record_restart(t);
  breaker.record_restart(300.0);  // still open: pushes open_until to 800
  EXPECT_TRUE(breaker.open(700.0));
  EXPECT_EQ(breaker.trips(), 1u);  // an extension is not a new trip
  EXPECT_FALSE(breaker.open(1500.0));
}

TEST(CircuitBreakerTest, OldRestartsFallOutOfTheWindow) {
  CircuitBreaker breaker(small_breaker());
  breaker.record_restart(0.0);
  breaker.record_restart(10.0);
  EXPECT_EQ(breaker.restarts_in_window(1500.0), 0);
  // Slow-drip restarts spaced past the window never accumulate.
  for (double t = 2000.0; t < 10000.0; t += 1100.0) {
    breaker.record_restart(t);
    EXPECT_FALSE(breaker.open(t + 1.0));
  }
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, CanTripAgainAfterRecovery) {
  CircuitBreaker breaker(small_breaker());
  for (double t : {0.0, 10.0, 20.0, 40.0}) breaker.record_restart(t);
  EXPECT_TRUE(breaker.open(41.0));
  EXPECT_FALSE(breaker.open(2000.0));  // recovered
  for (double t : {3000.0, 3010.0, 3020.0, 3040.0}) breaker.record_restart(t);
  EXPECT_TRUE(breaker.open(3041.0));
  EXPECT_EQ(breaker.trips(), 2u);
}

// ---------------------------------------------------------------------------
// Supervisor against /bin/sh fake workers. The wire is the real one (line-
// delimited JSON over the socketpair); only the worker binary is fake.
// ---------------------------------------------------------------------------

SupervisorConfig sh_worker(const std::string& script) {
  SupervisorConfig config;
  config.command = {"/bin/sh", "-c", script};
  config.workers = 1;
  // Fast, deterministic-enough restarts for tests.
  config.backoff = BackoffPolicy{1.0, 2.0, 5.0, 0.0};
  return config;
}

CompileRequest bell_request(const std::string& id) {
  CompileRequest request;
  request.id = id;
  request.qasm = kBellQasm;
  return request;
}

TEST(SupervisorTest, EmptyCommandIsAStartError) {
  Supervisor supervisor(SupervisorConfig{});
  EXPECT_FALSE(supervisor.start().is_ok());
}

TEST(SupervisorTest, EchoWorkerRoundTripRewritesTheId) {
  // A worker that answers every request line with a canned ok response.
  Supervisor supervisor(sh_worker(
      "while read line; do echo '{\"id\":\"stale\",\"code\":\"ok\"}'; done"));
  ASSERT_TRUE(supervisor.start().is_ok());
  CompileResponse response = supervisor.execute(bell_request("mine"), -1.0);
  EXPECT_EQ(response.code, ErrorCode::kOk);
  // The socketpair is a trusted 1:1 channel: the supervisor stamps the
  // request id onto whatever the worker returned.
  EXPECT_EQ(response.id, "mine");
  SupervisorCounters counters = supervisor.counters();
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(counters.crashes, 0u);
  supervisor.shutdown();
}

TEST(SupervisorTest, WorkerCrashMidRequestIsTypedInternal) {
  Supervisor supervisor(sh_worker("read line; exit 7"));
  ASSERT_TRUE(supervisor.start().is_ok());
  CompileResponse response = supervisor.execute(bell_request("c-1"), -1.0);
  EXPECT_EQ(response.code, ErrorCode::kInternal);
  EXPECT_EQ(response.id, "c-1");
  EXPECT_NE(response.error_message.find("worker died"), std::string::npos);
  EXPECT_GE(supervisor.counters().crashes, 1u);
  supervisor.shutdown();
}

TEST(SupervisorTest, HungWorkerIsKilledByTheDeadlineWatchdog) {
  Supervisor supervisor(sh_worker("read line; sleep 30"));
  ASSERT_TRUE(supervisor.start().is_ok());
  CompileResponse response = supervisor.execute(bell_request("h-1"), 150.0);
  EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(response.error_message.find("watchdog"), std::string::npos);
  EXPECT_EQ(supervisor.counters().hung_killed, 1u);
  supervisor.shutdown();
}

TEST(SupervisorTest, WatchdogKillsTheHungWorkersGrandchildren) {
  // The worker backgrounds a grandchild and publishes its pid (atomically,
  // via rename) before it reads the request, then hangs. Made a subreaper,
  // this process inherits the orphaned grandchild and can reap it, so
  // "dead" below means gone, not a zombie nobody waits for.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const std::string pid_file = ::testing::TempDir() + "qfs-grandchild-" +
                               std::to_string(::getpid()) + ".pid";
  std::remove(pid_file.c_str());
  Supervisor supervisor(sh_worker("sleep 30 & echo $! > " + pid_file +
                                  ".tmp && mv " + pid_file + ".tmp " +
                                  pid_file + "; read line; sleep 30"));
  ASSERT_TRUE(supervisor.start().is_ok());
  pid_t grandchild = 0;
  for (int i = 0; i < 500 && grandchild <= 0; ++i) {
    std::ifstream in(pid_file);
    if (!(in >> grandchild)) ::usleep(10 * 1000);
  }
  ASSERT_GT(grandchild, 1) << "the worker never published its child's pid";

  CompileResponse response = supervisor.execute(bell_request("g-1"), 150.0);
  EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  bool gone = false;
  for (int i = 0; i < 200 && !gone; ++i) {
    ::waitpid(grandchild, nullptr, WNOHANG);
    gone = ::kill(grandchild, 0) != 0 && errno == ESRCH;
    if (!gone) ::usleep(10 * 1000);
  }
  EXPECT_TRUE(gone) << "grandchild " << grandchild
                    << " outlived its watchdog-killed worker";
  if (!gone) ::kill(grandchild, SIGKILL);
  supervisor.shutdown();
  std::remove(pid_file.c_str());
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
}

TEST(SupervisorTest, MalformedWorkerOutputIsTypedInternal) {
  Supervisor supervisor(
      sh_worker("while read line; do echo not-json; done"));
  ASSERT_TRUE(supervisor.start().is_ok());
  CompileResponse response = supervisor.execute(bell_request("m-1"), -1.0);
  EXPECT_EQ(response.code, ErrorCode::kInternal);
  EXPECT_GE(supervisor.counters().crashes, 1u);  // killed + restarted
  supervisor.shutdown();
}

TEST(SupervisorTest, RestartStormTripsTheBreakerAndSheds) {
  SupervisorConfig config = sh_worker("exit 3");  // dies before serving
  config.breaker.max_restarts = 2;
  config.breaker.window_ms = 60'000.0;   // nothing drains mid-test
  config.breaker.cooldown_ms = 60'000.0;
  ASSERT_TRUE(Supervisor(config).start().is_ok());  // instant death != error

  Supervisor supervisor(config);
  ASSERT_TRUE(supervisor.start().is_ok());
  // Every spawn dies immediately. Each execute() burns one worker and comes
  // back as a typed `internal` (the client's cue to retry); once the deaths
  // exceed max_restarts the breaker opens and execute() sheds with
  // `resource_exhausted` instead of feeding the storm.
  CompileResponse response;
  for (int i = 0; i < 50; ++i) {
    response = supervisor.execute(bell_request("s-" + std::to_string(i)),
                                  2000.0);
    if (response.code == ErrorCode::kResourceExhausted) break;
    EXPECT_EQ(response.code, ErrorCode::kInternal);
  }
  EXPECT_EQ(response.code, ErrorCode::kResourceExhausted);
  SupervisorCounters counters = supervisor.counters();
  EXPECT_GE(counters.crashes, 3u);
  EXPECT_GE(counters.breaker_trips, 1u);
  EXPECT_GE(counters.shed, 1u);
  EXPECT_TRUE(supervisor.breaker_open());
  supervisor.shutdown();
}

// ---------------------------------------------------------------------------
// Retrying client.
// ---------------------------------------------------------------------------

RetryPolicy fast_retry(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.backoff = BackoffPolicy{1.0, 2.0, 4.0, 0.0};
  return policy;
}

TEST(ClientRetryTest, ConnectFailureRetriesThenSynthesizesInternal) {
  Client client("unix:/nonexistent/qfsd.sock", fast_retry(3));
  RetryStats stats;
  CompileResponse response = client.call(bell_request("r-1"), &stats);
  EXPECT_EQ(response.code, ErrorCode::kInternal);
  EXPECT_TRUE(stats.gave_up);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.connect_failures, 3);
  // A locally synthesized response has no wire line behind it.
  EXPECT_TRUE(client.last_response_line().empty());
}

TEST(ClientRetryTest, RetriesNeverOutliveTheDeadline) {
  RetryPolicy policy = fast_retry(100);
  policy.backoff = BackoffPolicy{50.0, 2.0, 200.0, 0.0};
  Client client("unix:/nonexistent/qfsd.sock", policy);
  CompileRequest request = bell_request("d-1");
  request.deadline_ms = 120.0;  // overall budget from the first attempt
  RetryStats stats;
  CompileResponse response = client.call(request, &stats);
  EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  // 100 attempts with 50+ ms backoffs cannot fit in a 120 ms budget.
  EXPECT_LT(stats.attempts, 5);
}

class ClientServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.listen = "tcp:0";
    config.workers = 2;
    server_ = std::make_unique<Server>(std::move(config));
    qfs::Status status = server_->start();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }

  void TearDown() override {
    server_->shutdown();
    server_->wait();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ClientServerTest, HappyPathIsASingleAttempt) {
  Client client(server_->endpoint(), fast_retry(4));
  RetryStats stats;
  CompileResponse response = client.call(bell_request("ok-1"), &stats);
  EXPECT_EQ(response.code, ErrorCode::kOk);
  EXPECT_EQ(response.id, "ok-1");
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_FALSE(stats.gave_up);
  EXPECT_FALSE(client.last_response_line().empty());
}

TEST_F(ClientServerTest, DeterministicFailuresAreNotRetried) {
  Client client(server_->endpoint(), fast_retry(4));
  CompileRequest request = bell_request("p-1");
  request.qasm = "qreg q[1]; bogus q[0];";
  RetryStats stats;
  CompileResponse response = client.call(request, &stats);
  EXPECT_EQ(response.code, ErrorCode::kParseError);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
}

TEST_F(ClientServerTest, ControlOpsRoundTrip) {
  Client client(server_->endpoint());
  auto pong = client.op("ping");
  ASSERT_TRUE(pong.is_ok()) << pong.status().to_string();
  EXPECT_TRUE(pong.value().find("ok")->as_bool());
  auto stats = client.op("stats");
  ASSERT_TRUE(stats.is_ok());
  ASSERT_NE(stats.value().find("server"), nullptr);
}

TEST_F(ClientServerTest, RetryGenerationIsCountedByTheServer) {
  // Client::call owns the attempt field, so fake a retry on the raw wire:
  // a request arriving with attempt > 0 is a resend the server should count.
  CompileRequest request = bell_request("a-1");
  request.attempt = 2;
  std::string error;
  int fd = connect_endpoint(server_->endpoint(), error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_TRUE(send_all(fd, request_to_json(request).to_string() + "\n"));
  LineReader reader(fd);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  auto decoded = JsonValue::parse(line);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().find("code")->as_string(), "ok");
  ::close(fd);

  Client client(server_->endpoint());
  auto stats = client.op("stats");
  ASSERT_TRUE(stats.is_ok());
  const JsonValue* server = stats.value().find("server");
  ASSERT_NE(server, nullptr);
  const JsonValue* retries = server->find("retries_observed");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->as_integer(), 1);
}

}  // namespace
}  // namespace qfs::service
