// qfsd — the qfs compilation daemon.
//
// Serves service::CompileService over a Unix or loopback TCP socket:
// line-delimited CompileRequest JSON in, CompileResponse JSON out (see
// src/service/server.h for the wire protocol). One process-wide compile
// cache stays hot across every client, so a fleet of short-lived callers
// gets warm-cache latency without each paying the cold-start cost.
//
// With --worker-procs N the daemon runs compilations in N supervised child
// worker processes (this same binary re-exec'ed as `qfsd --worker`) instead
// of in-process threads: a compiler crash or hang then costs one worker —
// restarted with backoff, storm-limited by a circuit breaker — not the
// daemon and every in-flight request sharing its address space.
//
//   qfsd --listen unix:/tmp/qfsd.sock --workers 8 --cache-dir /var/qfs
//   qfsd --listen tcp:7717 --worker-procs 4
//   echo '{"op":"ping"}' | nc -U /tmp/qfsd.sock
#include <cmath>
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cache/cache.h"
#include "service/client.h"
#include "service/flags.h"
#include "service/server.h"
#include "support/strings.h"

namespace {

using namespace qfs;

void print_usage() {
  std::cout <<
      "usage: qfsd [options]\n"
      "\n"
      "options:\n"
      "  --listen <spec>   unix:<path> or tcp:<port> (loopback; port 0 =\n"
      "                    ephemeral)        (default unix:/tmp/qfsd-<pid>.sock)\n"
      "  --workers <n>     compile worker threads (0 = one per hardware\n"
      "                    thread)                               (default 0)\n"
      "  --queue <n>       max requests in flight before new ones are\n"
      "                    rejected with resource_exhausted      (default 64)\n"
      "  --cache-dir <d>   persist the shared compile cache under <d>\n"
      "                    (without it the cache is in-memory only)\n"
      "  --default-deadline-ms <x>\n"
      "                    deadline applied to requests that carry none\n"
      "                    (negative = unlimited)                (default -1)\n"
      "  --max-request-bytes <n>\n"
      "                    reject QASM sources larger than n     (default 8 MiB)\n"
      "\n"
      "crash isolation (supervised mode):\n"
      "  --worker-procs <n>\n"
      "                    run compilations in n supervised child processes\n"
      "                    instead of in-process threads         (default 0 = off)\n"
      "  --hang-timeout-ms <x>\n"
      "                    SIGKILL a worker silent this long on a request\n"
      "                    with no deadline of its own (negative disables)\n"
      "                                                          (default 30000)\n"
      "  --max-restarts <n>\n"
      "                    worker restarts tolerated per window before the\n"
      "                    circuit breaker sheds load            (default 8)\n"
      "  --restart-window-ms <x>\n"
      "                    sliding window for --max-restarts     (default 10000)\n"
      "  --enable-chaos    honour the test-only 'chaos' request field\n"
      "                    (hang/crash/exit fault injection in workers);\n"
      "                    never enable in production\n"
      "  --worker          internal: run as a supervised worker speaking the\n"
      "                    wire protocol on stdin/stdout\n"
      "  --help            this text\n"
      "\n"
      "Control ops (line-delimited JSON): {\"op\":\"ping\"} liveness,\n"
      "{\"op\":\"stats\"} counters, {\"op\":\"devices\"} the backend registry\n"
      "with parameter ranges, {\"op\":\"shutdown\"} graceful exit.\n"
      "The daemon exits on SIGINT/SIGTERM or a {\"op\":\"shutdown\"} request,\n"
      "draining in-flight compilations first.\n";
}

/// The listening socket, for the signal handler: shutdown(2) is
/// async-signal-safe and nudges the accept loop into a graceful stop.
volatile int g_listen_fd = -1;

void handle_signal(int) {
  int fd = g_listen_fd;
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> flags = {
      "--help",      "--listen",           "--workers",
      "--queue",     "--cache-dir",        "--default-deadline-ms",
      "--max-request-bytes",               "--worker-procs",
      "--hang-timeout-ms",                 "--max-restarts",
      "--restart-window-ms",               "--enable-chaos",
      "--worker",
  };
  return flags;
}

/// `qfsd --worker`: one request at a time off stdin, one response line to
/// stdout, exit 0 on EOF (the supervisor hanging up). Both fds are the
/// supervisor's socketpair end, framed by the same LineReader and send_all
/// as every other qfsd socket. The only state a worker owns is its
/// CompileService — a crash loses nothing the supervisor can't replay.
int run_worker(const service::ServiceConfig& service_config,
               bool enable_chaos) {
  service::CompileService compile_service(service_config);
  service::LineReader reader(STDIN_FILENO);
  std::string line;
  while (reader.next(line)) {
    auto request = service::parse_request_line(line);
    std::string out;
    if (!request.is_ok()) {
      out = service::error_response_json(service::ErrorCode::kInvalidRequest,
                                         request.status().message())
                .to_string();
    } else {
      if (enable_chaos && !request.value().chaos.empty()) {
        // Fault injection for the chaos harness: simulate the three ways a
        // compiler backend dies on an adversarial circuit.
        const std::string& chaos = request.value().chaos;
        if (chaos == "hang") {
          for (;;) ::usleep(100 * 1000);  // wedge until the watchdog SIGKILLs
        } else if (chaos == "crash") {
          ::kill(::getpid(), SIGKILL);  // die as a segfault would: no unwind
        } else if (chaos == "exit") {
          ::_exit(3);  // die "cleanly" without answering
        }
      }
      out = service::response_to_json(compile_service.execute(request.value()))
                .to_string();
    }
    if (!service::send_all(STDOUT_FILENO, out + '\n')) return 0;
  }
  return 0;
}

/// Path of this binary for re-exec as a worker: /proc/self/exe when the
/// kernel provides it, argv[0] otherwise.
std::string self_path(const char* argv0) {
  char buffer[4096];
  ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerConfig config;
  config.listen = "unix:/tmp/qfsd-" + std::to_string(::getpid()) + ".sock";
  std::string cache_dir;
  bool worker_mode = false;
  int worker_procs = 0;
  int max_request_bytes = 0;  // 0 = default

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "qfsd: missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--listen") {
      config.listen = next();
    } else if (arg == "--workers") {
      if (!parse_int(next(), config.workers) || config.workers < 0) {
        std::cerr << "qfsd: bad --workers value '" << argv[i] << "'\n";
        return 1;
      }
    } else if (arg == "--queue") {
      if (!parse_int(next(), config.max_queue) || config.max_queue < 1) {
        std::cerr << "qfsd: bad --queue value '" << argv[i] << "'\n";
        return 1;
      }
    } else if (arg == "--cache-dir") {
      cache_dir = next();
    } else if (arg == "--default-deadline-ms") {
      if (!parse_double(next(), config.default_deadline_ms) ||
          !std::isfinite(config.default_deadline_ms)) {
        std::cerr << "qfsd: bad --default-deadline-ms value '" << argv[i]
                  << "'\n";
        return 1;
      }
    } else if (arg == "--max-request-bytes") {
      if (!parse_int(next(), max_request_bytes) || max_request_bytes < 1) {
        std::cerr << "qfsd: bad --max-request-bytes value '" << argv[i]
                  << "'\n";
        return 1;
      }
      config.service.max_source_bytes =
          static_cast<std::size_t>(max_request_bytes);
    } else if (arg == "--worker-procs") {
      if (!parse_int(next(), worker_procs) || worker_procs < 0) {
        std::cerr << "qfsd: bad --worker-procs value '" << argv[i] << "'\n";
        return 1;
      }
    } else if (arg == "--hang-timeout-ms") {
      if (!parse_double(next(), config.supervisor.hang_timeout_ms) ||
          !std::isfinite(config.supervisor.hang_timeout_ms)) {
        std::cerr << "qfsd: bad --hang-timeout-ms value '" << argv[i]
                  << "'\n";
        return 1;
      }
    } else if (arg == "--max-restarts") {
      if (!parse_int(next(), config.supervisor.breaker.max_restarts) ||
          config.supervisor.breaker.max_restarts < 1) {
        std::cerr << "qfsd: bad --max-restarts value '" << argv[i] << "'\n";
        return 1;
      }
    } else if (arg == "--restart-window-ms") {
      if (!parse_double(next(), config.supervisor.breaker.window_ms) ||
          !std::isfinite(config.supervisor.breaker.window_ms) ||
          config.supervisor.breaker.window_ms <= 0) {
        std::cerr << "qfsd: bad --restart-window-ms value '" << argv[i]
                  << "'\n";
        return 1;
      }
    } else if (arg == "--enable-chaos") {
      config.enable_chaos = true;
    } else if (arg == "--worker") {
      worker_mode = true;
    } else {
      std::cerr << "qfsd: unknown option '" << arg << "'";
      std::string suggestion = closest_match(arg, known_flags());
      if (!suggestion.empty()) {
        std::cerr << " (did you mean " << suggestion << "?)";
      }
      std::cerr << " (try --help)\n";
      return 1;
    }
  }

  if (worker_mode) {
    // A worker keeps its own in-memory cache tier; a shared --cache-dir
    // still gives the fleet one warm disk tier (the store is atomic and
    // corruption-tolerant, so concurrent worker processes are safe).
    cache::CacheConfig cache_config;
    cache_config.disk_dir = cache_dir;
    cache::CompileCache compile_cache(cache_config);
    config.service.cache = &compile_cache;
    return run_worker(config.service, config.enable_chaos);
  }

  // The shared cache is the daemon's reason to exist: always on, with a
  // disk tier when --cache-dir names one.
  cache::CacheConfig cache_config;
  cache_config.disk_dir = cache_dir;
  cache::CompileCache compile_cache(cache_config);
  config.service.cache = &compile_cache;

  if (worker_procs > 0) {
    config.supervisor.workers = worker_procs;
    config.supervisor.command = {self_path(argv[0]), "--worker"};
    if (!cache_dir.empty()) {
      config.supervisor.command.push_back("--cache-dir");
      config.supervisor.command.push_back(cache_dir);
    }
    if (max_request_bytes > 0) {
      config.supervisor.command.push_back("--max-request-bytes");
      config.supervisor.command.push_back(std::to_string(max_request_bytes));
    }
    if (config.enable_chaos) {
      config.supervisor.command.push_back("--enable-chaos");
    }
  } else if (config.enable_chaos) {
    std::cerr << "qfsd: --enable-chaos requires --worker-procs\n";
    return 1;
  }

  service::Server server(std::move(config));
  qfs::Status status = server.start();
  if (!status.is_ok()) {
    std::cerr << "qfsd: " << status.to_string() << "\n";
    return 1;
  }
  g_listen_fd = server.listen_fd();
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cerr << "qfsd: listening on " << server.endpoint() << "\n";
  if (worker_procs > 0) {
    std::cerr << "qfsd: supervising " << worker_procs << " worker process"
              << (worker_procs == 1 ? "" : "es")
              << (server.supervisor() != nullptr &&
                          !server.supervisor()->worker_pids().empty()
                      ? ""
                      : " (starting)")
              << "\n";
  }

  server.wait();

  service::ServerCounters c = server.counters();
  std::cerr << "qfsd: served " << c.requests << " requests ("
            << c.ok << " ok, " << c.failed << " failed, " << c.rejected
            << " rejected, " << c.cache_hits << " cache hits) over "
            << c.connections << " connections\n";
  return 0;
}
