// Deterministic parallel execution primitives.
//
// The batch paths of qfs (suite compilation in the benches, qfsc --jobs,
// the degraded-device survival sweep) fan independent compilations out over
// a fixed-size thread pool. Determinism is a hard contract: parallel_map
// preserves input order and every unit of work derives its randomness from
// (seed, index) alone — see qfs::derive_seed — so results are byte-identical
// for any job count, including 1.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "support/assert.h"

namespace qfs {

/// One job per hardware thread; always >= 1 (hardware_concurrency may
/// report 0 on exotic platforms).
int recommended_jobs();

/// Normalise a user-facing --jobs value: 0 means "auto" (one per hardware
/// thread); anything else is clamped to >= 1.
int resolve_jobs(int jobs);

/// Fixed-size pool of worker threads draining a FIFO task queue.
/// Destruction waits for every submitted task to finish.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task. Tasks must not throw out of the pool: wrap work that
  /// can fail (parallel_map does this and re-throws on the caller thread).
  void submit(std::function<void()> task);

  /// Block until the queue is empty and no worker is mid-task.
  void wait_idle();

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool stopping_ = false;
};

namespace detail {

/// First-by-index exception capture: when several workers throw, the caller
/// sees the exception of the lowest input index, which is exactly what a
/// serial loop would have thrown first.
class FirstError {
 public:
  void record(std::size_t index, std::exception_ptr error);
  bool armed() const;
  void rethrow_if_set();

 private:
  mutable std::mutex mu_;
  std::size_t index_ = 0;
  std::exception_ptr error_;
};

}  // namespace detail

/// Apply `fn(i)` for every i in [0, count) using up to `jobs` worker
/// threads (0 = auto) and return the results in input order. Any exception
/// is re-thrown on the calling thread — the one a serial loop would have
/// hit first — and pending work is abandoned. `fn` must be safe to call
/// concurrently from multiple threads. jobs <= 1 runs the plain serial
/// loop on the calling thread.
template <typename Fn>
auto parallel_map(int jobs, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  jobs = resolve_jobs(jobs);
  std::vector<std::optional<Result>> slots(count);
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) slots[i].emplace(fn(i));
  } else {
    detail::FirstError error;
    {
      ThreadPool pool(std::min<int>(jobs, static_cast<int>(count)));
      for (std::size_t i = 0; i < count; ++i) {
        pool.submit([i, &fn, &error, &slots] {
          if (error.armed()) return;  // a lower or earlier index failed
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            error.record(i, std::current_exception());
          }
        });
      }
      pool.wait_idle();
    }
    error.rethrow_if_set();
  }
  std::vector<Result> out;
  out.reserve(count);
  for (auto& slot : slots) {
    QFS_ASSERT_MSG(slot.has_value(), "parallel_map slot never produced");
    out.push_back(std::move(*slot));
  }
  return out;
}

/// Mutex-guarded progress dots: prints '.' to `out` every `stride`
/// completions and a final newline, from any thread (benches run
/// interactively and want a heartbeat regardless of --jobs).
class ProgressReporter {
 public:
  explicit ProgressReporter(int stride = 20, std::ostream* out = nullptr);

  /// Record one completed unit of work; may print a dot.
  void tick();

  /// Terminate the dot line (idempotent).
  void finish();

 private:
  std::mutex mu_;
  std::ostream* out_;  // never null after construction (defaults to cerr)
  int stride_;
  long long done_ = 0;
  bool finished_ = false;
};

}  // namespace qfs
