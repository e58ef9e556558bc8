#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/error.h"

namespace dpipe {

namespace {

thread_local bool t_in_parallel_region = false;

/// Marks the current thread as inside a batch for the guard's lifetime.
struct ParallelRegionGuard {
  bool previous = t_in_parallel_region;
  ParallelRegionGuard() { t_in_parallel_region = true; }
  ~ParallelRegionGuard() { t_in_parallel_region = previous; }
};

using IndexFn = void (*)(void* ctx, std::size_t i);

/// Fork-join worker threads, started once and reused across batches. The
/// calling thread participates in every batch, so a pool of size 1 has no
/// workers. Not reentrant: the process pool admits one batch at a time.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    workers_.reserve(static_cast<std::size_t>(num_threads - 1));
    for (int i = 1; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (worker threads + the calling thread).
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(ctx, i) for every i in [begin, n) on the caller and every
  /// worker, blocking until all are done. The first exception thrown by fn
  /// is rethrown here (remaining indices are skipped once an exception is
  /// recorded).
  void run(std::size_t begin, std::size_t n, IndexFn fn, void* ctx) {
    auto batch = std::make_shared<Batch>();
    batch->total = n;
    batch->fn = fn;
    batch->ctx = ctx;
    batch->next.store(begin);
    batch->completed.store(begin);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      DPIPE_REQUIRE(batch_ == nullptr, "the worker pool is not reentrant");
      batch_ = batch;
      ++epoch_;
    }
    work_cv_.notify_all();
    run_batch(*batch);
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock,
                    [&] { return batch->completed.load() == batch->total; });
      batch_ = nullptr;
      error = batch->error;
    }
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }

 private:
  /// One run() invocation, shared between the caller and workers. Workers
  /// hold it by shared_ptr: one may still touch it after the caller's
  /// run() has returned.
  struct Batch {
    std::size_t total = 0;
    IndexFn fn = nullptr;
    void* ctx = nullptr;
    std::atomic<std::size_t> next{0};       ///< Next index to claim.
    std::atomic<std::size_t> completed{0};  ///< Indices finished/skipped.
    std::atomic<bool> cancelled{false};     ///< Set on first exception.
    std::exception_ptr error;               ///< Guarded by mutex_.
  };

  void worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] {
          return stop_ || (batch_ != nullptr && epoch_ != seen_epoch);
        });
        if (stop_) {
          return;
        }
        seen_epoch = epoch_;
        batch = batch_;
      }
      run_batch(*batch);
    }
  }

  void run_batch(Batch& batch) {
    const ParallelRegionGuard region_guard;
    for (;;) {
      const std::size_t index = batch.next.fetch_add(1);
      if (index >= batch.total) {
        return;
      }
      if (!batch.cancelled.load()) {
        try {
          batch.fn(batch.ctx, index);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (batch.error == nullptr) {
            batch.error = std::current_exception();
          }
          batch.cancelled.store(true);
        }
      }
      if (batch.completed.fetch_add(1) + 1 == batch.total) {
        // Wake the caller; the empty critical section orders the wakeup
        // after the caller entered its wait.
        { const std::lock_guard<std::mutex> lock(mutex_); }
        done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< Signals workers: new batch/stop.
  std::condition_variable done_cv_;  ///< Signals the caller: batch done.
  std::shared_ptr<Batch> batch_;     ///< Active batch (null when idle).
  std::uint64_t epoch_ = 0;          ///< Bumped per batch so workers that
                                     ///< missed one don't rejoin it late.
  bool stop_ = false;
};

/// The process pool and its entry protocol. ThreadPool::run is not
/// reentrant and independent callers (plan-service connections, trainers,
/// tests) may enter concurrently, so entry is guarded by a try-lock. A
/// loser only degrades to the caller-inline loop when the pool is
/// *genuinely busy* (a batch is in flight, tracked by fanout_active); a
/// transient loss — the holder is still between locking and fanning out,
/// or is rebuilding the pool — blocks briefly for its own turn instead of
/// silently serializing. An inline loser tries the pool again after every
/// index and fans its remaining indices out as soon as the holder's batch
/// ends, so a concurrent caller is not left on one thread for its whole
/// batch. Threads already inside a batch (in_parallel_region) always run
/// inline: blocking there could deadlock the pool on itself.
struct ProcessPool {
  std::mutex run_mutex;
  std::atomic<bool> fanout_active{false};  ///< A batch is in flight.
  std::mutex state_mutex;
  std::unique_ptr<ThreadPool> pool;  ///< Guarded by state_mutex.
  int requested_threads = 0;         ///< <= 0: default_thread_count().
};

ProcessPool& process_pool() {
  static ProcessPool instance;
  return instance;
}

/// Width of the next pool built. Caller holds state_mutex.
int requested_width(const ProcessPool& pp) {
  return pp.requested_threads > 0 ? pp.requested_threads
                                  : default_thread_count();
}

/// The pool, built on first use. Caller holds run_mutex.
ThreadPool& acquire_pool(ProcessPool& pp) {
  const std::lock_guard<std::mutex> lock(pp.state_mutex);
  if (pp.pool == nullptr) {
    pp.pool = std::make_unique<ThreadPool>(requested_width(pp));
  }
  return *pp.pool;
}

}  // namespace

bool in_parallel_region() { return t_in_parallel_region; }

int default_thread_count() {
  if (const char* env = std::getenv("DPIPE_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) {
      return parsed;
    }
  }
#if defined(__linux__)
  // The CPUs this process may run on: a taskset-pinned process gets a
  // pool no wider than its pin.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
      CPU_COUNT(&allowed) >= 1) {
    return CPU_COUNT(&allowed);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int pool_width() {
  ProcessPool& pp = process_pool();
  const std::lock_guard<std::mutex> lock(pp.state_mutex);
  return pp.pool != nullptr ? pp.pool->size() : requested_width(pp);
}

void set_pool_width(int num_threads) {
  ProcessPool& pp = process_pool();
  // Exclude batches while the pool is swapped; the next one rebuilds it.
  const std::lock_guard<std::mutex> run_lock(pp.run_mutex);
  const std::lock_guard<std::mutex> lock(pp.state_mutex);
  pp.requested_threads = num_threads;
  pp.pool.reset();
}

int parallel_run(std::size_t n, int max_width, IndexFn fn, void* ctx) {
  std::size_t i = 0;
  if (n > 1 && max_width != 1 && !in_parallel_region()) {
    ProcessPool& pp = process_pool();
    std::unique_lock<std::mutex> lock(pp.run_mutex, std::try_to_lock);
    if (!lock.owns_lock() &&
        !pp.fanout_active.load(std::memory_order_acquire)) {
      // Transient contention, not a running batch: wait for our turn on
      // the pool rather than degrading to the single-threaded loop.
      lock.lock();
    }
    // Busy pool: run inline, and take the pool for the remaining indices
    // once the holder's batch has ended.
    for (; !lock.owns_lock() && i < n; ++i) {
      fn(ctx, i);
      if (!pp.fanout_active.load(std::memory_order_acquire)) {
        (void)lock.try_lock();
      }
    }
    if (lock.owns_lock() && n - i > 1) {
      ThreadPool& pool = acquire_pool(pp);
      const int width = static_cast<int>(
          std::min(static_cast<std::size_t>(pool.size()), n - i));
      if (width > 1) {
        pp.fanout_active.store(true, std::memory_order_release);
        try {
          pool.run(i, n, fn, ctx);
        } catch (...) {
          pp.fanout_active.store(false, std::memory_order_release);
          throw;
        }
        pp.fanout_active.store(false, std::memory_order_release);
        return width;
      }
    }
  }
  for (; i < n; ++i) {
    fn(ctx, i);
  }
  return 1;
}

}  // namespace dpipe
