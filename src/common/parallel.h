#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dpipe {

/// Thread count used by parallel algorithms when the caller does not pin
/// one: the DPIPE_THREADS environment variable if set to a positive
/// integer, otherwise the number of CPUs in the process's affinity mask
/// (Linux; so `taskset` caps it), falling back to
/// std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] int default_thread_count();

/// True while the calling thread is executing inside a ThreadPool batch
/// (as a worker or as the caller participating in its own parallel_for).
/// parallel_for is not reentrant, so code that may run both standalone and
/// inside a batch (the runtime's intra-op kernels) uses this to fall back
/// to its inline path instead of touching any pool.
[[nodiscard]] bool in_parallel_region();

/// A small fork-join thread pool for data-parallel host-side work (the
/// planner's (S, M, D) grid search). Workers are started once and reused
/// across parallel_for calls; the calling thread participates in every
/// batch, so a pool of size 1 runs everything inline with no worker
/// threads and no synchronization on the work items.
///
/// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once for
/// every i in [0, n); which thread runs which index is unspecified, so fn
/// must only write to per-index state (e.g. results[i]). Under that
/// contract the result of a parallel_for is bit-identical for any pool
/// size, which the planner's parity tests rely on.
class ThreadPool {
 public:
  /// num_threads <= 0 selects default_thread_count().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (worker threads + the calling thread).
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(i) for every i in [0, n), blocking until all are done. The
  /// first exception thrown by fn is rethrown here (remaining indices are
  /// skipped once an exception is recorded). Not reentrant: fn must not
  /// call parallel_for on the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// One parallel_for invocation, shared between the caller and workers.
  struct Batch {
    std::size_t total = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};       ///< Next index to claim.
    std::atomic<std::size_t> completed{0};  ///< Indices finished/skipped.
    std::atomic<bool> cancelled{false};     ///< Set on first exception.
    std::exception_ptr error;               ///< Guarded by the pool mutex.
  };

  void worker_loop();
  void run_batch(const std::shared_ptr<Batch>& batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< Signals workers: new batch/stop.
  std::condition_variable done_cv_;  ///< Signals the caller: batch done.
  std::shared_ptr<Batch> batch_;     ///< Active batch (null when idle).
  std::uint64_t epoch_ = 0;          ///< Bumped per batch so workers that
                                     ///< missed one don't rejoin it late.
  bool stop_ = false;
};

}  // namespace dpipe
