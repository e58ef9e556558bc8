#pragma once

#include <mutex>
#include <queue>
#include <stdexcept>

namespace dpipe::rt {

/// Outcome of a non-blocking Channel::try_pop().
enum class TryPop {
  kValue,   ///< A value was dequeued.
  kEmpty,   ///< Nothing queued, but the channel is still open.
  kClosed,  ///< Closed and fully drained: no value will ever arrive.
};

/// FIFO channel between pipeline stage tasks, read by polling.
///
/// Consumers never wait inside the channel: try_pop() reports an empty
/// open channel and the wave scheduler resumes the consumer later, so a
/// blocked stage holds no thread. Supports cooperative shutdown: after
/// `close()`, try_pop() drains any queued values and then reports kClosed.
/// `push()` reports whether the value was enqueued: it returns false on a
/// closed channel (the consumer is gone — this happens only while a wave is
/// being aborted) so producers can distinguish an abort from a delivered
/// message instead of dropping values silently.
template <typename T>
class Channel {
 public:
  [[nodiscard]] bool push(T value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return false;
    }
    queue_.push(std::move(value));
    return true;
  }

  /// Non-blocking pop. Dequeues into `out` whenever a value is queued —
  /// including after close(), so queued values drain first — otherwise
  /// reports whether one can still arrive (kEmpty) or never will
  /// (kClosed).
  [[nodiscard]] TryPop try_pop(T& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!queue_.empty()) {
      out = std::move(queue_.front());
      queue_.pop();
      return TryPop::kValue;
    }
    return closed_ ? TryPop::kClosed : TryPop::kEmpty;
  }

  /// Marks the channel closed: later pushes are refused, and consumers see
  /// kClosed once the queue drains. Idempotent.
  void close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }

 private:
  std::mutex mutex_;
  std::queue<T> queue_;
  bool closed_ = false;
};

/// Thrown by a stage task killed via PipelineRtConfig::fault — the
/// test-visible stand-in for a crashed pipeline worker.
class StageFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Test-visible fault injection: the matching stage task throws
/// StageFailure while processing forward micro-batch `micro` of training
/// iteration `iteration` on replica `replica`. iteration < 0 disables it.
struct RtFaultInjection {
  int iteration = -1;
  int stage = 0;
  int micro = 0;
  int replica = 0;

  [[nodiscard]] bool armed() const { return iteration >= 0; }
};

}  // namespace dpipe::rt
