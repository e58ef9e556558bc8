#pragma once

// Benchmark-side spans around calls into the library's layers. Spans are
// recorded only on the thread that drives the workload (the closed-loop
// client), kept in memory, and written at exit as Chrome trace JSON so they
// open in Perfetto beside write_chrome_trace output. Disabled, a span costs
// one branch and records nothing.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::int64_t op = -1;   ///< Iteration or request id shared by its spans.
    int parent = -1;        ///< Index of the enclosing span, -1 at top level.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< Time covered by direct children.
  };

  /// RAII span: closes on destruction. Move-only.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) {
        tracer_->close(index_);
      }
    }

   private:
    friend class Tracer;
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span named `name` (a string literal) under the innermost open
  /// span; `op` defaults to the parent's id.
  [[nodiscard]] Span span(const char* name, std::int64_t op = -1);

  /// Self time (duration minus direct children) in ms of every closed span
  /// named `name`, in recording order.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;

  /// Writes all spans as a Chrome trace ("X" complete events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  void close(int index);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;  ///< Stack of open span indices.
};

}  // namespace dpbench
