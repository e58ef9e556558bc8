#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/tensor.h"

namespace dpipe::rt {

/// Recycling arena for tensor storage. The training runtime's working set
/// is a small number of fixed shapes repeated every micro-batch and
/// iteration (activations, gradients, stashed inputs, kernel packing
/// panels), so a free list keyed by element count turns almost every
/// allocation after the first iteration into a pop.
///
/// Buckets are keyed by the element count rounded up to the 64-byte
/// alignment granule (kTensorAlignment / sizeof(float) = 16 floats): every
/// recycled buffer's capacity covers the whole granule, so shapes that
/// differ only below the granule share a bucket, and every buffer the pool
/// hands out starts on a 64-byte boundary (the SIMD microkernels issue
/// aligned loads against pooled packing panels). Debug builds assert the
/// alignment on every acquire.
///
/// acquire() returns a tensor whose *contents are unspecified* — callers
/// must fully overwrite it (every kernel and fused loop in the runtime
/// does). release() donates a tensor's storage back; tensors that are
/// simply destroyed instead are freed normally, so forgetting a release is
/// a missed optimization, never a bug.
///
/// Thread-safe: pipeline wave workers acquire/release concurrently.
class TensorPool {
 public:
  /// Elements per alignment granule; bucket keys are multiples of this.
  static constexpr std::int64_t kGranuleElems =
      static_cast<std::int64_t>(kTensorAlignment / sizeof(float));

  struct Stats {
    std::uint64_t allocs_avoided = 0;  ///< acquire() served from free list.
    std::uint64_t allocs_fresh = 0;    ///< acquire() hit the allocator.
    std::uint64_t released = 0;        ///< Buffers donated back.
    std::uint64_t bytes_free = 0;      ///< Parked in free lists (padded).
    /// Peak of (outstanding acquired bytes + free-list bytes), both counted
    /// at padded (bucket) size. Outstanding is decremented on release, so
    /// buffers that die without a release stay counted — treat this as an
    /// upper bound on pool-managed memory.
    std::uint64_t peak_bytes = 0;
    // Alignment accounting (DESIGN.md §11): buckets are rounded up to
    // alignment_bytes, so some acquires carry padding beyond their logical
    // element count.
    std::uint64_t alignment_bytes = kTensorAlignment;
    std::uint64_t rounded_allocs = 0;  ///< Acquires padded above numel.
    /// Cumulative padding bytes handed out across all acquires (logical
    /// size vs bucket size) — the total cost of alignment rounding.
    std::uint64_t padding_bytes_total = 0;
  };

  /// A tensor of `shape` with unspecified contents (recycled when a buffer
  /// of the rounded-up bucket size is free, freshly allocated otherwise).
  /// The returned tensor's data() is kTensorAlignment-aligned.
  [[nodiscard]] Tensor acquire(std::vector<int> shape);

  /// Donates `t`'s storage to the free list. Undefined/empty tensors are
  /// ignored.
  void release(Tensor&& t);

  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Frees every parked buffer (stats keep their counters).
  void trim();

  /// The process-wide pool used by the runtime's hot paths.
  [[nodiscard]] static TensorPool& global();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::int64_t, std::vector<FloatStorage>> free_;
  Stats stats_;
  std::uint64_t bytes_outstanding_ = 0;
};

}  // namespace dpipe::rt
