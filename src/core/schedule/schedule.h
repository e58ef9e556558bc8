#pragma once

#include <string>
#include <vector>

#include "cluster/comm_model.h"
#include "common/timeline.h"
#include "core/partition/partitioner.h"
#include "profiler/profile_db.h"

namespace dpipe {

enum class OpKind {
  kForward,              ///< Micro-batch forward on a backbone stage.
  kBackward,             ///< Micro-batch backward on a backbone stage.
  kGradSync,             ///< Gradient allreduce (link op, device stays free).
  kFrozenForward,        ///< Non-trainable layer on the full batch share.
  kFrozenForwardPartial, ///< Non-trainable layer on a partial batch.
  kLeftoverForward,      ///< Non-trainable work that did not fit any bubble.
  kLoad,                 ///< Micro-batch input load (measured timelines).
  kOptimizer,            ///< Parameter update (measured timelines).
};

[[nodiscard]] const char* to_string(OpKind kind);

/// The schedule families the builders (and the planner's search) know.
/// kInterleaved is the Megatron/JaxPP-style looping placement: each device
/// owns V non-contiguous virtual stages round-robin (stage s on device
/// s % D), shrinking the warm-up/cool-down bubble by ~1/V.
enum class ScheduleFamily { k1F1B, kGpipe, kBidirectional, kInterleaved };

[[nodiscard]] const char* to_string(ScheduleFamily family);

/// Parses "1f1b" | "gpipe" | "bidir" | "interleaved"; throws on anything
/// else (the CLI surface of --schedule=).
[[nodiscard]] ScheduleFamily parse_schedule_family(const std::string& name);

/// One entry of the stage→(device, slot) ownership map: the chain position
/// that owns a stage, and the stage's index within that device's ordered
/// virtual-stage list. The explicit form of what used to be an implicit
/// stage↔device bijection.
struct StagePlacement {
  int device = 0;
  int slot = 0;

  friend bool operator==(const StagePlacement& a, const StagePlacement& b) {
    return a.device == b.device && a.slot == b.slot;
  }
};

/// A scheduled operation with resolved times. Compute ops occupy all
/// devices of their stage; link ops (kGradSync) occupy none.
struct PipelineOp {
  OpKind kind = OpKind::kForward;
  int backbone = 0;   ///< Cascade index (0 = single/down, 1 = up).
  int stage = -1;     ///< Stage index within its backbone's pipeline.
  int micro = -1;     ///< Micro-batch index (compute ops).
  int component = -1; ///< Model component (frozen ops).
  int layer = -1;     ///< Layer index (frozen ops).
  double samples = 0.0;  ///< Per-device samples processed (frozen ops).
  double start_ms = 0.0;
  double end_ms = 0.0;

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

/// Ops executed by one device (chain position), sorted by start time.
struct DeviceTimeline {
  std::vector<PipelineOp> ops;
};

/// A pipeline bubble: the paper's (start time, end time, idle devices)
/// tuple — the idle-device set is constant over the span.
struct Bubble {
  Span span;
  std::vector<int> devices;  ///< Chain positions idle over `span`.

  [[nodiscard]] double length_ms() const { return span.length(); }
};

/// A complete pipeline schedule for one training iteration of one pipeline
/// group. Device indices are chain positions 0..group_size-1.
struct Schedule {
  int group_size = 0;
  int num_stages = 0;
  int num_microbatches = 0;
  double makespan_ms = 0.0;          ///< End of the last op (incl. syncs).
  double compute_makespan_ms = 0.0;  ///< End of the last compute op.
  std::vector<DeviceTimeline> devices;
  std::vector<PipelineOp> link_ops;  ///< Gradient syncs (non-occupying).
  /// Stage plans per backbone, in pipeline order (needed by the filler and
  /// instruction generator to map stages to devices).
  std::vector<std::vector<StagePlan>> backbone_stages;
  /// placement[b][s]: which chain position owns backbone b's stage s, and
  /// at which slot of that device's ordered virtual-stage list. Replicated
  /// stages record their first chain position. One-stage-per-device
  /// families (1F1B, GPipe) are all slot 0; bidirectional devices host a
  /// down stage (slot 0) and an up stage (slot 1); interleaved devices
  /// host V stages (stage s → device s % D, slot s / D).
  std::vector<std::vector<StagePlacement>> placement;
};

/// Sum over bubbles of (duration x idle devices) / (makespan x all devices)
/// — the paper's bubble-ratio metric (§6, Metrics).
[[nodiscard]] double bubble_ratio(const Schedule& schedule,
                                  const std::vector<Bubble>& bubbles);

/// Builds pipeline schedules from a partition. Every family is one
/// assembly: the build_* methods only say which executor runs each stage
/// of each backbone (lane) and whether queues run 1F1B or GPipe order;
/// each executor then gets one queue per stage it hosts, lanes in order
/// and then stages ascending, and interleaves them greedily. All families
/// model inter-stage communication as link latency (devices stay free) and
/// gradient synchronization as link ops that extend the makespan but can
/// overlap bubble-filled compute (§2.3, §6.1). Self-conditioning is modeled
/// in expectation: forward durations and boundary transfers scale by
/// (1 + p), and the feedback transfer T_F extends the makespan (§4.3).
class ScheduleBuilder {
 public:
  ScheduleBuilder(const ProfileDb& db, const CommModel& comm);

  /// FIFO-1F1B schedule (paper Fig. 2) of one backbone. A non-null `cache`
  /// (populated by the partitioner under the same options) supplies the
  /// stages' fwd/bwd/sync times without recomputation; timings are
  /// bit-identical with and without it.
  [[nodiscard]] Schedule build_1f1b(int backbone_component,
                                    const std::vector<StagePlan>& stages,
                                    const PartitionOptions& opts,
                                    const StageCostCache* cache
                                    = nullptr) const;

  /// GPipe-style schedule: all forwards, then all backwards per stage.
  [[nodiscard]] Schedule build_gpipe(int backbone_component,
                                     const std::vector<StagePlan>& stages,
                                     const PartitionOptions& opts,
                                     const StageCostCache* cache
                                     = nullptr) const;

  /// Interleaved 1F1B (Megatron/JaxPP-style looping placement): the group's
  /// opts.group_size devices each own stages.size() / group_size virtual
  /// stages round-robin — stage s runs on device s % group_size — so every
  /// stage must have exactly one replica and opts.num_stages must equal
  /// stages.size() (= V * group_size). Each device interleaves its owned
  /// stages' 1F1B queues greedily. Stages are timed under
  /// interleaved_chain_options(opts, stages.size()), the chain the planner
  /// partitions, so a `cache` from that DP is reused. With V == 1 the
  /// result is bit-identical to build_1f1b; V > 1 needs group_size >= 2 (a
  /// device never sends to itself).
  [[nodiscard]] Schedule build_interleaved(int backbone_component,
                                           const std::vector<StagePlan>&
                                               stages,
                                           const PartitionOptions& opts,
                                           const StageCostCache* cache
                                           = nullptr) const;

  /// Bidirectional schedule (paper Fig. 3): down backbone stage k and up
  /// backbone stage S-1-k share chain position k. Up stages must be given
  /// in up-pipeline order (stage 0 at the chain end), as produced by
  /// partition_bidirectional(). Priced under bidirectional_options(opts),
  /// like the DP, so `cache` may come from partition_bidirectional and
  /// opts.comm_competition_factor does not change the schedule.
  [[nodiscard]] Schedule build_bidirectional(
      int down_component, const std::vector<StagePlan>& down_stages,
      int up_component, const std::vector<StagePlan>& up_stages,
      const PartitionOptions& opts,
      const StageCostCache* cache = nullptr) const;

 private:
  const ProfileDb* db_;
  const CommModel* comm_;
};

/// Extracts pipeline bubbles from a schedule: maximal intervals with a
/// constant set of idle devices, at least `min_bubble_ms` long (the paper
/// ignores bubbles shorter than 10 ms, §5 fn. 3). Chronological order.
[[nodiscard]] std::vector<Bubble> extract_bubbles(const Schedule& schedule,
                                                  double min_bubble_ms = 10.0);

namespace detail {

/// An operation before time resolution: used by the schedule assembly.
struct ProtoOp {
  OpKind kind = OpKind::kForward;
  int backbone = 0;
  int stage = -1;
  int micro = -1;
  double duration_ms = 0.0;
  int executor = -1;  ///< Serial executor (chain stage slot); -1 = link op.
  /// (proto-op index, extra lag ms): this op may start only after dep's end
  /// plus the lag (communication time).
  std::vector<std::pair<int, double>> deps;
};

/// Generic list scheduler. `queues[executor]` holds per-executor ordered
/// queues of proto-op indices; ops within one queue run in order, and an
/// executor interleaves its queues greedily (earliest feasible start, ties
/// broken by queue index). Link ops (executor -1) are resolved afterwards.
/// Returns per-op (start, end).
[[nodiscard]] std::vector<Span> list_schedule(
    const std::vector<ProtoOp>& ops,
    const std::vector<std::vector<std::vector<int>>>& queues);

}  // namespace detail

}  // namespace dpipe
