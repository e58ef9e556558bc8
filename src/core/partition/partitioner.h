#pragma once

#include <vector>

#include "cluster/comm_model.h"
#include "profiler/profile_db.h"

namespace dpipe {

/// One pipeline stage of a backbone: consecutive layers [layer_begin,
/// layer_end), replicated over `replicas` devices.
struct StagePlan {
  int layer_begin = 0;
  int layer_end = 0;
  int replicas = 1;
  /// Global device ranks of this stage within pipeline-parallel group 0
  /// (other groups are rank-shifted copies).
  std::vector<int> device_ranks;

  [[nodiscard]] int num_layers() const { return layer_end - layer_begin; }
};

/// Pipeline-training hyper-parameters (paper Table 3) plus per-run context.
struct PartitionOptions {
  int num_stages = 2;        ///< S.
  int num_microbatches = 4;  ///< M.
  int group_size = 8;        ///< D: devices in one pipeline-parallel group.
  int data_parallel_degree = 1;  ///< world size / D (for sync group size).
  double microbatch_size = 8.0;  ///< B: samples per micro-batch (per group).
  bool self_conditioning = false;
  double self_cond_prob = 0.5;
  /// Evaluation default (paper §4.1 fn. 2): every stage uses D/S replicas.
  /// When false the DP explores per-stage replica counts (slower; intended
  /// for small groups).
  bool force_uniform_replicas = true;
  /// Ranks of group 0's devices in chain order; empty = 0..D-1.
  std::vector<int> device_ranks;
  /// Global-rank stride between consecutive data-parallel groups;
  /// 0 = group_size (the canonical layout). Interleaved planning partitions
  /// over a synthetic S*V-position virtual chain whose positions map
  /// round-robin onto D physical devices, so its group_size is the chain
  /// length while the DP replicas of a device are still D ranks apart.
  int dp_rank_stride = 0;
  /// Multiplier on inter-stage communication time; bidirectional pipelining
  /// sets 2.0 for link competition between the two directions (§4.2,
  /// bidirectional_options).
  double comm_competition_factor = 1.0;
  /// Ablation: collapse each DP state's Pareto frontier of (W, Y) pairs to
  /// the single scalarized-best point, as a naive reading of Eqn (2) would.
  /// Can only produce equal-or-worse objectives than the full frontier
  /// (see DESIGN.md §3 and PartitionerAblation tests).
  bool scalarize_dp_states = false;

  friend bool operator==(const PartitionOptions&,
                         const PartitionOptions&) = default;
};

/// The options an interleaved plan is partitioned and timed under: its
/// `chain_stages` (= S * V) virtual stages sit on a synthetic chain of that
/// length whose position s is physical device s % opts.group_size, and
/// whose data-parallel replicas stay opts.group_size global ranks apart.
/// The planner's DP and ScheduleBuilder::build_interleaved both use it, so
/// the builder finds the DP's stage costs under the same cache keys
/// (chain_begin == s, one replica).
[[nodiscard]] PartitionOptions interleaved_chain_options(
    PartitionOptions opts, int chain_stages);

/// Which way a backbone pipelines along the device chain (§4.2). Down
/// pipelines flow from chain position 0 upward; up pipelines flow from the
/// chain end downward, so their incoming stage boundary sits on the
/// high-chain side.
enum class PipeDirection { kDown, kUp };

/// One backbone laid along the shared device chain. A down lane takes its
/// layers from the front of the backbone as the chain advances; an up lane
/// takes them from the back, so its pipeline stage 0 sits at the chain end.
struct ChainLane {
  int component = 0;
  PipeDirection direction = PipeDirection::kDown;
};

/// Result of the single-backbone dynamic program (§4.1).
struct PartitionResult {
  std::vector<StagePlan> stages;  ///< In pipeline order (stage 0 first).
  double t0_ms = 0.0;             ///< W at the optimum (max stage/comm time).
  double y_ms = 0.0;              ///< Y at the optimum (max T_S - T_C gap).
  double feedback_ms = 0.0;       ///< Expected self-conditioning T_F term.
  double upper_bound_ms = 0.0;    ///< (M + 2S - 2) * W + Y + p * T_F.
};

/// Result of the chain DP: one stage list per lane, each in its own
/// pipeline order (a down lane's stage 0 at chain position 0, an up lane's
/// at the chain end). Chain stage k holds one stage of every lane on the
/// same replicas.
struct ChainPartitionResult {
  std::vector<std::vector<StagePlan>> lanes;
  double t0_ms = 0.0;           ///< W: max stage/comm time over all lanes.
  double y_ms = 0.0;            ///< Y: max T_S - T_C gap over all lanes.
  double upper_bound_ms = 0.0;  ///< (lanes * M + 2S - 2) * W + Y.
};

/// Per-stage cost terms, exposed for tests and the schedule builder.
struct StageCost {
  double fwd_ms = 0.0;      ///< One micro-batch forward on the stage.
  double bwd_ms = 0.0;      ///< One micro-batch backward on the stage.
  double comm_in_ms = 0.0;  ///< Incoming fwd + outgoing bwd boundary comm.
  double boundary_ms = 0.0; ///< One activation transfer across the incoming
                            ///< boundary, unscaled (0 for stage 0).
  double t0_ms = 0.0;       ///< Eqn (3) / (17); expectation if self-cond.
  double sync_ms = 0.0;     ///< T_S, Eqn (4).
  double comp_ms = 0.0;     ///< T_C, Eqn (5).
  double y_ms = 0.0;        ///< max(0, T_S - T_C), Eqn (6).
};

class StageCostCache;  // core/partition/stage_cache.h

/// Dynamic-programming backbone partitioner (paper §4).
class DpPartitioner {
 public:
  DpPartitioner(const ProfileDb& db, const CommModel& comm);

  /// Optimal partition of a single backbone component (§4.1, Eqns 1-9):
  /// the chain DP over one down lane, plus the self-conditioning feedback
  /// term. A non-null `cache` memoizes stage costs across DP states (and
  /// can be shared with the schedule builder afterwards); results are
  /// bit-identical with and without it.
  [[nodiscard]] PartitionResult partition_single(
      int backbone_component, const PartitionOptions& opts,
      StageCostCache* cache = nullptr) const;

  /// The one partition DP (§4.1-4.2): splits every lane (one or two
  /// backbones) into opts.num_stages stages along the device chain, chain
  /// stage k holding one stage of each lane on the same replicas. W and Y
  /// combine by max over lanes; the frontier is scalarized by
  /// (lanes * M + 2S - 2) * W + Y. Throws std::invalid_argument on
  /// options partition_single would reject for any lane; `cache` as above.
  [[nodiscard]] ChainPartitionResult partition_chain(
      const std::vector<ChainLane>& lanes, const PartitionOptions& opts,
      StageCostCache* cache = nullptr) const;

  /// Cost terms of stage [lo, hi) of `backbone_component` on `replicas`
  /// devices whose incoming boundary crosses chain position `chain_begin`
  /// (i.e. the stage occupies chain slots [chain_begin, chain_begin +
  /// replicas)). Used by the DP, the brute-force oracle, and the schedule
  /// builder. A non-null `cache` memoizes the result per
  /// (component, lo, hi, replicas, chain_begin, direction).
  [[nodiscard]] StageCost stage_cost(
      int backbone_component, int lo, int hi, int replicas, int chain_begin,
      const PartitionOptions& opts,
      PipeDirection direction = PipeDirection::kDown,
      StageCostCache* cache = nullptr) const;

  /// Scalarized objective for a full assignment (shared with brute force):
  /// (M + 2S - 2) * max T0 + max Y (+ expected feedback term).
  [[nodiscard]] double objective(const std::vector<StageCost>& stages,
                                 int backbone_component,
                                 const PartitionOptions& opts) const;

  /// Stage [lo, hi) on chain slots [chain_begin, chain_begin + replicas),
  /// with the ranks opts.device_ranks gives those slots (shared with the
  /// brute-force oracles).
  [[nodiscard]] StagePlan make_stage(const PartitionOptions& opts, int lo,
                                     int hi, int chain_begin,
                                     int replicas) const;

  /// Expected feedback-communication term p * T_F (0 without self-cond).
  [[nodiscard]] double feedback_ms(int backbone_component,
                                   const PartitionOptions& opts) const;

  [[nodiscard]] const ProfileDb& db() const { return *db_; }
  [[nodiscard]] const CommModel& comm() const { return *comm_; }

 private:
  void check_options(int backbone_component,
                     const PartitionOptions& opts) const;
  /// Uncached stage_cost computation.
  [[nodiscard]] StageCost compute_stage_cost(int backbone_component, int lo,
                                             int hi, int replicas,
                                             int chain_begin,
                                             const PartitionOptions& opts,
                                             PipeDirection direction) const;
  /// Global rank at chain position `pos` of group 0.
  [[nodiscard]] int rank_at(const PartitionOptions& opts, int pos) const;
  /// Gradient allreduce group of a stage occupying chain slots
  /// [chain_begin, chain_begin + replicas) in every data-parallel group.
  [[nodiscard]] std::vector<int> sync_group(const PartitionOptions& opts,
                                            int chain_begin,
                                            int replicas) const;

  const ProfileDb* db_;
  const CommModel* comm_;
};

}  // namespace dpipe
