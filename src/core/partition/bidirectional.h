#pragma once

#include "core/partition/partitioner.h"

namespace dpipe {

/// Result of bidirectional (Chimera-style) co-partitioning of two backbones
/// on the same device chain (paper §4.2, Eqns 10-16).
struct BiPartitionResult {
  /// Down-pipelined backbone's stages, in its pipeline order: stage 0 at
  /// chain position 0.
  std::vector<StagePlan> down_stages;
  /// Up-pipelined backbone's stages, in its pipeline order: stage 0 at the
  /// chain *end* (it shares devices with the down backbone's last stage).
  std::vector<StagePlan> up_stages;
  double t0_ms = 0.0;           ///< W = T_{0,CDM} at the optimum (Eqn 10).
  double y_ms = 0.0;            ///< Y = T^{S-C}_{0,CDM} (Eqn 11).
  int m_cdm = 0;                ///< Paired micro-batch count in Eqn 12.
  double upper_bound_ms = 0.0;  ///< (M_CDM + 2S - 2) * W + Y (Eqn 12).
};

/// The options a bidirectional chain is priced under, by the partitioner
/// and the schedule builder alike: inter-stage communication is charged
/// the x2 competition factor of §4.2 (the two directions share links),
/// whatever `opts.comm_competition_factor` says.
[[nodiscard]] PartitionOptions bidirectional_options(PartitionOptions opts);

/// Co-partitions two backbones of a cascaded diffusion model with
/// bidirectional pipelining: the chain DP (DpPartitioner::partition_chain)
/// over a down lane and an up lane, so chain stage k hosts down-backbone
/// stage k and up-backbone stage S-1-k on the same devices. Uniform
/// replication only (r = D / S), under bidirectional_options(opts). A
/// non-null `cache` memoizes stage costs (keyed per direction); it binds
/// to those options, which build_bidirectional applies too, so the two
/// can share it.
[[nodiscard]] BiPartitionResult partition_bidirectional(
    const DpPartitioner& partitioner, int down_component, int up_component,
    const PartitionOptions& opts, StageCostCache* cache = nullptr);

/// Exhaustive reference for `partition_bidirectional` (test oracle; small
/// layer counts only).
[[nodiscard]] BiPartitionResult brute_force_bidirectional(
    const DpPartitioner& partitioner, int down_component, int up_component,
    const PartitionOptions& opts, StageCostCache* cache = nullptr);

}  // namespace dpipe
