#pragma once

// Internal helpers shared by the schedule builders. Not part of the public
// API; include only from core/schedule/*.cpp.

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/partition/stage_cache.h"
#include "core/schedule/schedule.h"

namespace dpipe::builder_detail {

/// Per-stage timing inputs derived from the profile.
struct StageTiming {
  double fwd_ms = 0.0;      ///< One micro-batch forward (incl. expected
                            ///< self-conditioning extra pass).
  double bwd_ms = 0.0;      ///< One micro-batch backward.
  double comm_in_ms = 0.0;  ///< Lag for activations arriving from the
                            ///< previous stage (0 for stage 0).
  double comm_out_bwd_ms = 0.0;  ///< Lag for activation gradients sent back
                                 ///< to the previous stage.
  double sync_ms = 0.0;     ///< Gradient allreduce duration.
};

inline double self_cond_factor(const PartitionOptions& opts) {
  return opts.self_conditioning ? 1.0 + opts.self_cond_prob : 1.0;
}

inline std::vector<int> stage_sync_group(const StagePlan& stage,
                                         const PartitionOptions& opts) {
  const int stride =
      opts.dp_rank_stride > 0 ? opts.dp_rank_stride : opts.group_size;
  std::vector<int> group;
  for (int g = 0; g < opts.data_parallel_degree; ++g) {
    for (const int rank : stage.device_ranks) {
      group.push_back(rank + g * stride);
    }
  }
  return group;
}

/// Chain slot offsets of `stages` given in pipeline order: down pipelines
/// run front-to-back along the chain, up pipelines back-to-front (stage 0
/// at the chain end), matching the partitioners' layout.
inline std::vector<int> pipeline_chain_offsets(
    const std::vector<StagePlan>& stages, int group_size,
    PipeDirection direction) {
  std::vector<int> offsets(stages.size(), 0);
  if (direction == PipeDirection::kDown) {
    int position = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      offsets[s] = position;
      position += stages[s].replicas;
    }
  } else {
    int position = group_size;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      position -= stages[s].replicas;
      offsets[s] = position;
    }
  }
  return offsets;
}

/// True when `stage` occupies exactly chain slots [chain_begin,
/// chain_begin + replicas) under the canonical rank layout — the
/// precondition for its DpPartitioner::stage_cost cache entry to describe
/// the same stage the builder is timing.
inline bool stage_matches_chain(const StagePlan& stage,
                                const PartitionOptions& opts,
                                int chain_begin) {
  if (chain_begin < 0 ||
      chain_begin + stage.replicas > opts.group_size) {
    return false;
  }
  for (int i = 0; i < stage.replicas; ++i) {
    const int pos = chain_begin + i;
    const int want =
        opts.device_ranks.empty() ? pos : opts.device_ranks[pos];
    if (stage.device_ranks[i] != want) {
      return false;
    }
  }
  return true;
}

inline std::vector<StageTiming> stage_timings(
    const ProfileDb& db, const CommModel& comm, int component,
    const std::vector<StagePlan>& stages, const PartitionOptions& opts,
    const StageCostCache* cache = nullptr,
    PipeDirection direction = PipeDirection::kDown) {
  std::vector<StageTiming> timings;
  timings.reserve(stages.size());
  const double sc = self_cond_factor(opts);
  const std::vector<int> offsets =
      cache == nullptr
          ? std::vector<int>{}
          : pipeline_chain_offsets(stages, opts.group_size, direction);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& stage = stages[s];
    const double local_batch = opts.microbatch_size / stage.replicas;
    StageTiming t;
    // The partitioner already computed this stage's profile sums and sync
    // time (bit-identically to the expressions below); reuse them when the
    // stage sits where the cache key says it does.
    const StageCost* hit = nullptr;
    if (cache != nullptr &&
        stage_matches_chain(stage, opts, offsets[s])) {
      hit = cache->find({component, stage.layer_begin, stage.layer_end,
                         stage.replicas, offsets[s], direction});
    }
    if (hit != nullptr) {
      t.fwd_ms = sc * hit->fwd_ms;
      t.bwd_ms = hit->bwd_ms;
      t.sync_ms = hit->sync_ms;
    } else {
      t.fwd_ms = sc * db.fwd_range_ms(component, stage.layer_begin,
                                      stage.layer_end, local_batch);
      t.bwd_ms = db.bwd_range_ms(component, stage.layer_begin,
                                 stage.layer_end, local_batch);
      const double grad_mb =
          kGradCommBytesFactor *
          db.grad_range_mb(component, stage.layer_begin, stage.layer_end);
      t.sync_ms = comm.allreduce_ms(grad_mb, stage_sync_group(stage, opts));
    }
    if (s > 0) {
      const StagePlan& prev = stages[s - 1];
      const double size_mb =
          db.layer(component, stage.layer_begin - 1).output_mb * local_batch;
      const LinkSpec link =
          comm.p2p_link(prev.device_ranks.back(), stage.device_ranks.front());
      const double base =
          transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms;
      t.comm_in_ms = opts.comm_competition_factor * sc * base;
      t.comm_out_bwd_ms = opts.comm_competition_factor * base;
    }
    timings.push_back(t);
  }
  return timings;
}

/// Per-stage timings of an interleaved (round-robin) placement. Stages
/// have one replica each on physical chain position s % group_size. The
/// planner partitions the virtual chain under a canonical identity layout
/// (group_size == stages.size()), so its StageCostCache keys carry
/// chain_begin == s with one replica; fwd/bwd sums transfer unchanged (the
/// profile does not depend on placement) and are looked up directly
/// instead of via stage_matches_chain. Sync and boundary comm DO depend on
/// placement and are always recomputed against the physical ranks — with
/// V == 1 (identity placement) every expression below matches
/// stage_timings bit-for-bit.
inline std::vector<StageTiming> interleaved_stage_timings(
    const ProfileDb& db, const CommModel& comm, int component,
    const std::vector<StagePlan>& stages, const PartitionOptions& opts,
    const StageCostCache* cache = nullptr) {
  std::vector<StageTiming> timings;
  timings.reserve(stages.size());
  const double sc = self_cond_factor(opts);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StagePlan& stage = stages[s];
    const double local_batch = opts.microbatch_size;  // One replica.
    StageTiming t;
    const StageCost* hit =
        cache == nullptr
            ? nullptr
            : cache->find({component, stage.layer_begin, stage.layer_end, 1,
                           static_cast<int>(s), PipeDirection::kDown});
    if (hit != nullptr) {
      t.fwd_ms = sc * hit->fwd_ms;
      t.bwd_ms = hit->bwd_ms;
    } else {
      t.fwd_ms = sc * db.fwd_range_ms(component, stage.layer_begin,
                                      stage.layer_end, local_batch);
      t.bwd_ms = db.bwd_range_ms(component, stage.layer_begin,
                                 stage.layer_end, local_batch);
    }
    const double grad_mb =
        kGradCommBytesFactor *
        db.grad_range_mb(component, stage.layer_begin, stage.layer_end);
    t.sync_ms = comm.allreduce_ms(grad_mb, stage_sync_group(stage, opts));
    if (s > 0) {
      const StagePlan& prev = stages[s - 1];
      const double size_mb =
          db.layer(component, stage.layer_begin - 1).output_mb * local_batch;
      const LinkSpec link =
          comm.p2p_link(prev.device_ranks.back(), stage.device_ranks.front());
      const double base =
          transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms;
      t.comm_in_ms = opts.comm_competition_factor * sc * base;
      t.comm_out_bwd_ms = opts.comm_competition_factor * base;
    }
    timings.push_back(t);
  }
  return timings;
}

/// Expected self-conditioning feedback transfer p * T_F (§4.3).
inline double feedback_lag_ms(const ProfileDb& db, const CommModel& comm,
                              int component,
                              const std::vector<StagePlan>& stages,
                              const PartitionOptions& opts) {
  if (!opts.self_conditioning) {
    return 0.0;
  }
  const int last_layer = stages.back().layer_end - 1;
  const double size_mb =
      db.layer(component, last_layer).output_mb * opts.microbatch_size;
  const LinkSpec link = comm.p2p_link(stages.back().device_ranks.back(),
                                      stages.front().device_ranks.front());
  return opts.self_cond_prob *
         (transfer_ms(size_mb, link.bandwidth_gbps) + link.latency_ms);
}

/// Indices of one backbone's proto-ops: fwd[s][m], bwd[s][m], sync[s].
struct BackboneOps {
  std::vector<std::vector<int>> fwd;
  std::vector<std::vector<int>> bwd;
  std::vector<int> sync;
};

/// Appends forward/backward/sync proto-ops of one backbone to `ops` and
/// wires their dependencies. `executor_of_stage[s]` maps the backbone's
/// stage index to its executor slot. Queue construction is the caller's
/// job (it differs between 1F1B, GPipe, and bidirectional).
inline BackboneOps append_backbone_ops(
    std::vector<detail::ProtoOp>& ops, int backbone_index,
    const std::vector<StageTiming>& timings,
    const std::vector<int>& executor_of_stage, int num_microbatches,
    double feedback_ms) {
  const int S = static_cast<int>(timings.size());
  const int M = num_microbatches;
  BackboneOps ids;
  ids.fwd.assign(S, std::vector<int>(M, -1));
  ids.bwd.assign(S, std::vector<int>(M, -1));
  ids.sync.assign(S, -1);
  for (int s = 0; s < S; ++s) {
    for (int m = 0; m < M; ++m) {
      detail::ProtoOp fwd;
      fwd.kind = OpKind::kForward;
      fwd.backbone = backbone_index;
      fwd.stage = s;
      fwd.micro = m;
      fwd.duration_ms = timings[s].fwd_ms;
      fwd.executor = executor_of_stage[s];
      if (s > 0) {
        fwd.deps.emplace_back(ids.fwd[s - 1][m], timings[s].comm_in_ms);
      }
      ids.fwd[s][m] = static_cast<int>(ops.size());
      ops.push_back(std::move(fwd));
    }
  }
  for (int s = S - 1; s >= 0; --s) {
    for (int m = 0; m < M; ++m) {
      detail::ProtoOp bwd;
      bwd.kind = OpKind::kBackward;
      bwd.backbone = backbone_index;
      bwd.stage = s;
      bwd.micro = m;
      bwd.duration_ms = timings[s].bwd_ms;
      bwd.executor = executor_of_stage[s];
      bwd.deps.emplace_back(ids.fwd[s][m], 0.0);
      if (s < S - 1) {
        bwd.deps.emplace_back(ids.bwd[s + 1][m],
                              timings[s + 1].comm_out_bwd_ms);
      } else if (m == 0 && feedback_ms > 0.0) {
        // Self-conditioning feedback: the expected T_F transfer from the
        // last stage's output back to stage 0 sits on the critical path
        // before the backward phase begins (§4.3, Fig. 10).
        bwd.deps.emplace_back(ids.fwd[s][m], feedback_ms);
      }
      ids.bwd[s][m] = static_cast<int>(ops.size());
      ops.push_back(std::move(bwd));
    }
  }
  for (int s = 0; s < S; ++s) {
    detail::ProtoOp sync;
    sync.kind = OpKind::kGradSync;
    sync.backbone = backbone_index;
    sync.stage = s;
    sync.duration_ms = timings[s].sync_ms;
    sync.executor = -1;  // Link op: overlaps compute.
    for (int m = 0; m < M; ++m) {
      sync.deps.emplace_back(ids.bwd[s][m], 0.0);
    }
    ids.sync[s] = static_cast<int>(ops.size());
    ops.push_back(std::move(sync));
  }
  return ids;
}

/// 1F1B queue order of one stage: warm-up forwards, steady 1F1B pairs,
/// cool-down backwards (paper Fig. 2).
inline std::vector<int> one_f_one_b_order(const BackboneOps& ids, int stage,
                                          int num_stages,
                                          int num_microbatches) {
  const int warmup =
      std::min(num_stages - 1 - stage, num_microbatches);
  std::vector<int> queue;
  for (int m = 0; m < warmup; ++m) {
    queue.push_back(ids.fwd[stage][m]);
  }
  for (int i = 0; i + warmup < num_microbatches; ++i) {
    queue.push_back(ids.fwd[stage][warmup + i]);
    queue.push_back(ids.bwd[stage][i]);
  }
  for (int m = num_microbatches - warmup; m < num_microbatches; ++m) {
    queue.push_back(ids.bwd[stage][m]);
  }
  return queue;
}

/// GPipe queue order: all forwards, then all backwards (reverse micro
/// order, matching the backward dependency chain).
inline std::vector<int> gpipe_order(const BackboneOps& ids, int stage,
                                    int num_microbatches) {
  std::vector<int> queue;
  for (int m = 0; m < num_microbatches; ++m) {
    queue.push_back(ids.fwd[stage][m]);
  }
  for (int m = num_microbatches - 1; m >= 0; --m) {
    queue.push_back(ids.bwd[stage][m]);
  }
  return queue;
}

/// Chain position of each device of each stage: stage s occupies positions
/// [offset(s), offset(s) + replicas).
inline std::vector<int> stage_chain_offsets(
    const std::vector<StagePlan>& stages) {
  std::vector<int> offsets;
  int position = 0;
  for (const StagePlan& stage : stages) {
    offsets.push_back(position);
    position += stage.replicas;
  }
  return offsets;
}

/// Materializes a Schedule from resolved proto-ops. `devices_of_executor`
/// lists the chain positions each executor's compute occupies.
inline Schedule assemble_schedule(
    const std::vector<detail::ProtoOp>& ops, const std::vector<Span>& times,
    const std::vector<std::vector<int>>& devices_of_executor, int group_size,
    int num_stages, int num_microbatches) {
  Schedule schedule;
  schedule.group_size = group_size;
  schedule.num_stages = num_stages;
  schedule.num_microbatches = num_microbatches;
  schedule.devices.resize(group_size);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PipelineOp op;
    op.kind = ops[i].kind;
    op.backbone = ops[i].backbone;
    op.stage = ops[i].stage;
    op.micro = ops[i].micro;
    op.start_ms = times[i].start;
    op.end_ms = times[i].end;
    schedule.makespan_ms = std::max(schedule.makespan_ms, op.end_ms);
    if (ops[i].executor < 0) {
      schedule.link_ops.push_back(op);
      continue;
    }
    schedule.compute_makespan_ms =
        std::max(schedule.compute_makespan_ms, op.end_ms);
    for (const int device : devices_of_executor[ops[i].executor]) {
      schedule.devices[device].ops.push_back(op);
    }
  }
  for (DeviceTimeline& device : schedule.devices) {
    std::sort(device.ops.begin(), device.ops.end(),
              [](const PipelineOp& a, const PipelineOp& b) {
                return a.start_ms < b.start_ms;
              });
  }
  return schedule;
}

/// One backbone's stage→(device, slot) map from its chain offsets: stage s
/// lives at chain position offset[s] (its first replica) with slot
/// `slot_of_stage[s]` within that device's owned-stage list.
inline std::vector<StagePlacement> backbone_placement(
    const std::vector<int>& offsets, const std::vector<int>& slots) {
  std::vector<StagePlacement> placement(offsets.size());
  for (std::size_t s = 0; s < offsets.size(); ++s) {
    placement[s] = {offsets[s], slots[s]};
  }
  return placement;
}

inline void check_stages(const std::vector<StagePlan>& stages,
                         const PartitionOptions& opts) {
  DPIPE_REQUIRE(!stages.empty(), "schedule needs at least one stage");
  DPIPE_REQUIRE(static_cast<int>(stages.size()) == opts.num_stages,
                "stage list does not match opts.num_stages");
  int devices = 0;
  for (const StagePlan& s : stages) {
    DPIPE_REQUIRE(s.replicas >= 1 &&
                      static_cast<int>(s.device_ranks.size()) == s.replicas,
                  "stage replica list inconsistent");
    devices += s.replicas;
  }
  DPIPE_REQUIRE(devices == opts.group_size,
                "stages do not cover the pipeline group");
}

}  // namespace dpipe::builder_detail
