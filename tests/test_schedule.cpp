#include <gtest/gtest.h>

#include "core/partition/bidirectional.h"
#include "core/schedule/schedule.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

struct Fixture {
  ModelDesc model;
  ClusterSpec cluster;
  CommModel comm;
  ProfileDb db;
  DpPartitioner partitioner;
  ScheduleBuilder builder;

  explicit Fixture(ModelDesc m, int machines = 1)
      : model(std::move(m)),
        cluster(make_p4de_cluster(machines)),
        comm(cluster),
        db(model, AnalyticCostModel(cluster.device, NoiseSource(0, 0.0)),
           default_batch_grid()),
        partitioner(db, comm),
        builder(db, comm) {}
};

PartitionOptions basic_options(int stages, int micro, int group) {
  PartitionOptions opts;
  opts.num_stages = stages;
  opts.num_microbatches = micro;
  opts.group_size = group;
  opts.microbatch_size = 8.0;
  return opts;
}

/// Feasibility invariants every schedule must satisfy.
void expect_valid_schedule(const Schedule& schedule) {
  ASSERT_EQ(static_cast<int>(schedule.devices.size()), schedule.group_size);
  for (const DeviceTimeline& device : schedule.devices) {
    double cursor = 0.0;
    for (const PipelineOp& op : device.ops) {
      EXPECT_GE(op.start_ms, cursor - 1e-9)
          << "overlapping ops on one device";
      EXPECT_GE(op.duration_ms(), 0.0);
      EXPECT_LE(op.end_ms, schedule.makespan_ms + 1e-9);
      cursor = op.end_ms;
    }
  }
}

/// Micro-batch dependencies: fwd(s,m) after fwd(s-1,m); bwd(s,m) after
/// bwd(s+1,m) and after fwd(s,m).
void expect_pipeline_deps(const Schedule& schedule, int backbone) {
  const int S = schedule.num_stages;
  const int M = schedule.num_microbatches;
  std::vector<std::vector<Span>> fwd(S, std::vector<Span>(M));
  std::vector<std::vector<Span>> bwd(S, std::vector<Span>(M));
  for (const DeviceTimeline& device : schedule.devices) {
    for (const PipelineOp& op : device.ops) {
      if (op.backbone != backbone) {
        continue;
      }
      if (op.kind == OpKind::kForward) {
        fwd[op.stage][op.micro] = {op.start_ms, op.end_ms};
      } else if (op.kind == OpKind::kBackward) {
        bwd[op.stage][op.micro] = {op.start_ms, op.end_ms};
      }
    }
  }
  for (int m = 0; m < M; ++m) {
    for (int s = 1; s < S; ++s) {
      EXPECT_GE(fwd[s][m].start, fwd[s - 1][m].end - 1e-9)
          << "fwd dep violated at stage " << s << " micro " << m;
    }
    for (int s = 0; s < S; ++s) {
      EXPECT_GE(bwd[s][m].start, fwd[s][m].end - 1e-9);
      if (s < S - 1) {
        EXPECT_GE(bwd[s][m].start, bwd[s + 1][m].end - 1e-9);
      }
    }
  }
}

TEST(Schedule1F1B, UniformModelMatchesClassicShape) {
  const Fixture f(make_uniform_model(8, 93.6, 0.0));
  PartitionOptions opts = basic_options(4, 4, 4);
  opts.microbatch_size = 1.0;
  const PartitionResult part = f.partitioner.partition_single(0, opts);
  const Schedule schedule = f.builder.build_1f1b(0, part.stages, opts);
  expect_valid_schedule(schedule);
  expect_pipeline_deps(schedule, 0);
  // Uniform stages: per-stage fwd = 2 ms, bwd = 4 ms (2 layers x 1 GFLOP/ms
  // fwd, bwd = 2x). Critical path of 1F1B = (M + S - 1) fwd+bwd-ish; the
  // exact value isn't pinned, but the makespan must be at least the lower
  // bound M*(f+b) + (S-1)*(f+b) and at most the GPipe-style upper bound.
  const double fb = 6.0;
  EXPECT_GE(schedule.compute_makespan_ms, (4 + 4 - 1) * fb - 1e-6);
  EXPECT_LE(schedule.compute_makespan_ms, (4 + 2 * 4 - 2) * fb + 1.0);
}

TEST(Schedule1F1B, MakespanWithinPartitionerUpperBound) {
  // Property (paper Eqn 1): the simulated schedule never exceeds the DP's
  // upper bound (noiseless profile, so no jitter slack needed).
  for (const unsigned seed : {3u, 7u, 9u}) {
    const Fixture f(make_synthetic_model(12, 0, seed));
    for (const int stages : {2, 4}) {
      PartitionOptions opts = basic_options(stages, 4, 4);
      const PartitionResult part = f.partitioner.partition_single(0, opts);
      const Schedule schedule = f.builder.build_1f1b(0, part.stages, opts);
      expect_valid_schedule(schedule);
      EXPECT_LE(schedule.makespan_ms, part.upper_bound_ms * 1.001)
          << "seed " << seed << " stages " << stages;
    }
  }
}

TEST(Schedule1F1B, BubblesExistAndShrinkWithMoreMicrobatches) {
  const Fixture f(make_stable_diffusion_v21());
  PartitionOptions opts4 = basic_options(4, 4, 8);
  opts4.self_conditioning = false;
  const PartitionResult part = f.partitioner.partition_single(2, opts4);
  const Schedule s4 = f.builder.build_1f1b(2, part.stages, opts4);
  PartitionOptions opts16 = basic_options(4, 16, 8);
  opts16.self_conditioning = false;
  const PartitionResult part16 = f.partitioner.partition_single(2, opts16);
  const Schedule s16 = f.builder.build_1f1b(2, part16.stages, opts16);
  const double r4 = bubble_ratio(s4, extract_bubbles(s4));
  const double r16 = bubble_ratio(s16, extract_bubbles(s16));
  EXPECT_GT(r4, 0.10);
  EXPECT_LT(r16, r4);
}

TEST(Schedule1F1B, SelfConditioningExtendsMakespan) {
  const Fixture f(make_stable_diffusion_v21());
  PartitionOptions opts = basic_options(4, 4, 8);
  opts.self_conditioning = false;
  const PartitionResult part = f.partitioner.partition_single(2, opts);
  const double plain =
      f.builder.build_1f1b(2, part.stages, opts).makespan_ms;
  opts.self_conditioning = true;
  const double sc = f.builder.build_1f1b(2, part.stages, opts).makespan_ms;
  EXPECT_GT(sc, plain * 1.1);
}

TEST(ScheduleGPipe, HasLargerBubblesThan1F1B) {
  const Fixture f(make_stable_diffusion_v21());
  PartitionOptions opts = basic_options(2, 4, 8);
  opts.self_conditioning = false;
  const PartitionResult part = f.partitioner.partition_single(2, opts);
  const Schedule s_1f1b = f.builder.build_1f1b(2, part.stages, opts);
  const Schedule s_gpipe = f.builder.build_gpipe(2, part.stages, opts);
  expect_valid_schedule(s_gpipe);
  expect_pipeline_deps(s_gpipe, 0);
  // GPipe holds all M activations and flushes; its makespan is >= 1F1B's
  // under identical stage times.
  EXPECT_GE(s_gpipe.makespan_ms, s_1f1b.makespan_ms - 1e-6);
}

TEST(ScheduleGPipe, ForwardsPrecedeBackwardsPerStage) {
  const Fixture f(make_uniform_model(8, 50.0, 0.0));
  const PartitionOptions opts = basic_options(4, 4, 4);
  const PartitionResult part = f.partitioner.partition_single(0, opts);
  const Schedule schedule = f.builder.build_gpipe(0, part.stages, opts);
  for (const DeviceTimeline& device : schedule.devices) {
    double last_fwd_end = 0.0;
    double first_bwd_start = schedule.makespan_ms;
    for (const PipelineOp& op : device.ops) {
      if (op.kind == OpKind::kForward) {
        last_fwd_end = std::max(last_fwd_end, op.end_ms);
      } else if (op.kind == OpKind::kBackward) {
        first_bwd_start = std::min(first_bwd_start, op.start_ms);
      }
    }
    EXPECT_GE(first_bwd_start, last_fwd_end - 1e-9);
  }
}

TEST(ScheduleBubbles, RespectMinimumLength) {
  const Fixture f(make_stable_diffusion_v21());
  PartitionOptions opts = basic_options(4, 4, 8);
  const PartitionResult part = f.partitioner.partition_single(2, opts);
  const Schedule schedule = f.builder.build_1f1b(2, part.stages, opts);
  for (const Bubble& b : extract_bubbles(schedule, 10.0)) {
    EXPECT_GE(b.length_ms(), 10.0);
    EXPECT_FALSE(b.devices.empty());
  }
  // A smaller threshold can only find more bubbles.
  EXPECT_GE(extract_bubbles(schedule, 1.0).size(),
            extract_bubbles(schedule, 10.0).size());
}

TEST(ScheduleBubbles, ChronologicalAndWithinMakespan) {
  const Fixture f(make_controlnet_v10());
  PartitionOptions opts = basic_options(2, 4, 8);
  const PartitionResult part = f.partitioner.partition_single(4, opts);
  const Schedule schedule = f.builder.build_1f1b(4, part.stages, opts);
  double prev = 0.0;
  for (const Bubble& b : extract_bubbles(schedule)) {
    EXPECT_GE(b.span.start, prev - 1e-9);
    EXPECT_LE(b.span.end, schedule.makespan_ms + 1e-9);
    prev = b.span.start;
  }
}

/// Exact equality of two schedules' compute and link ops.
void expect_same_ops(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    ASSERT_EQ(a.devices[d].ops.size(), b.devices[d].ops.size());
    for (std::size_t i = 0; i < a.devices[d].ops.size(); ++i) {
      const PipelineOp& x = a.devices[d].ops[i];
      const PipelineOp& y = b.devices[d].ops[i];
      EXPECT_TRUE(x.kind == y.kind && x.backbone == y.backbone &&
                  x.stage == y.stage && x.micro == y.micro &&
                  x.start_ms == y.start_ms && x.end_ms == y.end_ms)
          << "device " << d << " op " << i;
    }
  }
  ASSERT_EQ(a.link_ops.size(), b.link_ops.size());
  for (std::size_t i = 0; i < a.link_ops.size(); ++i) {
    EXPECT_EQ(a.link_ops[i].start_ms, b.link_ops[i].start_ms);
    EXPECT_EQ(a.link_ops[i].end_ms, b.link_ops[i].end_ms);
  }
}

TEST(ScheduleBidirectional, ValidAndCoversBothBackbones) {
  const Fixture f(make_cdm_lsun());
  const PartitionOptions opts = basic_options(4, 4, 8);
  const BiPartitionResult part =
      partition_bidirectional(f.partitioner, 1, 2, opts);
  const Schedule schedule = f.builder.build_bidirectional(
      1, part.down_stages, 2, part.up_stages, opts);
  expect_valid_schedule(schedule);
  expect_pipeline_deps(schedule, 0);
  // Up backbone deps: stage s's fwd after stage s-1's fwd, with up stages
  // mapped to mirrored devices; the generic checker works per backbone id.
  expect_pipeline_deps(schedule, 1);
  // Every chain slot must host compute from both backbones.
  for (const DeviceTimeline& device : schedule.devices) {
    bool has_down = false;
    bool has_up = false;
    for (const PipelineOp& op : device.ops) {
      has_down |= op.backbone == 0;
      has_up |= op.backbone == 1;
    }
    EXPECT_TRUE(has_down && has_up);
  }
  // The builder prices the chain under bidirectional_options, as the DP
  // does, so a caller's own competition factor cannot make the schedule
  // disagree with the partition it was given.
  PartitionOptions factor3 = opts;
  factor3.comm_competition_factor = 3.0;
  expect_same_ops(schedule, f.builder.build_bidirectional(
                                1, part.down_stages, 2, part.up_stages,
                                factor3));
}

TEST(ScheduleBidirectional, BeatsSequentialUnidirectional) {
  // Training two backbones bidirectionally on D devices should beat running
  // their two 1F1B pipelines one after the other on the same devices.
  const Fixture f(make_cdm_lsun());
  const PartitionOptions opts = basic_options(4, 4, 8);
  const BiPartitionResult bi =
      partition_bidirectional(f.partitioner, 1, 2, opts);
  const Schedule bidir = f.builder.build_bidirectional(
      1, bi.down_stages, 2, bi.up_stages, opts);
  const PartitionResult p1 = f.partitioner.partition_single(1, opts);
  const PartitionResult p2 = f.partitioner.partition_single(2, opts);
  const double sequential =
      f.builder.build_1f1b(1, p1.stages, opts).makespan_ms +
      f.builder.build_1f1b(2, p2.stages, opts).makespan_ms;
  EXPECT_LT(bidir.makespan_ms, sequential);
}

TEST(ScheduleBidirectional, LowerBubbleRatioThanSequentialPipelines) {
  // The paper's motivation for bidirectional CDM training: interleaving the
  // two backbones' pipelines on the same devices fills each direction's
  // bubbles with the other's micro-batches. Compare against running the two
  // 1F1B pipelines back-to-back on the same devices.
  const Fixture f(make_cdm_lsun());
  const PartitionOptions opts = basic_options(4, 4, 8);
  const BiPartitionResult bi =
      partition_bidirectional(f.partitioner, 1, 2, opts);
  const Schedule bidir = f.builder.build_bidirectional(
      1, bi.down_stages, 2, bi.up_stages, opts);
  const PartitionResult p1 = f.partitioner.partition_single(1, opts);
  const PartitionResult p2 = f.partitioner.partition_single(2, opts);
  const Schedule uni1 = f.builder.build_1f1b(1, p1.stages, opts);
  const Schedule uni2 = f.builder.build_1f1b(2, p2.stages, opts);
  // Sequential combination: idle device-time adds, horizon adds.
  const double idle1 = bubble_ratio(uni1, extract_bubbles(uni1)) *
                       uni1.makespan_ms;
  const double idle2 = bubble_ratio(uni2, extract_bubbles(uni2)) *
                       uni2.makespan_ms;
  const double sequential_ratio =
      (idle1 + idle2) / (uni1.makespan_ms + uni2.makespan_ms);
  EXPECT_LT(bubble_ratio(bidir, extract_bubbles(bidir)), sequential_ratio);
}

TEST(ScheduleBuilder, RejectsInconsistentStages) {
  const Fixture f(make_uniform_model(8, 50.0, 0.0));
  const PartitionOptions opts = basic_options(4, 4, 4);
  const PartitionResult part = f.partitioner.partition_single(0, opts);
  PartitionOptions wrong = opts;
  wrong.num_stages = 2;
  EXPECT_THROW((void)f.builder.build_1f1b(0, part.stages, wrong),
               std::invalid_argument);
}

TEST(ScheduleMetrics, BubbleRatioBounds) {
  const Fixture f(make_stable_diffusion_v21());
  for (const int stages : {2, 4, 8}) {
    PartitionOptions opts = basic_options(stages, 4, 8);
    const PartitionResult part = f.partitioner.partition_single(2, opts);
    const Schedule schedule = f.builder.build_1f1b(2, part.stages, opts);
    const double ratio = bubble_ratio(schedule, extract_bubbles(schedule));
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
}

}  // namespace
}  // namespace dpipe
