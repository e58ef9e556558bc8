// One program, two backends: the functional runtime and the discrete-event
// engine both interpret the trainer's builder-generated InstructionProgram.
// These tests pin the contract: identical per-device op order on both
// back-ends (and in the program's static occupancy trace), and training
// trajectories that match the full-batch reference regardless of which
// ctor supplied the program.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/instr/validate.h"
#include "engine/engine.h"
#include "runtime/dp_trainer.h"
#include "runtime/interpreter.h"
#include "runtime/pipeline_exec.h"

namespace dpipe::rt {
namespace {

float params_diff(const std::vector<Tensor>& a,
                  const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, max_abs_diff(a[i], b[i]));
  }
  return worst;
}

TEST(Parity, RuntimeExecutionMatchesOccupancyTrace) {
  // With and without self-conditioning (its extra forward passes are
  // outside the program), the interpreter's executed op order per device
  // is exactly the program's static occupancy trace.
  for (const bool self_cond : {false, true}) {
    DdpmConfig dcfg;
    dcfg.self_conditioning = self_cond;
    dcfg.self_cond_prob = 0.5;
    const DdpmProblem problem(dcfg);
    PipelineRtConfig cfg;
    cfg.num_stages = 3;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 24;
    cfg.cross_iteration = true;
    cfg.record_execution = true;
    PipelineTrainer trainer(problem, cfg);
    trainer.train(3);
    const auto expected = occupancy_trace(trainer.program(), 3);
    ASSERT_EQ(trainer.execution_log().size(), expected.size());
    for (std::size_t dev = 0; dev < expected.size(); ++dev) {
      ASSERT_GT(expected[dev].size(), 0u);
      EXPECT_EQ(trainer.execution_log()[dev], expected[dev])
          << "device " << dev << " self_cond=" << self_cond;
    }
  }
}

TEST(Parity, SimEngineReplaysTheTrainerProgramInTheSameOrder) {
  // The other half of "one program, two backends": feed the trainer's
  // lowered program to the discrete-event engine and compare its measured
  // timelines (occupying ops only) against the same occupancy trace the
  // runtime matched.
  TrainerLoweringSpec spec;
  spec.num_stages = 3;
  spec.num_microbatches = 4;
  spec.data_parallel_degree = 2;
  spec.global_batch = 24;
  spec.cross_iteration = true;
  spec.num_modules = 9;
  const TrainerLowering l = lower_trainer_program(spec);

  const ClusterSpec cluster = make_p4de_cluster(1);
  const CommModel comm(cluster);
  const ProfileDb db(l.model,
                     AnalyticCostModel(cluster.device, NoiseSource(1, 0.0)),
                     default_batch_grid());
  EngineOptions eopts;
  eopts.iterations = 3;
  eopts.group_batch = 12.0;  // Per-group share of the global batch.
  eopts.data_parallel_degree = 2;
  eopts.record_timelines = true;
  const EngineResult result = ExecutionEngine(db, comm).run(l.program, eopts);

  const auto expected = occupancy_trace(l.program, eopts.iterations);
  const auto engine_log = timeline_op_signatures(result.timelines);
  ASSERT_EQ(engine_log.size(), expected.size());
  for (std::size_t dev = 0; dev < expected.size(); ++dev) {
    EXPECT_EQ(engine_log[dev], expected[dev]) << "device " << dev;
  }
}

TEST(Interpreter, ExternalProgramReproducesSelfLoweredTrajectory) {
  // Handing the trainer the very program it would lower itself (the
  // .dpipe hand-off path) must not perturb the trajectory in any bit.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cfg;
  cfg.num_stages = 3;
  cfg.num_microbatches = 2;
  cfg.data_parallel_degree = 2;
  cfg.global_batch = 24;
  cfg.use_adam = true;
  cfg.lr = 0.01f;

  TrainerLoweringSpec spec;
  spec.num_stages = cfg.num_stages;
  spec.num_microbatches = cfg.num_microbatches;
  spec.data_parallel_degree = cfg.data_parallel_degree;
  spec.global_batch = cfg.global_batch;
  spec.cross_iteration = cfg.cross_iteration;
  spec.num_modules = problem.make_backbone()->size();
  const TrainerLowering l = lower_trainer_program(spec);

  PipelineTrainer self_lowered(problem, cfg);
  PipelineTrainer external(problem, cfg, l.program);
  self_lowered.train(10);
  external.train(10);
  EXPECT_FLOAT_EQ(params_diff(self_lowered.snapshot_params(),
                              external.snapshot_params()),
                  0.0f);
  ASSERT_EQ(self_lowered.losses().size(), external.losses().size());
  for (std::size_t i = 0; i < self_lowered.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(self_lowered.losses()[i], external.losses()[i]);
  }
}

TEST(Interpreter, TrajectoryMatchesFullBatchReference) {
  // Program-driven execution preserves the runtime's core theorem: the
  // pipelined trajectory equals full-batch training, for both optimizers
  // and both frozen-part modes.
  const DdpmProblem problem(DdpmConfig{});
  for (const bool adam : {false, true}) {
    const float lr = adam ? 0.01f : 0.05f;
    ReferenceTrainer ref(problem, 24, lr, adam);
    ref.train(10);
    for (const bool cross : {false, true}) {
      PipelineRtConfig cfg;
      cfg.num_stages = 3;
      cfg.num_microbatches = 2;
      cfg.data_parallel_degree = 2;
      cfg.global_batch = 24;
      cfg.cross_iteration = cross;
      cfg.use_adam = adam;
      cfg.lr = lr;
      PipelineTrainer trainer(problem, cfg);
      trainer.train(10);
      EXPECT_LT(params_diff(ref.snapshot_params(), trainer.snapshot_params()),
                2e-4f)
          << "adam=" << adam << " cross=" << cross;
      EXPECT_FLOAT_EQ(trainer.replica_divergence(), 0.0f);
    }
  }
}

TEST(Interpreter, CrossIterationBitExactWithAdam) {
  // §3.2 equivalence survives both the program-driven rewrite and a
  // stateful optimizer: cross-iteration on/off trajectories are identical
  // bit for bit.
  const DdpmProblem problem(DdpmConfig{});
  PipelineRtConfig cross;
  cross.num_stages = 3;
  cross.num_microbatches = 4;
  cross.global_batch = 16;
  cross.cross_iteration = true;
  cross.use_adam = true;
  cross.lr = 0.01f;
  PipelineRtConfig same = cross;
  same.cross_iteration = false;
  PipelineTrainer a(problem, cross);
  PipelineTrainer b(problem, same);
  a.train(12);
  b.train(12);
  EXPECT_FLOAT_EQ(params_diff(a.snapshot_params(), b.snapshot_params()),
                  0.0f);
  for (std::size_t i = 0; i < a.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.losses()[i], b.losses()[i]);
  }
}

/// Restores the default wave-executor selection on scope exit.
struct WaveExecGuard {
  ~WaveExecGuard() { set_wave_exec(WaveExec::kAuto); }
};

/// Trains `cfg` (on `program` when given, else the trainer's own lowering)
/// once per wave executor and requires bit-identical trajectories and
/// identical per-device execution logs.
void expect_serial_matches_threaded(const DdpmProblem& problem,
                                    const PipelineRtConfig& cfg,
                                    const InstructionProgram* program,
                                    int iterations) {
  const WaveExecGuard guard;
  const auto train = [&](WaveExec exec) {
    set_wave_exec(exec);
    EXPECT_EQ(wave_exec(), exec);
    auto trainer = program != nullptr
                       ? std::make_unique<PipelineTrainer>(problem, cfg,
                                                           *program)
                       : std::make_unique<PipelineTrainer>(problem, cfg);
    trainer->train(iterations);
    return trainer;
  };
  const auto threaded = train(WaveExec::kThreads);
  const auto serial = train(WaveExec::kSerial);
  EXPECT_FLOAT_EQ(params_diff(threaded->snapshot_params(),
                              serial->snapshot_params()),
                  0.0f);
  ASSERT_EQ(threaded->losses().size(), serial->losses().size());
  for (std::size_t i = 0; i < threaded->losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(threaded->losses()[i], serial->losses()[i]);
  }
  EXPECT_EQ(threaded->execution_log(), serial->execution_log());
}

TEST(Interpreter, WaveExecSerialMatchesThreadedBitExact) {
  // The cooperative serial scheduler is a pure scheduling change: with
  // self-conditioning (forward waves), data parallelism (allreduce
  // barriers), Adam, and cross-iteration frozen overlap all active, the
  // serial and threaded executions produce bit-identical trajectories and
  // identical per-device execution logs.
  {
    DdpmConfig dc;
    dc.self_conditioning = true;
    dc.self_cond_prob = 0.5;
    const DdpmProblem problem(dc);
    PipelineRtConfig cfg;
    cfg.num_stages = 3;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 16;
    cfg.cross_iteration = true;
    cfg.use_adam = true;
    cfg.lr = 0.01f;
    cfg.record_execution = true;
    expect_serial_matches_threaded(problem, cfg, nullptr, 8);
  }
  {
    // The wide interleaved shape: hidden 256, two devices each owning two
    // virtual stages, fed through the external-program constructor, with
    // Adam and kernels large enough to fan out over the intra-op pool.
    DdpmConfig dc;
    dc.hidden = 256;
    dc.depth = 6;
    const DdpmProblem problem(dc);
    TrainerLoweringSpec spec;
    spec.num_stages = 2;
    spec.num_microbatches = 4;
    spec.data_parallel_degree = 2;
    spec.global_batch = 256;
    spec.cross_iteration = true;
    spec.num_modules = static_cast<int>(problem.make_backbone()->size());
    spec.family = ScheduleFamily::kInterleaved;
    spec.vstages = 2;
    const TrainerLowering lowering = lower_trainer_program(spec);
    PipelineRtConfig cfg;
    cfg.num_stages = 2;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 256;
    cfg.cross_iteration = true;
    cfg.use_adam = true;
    cfg.lr = 1e-3f;
    cfg.record_execution = true;
    expect_serial_matches_threaded(problem, cfg, &lowering.program, 4);
  }
}

TEST(Interpreter, AutoWaveExecPicksDriverFromTaskWork) {
  // kAuto threads a wave only when its largest task clears the measured
  // crossover and the host has a second hardware thread to run it on.
  const double k = detail::kThreadedWaveMinTaskFlops;
  EXPECT_EQ(detail::select_wave_exec(0.0, 4), WaveExec::kSerial);
  EXPECT_EQ(detail::select_wave_exec(std::nextafter(k, 0.0), 4),
            WaveExec::kSerial);
  EXPECT_EQ(detail::select_wave_exec(k, 4), WaveExec::kThreads);
  EXPECT_EQ(detail::select_wave_exec(1e12, 2), WaveExec::kThreads);
  // hardware_concurrency() reports 0 when it cannot tell.
  for (const unsigned width : {0u, 1u}) {
    EXPECT_EQ(detail::select_wave_exec(1e12, width), WaveExec::kSerial)
        << width;
  }
  EXPECT_EQ(wave_exec(), WaveExec::kAuto);  // No override by default.
}

TEST(Interpreter, RejectsCorruptedPrograms) {
  const DdpmProblem problem(DdpmConfig{});
  TrainerLoweringSpec spec;
  spec.num_stages = 2;
  spec.num_microbatches = 2;
  spec.global_batch = 8;
  spec.num_modules = problem.make_backbone()->size();
  const TrainerLowering l = lower_trainer_program(spec);
  PipelineRtConfig cfg;
  cfg.global_batch = 8;

  {
    // Dropping a device's optimizer step fails validation outright.
    InstructionProgram bad = l.program;
    for (std::vector<Instruction>& stream : bad.per_device) {
      stream.erase(std::remove_if(stream.begin(), stream.end(),
                                  [](const Instruction& i) {
                                    return i.kind ==
                                           InstrKind::kOptimizerStep;
                                  }),
                   stream.end());
      break;
    }
    EXPECT_THROW(PipelineTrainer(problem, cfg, bad), std::invalid_argument);
  }
  {
    // Swapping two devices' streams without re-pointing their peers turns
    // every boundary transfer into a self-send/self-receive mismatch.
    InstructionProgram bad = l.program;
    std::swap(bad.per_device[0], bad.per_device[1]);
    EXPECT_THROW(PipelineTrainer(problem, cfg, bad), std::invalid_argument);
  }
}

TEST(Interpreter, BindingMapsStagesOntoDisjointModuleRanges) {
  const DdpmProblem problem(DdpmConfig{});
  const int num_modules = problem.make_backbone()->size();
  TrainerLoweringSpec spec;
  spec.num_stages = 3;
  spec.num_microbatches = 2;
  spec.global_batch = 12;
  spec.num_modules = num_modules;
  const TrainerLowering l = lower_trainer_program(spec);
  ProgramBinding::Options opts;
  opts.num_modules = num_modules;
  opts.rows_per_replica = 12;
  const ProgramBinding binding(l.program, opts);
  ASSERT_EQ(binding.num_stages(), 3);
  EXPECT_EQ(binding.module_begin(0), 0);
  EXPECT_EQ(binding.module_end(binding.num_stages() - 1), num_modules);
  for (int s = 0; s < binding.num_stages(); ++s) {
    EXPECT_LT(binding.module_begin(s), binding.module_end(s)) << "stage " << s;
    if (s > 0) {
      EXPECT_EQ(binding.module_begin(s), binding.module_end(s - 1));
    }
    const std::vector<int>& owned =
        binding.stages_of_device(binding.device_of_stage(s));
    EXPECT_EQ(owned[binding.slot_of_stage(s)], s);
  }
  // Frozen preamble slots, across all devices of the group, tile the
  // replica's rows exactly once.
  int covered = 0;
  for (const std::vector<ProgramBinding::FrozenSlot>& slots :
       binding.preamble_frozen()) {
    for (const ProgramBinding::FrozenSlot& slot : slots) {
      EXPECT_TRUE(slot.produces_cond);
      covered += slot.rows.rows();
    }
  }
  EXPECT_EQ(covered, binding.rows_per_replica());
}

}  // namespace
}  // namespace dpipe::rt
