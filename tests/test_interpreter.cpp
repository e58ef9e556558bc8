// One program, two backends: the functional runtime and the discrete-event
// engine both interpret the trainer's builder-generated InstructionProgram.
// These tests pin the contract: identical per-device op order on both
// back-ends (and in the program's static occupancy trace), and training
// trajectories that match the full-batch reference regardless of which
// ctor supplied the program.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/instr/validate.h"
#include "engine/engine.h"
#include "runtime/dp_trainer.h"
#include "runtime/interpreter.h"
#include "runtime/kernels.h"
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

/// Restores the default wave-executor selection and process pool width on
/// scope exit.
struct WaveExecGuard {
  ~WaveExecGuard() {
    set_wave_exec(WaveExec::kAuto);
    set_pool_width(0);
  }
};

/// Builds a trainer for `cfg` (on `program` when given, else the trainer's
/// own lowering).
std::unique_ptr<PipelineTrainer> make_trainer(
    const DdpmProblem& problem, const PipelineRtConfig& cfg,
    const InstructionProgram* program) {
  return program != nullptr
             ? std::make_unique<PipelineTrainer>(problem, cfg, *program)
             : std::make_unique<PipelineTrainer>(problem, cfg);
}

/// Requires bit-identical trajectories and identical per-device execution
/// logs from two trainers.
void expect_same_run(const PipelineTrainer& a, const PipelineTrainer& b) {
  EXPECT_FLOAT_EQ(params_diff(a.snapshot_params(), b.snapshot_params()),
                  0.0f);
  ASSERT_EQ(a.losses().size(), b.losses().size());
  for (std::size_t i = 0; i < a.losses().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.losses()[i], b.losses()[i]) << i;
  }
  EXPECT_EQ(a.execution_log(), b.execution_log());
}

/// Trains `cfg` once on the serial driver and once on the pooled driver
/// for every wave width W in {1, 2, 4, num_tasks} (pinned through the
/// process pool width) and requires every run to match the serial one.
void expect_every_width_matches_serial(const DdpmProblem& problem,
                                       const PipelineRtConfig& cfg,
                                       const InstructionProgram* program,
                                       int iterations, int num_tasks) {
  const WaveExecGuard guard;
  const auto train = [&](WaveExec exec, int pool_width) {
    set_pool_width(pool_width);
    set_wave_exec(exec);
    EXPECT_EQ(wave_exec(), exec);
    auto trainer = make_trainer(problem, cfg, program);
    trainer->train(iterations);
    return trainer;
  };
  const auto serial = train(WaveExec::kSerial, 0);
  for (const int width : {1, 2, 4, num_tasks}) {
    SCOPED_TRACE("W=" + std::to_string(width));
    const auto pooled = train(WaveExec::kThreads, width);
    expect_same_run(*serial, *pooled);
  }
}

/// The wide interleaved shape of the benchmark's train_wide: hidden 256,
/// two devices each owning two virtual stages, two replicas (four train
/// tasks), Adam, fed through the external-program constructor, with waves
/// far above the pooled driver's work threshold.
struct WideProgram {
  DdpmProblem problem;
  TrainerLowering lowering;
  PipelineRtConfig cfg;
  static constexpr int kTasks = 4;  ///< Replicas x devices.

  WideProgram() : problem(wide_config()) {
    TrainerLoweringSpec spec;
    spec.num_stages = 2;
    spec.num_microbatches = 4;
    spec.data_parallel_degree = 2;
    spec.global_batch = 256;
    spec.cross_iteration = true;
    spec.num_modules = static_cast<int>(problem.make_backbone()->size());
    spec.family = ScheduleFamily::kInterleaved;
    spec.vstages = 2;
    lowering = lower_trainer_program(spec);
    cfg.num_stages = 2;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 256;
    cfg.cross_iteration = true;
    cfg.use_adam = true;
    cfg.lr = 1e-3f;
    cfg.record_execution = true;
  }

  [[nodiscard]] std::unique_ptr<PipelineTrainer> trainer(
      const PipelineRtConfig& config) const {
    return make_trainer(problem, config, &lowering.program);
  }

 private:
  static DdpmConfig wide_config() {
    DdpmConfig dc;
    dc.hidden = 256;
    dc.depth = 6;
    return dc;
  }
};

TEST(Interpreter, WaveExecSerialMatchesThreadedBitExact) {
  // The wave driver is a pure scheduling change: with self-conditioning
  // (forward waves), data parallelism (allreduce barriers), Adam, and
  // cross-iteration frozen overlap all active, the serial driver and the
  // pooled driver at every width produce bit-identical trajectories and
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
    expect_every_width_matches_serial(problem, cfg, nullptr, 8,
                                      /*num_tasks=*/6);
  }
  {
    // Cross-iteration off: the preamble runs as its own wave every
    // iteration, next to the self-conditioning wave of both replicas.
    DdpmConfig dc;
    dc.self_conditioning = true;
    dc.self_cond_prob = 0.5;
    const DdpmProblem problem(dc);
    PipelineRtConfig cfg;
    cfg.num_stages = 3;
    cfg.num_microbatches = 4;
    cfg.data_parallel_degree = 2;
    cfg.global_batch = 16;
    cfg.cross_iteration = false;
    cfg.lr = 0.01f;
    cfg.record_execution = true;
    expect_every_width_matches_serial(problem, cfg, nullptr, 8,
                                      /*num_tasks=*/6);
  }
  {
    const WideProgram wide;
    expect_every_width_matches_serial(wide.problem, wide.cfg,
                                      &wide.lowering.program, 4,
                                      WideProgram::kTasks);
  }
}

TEST(Interpreter, PooledWaveFallsBackInlineWhenPoolBusy) {
  // Another thread holds a process-pool batch for the whole run, so the
  // pooled wave cannot get the pool: its worker 0 must finish every task
  // inline on the caller, bit-identical to the serial driver.
  const WideProgram wide;
  const WaveExecGuard guard;
  set_pool_width(4);
  set_wave_exec(WaveExec::kSerial);
  const auto serial = wide.trainer(wide.cfg);
  serial->train(3);

  set_wave_exec(WaveExec::kThreads);
  auto pooled = wide.trainer(wide.cfg);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    parallel_for(2, [&](std::size_t worker) {
      if (worker == 0) {
        held.store(true);
        while (!release.load()) {
          std::this_thread::yield();
        }
      }
    });
  });
  while (!held.load()) {
    std::this_thread::yield();
  }
  pooled->train(3);  // Completes while the pool is still held.
  release.store(true);
  holder.join();
  expect_same_run(*serial, *pooled);
}

TEST(Interpreter, PooledWaveCreatesNoThreads) {
  // The pooled driver runs on the process pool's persistent workers: the
  // process's thread count never rises while a pooled trainer runs.
  namespace fs = std::filesystem;
  const fs::path tasks_dir = "/proc/self/task";
  std::error_code ec;
  if (!fs::is_directory(tasks_dir, ec)) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  const auto count_threads = [&] {
    return static_cast<int>(std::distance(fs::directory_iterator(tasks_dir),
                                          fs::directory_iterator()));
  };
  const WideProgram wide;
  const WaveExecGuard guard;
  set_pool_width(4);
  set_wave_exec(WaveExec::kThreads);
  auto trainer = wide.trainer(wide.cfg);
  trainer->train(1);  // Warm-up: the pool exists from here on.
  const int before = count_threads();
  std::atomic<bool> stop{false};
  std::atomic<int> most{0};
  std::thread monitor([&] {
    do {  // Samples at least once, however late the monitor starts.
      most.store(std::max(most.load(), count_threads()));
      std::this_thread::yield();
    } while (!stop.load());
  });
  trainer->train(4);
  stop.store(true);
  monitor.join();
  EXPECT_EQ(most.load(), before + 1);  // + the monitor itself.
  EXPECT_EQ(count_threads(), before);
}

TEST(PipelineTrainer, PooledWaveFailureUnwindsAndRestoresBitExactly) {
  // A stage failure inside a pooled wave (W = 4) is rethrown, its peers
  // drain out of their pops and barriers, the trainer is poisoned, and
  // restoring the last checkpoint resumes the uninterrupted trajectory
  // bit for bit.
  const WideProgram wide;
  const WaveExecGuard guard;
  set_pool_width(WideProgram::kTasks);
  set_wave_exec(WaveExec::kThreads);
  const int total_iterations = 6;
  PipelineRtConfig cfg = wide.cfg;
  cfg.record_execution = false;
  cfg.checkpoint_interval = 2;
  PipelineRtConfig doomed = cfg;
  doomed.fault.iteration = 3;
  doomed.fault.stage = 1;
  doomed.fault.micro = 2;
  doomed.fault.replica = 1;

  const auto victim = wide.trainer(doomed);
  EXPECT_THROW(victim->train(total_iterations), StageFailure);
  EXPECT_TRUE(victim->failed());
  EXPECT_EQ(victim->iteration(), 3);
  EXPECT_THROW(victim->train(1), std::invalid_argument);  // Poisoned.
  const TrainerCheckpoint ckpt = victim->last_checkpoint();
  EXPECT_EQ(ckpt.iteration, 2);

  victim->arm_fault(RtFaultInjection{});  // Disarm, then resume.
  victim->restore(ckpt);
  victim->train(total_iterations - ckpt.iteration);
  const auto uninterrupted = wide.trainer(cfg);
  uninterrupted->train(total_iterations);
  expect_same_run(*uninterrupted, *victim);
}

TEST(Interpreter, AutoWaveExecPicksDriverFromTaskWork) {
  // kAuto pools a wave only when its largest task clears the measured
  // crossover and the process pool has a second thread to run it on.
  const double k = detail::kThreadedWaveMinTaskFlops;
  EXPECT_EQ(detail::select_wave_exec(0.0, 4), WaveExec::kSerial);
  EXPECT_EQ(detail::select_wave_exec(std::nextafter(k, 0.0), 4),
            WaveExec::kSerial);
  EXPECT_EQ(detail::select_wave_exec(k, 4), WaveExec::kThreads);
  EXPECT_EQ(detail::select_wave_exec(1e12, 2), WaveExec::kThreads);
  // A one-thread pool (DPIPE_THREADS=1, set_pool_width(1), or a
  // process pinned to one core) has nowhere to run a second worker.
  for (const int width : {0, 1}) {
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
