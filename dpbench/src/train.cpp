// train_small / train_wide: one closed-loop client calling
// PipelineTrainer::train(1) on the real runtime for a fixed wall time, in
// one-second windows that each set up a fresh trainer (problem, lowering,
// construction, warm-up) from the same seed.
//
// train_small is the repository's example trainer
// (examples/equivalence_training.cpp): tiny shapes, so interpreter, channel
// and wave overhead dominate and an executor change shows. train_wide is
// kernel-bound (hidden 256, batch 256, Adam) and runs the interleaved
// placement (S=2 devices x V=2 virtual stages), so a kernel or fan-out
// change shows and an executor change moves it the other way.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/comm_model.h"
#include "engine/engine.h"
#include "profiler/profile_db.h"
#include "runtime/dp_trainer.h"
#include "runtime/kernels.h"
#include "runtime/pipeline_exec.h"
#include "workloads.h"

namespace dpbench {

namespace {

using Clock = std::chrono::steady_clock;
using namespace dpipe;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr int kWarmupIters = 8;    ///< Pool and lazy state warm before timing.
constexpr int kReferenceIters = 8; ///< Losses checked against the reference.
constexpr int kHashIters = 64;     ///< Losses folded into the trajectory hash.

/// The timed part of a run is split into windows of about one second; each
/// window times a freshly set-up trainer, and the run reports medians over
/// its windows so a burst of host noise moves one window only.
int window_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds)));
}

struct TrainShape {
  rt::DdpmConfig ddpm;
  rt::PipelineRtConfig config;
  rt::TrainerLoweringSpec lowering;
};

TrainShape train_shape(const std::string& workload, std::uint64_t seed) {
  TrainShape s;
  s.ddpm.seed = seed;
  s.config.num_microbatches = 4;
  s.config.data_parallel_degree = 2;
  s.config.cross_iteration = true;
  if (workload == "train_small") {
    s.ddpm.self_conditioning = true;
    s.ddpm.self_cond_prob = 0.5;
    s.config.num_stages = 3;
    s.config.global_batch = 32;
    s.config.lr = 0.2f;
    s.lowering.family = ScheduleFamily::k1F1B;
  } else if (workload == "train_wide") {
    s.ddpm.hidden = 256;
    s.ddpm.depth = 6;
    s.config.num_stages = 2;
    s.config.global_batch = 256;
    s.config.use_adam = true;
    s.config.lr = 1e-3f;
    s.lowering.family = ScheduleFamily::kInterleaved;
    s.lowering.vstages = 2;
  } else {
    throw std::invalid_argument("unknown train workload " + workload);
  }
  s.lowering.num_stages = s.config.num_stages;
  s.lowering.num_microbatches = s.config.num_microbatches;
  s.lowering.data_parallel_degree = s.config.data_parallel_degree;
  s.lowering.global_batch = s.config.global_batch;
  s.lowering.cross_iteration = s.config.cross_iteration;
  return s;
}

/// Analytic forward matmul FLOPs of the backbone over `rows` samples.
double backbone_forward_flops(const rt::DdpmProblem& problem, double rows) {
  const rt::DdpmConfig& c = problem.config();
  const double in = problem.input_dim();
  const double h = c.hidden;
  return 2.0 * rows *
         (in * h + (c.depth - 1) * h * h + h * c.data_dim);
}

/// Matmul FLOPs of training iteration `iteration`: forward + backward
/// (input and weight gradients, 2x forward), the self-conditioning
/// forward-only pass when its coin is up, and the frozen encoder's two
/// bias-free layers (cond_raw -> 2c -> c) over the batch.
double iteration_matmul_flops(const rt::DdpmProblem& problem, int batch,
                              int iteration) {
  const rt::DdpmConfig& c = problem.config();
  const double fwd = backbone_forward_flops(problem, batch);
  const double encoder = 2.0 * batch *
                         (c.cond_raw_dim * 2.0 * c.cond_dim +
                          2.0 * c.cond_dim * c.cond_dim);
  return 3.0 * fwd + (problem.self_cond_active(iteration) ? fwd : 0.0) +
         encoder;
}

}  // namespace

void run_train(const RunOptions& opts, Tracer& tracer, Report& report) {
  const TrainShape shape = train_shape(opts.workload, opts.seed);
  const int batch = shape.config.global_batch;
  const int windows = window_count(opts.seconds);
  const double window_ms = opts.seconds * 1e3 / windows;

  std::vector<double> setup_s, window_tp, window_p50, window_p99;
  std::vector<double> first_losses;  ///< The first window's trajectory.
  std::size_t timed = 0;
  double timed_wall_ms = 0.0, flops = 0.0;
  double pool_avoided = 0.0, pool_fresh = 0.0;
  std::uint64_t pool_peak = 0;
  bool finite = true, same_trajectory = true;
  float divergence = 0.0f;
  std::string error;
  rt::TrainerLowering lowering;
  std::unique_ptr<rt::DdpmProblem> problem;
  rt::reset_op_profile();
  for (int w = 0; w < windows && error.empty(); ++w) {
    // Set-up: problem, lowering, trainer construction and warm-up.
    const auto setup_start = Clock::now();
    problem = std::make_unique<rt::DdpmProblem>(shape.ddpm);
    rt::TrainerLoweringSpec spec = shape.lowering;
    spec.num_modules = static_cast<int>(problem->make_backbone()->size());
    {
      const auto span = tracer.span("core.instr.lower", w);
      lowering = rt::lower_trainer_program(spec);
    }
    std::unique_ptr<rt::PipelineTrainer> trainer;
    {
      const auto span = tracer.span("runtime.setup.construct", w);
      trainer = std::make_unique<rt::PipelineTrainer>(
          *problem, shape.config, lowering.program);
    }
    {
      const auto span = tracer.span("runtime.setup.warmup", w);
      trainer->train(kWarmupIters);
    }
    setup_s.push_back(ms_since(setup_start) / 1e3);

    // Timed window: closed-loop train(1) calls.
    const rt::TensorPool::Stats pool_before = trainer->pool_stats();
    rt::set_op_profiling(tracer.enabled());
    std::vector<double> iter_ms;
    const auto window_start = Clock::now();
    while (ms_since(window_start) < window_ms) {
      ++report.attempted;
      const int iteration = trainer->iteration();
      const auto span = tracer.span("train.iteration", iteration);
      const auto start = Clock::now();
      try {
        trainer->train(1);
      } catch (const std::exception& e) {
        ++report.failed;
        error = e.what();
        break;  // The trainer is poisoned until restored; stop the run.
      }
      iter_ms.push_back(ms_since(start));
      if (!std::isfinite(trainer->losses().back())) {
        ++report.failed;
      }
      if (tracer.enabled()) {
        flops += iteration_matmul_flops(*problem, batch, iteration);
      }
    }
    const double wall_ms = ms_since(window_start);
    rt::set_op_profiling(false);
    const rt::TensorPool::Stats pool_after = trainer->pool_stats();
    pool_avoided += pool_after.allocs_avoided - pool_before.allocs_avoided;
    pool_fresh += pool_after.allocs_fresh - pool_before.allocs_fresh;
    pool_peak = pool_after.peak_bytes;
    timed += iter_ms.size();
    timed_wall_ms += wall_ms;
    window_tp.push_back(batch * iter_ms.size() / wall_ms * 1e3);
    window_p50.push_back(quantile(iter_ms, 0.50));
    window_p99.push_back(quantile(iter_ms, 0.99));

    // Every window's trainer restarts from the same seed, so its losses
    // must repeat the first window's bit for bit.
    const std::vector<double>& losses = trainer->losses();
    for (const double l : losses) {
      finite = finite && std::isfinite(l);
    }
    divergence = std::max(divergence, trainer->replica_divergence());
    if (w == 0) {
      first_losses = losses;
    } else {
      const std::size_t n = std::min(losses.size(), first_losses.size());
      same_trajectory =
          same_trajectory && std::memcmp(losses.data(), first_losses.data(),
                                         n * sizeof(double)) == 0;
    }
  }

  // --- Correctness gates ------------------------------------------------
  report.gate("train.no_exception", error.empty(), error);
  report.gate("train.losses_finite", finite);
  report.gate("train.replica_divergence_zero", divergence == 0.0f,
              "max divergence " + std::to_string(divergence));
  report.gate("train.windows_repeat_trajectory", same_trajectory,
              std::to_string(windows) + " trainers from one seed");
  {
    rt::ReferenceTrainer reference(*problem, batch, shape.config.lr,
                                   shape.config.use_adam);
    reference.train(kReferenceIters);
    bool match =
        first_losses.size() >= static_cast<std::size_t>(kReferenceIters);
    double worst = 0.0;
    for (int i = 0; match && i < kReferenceIters; ++i) {
      const double ref = reference.losses()[i];
      const double diff = std::abs(first_losses[i] - ref);
      worst = std::max(worst, diff / std::max(std::abs(ref), 1e-12));
      // Tolerance of Equivalence.LossCurvesMatchReference.
      match = diff <= std::abs(ref) * 1e-4 + 1e-7;
    }
    report.gate("train.matches_reference", match,
                "first " + std::to_string(kReferenceIters) +
                    " losses, worst relative diff " + std::to_string(worst));
  }
  const std::size_t hashed =
      std::min(first_losses.size(), static_cast<std::size_t>(kHashIters));
  report.info["loss_bits_hash"] =
      bits_hash({first_losses.begin(), first_losses.begin() + hashed});
  report.info["loss_bits_hash_iterations"] = std::to_string(hashed);

  // Engine replay of the program the trainer runs, against the ProfileDb
  // lower_trainer_program costs it with (simulated A100s; seed-free).
  const int dp = shape.config.data_parallel_degree;
  EngineResult sim;
  {
    const ClusterSpec cluster =
        make_p4de_cluster((shape.lowering.num_stages * dp + 7) / 8);
    const ProfileDb db(lowering.model,
                       AnalyticCostModel(cluster.device, NoiseSource(1, 0.0)),
                       default_batch_grid());
    EngineOptions eopts;
    eopts.data_parallel_degree = dp;
    eopts.group_batch = static_cast<double>(batch) / dp;
    const auto span = tracer.span("engine.replay");
    sim = ExecutionEngine(db, CommModel(cluster)).run(lowering.program, eopts);
  }
  report.gate("engine.replay_completes",
              std::isfinite(sim.samples_per_second) &&
                  sim.samples_per_second > 0.0);

  // --- End-to-end metrics: medians over the windows ---------------------
  report.metric("train_samples_per_s", quantile(window_tp, 0.5), "samples/s",
                timed);
  report.metric("iter_ms_p50", quantile(window_p50, 0.5), "ms", timed);
  report.metric("iter_ms_p99", quantile(window_p99, 0.5), "ms", timed);
  report.metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  report.metric("sim_samples_per_s_geomean", sim.samples_per_second,
                "samples/s", 1);
  report.metric("sim_bubble_ratio_mean", sim.steady_bubble_ratio, "ratio", 1);
  report.info["windows"] = std::to_string(windows) + " x " +
                           std::to_string(window_ms / 1e3) + " s";
  report.info["program"] =
      std::to_string(lowering.program.group_size) + " devices x " +
      std::to_string(shape.lowering.vstages) + " virtual stages, M=" +
      std::to_string(shape.config.num_microbatches) +
      ", dp=" + std::to_string(dp) + ", batch " + std::to_string(batch);

  if (!tracer.enabled() || timed == 0) {
    return;
  }
  // --- Per-layer metrics (traced run) -----------------------------------
  const rt::RuntimeOpProfile ops = rt::op_profile();
  const double iters = static_cast<double>(timed);
  report.metric("runtime.kernels.matmul_ms_per_iter",
                ops.matmul_ns / 1e6 / iters, "ms", timed);
  report.metric("runtime.kernels.matmul_calls_per_iter",
                ops.matmul_calls / iters, "count", timed);
  report.metric("runtime.kernels.matmul_gflops",
                ops.matmul_ns > 0 ? flops / ops.matmul_ns : 0.0, "GFLOP/s",
                timed);
  report.metric("runtime.eltwise.ms_per_iter", ops.eltwise_ns / 1e6 / iters,
                "ms", timed);
  report.metric("runtime.eltwise.calls_per_iter", ops.eltwise_calls / iters,
                "count", timed);
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  report.metric("runtime.kernel_core_share",
                (ops.matmul_ns + ops.eltwise_ns) /
                    (timed_wall_ms * 1e6 * cores),
                "ratio", timed);
  report.metric("runtime.pool.hit_rate",
                pool_avoided + pool_fresh > 0
                    ? pool_avoided / (pool_avoided + pool_fresh)
                    : 0.0,
                "ratio", timed);
  report.metric("runtime.pool.fresh_allocs_per_iter", pool_fresh / iters,
                "count", timed);
  report.metric("runtime.pool.peak_mb",
                static_cast<double>(pool_peak) / (1 << 20), "MiB", 1);
  const auto span_median = [&](const char* name, const char* metric) {
    const std::vector<double> ms = tracer.self_ms(name);
    report.metric(metric, quantile(ms, 0.5), "ms", ms.size());
  };
  span_median("core.instr.lower", "core.instr.lower_ms");
  span_median("runtime.setup.construct", "runtime.setup.construct_ms");
  span_median("runtime.setup.warmup", "runtime.setup.warmup_ms");
  span_median("engine.replay", "engine.replay_ms");

  // Single-worker full-batch baseline on the same problem, timed for a
  // tenth of the run (at least half a second).
  rt::ReferenceTrainer reference(*problem, batch, shape.config.lr,
                                 shape.config.use_adam);
  reference.train(kWarmupIters);
  std::size_t reference_iters = 0;
  const auto reference_start = Clock::now();
  while (ms_since(reference_start) < std::max(500.0, opts.seconds * 100.0)) {
    const auto span = tracer.span("baseline.reference");
    reference.train(1);
    ++reference_iters;
  }
  report.metric("baseline.reference_samples_per_s",
                batch * static_cast<double>(reference_iters) /
                    ms_since(reference_start) * 1e3,
                "samples/s", reference_iters);
}

}  // namespace dpbench
