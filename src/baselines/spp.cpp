#include "baselines/baselines.h"
#include "core/planner/planner.h"
#include "engine/memory.h"

namespace dpipe {

BaselineReport run_spp_baseline(const ProfileDb& db, const CommModel& comm,
                                double global_batch,
                                const PipelineBaselineOptions& opts) {
  const ModelDesc& model = db.model();
  DPIPE_REQUIRE(model.backbone_ids.size() == 1,
                "SPP does not support pipelining multiple models (§6)");

  // SPP = DP-optimized partitioning + FIFO-1F1B with the same
  // hyper-parameter search as DiffusionPipe, but without bubble filling:
  // the planner's fill-ablation mode is exactly that configuration.
  PlannerOptions popts;
  popts.global_batch = global_batch;
  popts.enable_fill = false;
  const Planner planner(model, comm.cluster(), popts);
  const Plan plan = planner.plan();

  const ExecutionEngine engine(planner.db(), comm);
  EngineOptions eopts;
  eopts.iterations = opts.engine_iterations;
  eopts.group_batch = global_batch / plan.config.data_parallel_degree;
  eopts.data_parallel_degree = plan.config.data_parallel_degree;
  eopts.actual_noise_seed = opts.actual_noise_seed;
  const EngineResult result = engine.run(plan.program, eopts);

  BaselineReport report;
  report.name = "SPP";
  report.iteration_ms = result.steady_iteration_ms;
  report.samples_per_second = result.samples_per_second;
  report.bubble_ratio = result.steady_bubble_ratio;
  const MemoryReport memory = estimate_pipeline_memory(
      planner.db(), plan.fill.filled_schedule, plan.partition_opts);
  report.peak_memory_gb = memory.peak_gb;
  report.memory_feasible = memory.fits(comm.cluster().device.memory_gb);
  return report;
}

}  // namespace dpipe
