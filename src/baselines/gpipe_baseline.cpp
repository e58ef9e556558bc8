#include "baselines/baselines.h"
#include "common/units.h"
#include "core/fill/filler.h"
#include "core/instr/instructions.h"
#include "core/schedule/schedule.h"
#include "engine/memory.h"

namespace dpipe {

BaselineReport run_gpipe_baseline(const ProfileDb& db, const CommModel& comm,
                                  double global_batch,
                                  const PipelineBaselineOptions& opts) {
  const ModelDesc& model = db.model();
  DPIPE_REQUIRE(model.backbone_ids.size() == 1,
                "GPipe does not support pipelining multiple models (§6)");
  const int backbone = model.backbone_ids[0];
  const int L = model.components[backbone].num_layers();
  const int S = opts.num_stages;
  const int D = opts.group_size > 0 ? opts.group_size : S;
  const int world = comm.cluster().world_size();
  DPIPE_REQUIRE(S >= 1 && S <= L, "invalid stage count");
  DPIPE_REQUIRE(D % S == 0 && world % D == 0, "invalid group shape");
  const int dp = world / D;
  const int replicas = D / S;

  PartitionOptions popts;
  popts.num_stages = S;
  popts.num_microbatches = opts.num_microbatches;
  popts.group_size = D;
  popts.data_parallel_degree = dp;
  popts.microbatch_size = global_batch / dp / opts.num_microbatches;
  popts.self_conditioning = model.self_conditioning;
  popts.self_cond_prob = model.self_cond_prob;

  // GPipe's partition rule: equal layer counts per stage.
  std::vector<StagePlan> stages;
  int layer = 0;
  int chain = 0;
  for (int s = 0; s < S; ++s) {
    StagePlan stage;
    stage.layer_begin = layer;
    stage.layer_end = layer + (L - layer) / (S - s);
    stage.replicas = replicas;
    for (int r = 0; r < replicas; ++r) {
      stage.device_ranks.push_back(chain + r);
    }
    layer = stage.layer_end;
    chain += replicas;
    stages.push_back(std::move(stage));
  }

  const ScheduleBuilder builder(db, comm);
  const Schedule schedule = builder.build_gpipe(backbone, stages, popts);
  FillOptions fill_opts;
  fill_opts.training_batch = global_batch / dp;
  fill_opts.enable_fill = false;  // Baselines do not bubble-fill (§6).
  const FillResult fill = BubbleFiller(db).fill(schedule, fill_opts);
  const InstructionProgram program =
      generate_instructions(db, fill.filled_schedule, fill, popts);

  const ExecutionEngine engine(db, comm);
  EngineOptions eopts;
  eopts.iterations = opts.engine_iterations;
  eopts.group_batch = global_batch / dp;
  eopts.data_parallel_degree = dp;
  eopts.actual_noise_seed = opts.actual_noise_seed;
  const EngineResult result = engine.run(program, eopts);

  BaselineReport report;
  report.name = "GPipe";
  report.iteration_ms = result.steady_iteration_ms;
  report.samples_per_second = result.samples_per_second;
  report.bubble_ratio = result.steady_bubble_ratio;
  const MemoryReport memory =
      estimate_pipeline_memory(db, schedule, popts, /*gpipe_style=*/true);
  report.peak_memory_gb = memory.peak_gb;
  report.memory_feasible = memory.fits(comm.cluster().device.memory_gb);
  return report;
}

}  // namespace dpipe
