// Schedule-family comparison: 1F1B vs GPipe vs interleaved (V virtual
// stages per device) on the same partitioned pipeline, measured by the
// discrete-event engine. One row per (point, family): planned bubble
// ratio, engine-measured steady bubble ratio and iteration time, and the
// host-side replay cost of the engine. Bubble filling is disabled so the
// rows isolate the schedule shape itself — the interleaved rows should
// show the warm-up/cool-down bubble shrinking roughly as 1/V.
//
// Prints a table and writes BENCH_schedule.json as {provenance, rows} (pass
// an output path as argv[1] to override). Timing idiom
// (bench_runtime_kernels): build each program once, one untimed warm-up
// replay, then an averaged timed loop.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fill/filler.h"
#include "core/instr/instructions.h"
#include "core/partition/partitioner.h"

namespace {

using namespace dpipe;

struct FamilyCase {
  std::string family;  ///< "1f1b" | "gpipe" | "interleaved".
  int vstages = 1;
};

struct Point {
  std::string name;
  int devices = 0;  ///< D (= physical pipeline depth).
  int micros = 0;   ///< M.
  double group_batch = 0.0;
  int dp = 1;
};

struct Row {
  std::string point;
  std::string family;
  int vstages = 1;
  double planned_bubble = 0.0;
  double engine_bubble = 0.0;
  double iteration_ms = 0.0;
  double samples_per_second = 0.0;
  double replay_host_ms = 0.0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds one family's program over the shared testbed: partition the
/// backbone (over the S*V-position virtual chain for interleaved), build
/// the schedule, generate instructions. Returns the planned bubble ratio
/// alongside the program.
struct Built {
  InstructionProgram program;
  double planned_bubble = 0.0;
};

Built build_program(const bench::Testbed& t, const Point& p,
                    const FamilyCase& f) {
  const int backbone = t.model.backbone_ids[0];
  const int St = p.devices * f.vstages;
  PartitionOptions opts;
  opts.num_stages = St;
  opts.num_microbatches = p.micros;
  opts.group_size = p.devices;
  opts.data_parallel_degree = p.dp;
  opts.microbatch_size = p.group_batch / p.micros;

  const DpPartitioner partitioner(t.db, t.comm);
  const ScheduleBuilder builder(t.db, t.comm);
  Schedule schedule;
  if (f.family == "interleaved" && f.vstages > 1) {
    PartitionOptions chain_opts = opts;
    chain_opts.group_size = St;
    chain_opts.device_ranks.resize(St);
    for (int s = 0; s < St; ++s) {
      chain_opts.device_ranks[s] = s % p.devices;
    }
    chain_opts.dp_rank_stride = p.devices;
    const PartitionResult part =
        partitioner.partition_single(backbone, chain_opts);
    std::vector<StagePlan> stages = part.stages;
    for (int s = 0; s < St; ++s) {
      stages[s].device_ranks = {s % p.devices};
    }
    schedule = builder.build_interleaved(backbone, stages, opts);
  } else {
    const PartitionResult part = partitioner.partition_single(backbone, opts);
    schedule = f.family == "gpipe"
                   ? builder.build_gpipe(backbone, part.stages, opts)
                   : builder.build_1f1b(backbone, part.stages, opts);
  }

  FillOptions fill_opts;
  fill_opts.training_batch = p.group_batch;
  fill_opts.enable_fill = false;  // Isolate the schedule shape.
  const FillResult fill = BubbleFiller(t.db).fill(schedule, fill_opts);
  Built built;
  built.planned_bubble = bubble_ratio(fill.filled_schedule,
                                      extract_bubbles(fill.filled_schedule));
  built.program =
      generate_instructions(t.db, fill.filled_schedule, fill, opts);
  return built;
}

Row run_family(const bench::Testbed& t, const Point& p,
               const FamilyCase& f) {
  const Built built = build_program(t, p, f);
  const ExecutionEngine engine(t.db, t.comm);
  EngineOptions eopts;
  eopts.iterations = 4;
  eopts.group_batch = p.group_batch;
  eopts.data_parallel_degree = p.dp;

  EngineResult result = engine.run(built.program, eopts);  // Warm-up.
  const int reps = 5;
  const double start = now_ms();
  for (int r = 0; r < reps; ++r) {
    result = engine.run(built.program, eopts);
  }
  const double host_ms = (now_ms() - start) / reps;

  Row row;
  row.point = p.name;
  row.family = f.family;
  row.vstages = f.vstages;
  row.planned_bubble = built.planned_bubble;
  row.engine_bubble = result.steady_bubble_ratio;
  row.iteration_ms = result.steady_iteration_ms;
  row.samples_per_second = result.samples_per_second;
  row.replay_host_ms = host_ms;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_schedule.json");

  const bench::Testbed testbed(make_stable_diffusion_v21(), 1);
  std::vector<Point> points;
  points.push_back({"sd21_D4_M4", 4, 4, 128.0, 2});
  points.push_back({"sd21_D4_M8", 4, 8, 128.0, 2});
  points.push_back({"sd21_D8_M8", 8, 8, 256.0, 1});
  const std::vector<FamilyCase> families = {
      {"1f1b", 1}, {"gpipe", 1}, {"interleaved", 2}, {"interleaved", 3}};

  bench::header("Schedule families: 1F1B vs GPipe vs interleaved");
  std::printf("%-12s %-12s %3s %9s %9s %8s %10s %9s\n", "point", "family",
              "V", "plan_bub", "eng_bub", "iter_ms", "samples/s", "host_ms");

  std::vector<Row> rows;
  for (const Point& p : points) {
    double f1_bubble = 0.0;
    for (const FamilyCase& f : families) {
      const Row row = run_family(testbed, p, f);
      std::printf("%-12s %-12s %3d %8.1f%% %8.1f%% %8.1f %10.1f %9.2f\n",
                  row.point.c_str(), row.family.c_str(), row.vstages,
                  100.0 * row.planned_bubble, 100.0 * row.engine_bubble,
                  row.iteration_ms, row.samples_per_second,
                  row.replay_host_ms);
      if (row.family == "1f1b") {
        f1_bubble = row.engine_bubble;
      }
      if (row.family == "interleaved" && row.vstages == 2 &&
          row.engine_bubble >= f1_bubble) {
        std::printf("  (note: interleaved V=2 did not beat 1F1B on %s)\n",
                    p.name.c_str());
      }
      rows.push_back(row);
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"provenance\": "
       << bench::provenance_json(
              "each program built once, one untimed warm-up replay, then an "
              "averaged timed replay loop")
       << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"point\": \"" << r.point << "\", \"family\": \"" << r.family
         << "\", \"vstages\": " << r.vstages
         << ", \"planned_bubble_ratio\": " << r.planned_bubble
         << ", \"engine_bubble_ratio\": " << r.engine_bubble
         << ", \"iteration_ms\": " << r.iteration_ms
         << ", \"samples_per_second\": " << r.samples_per_second
         << ", \"replay_host_ms\": " << r.replay_host_ms << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
