#pragma once

// Shared helpers for the per-table / per-figure benchmark binaries.
// Every binary prints the rows/series of its paper counterpart, with the
// paper's published values alongside where they exist, so EXPERIMENTS.md
// can be regenerated by running build/bench/*.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/baselines.h"
#include "cluster/comm_model.h"
#include "common/parallel.h"
#include "core/planner/planner.h"
#include "engine/engine.h"
#include "model/zoo.h"
#include "profiler/profiler.h"
#include "runtime/simd.h"

namespace dpipe::bench {

struct Testbed {
  ModelDesc model;
  ClusterSpec cluster;
  CommModel comm;
  ProfileDb db;

  Testbed(ModelDesc m, int machines)
      : model(std::move(m)),
        cluster(make_p4de_cluster(machines)),
        comm(cluster),
        db(model,
           AnalyticCostModel(cluster.device, NoiseSource(0xD1FF, 0.02)),
           default_batch_grid()) {}
};

inline double non_trainable_fwd_ms(const Testbed& t, double batch) {
  double total = 0.0;
  for (std::size_t ci = 0; ci < t.model.components.size(); ++ci) {
    if (t.model.components[ci].trainable) {
      continue;
    }
    total += t.db.fwd_range_ms(static_cast<int>(ci), 0,
                               t.model.components[ci].num_layers(), batch);
  }
  return total;
}

inline double trainable_fwd_bwd_ms(const Testbed& t, double batch) {
  double total = 0.0;
  for (const int b : t.model.backbone_ids) {
    const int L = t.model.components[b].num_layers();
    total += t.db.fwd_range_ms(b, 0, L, batch) +
             t.db.bwd_range_ms(b, 0, L, batch);
  }
  return total;
}

/// Plans with DiffusionPipe and measures with the engine; returns
/// samples/s (per backbone pass — multiply by backbone count for CDM
/// aggregate throughput).
struct PlannedRun {
  PlanConfig config;
  double samples_per_second = 0.0;
  double bubble_ratio = 0.0;
  double iteration_ms = 0.0;
};

inline PlannedRun run_diffusionpipe(const ModelDesc& model,
                                    const ClusterSpec& cluster,
                                    double global_batch,
                                    bool enable_fill = true,
                                    bool enable_partial = true) {
  PlannerOptions options;
  options.global_batch = global_batch;
  options.enable_fill = enable_fill;
  options.enable_partial = enable_partial;
  const Planner planner(model, cluster, options);
  const Plan plan = planner.plan();
  const ExecutionEngine engine(planner.db(), planner.comm());
  EngineOptions eopts;
  eopts.iterations = 4;
  eopts.data_parallel_degree = plan.config.data_parallel_degree;
  eopts.group_batch = global_batch / plan.config.data_parallel_degree;
  const EngineResult result = engine.run(plan.program, eopts);
  PlannedRun run;
  run.config = plan.config;
  run.samples_per_second = result.samples_per_second;
  run.bubble_ratio = result.steady_bubble_ratio;
  run.iteration_ms = result.steady_iteration_ms;
  return run;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// The CPU model string from /proc/cpuinfo ("unknown" where that file or
/// field is missing), recorded so a result names the host it came from.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// A JSON object saying where and how a BENCH_*.json was measured: CPU,
/// usable cores (default_thread_count(), which honours the CPU affinity
/// mask, so a taskset run records its real width), SIMD dispatch level,
/// build type and git revision (both captured when the build tree was
/// configured), and the timing idiom.
inline std::string provenance_json(const std::string& timing_idiom) {
  std::ostringstream out;
  out << "{\"cpu\": \"" << cpu_model()
      << "\", \"cores\": " << default_thread_count()
      << ", \"simd\": \"" << rt::simd_level_name(rt::simd_level())
      << "\", \"build_type\": \"" << DPIPE_BUILD_TYPE
      << "\", \"git_revision\": \"" << DPIPE_GIT_REVISION
      << "\", \"timing\": \"" << timing_idiom << "\"}";
  return out.str();
}

}  // namespace dpipe::bench
