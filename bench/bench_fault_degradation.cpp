// Fault degradation: how a DiffusionPipe-planned pipeline degrades when one
// device straggles. Sweeps a persistent straggler multiplier (1.0x-2.0x) on
// one device of the 8-GPU group and reports measured throughput and bubble
// ratio against the fault-free plan, plus the engine's fault accounting.
// No paper counterpart — this probes the robustness gap §6.2 attributes to
// profiled-vs-actual drift, pushed far beyond the benign ±2% noise.
//
// Writes the elastic-recovery rows to BENCH_fault.json as {provenance, rows}
// (pass an output path as argv[1] to override).

#include <fstream>

#include "bench_util.h"
#include "fault/elastic.h"
#include "fault/fault.h"

int main(int argc, char** argv) {
  using namespace dpipe;
  using namespace dpipe::bench;

  header("Fault degradation: one straggler device, SD v2.1, batch 128");
  const ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(1);

  PlannerOptions options;
  options.global_batch = 128.0;
  const Planner planner(model, cluster, options);
  const Plan plan = planner.plan();
  const ExecutionEngine engine(planner.db(), planner.comm());

  EngineOptions eopts;
  eopts.iterations = 4;
  eopts.data_parallel_degree = plan.config.data_parallel_degree;
  eopts.group_batch = 128.0 / plan.config.data_parallel_degree;
  const EngineResult clean = engine.run(plan.program, eopts);

  std::printf("%-9s %10s %9s %11s %10s %12s\n", "straggle", "samples/s",
              "vs clean", "bubble", "inflation", "slowdown ms");
  for (const double severity : {1.0, 1.2, 1.4, 1.6, 1.8, 2.0}) {
    EngineOptions faulted = eopts;
    if (severity > 1.0) {
      fault::StragglerWindow window;
      window.device = 0;  // First stage-0 device: gates every micro-batch.
      window.start_ms = 0.0;
      window.end_ms = 1e12;  // Persistent for the whole run.
      window.factor = severity;
      faulted.faults.stragglers.push_back(window);
    }
    const EngineResult result = engine.run(plan.program, faulted);
    std::printf("%8.1fx %10.1f %8.1f%% %10.1f%% %9.1f%% %12.2f\n", severity,
                result.samples_per_second,
                100.0 * result.samples_per_second / clean.samples_per_second,
                100.0 * result.steady_bubble_ratio,
                100.0 * result.fault_stats.bubble_inflation,
                result.fault_stats.straggler_delay_ms);
  }

  header("Fault degradation: flaky inter-stage links (drop prob sweep)");
  std::printf("%-9s %10s %9s %9s %12s\n", "drop", "samples/s", "vs clean",
              "retries", "retry ms");
  for (const double drop : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    EngineOptions faulted = eopts;
    if (drop > 0.0) {
      fault::LinkFault flaky;
      flaky.src = -1;
      flaky.dst = -1;
      flaky.start_ms = 0.0;
      flaky.end_ms = 1e12;
      flaky.drop_prob = drop;
      flaky.max_retries = 6;
      flaky.timeout_ms = 0.5;
      flaky.backoff_ms = 0.25;
      faulted.faults.link_faults.push_back(flaky);
    }
    const EngineResult result = engine.run(plan.program, faulted);
    std::printf("%8.1f%% %10.1f %8.1f%% %9d %12.2f\n", 100.0 * drop,
                result.samples_per_second,
                100.0 * result.samples_per_second / clean.samples_per_second,
                result.fault_stats.retries,
                result.fault_stats.retry_delay_ms);
  }

  header("Elastic recovery vs restart-from-checkpoint (iterations lost)");
  // A 12-iteration run on the functional runtime with one device loss at
  // varying points. Elastic recovery salvages the crash-iteration boundary
  // and resumes on N-1 devices; the restart baseline rewinds to the last
  // periodic checkpoint (interval 4), re-executing completed iterations.
  struct ElasticRow {
    int crash_iter = 0;
    int interval = 0;
    int elastic_lost = 0;
    int restart_lost = 0;
    int replans = 0;
    int resharded = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    double replan_ms = 0.0;
  };
  std::vector<ElasticRow> rows;
  constexpr int kIterations = 12;
  constexpr int kInterval = 4;
  std::printf("%-11s %9s %13s %13s %8s %10s %10s\n", "crash@iter",
              "interval", "elastic lost", "restart lost", "replans",
              "resharded", "replan ms");
  for (const int crash_iter : {3, 5, 7, 10}) {
    rt::DdpmConfig ddpm;
    const rt::DdpmProblem problem(ddpm);
    rt::ElasticOptions eopts;
    eopts.config.num_stages = 2;
    eopts.config.num_microbatches = 2;
    eopts.config.data_parallel_degree = 2;  // World = 2 stages x 2 = 4.
    eopts.config.global_batch = 8;
    eopts.config.checkpoint_interval = kInterval;
    eopts.config.record_execution = false;
    rt::ElasticCrash crash;
    crash.iteration = crash_iter;
    crash.stage = 1;
    eopts.crashes = {crash};
    rt::ElasticRecoveryController controller(problem, eopts);
    const rt::RecoveryStats& stats = controller.run(kIterations);
    ElasticRow row;
    row.crash_iter = crash_iter;
    row.interval = kInterval;
    row.elastic_lost = stats.iterations_lost;
    row.restart_lost = stats.restart_iterations_lost;
    row.replans = stats.replans;
    row.resharded = stats.resharded_tensors;
    row.cache_hits = stats.stage_cache_hits;
    row.cache_misses = stats.stage_cache_misses;
    row.replan_ms = stats.replan_ms;
    rows.push_back(row);
    std::printf("%-11d %9d %13d %13d %8d %10d %10.1f\n", row.crash_iter,
                row.interval, row.elastic_lost, row.restart_lost,
                row.replans, row.resharded, row.replan_ms);
  }

  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_fault.json");
  std::ofstream json(out_path);
  json << "{\n  \"provenance\": "
       << bench::provenance_json(
              "engine-simulated iterations and counts are exact; replan_ms "
              "is one host-timed elastic re-plan per row")
       << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ElasticRow& r = rows[i];
    json << "    {\"crash_iter\": " << r.crash_iter
         << ", \"checkpoint_interval\": " << r.interval
         << ", \"elastic_iterations_lost\": " << r.elastic_lost
         << ", \"restart_iterations_lost\": " << r.restart_lost
         << ", \"replans\": " << r.replans
         << ", \"resharded_tensors\": " << r.resharded
         << ", \"stage_cache_hits\": " << r.cache_hits
         << ", \"stage_cache_misses\": " << r.cache_misses
         << ", \"replan_ms\": " << r.replan_ms << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %zu rows to %s\n", rows.size(), out_path.c_str());
  return 0;
}
