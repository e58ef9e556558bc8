// plan_mix: one closed-loop client sending a seeded Zipf stream of
// PlanService::plan requests over a fixed population of zoo models, p4de
// cluster sizes and global batches; a share of the population searches the
// interleaved V axis. Each request ends when the caller holds the
// deserialized program (CachedPlan::program()), as a launcher would.
//
// The stream runs in epochs: each epoch is one in-memory service lifetime
// (zoo models, population and a fresh PlanService set up anew) serving
// kEpochRequests requests, so the miss share and the cold-plan mix are the
// same in every epoch and do not decay with run length. Misses exercise the
// profiler, planner and instruction stack; hits exercise canonicalize,
// lookup and deserialize.

#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>

#include "cluster/cluster.h"
#include "core/fill/filler.h"
#include "core/instr/serialize.h"
#include "core/instr/validate.h"
#include "core/partition/bidirectional.h"
#include "core/partition/partitioner.h"
#include "core/planner/planner.h"
#include "core/schedule/schedule.h"
#include "engine/engine.h"
#include "model/zoo.h"
#include "service/service.h"
#include "workloads.h"

namespace dpbench {

namespace {

using Clock = std::chrono::steady_clock;
using namespace dpipe;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr int kEpochRequests = 200;   ///< Requests per service lifetime.
constexpr double kZipfExponent = 1.1;

struct Member {
  std::string name;
  PlanRequest request;
};

/// The request population in Zipf rank order (rank 0 most popular). The
/// order is fixed; only the draw sequence depends on the seed, so every
/// seed sees the same popularity profile.
std::vector<Member> make_population() {
  struct ModelSpec {
    const char* name;
    ModelDesc (*make)();
    double batch_per_machine;
    bool single_backbone;
  };
  const ModelSpec models[] = {
      {"sd21", make_stable_diffusion_v21, 256.0, true},
      {"dit", make_dit_xl2, 256.0, true},
      {"controlnet", make_controlnet_v10, 256.0, true},
      {"cdm_lsun", make_cdm_lsun, 128.0, false},
      {"sdxl", make_sdxl_base, 128.0, true},
  };
  std::vector<Member> population;
  const auto add = [&](const ModelSpec& m, int machines, double scale,
                       bool interleaved) {
    Member member;
    member.request.model = m.make();
    member.request.cluster = make_p4de_cluster(machines);
    member.request.options.global_batch =
        m.batch_per_machine * machines * scale;
    if (interleaved) {
      member.request.options.schedule_family = ScheduleFamily::kInterleaved;
      member.request.options.vstage_candidates = {1, 2};
    }
    member.name = std::string(m.name) + "_x" + std::to_string(machines) +
                  "_b" +
                  std::to_string(static_cast<int>(
                      member.request.options.global_batch)) +
                  (interleaved ? "_v12" : "");
    population.push_back(std::move(member));
  };
  for (const double scale : {1.0, 2.0}) {
    for (const int machines : {1, 2}) {
      for (const ModelSpec& m : models) {
        add(m, machines, scale, false);
        if (m.single_backbone && scale == 1.0) {
          add(m, machines, scale, true);
        }
      }
    }
  }
  return population;
}

/// Per-device stream lengths: a cheap structural fingerprint of a
/// deserialized program, compared between a hit and its cold answer.
std::vector<std::size_t> stream_sizes(const InstructionProgram& program) {
  std::vector<std::size_t> sizes;
  for (const auto& s : program.per_device) {
    sizes.push_back(s.size());
  }
  for (const auto& s : program.preamble) {
    sizes.push_back(s.size());
  }
  return sizes;
}

/// Replaces the micro-batch index of the first recv in a steady section
/// with one no send matches; the validator must reject the result.
std::string tamper_one_recv(const std::string& text) {
  std::size_t pos = text.find("\nrecv_act ");
  if (pos == std::string::npos) {
    pos = text.find("\nrecv_grad ");
  }
  if (pos == std::string::npos) {
    return text;
  }
  const std::size_t m = text.find(" m=", pos);
  const std::size_t end = text.find(' ', m + 3);
  return text.substr(0, m) + " m=" +
         std::to_string(std::stoi(text.substr(m + 3, end - m - 3)) + 1000) +
         text.substr(end);
}

struct RequestRecord {
  int member = 0;
  bool hit = false;
  std::shared_ptr<const CachedPlan> plan;
  std::vector<std::size_t> sizes;  ///< Of the program the caller held.
};

double placed_share(const FillResult& fill) {
  double leftover = 0.0;
  for (const PlacedFrozenOp& op : fill.leftover) {
    leftover += (op.end_ms - op.start_ms) * op.devices.size();
  }
  const double total = fill.filled_device_ms + leftover;
  return total > 0 ? fill.filled_device_ms / total : 0.0;
}

/// Re-runs the winning configuration of `plan` layer by layer, exactly as
/// Planner::evaluate does for it, under one span per layer, and returns
/// the serialized program (which must equal the planner's).
std::string replay_planner_layers(const Planner& planner, const Plan& plan,
                                  Tracer& tracer) {
  const ModelDesc& model = planner.model();
  const PartitionOptions& opts = plan.partition_opts;
  const PlanConfig& config = plan.config;
  const DpPartitioner partitioner(planner.db(), planner.comm());
  const ScheduleBuilder builder(planner.db(), planner.comm());
  Schedule schedule;
  if (config.vstages > 1) {
    const int chain = opts.num_stages;  // S * V virtual stages.
    PartitionOptions chain_opts = opts;
    chain_opts.group_size = chain;
    chain_opts.device_ranks.resize(chain);
    for (int s = 0; s < chain; ++s) {
      chain_opts.device_ranks[s] = s % config.group_size;
    }
    chain_opts.dp_rank_stride = config.group_size;
    std::vector<StagePlan> stages;
    {
      const auto span = tracer.span("core.partition");
      stages = partitioner
                   .partition_single(model.backbone_ids[0], chain_opts,
                                     nullptr)
                   .stages;
    }
    for (int s = 0; s < chain; ++s) {
      stages[s].device_ranks = {s % config.group_size};
    }
    const auto span = tracer.span("core.schedule.build");
    schedule = builder.build_interleaved(model.backbone_ids[0], stages, opts);
  } else if (model.backbone_ids.size() == 1) {
    PartitionResult part;
    {
      const auto span = tracer.span("core.partition");
      part = partitioner.partition_single(model.backbone_ids[0], opts,
                                          nullptr);
    }
    const auto span = tracer.span("core.schedule.build");
    schedule = builder.build_1f1b(model.backbone_ids[0], part.stages, opts);
  } else {
    BiPartitionResult part;
    {
      const auto span = tracer.span("core.partition");
      part = partition_bidirectional(partitioner, model.backbone_ids[0],
                                     model.backbone_ids[1], opts, nullptr);
    }
    const auto span = tracer.span("core.schedule.build");
    schedule = builder.build_bidirectional(
        model.backbone_ids[0], part.down_stages, model.backbone_ids[1],
        part.up_stages, opts);
  }
  FillOptions fill_opts;
  fill_opts.training_batch =
      planner.options().global_batch / config.data_parallel_degree;
  fill_opts.enable_fill = planner.options().enable_fill;
  fill_opts.enable_partial = planner.options().enable_partial;
  FillResult fill;
  {
    const auto span = tracer.span("core.fill");
    fill = BubbleFiller(planner.db()).fill(schedule, fill_opts);
  }
  InstructionProgram program;
  {
    const auto span = tracer.span("core.instr.generate");
    program = generate_instructions(planner.db(), fill.filled_schedule, fill,
                                    opts);
  }
  {
    const auto span = tracer.span("core.instr.validate");
    require_valid_program(program);
  }
  const auto span = tracer.span("core.instr.serialize");
  return program_to_string(program);
}

}  // namespace

void run_plan_mix(const RunOptions& opts, Tracer& tracer, Report& report) {
  std::vector<Member> population = make_population();
  std::vector<double> setup_s;
  const int n = static_cast<int>(population.size());
  std::vector<double> weights;
  for (int r = 0; r < n; ++r) {
    weights.push_back(1.0 / std::pow(r + 1.0, kZipfExponent));
  }
  std::mt19937_64 rng(opts.seed);
  std::discrete_distribution<int> zipf(weights.begin(), weights.end());

  std::vector<double> all_ms, cold_ms, warm_ms;
  std::vector<bool> span_hit;  ///< Hit flag per traced service.plan span.
  std::map<int, std::string> first_cold_text;  ///< Across epochs.
  std::size_t cache_hits = 0, cache_lookups = 0;
  std::size_t store_shared = 0, store_acquires = 0;
  std::size_t bad_hit_bytes = 0, bad_hit_flag = 0, bad_programs = 0,
              cross_epoch_mismatch = 0;
  double stream_ms = 0.0;
  int epochs = 0;
  std::string error;
  std::int64_t request_id = 0;
  while (stream_ms < opts.seconds * 1e3 && error.empty()) {
    // Set-up of one service lifetime: zoo models, population, service.
    const auto setup_start = Clock::now();
    population = make_population();
    PlanService service;
    setup_s.push_back(ms_since(setup_start) / 1e3);
    std::vector<RequestRecord> records;
    records.reserve(kEpochRequests);
    const auto epoch_start = Clock::now();
    for (int k = 0; k < kEpochRequests; ++k) {
      RequestRecord rec;
      rec.member = zipf(rng);
      ++report.attempted;
      const auto span = tracer.span("plan_mix.request", request_id++);
      const auto start = Clock::now();
      try {
        {
          const auto plan_span = tracer.span("service.plan");
          rec.plan = service.plan(population[rec.member].request, &rec.hit);
        }
        const auto deser_span = tracer.span("core.instr.deserialize");
        const InstructionProgram program = rec.plan->program();
        rec.sizes = stream_sizes(program);
      } catch (const std::exception& e) {
        ++report.failed;
        error = population[rec.member].name + ": " + e.what();
        break;
      }
      const double ms = ms_since(start);
      all_ms.push_back(ms);
      (rec.hit ? warm_ms : cold_ms).push_back(ms);
      if (tracer.enabled()) {
        span_hit.push_back(rec.hit);
      }
      records.push_back(std::move(rec));
    }
    stream_ms += ms_since(epoch_start);
    ++epochs;

    // Epoch checks, untimed: a member's first request misses and every
    // later one hits with byte-identical text; every cold program passes
    // the validator; all epochs agree on each member's bytes.
    std::map<int, const RequestRecord*> cold;
    for (const RequestRecord& rec : records) {
      const auto it = cold.find(rec.member);
      bool ok = true;
      if (it == cold.end()) {
        ok = !rec.hit;
        bad_hit_flag += ok ? 0 : 1;
        cold[rec.member] = &rec;
        try {
          require_valid_program(rec.plan->program());
        } catch (const std::exception&) {
          ++bad_programs;
          ok = false;
        }
        const auto [first, inserted] =
            first_cold_text.emplace(rec.member, rec.plan->program_text);
        if (!inserted && first->second != rec.plan->program_text) {
          ++cross_epoch_mismatch;
          ok = false;
        }
      } else {
        const RequestRecord& c = *it->second;
        if (!rec.hit) {
          ++bad_hit_flag;
          ok = false;
        }
        if (rec.plan->program_text != c.plan->program_text ||
            rec.sizes != c.sizes) {
          ++bad_hit_bytes;
          ok = false;
        }
      }
      report.failed += ok ? 0 : 1;
    }
    const PlanService::Stats stats = service.stats();
    cache_hits += stats.cache.hits;
    cache_lookups += stats.cache.hits + stats.cache.misses;
    store_shared += stats.stage_costs.shared_grants;
    store_acquires += stats.stage_costs.acquires;
  }
  report.gate("plan.no_exception", error.empty(), error);
  report.gate("plan.cold_programs_valid", bad_programs == 0,
              std::to_string(bad_programs) + " invalid");
  report.gate("plan.hits_byte_identical_to_cold", bad_hit_bytes == 0,
              std::to_string(bad_hit_bytes) + " mismatches");
  report.gate("plan.hit_iff_repeat", bad_hit_flag == 0,
              std::to_string(bad_hit_flag) + " unexpected cache outcomes");
  report.gate("plan.epochs_agree", cross_epoch_mismatch == 0,
              std::to_string(cross_epoch_mismatch) + " members differ");

  // The gate can fail: a program with one tampered recv must be rejected.
  if (!first_cold_text.empty()) {
    bool rejected = false;
    try {
      require_valid_program(
          program_from_string(tamper_one_recv(first_cold_text.begin()->second)));
    } catch (const std::exception&) {
      rejected = true;
    }
    report.gate("plan.tampered_program_rejected", rejected);
  }

  // Engine replay of every population member's plan, planned directly
  // (untimed). The planner's program must equal the service's cold bytes;
  // traced runs also replay the winning configuration layer by layer.
  double log_sps = 0.0, bubble_sum = 0.0, fill_share_sum = 0.0;
  std::size_t combos = 0, threads = 0, stage_hits = 0, stage_lookups = 0;
  std::size_t replay_failures = 0, service_mismatch = 0, layer_mismatch = 0;
  for (int i = 0; i < n; ++i) {
    const PlanRequest& request = population[i].request;
    const auto member_span = tracer.span("plan_mix.member", i);
    try {
      if (tracer.enabled()) {
        const auto span = tracer.span("service.canonicalize");
        (void)canonical_request_text(request);
      }
      std::unique_ptr<Planner> planner;
      {
        const auto span = tracer.span("profiler.profile");
        planner = std::make_unique<Planner>(request.model, request.cluster,
                                            request.options);
      }
      Plan plan;
      {
        const auto span = tracer.span("core.planner.plan");
        plan = planner->plan();
      }
      const std::string text = program_to_string(plan.program);
      const auto cold = first_cold_text.find(i);
      if (cold != first_cold_text.end() && cold->second != text) {
        ++service_mismatch;
      }
      if (tracer.enabled() &&
          replay_planner_layers(*planner, plan, tracer) != text) {
        ++layer_mismatch;
      }
      EngineOptions eopts;
      eopts.data_parallel_degree = plan.config.data_parallel_degree;
      eopts.group_batch =
          request.options.global_batch / plan.config.data_parallel_degree;
      EngineResult sim;
      {
        const auto span = tracer.span("engine.replay");
        sim = ExecutionEngine(planner->db(), planner->comm())
                  .run(plan.program, eopts);
      }
      if (!(sim.samples_per_second > 0.0) ||
          !std::isfinite(sim.steady_bubble_ratio)) {
        ++replay_failures;
        continue;
      }
      log_sps += std::log(sim.samples_per_second);
      bubble_sum += sim.steady_bubble_ratio;
      fill_share_sum += placed_share(plan.fill);
      combos += plan.search.combos_evaluated;
      threads += plan.search.threads;
      stage_hits += plan.search.cache_hits;
      stage_lookups += plan.search.cache_hits + plan.search.cache_misses;
    } catch (const std::exception& e) {
      ++replay_failures;
      error = population[i].name + ": " + e.what();
    }
  }
  report.gate("engine.replays_complete", replay_failures == 0,
              std::to_string(replay_failures) + " of " + std::to_string(n) +
                  " failed " + error);
  report.gate("plan.service_equals_planner", service_mismatch == 0,
              std::to_string(service_mismatch) + " members differ");
  if (tracer.enabled()) {
    report.gate("plan.layer_replay_equals_planner", layer_mismatch == 0,
                std::to_string(layer_mismatch) + " members differ");
  }

  // --- End-to-end metrics -----------------------------------------------
  const std::size_t done = all_ms.size();
  report.metric("plan_requests_per_s",
                stream_ms > 0 ? done / stream_ms * 1e3 : 0.0, "req/s", done);
  report.metric("plan_ms_p50", quantile(all_ms, 0.50), "ms", done);
  report.metric("plan_ms_p99", quantile(all_ms, 0.99), "ms", done);
  report.metric("plan_cold_ms_p50", quantile(cold_ms, 0.50), "ms",
                cold_ms.size());
  report.metric("plan_cold_ms_p90", quantile(cold_ms, 0.90), "ms",
                cold_ms.size());
  report.metric("plan_warm_ms_p50", quantile(warm_ms, 0.50), "ms",
                warm_ms.size());
  report.metric("plan_warm_ms_p99", quantile(warm_ms, 0.99), "ms",
                warm_ms.size());
  report.metric("sim_samples_per_s_geomean", std::exp(log_sps / n),
                "samples/s", n);
  report.metric("sim_bubble_ratio_mean", bubble_sum / n, "ratio", n);
  report.metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  report.info["population"] = std::to_string(n) + " members";
  report.info["epochs"] = std::to_string(epochs) + " x " +
                          std::to_string(kEpochRequests) + " requests";

  if (!tracer.enabled()) {
    return;
  }
  // --- Per-layer metrics (traced run) -----------------------------------
  std::vector<double> hit_ms, miss_ms;
  const std::vector<double> plan_spans = tracer.self_ms("service.plan");
  for (std::size_t k = 0; k < plan_spans.size() && k < span_hit.size(); ++k) {
    (span_hit[k] ? hit_ms : miss_ms).push_back(plan_spans[k]);
  }
  report.metric("service.hit_ms", quantile(hit_ms, 0.5), "ms", hit_ms.size());
  report.metric("service.miss_ms", quantile(miss_ms, 0.5), "ms",
                miss_ms.size());
  const auto span_median = [&](const char* name, const char* metric) {
    const std::vector<double> ms = tracer.self_ms(name);
    report.metric(metric, quantile(ms, 0.5), "ms", ms.size());
  };
  const auto span_mean = [&](const char* name, const char* metric) {
    const std::vector<double> ms = tracer.self_ms(name);
    report.metric(metric, mean(ms), "ms", ms.size());
  };
  span_median("core.instr.deserialize", "core.instr.deserialize_ms");
  span_median("service.canonicalize", "service.canonicalize_ms");
  span_mean("profiler.profile", "profiler.profile_ms");
  span_mean("core.planner.plan", "core.planner.plan_ms");
  span_mean("core.partition", "core.partition.ms");
  span_mean("core.schedule.build", "core.schedule.build_ms");
  span_mean("core.fill", "core.fill.ms");
  span_mean("core.instr.generate", "core.instr.generate_ms");
  span_mean("core.instr.validate", "core.instr.validate_ms");
  span_mean("core.instr.serialize", "core.instr.serialize_ms");
  span_mean("engine.replay", "engine.replay_ms");
  report.metric("service.cache_hit_ratio",
                cache_lookups > 0 ? double(cache_hits) / cache_lookups : 0.0,
                "ratio", cache_lookups);
  report.metric("service.stage_store_shared_grant_ratio",
                store_acquires > 0 ? double(store_shared) / store_acquires
                                   : 0.0,
                "ratio", store_acquires);
  report.metric("core.planner.combos_evaluated", double(combos) / n, "count",
                n);
  report.metric("core.planner.threads", double(threads) / n, "count", n);
  report.metric("core.planner.stage_cache_hit_rate",
                stage_lookups > 0 ? double(stage_hits) / stage_lookups : 0.0,
                "ratio", stage_lookups);
  report.metric("core.fill.placed_share", fill_share_sum / n, "ratio", n);
}

}  // namespace dpbench
