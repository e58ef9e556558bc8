#include "core/planner/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/partition/stage_cache.h"

namespace dpipe {

namespace {

std::vector<int> default_group_candidates(int world) {
  std::vector<int> out;
  for (int d = 2; d <= world; ++d) {
    if (world % d == 0) {
      out.push_back(d);
    }
  }
  return out;
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// One (S, M, D, V) grid point, in candidate-list enumeration order (D
/// outer, then S, then M, then V). Index order doubles as the selection
/// tie-break: the reduction keeps the earliest minimum, matching the
/// sequential baseline.
struct Combo {
  int S = 0;
  int M = 0;
  int D = 0;
  int V = 1;
};

}  // namespace

Planner::Planner(ModelDesc model, ClusterSpec cluster, PlannerOptions options)
    : model_(group_backbones(model).grouped_model),
      cluster_(std::move(cluster)),
      options_(std::move(options)),
      comm_(cluster_),
      report_(Profiler(options_.profiler).profile(model_, cluster_)) {
  validate(model_);
  DPIPE_REQUIRE(options_.global_batch > 0.0, "global batch must be positive");
  DPIPE_ENSURE(model_.backbone_ids.size() <= 2,
               "grouping must produce at most two virtual backbones");
  apply_default_candidates(options_, cluster_.world_size());
  for (const int v : options_.vstage_candidates) {
    DPIPE_REQUIRE(v >= 1, "vstage candidates must be positive");
    DPIPE_REQUIRE(
        v == 1 || options_.schedule_family == ScheduleFamily::kInterleaved,
        "vstage candidates > 1 require schedule_family == kInterleaved");
  }
  DPIPE_REQUIRE(
      options_.schedule_family == ScheduleFamily::k1F1B ||
          options_.schedule_family == ScheduleFamily::kInterleaved,
      "planner searches the 1f1b and interleaved schedule families only");
}

void Planner::apply_default_candidates(PlannerOptions& options, int world) {
  if (options.stage_candidates.empty()) {
    options.stage_candidates = {2, 4, 8};
  }
  if (options.micro_candidates.empty()) {
    options.micro_candidates = {2, 4, 8, 16};
  }
  if (options.group_candidates.empty()) {
    options.group_candidates = default_group_candidates(world);
  }
  if (options.vstage_candidates.empty()) {
    options.vstage_candidates = {1};
  }
}

std::string Planner::cost_context_fingerprint() const {
  std::ostringstream canonical;
  write_canonical(canonical, model_);
  write_canonical(canonical, cluster_);
  write_canonical(canonical, options_.profiler);
  return fingerprint_bytes(canonical.str()).hex();
}

bool Planner::combo_shape_valid(int S, int M, int D, int V) const {
  const int world = cluster_.world_size();
  if (V < 1) {
    return false;
  }
  if (D > world || world % D != 0 || D % S != 0) {
    return false;
  }
  if (options_.require_bindable_placement && D != S) {
    return false;
  }
  if (V > 1) {
    // Virtual stages only exist under the interleaved family, on bindable
    // shapes (one device per chain position), with at least two devices (a
    // device cannot send to itself) and a single backbone.
    if (options_.schedule_family != ScheduleFamily::kInterleaved ||
        D != S || S < 2 || model_.backbone_ids.size() != 1) {
      return false;
    }
  }
  const int dp = world / D;
  const double micro = options_.global_batch / dp / M;
  if (micro < 1.0) {
    return false;
  }
  if (options_.integer_microbatches &&
      micro != std::floor(micro)) {
    return false;
  }
  for (const int b : model_.backbone_ids) {
    if (S * V > model_.components[b].num_layers()) {
      return false;
    }
  }
  if (model_.backbone_ids.size() > 1 && model_.self_conditioning) {
    return false;  // Not supported for CDMs (§6, Table 5).
  }
  return true;
}

double Planner::search_lower_bound_ms(int S, int M, int D, int V) const {
  if (!combo_shape_valid(S, M, D, V)) {
    return std::numeric_limits<double>::infinity();
  }
  const int dp = cluster_.world_size() / D;
  const double micro = options_.global_batch / dp / M;
  const int replicas = D / S;  // Uniform replication (§4.1 fn. 2).
  const double replica_batch = micro / replicas;
  double full_range_ms = 0.0;
  for (const int b : model_.backbone_ids) {
    const int L = model_.components[b].num_layers();
    full_range_ms += report_.db.fwd_range_ms(b, 0, L, replica_batch) +
                     report_.db.bwd_range_ms(b, 0, L, replica_batch);
  }
  // Average-busy-time bound: every device must run its stage's compute for
  // all M micro-batches, so makespan >= total compute / D
  //   = (replicas * M * full_range) / D = M / S * full_range.
  // Comm, sync, self-conditioning, and fill work only add on top. The
  // (1 - 1e-9) margin keeps the bound strictly below the true cost even if
  // summation order perturbs the last bits.
  return full_range_ms * static_cast<double>(M) / static_cast<double>(S) *
         (1.0 - 1e-9);
}

std::optional<Planner::Evaluation> Planner::evaluate(
    int S, int M, int D, int V, StageCostCache* external_cache) const {
  if (!combo_shape_valid(S, M, D, V)) {
    return std::nullopt;
  }
  const int world = cluster_.world_size();
  const int dp = world / D;
  const double group_batch = options_.global_batch / dp;
  const double micro = group_batch / M;

  PartitionOptions opts;
  opts.num_stages = S;
  opts.num_microbatches = M;
  opts.group_size = D;
  opts.data_parallel_degree = dp;
  opts.microbatch_size = micro;
  opts.self_conditioning = model_.self_conditioning;
  opts.self_cond_prob = model_.self_cond_prob;

  // The cache rule follows the DP's structure. With a cache store the
  // combo's persistent cache (leased by plan()) carries costs memoized by
  // earlier plans into this one. Otherwise only the bidirectional DP gets a
  // per-evaluation cache: it re-costs each down-stage under every
  // up-placement (~95% hits), while the single-backbone DP visits each key
  // about once, so there the bookkeeping would cost more than it saves.
  StageCostCache cache;
  StageCostCache* cache_ptr = external_cache;
  if (cache_ptr == nullptr && model_.backbone_ids.size() > 1) {
    cache_ptr = &cache;
  }
  const std::size_t hits_before = cache_ptr ? cache_ptr->hits() : 0;
  const std::size_t misses_before = cache_ptr ? cache_ptr->misses() : 0;

  const auto partition_start = std::chrono::steady_clock::now();
  const DpPartitioner partitioner(report_.db, comm_);
  const ScheduleBuilder builder(report_.db, comm_);
  Schedule schedule;
  if (V > 1) {
    // Interleaved placement: partition the backbone into S*V virtual
    // stages over the synthetic chain of interleaved_chain_options (one
    // replica per virtual stage, chain position s on physical device
    // s % D), so its stages come out already placed round-robin on the S
    // devices.
    const int St = S * V;
    const PartitionResult part = partitioner.partition_single(
        model_.backbone_ids[0], interleaved_chain_options(opts, St),
        cache_ptr);
    opts.num_stages = St;
    schedule = builder.build_interleaved(model_.backbone_ids[0], part.stages,
                                         opts, cache_ptr);
  } else if (model_.backbone_ids.size() == 1) {
    const PartitionResult part = partitioner.partition_single(
        model_.backbone_ids[0], opts, cache_ptr);
    schedule = builder.build_1f1b(model_.backbone_ids[0], part.stages, opts,
                                  cache_ptr);
  } else {
    const BiPartitionResult part =
        partition_bidirectional(partitioner, model_.backbone_ids[0],
                                model_.backbone_ids[1], opts, cache_ptr);
    schedule = builder.build_bidirectional(
        model_.backbone_ids[0], part.down_stages, model_.backbone_ids[1],
        part.up_stages, opts, cache_ptr);
  }

  Evaluation eval;
  eval.cache_hits = cache_ptr ? cache_ptr->hits() - hits_before : 0;
  eval.cache_misses = cache_ptr ? cache_ptr->misses() - misses_before : 0;

  if (options_.check_memory) {
    const MemoryReport memory =
        estimate_pipeline_memory(report_.db, schedule, opts);
    if (!memory.fits(cluster_.device.memory_gb)) {
      eval.config = {S, M, D, dp, 0.0, 0.0, false, V};
      eval.opts = opts;
      eval.partition_wall_ms = elapsed_ms(partition_start);
      return eval;
    }
  }
  eval.partition_wall_ms = elapsed_ms(partition_start);

  FillOptions fill_opts;
  fill_opts.training_batch = group_batch;
  fill_opts.enable_fill = options_.enable_fill;
  fill_opts.enable_partial = options_.enable_partial;
  const auto fill_start = std::chrono::steady_clock::now();
  eval.fill = BubbleFiller(report_.db).fill(schedule, fill_opts);
  eval.fill_wall_ms = elapsed_ms(fill_start);
  eval.opts = opts;
  eval.config.num_stages = S;
  eval.config.num_microbatches = M;
  eval.config.group_size = D;
  eval.config.data_parallel_degree = dp;
  eval.config.predicted_iteration_ms = eval.fill.filled_schedule.makespan_ms;
  eval.config.planned_bubble_ratio = bubble_ratio(
      eval.fill.filled_schedule, extract_bubbles(eval.fill.filled_schedule));
  eval.config.memory_feasible = true;
  eval.config.vstages = V;
  return eval;
}

Plan Planner::plan() const {
  Plan plan;
  plan.profiling_wall_ms = report_.profiling_wall_ms;

  std::vector<Combo> combos;
  for (const int D : options_.group_candidates) {
    for (const int S : options_.stage_candidates) {
      for (const int M : options_.micro_candidates) {
        for (const int V : options_.vstage_candidates) {
          combos.push_back({S, M, D, V});
        }
      }
    }
  }
  const std::size_t n = combos.size();

  const auto search_start = std::chrono::steady_clock::now();

  // With a cache store, lease every shape-valid combo's persistent cache up
  // front; the store is thread-safe and each lease is exclusive, so one
  // search thread owns each cache for the duration of the search.
  std::vector<StageCostStore::Lease> leases(n);
  std::vector<StageCostCache*> combo_cache(n, nullptr);
  if (options_.cache_store != nullptr) {
    const std::string context = cost_context_fingerprint();
    const int world = cluster_.world_size();
    for (std::size_t i = 0; i < n; ++i) {
      const Combo& c = combos[i];
      if (combo_shape_valid(c.S, c.M, c.D, c.V)) {
        // Interleaved combos are keyed by their virtual chain length
        // (S*V): their stage costs live at virtual chain positions, so
        // they must not share a cache with the V == 1 combo of the same
        // physical shape. S*V never collides with another combo's key in
        // one grid (V > 1 forces D == S, so any same-D combo with
        // S' == S*V fails D % S' == 0).
        const int dp = world / c.D;
        leases[i] = options_.cache_store->acquire(
            context, world, c.S * c.V, c.M, c.D, dp,
            options_.global_batch / dp / c.M);
        combo_cache[i] = leases[i].cache();
      }
    }
  }

  // Optional exact pruning. The incumbent seed is chosen deterministically
  // (lowest lower bound, ties to the lowest combo index), evaluated up
  // front, and only combos whose lower bound is STRICTLY above the seed's
  // achieved time are skipped — such combos are strictly worse than the
  // global optimum, so the selected plan (and its earliest-minimum
  // tie-break) is unchanged. Pruned combos never reach `explored`.
  std::vector<char> skip(n, 0);
  std::optional<Evaluation> seed_eval;
  std::size_t seed_index = n;
  int pruned_count = 0;
  if (options_.enable_pruning) {
    std::vector<double> lb(n);
    for (std::size_t i = 0; i < n; ++i) {
      lb[i] = search_lower_bound_ms(combos[i].S, combos[i].M, combos[i].D,
                                    combos[i].V);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(lb[i]) &&
          (seed_index == n || lb[i] < lb[seed_index])) {
        seed_index = i;
      }
    }
    if (seed_index != n) {
      seed_eval = evaluate(combos[seed_index].S, combos[seed_index].M,
                           combos[seed_index].D, combos[seed_index].V,
                           combo_cache[seed_index]);
      const double threshold =
          (seed_eval.has_value() && seed_eval->config.memory_feasible)
              ? seed_eval->config.predicted_iteration_ms
              : std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        if (i != seed_index && lb[i] > threshold) {
          skip[i] = 1;
          ++pruned_count;
        }
      }
    }
  }

  // Evaluation. Each index writes only results[i], so the parallel outcome
  // is bit-identical for any width (see parallel_for's contract); the
  // reduction below runs sequentially in candidate order, reproducing the
  // sequential loop's earliest-minimum selection exactly. Width 1 runs the
  // loop inline on this thread.
  std::vector<std::optional<Evaluation>> results(n);
  if (seed_index != n) {
    results[seed_index] = std::move(seed_eval);
    skip[seed_index] = 1;  // Already evaluated; not pruned.
  }
  plan.search.threads = parallel_for(
      n,
      [&](std::size_t i) {
        if (!skip[i]) {
          results[i] = evaluate(combos[i].S, combos[i].M, combos[i].D,
                                combos[i].V, combo_cache[i]);
        }
      },
      options_.search_threads);

  std::optional<Evaluation> best;
  double partition_ms = 0.0;
  double fill_ms = 0.0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<Evaluation>& eval = results[i];
    if (!eval.has_value()) {
      continue;
    }
    partition_ms += eval->partition_wall_ms;
    fill_ms += eval->fill_wall_ms;
    cache_hits += eval->cache_hits;
    cache_misses += eval->cache_misses;
    plan.explored.push_back(eval->config);
    if (!eval->config.memory_feasible) {
      continue;
    }
    if (!best.has_value() || eval->config.predicted_iteration_ms <
                                 best->config.predicted_iteration_ms) {
      best = std::move(*eval);
    }
  }
  DPIPE_ENSURE(best.has_value(), "no feasible (S, M, D) configuration found");

  plan.search.combos_total = static_cast<int>(n);
  plan.search.vstage_axis =
      static_cast<int>(options_.vstage_candidates.size());
  plan.search.combos_evaluated = static_cast<int>(n) - pruned_count;
  plan.search.combos_pruned = pruned_count;
  plan.search.cache_hits = cache_hits;
  plan.search.cache_misses = cache_misses;
  plan.search.search_wall_ms = elapsed_ms(search_start);
  plan.filling_wall_ms = fill_ms;
  plan.partitioning_wall_ms = partition_ms;

  plan.config = best->config;
  plan.partition_opts = best->opts;
  plan.program = generate_instructions(report_.db, best->fill.filled_schedule,
                                       best->fill, best->opts);
  plan.fill = std::move(best->fill);
  return plan;
}

}  // namespace dpipe
