#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/parallel.h"
#include "core/instr/serialize.h"
#include "core/partition/bidirectional.h"
#include "core/partition/brute_force.h"
#include "core/partition/stage_cache.h"
#include "core/planner/planner.h"
#include "model/zoo.h"

namespace dpipe {
namespace {

// --- The process pool ------------------------------------------------------

/// Pins the process pool's width for one test and restores the default.
struct PoolWidthGuard {
  explicit PoolWidthGuard(int width) { set_pool_width(width); }
  ~PoolWidthGuard() { set_pool_width(0); }
  PoolWidthGuard(const PoolWidthGuard&) = delete;
  PoolWidthGuard& operator=(const PoolWidthGuard&) = delete;
};

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  const PoolWidthGuard pool(4);
  const std::size_t n = 4096;
  std::vector<int> visits(n, 0);
  std::atomic<std::size_t> calls{0};
  const int width = parallel_for(n, [&](std::size_t i) {
    ++visits[i];
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(width, 4);
  EXPECT_EQ(calls.load(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

/// Runs a 16-index parallel_for with cap `max_width` and requires it to run
/// inline: width 1, every index on the calling thread, in order.
void expect_runs_inline(int max_width) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  EXPECT_EQ(parallel_for(
                16,
                [&](std::size_t i) {
                  order.push_back(i);
                  on_caller = on_caller && std::this_thread::get_id() == caller;
                },
                max_width),
            1);
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelFor, SingleThreadPoolRunsInline) {
  {
    const PoolWidthGuard pool(1);
    EXPECT_EQ(pool_width(), 1);
    expect_runs_inline(0);  // No workers: the caller runs every index.
  }
  const PoolWidthGuard pool(4);
  expect_runs_inline(1);  // A width cap of 1 never touches the pool.
}

TEST(ParallelFor, HandlesEmptyAndTinyBatches) {
  const PoolWidthGuard pool(8);
  int ran = 0;
  EXPECT_EQ(parallel_for(0, [&](std::size_t) { ++ran; }), 1);
  EXPECT_EQ(ran, 0);
  // Fewer items than threads: one thread per item.
  std::vector<int> visits(3, 0);
  EXPECT_EQ(parallel_for(3, [&](std::size_t i) { ++visits[i]; }), 3);
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 3);
}

TEST(ParallelFor, ReusableAcrossBatches) {
  const PoolWidthGuard pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(round + 1, 0);
    parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<int>(i) + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) + round);
    }
  }
}

TEST(ParallelFor, PropagatesFirstExceptionAndStaysUsable) {
  const PoolWidthGuard pool(4);
  EXPECT_THROW(parallel_for(100,
                            [&](std::size_t i) {
                              if (i == 13) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  EXPECT_EQ(parallel_for(32, [&](std::size_t) { ++ran; }), 4);
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelFor, WidthCapIsInlineOrWholePool) {
  // A cap of 1 runs inline (SingleThreadPoolRunsInline); every other cap,
  // 0 included, takes the whole pool and still covers every index once.
  const PoolWidthGuard pool(4);
  for (const int cap : {0, 2, 3, 4, 9}) {
    std::vector<int> visits(256, 0);
    EXPECT_EQ(parallel_for(
                  visits.size(), [&](std::size_t i) { ++visits[i]; }, cap),
              4)
        << cap;
    for (std::size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i], 1) << "cap " << cap << " index " << i;
    }
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  const PoolWidthGuard pool(4);
  std::vector<int> nested_ok(8, 0);
  parallel_for(nested_ok.size(), [&](std::size_t i) {
    EXPECT_TRUE(in_parallel_region());
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool on_self = true;
    const int width = parallel_for(16, [&](std::size_t j) {
      order.push_back(j);
      on_self = on_self && std::this_thread::get_id() == self;
    });
    bool in_order = order.size() == 16;
    for (std::size_t j = 0; in_order && j < order.size(); ++j) {
      in_order = order[j] == j;
    }
    nested_ok[i] = width == 1 && on_self && in_order ? 1 : 0;
  });
  for (std::size_t i = 0; i < nested_ok.size(); ++i) {
    EXPECT_EQ(nested_ok[i], 1) << i;
  }
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, BusyPoolRunsInlineOnTheCaller) {
  // Another thread holds a batch: a second caller must not wait for the
  // pool, it runs its own indices inline.
  const PoolWidthGuard pool(4);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    parallel_for(2, [&](std::size_t i) {
      if (i == 0) {
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
  expect_runs_inline(0);
  release.store(true);
  holder.join();
  // Released, the pool takes batches again.
  EXPECT_EQ(parallel_for(8, [](std::size_t) {}), 4);
}

TEST(ParallelFor, BusyPoolLoserTakesThePoolOnceFreed) {
  // A caller that lost the pool to another batch runs inline only until
  // that batch ends: its remaining indices then fan out over the pool.
  const PoolWidthGuard pool(4);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> holder_done{false};
  std::thread holder([&] {
    parallel_for(2, [&](std::size_t i) {
      if (i == 0) {
        held.store(true);
        while (!release.load()) {
          std::this_thread::yield();
        }
      }
    });
    holder_done.store(true);
  });
  while (!held.load()) {
    std::this_thread::yield();
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> visits(64, 0);
  bool first_on_caller = false;
  const int width = parallel_for(visits.size(), [&](std::size_t i) {
    if (i == 0) {
      // Still busy: index 0 runs inline. Free the pool before index 1.
      first_on_caller = std::this_thread::get_id() == caller;
      release.store(true);
      while (!holder_done.load()) {
        std::this_thread::yield();
      }
    }
    ++visits[i];
  });
  holder.join();
  EXPECT_TRUE(first_on_caller);
  EXPECT_EQ(width, 4);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, DefaultThreadCountReadsEnvironment) {
  ::setenv("DPIPE_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  ::setenv("DPIPE_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1);  // Falls back to hardware.
  ::unsetenv("DPIPE_THREADS");
  EXPECT_GE(default_thread_count(), 1);
}

// --- ProfileDb interpolation ------------------------------------------------

struct DbFixture {
  ModelDesc model = make_stable_diffusion_v21();
  ClusterSpec cluster = make_p4de_cluster(1);
  AnalyticCostModel cost{cluster.device, NoiseSource(0xD1FF, 0.02)};
  ProfileDb db{model, cost, default_batch_grid()};
  int backbone() const { return model.backbone_ids[0]; }
};

TEST(ProfileDbInterp, ExactGridPointsMatchCostModel) {
  const DbFixture f;
  const int b = f.backbone();
  const int L = f.model.components[b].num_layers();
  for (const double batch : f.db.batch_grid()) {
    for (int l = 0; l < L; l += 7) {
      const LayerDesc& layer = f.model.components[b].layers[l];
      EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, l, batch), f.cost.fwd_ms(layer, batch));
      EXPECT_DOUBLE_EQ(f.db.bwd_ms(b, l, batch), f.cost.bwd_ms(layer, batch));
    }
  }
}

TEST(ProfileDbInterp, OffGridIsLinearBetweenNeighbors) {
  const DbFixture f;
  const int b = f.backbone();
  const std::vector<double>& grid = f.db.batch_grid();
  for (std::size_t g = 0; g + 1 < grid.size(); g += 3) {
    const double lo = grid[g];
    const double hi = grid[g + 1];
    const double mid = lo + 0.375 * (hi - lo);
    const double t = (mid - lo) / (hi - lo);
    const double at_lo = f.db.fwd_ms(b, 0, lo);
    const double at_hi = f.db.fwd_ms(b, 0, hi);
    EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, 0, mid), at_lo + t * (at_hi - at_lo));
  }
}

TEST(ProfileDbInterp, ExtrapolatesLinearlyBeyondGridEnds) {
  const DbFixture f;
  const int b = f.backbone();
  const std::vector<double>& grid = f.db.batch_grid();
  // Above the last grid point: extend the final segment.
  {
    const double lo = grid[grid.size() - 2];
    const double hi = grid.back();
    const double beyond = hi + 2.0 * (hi - lo);
    const double t = (beyond - lo) / (hi - lo);
    const double expect = std::max(
        0.0, f.db.fwd_ms(b, 0, lo) +
                 t * (f.db.fwd_ms(b, 0, hi) - f.db.fwd_ms(b, 0, lo)));
    EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, 0, beyond), expect);
  }
  // Below the first grid point: extend the first segment (clamped at 0).
  {
    const double lo = grid[0];
    const double hi = grid[1];
    const double below = 0.5 * lo;
    const double t = (below - lo) / (hi - lo);
    const double expect = std::max(
        0.0, f.db.fwd_ms(b, 0, lo) +
                 t * (f.db.fwd_ms(b, 0, hi) - f.db.fwd_ms(b, 0, lo)));
    EXPECT_DOUBLE_EQ(f.db.fwd_ms(b, 0, below), expect);
  }
  EXPECT_EQ(f.db.fwd_ms(b, 0, 0.0), 0.0);
  EXPECT_EQ(f.db.fwd_range_ms(b, 0, 4, 0.0), 0.0);
}

TEST(ProfileDbInterp, RangeQueryMatchesPerLayerSum) {
  const DbFixture f;
  const int b = f.backbone();
  const int L = f.model.components[b].num_layers();
  // On-grid, off-grid, and extrapolated batch sizes.
  for (const double batch : {1.0, 5.5, 17.3, 96.0, 400.0}) {
    for (const auto [lo, hi] :
         std::vector<std::pair<int, int>>{{0, L}, {3, 11}, {L / 2, L}}) {
      double fwd_sum = 0.0;
      double bwd_sum = 0.0;
      for (int l = lo; l < hi; ++l) {
        fwd_sum += f.db.fwd_ms(b, l, batch);
        bwd_sum += f.db.bwd_ms(b, l, batch);
      }
      EXPECT_NEAR(f.db.fwd_range_ms(b, lo, hi, batch), fwd_sum,
                  1e-9 * std::max(1.0, fwd_sum));
      EXPECT_NEAR(f.db.bwd_range_ms(b, lo, hi, batch), bwd_sum,
                  1e-9 * std::max(1.0, bwd_sum));
    }
  }
}

// --- StageCostCache ---------------------------------------------------------

PartitionOptions small_partition_opts() {
  PartitionOptions opts;
  opts.num_stages = 4;
  opts.num_microbatches = 8;
  opts.group_size = 8;
  opts.data_parallel_degree = 1;
  opts.microbatch_size = 8.0;
  return opts;
}

TEST(StageCostCache, PartitionWithCacheIsBitIdentical) {
  const DbFixture f;
  const CommModel comm(f.cluster);
  const DpPartitioner partitioner(f.db, comm);
  const PartitionOptions opts = small_partition_opts();
  const PartitionResult plain =
      partitioner.partition_single(f.backbone(), opts);
  StageCostCache cache;
  const PartitionResult cached =
      partitioner.partition_single(f.backbone(), opts, &cache);
  EXPECT_EQ(plain.t0_ms, cached.t0_ms);
  EXPECT_EQ(plain.y_ms, cached.y_ms);
  EXPECT_EQ(plain.upper_bound_ms, cached.upper_bound_ms);
  ASSERT_EQ(plain.stages.size(), cached.stages.size());
  for (std::size_t s = 0; s < plain.stages.size(); ++s) {
    EXPECT_EQ(plain.stages[s].layer_begin, cached.stages[s].layer_begin);
    EXPECT_EQ(plain.stages[s].layer_end, cached.stages[s].layer_end);
    EXPECT_EQ(plain.stages[s].device_ranks, cached.stages[s].device_ranks);
  }
  EXPECT_GT(cache.misses(), 0u);
  // The uniform-replica DP visits each (range, placement) state once, so
  // reuse shows up across passes: a warm re-run is 100% hits.
  const std::size_t cold_misses = cache.misses();
  const PartitionResult warm =
      partitioner.partition_single(f.backbone(), opts, &cache);
  EXPECT_EQ(warm.upper_bound_ms, cached.upper_bound_ms);
  EXPECT_EQ(cache.misses(), cold_misses);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(StageCostCache, StageCostHitReturnsIdenticalFields) {
  const DbFixture f;
  const CommModel comm(f.cluster);
  const DpPartitioner partitioner(f.db, comm);
  const PartitionOptions opts = small_partition_opts();
  StageCostCache cache;
  const StageCost plain =
      partitioner.stage_cost(f.backbone(), 2, 9, 2, 2, opts);
  const StageCost miss = partitioner.stage_cost(f.backbone(), 2, 9, 2, 2,
                                                opts, PipeDirection::kDown,
                                                &cache);
  const StageCost hit = partitioner.stage_cost(f.backbone(), 2, 9, 2, 2,
                                               opts, PipeDirection::kDown,
                                               &cache);
  for (const StageCost& got : {miss, hit}) {
    EXPECT_EQ(got.fwd_ms, plain.fwd_ms);
    EXPECT_EQ(got.bwd_ms, plain.bwd_ms);
    EXPECT_EQ(got.comm_in_ms, plain.comm_in_ms);
    EXPECT_EQ(got.boundary_ms, plain.boundary_ms);
    EXPECT_EQ(got.t0_ms, plain.t0_ms);
    EXPECT_EQ(got.sync_ms, plain.sync_ms);
    EXPECT_EQ(got.comp_ms, plain.comp_ms);
    EXPECT_EQ(got.y_ms, plain.y_ms);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(StageCostCache, RejectsReuseUnderDifferentOptions) {
  const DbFixture f;
  const CommModel comm(f.cluster);
  const DpPartitioner partitioner(f.db, comm);
  StageCostCache cache;
  PartitionOptions opts = small_partition_opts();
  (void)partitioner.stage_cost(f.backbone(), 0, 4, 2, 0, opts,
                               PipeDirection::kDown, &cache);
  opts.microbatch_size = 16.0;  // Different config, same cache: hard error.
  EXPECT_THROW((void)partitioner.stage_cost(f.backbone(), 0, 4, 2, 0, opts,
                                            PipeDirection::kDown, &cache),
               std::logic_error);
}

TEST(StageCostCache, BruteForceOracleUnaffectedByCache) {
  // Small enough for the exhaustive oracle; the cache must not change what
  // either partitioner computes, and DP must still match the oracle.
  ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const AnalyticCostModel cost(cluster.device, NoiseSource(0xD1FF, 0.02));
  const ProfileDb db(model, cost, default_batch_grid());
  const CommModel comm(cluster);
  const DpPartitioner partitioner(db, comm);
  PartitionOptions opts = small_partition_opts();
  // S >= 3 makes the oracle revisit stage ranges across compositions (the
  // same [lo, hi) paired with every split of the remaining layers).
  opts.num_stages = 4;
  opts.group_size = 4;
  const int b = model.backbone_ids[0];
  StageCostCache dp_cache;
  StageCostCache bf_cache;
  const PartitionResult dp = partitioner.partition_single(b, opts, &dp_cache);
  const PartitionResult bf_plain = brute_force_partition(partitioner, b, opts);
  const PartitionResult bf_cached =
      brute_force_partition(partitioner, b, opts, &bf_cache);
  EXPECT_EQ(bf_plain.t0_ms, bf_cached.t0_ms);
  EXPECT_EQ(bf_plain.y_ms, bf_cached.y_ms);
  ASSERT_EQ(bf_plain.stages.size(), bf_cached.stages.size());
  for (std::size_t s = 0; s < bf_plain.stages.size(); ++s) {
    EXPECT_EQ(bf_plain.stages[s].layer_begin, bf_cached.stages[s].layer_begin);
    EXPECT_EQ(bf_plain.stages[s].layer_end, bf_cached.stages[s].layer_end);
  }
  EXPECT_DOUBLE_EQ(dp.upper_bound_ms, bf_cached.upper_bound_ms);
  EXPECT_GT(bf_cache.hits(), 0u);
}

TEST(StageCostCache, BidirectionalWithCacheIsBitIdentical) {
  const ModelDesc model = make_cdm_lsun();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const AnalyticCostModel cost(cluster.device, NoiseSource(0xD1FF, 0.02));
  const ProfileDb db(model, cost, default_batch_grid());
  const CommModel comm(cluster);
  const DpPartitioner partitioner(db, comm);
  const PartitionOptions opts = small_partition_opts();
  const int b0 = model.backbone_ids[0];
  const int b1 = model.backbone_ids[1];
  const BiPartitionResult plain =
      partition_bidirectional(partitioner, b0, b1, opts);
  StageCostCache cache;
  const BiPartitionResult cached =
      partition_bidirectional(partitioner, b0, b1, opts, &cache);
  EXPECT_EQ(plain.t0_ms, cached.t0_ms);
  EXPECT_EQ(plain.y_ms, cached.y_ms);
  EXPECT_EQ(plain.upper_bound_ms, cached.upper_bound_ms);
  ASSERT_EQ(plain.down_stages.size(), cached.down_stages.size());
  ASSERT_EQ(plain.up_stages.size(), cached.up_stages.size());
  for (std::size_t s = 0; s < plain.down_stages.size(); ++s) {
    EXPECT_EQ(plain.down_stages[s].layer_begin,
              cached.down_stages[s].layer_begin);
    EXPECT_EQ(plain.down_stages[s].layer_end, cached.down_stages[s].layer_end);
    EXPECT_EQ(plain.up_stages[s].layer_begin, cached.up_stages[s].layer_begin);
    EXPECT_EQ(plain.up_stages[s].layer_end, cached.up_stages[s].layer_end);
  }
  EXPECT_GT(cache.hits(), 0u);
}

// --- Planner search parity --------------------------------------------------

Plan plan_with(const ModelDesc& model, int threads, bool pruning,
               StageCostStore* store = nullptr) {
  PlannerOptions opts;
  opts.global_batch = 128.0;
  opts.search_threads = threads;
  opts.enable_pruning = pruning;
  opts.cache_store = store;
  const Planner planner(model, make_p4de_cluster(1), opts);
  return planner.plan();
}

void expect_plans_identical(const Plan& a, const Plan& b) {
  EXPECT_TRUE(a.config == b.config);
  ASSERT_EQ(a.explored.size(), b.explored.size());
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    EXPECT_TRUE(a.explored[i] == b.explored[i]) << "explored entry " << i;
  }
  EXPECT_EQ(program_to_string(a.program), program_to_string(b.program));
}

/// Fingerprint of everything a plan exposes to its consumers: the lowered
/// program's text plus every explored config, doubles as exact bit patterns.
std::string plan_fingerprint(const Plan& plan) {
  std::ostringstream out;
  out << program_to_string(plan.program);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const PlanConfig& c : plan.explored) {
    out << c.num_stages << ' ' << c.num_microbatches << ' ' << c.group_size
        << ' ' << c.data_parallel_degree << ' '
        << bits(c.predicted_iteration_ms) << ' '
        << bits(c.planned_bubble_ratio) << ' ' << c.memory_feasible << ' '
        << c.vstages << '\n';
  }
  return fingerprint_bytes(out.str()).hex();
}

TEST(PlannerSearch, ZooPlansMatchRecordedFingerprints) {
  // Golden plans: every zoo model on one and two machines, under the 1F1B
  // and interleaved (V in {1, 2, 4}) families, with and without a
  // StageCostStore. Any change to the partition DP, the schedule builders,
  // the filler or the lowering that moves a single bit of a plan, an
  // explored config or the stage-cost cache traffic fails here. (The
  // two-machine cdm_imagenet_full search is left out to keep this fast.)
  struct Golden {
    const char* model;
    int machines;
    bool interleaved;
    bool store;
    const char* fingerprint;
    std::size_t cache_hits;
    std::size_t cache_misses;
  };
  const Golden goldens[] = {
      {"sd21", 1, false, false, "ca6c05b1284264cfd0aff3d87f7d5c4a", 0, 0},
      {"sd21", 1, false, true, "ca6c05b1284264cfd0aff3d87f7d5c4a", 88, 13984},
      {"sd21", 1, true, false, "416b7a63f62bb01befa089007b9af12d", 0, 0},
      {"sd21", 1, true, true, "416b7a63f62bb01befa089007b9af12d", 296, 44520},
      {"sd21", 2, false, false, "9af5d1b714a33b3f0c67d765704eadaf", 0, 0},
      {"sd21", 2, false, true, "9af5d1b714a33b3f0c67d765704eadaf", 144, 24264},
      {"sd21", 2, true, false, "4a1df6029537070811d438206cec2a00", 0, 0},
      {"sd21", 2, true, true, "4a1df6029537070811d438206cec2a00", 352, 54800},
      {"controlnet", 1, false, false, "fa9370fecc0a47669099441dafbe2cf3", 0, 0},
      {"controlnet", 1, false, true, "fa9370fecc0a47669099441dafbe2cf3", 88, 13984},
      {"controlnet", 1, true, false, "1673808ad2563ceec5a56a6e472d7787", 0, 0},
      {"controlnet", 1, true, true, "1673808ad2563ceec5a56a6e472d7787", 296, 44520},
      {"controlnet", 2, false, false, "3df517cb5d5cb89444b78a0674194fb5", 0, 0},
      {"controlnet", 2, false, true, "3df517cb5d5cb89444b78a0674194fb5", 144, 24264},
      {"controlnet", 2, true, false, "fa7584baaa2b7096484aba153a77cf02", 0, 0},
      {"controlnet", 2, true, true, "fa7584baaa2b7096484aba153a77cf02", 352, 54800},
      {"cdm_lsun", 1, false, false, "e64d82df2e4c3d184f27db01f61783ce", 331904, 18488},
      {"cdm_lsun", 1, false, true, "e64d82df2e4c3d184f27db01f61783ce", 331904, 18488},
      {"cdm_lsun", 1, true, false, "e64d82df2e4c3d184f27db01f61783ce", 331904, 18488},
      {"cdm_lsun", 1, true, true, "e64d82df2e4c3d184f27db01f61783ce", 331904, 18488},
      {"cdm_lsun", 2, false, false, "513cdae3ac0021b0517b59a334d61ba1", 566424, 31800},
      {"cdm_lsun", 2, false, true, "513cdae3ac0021b0517b59a334d61ba1", 566424, 31800},
      {"cdm_lsun", 2, true, false, "513cdae3ac0021b0517b59a334d61ba1", 566424, 31800},
      {"cdm_lsun", 2, true, true, "513cdae3ac0021b0517b59a334d61ba1", 566424, 31800},
      {"cdm_imagenet", 1, false, false, "de59a9204d7445d9ff8c52879b6452da", 567168, 25944},
      {"cdm_imagenet", 1, false, true, "de59a9204d7445d9ff8c52879b6452da", 567168, 25944},
      {"cdm_imagenet", 1, true, false, "de59a9204d7445d9ff8c52879b6452da", 567168, 25944},
      {"cdm_imagenet", 1, true, true, "de59a9204d7445d9ff8c52879b6452da", 567168, 25944},
      {"cdm_imagenet", 2, false, false, "3117c4c97b1e9c979183e9ecea77afc1", 976824, 44952},
      {"cdm_imagenet", 2, false, true, "3117c4c97b1e9c979183e9ecea77afc1", 976824, 44952},
      {"cdm_imagenet", 2, true, false, "3117c4c97b1e9c979183e9ecea77afc1", 976824, 44952},
      {"cdm_imagenet", 2, true, true, "3117c4c97b1e9c979183e9ecea77afc1", 976824, 44952},
      {"cdm_imagenet_full", 1, false, false, "c072da63c3a40d3e852012dc35936d8b", 1474368, 53384},
      {"cdm_imagenet_full", 1, false, true, "c072da63c3a40d3e852012dc35936d8b", 1474368, 53384},
      {"cdm_imagenet_full", 1, true, false, "c072da63c3a40d3e852012dc35936d8b", 1474368, 53384},
      {"cdm_imagenet_full", 1, true, true, "c072da63c3a40d3e852012dc35936d8b", 1474368, 53384},
      {"sdxl", 1, false, false, "f6f380f5302b418ae0a4aba9a2b2d516", 0, 0},
      {"sdxl", 1, false, true, "f6f380f5302b418ae0a4aba9a2b2d516", 88, 13984},
      {"sdxl", 1, true, false, "8bc4d9861d2fcc862c0054c55be8cb02", 0, 0},
      {"sdxl", 1, true, true, "8bc4d9861d2fcc862c0054c55be8cb02", 296, 44520},
      {"sdxl", 2, false, false, "aa6dbe69e57f28344bc9f82ff48ffb13", 0, 0},
      {"sdxl", 2, false, true, "aa6dbe69e57f28344bc9f82ff48ffb13", 144, 24264},
      {"sdxl", 2, true, false, "7f83839e232b3043f1bf47d6d9bbf326", 0, 0},
      {"sdxl", 2, true, true, "7f83839e232b3043f1bf47d6d9bbf326", 352, 54800},
      {"dit", 1, false, false, "fff2052552a7de8d50733d41f1055898", 0, 0},
      {"dit", 1, false, true, "fff2052552a7de8d50733d41f1055898", 88, 13984},
      {"dit", 1, true, false, "20e9588adf96027caadde9649bf84be6", 0, 0},
      {"dit", 1, true, true, "20e9588adf96027caadde9649bf84be6", 296, 44520},
      {"dit", 2, false, false, "b03a305ed6fc0a1ce1355ee3103bf9c6", 0, 0},
      {"dit", 2, false, true, "b03a305ed6fc0a1ce1355ee3103bf9c6", 144, 24264},
      {"dit", 2, true, false, "e66af276cd57693c9204f5ff4bd1449d", 0, 0},
      {"dit", 2, true, true, "e66af276cd57693c9204f5ff4bd1449d", 352, 54800},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message()
                 << g.model << " x" << g.machines
                 << (g.interleaved ? " interleaved" : " 1f1b")
                 << (g.store ? " store" : ""));
    PlannerOptions opts;
    opts.global_batch = 256.0;
    if (g.interleaved) {
      opts.schedule_family = ScheduleFamily::kInterleaved;
      opts.vstage_candidates = {1, 2, 4};
    }
    StageCostStore store;
    opts.cache_store = g.store ? &store : nullptr;
    const Plan plan = Planner(make_model_by_name(g.model),
                              make_p4de_cluster(g.machines), opts)
                          .plan();
    EXPECT_EQ(plan_fingerprint(plan), g.fingerprint);
    EXPECT_EQ(plan.search.cache_hits, g.cache_hits);
    EXPECT_EQ(plan.search.cache_misses, g.cache_misses);
  }
}

TEST(PlannerSearch, BitIdenticalAcrossThreadCounts) {
  const PoolWidthGuard pool(2);
  const ModelDesc model = make_stable_diffusion_v21();
  const Plan seq = plan_with(model, 1, false);
  const Plan two = plan_with(model, 2, false);
  const Plan auto_sized = plan_with(model, 0, false);
  expect_plans_identical(seq, two);
  expect_plans_identical(seq, auto_sized);
  EXPECT_EQ(two.search.threads, 2);
  EXPECT_EQ(seq.search.threads, 1);
}

TEST(PlannerSearch, BitIdenticalWithAndWithoutStageCache) {
  // Without a store, only the bidirectional DP gets a per-evaluation cache:
  // an SD search makes no cache lookups at all, a CDM search hits it. A
  // store-backed search memoizes every combo. The plan must not notice.
  const ModelDesc sd = make_stable_diffusion_v21();
  const Plan sd_plain = plan_with(sd, 4, false);
  EXPECT_EQ(sd_plain.search.cache_hits, 0u);
  EXPECT_EQ(sd_plain.search.cache_misses, 0u);
  StageCostStore sd_store;
  expect_plans_identical(sd_plain, plan_with(sd, 4, false, &sd_store));

  const ModelDesc cdm = make_cdm_lsun();
  const Plan cdm_plain = plan_with(cdm, 4, false);
  EXPECT_GT(cdm_plain.search.cache_hits, 0u);
  StageCostStore cdm_store;
  expect_plans_identical(cdm_plain, plan_with(cdm, 4, false, &cdm_store));
}

TEST(PlannerSearch, CdmBidirectionalParity) {
  const ModelDesc model = make_cdm_lsun();
  const Plan seq = plan_with(model, 1, false);
  const Plan par = plan_with(model, 4, false);
  expect_plans_identical(seq, par);
  EXPECT_GT(par.search.cache_hits, 0u);
}

TEST(PlannerSearch, PruningKeepsWinnerAndProgramExact) {
  for (const ModelDesc& model :
       {make_stable_diffusion_v21(), make_cdm_lsun()}) {
    const Plan baseline = plan_with(model, 2, false);
    const Plan pruned = plan_with(model, 2, true);
    // The winner and its lowered program are exactly preserved.
    EXPECT_TRUE(baseline.config == pruned.config);
    EXPECT_EQ(program_to_string(baseline.program),
              program_to_string(pruned.program));
    // Explored with pruning is an in-order subsequence of the baseline.
    std::size_t j = 0;
    for (const PlanConfig& c : pruned.explored) {
      while (j < baseline.explored.size() && !(baseline.explored[j] == c)) {
        ++j;
      }
      ASSERT_LT(j, baseline.explored.size())
          << "pruned run explored a config the baseline did not";
      ++j;
    }
    // Every omitted config is provably no better than the winner.
    for (const PlanConfig& c : baseline.explored) {
      bool kept = false;
      for (const PlanConfig& p : pruned.explored) {
        if (p == c) {
          kept = true;
          break;
        }
      }
      if (!kept && c.memory_feasible) {
        EXPECT_GE(c.predicted_iteration_ms,
                  baseline.config.predicted_iteration_ms);
      }
    }
    EXPECT_EQ(pruned.search.combos_evaluated + pruned.search.combos_pruned,
              pruned.search.combos_total);
  }
}

TEST(PlannerSearch, DefaultSearchUsesEveryPoolThread) {
  // The default search fans every grid out over the whole pool, small
  // single-backbone grids included, and still selects the sequential plan.
  const int width = pool_width();
  for (const ModelDesc& model : {make_stable_diffusion_v21(), make_cdm_lsun()}) {
    const Plan fanned = plan_with(model, 0, false);
    EXPECT_EQ(fanned.search.threads, width);
    expect_plans_identical(fanned, plan_with(model, 1, false));
  }
}

TEST(PlannerSearch, PlanInsidePoolBatchRunsInline) {
  // A plan started from inside a pool batch cannot fan out again: its grid
  // runs inline on that thread and still selects the sequential plan.
  const PoolWidthGuard pool(4);
  const ModelDesc model = make_stable_diffusion_v21();
  Plan nested;
  parallel_for(2, [&](std::size_t i) {
    if (i == 0) {
      nested = plan_with(model, 0, false);
    }
  });
  EXPECT_EQ(nested.search.threads, 1);
  expect_plans_identical(nested, plan_with(model, 1, false));
}

TEST(PlannerSearch, StageCostStoreMakesSecondPlanFullyWarm) {
  // A persistent StageCostStore shared across Planner instances: the
  // second plan over the same grid re-derives every stage cost from the
  // store (zero misses) and still produces the identical plan.
  const ModelDesc model = make_stable_diffusion_v21();
  StageCostStore store;
  PlannerOptions opts;
  opts.global_batch = 128.0;
  opts.search_threads = 2;
  opts.cache_store = &store;
  const Plan cold = Planner(model, make_p4de_cluster(1), opts).plan();
  EXPECT_GT(cold.search.cache_misses, 0u);
  EXPECT_GT(store.size(), 0u);
  const Plan warm = Planner(model, make_p4de_cluster(1), opts).plan();
  EXPECT_EQ(warm.search.cache_misses, 0u);
  EXPECT_GT(warm.search.cache_hits, 0u);
  expect_plans_identical(cold, warm);
  // And the store-backed plan matches a storeless one bit for bit.
  PlannerOptions plain = opts;
  plain.cache_store = nullptr;
  expect_plans_identical(cold,
                         Planner(model, make_p4de_cluster(1), plain).plan());
}

TEST(PlannerSearch, RuntimeBindableRestrictionsFilterTheGrid) {
  const ModelDesc model = make_stable_diffusion_v21();
  PlannerOptions opts;
  opts.global_batch = 128.0;
  opts.require_bindable_placement = true;
  opts.integer_microbatches = true;
  const Plan plan = Planner(model, make_p4de_cluster(1), opts).plan();
  for (const PlanConfig& c : plan.explored) {
    // One device per stage: D == S, so dp = world / S.
    EXPECT_EQ(c.group_size, c.num_stages);
    // Whole-sample micro-batches.
    const double micro =
        opts.global_batch / c.data_parallel_degree / c.num_microbatches;
    EXPECT_EQ(micro, std::floor(micro));
  }
  // The restriction strictly shrinks the explored grid.
  PlannerOptions full = opts;
  full.require_bindable_placement = false;
  full.integer_microbatches = false;
  const Plan wide = Planner(model, make_p4de_cluster(1), full).plan();
  EXPECT_GT(wide.explored.size(), plan.explored.size());
}

TEST(PlannerSearch, StatsAndWallTimesPopulated) {
  // CDM: without a store, only the bidirectional DP reports cache traffic.
  const Plan plan = plan_with(make_cdm_lsun(), 0, false);
  EXPECT_GE(plan.search.threads, 1);
  EXPECT_GT(plan.search.combos_total, 0);
  EXPECT_EQ(plan.search.combos_evaluated, plan.search.combos_total);
  EXPECT_EQ(plan.search.combos_pruned, 0);
  EXPECT_GT(plan.search.search_wall_ms, 0.0);
  EXPECT_GT(plan.partitioning_wall_ms, 0.0);
  EXPECT_GT(plan.filling_wall_ms, 0.0);
  EXPECT_GT(plan.search.cache_misses, 0u);
}

}  // namespace
}  // namespace dpipe
