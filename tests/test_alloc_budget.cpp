// Heap-allocation budgets, counted by a replacement global operator new.
//
// This is its own executable (dpipe_alloc_tests) because replacing
// operator new is process-wide: the counter must see every allocation of
// the code under test and nothing else may own the allocator. Sanitizer
// builds replace operator new themselves, so CMake builds this only when
// DPIPE_SANITIZE is empty.
//
// The budgets are regression ceilings, not targets: a passing check must
// allocate nothing, and the steady-state training iteration and the cold
// plan stay under a fixed count that later work drives toward zero.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/error.h"
#include "core/planner/planner.h"
#include "model/zoo.h"
#include "profiler/cost_model.h"
#include "profiler/profile_db.h"
#include "runtime/ddpm.h"
#include "runtime/interpreter.h"
#include "runtime/pipeline_exec.h"
#include "runtime/tensor.h"
#include "service/plan_store.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};  ///< Largest single request seen.

void count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (largest < size &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t size) {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count(size);
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  return posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0 ? p
                                                                  : nullptr;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

// The deletes pair with the mallocs above; GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace dpipe {
namespace {

/// Heap allocations made, on any thread, while `body` runs.
template <typename Body>
std::int64_t allocations_during(Body&& body) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, CounterSeesOperatorNew) {
  const std::int64_t n = allocations_during([] {
    auto* v = new std::string(64, 'x');
    delete v;
  });
  EXPECT_EQ(n, 2);  // The string object and its heap buffer.
}

TEST(AllocBudget, PassingChecksAllocateNothing) {
  // The condition is read through a volatile so the compiler cannot fold a
  // passing check away; the messages are the shapes library sites use.
  volatile int positive = 1;
  const std::string key = "field_name_that_spills_the_small_buffer";
  const std::int64_t n = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      DPIPE_REQUIRE(positive > 0,
                    "a message longer than the small-string buffer");
      DPIPE_REQUIRE(positive > 0,
                    "malformed instruction field, expected " + key);
      DPIPE_ENSURE(positive > 0, std::string(key) + ": tensor shape mismatch");
    }
  });
  EXPECT_EQ(n, 0);
}

TEST(AllocBudget, TensorAtOnValidIndicesAllocatesNothing) {
  rt::Tensor t = rt::Tensor::zeros({4, 8});
  float sum = 0.0f;
  const std::int64_t n = allocations_during([&] {
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 8; ++c) {
        t.at(r, c) = static_cast<float>(r + c);
        sum += static_cast<const rt::Tensor&>(t).at(r, c);
      }
    }
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(sum, 0.0f);
}

TEST(AllocBudget, ProfileDbRangeQueriesAllocateNothing) {
  const ModelDesc model = make_stable_diffusion_v21();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const ProfileDb db(
      model, AnalyticCostModel(cluster.device, NoiseSource(0xD1FF)),
      default_batch_grid());
  const int backbone = model.backbone_ids.front();
  const int layers = model.components[backbone].num_layers();
  double total = 0.0;
  const std::int64_t n = allocations_during([&] {
    for (int lo = 0; lo < layers; ++lo) {
      total += db.fwd_range_ms(backbone, lo, layers, 12.0);
      total += db.bwd_range_ms(backbone, 0, lo + 1, 7.5);
    }
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(total, 0.0);
}

TEST(AllocBudget, CheckpointHeadersAllocateOnlyWhatIsRead) {
  // Headers claiming a 30000 x 30000 tensor (3.4 GB) or a 2^20-tensor list
  // (48 MB of tensor handles), followed by no payload, must be rejected
  // without ever requesting the claimed size.
  const std::string prefix =
      "dpipe-checkpoint v1\niteration 0\nglobal_batch 1\n"
      "data_parallel_degree 1\nreplica_divergence 0\nlosses 0\n"
      "adam 0 t 0\npending_cond ";
  for (const char* claim : {"1\ntensor 2 30000 30000\n", "1048576\n"}) {
    SCOPED_TRACE(claim);
    std::stringstream bad(prefix + claim);
    g_largest.store(0);
    EXPECT_THROW((void)rt::load_checkpoint(bad), std::invalid_argument);
    EXPECT_LT(g_largest.load(), std::size_t{1} << 20);
  }
}

TEST(AllocBudget, PlanEntryHeadersAllocateOnlyWhatIsRead) {
  // Plan entries whose headers claim a 3 GB request block, 500M device
  // ranks or 60M explored configs, followed by (almost) no payload, must be
  // rejected without ever requesting the claimed size; a number too large
  // for its field must be rejected before it is cast.
  const std::string hex(32, '0');
  const std::string head = "dpipe-plan v1\nfingerprint " + hex +
                           "\nmodel_fingerprint " + hex +
                           "\ncluster_fingerprint " + hex + "\n";
  const std::string popts =
      head + "request_bytes 0\nconfig s=2 m=4 d=2 dp=1 t=1 br=0 mem=1 v=1\n"
             "popts s=2 m=4 d=2 dp=1 mb=8 sc=0 scp=0.5 fur=1 ccf=1 sds=0 "
             "stride=0 ";
  for (const std::string& claim :
       {head + "request_bytes 3000000000\nabc",
        popts + "ranks=500000000\n", popts + "ranks=1e300\n",
        popts + "ranks=0\nexplored 60000000\n"}) {
    SCOPED_TRACE(claim);
    std::istringstream bad(claim);
    g_largest.store(0);
    EXPECT_THROW((void)load_plan_entry(bad), std::invalid_argument);
    EXPECT_LT(g_largest.load(), std::size_t{1} << 20);
  }
}

// dpbench's train_small configuration (the repository's example trainer):
// S = 3, M = 4, dp = 2, batch 32, self-conditioning, 1F1B.
TEST(AllocBudget, SteadyStateTrainingIteration) {
  constexpr int kWarmup = 8;
  constexpr int kTimed = 64;
  constexpr std::int64_t kBudgetPerIteration = 1000;

  rt::DdpmConfig ddpm;
  ddpm.seed = 1;
  ddpm.self_conditioning = true;
  ddpm.self_cond_prob = 0.5;
  rt::PipelineRtConfig config;
  config.num_stages = 3;
  config.num_microbatches = 4;
  config.data_parallel_degree = 2;
  config.cross_iteration = true;
  config.global_batch = 32;
  config.lr = 0.2f;
  const rt::DdpmProblem problem(ddpm);
  rt::TrainerLoweringSpec spec;
  spec.num_stages = config.num_stages;
  spec.num_microbatches = config.num_microbatches;
  spec.data_parallel_degree = config.data_parallel_degree;
  spec.global_batch = config.global_batch;
  spec.cross_iteration = config.cross_iteration;
  spec.num_modules = static_cast<int>(problem.make_backbone()->size());
  const rt::TrainerLowering lowering = rt::lower_trainer_program(spec);
  rt::PipelineTrainer trainer(problem, config, lowering.program);
  trainer.train(kWarmup);

  const std::int64_t n = allocations_during([&] {
    for (int i = 0; i < kTimed; ++i) {
      trainer.train(1);
    }
  });
  const std::int64_t per_iteration = n / kTimed;
  RecordProperty("allocations_per_iteration", std::to_string(per_iteration));
  EXPECT_LE(per_iteration, kBudgetPerIteration);
}

TEST(AllocBudget, OneThreadColdPlanSdxl) {
  constexpr std::int64_t kBudget = 200000;

  PlannerOptions options;
  options.global_batch = 128.0;
  options.search_threads = 1;
  const ModelDesc model = make_sdxl_base();
  const ClusterSpec cluster = make_p4de_cluster(1);
  const std::int64_t n = allocations_during([&] {
    const Planner planner(model, cluster, options);
    const Plan plan = planner.plan();
    EXPECT_GT(plan.config.predicted_iteration_ms, 0.0);
  });
  RecordProperty("allocations", std::to_string(n));
  EXPECT_LE(n, kBudget);
}

}  // namespace
}  // namespace dpipe
