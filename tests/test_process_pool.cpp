// The process pool is the only source of host threads in the library: once
// the first plan has built it, planning starts no thread — not for
// sequential plan-service misses, not for concurrent plan() callers, not for
// an elastic re-plan.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "fault/elastic.h"
#include "model/zoo.h"
#include "runtime/ddpm.h"
#include "service/service.h"

namespace dpipe {
namespace {

namespace fs = std::filesystem;

const fs::path kTasksDir = "/proc/self/task";

/// The ids of the process's live threads (a joined thread's entry can
/// outlive pthread_join briefly, so ids are compared, never counts).
std::set<std::string> thread_ids() {
  std::set<std::string> ids;
  for (const fs::directory_entry& task : fs::directory_iterator(kTasksDir)) {
    ids.insert(task.path().filename().string());
  }
  return ids;
}

/// The number of threads started while `work` ran, not counting the
/// sampling thread itself.
int threads_started_during(const std::function<void()>& work) {
  const std::set<std::string> before = thread_ids();
  std::atomic<bool> stop{false};
  std::set<std::string> started;  // Written by the monitor only.
  std::thread monitor([&] {
    do {  // Samples at least once, however late the monitor starts.
      for (const std::string& id : thread_ids()) {
        if (before.count(id) == 0) {
          started.insert(id);
        }
      }
      std::this_thread::yield();
    } while (!stop.load());
  });
  try {
    work();
  } catch (...) {
    stop.store(true);
    monitor.join();
    throw;
  }
  stop.store(true);
  monitor.join();
  return static_cast<int>(started.size()) - 1;
}

/// A cold-plan request: distinct batches give distinct fingerprints.
PlanRequest sd_request(double global_batch) {
  PlanRequest request;
  request.model = make_stable_diffusion_v21();
  request.cluster = make_p4de_cluster(1);
  request.options.global_batch = global_batch;
  return request;
}

TEST(ProcessPool, PlanningCreatesNoThreads) {
  std::error_code ec;
  if (!fs::is_directory(kTasksDir, ec)) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  struct PoolWidthGuard {
    PoolWidthGuard() { set_pool_width(4); }
    ~PoolWidthGuard() { set_pool_width(0); }
  } const pool;

  PlanService service;
  bool hit = true;
  (void)service.plan(sd_request(128.0), &hit);  // Warm-up: builds the pool.
  ASSERT_FALSE(hit);

  // Sequential misses.
  EXPECT_EQ(threads_started_during([&] {
              for (const double batch : {160.0, 192.0, 224.0}) {
                (void)service.plan(sd_request(batch));
              }
            }),
            0);

  // Concurrent callers on distinct cold requests: only the callers
  // themselves are new threads.
  constexpr int kCallers = 4;
  EXPECT_LE(threads_started_during([&] {
              std::vector<std::thread> callers;
              for (int c = 0; c < kCallers; ++c) {
                callers.emplace_back([&, c] {
                  (void)service.plan(sd_request(256.0 + 32.0 * c));
                });
              }
              for (std::thread& caller : callers) {
                caller.join();
              }
            }),
            kCallers);
  EXPECT_EQ(service.stats().planner_runs, 1u + 3u + kCallers);

  // Elastic re-plans for shrunk worlds.
  const rt::DdpmProblem problem(rt::DdpmConfig{});
  rt::ElasticOptions options;
  options.config.num_stages = 2;
  options.config.num_microbatches = 2;
  options.config.data_parallel_degree = 2;
  options.config.global_batch = 8;
  options.config.checkpoint_interval = 2;
  rt::ElasticRecoveryController controller(problem, options);
  EXPECT_EQ(threads_started_during([&] {
              for (const int world : {3, 2}) {
                (void)controller.plan_for_world(world);
              }
            }),
            0);
}

}  // namespace
}  // namespace dpipe
