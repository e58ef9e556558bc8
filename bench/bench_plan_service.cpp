// Plan service performance: a seeded synthetic request storm against a
// PlanService, at configurable hot/cold mixtures. Reports sustained QPS and
// p50/p99 latency split by cold (planner ran) vs warm (whole-plan cache
// hit), plus the per-testbed warm speedup — the headline being that a warm
// answer for a CDM cascade is orders of magnitude faster than planning it.
// Each testbed's cold latency is an interleaved best-of-rounds over fresh
// services, so one slow first request cannot set it.
//
// Writes BENCH_service.json in the current directory (run from the repo
// root; pass an output path as argv[1] to override), headed by
// bench::provenance_json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/service.h"

namespace {

using namespace dpipe;

using Clock = std::chrono::steady_clock;

constexpr const char* kTimingIdiom =
    "cold: interleaved best-of-rounds, one cold plan per testbed per round, "
    "each on a fresh service, per-testbed minimum over 31/15/5 rounds by "
    "plan cost; warm: best of 10 repeats; storms: 200 seeded requests after "
    "pre-planning every testbed, each request timed";

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Testbed {
  std::string name;
  PlanRequest request;
};

std::vector<Testbed> make_testbeds() {
  const auto testbed = [](std::string name, ModelDesc model, int machines,
                          double batch) {
    Testbed t;
    t.name = std::move(name);
    t.request.model = std::move(model);
    t.request.cluster = make_p4de_cluster(machines);
    t.request.options.global_batch = batch;
    return t;
  };
  return {
      testbed("sd_v21_x1", make_stable_diffusion_v21(), 1, 256.0),
      testbed("sd_v21_x2", make_stable_diffusion_v21(), 2, 512.0),
      testbed("controlnet_x1", make_controlnet_v10(), 1, 256.0),
      testbed("cdm_x1", make_cdm_lsun(), 1, 128.0),
      testbed("cdm_x2", make_cdm_lsun(), 2, 256.0),
  };
}

/// Cold-vs-warm latency per testbed.
struct ColdWarmRow {
  std::string config;
  double cold_ms = 0.0;  ///< First request on a fresh service: the full
                         ///< planner pipeline (best of rounds).
  double warm_ms = 0.0;  ///< Repeat request: whole-plan cache hit.
  double warm_speedup = 0.0;
};

/// One request-storm run at a fixed hot/cold mixture.
struct StormRow {
  double hot_ratio = 0.0;  ///< Fraction of requests aimed at already-hot
                           ///< testbeds (the rest force cold plans by
                           ///< perturbing the batch size).
  std::size_t requests = 0;
  std::size_t cache_hits = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double cold_p50_ms = 0.0;
  double cold_p99_ms = 0.0;
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Times every testbed's cold plan round-robin, one plan each per round on
/// a fresh service, taking per-testbed minima: interleaving keeps slow
/// background-load drift from biasing one testbed's block of repetitions,
/// and the first round also absorbs one-time process costs. Cheap rounds
/// get more repetitions because scheduler noise is proportionally larger
/// for them. Warm latency is then the best of 10 repeats on the last
/// round's services.
std::vector<ColdWarmRow> run_cold_warm(const std::vector<Testbed>& testbeds) {
  std::vector<ColdWarmRow> rows(testbeds.size());
  std::vector<std::unique_ptr<PlanService>> services(testbeds.size());
  int rounds = 5;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < testbeds.size(); ++i) {
      services[i] = std::make_unique<PlanService>();
      const auto start = Clock::now();
      (void)services[i]->plan(testbeds[i].request);
      const double ms = ms_since(start);
      if (round == 0 || ms < rows[i].cold_ms) {
        rows[i].cold_ms = ms;
      }
    }
    if (round == 0) {
      const double slowest =
          std::max_element(rows.begin(), rows.end(),
                           [](const ColdWarmRow& a, const ColdWarmRow& b) {
                             return a.cold_ms < b.cold_ms;
                           })
              ->cold_ms;
      rounds = slowest < 40.0 ? 31 : (slowest < 250.0 ? 15 : 5);
    }
  }
  for (std::size_t i = 0; i < testbeds.size(); ++i) {
    const Testbed& t = testbeds[i];
    ColdWarmRow& row = rows[i];
    row.config = t.name;
    row.warm_ms = 1e300;
    for (int rep = 0; rep < 10; ++rep) {
      const auto start = Clock::now();
      bool hit = false;
      (void)services[i]->plan(t.request, &hit);
      row.warm_ms = std::min(row.warm_ms, ms_since(start));
      if (!hit) {
        std::fprintf(stderr, "FATAL: %s: repeat request missed the cache\n",
                     t.name.c_str());
        std::exit(1);
      }
    }
    row.warm_speedup = row.cold_ms / row.warm_ms;
  }
  return rows;
}

StormRow run_storm(const std::vector<Testbed>& testbeds, double hot_ratio,
                   std::size_t num_requests, std::uint32_t seed) {
  PlanService service;
  // Pre-plan every testbed so "hot" requests genuinely hit.
  for (const Testbed& t : testbeds) {
    (void)service.plan(t.request);
  }

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, testbeds.size() - 1);

  StormRow row;
  row.hot_ratio = hot_ratio;
  row.requests = num_requests;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  // Distinct batch sizes make distinct fingerprints (kept near the
  // testbeds' real batches so every cold request stays feasible).
  double next_cold_batch = 264.0;
  const auto storm_start = Clock::now();
  for (std::size_t i = 0; i < num_requests; ++i) {
    PlanRequest request = testbeds[pick(rng)].request;
    if (coin(rng) >= hot_ratio) {
      // Cold request: a batch size the service has never seen.
      request.options.global_batch = next_cold_batch;
      next_cold_batch += 8.0;
    }
    const auto start = Clock::now();
    bool hit = false;
    (void)service.plan(request, &hit);
    const double ms = ms_since(start);
    (hit ? warm_ms : cold_ms).push_back(ms);
    if (hit) {
      ++row.cache_hits;
    }
  }
  row.wall_ms = ms_since(storm_start);
  row.qps = 1000.0 * static_cast<double>(num_requests) / row.wall_ms;
  row.cold_p50_ms = percentile(cold_ms, 0.50);
  row.cold_p99_ms = percentile(cold_ms, 0.99);
  row.warm_p50_ms = percentile(warm_ms, 0.50);
  row.warm_p99_ms = percentile(warm_ms, 0.99);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_service.json");
  const std::vector<Testbed> testbeds = make_testbeds();

  bench::header("Plan service: whole-plan cache, cold vs warm");
  std::printf("%-16s %10s %10s %12s\n", "config", "cold_ms", "warm_ms",
              "warm_speedup");
  const std::vector<ColdWarmRow> cold_warm = run_cold_warm(testbeds);
  for (const ColdWarmRow& r : cold_warm) {
    std::printf("%-16s %10.1f %10.4f %11.0fx\n", r.config.c_str(), r.cold_ms,
                r.warm_ms, r.warm_speedup);
  }

  bench::header("Plan service: seeded request storm (hot/cold mixtures)");
  std::printf("%-10s %9s %9s %9s %9s %9s %9s %9s %9s\n", "hot_ratio",
              "requests", "hits", "wall_ms", "qps", "cold_p50", "cold_p99",
              "warm_p50", "warm_p99");
  std::vector<StormRow> storms;
  for (const double hot_ratio : {0.5, 0.9}) {
    const StormRow row = run_storm(testbeds, hot_ratio, 200, 0xD1FF);
    std::printf("%-10.2f %9zu %9zu %9.1f %9.1f %9.2f %9.2f %9.4f %9.4f\n",
                row.hot_ratio, row.requests, row.cache_hits, row.wall_ms,
                row.qps, row.cold_p50_ms, row.cold_p99_ms, row.warm_p50_ms,
                row.warm_p99_ms);
    storms.push_back(row);
  }

  std::ofstream json(out_path);
  json << "{\n  \"provenance\": " << bench::provenance_json(kTimingIdiom)
       << ",\n  \"cold_warm\": [\n";
  for (std::size_t i = 0; i < cold_warm.size(); ++i) {
    const ColdWarmRow& r = cold_warm[i];
    json << "    {\"config\": \"" << r.config
         << "\", \"cold_ms\": " << r.cold_ms << ", \"warm_ms\": " << r.warm_ms
         << ", \"warm_speedup\": " << r.warm_speedup << "}"
         << (i + 1 < cold_warm.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"storms\": [\n";
  for (std::size_t i = 0; i < storms.size(); ++i) {
    const StormRow& r = storms[i];
    json << "    {\"hot_ratio\": " << r.hot_ratio
         << ", \"requests\": " << r.requests
         << ", \"cache_hits\": " << r.cache_hits
         << ", \"wall_ms\": " << r.wall_ms << ", \"qps\": " << r.qps
         << ", \"cold_p50_ms\": " << r.cold_p50_ms
         << ", \"cold_p99_ms\": " << r.cold_p99_ms
         << ", \"warm_p50_ms\": " << r.warm_p50_ms
         << ", \"warm_p99_ms\": " << r.warm_p99_ms << "}"
         << (i + 1 < storms.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
