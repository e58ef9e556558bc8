#pragma once

#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"

namespace dpbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Timed closed-loop duration.
};

/// train_small / train_wide: closed-loop PipelineTrainer::train(1) calls.
void run_train(const RunOptions& opts, Tracer& tracer, Report& report);

/// plan_mix: closed-loop Zipf stream of PlanService::plan requests.
void run_plan_mix(const RunOptions& opts, Tracer& tracer, Report& report);

}  // namespace dpbench
