// dpbench: runs one benchmark workload against the dpipe library's public
// API and prints its report as one JSON object on the last stdout line.
//
//   dpbench --workload train_small|train_wide|plan_mix --seed N
//           --seconds S --trace 0|1 [--trace-out PATH]
//
// The benchmark sets no DPIPE_* variable and no runtime knob: it measures
// the defaults a user gets. --trace 1 records spans around the calls into
// each layer (and turns on the runtime op profile) for the per-layer
// metrics; run.py compares it with an untraced run for the overhead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "runtime/interpreter.h"
#include "runtime/kernels.h"
#include "runtime/simd.h"
#include "workloads.h"

extern char** environ;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dpbench: %s\nusage: dpbench --workload "
               "train_small|train_wide|plan_mix --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

void add_provenance(dpbench::Report& report) {
  using namespace dpipe::rt;
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.info["simd_level"] = simd_level_name(simd_level());
  report.info["wave_exec"] = wave_exec_name(wave_exec());
  report.info["intraop_threads"] = std::to_string(kernel_threads());
  report.info["build_type"] = DPBENCH_BUILD_TYPE;
  report.info["compiler"] = DPBENCH_COMPILER;
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DPIPE_", 6) == 0) {
      env += (env.empty() ? "" : " ") + std::string(*e);
    }
  }
  report.info["dpipe_env"] = env.empty() ? "none" : env;
}

}  // namespace

int main(int argc, char** argv) {
  dpbench::RunOptions opts;
  std::string trace_out;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        traced = value == "1";
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opts.seconds > 0.0)) {
    usage("--seconds must be positive");
  }

  dpbench::Tracer tracer(traced);
  dpbench::Report report;
  report.workload = opts.workload;
  report.seed = opts.seed;
  report.traced = traced;
  try {
    if (opts.workload == "train_small" || opts.workload == "train_wide") {
      dpbench::run_train(opts, tracer, report);
    } else if (opts.workload == "plan_mix") {
      dpbench::run_plan_mix(opts, tracer, report);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.gate("workload.completes", false, e.what());
  }
  report.metric("peak_rss_mb", dpbench::peak_rss_mb(), "MiB", 1);
  add_provenance(report);
  if (traced && !trace_out.empty()) {
    tracer.write_chrome_trace(trace_out);
    report.info["trace_file"] = trace_out;
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.correct() ? 0 : 1;
}
