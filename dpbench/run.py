#!/usr/bin/env python3
"""The repository benchmark: builds the dpipe library and the dpbench binary
from source, runs one workload, checks its correctness gates, prints a
human-readable report and, as the last stdout line, one JSON result.

    python3 dpbench/run.py --workload train_small|train_wide|plan_mix|all \
        --seed N --seconds S --trace 0|1

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics. --trace 1 runs it untraced and then traced (spans around every
layer call, runtime op profile on), each for half the seconds, and reports
the per-layer metrics plus the tracing overhead. "all" runs the three
workloads in turn, each printing its own report and result line.

Exit code: 0 when every gate passed, 1 when a gate failed (the result line
then says "correct": false), 2 when the benchmark could not be built or run
(no result line). See dpbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dpbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("train_small", "train_wide", "plan_mix")
TIME_LIMIT_S = 170  # Whole invocation, build excluded.

# End-to-end metrics of the result line: every workload reports each of
# them, from the per-workload metric named here.
E2E = {
    "throughput_per_s": ("1/s", "train_samples_per_s", "plan_requests_per_s"),
    "op_ms_p50": ("ms", "iter_ms_p50", "plan_ms_p50"),
    "op_ms_p99": ("ms", "iter_ms_p99", "plan_ms_p99"),
    "sim_samples_per_s_geomean": ("samples/s",) + ("sim_samples_per_s_geomean",) * 2,
    "sim_bubble_ratio_mean": ("ratio",) + ("sim_bubble_ratio_mean",) * 2,
    "setup_s": ("s",) + ("setup_s",) * 2,
    "peak_rss_mb": ("MiB",) + ("peak_rss_mb",) * 2,
}

# The workload-specific end-to-end metrics of the report, with the
# workloads each applies to (failed_share is computed here).
REPORT_E2E = {
    "train": ["train_samples_per_s", "iter_ms_p50", "iter_ms_p99"],
    "plan": ["plan_requests_per_s", "plan_ms_p50", "plan_ms_p99",
             "plan_cold_ms_p50", "plan_cold_ms_p90",
             "plan_warm_ms_p50", "plan_warm_ms_p99"],
    "all": ["sim_samples_per_s_geomean", "sim_bubble_ratio_mean", "setup_s",
            "peak_rss_mb", "failed_share"],
}

# Per-layer metrics: (unit, workload kinds that exercise the layer). A
# workload that does not exercise a layer reports 0 for it, marked n/a.
PER_LAYER = {
    "runtime.kernels.matmul_ms_per_iter": ("ms", "train"),
    "runtime.kernels.matmul_calls_per_iter": ("count", "train"),
    "runtime.kernels.matmul_gflops": ("GFLOP/s", "train"),
    "runtime.eltwise.ms_per_iter": ("ms", "train"),
    "runtime.eltwise.calls_per_iter": ("count", "train"),
    "runtime.kernel_core_share": ("ratio", "train"),
    "runtime.pool.hit_rate": ("ratio", "train"),
    "runtime.pool.fresh_allocs_per_iter": ("count", "train"),
    "runtime.pool.peak_mb": ("MiB", "train"),
    "core.instr.lower_ms": ("ms", "train"),
    "runtime.setup.construct_ms": ("ms", "train"),
    "runtime.setup.warmup_ms": ("ms", "train"),
    "baseline.reference_samples_per_s": ("samples/s", "train"),
    "baseline.pipeline_over_reference": ("ratio", "train"),
    "service.canonicalize_ms": ("ms", "plan"),
    "service.hit_ms": ("ms", "plan"),
    "core.instr.deserialize_ms": ("ms", "plan"),
    "service.miss_ms": ("ms", "plan"),
    "service.cache_hit_ratio": ("ratio", "plan"),
    "service.stage_store_shared_grant_ratio": ("ratio", "plan"),
    "profiler.profile_ms": ("ms", "plan"),
    "core.planner.plan_ms": ("ms", "plan"),
    "core.planner.combos_evaluated": ("count", "plan"),
    "core.planner.threads": ("count", "plan"),
    "core.planner.stage_cache_hit_rate": ("ratio", "plan"),
    "core.partition.ms": ("ms", "plan"),
    "core.schedule.build_ms": ("ms", "plan"),
    "core.fill.ms": ("ms", "plan"),
    "core.fill.placed_share": ("ratio", "plan"),
    "core.instr.generate_ms": ("ms", "plan"),
    "core.instr.validate_ms": ("ms", "plan"),
    "core.instr.serialize_ms": ("ms", "plan"),
    "engine.replay_ms": ("ms", "all"),
    "trace.overhead_share": ("ratio", "all"),
}


def kind(workload):
    return "plan" if workload == "plan_mix" else "train"


def fail(message):
    print("dpbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and (incrementally) builds; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "dpbench")


def run_binary(binary, workload, seed, seconds, traced, timeout):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              cwd=ROOT, universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, timeout))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("dpbench exited %d without a report" % proc.returncode)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "dpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          universal_newlines=True)
    return proc.stdout.strip() or "none"


def value(run, name):
    metric = run["metrics"].get(name)
    return None if metric is None else metric["value"]


def print_metric(name, metric, note=""):
    v = metric["value"]
    print("metric %-40s = %-14s %-10s (n=%d)%s"
          % (name, "null" if v is None else "%.6g" % v, metric["unit"],
             metric["samples"], note))


def bench_workload(binary, workload, args):
    """Runs one workload, prints its report and result line; returns
    whether every gate passed."""
    # A traced invocation splits its time between the untraced and the
    # traced run, so it takes as long as an untraced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_binary(binary, workload, args.seed, seconds, False,
                          TIME_LIMIT_S)
    runs = [untraced]
    if args.trace:
        runs.append(run_binary(binary, workload, args.seed, seconds, True,
                               TIME_LIMIT_S - seconds - 15))
    wk = kind(workload)

    info = dict(untraced["info"])
    info["git_revision"] = git_revision()
    info["source_sha256"] = source_digest()
    info["seed"] = str(args.seed)
    print("dpbench workload=%s seed=%d seconds=%g trace=%d"
          % (workload, args.seed, args.seconds, args.trace))
    print("provenance " + " ".join(
        "%s=%s" % (k, json.dumps(v) if " " in v else v)
        for k, v in sorted(info.items())))

    gates = []
    for run in runs:
        label = "traced" if run["traced"] else "untraced"
        gates += [(label, g) for g in run["gates"]]
    e2e = {}
    for name, (unit, train_src, plan_src) in E2E.items():
        v = value(untraced, train_src if wk == "train" else plan_src)
        e2e[name] = {"value": v, "unit": unit}
    bad = sorted(k for k, m in e2e.items()
                 if not isinstance(m["value"], (int, float)) or
                 not m["value"] > 0)
    gates.append(("untraced", {"name": "metrics.end_to_end_positive",
                               "ok": not bad, "detail": " ".join(bad)}))
    for label, g in gates:
        print("gate %s %s [%s] %s" % ("PASS" if g["ok"] else "FAIL",
                                      g["name"], label, g["detail"]))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    untraced["metrics"]["failed_share"] = {
        "value": untraced["failed"] / max(1, untraced["attempted"]),
        "unit": "ratio", "samples": untraced["attempted"]}
    print("end-to-end (untraced run):")
    for name in REPORT_E2E[wk] + REPORT_E2E["all"]:
        print_metric(name, untraced["metrics"][name])

    metrics = e2e
    if args.trace:
        traced = runs[1]
        layer = dict(traced["metrics"])
        throughput = E2E["throughput_per_s"][1 if wk == "train" else 2]
        base, with_trace = value(untraced, throughput), value(traced, throughput)
        layer["trace.overhead_share"] = {
            "value": 1.0 - with_trace / base if base else 0.0,
            "unit": "ratio", "samples": 2}
        if wk == "train":
            reference = value(traced, "baseline.reference_samples_per_s")
            layer["baseline.pipeline_over_reference"] = {
                "value": base / reference if reference else 0.0,
                "unit": "ratio", "samples": 2}
        print("per-layer (traced run; ratio bases in dpbench/README.md):")
        metrics = {}
        for name, (unit, applies) in PER_LAYER.items():
            exercised = applies in ("all", wk)
            m = layer.get(name) if exercised else None
            if m is None:
                m = {"value": 0.0, "unit": unit, "samples": 0}
            print_metric(name, m, "" if exercised else "  n/a: layer not "
                         "exercised by this workload")
            metrics[name] = {"value": m["value"], "unit": unit}

    correct = all(r["correct"] for r in runs) and all(g["ok"] for _, g in gates)
    print("result correct=%s attempted=%d failed=%d"
          % (str(correct).lower(), attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [bench_workload(binary, w, args) for w in workloads]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
