#!/usr/bin/env python3
"""End-to-end benchmark of the hsrtcp campaign pipeline.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Builds perfbench/ (the hsrtcp libraries from ../src plus the hsrbench
driver) into .bench_build/, runs the workload in fresh processes, checks its
outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
a traced run. The line before it records the run's facts (nproc, workers,
CPU model, build type, seed, flow and chunk counts, failed share, errors).
Workloads, layers and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
BUILD_TYPE = "RelWithDebInfo"  # the repository's own default build type
NPROC = len(os.sched_getaffinity(0))

# The fixed input of each workload; only the seed varies between runs.
WORKLOADS = {
    # ROADMAP's unit of work at the flow count where the default 256-flow
    # chunks leave each worker only a few chunks (the known scaling loss).
    "campaign": {"flows": 2000, "duration": 60, "threads": NPROC},
    # A campaign corpus from the same build and seed, re-analyzed on one
    # thread. Smaller than `campaign` only to keep its set-up short.
    "corpus_scan": {"flows": 1000, "duration": 60, "threads": NPROC},
    # 64 senders behind one bottleneck with fairness_sweep's `--burst 4 5`,
    # cycling through four scenarios (train trajectories) per run.
    "shared_cell": {"flows": 64, "duration": 300},
}

# Wall-clock budget of one run after the build, all processes included.
RUN_BUDGET_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver and the corpus_campaign tool."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no hsrtcp sources at {ROOT / 'src'}; run from a repository checkout")
        return None
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(NPROC),
                  "--target", "hsrbench", "corpus_campaign"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return BUILD / "hsrbench"


def run_child(cmd, deadline):
    """Runs cmd to completion (killed at `deadline`); returns its exit code,
    stdout and its own peak RSS in MB (ru_maxrss of exactly this child)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def child_args(params, args, work):
    cmd = ["--work", str(work), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--flows", str(params["flows"]),
           "--duration", str(params["duration"])]
    if "threads" in params:
        cmd += ["--threads", str(params["threads"])]
    return cmd


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(binary, workload, args, work):
    """Runs the workload's processes; returns (report, peak RSS MB) or None."""
    params = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_report = None
    if workload == "corpus_scan":
        code, out, _ = run_child([str(binary), "scan_setup", *child_args(params, args, work)],
                                 deadline)
        if code != 0:
            log(f"scan set-up exited with {code}")
            return None
        setup_report = metrics.parse_report(out)
    code, out, rss_mb = run_child([str(binary), workload, *child_args(params, args, work)],
                                  deadline)
    if code != 0:
        log(f"{workload} exited with {code}")
        return None
    report = metrics.parse_report(out)
    if setup_report is not None:
        report = metrics.merge_setup(setup_report, report)
    if not report["iters"] or not report["setup"]:
        for e in report["errors"]:
            log(e)
        log(f"{workload} measured nothing")
        return None
    return report, rss_mb


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2
    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measured = measure(binary, args.workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured is None:
        return 1
    report, rss_mb = measured

    params = WORKLOADS[args.workload]
    if args.trace:
        values = metrics.per_layer(args.workload, report, params)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    else:
        values = metrics.end_to_end(report, rss_mb)
        units = metrics.END_TO_END
    for e in report["errors"]:
        log(f"check failed: {e}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "workers": params.get("threads", 1),
        "cpu_model": cpu_model(), "build_type": BUILD_TYPE,
        "params": params, **report["info"],
        "iterations": len(report["iters"]), "setup_s": report["setup"],
        "failed_share": metrics.failed_share(report["attempted"], report["failed"]),
        "errors": report["errors"],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not report["errors"] and report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
