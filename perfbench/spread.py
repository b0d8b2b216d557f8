#!/usr/bin/env python3
"""Run-to-run spread and batch-to-batch drift of the end-to-end metrics.

    python3 perfbench/spread.py --workloads campaign,corpus_scan,shared_cell \
        --seeds 1-10 --batches 2 [--seconds 25]

Runs perfbench/run.py once per seed, workload and batch (every workload of
a batch before the next batch starts). Prints, per workload, batch and
metric, the median and the quartile spread — Q3 - Q1 of the seeds' values
(statistics.quantiles(values, n=4)) as a share of the median — next to the
metric's bound from BENCHMARK.json, and per workload and metric how much
worse each later batch's median is than the first's, as a share of it.
The benchmark is steady when every spread is below a third of its bound
and no batch's median is worse than the first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True, type=lambda t: t.split(","))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--batches", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    # values[workload][batch][metric] -> one value per seed
    values = {w: [{} for _ in range(args.batches)] for w in args.workloads}
    for batch in range(args.batches):
        for workload in args.workloads:
            for seed in args.seeds:
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                     str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"batch {batch + 1} {workload} seed {seed}: "
                      f"{time.monotonic() - start:.1f} s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
                for name, metric in result["metrics"].items():
                    values[workload][batch].setdefault(name, []).append(metric["value"])

    if len(args.seeds) < 2:
        return 0
    for workload, batches in values.items():
        for batch, by_metric in enumerate(batches):
            for name, vals in by_metric.items():
                spread = metrics.quartile_spread(vals)
                bound = e2e[name]["bound"]
                print(f"{workload:12s} batch {batch + 1} {name:22s} median "
                      f"{statistics.median(vals):12.6g}  spread {spread:.4f}  bound {bound}"
                      f"  spread/bound {spread / bound:.2f}")
        for batch in range(1, len(batches)):
            for name, vals in batches[batch].items():
                first = statistics.median(batches[0][name])
                gap = worse_by(first, statistics.median(vals), e2e[name]["better"])
                print(f"{workload:12s} batch {batch + 1} vs 1 {name:22s} worse by {gap:+.4f}"
                      f"  bound {e2e[name]['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
