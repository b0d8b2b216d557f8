#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on perf regression.

The per-PR perf trajectory works like this: every bench binary that matters
emits a machine-readable ``bench_out/BENCH_<name>.json`` whose ``metrics``
object holds flat numeric fields. This tool compares a baseline file against
a current file metric by metric and exits non-zero when any metric got more
than ``--threshold`` (default 10 %) WORSE.

Direction is inferred from the metric name, which is a schema contract
(see bench/bench_hotpath.cpp):

  * names ending in ``_per_s`` are throughputs  -> higher is better
  * names containing ``allocs_per``             -> lower is better
  * anything else is reported but never gates (direction unknown)

Allocation ratios near zero are compared with an absolute tolerance
(``--alloc-epsilon``): a baseline of exactly 0 allocs/op must stay 0 within
the epsilon, where a relative threshold would be meaningless.

Schema v2 bench files additionally carry a top-level ``spread`` object with
per-rep ``{min, max, mean, stddev}`` for the throughput metrics. When both
files record a spread for a metric, the gate widens to the observed
run-to-run noise: the effective threshold becomes
``max(--threshold, rel_spread(base) + rel_spread(cur))`` where
``rel_spread = (max - min) / max``. Two noisy best-of-N point samples then
can't fail the gate on noise alone, while a genuine regression larger than
both machines' jitter still does. Files without a ``spread`` object (schema
v1) gate on the plain threshold as before.

Usage:
  bench_compare.py baseline.json current.json [--threshold 0.10]
  bench_compare.py --self-check

Exit status: 0 OK / within threshold, 1 regression found, 2 usage or
self-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 0.10
DEFAULT_ALLOC_EPSILON = 0.01


def metric_direction(name: str) -> str:
    """'up' = higher is better, 'down' = lower is better, 'info' = no gate."""
    if "allocs_per" in name:
        return "down"
    if name.endswith("_per_s"):
        return "up"
    return "info"


def rel_spread(spread: dict | None) -> float:
    """Relative run-to-run noise of one metric: (max - min) / max, or 0."""
    if not isinstance(spread, dict):
        return 0.0
    try:
        lo = float(spread["min"])
        hi = float(spread["max"])
    except (KeyError, TypeError, ValueError):
        return 0.0
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= 0 or lo > hi:
        return 0.0
    return (hi - lo) / hi


def compare_metric(name: str, base: float, cur: float, threshold: float,
                   alloc_epsilon: float, base_spread: dict | None = None,
                   cur_spread: dict | None = None):
    """Returns (status, detail); status in {'ok', 'regression', 'info'}."""
    direction = metric_direction(name)
    if direction == "info":
        return "info", f"{name}: {base:g} -> {cur:g} (not gated)"
    noise = rel_spread(base_spread) + rel_spread(cur_spread)
    if noise > 0.0:
        threshold = max(threshold, noise)
    if direction == "down":
        # Ratios hugging zero: relative change is noise, use absolute slack.
        if max(abs(base), abs(cur)) <= alloc_epsilon:
            return "ok", f"{name}: {base:g} -> {cur:g} (within alloc epsilon)"
        if base <= alloc_epsilon < cur:
            return "regression", (f"{name}: {base:g} -> {cur:g} "
                                  f"(was ~zero, now above epsilon {alloc_epsilon:g})")
        worse = (cur - base) / abs(base)
        if worse > threshold:
            return "regression", (f"{name}: {base:g} -> {cur:g} "
                                  f"(+{worse * 100:.1f} %, limit {threshold * 100:.0f} %)")
        return "ok", f"{name}: {base:g} -> {cur:g} ({worse * 100:+.1f} %)"
    # direction == "up"
    if base <= 0:
        return "info", f"{name}: non-positive baseline {base:g} (not gated)"
    drop = (base - cur) / base
    if drop > threshold:
        return "regression", (f"{name}: {base:g} -> {cur:g} "
                              f"(-{drop * 100:.1f} %, limit {threshold * 100:.0f} %)")
    return "ok", f"{name}: {base:g} -> {cur:g} ({-drop * 100:+.1f} %)"


def load_metrics(path: Path) -> tuple[dict, dict]:
    """Returns (metrics, spreads); spreads is {} for schema-v1 files."""
    with path.open() as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(f"{path}: no 'metrics' object (is this a BENCH_*.json?)")
    bad = [k for k, v in metrics.items()
           if not isinstance(v, (int, float)) or isinstance(v, bool)
           or not math.isfinite(float(v))]
    if bad:
        raise ValueError(f"{path}: non-numeric or non-finite metric(s): {', '.join(bad)}")
    spreads = doc.get("spread")
    if not isinstance(spreads, dict):
        spreads = {}
    return {k: float(v) for k, v in metrics.items()}, spreads


def run_compare(baseline: Path, current: Path, threshold: float,
                alloc_epsilon: float) -> int:
    try:
        base, base_spreads = load_metrics(baseline)
        cur, cur_spreads = load_metrics(current)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    regressions = 0
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"  NEW  {name}: {cur[name]:g} (no baseline, not gated)")
            continue
        if name not in cur:
            print(f"  GONE {name}: metric present in baseline only")
            regressions += 1
            continue
        status, detail = compare_metric(name, base[name], cur[name], threshold,
                                        alloc_epsilon,
                                        base_spreads.get(name),
                                        cur_spreads.get(name))
        tag = {"ok": "  ok  ", "regression": "  FAIL ", "info": "  info "}[status]
        print(tag + detail)
        if status == "regression":
            regressions += 1
    if regressions:
        print(f"bench_compare: {regressions} regression(s) beyond "
              f"{threshold * 100:.0f} % vs {baseline}")
        return 1
    print(f"bench_compare: OK ({len(base)} metrics within {threshold * 100:.0f} %)")
    return 0


# --- self-check -------------------------------------------------------------

SELF_CHECK_CASES = [
    # (name, baseline, current, expected status)
    ("schedule_fire_events_per_s", 100.0, 95.0, "ok"),          # -5 % throughput
    ("schedule_fire_events_per_s", 100.0, 89.0, "regression"),  # -11 % throughput
    ("schedule_fire_events_per_s", 100.0, 150.0, "ok"),         # improvement
    ("flow_allocs_per_event", 1.0, 1.05, "ok"),                 # +5 % allocs
    ("flow_allocs_per_event", 1.0, 1.2, "regression"),          # +20 % allocs
    ("flow_allocs_per_event", 0.0, 0.0, "ok"),                  # zero stays zero
    ("flow_allocs_per_event", 0.0, 0.005, "ok"),                # within epsilon
    ("flow_allocs_per_event", 0.0, 0.5, "regression"),          # zero-alloc lost
    ("flow_allocs_per_event", 2.0, 1.0, "ok"),                  # fewer allocs
    ("flow_sim_events", 1000.0, 1.0, "info"),                   # unknown direction
    # The analysis metrics (bench_hotpath schema v4) gate by name too.
    ("analysis_flows_per_s", 1000.0, 850.0, "regression"),      # -15 % analyses/s
    ("analysis_allocs_per_flow", 4.0, 4.0, "ok"),               # constant per call
    ("analysis_allocs_per_flow", 4.0, 6.0, "regression"),       # +50 % per call
    # The timer metrics (bench_hotpath schema v5) gate by name too.
    ("timer_rearm_ops_per_s", 100.0, 95.0, "ok"),               # -5 % re-arms/s
    ("timer_rearm_ops_per_s", 100.0, 80.0, "regression"),       # -20 % re-arms/s
    ("timer_rearm_allocs_per_op", 0.0, 0.0, "ok"),              # zero stays zero
    ("timer_rearm_allocs_per_op", 0.0, 1.0, "regression"),      # zero-alloc lost
    ("timer_arm_cancel_ops_per_s", 100.0, 89.0, "regression"),  # -11 % pairs/s
    ("timer_arm_cancel_allocs_per_op", 0.0, 0.005, "ok"),       # within epsilon
    ("timer_arm_cancel_allocs_per_op", 0.0, 0.5, "regression"), # zero-alloc lost
    # The unit-cost metrics (bench_hotpath schema v6) gate by name too.
    ("radio_queries_per_s", 100.0, 95.0, "ok"),                 # -5 % queries/s
    ("radio_queries_per_s", 100.0, 85.0, "regression"),         # -15 % queries/s
    ("link_allocs_per_packet", 0.0, 0.0, "ok"),                 # zero stays zero
    ("link_allocs_per_packet", 0.0, 0.5, "regression"),         # zero-alloc lost
    # The checksum metric (bench_trace schema v3) gates by name too.
    ("crc32c_mb_per_s", 2600.0, 2450.0, "ok"),                  # -6 % MB/s
    ("crc32c_mb_per_s", 2600.0, 650.0, "regression"),           # table path again
]

# (name, baseline, current, base_spread, cur_spread, expected status)
SPREAD_CASES = [
    # -15 % drop, but each side is ~10 % noisy -> gate widens to 20 %, passes.
    ("flow_events_per_s", 100.0, 85.0,
     {"min": 90.0, "max": 100.0}, {"min": 76.5, "max": 85.0}, "ok"),
    # -15 % drop with tight spreads -> still a regression.
    ("flow_events_per_s", 100.0, 85.0,
     {"min": 99.0, "max": 100.0}, {"min": 84.5, "max": 85.0}, "regression"),
    # -30 % drop dwarfs the combined ~20 % noise -> regression.
    ("flow_events_per_s", 100.0, 70.0,
     {"min": 90.0, "max": 100.0}, {"min": 63.0, "max": 70.0}, "regression"),
    # Spread only on one side still widens the gate by that side's noise.
    ("flow_events_per_s", 100.0, 88.0,
     {"min": 85.0, "max": 100.0}, None, "ok"),
    # Degenerate spreads never tighten the gate below --threshold.
    ("flow_events_per_s", 100.0, 95.0,
     {"min": 100.0, "max": 100.0}, {"max": "nan"}, "ok"),
]


def run_self_check() -> int:
    failures = []
    for name, base, cur, expected in SELF_CHECK_CASES:
        status, detail = compare_metric(name, base, cur, DEFAULT_THRESHOLD,
                                        DEFAULT_ALLOC_EPSILON)
        if status != expected:
            failures.append(f"{detail}: got {status}, expected {expected}")
    for name, base, cur, bs, cs, expected in SPREAD_CASES:
        status, detail = compare_metric(name, base, cur, DEFAULT_THRESHOLD,
                                        DEFAULT_ALLOC_EPSILON, bs, cs)
        if status != expected:
            failures.append(f"[spread] {detail}: got {status}, expected {expected}")
    # A file compared against itself can never regress.
    identical = {f"m{i}_per_s": float(i + 1) for i in range(4)}
    for name, value in identical.items():
        status, _ = compare_metric(name, value, value, DEFAULT_THRESHOLD,
                                   DEFAULT_ALLOC_EPSILON)
        if status != "ok":
            failures.append(f"self-compare of {name} not ok: {status}")
    if failures:
        for f in failures:
            print(f"self-check FAIL: {f}")
        return 2
    print(f"self-check OK ({len(SELF_CHECK_CASES) + len(SPREAD_CASES)} cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", type=Path,
                        help="baseline BENCH_*.json")
    parser.add_argument("current", nargs="?", type=Path,
                        help="current BENCH_*.json to gate")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed relative worsening (default 0.10 = 10 %%)")
    parser.add_argument("--alloc-epsilon", type=float, default=DEFAULT_ALLOC_EPSILON,
                        help="absolute slack for near-zero allocation ratios")
    parser.add_argument("--self-check", action="store_true",
                        help="verify the comparison logic against embedded cases")
    args = parser.parse_args()

    if args.self_check:
        return run_self_check()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current files are required (or --self-check)")
    return run_compare(args.baseline, args.current, args.threshold,
                       args.alloc_epsilon)


if __name__ == "__main__":
    sys.exit(main())
