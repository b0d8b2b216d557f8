#!/usr/bin/env python3
"""Run two builds of a bench alternately on one host and fail on perf
regression.

Every bench binary that matters emits a machine-readable
``BENCH_<name>.json`` whose ``metrics`` object holds flat numeric fields.
Numbers recorded in different host phases cannot tell host drift from a
regression, so this tool measures both sides itself:
``--ab PARENT_BIN CHANGE_BIN`` runs the two binaries alternately, 10 pairs,
flipping which side goes first each pair; every run writes into its own
temporary ``HSR_BENCH_OUT``. Both binaries must be the same bench program:
build the parent's ``src/`` with the change's bench source. Runs whose
``bench`` or ``schema_version`` facts differ are refused (exit 2).

Per metric it prints both medians, the parent's quartiles
(``statistics.quantiles(values, n=4)``, as perfbench computes them) and how
many pairs the change won. Direction is inferred from the metric name,
which is a schema contract (see bench/bench_hotpath.cpp):

  * names ending in ``_per_s`` are throughputs  -> higher is better
  * names containing ``allocs_per``             -> lower is better
  * anything else is reported but never gates (direction unknown)

A metric regresses when the change's median is worse than the parent's by
more than ``max(--threshold, parent IQR / parent median)``, or when an
``allocs_per`` ratio that read zero (within ``--alloc-epsilon``) in every
parent run reads above it in a change run.

Usage:
  bench_compare.py --ab PARENT_BIN CHANGE_BIN [--threshold 0.10]
  bench_compare.py --self-check

Exit status: 0 OK / within threshold, 1 regression found, 2 usage,
mismatched benches or self-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_THRESHOLD = 0.10
DEFAULT_ALLOC_EPSILON = 0.01
AB_PAIRS = 10


def metric_direction(name: str) -> str:
    """'up' = higher is better, 'down' = lower is better, 'info' = no gate."""
    if "allocs_per" in name:
        return "down"
    if name.endswith("_per_s"):
        return "up"
    return "info"


def load_summary(path: Path) -> tuple[tuple, dict]:
    """Returns ((bench, schema_version), metrics) of one BENCH_*.json."""
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
    identity = (doc.get("bench"), doc.get("schema_version"))
    return identity, {k: float(v) for k, v in metrics.items()}


def parent_quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3) of the parent's runs; both the value itself for one run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def ab_verdict(name: str, parent: list[float], change: list[float], threshold: float,
               alloc_epsilon: float):
    """Judges one metric over paired runs; returns (status, detail) with
    status in {'ok', 'regression', 'info'}."""
    direction = metric_direction(name)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = parent_quartiles(parent)
    wins = sum((c > p) if direction == "up" else (c < p)
               for p, c in zip(parent, change)) if direction != "info" else 0
    detail = (f"{name}: parent {p_med:g} (Q1 {q1:g}, Q3 {q3:g}) -> change {c_med:g}, "
              f"change wins {wins}/{len(change)}")
    if direction == "info":
        return "info", detail + " (not gated)"
    if direction == "down" and max(parent) <= alloc_epsilon:
        if max(change) > alloc_epsilon:
            return "regression", detail + f" (lost its zero: a run read {max(change):g})"
        return "ok", detail
    if p_med <= 0:
        return "info", detail + " (non-positive parent median, not gated)"
    limit = max(threshold, (q3 - q1) / p_med)
    moved = (c_med - p_med) / p_med
    worse = -moved if direction == "up" else moved
    detail += f" ({moved * 100:+.1f} %, limit {limit * 100:.1f} %)"
    return ("regression" if worse > limit else "ok"), detail


def run_bench(binary: Path) -> tuple[tuple, dict]:
    """Runs `binary` with a fresh temporary HSR_BENCH_OUT (also its working
    directory) and returns the identity and metrics of the one BENCH_*.json
    it wrote."""
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as out:
        env = dict(os.environ, HSR_BENCH_OUT=out)
        proc = subprocess.run([str(binary)], cwd=out, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        written = sorted(Path(out).glob("BENCH_*.json"))
        # Exit status 1 is a bench's own gate; its summary is still written,
        # and the allocation rule below judges it.
        if proc.returncode not in (0, 1) or len(written) != 1:
            raise ValueError(f"{binary} exited {proc.returncode} and wrote "
                             f"{len(written)} BENCH_*.json file(s)\n{proc.stderr}")
        return load_summary(written[0])


def run_ab(parent_bin: Path, change_bin: Path, threshold: float, alloc_epsilon: float,
           run=run_bench) -> int:
    binaries = {"parent": parent_bin.resolve(), "change": change_bin.resolve()}
    runs = {"parent": [], "change": []}
    identities = {"parent": set(), "change": set()}
    try:
        for pair in range(AB_PAIRS):
            # Flip which side goes first, so a host phase that favours the
            # first (or second) run of a pair favours neither build.
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                identity, metrics = run(binaries[side])
                identities[side].add(identity)
                runs[side].append(metrics)
            # Two bench programs time different code, so their numbers say
            # nothing about the change: stop after the first pair.
            seen = identities["parent"] | identities["change"]
            if len(seen) > 1:
                raise ValueError(
                    "the two binaries are different bench programs (bench, schema_version): "
                    f"parent {sorted(identities['parent'], key=str)}, "
                    f"change {sorted(identities['change'], key=str)}; "
                    "build the parent's src/ with the change's bench source")
            print(f"bench_compare: pair {pair + 1}/{AB_PAIRS} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    regressions = 0
    names = set().union(*runs["parent"], *runs["change"])
    for name in sorted(names):
        parent = [r[name] for r in runs["parent"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if not parent:
            print(f"  NEW  {name}: change median {statistics.median(change):g} "
                  "(no parent, not gated)")
            continue
        if not change:
            print(f"  GONE {name}: metric reported by the parent only")
            regressions += 1
            continue
        status, detail = ab_verdict(name, parent, change, threshold, alloc_epsilon)
        print({"ok": "  ok  ", "regression": "  FAIL ", "info": "  info "}[status] + detail)
        regressions += status == "regression"
    if regressions:
        print(f"bench_compare: {regressions} regression(s) over {AB_PAIRS} A/B pairs")
        return 1
    print(f"bench_compare: OK ({AB_PAIRS} A/B pairs)")
    return 0


# --- self-check -------------------------------------------------------------

# (name, parent runs, change runs, expected status) for the A/B rule.
TIGHT = [99.0, 99.5, 100.0, 100.0, 100.5, 101.0]  # IQR ~1 % of the median
NOISY = [70.0, 80.0, 90.0, 100.0, 110.0, 120.0]   # IQR ~37 % of the median
ZERO = [0.0] * 6


def scaled(runs: list[float], k: float) -> list[float]:
    return [x * k for x in runs]


AB_CASES = [
    ("schedule_fire_events_per_s", TIGHT, scaled(TIGHT, 0.95), "ok"),          # -5 %
    ("schedule_fire_events_per_s", TIGHT, scaled(TIGHT, 0.89), "regression"),  # -11 %
    ("schedule_fire_events_per_s", TIGHT, scaled(TIGHT, 1.50), "ok"),          # faster
    ("schedule_fire_events_per_s", TIGHT, TIGHT, "ok"),                        # same runs
    # A noisy parent widens the limit to its IQR / median ...
    ("flow_events_per_s", NOISY, scaled(NOISY, 0.80), "ok"),                   # -20 %
    # ... but never past a loss larger than that spread.
    ("flow_events_per_s", NOISY, scaled(NOISY, 0.55), "regression"),           # -45 %
    # Lower is better for allocation ratios that are not zero.
    ("flow_allocs_per_event", [1.0] * 6, [1.05] * 6, "ok"),                    # +5 %
    ("flow_allocs_per_event", [1.0] * 6, [1.2] * 6, "regression"),             # +20 %
    ("flow_allocs_per_event", [2.0] * 6, [1.0] * 6, "ok"),                     # fewer
    ("analysis_allocs_per_flow", [4.0] * 6, [4.0] * 6, "ok"),
    ("analysis_allocs_per_flow", [4.0] * 6, [6.0] * 6, "regression"),          # +50 %
    # A zero must stay zero in every change run.
    ("link_allocs_per_packet", ZERO, ZERO, "ok"),
    ("link_allocs_per_packet", ZERO, [0.004] * 6, "ok"),                       # epsilon
    ("link_allocs_per_packet", ZERO, ZERO[1:] + [0.5], "regression"),          # one run
    ("timer_rearm_allocs_per_op", ZERO, [1.0] * 6, "regression"),
    # Every gated family keys off its name, whichever bench reports it.
    ("analysis_flows_per_s", TIGHT, scaled(TIGHT, 0.85), "regression"),        # -15 %
    ("timer_arm_cancel_ops_per_s", TIGHT, scaled(TIGHT, 0.89), "regression"),  # -11 %
    ("radio_queries_per_s", TIGHT, scaled(TIGHT, 0.95), "ok"),                 # -5 %
    ("radio_queries_per_s", TIGHT, scaled(TIGHT, 0.85), "regression"),         # -15 %
    ("shared_link_packets_per_s", TIGHT, scaled(TIGHT, 0.85), "regression"),   # -15 %
    ("crc32c_mb_per_s", TIGHT, scaled(TIGHT, 0.94), "ok"),                     # -6 %
    ("crc32c_mb_per_s", TIGHT, scaled(TIGHT, 0.25), "regression"),             # table path
    ("flow_sim_events", [1000.0] * 6, [1.0] * 6, "info"),                      # no direction
]

# (parent identity, change identity, expected exit status) for whole A/B
# runs over fake benches that report the same metrics.
AB_RUN_CASES = [
    (("hotpath", 7), ("hotpath", 7), 0),
    (("hotpath", 6), ("hotpath", 7), 2),  # a bench schema change between sides
    (("trace", 3), ("hotpath", 7), 2),    # two different benches
]


def fake_bench(identities: dict):
    """A stand-in for run_bench: each binary path reports its own identity."""
    return lambda binary: (identities[binary.name], {"m_per_s": 1.0, "m_allocs_per_op": 0.0})


def run_self_check() -> int:
    failures = []
    for name, parent, change, expected in AB_CASES:
        status, detail = ab_verdict(name, parent, change, DEFAULT_THRESHOLD,
                                    DEFAULT_ALLOC_EPSILON)
        if status != expected:
            failures.append(f"{detail}: got {status}, expected {expected}")
    for parent_id, change_id, expected in AB_RUN_CASES:
        fake = fake_bench({"parent_bin": parent_id, "change_bin": change_id})
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = run_ab(Path("parent_bin"), Path("change_bin"), DEFAULT_THRESHOLD,
                            DEFAULT_ALLOC_EPSILON, run=fake)
        if status != expected:
            failures.append(f"A/B of {parent_id} against {change_id}: "
                            f"exit {status}, expected {expected}")
    if failures:
        for f in failures:
            print(f"self-check FAIL: {f}")
        return 2
    print(f"self-check OK ({len(AB_CASES) + len(AB_RUN_CASES)} cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ab", nargs=2, type=Path, metavar=("PARENT_BIN", "CHANGE_BIN"),
                        help="run two builds' bench binaries alternately and compare")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed relative worsening (default 0.10 = 10 %%)")
    parser.add_argument("--alloc-epsilon", type=float, default=DEFAULT_ALLOC_EPSILON,
                        help="absolute slack for near-zero allocation ratios")
    parser.add_argument("--self-check", action="store_true",
                        help="verify the comparison logic against embedded cases")
    args = parser.parse_args()

    if args.self_check:
        return run_self_check()
    if args.ab is None:
        parser.error("--ab PARENT_BIN CHANGE_BIN or --self-check is required")
    return run_ab(args.ab[0], args.ab[1], args.threshold, args.alloc_epsilon)


if __name__ == "__main__":
    sys.exit(main())
