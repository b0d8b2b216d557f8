"""Turns hsrbench reports into the benchmark's metrics.

hsrbench (perfbench/*.cpp) prints raw facts: set-up times, the wall time of
each timed unit, exact counters, and the spans recorded around public calls.
Every statistic — medians, percentiles, shares, rates — is computed here,
so perfbench/test_perfbench.py can test it without running a workload.
"""

import math
import statistics
from collections import defaultdict

# End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "flows_per_s": "flows/s",
    "peak_rss_mb": "MB",
    "corpus_bytes_per_flow": "bytes",
    "setup_s": "s",
}


def _timing(name, unit, tail="p99"):
    return [(f"{name}.p50", unit, "lower"), (f"{name}.{tail}", unit, "lower"),
            (f"{name}.n", "count", "higher")]


# Per-layer metrics (traced runs): (name, unit, better). Every workload
# reports all of them; a call the workload never makes reads 0 samples.
PER_LAYER = [
    ("workload.sim_busy_share", "ratio", "higher"),
    ("workload.worker_finish_spread_s", "s", "lower"),
    ("workload.post_sim_tail_s", "s", "lower"),
    ("workload.chunks_per_worker", "count", "higher"),
    *_timing("workload.run_flow_ms", "ms"),
    *_timing("workload.run_multi_flow_s", "s"),
    *_timing("workload.manifest_save_ms", "ms", tail="max"),
    ("sim.events_per_s", "events/s", "higher"),
    ("sim.events_per_flow", "count", "lower"),
    ("sim.tombstone_ratio", "ratio", "lower"),
    ("tcp.retransmissions_per_flow", "count", "lower"),
    ("tcp.timeouts_per_flow", "count", "lower"),
    ("net.queue_overflow_drops", "count", "lower"),
    ("fault.triggers", "count", "lower"),
    *_timing("analysis.analyze_flow_ms", "ms"),
    ("analysis.analyze_flow_share", "ratio", "lower"),
    *_timing("analysis.loss_breakdown_us", "us"),
    *_timing("analysis.absorb_us", "us"),
    *_timing("analysis.fairness_report_ms", "ms"),
    *_timing("trace.encode_ms", "ms"),
    ("trace.encode_mb_per_s", "MB/s", "higher"),
    *_timing("trace.chunk_commit_ms", "ms", tail="max"),
    ("trace.merge_s", "s", "lower"),
    ("trace.merge_mb_per_s", "MB/s", "higher"),
    *_timing("trace.decode_ms", "ms"),
    ("trace.decode_mb_per_s", "MB/s", "higher"),
    ("trace.transmissions_per_flow", "count", "lower"),
    ("util.crc32c_mb_per_s", "MB/s", "higher"),
    ("bench.tracing_overhead", "ratio", "lower"),
    # End to end in meaning, but listed here: an end-to-end metric must never
    # read 0, and at a correct build this one always does.
    ("failed_share", "ratio", "lower"),
]

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing(name, durations_s, tail="p99"):
    """`name.p50`, `name.p99` (or `name.max`) and `name.n` of per-call
    durations given in seconds, scaled to the unit `name` ends in."""
    scale = _SCALE[name.rsplit("_", 1)[1]]
    high = max(durations_s, default=0.0) if tail == "max" else percentile(durations_s, 99)
    return {
        f"{name}.p50": percentile(durations_s, 50) * scale,
        f"{name}.{tail}": high * scale,
        f"{name}.n": len(durations_s),
    }


def failed_share(attempted, failed):
    """Failed operations over attempted ones (1.0 when nothing was attempted)."""
    return failed / attempted if attempted else 1.0


def tracing_overhead(untraced_rates, traced_rates):
    """Share of untraced throughput lost with tracing on: 1 - traced/untraced,
    each side its median. Negative when the traced runs happened to be faster."""
    if not untraced_rates or not traced_rates:
        return 0.0
    return 1.0 - statistics.median(traced_rates) / statistics.median(untraced_rates)


def quartile_spread(values):
    """Distance between the first and third quartile over the median, with
    the quartiles statistics.quantiles(values, n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_report(text):
    """Parses hsrbench's line report (see perfbench/bench.h)."""
    rep = {"setup": [], "iters": [], "attempted": 0, "failed": 0, "errors": [],
           "info": {}, "counts": {}, "spans": []}
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        f = rest.split()
        if kind == "setup":
            rep["setup"].append(float(f[0]))
        elif kind == "iter":
            rep["iters"].append({"traced": f[0] == "T", "wall_s": float(f[1]),
                                 "flows": int(f[2]), "bytes": int(f[3]),
                                 "peak_rss_mb": float(f[4])})
        elif kind == "attempt":
            rep["attempted"] += int(f[0])
            rep["failed"] += int(f[1])
        elif kind == "error":
            rep["errors"].append(rest)
        elif kind == "info":
            rep["info"][f[0]] = f[1]
        elif kind == "count":
            rep["counts"][f[0]] = float(f[1])
        elif kind == "span":
            rep["spans"].append((int(f[0]), f[1], int(f[2]), int(f[3]), int(f[4])))
    return rep


def merge_setup(setup_report, report):
    """Folds a separate set-up process's report into the measuring one's."""
    report["setup"] = setup_report["setup"] + report["setup"]
    report["attempted"] += setup_report["attempted"]
    report["failed"] += setup_report["failed"]
    report["errors"] = setup_report["errors"] + report["errors"]
    report["info"] = {**setup_report["info"], **report["info"]}
    return report


def rates(report, traced):
    return [it["flows"] / it["wall_s"] for it in report["iters"]
            if it["traced"] == traced and it["wall_s"] > 0]


def end_to_end(report, process_peak_rss_mb):
    """Medians over the untraced units. Peak RSS is each unit's own where
    the driver could reset the high-water mark, else the process's."""
    untraced = [it for it in report["iters"] if not it["traced"]]
    unit_peaks = [it["peak_rss_mb"] for it in untraced]
    return {
        "flows_per_s": statistics.median(rates(report, False)),
        "peak_rss_mb": (statistics.median(unit_peaks) if all(unit_peaks)
                        else process_peak_rss_mb),
        "corpus_bytes_per_flow": (sum(it["bytes"] for it in untraced)
                                  / sum(it["flows"] for it in untraced)),
        "setup_s": statistics.median(report["setup"]),
    }


class _Spans:
    """Span durations (seconds) grouped by name, optionally by iteration."""

    def __init__(self, spans, iters=None):
        self.by_name = defaultdict(list)
        self.raw = defaultdict(list)
        for it, name, worker, start, end in spans:
            if iters is None or it in iters:
                self.by_name[name].append((end - start) * 1e-9)
                self.raw[name].append((it, worker, start, end))

    def __getitem__(self, name):
        return self.by_name.get(name, [])

    def total(self, name):
        return sum(self[name])


def _per(counts, num, den):
    d = counts.get(den, 0.0)
    return counts.get(num, 0.0) / d if d else 0.0


def _mb_per_s(nbytes, seconds):
    return nbytes / seconds / 1e6 if seconds > 0 else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def campaign_layers(report, threads):
    counts = report["counts"]
    traced = {i for i, it in enumerate(report["iters"]) if it["traced"]}
    engine = _Spans(report["spans"], traced)
    m = {}
    busy, spread, tail = [], [], []
    for it in sorted(traced):
        (_, _, t0, t1), = [s for s in engine.raw["workload.generate_dataset_streaming"]
                           if s[0] == it]
        flows = [s for s in engine.raw["workload.run_flow"] if s[0] == it]
        if not flows:
            continue
        last_end = defaultdict(int)
        for _, worker, _, end in flows:
            last_end[worker] = max(last_end[worker], end)
        busy.append(sum(end - start for _, _, start, end in flows) / (threads * (t1 - t0)))
        spread.append((max(last_end.values()) - min(last_end.values())) * 1e-9)
        tail.append((t1 - max(last_end.values())) * 1e-9)
    m["workload.sim_busy_share"] = _median(busy)
    m["workload.worker_finish_spread_s"] = _median(spread)
    m["workload.post_sim_tail_s"] = _median(tail)
    m["workload.chunks_per_worker"] = counts.get("workload.chunks_total", 0.0) / threads
    m.update(timing("workload.run_flow_ms", engine["workload.run_flow"]))
    busy_s = engine.total("workload.run_flow")
    m["sim.events_per_s"] = counts.get("sim.events", 0.0) * len(traced) / busy_s if busy_s else 0.0
    _sim_counters(m, counts, counts.get("engine.flows", 0.0))

    replay_iter = int(report["info"].get("replay_iter", -1))
    replay = _Spans(report["spans"], {replay_iter})
    m.update(timing("workload.manifest_save_ms", replay["workload.save_campaign_manifest"],
                    tail="max"))
    m.update(timing("analysis.analyze_flow_ms", replay["analysis.analyze_flow"]))
    total = replay.total("replay.total")
    m["analysis.analyze_flow_share"] = (
        replay.total("analysis.analyze_flow") / total if total else 0.0)
    m.update(timing("analysis.loss_breakdown_us", replay["analysis.loss_breakdown"]))
    m.update(timing("analysis.absorb_us", replay["analysis.absorb"]))
    m.update(timing("trace.encode_ms", replay["trace.encode"]))
    m["trace.encode_mb_per_s"] = _mb_per_s(counts.get("replay.encoded_bytes", 0.0),
                                           replay.total("trace.encode"))
    m.update(timing("trace.chunk_commit_ms", replay["trace.chunk_commit"], tail="max"))
    m["trace.merge_s"] = replay.total("trace.merge")
    m["trace.merge_mb_per_s"] = _mb_per_s(counts.get("replay.corpus_bytes", 0.0),
                                          m["trace.merge_s"])
    m["util.crc32c_mb_per_s"] = _mb_per_s(counts.get("util.crc_bytes", 0.0),
                                          replay.total("util.crc32c_of_file"))
    return m


def corpus_scan_layers(report):
    counts = report["counts"]
    traced = {i for i, it in enumerate(report["iters"]) if it["traced"]}
    scan = _Spans(report["spans"], traced)
    corpus_bytes = sum(it["bytes"] for i, it in enumerate(report["iters"]) if i in traced)
    m = {}
    m.update(timing("trace.decode_ms", scan["trace.decode"]))
    m["trace.decode_mb_per_s"] = _mb_per_s(corpus_bytes, scan.total("trace.decode"))
    m.update(timing("analysis.analyze_flow_ms", scan["analysis.analyze_flow"]))
    total = scan.total("corpus_scan.total")
    m["analysis.analyze_flow_share"] = (
        scan.total("analysis.analyze_flow") / total if total else 0.0)
    m.update(timing("analysis.loss_breakdown_us", scan["analysis.loss_breakdown"]))
    m.update(timing("analysis.absorb_us", scan["analysis.absorb"]))
    m["trace.transmissions_per_flow"] = _per(counts, "trace.transmissions", "scan.flows")
    crc = _Spans(report["spans"])
    m["util.crc32c_mb_per_s"] = _mb_per_s(counts.get("util.crc_bytes", 0.0),
                                          crc.total("util.crc32c_of_file"))
    return m


def shared_cell_layers(report):
    """Counters are sums over the traced units (scenarios differ)."""
    counts = report["counts"]
    traced = {i for i, it in enumerate(report["iters"]) if it["traced"]}
    cell = _Spans(report["spans"], traced)
    m = {}
    m.update(timing("workload.run_multi_flow_s", cell["workload.run_multi_flow"]))
    m.update(timing("analysis.fairness_report_ms", cell["analysis.fairness_report"]))
    busy_s = cell.total("workload.run_multi_flow")
    total = cell.total("shared_cell.total")
    m["workload.sim_busy_share"] = busy_s / total if total else 0.0
    m["sim.events_per_s"] = counts.get("sim.events", 0.0) / busy_s if busy_s else 0.0
    _sim_counters(m, counts, counts.get("cell.flows", 0.0))
    m["net.queue_overflow_drops"] /= max(1, len(traced))  # per scenario
    m["fault.triggers"] /= max(1, len(traced))
    return m


def _sim_counters(m, counts, flows):
    """Exact per-flow counters shared by the workloads that simulate."""
    per_flow = (lambda name: counts.get(name, 0.0) / flows) if flows else (lambda name: 0.0)
    m["sim.events_per_flow"] = per_flow("sim.events")
    m["sim.tombstone_ratio"] = _per(counts, "sim.tombstones", "sim.scheduled")
    m["tcp.retransmissions_per_flow"] = per_flow("tcp.retransmissions")
    m["tcp.timeouts_per_flow"] = per_flow("tcp.timeouts")
    m["net.queue_overflow_drops"] = counts.get("net.queue_overflow_drops", 0.0)
    m["fault.triggers"] = counts.get("fault.triggers", 0.0)
    m["trace.transmissions_per_flow"] = per_flow("engine.transmissions")


def per_layer(workload, report, params):
    """Every PER_LAYER metric for one traced run; 0 where the workload never
    makes the call."""
    if workload == "campaign":
        m = campaign_layers(report, params["threads"])
    elif workload == "corpus_scan":
        m = corpus_scan_layers(report)
    else:
        m = shared_cell_layers(report)
    m["bench.tracing_overhead"] = tracing_overhead(rates(report, False), rates(report, True))
    m["failed_share"] = failed_share(report["attempted"], report["failed"])
    return {name: m.get(name, 0) for name, _, _ in PER_LAYER}
