#!/usr/bin/env python3
"""Benchmark for the posnd proof toolchain.

One process, one thread, one client in a closed loop: the client sends the
next request only after it has checked the answer to the previous one, as
a proof-search tool, an editor or the command line would.  Inputs are
generated from ``--seed``; every output is checked against the answer
known by construction, and a mismatch or an exception (``RecursionError``
included) counts as a failed request.

    python3 perfbench/run.py --workload check-stream --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
requests once untraced and once traced, prints the per-layer metrics with
their self time and the tracing overhead, and writes the spans to
``.bench_out/``.  ``--workload all`` runs every workload in turn and prints
one row per workload.  The last line of the output is one JSON object.

End-to-end times are scaled to a reference machine speed measured by a
calibration loop interleaved with the requests (see ``calibrate.py``); the
per-layer busy times of the traced run are as measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibrate import CAL_EVERY_S, calibration_ns, scale, scaled_seconds  # noqa: E402
from spans import NoTrace, Trace  # noqa: E402

#: Set-up (input generation, conversion and warm-up) and the import are
#: repeated this many times per run and their medians reported, so that one
#: slow repetition does not move ``setup_s``.
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
#: A run is made of whole passes over the generated items; the timing
#: metrics are medians over passes.
MIN_PASSES = 3
MODULES = ("posnd.syntax", "posnd.kernel", "posnd.normalizer", "posnd.semantics", "posnd.translate")

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel.parse_proof.calls": "count",
    "kernel.parse_proof.busy_s": "s",
    "kernel.parse_proof.bytes_per_s": "B/s",
    "kernel.check.calls": "count",
    "kernel.check.busy_s": "s",
    "kernel.check.nodes": "count",
    "kernel.check.us_per_node": "us",
    "kernel.check.reject_ratio": "ratio",
    "kernel.print_check_report.busy_s": "s",
    "kernel.print_proof.busy_s": "s",
    "normalizer.normalize.calls": "count",
    "normalizer.normalize.busy_s": "s",
    "normalizer.normalize.rounds": "count",
    "normalizer.normalize.ms_per_round": "ms",
    "normalizer.normalize.nodes_in": "count",
    "normalizer.normalize.nodes_out": "count",
    "normalizer.is_normal.busy_s": "s",
    "normalizer.spine.busy_s": "s",
    "translate.classical_to_intuitionistic.busy_s": "s",
    "translate.classical_to_intuitionistic.growth": "ratio",
    "translate.classical_to_intuitionistic.share": "ratio",
    "translate.derivation_to_labelled.busy_s": "s",
    "translate.print_labelled.busy_s": "s",
    "syntax.parse_formula.busy_s": "s",
    "semantics.consequence_probe.closed.calls": "count",
    "semantics.consequence_probe.closed.busy_s": "s",
    "semantics.consequence_probe.open.calls": "count",
    "semantics.consequence_probe.open.busy_s": "s",
    "semantics.find_countermodel.busy_s": "s",
    "semantics.refuted_ratio": "ratio",
    "bench.request.self_s": "s",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}


def percentile(values: list, q: float) -> float:
    """Linear interpolation between the closest ranks of sorted ``values``."""
    k = (len(values) - 1) * q / 100
    lo = int(k)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9, p99, p90, p50 with at least ten samples beyond it."""
    for q, beyond_per_mille in ((99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)):
        if n * beyond_per_mille >= 10 * 1000:
            return q
    return None


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the package, scaled by
    calibrations the child runs just before and after its import."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
        "from calibrate import CAL_REF_NS, calibration_ns; "
        "calibration_ns(); c0 = calibration_ns(); t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in MODULES)
        + "; took = time.perf_counter() - t; "
        "print(took * CAL_REF_NS / ((c0 + calibration_ns()) / 2))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def set_up(workload, seed: int):
    """Generate, convert and warm up; returns the prepared items.

    The warm-up sends one request of each input class: the one that comes
    first in the generator's fixed schedule, so that it is the same request
    (up to atom names) whatever the seed.
    """
    prepared = workload.prepare(workload.generate(seed))
    first: dict = {}
    for item, cls in zip(prepared, workload.classes(prepared)):
        if cls not in first or item[0].order < first[cls][0].order:
            first[cls] = item
    for item in first.values():
        try:
            workload.request(item, NoTrace())
        except Exception:  # noqa: BLE001 - the timed loop counts it
            pass
    return prepared


def run_one(workload, prepared, index: int, tr, failures: Counter) -> int:
    """One timed request and its check; returns its latency in ns."""
    item = prepared[index % len(prepared)]
    tr.begin(index)
    start = perf_counter_ns()
    try:
        outputs = workload.request(item, tr)
    except Exception as exc:  # noqa: BLE001 - a failing request is a result
        outputs, why = None, f"raised {type(exc).__name__}"
    latency = perf_counter_ns() - start
    tr.end()
    if outputs is not None:
        try:
            why = workload.verify(item, outputs, tr)
        except Exception as exc:  # noqa: BLE001 - malformed output
            why = f"unreadable output ({type(exc).__name__})"
    if why:
        failures[why] += 1
    return latency


def closed_loop(workload, prepared, seconds: float, tr, failures: Counter, passes: int | None = None):
    """Whole passes over the items, requests back to back, until the next
    pass would end after ``seconds`` (or until ``passes`` are done).

    Returns two lists with one list of latencies (ns) per pass: scaled to
    reference speed, and as measured.
    """
    scaled_runs: list[list[float]] = []
    raw_runs: list[list[int]] = []
    start = perf_counter()
    while passes is None or len(raw_runs) < passes:
        begun = perf_counter()
        base = len(raw_runs) * len(prepared)
        raw: list[int] = []
        cals = [calibration_ns()]
        cal_at = perf_counter()
        cuts = [0]  # requests [cuts[j], cuts[j + 1]) ran between cals[j] and cals[j + 1]
        for i in range(len(prepared)):
            raw.append(run_one(workload, prepared, base + i, tr, failures))
            if perf_counter() - cal_at >= CAL_EVERY_S or i == len(prepared) - 1:
                cals.append(calibration_ns())
                cal_at = perf_counter()
                cuts.append(len(raw))
        scaled_runs.append(scale(raw, cals, cuts))
        raw_runs.append(raw)
        took = perf_counter() - begun
        if passes is None and len(raw_runs) >= MIN_PASSES and perf_counter() - start + took > seconds:
            break
    return scaled_runs, raw_runs


def pass_stats(runs) -> dict:
    """Requests per second of busy time, the median over passes, and the
    latency percentiles over every request of the run."""
    # The client's own checking between requests is not busy time.
    rates = [len(lat) / (sum(lat) / 1e9) for lat in runs]
    ms = sorted(x / 1e6 for lat in runs for x in lat)
    return {
        "requests_per_s": statistics.median(rates),
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
    }


def per_layer(tr: Trace, untraced_ns: list, traced_ns: list) -> tuple[dict, dict]:
    layers = tr.layers()
    c = tr.counters

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    request_s = busy("request")
    out = {
        "kernel.parse_proof.calls": calls("kernel.parse_proof"),
        "kernel.parse_proof.busy_s": busy("kernel.parse_proof"),
        "kernel.parse_proof.bytes_per_s": ratio(c["kernel.parse_proof.bytes"], busy("kernel.parse_proof")),
        "kernel.check.calls": calls("kernel.check"),
        "kernel.check.busy_s": busy("kernel.check"),
        "kernel.check.nodes": c["kernel.check.nodes"],
        "kernel.check.us_per_node": ratio(busy("kernel.check") * 1e6, c["kernel.check.nodes"]),
        "kernel.check.reject_ratio": ratio(c["kernel.check.rejected"], calls("kernel.check")),
        "kernel.print_check_report.busy_s": busy("kernel.print_check_report"),
        "kernel.print_proof.busy_s": busy("kernel.print_proof"),
        "normalizer.normalize.calls": calls("normalizer.normalize"),
        "normalizer.normalize.busy_s": busy("normalizer.normalize"),
        "normalizer.normalize.rounds": c["normalizer.rounds"],
        "normalizer.normalize.ms_per_round": ratio(busy("normalizer.normalize") * 1e3, c["normalizer.rounds"]),
        "normalizer.normalize.nodes_in": c["normalizer.nodes_in"],
        "normalizer.normalize.nodes_out": c["normalizer.nodes_out"],
        "normalizer.is_normal.busy_s": busy("normalizer.is_normal"),
        "normalizer.spine.busy_s": busy("normalizer.spine"),
        "translate.classical_to_intuitionistic.busy_s": busy("translate.classical_to_intuitionistic"),
        "translate.classical_to_intuitionistic.growth": ratio(c["translate.nodes_out"], c["translate.nodes_in"]),
        "translate.classical_to_intuitionistic.share": ratio(busy("translate.classical_to_intuitionistic"), request_s),
        "translate.derivation_to_labelled.busy_s": busy("translate.derivation_to_labelled"),
        "translate.print_labelled.busy_s": busy("translate.print_labelled"),
        "syntax.parse_formula.busy_s": busy("syntax.parse_formula"),
        "semantics.consequence_probe.closed.calls": calls("semantics.consequence_probe.closed"),
        "semantics.consequence_probe.closed.busy_s": busy("semantics.consequence_probe.closed"),
        "semantics.consequence_probe.open.calls": calls("semantics.consequence_probe.open"),
        "semantics.consequence_probe.open.busy_s": busy("semantics.consequence_probe.open"),
        "semantics.find_countermodel.busy_s": busy("semantics.find_countermodel"),
        "semantics.refuted_ratio": ratio(
            c["semantics.refuted"],
            calls("semantics.consequence_probe.closed") + calls("semantics.consequence_probe.open"),
        ),
        "bench.request.self_s": layers.get("request", {}).get("self_s", 0.0),
        "trace.overhead_ms": (sum(traced_ns) - sum(untraced_ns)) / 1e6 / len(traced_ns),
        "trace.overhead_share": ratio(sum(traced_ns) - sum(untraced_ns), sum(untraced_ns)),
    }
    return out, layers


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    imports = import_seconds()
    setups = [scaled_seconds(lambda: set_up(workload, seed)) for _ in range(SETUP_REPEATS)]
    prepared = setups[-1][0]
    inputs_s = statistics.median(s for _, s in setups)
    setup_s = imports + inputs_s
    del setups
    # The collector need not walk the benchmark's own long-lived inputs.
    gc.collect()
    gc.freeze()
    failures: Counter = Counter()
    if not traced:
        runs, raw = closed_loop(workload, prepared, seconds, NoTrace(), failures)
        metrics = {
            **pass_stats(runs),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{name}: set-up {setup_s:.4g} s = import {imports:.4g} s + inputs and warm-up {inputs_s:.4g} s")
        return runs, raw, failures, metrics, None
    # The same passes twice: untraced for half the time, then traced.
    plain, plain_raw = closed_loop(workload, prepared, seconds / 2, NoTrace(), failures)
    tr = Trace()
    traced, traced_raw = closed_loop(workload, prepared, 0, tr, failures, passes=len(plain))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    metrics, layers = per_layer(tr, [x for lat in plain for x in lat], [x for lat in traced for x in lat])
    return plain + traced, plain_raw + traced_raw, failures, metrics, layers


def print_row(name, runs, raw, failures, metrics):
    n = sum(len(lat) for lat in runs)
    failed = sum(failures.values())
    parts = [f"{name:15s}"]
    for key, unit in END_TO_END.items():
        parts.append(f"{key}={metrics[key]:.4g} {unit}")
    q = tail_percentile(n)
    if q is not None and q > 90:
        ms = sorted(x / 1e6 for lat in runs for x in lat)
        parts.append(f"latency_p{q:g}_ms={percentile(ms, q):.4g} ms (all passes)")
    parts.append(f"error_rate={failed / n:.4g} ({failed}/{n} requests, {len(runs)} passes)")
    print("  ".join(parts))
    unscaled = pass_stats(raw)
    speed = sum(map(sum, runs)) / sum(map(sum, raw))
    print(f"{'':15s}  unscaled: " + "  ".join(f"{k}={v:.4g}" for k, v in unscaled.items())
          + f"  (machine ran at {speed:.2f}x the reference speed)")
    for why, k in failures.most_common():
        print(f"    failed: {k} x {why}")


def print_layers(name, layers, metrics):
    total = layers.get("request", {}).get("busy_s", 0.0) or 1.0
    print(f"{name}: spans at the benchmark's calls into each module "
          "(one thread, closed loop: no request ever waits, so waiting time is zero)")
    print(f"  {'span':44s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s} {'share':>7s}")
    for span, row in sorted(layers.items(), key=lambda kv: -kv[1]["busy_s"]):
        share = row["busy_s"] / total
        print(f"  {span:44s} {row['calls']:7d} {row['busy_s']:10.4f} {row['self_s']:10.4f} {share:7.1%}")
    for key, unit in PER_LAYER.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")


def main(argv=None) -> int:
    names = ("check-stream", "normalize-deep", "countermodel")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "posnd" / "__init__.py").is_file():
        print(f"error: the package sources are missing ({SRC / 'posnd'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    chosen = names if args.workload == "all" else (args.workload,)
    specs = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    result: dict = {}
    for name in chosen:
        runs, raw, failures, metrics, layers = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += sum(len(lat) for lat in runs)
        failed += sum(failures.values())
        if args.trace:
            print_layers(name, layers, metrics)
        else:
            print_row(name, runs, raw, failures, metrics)
        prefix = f"{name}." if len(chosen) > 1 else ""
        for key, unit in specs.items():
            result[prefix + key] = {"value": metrics[key], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
