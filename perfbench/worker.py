"""One workload in a fresh process: set up, say READY, run the timed loop
(and, with --trace 1, the traced run), then print one RESULT line of JSON.

Started by run.py with ``src`` on PYTHONPATH; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import ERROR, OK, UNDECIDED, WORKLOADS, WRONG

import spans as tracing
import speed

CALIBRATE_EVERY_S = 0.02


def timed_loop(wl, items, seconds=None, cycle=1, tracer=None) -> dict:
    """Run ops round ``items`` until ``seconds`` have passed and the op
    count is a multiple of ``cycle``, or once through ``items`` when
    ``seconds`` is None.  With a tracer, each op is the root span of its
    calls."""
    durations, ends, statuses, notes = [], [], Counter(), []
    undecided = []  # indexes of ops that ran into a time limit
    cal_times, cal_samples = [], []
    last_cal = float("-inf")
    steps = 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    n = 0
    while True:
        item = items[n % len(items)]
        if tracer is not None:
            tracer.begin_op(n)
        t0 = time.perf_counter()
        try:
            result, error = wl.op(item), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        durations.append(t1 - t0 if error else wl.op_seconds(result, t1 - t0))
        ends.append(t1)
        wl.after_op()
        if t1 - last_cal >= CALIBRATE_EVERY_S:
            cal_samples.append(speed.sample())
            cal_times.append(time.perf_counter())
            last_cal = t1
        if error is None:
            try:
                status, op_steps = wl.verify(item, result)
            except Exception:
                status, op_steps = WRONG, 0
                error = traceback.format_exc(limit=3)
        else:
            status, op_steps = ERROR, 0
        statuses[status] += 1
        if status == UNDECIDED:
            undecided.append(n)
        if status == OK:
            steps += op_steps
        elif len(notes) < 3 and status != UNDECIDED:
            notes.append(f"op {n} {status}: {error or repr(item)[:200]}")
        n += 1
        if deadline is None:
            if n == len(items):
                break
        elif n % cycle == 0 and time.perf_counter() >= deadline:
            break
    raw_busy = sum(durations)
    scaled = speed.scale(ends, durations, cal_times, cal_samples)
    for i in undecided:  # a time limit is wall-clock time: never scaled
        scaled[i] = durations[i]
    busy = sum(scaled)
    deciles = statistics.quantiles(scaled, n=10) if n > 1 else scaled * 9
    return {
        "ops": n,
        "ok": statuses[OK],
        "wrong": statuses[WRONG] + statuses[ERROR],
        "undecided": statuses[UNDECIDED],
        "busy_s": busy,
        "ops_per_s": n / busy,
        "raw_ops_per_s": n / raw_busy,
        "speed": speed.factor(cal_samples),
        "op_ms.p50": 1e3 * statistics.median(scaled),
        "op_ms.p90": 1e3 * deciles[8],
        "steps_per_s": steps / busy,
        "steps_per_ok_op": steps / statuses[OK] if statuses[OK] else 0.0,
        "notes": notes,
    }


def per_layer(workload: str, tracer, traced: dict, untraced: dict) -> dict:
    summary = tracing.summarize(tracer.names, tracer.span_name, tracer.start,
                                tracer.end, tracer.parent)
    calls = {tracer.names[k]: v for k, v in tracer.calls.items()}
    out = {}
    for name in tracing.TARGETS:
        row = summary.get(name, {"s": 0.0, "self_s": 0.0})
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = calls.get(name, 0)
    for key in (tracing.STEPS_CHECKED, tracing.MODELS_BUILT):
        out[key] = tracer.counts.get(key, 0)
    adds = out["tactics.ProofBuilder.add.calls"]
    out["tactics.ProofBuilder.add.dup_share"] = (
        tracer.counts.get(tracing.ADD_DUPS, 0) / adds if adds else 0.0)
    out["tactics.emitted_steps_per_proof"] = (
        traced["steps_per_ok_op"] if workload == "tactics" else 0.0)
    total = summary[tracing.ROOT]["s"]
    layers = Counter()
    for name, row in summary.items():
        layers[name.split(".")[0] if name != tracing.ROOT else "other"] += (
            row["self_s"])
    for layer in ("script", "parser", "syntax", "kernel", "tactics",
                  "semantics", "corpus", "other"):
        out[f"share.{layer}"] = layers[layer] / total
    out["trace.ops"] = traced["ops"]
    out["trace.busy_s"] = total
    out["trace.spans"] = len(tracer.start)
    # unscaled, like every span time: both runs are in this process
    out["trace.ops_per_s"] = traced["raw_ops_per_s"]
    out["trace.untraced_ops_per_s"] = untraced["raw_ops_per_s"]
    out["trace.overhead_share"] = 1 - (traced["raw_ops_per_s"]
                                       / untraced["raw_ops_per_s"])
    return out


def write_spans(tracer, path: Path, header: dict) -> None:
    """All spans of the traced run, one JSON document, gzipped."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(header, names=tracer.names,
               columns=["name", "start", "end", "parent", "op"],
               spans=list(zip(tracer.span_name, tracer.start, tracer.end,
                              tracer.parent, tracer.op)))
    with gzip.open(path, "wt") as f:
        json.dump(doc, f)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where to write the spans")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    sys.stdin.readline()  # run.py calibrates, then says go
    try:
        if args.setup_only:
            return 0
        if not args.trace:
            result = {"untraced": timed_loop(wl, wl.items(), args.seconds,
                                             wl.cycle)}
        else:
            # the same inputs untraced, then traced: the difference in
            # ops_per_s is the tracing overhead
            items = wl.trace_items()
            result = {"untraced": timed_loop(wl, items, args.seconds,
                                             len(items))}
            tracer = tracing.Tracer()
            tracer.install()
            wl.set_tracer(tracer)
            traced = timed_loop(wl, items, tracer=tracer)
            wl.set_tracer(None)
            tracer.uninstall()
            result["traced"] = traced
            result["per_layer"] = per_layer(args.workload, tracer, traced,
                                            result["untraced"])
            if args.spans:
                write_spans(tracer, Path(args.spans), {
                    "workload": args.workload, "seed": args.seed,
                    "python": platform.python_version(),
                    "nproc": os.cpu_count()})
    finally:
        wl.close()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = rss_kb / 1024
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
