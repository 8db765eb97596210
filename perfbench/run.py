"""The mathkernel benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (perfbench/worker.py) as one closed-loop client: one operation
in flight, no threads.  With ``--trace 0`` it prints every end-to-end
metric of BENCHMARK.json, with ``--trace 1`` every per-layer metric, one
per line with its unit, then one JSON object as the last line.  It exits
1 when a verdict disagrees with its reference and 2 when the program's
source is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "mathkernel" / "corpus"
SETUPS = 7  # fresh workers per run whose set-up times give setup_s
COLD_RUNS = 5  # cold CLI runs of each kind per run
COLD_SCRIPT = "truth_conjunction_distribution.pf"
WORKER_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, *extra: str) -> tuple[float, dict]:
    """Start a worker; return its set-up time and its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    before = speed.samples()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"worker failed during set-up: {line!r}")
        setup_s *= speed.factor(before + speed.samples())
        out, _ = proc.communicate("go\n", timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    results = [l for l in out.splitlines() if l.startswith("RESULT ")]
    return setup_s, (json.loads(results[-1][len("RESULT "):])
                     if results else {})


def _cli(*argv: str) -> tuple[float, subprocess.CompletedProcess]:
    """Scaled seconds and outcome of one fresh CLI process."""
    return speed.timed(subprocess.run,
                       [sys.executable, "-m", "mathkernel.cli", *argv],
                       cwd=ROOT, env=_env(), capture_output=True, text=True,
                       timeout=WORKER_TIMEOUT_S)


def cold_runs(manifest: dict) -> tuple[list, list, int]:
    """Fresh ``mathkernel check`` and ``corpus --json`` processes, one at a
    time; each output is checked against the manifest."""
    want = {name: f"⊦ {e['conclusion']}" for name, e in manifest.items()}
    check_s, corpus_s, wrong = [], [], 0
    for _ in range(COLD_RUNS):
        seconds, done = _cli("check", str(CORPUS / COLD_SCRIPT))
        check_s.append(seconds)
        wrong += done.returncode != 0 or done.stdout.strip() != want[COLD_SCRIPT]
        seconds, done = _cli("corpus", "--json")
        corpus_s.append(seconds)
        try:
            got = {e["script"]: e["detail"] for e in
                   json.loads(done.stdout)["entries"] if e["ok"]}
        except (ValueError, KeyError):
            got = None
        wrong += done.returncode != 0 or got != want
    return check_s, corpus_s, wrong


def import_times() -> tuple[float, float]:
    """Cumulative import seconds of mathkernel.cli and of numpy, from
    ``python -X importtime``; the median of three fresh processes."""
    cli, numpy = [], []
    for _ in range(3):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mathkernel.cli"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        cumulative = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        cli.append(cumulative.get("mathkernel.cli", 0.0))
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20240817,
                    help="default: the seed of acceptance criterion 07")
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # one core for the benchmark, its workers and the CLI runs, so the
    # speed calibration runs where the measured code runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mathkernel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no mathkernel source under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    manifest = {e["script"]: e for e in
                json.loads((CORPUS / "manifest.json").read_text())}

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json.gz"
        _, result = run_worker(args, "--spans", str(spans))
        import_s, numpy_s = import_times()
        values = dict(result["per_layer"], **{"cli.import_s": import_s,
                                              "cli.import_numpy_s": numpy_s})
        wanted = spec["per_layer"]
        runs = [result["untraced"], result["traced"]]
        cold_wrong = 0
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        setups = [run_worker(args, "--setup-only")[0] for _ in range(SETUPS - 1)]
        setup_s, result = run_worker(args)
        setups.append(setup_s)
        check_s, corpus_s, cold_wrong = cold_runs(manifest)
        run = result["untraced"]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_per_s": run["ops_per_s"],
            "op_ms.p50": run["op_ms.p50"],
            "op_ms.p90": run["op_ms.p90"],
            "decided_share": run["ok"] / run["ops"],
            "cold_check_s": statistics.median(check_s),
            "cold_corpus_s": statistics.median(corpus_s),
        }
        wanted = spec["end_to_end"]
        runs = [run]
        # reported, not bounded: failed_share is 0 on three workloads, and
        # the others apply to some workloads only
        extra = {"failed_share": ((run["wrong"] + run["undecided"])
                                  / run["ops"], "share"),
                 "raw_ops_per_s": (run["raw_ops_per_s"], "1/s"),
                 "speed_factor": (run["speed"], "1")}
        if args.workload in ("corpus", "kernel", "tactics"):
            extra["steps_per_s"] = (run["steps_per_s"], "1/s")
        if args.workload == "tactics":
            extra["emitted_steps_per_proof"] = (run["steps_per_ok_op"],
                                                "steps")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        for name, (value, unit) in extra.items():
            print(f"# {name:38s} {value:14.6g} {unit}")
    for run in runs:
        for note in run["notes"]:
            print(f"# {note}", file=sys.stderr)
    attempted = sum(r["ops"] for r in runs) + (0 if args.trace else 2 * COLD_RUNS)
    wrong = sum(r["wrong"] for r in runs) + cold_wrong
    failed = wrong + sum(r["undecided"] for r in runs)
    print(f"# attempted {attempted}  failed {failed}  "
          f"(wrong verdicts {wrong}, undecided {failed - wrong})")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
