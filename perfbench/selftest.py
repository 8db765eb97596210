"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py                 # the fast checks, ~10 s
    python3 perfbench/selftest.py --determinism   # also two traced runs of
                                                  # every workload, ~2 min

The fast checks cover the self-time arithmetic on a synthetic nested
trace, the recursion rule of the span recorder, the independent Kripke
checker, and that a forged wrong verdict and a forced time-limit overrun
each raise the failed share.  ``--determinism`` runs the traced benchmark
twice per workload with one seed and requires every count to repeat
exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mathkernel import kernel  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_self_time_on_a_nested_trace() -> None:
    # op [0,10] > a [1,6] > b [2,4] > a [4.5,5.5];  op > b [7,9]
    names = ["op", "a", "b"]
    span_name = [0, 1, 2, 1, 2]
    start = [0.0, 1.0, 2.0, 4.5, 7.0]
    end = [10.0, 6.0, 4.0, 5.5, 9.0]
    parent = [-1, 0, 1, 2, 0]
    got = spans.summarize(names, span_name, start, end, parent)
    want = {"op": (10.0, 3.0, 1),  # (s, self_s, spans)
            "a": (5.0, 4.0, 2),  # the inner a lies inside the outer one
            "b": (4.0, 3.0, 2)}
    for name, (s, self_s, n) in want.items():
        row = got[name]
        check(close(row["s"], s) and close(row["self_s"], self_s)
              and row["spans"] == n, f"{name}: {row} != {(s, self_s, n)}")
    check(close(sum(r["self_s"] for r in got.values()), 10.0),
          "self times do not add up to the root span")


def test_direct_recursion_stays_in_one_span() -> None:
    tracer = spans.Tracer()

    def depth(n: int) -> int:
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("x.depth", depth)
    tracer.begin_op(0)
    traced(4)
    tracer.end_op()
    check(tracer.calls[tracer.name_id("x.depth")] == 5, "recursive calls")
    check(len(tracer.start) == 2, "one root span and one span for depth")
    check(tracer.parent.tolist() == [-1, 0], "depth nests under the root")


def test_kripke_checker() -> None:
    p, q = ("atom", "p"), ("atom", "q")
    em = ("or", p, ("imp", p, ("bot",)))
    chain = [(0, 0), (1, 1), (0, 1)]
    check(inputs.refutes(em, 2, chain, {"p": [1]}, 0), "p|~p refuted at 0")
    check(not inputs.refutes(em, 2, chain, {"p": [1]}, 1), "p|~p holds at 1")
    check(not inputs.refutes(em, 2, chain, {"p": [0]}, 0),
          "a valuation that is not upward closed is no model")
    check(not inputs.refutes(em, 2, [(0, 0), (0, 1)], {"p": [1]}, 0),
          "an order that is not reflexive is no poset")
    check(not inputs.refutes(("imp", p, ("or", p, q)), 2, chain,
                             {"p": [0, 1], "q": []}, 0), "L6 is never refuted")


def test_forged_verdict_raises_failed_share() -> None:
    wl = workloads.Kernel(seed=1)
    clean = worker.timed_loop(wl, wl.items())
    check(clean["wrong"] == 0, f"clean run has failures: {clean['notes']}")
    real = kernel.check_proof

    def accept_everything(env, proof, *args, **kwargs):
        return kernel.Judgment(proof.hypotheses, proof.steps[-1].formula, ())

    kernel.check_proof = accept_everything
    try:
        forged = worker.timed_loop(wl, wl.items())
    finally:
        kernel.check_proof = real
    mutants = sum(1 for case in wl.items() if case[2] is None)
    check(forged["wrong"] == mutants,
          f"{forged['wrong']} wrong verdicts, expected {mutants}")


def test_overrun_raises_failed_share() -> None:
    wl = workloads.Countermodel(seed=1)
    try:
        wl.limit = 1e-6  # no search answers this fast
        items = wl.items()[:4]
        run = worker.timed_loop(wl, items)
    finally:
        wl.close()
    check(run["undecided"] == len(items) and run["wrong"] == 0
          and run["ok"] == 0, f"overruns not counted: {run}")


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "steps")}


def determinism(seed: int) -> None:
    for name in workloads.WORKLOADS:
        first, second = traced_counts(name, seed), traced_counts(name, seed)
        diff = {k: (v, second[k]) for k, v in first.items() if second[k] != v}
        check(not diff, f"{name}: counts differ between runs: {diff}")
        print(f"ok   {name}: {len(first)} counts repeat exactly")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok   {test.__name__}")
    if args.determinism:
        determinism(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
