"""The four workloads.  Each one builds its inputs from the seed during
set-up, runs one operation at a time through ``op`` (the timed part) and
checks the result in ``verify`` against a reference that does not come
from the code under test.

``verify`` returns one of ``OK``, ``WRONG`` (a verdict that disagrees with
its reference) or ``UNDECIDED`` (no verdict within the time limit).
"""

from __future__ import annotations

import json
import multiprocessing
import random
import time

import inputs
from mathkernel import corpus, kernel, parser, script, semantics, syntax, tactics
from mathkernel.kernel import ByLogical
from mathkernel.syntax import pformat

OK, WRONG, UNDECIDED, ERROR = "ok", "wrong", "undecided", "error"


def _manifest(directory) -> dict:
    """The frozen manifest, read with nothing but ``json``."""
    raw = json.loads((directory / "manifest.json").read_text())
    return {item["script"]: item for item in raw}


def _extensions(judgment) -> list:
    return sorted((g.scheme, None if g.formula is None else pformat(g.formula))
                  for g in judgment.extensions_used)


class Workload:
    name = ""
    # a timed run ends on a multiple of this many ops, so that every run
    # measures the same mix
    cycle = 1

    def items(self) -> list:
        """The cycle of inputs the timed loop goes round."""
        raise NotImplementedError

    def trace_items(self) -> list:
        """The fixed inputs of the traced run."""
        return self.items()

    def op(self, item):
        raise NotImplementedError

    def verify(self, item, result) -> tuple[str, int]:
        """(status, proof steps given a verdict)."""
        raise NotImplementedError

    def after_op(self) -> None:
        pass

    def op_seconds(self, result, wall: float) -> float:
        """The time to verdict of an op that took ``wall`` seconds."""
        return wall

    def set_tracer(self, tracer) -> None:
        pass

    def close(self) -> None:
        pass


class Corpus(Workload):
    """``check_entry`` on every manifest entry, pass after pass."""

    name = "corpus"
    _MANIFEST = "load_manifest"

    def __init__(self, seed: int) -> None:
        self.directory = corpus.corpus_dir()
        self.expected = _manifest(self.directory)
        self.entries = list(corpus.load_manifest(self.directory))
        random.Random(seed).shuffle(self.entries)
        self.cycle = len(self.entries)
        self.steps = {}
        self.bad = set()  # entries whose judgment differs from the manifest
        for entry in self.entries:  # also the warm-up
            want = self.expected.get(entry.script)
            text = (self.directory / entry.script).read_text()
            try:
                parsed, env = script.parse_script(text)
                proof = parsed.proof()
                judgment = kernel.check_proof(env, proof)
            except (script.ScriptError, kernel.ProofCheckError):
                self.bad.add(entry.script)
                self.steps[entry.script] = 0
                continue
            self.steps[entry.script] = len(proof.steps)
            got = (pformat(judgment.conclusion),
                   [pformat(h) for h in judgment.hypotheses],
                   _extensions(judgment))
            if want is None or got != (
                    want["conclusion"], want.get("hypotheses", []),
                    sorted((e["scheme"], e.get("formula"))
                           for e in want["extensions"])):
                self.bad.add(entry.script)

    def items(self) -> list:
        return self.entries

    def trace_items(self) -> list:
        return [self._MANIFEST] + self.entries

    def op(self, entry):
        if entry == self._MANIFEST:
            return corpus.load_manifest(self.directory)
        return corpus.check_entry(entry, self.directory)

    def verify(self, entry, result) -> tuple[str, int]:
        if entry == self._MANIFEST:
            got = sorted(e.script for e in result)
            return (OK if got == sorted(self.expected) else WRONG), 0
        want = self.expected.get(entry.script)
        ok = (result.passed and entry.script not in self.bad
              and want is not None
              and result.detail == f"⊦ {want['conclusion']}")
        return (OK if ok else WRONG), self.steps[entry.script]


class Tactics(Workload):
    """Criterion 07's random proofs through deduction, meaningfulness
    closure and internalization; every output is re-checked and the
    result emitted as a script, as ``mathkernel tactic`` prints it."""

    name = "tactics"
    COUNT = 1000
    TRACED = 200

    def __init__(self, seed: int) -> None:
        self.proofs = inputs.tactics_proofs(seed, self.COUNT)
        for proof in inputs.tactics_proofs(seed + 1, 5):  # warm-up
            self.verify(proof, self.op(proof))

    def items(self) -> list:
        return self.proofs

    def trace_items(self) -> list:
        return self.proofs[:self.TRACED]

    def op(self, proof):
        env = inputs.make_env()
        if proof.hypotheses:
            kernel.check_proof(env, tactics.deduction_theorem(env, proof))
        m_proofs = {s.formula: tactics.meaningfulness_closure(env, s.formula)
                    for s in proof.steps if isinstance(s.just, ByLogical)}
        out = tactics.internalize(env, proof, m_proofs)
        kernel.check_proof(env, out)
        return out, script.emit_script(script.script_of(env, out))

    def verify(self, proof, result) -> tuple[str, int]:
        out, text = result
        parsed, _ = script.parse_script(text)
        return (OK if parsed.proof() == out else WRONG), len(out.steps)


_OVERRUN = "overrun"


def _serve(conn, tracer) -> None:
    """The search process: parse and search each formula it is sent."""
    if tracer is not None:
        tracer.reset()
    while True:
        try:
            text = conn.recv()
        except EOFError:
            return
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            phi = parser.parse_formula(text, syntax.Environment())
            cm = semantics.find_countermodel(phi)
            if cm is None:
                reply = {"model": None}
            else:
                frame = cm.model.frame
                reply = {"model": (frame.size, sorted(frame.order),
                                   {a: sorted(ws) for a, ws
                                    in cm.model.valuation.items()},
                                   cm.world)}
        except Exception as exc:  # reported as a failed operation
            reply = {"error": repr(exc)}
        reply["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            reply["trace"] = tracer.drain()
        conn.send(reply)


class Countermodel(Workload):
    """``parse_formula`` + ``find_countermodel`` on formulas of known
    status, each in a search process that is killed and restarted when a
    formula runs past the limit."""

    name = "countermodel"
    BLOCKS = 10  # more distinct formulas than a run reaches
    cycle = inputs.MIX_BLOCK

    def __init__(self, seed: int) -> None:
        self.mix = inputs.formula_mix(seed, self.BLOCKS)
        self.limit = inputs.COUNTERMODEL_LIMIT_S
        semantics.enumerate_frames(4)  # cached; forked search processes share it
        # fork: a restart then costs milliseconds, not a fresh import
        self.ctx = multiprocessing.get_context("fork")
        self.tracer = None
        self.proc = None
        self.conn = None
        self.overran = False
        self._start()
        # the same small warm-up for every seed: set-up time must not
        # depend on which formulas the seed drew
        warm = [m for m in self.mix if m[1] == "refutable" and m[2] <= 2]
        for item in warm[:5]:
            self.verify(item, self.op(item))
            self.after_op()

    def _start(self) -> None:
        self.conn, child = self.ctx.Pipe()
        self.proc = self.ctx.Process(target=_serve, args=(child, self.tracer),
                                     daemon=True)
        self.proc.start()
        child.close()

    def _stop(self) -> None:
        if self.proc is None:
            return
        self.proc.kill()  # the search process holds no state worth keeping
        self.proc.join()
        self.conn.close()
        self.proc = self.conn = None

    def items(self) -> list:
        return self.mix

    def trace_items(self) -> list:
        return self.mix[:inputs.MIX_BLOCK]

    def op(self, item):
        start = time.perf_counter()
        self.conn.send(item[0])
        self.overran = not self.conn.poll(self.limit)
        if self.overran:
            if self.tracer is not None:  # the search's own spans are lost
                self.tracer.add_span("semantics.overrun", start,
                                     time.perf_counter())
            return _OVERRUN  # after_op kills the search process
        reply = self.conn.recv()
        if self.tracer is not None and "trace" in reply:
            self.tracer.absorb(reply.pop("trace"))
        return reply

    def after_op(self) -> None:
        if self.overran or not self.proc.is_alive():
            self._stop()
            self._start()

    def op_seconds(self, result, wall: float) -> float:
        # the search process's own clock: the pipe's wake-ups are the
        # benchmark's cost, not the user's
        return wall if result == _OVERRUN else result["seconds"]

    def verify(self, item, result) -> tuple[str, int]:
        if result == _OVERRUN:
            return UNDECIDED, 0
        if "error" in result:
            return ERROR, 0
        _, status, _, _, phi = item
        model = result["model"]
        if status == "valid":
            return (OK if model is None else WRONG), 0
        return (OK if model is not None and inputs.refutes(phi, *model)
                else WRONG), 0

    def set_tracer(self, tracer) -> None:
        self._stop()
        self.tracer = tracer
        self._start()  # the new process inherits the patched functions

    def close(self) -> None:
        self._stop()


class Kernel(Workload):
    """One ``check_proof`` verdict per operation: the corpus proofs, parsed
    during set-up, and seeded single-step mutants of each."""

    name = "kernel"
    MUTANTS = 20  # per corpus proof

    def __init__(self, seed: int) -> None:
        directory = corpus.corpus_dir()
        self.expected = _manifest(directory)
        self.cases = []
        for name in sorted(self.expected):
            parsed, env = script.parse_script((directory / name).read_text())
            proof = parsed.proof()
            self.cases.append((env, proof, name))
            rng = random.Random(f"{seed}:{name}")
            self.cases += [(env, m, None)
                           for m in inputs.mutations(rng, env, proof,
                                                     self.MUTANTS)]
        random.Random(seed).shuffle(self.cases)
        self.cycle = len(self.cases)
        for case in self.cases:  # warm-up: every original once
            if case[2] is not None:
                self.verify(case, self.op(case))

    def items(self) -> list:
        return self.cases

    def op(self, case):
        env, proof, _ = case
        try:
            return kernel.check_proof(env, proof)
        except kernel.ProofCheckError:
            return None

    def verify(self, case, judgment) -> tuple[str, int]:
        _, proof, name = case
        if name is None:  # a mutant must be rejected
            ok = judgment is None
        else:
            ok = (judgment is not None and pformat(judgment.conclusion)
                  == self.expected[name]["conclusion"])
        return (OK if ok else WRONG), len(proof.steps)


WORKLOADS = {w.name: w for w in (Corpus, Tactics, Countermodel, Kernel)}
