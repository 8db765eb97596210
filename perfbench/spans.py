"""Spans around the calls into mathkernel's public functions.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
module attribute of the ``mathkernel`` package that refers to it, names
re-imported into other modules included (``mathkernel.corpus.parse_script``,
``mathkernel.tactics.logical_instance``, ...), so nested calls nest.  A
wrapper records a span -- name, start, end, parent span, operation id --
only while an operation is open; spans stay in flat arrays in memory and
are summarised or written out when the run ends.  A call that recurses
directly into the same function is counted but stays inside its caller's
span, so a walk over a formula is one span, not one per node.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

ROOT = "op"  # the span the benchmark opens around each operation

# metric name -> (module, attribute path)
TARGETS = {
    "script.parse_script": ("mathkernel.script", "parse_script"),
    "script.script_of": ("mathkernel.script", "script_of"),
    "script.emit_script": ("mathkernel.script", "emit_script"),
    # parse_formula and the parsing of definition bodies both go through
    # FormulaParser.formula
    "parser.parse_formula": ("mathkernel.parser", "FormulaParser.formula"),
    "syntax.Environment.check_formula": ("mathkernel.syntax",
                                         "Environment.check_formula"),
    "syntax.Environment.define": ("mathkernel.syntax", "Environment.define"),
    "syntax.substitute": ("mathkernel.syntax", "substitute"),
    "syntax.free_vars": ("mathkernel.syntax", "free_vars"),
    "kernel.check_proof": ("mathkernel.kernel", "check_proof"),
    "kernel.logical_instance": ("mathkernel.kernel", "logical_instance"),
    "kernel.theory_instance": ("mathkernel.kernel", "theory_instance"),
    "tactics.deduction_theorem": ("mathkernel.tactics", "deduction_theorem"),
    "tactics.internalize": ("mathkernel.tactics", "internalize"),
    "tactics.meaningfulness_closure": ("mathkernel.tactics",
                                       "meaningfulness_closure"),
    "tactics.m_closure_into": ("mathkernel.tactics", "m_closure_into"),
    "tactics.NameStore.name_for": ("mathkernel.tactics", "NameStore.name_for"),
    "tactics.ProofBuilder.add": ("mathkernel.tactics", "ProofBuilder.add"),
    "semantics.find_countermodel": ("mathkernel.semantics",
                                    "find_countermodel"),
    "semantics.enumerate_frames": ("mathkernel.semantics", "enumerate_frames"),
    "corpus.check_entry": ("mathkernel.corpus", "check_entry"),
    "corpus.load_manifest": ("mathkernel.corpus", "load_manifest"),
}

# counters kept next to the spans
STEPS_CHECKED = "kernel.steps_checked"
ADD_DUPS = "tactics.ProofBuilder.add.dups"
MODELS_BUILT = "semantics.models_built"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self._undo: list[tuple[object, str, object]] = []
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording

    def open(self, nid: int, parent: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation and start recording."""
        self.op_id = op_id
        self.calls[0] += 1
        self.open(0, -1)
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.close(self.stack[-1])

    def add_span(self, name: str, start: float, end: float) -> None:
        """A closed span under the open one, timed by the caller."""
        idx = self.open(self.name_id(name), self.stack[-1])
        self.start[idx], self.end[idx] = start, end
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self.active:
            self.counts[key] += n

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            if parent >= 0 and tracer.span_name[parent] == nid:
                return fn(*args, **kwargs)  # direct recursion
            idx = tracer.open(nid, parent)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- patching

    def install(self) -> None:
        """Wrap every target and rebind each reference to it."""
        for name, (module, path) in TARGETS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._extend(name, self.wrap(name, original))
            if outer:  # a method: rebinding it on its class is enough
                self._set(owner, attr, traced)
                continue
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if modname.split(".")[0] != "mathkernel":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        semantics = importlib.import_module("mathkernel.semantics")
        model = semantics.KripkeModel

        def counted_model(*args, **kwargs):
            self.count(MODELS_BUILT)
            return model(*args, **kwargs)

        self._set(semantics, "KripkeModel", counted_model)

    def _extend(self, name: str, traced):
        """Counters that need a function's arguments or effect."""
        tracer = self
        if name == "kernel.check_proof":
            @functools.wraps(traced)
            def check_proof(env, proof, *args, **kwargs):
                tracer.count(STEPS_CHECKED, len(proof.steps))
                return traced(env, proof, *args, **kwargs)
            return check_proof
        if name == "tactics.ProofBuilder.add":
            @functools.wraps(traced)
            def add(builder, *args, **kwargs):
                before = len(builder.steps)
                index = traced(builder, *args, **kwargs)
                if len(builder.steps) == before:
                    tracer.count(ADD_DUPS)
                return index
            return add
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- moving records between processes

    def drain(self) -> dict:
        """Everything recorded since the last drain, as plain data."""
        out = {
            "names": list(self.names),
            "span_name": self.span_name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "calls": {self.names[k]: v for k, v in self.calls.items()},
            "counts": dict(self.counts),
        }
        self.reset()
        return out

    def absorb(self, data: dict) -> None:
        """Add spans drained in another process under the open span."""
        base = len(self.start)
        here = self.stack[-1]
        ids = [self.name_id(n) for n in data["names"]]
        for nid, s, e, p in zip(data["span_name"], data["start"],
                                data["end"], data["parent"]):
            self.span_name.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(here if p < 0 else base + p)
            self.op.append(self.op_id)
        for name, v in data["calls"].items():
            self.calls[self.name_id(name)] += v
        self.counts.update(data["counts"])


def summarize(names, span_name, start, end, parent) -> dict:
    """Per span name: total time ``s`` of the outermost spans of that name,
    self time ``self_s`` (duration minus the time its child spans cover,
    summed over every span of the name) and the number of spans."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    # bit b of above[i] is set when a proper ancestor of span i has name b;
    # parents precede their children in the arrays
    above = [0] * n
    out = {name: {"s": 0.0, "self_s": 0.0, "spans": 0} for name in names}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            above[i] = above[p] | (1 << span_name[p])
        row = out[names[span_name[i]]]
        duration = end[i] - start[i]
        row["spans"] += 1
        row["self_s"] += duration - child[i]
        if not (above[i] >> span_name[i]) & 1:
            row["s"] += duration
    return out
