"""Finite Kripke models and a decision procedure for the intuitionistic
propositional fragment.

A frame is a finite poset of worlds; a model adds an upward-closed
valuation.  Evaluation follows the standard clauses: Bot fails everywhere,
conjunction and disjunction are pointwise, and an implication holds at a
world iff every later world forcing the antecedent forces the consequent.

Validity is decided by Dyckhoff's contraction-free sequent calculus G4ip
(LJT, JSL 57(3), 1992), whose proof search terminates without loop checks.
``validity`` and ``find_countermodel`` run it first: a provable formula is
forced in every Kripke model, so it has no countermodel.  Only unprovable
formulas reach the model search, which is exhaustive over posets up to
isomorphism and monotone valuations; that is what refutes classical
principles like excluded middle and certifies that the checker's logical
base is genuinely intuitionistic.  The search tabulates the Heyting
algebra of each frame's upsets once and evaluates each valuation as a
chain of table lookups.

Both run on a node table that ``_compile`` builds in one walk, abstracting
each maximal non-propositional subformula to an atom as it interns;
``abstract_propositional`` decodes that table into a formula.

One loop, ``_first_refutation``, runs that search.  ``find_countermodel``
gives it every frame; ``holds_in_all_models``, the model-based check that
tests compare G4ip against, gives it only the rooted frames.  The loop
stops after ``_MAX_STEPS`` evaluation steps (valuations tried times compound
nodes) and raises ``SearchBoundError``, a ``SemanticsError``, if it found no
countermodel by then; from ``validity`` the error carries the G4ip verdict.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional

from .syntax import (BOT, And, Atom, Bot, Exists, Forall, Formula, Implies, Or,
                     pformat, record)


class SemanticsError(Exception):
    """Non-propositional input or an invalid frame or model."""


class SearchBoundError(SemanticsError):
    """The model search spent ``_MAX_STEPS`` evaluation steps without a
    countermodel.  ``valid`` is what ``validity`` decided before the
    search: False, or None when a quantified subformula was abstracted or
    no verdict was sought."""

    def __init__(self, steps: int) -> None:
        super().__init__(
            f"no countermodel found within {steps} evaluation steps "
            "(valuations tried times connectives); the search stops there")
        self.steps, self.valid = steps, None


# ---------------------------------------------------------------------------
# frames and models


class KripkeFrame(metaclass=record):
    """A finite poset.  Worlds are 0..n-1; ``order`` holds the pairs
    (u, v) with u <= v, reflexive pairs included."""

    size: int
    order: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        ws = range(self.size)
        for u, v in self.order:
            if not (0 <= u < self.size and 0 <= v < self.size):
                raise SemanticsError(f"order mentions unknown world ({u}, {v})")
        for w in ws:
            if (w, w) not in self.order:
                raise SemanticsError(f"order is not reflexive at {w}")
        for u, v in self.order:
            if u != v and (v, u) in self.order:
                raise SemanticsError(f"order is not antisymmetric on {u}, {v}")
        for u, v in self.order:
            for v2, t in self.order:
                if v2 == v and (u, t) not in self.order:
                    raise SemanticsError(
                        f"order is not transitive: {u} <= {v} <= {t}")

    @property
    def worlds(self) -> range:
        return range(self.size)

    def above(self, w: int) -> tuple[int, ...]:
        return tuple(v for v in self.worlds if (w, v) in self.order)

    def is_upward_closed(self, s: frozenset[int]) -> bool:
        return all(v in s for w in s for v in self.above(w))

    def upsets(self) -> tuple[frozenset[int], ...]:
        out = []
        for bits in itertools.product((False, True), repeat=self.size):
            s = frozenset(w for w in self.worlds if bits[w])
            if self.is_upward_closed(s):
                out.append(s)
        return tuple(out)


def chain_frame(n: int) -> KripkeFrame:
    return KripkeFrame(n, frozenset(
        (u, v) for u in range(n) for v in range(n) if u <= v))


class KripkeModel(metaclass=record):
    """A finite frame with a monotone valuation of atoms."""
    frame: KripkeFrame
    valuation: Mapping[str, frozenset[int]]

    def describe(self) -> str:
        pairs = sorted((u, v) for u, v in self.frame.order if u != v)
        lines = [f"worlds: {list(self.frame.worlds)}",
                 f"order: {pairs or 'discrete'}"]
        for atom in sorted(self.valuation):
            lines.append(f"{atom} true at: {sorted(self.valuation[atom])}")
        return "\n".join(lines)


def check_monotonicity(model: KripkeModel) -> bool:
    return all(model.frame.is_upward_closed(frozenset(ws))
               for ws in model.valuation.values())


# ---------------------------------------------------------------------------
# evaluation


def _require_propositional(phi: Formula) -> None:
    if isinstance(phi, Bot):
        return
    if isinstance(phi, Atom) and not phi.args:
        return
    if isinstance(phi, (And, Or, Implies)):
        _require_propositional(phi.left)
        _require_propositional(phi.right)
        return
    raise SemanticsError(f"not a propositional formula: ({pformat(phi)})")


def eval_at(model: KripkeModel, world: int, phi: Formula) -> bool:
    """Force phi at a world; raises SemanticsError on non-propositional
    input or a non-monotone model."""
    _require_propositional(phi)
    if not check_monotonicity(model):
        raise SemanticsError("the model's valuation is not upward closed")
    return _force(model, world, phi)


def _force(model: KripkeModel, w: int, phi: Formula) -> bool:
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Atom):
        return w in model.valuation.get(phi.pred, frozenset())
    if isinstance(phi, And):
        return _force(model, w, phi.left) and _force(model, w, phi.right)
    if isinstance(phi, Or):
        return _force(model, w, phi.left) or _force(model, w, phi.right)
    # an implication: eval_at lets no other formula through
    return all(not _force(model, v, phi.left) or _force(model, v, phi.right)
               for v in model.frame.above(w))


# ---------------------------------------------------------------------------
# the propositional skeleton, abstracted and interned in one walk


# node kinds; node i of a table is (kind, left, right), and an atom node
# keeps its name in ``left``
_BOT, _ATOM, _AND, _OR, _IMP = range(5)
_KINDS = {And: _AND, Or: _OR, Implies: _IMP}
_TYPES = {kind: t for t, kind in _KINDS.items()}


class _Nodes:
    """Hash-consed propositional formulas: equal formulas get one id, and
    every node's children have smaller ids than the node."""

    def __init__(self) -> None:
        self.table: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self.bot = self.make(_BOT)

    def make(self, kind: int, left=None, right=None) -> int:
        key = (kind, left, right)
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.table)
            self.table.append(key)
        return node


class _Compiled(NamedTuple):
    nodes: _Nodes
    root: int
    atoms: tuple[tuple[str, int], ...]  # (name, node), sorted by name
    steps: tuple[tuple[int, int, int, int], ...]  # postfix (node, kind, l, r)
    names: dict[str, Formula]  # fresh atom -> the subformula it stands for


def _compile(phi: Formula) -> _Compiled:
    """The propositional skeleton of phi, built in one walk and interned
    into a node table whose compound nodes in id order form a postfix
    program.

    Each maximal non-propositional subformula becomes a fresh propositional
    atom, identical subformulas sharing one.  Fresh atoms are p1, p2, ...
    in left-to-right order of first occurrence, skipping names phi already
    uses as atoms.  The walk keeps its own stack, so the connective depth
    of phi is not bounded by Python's recursion limit; a non-propositional
    subformula too deep to compare raises SemanticsError."""
    nodes = _Nodes()
    fresh: dict[Formula, int] = {}  # abstracted subformula -> its atom node
    taken: set[str] = set()  # the names of phi's own atoms
    done: dict[int, int] = {}  # id of a subformula of phi -> its node
    stack = [phi]
    while stack:
        f = stack[-1]
        if id(f) in done:
            stack.pop()
            continue
        if isinstance(f, (And, Or, Implies)):
            missing = [g for g in (f.right, f.left) if id(g) not in done]
            if missing:
                stack += missing  # the left child ends on top: done first
                continue
            done[id(f)] = nodes.make(_KINDS[type(f)], done[id(f.left)],
                                     done[id(f.right)])
        elif isinstance(f, Bot):
            done[id(f)] = nodes.bot
        elif isinstance(f, Atom) and not f.args:
            taken.add(f.pred)
            done[id(f)] = nodes.make(_ATOM, f.pred)
        else:
            try:
                node = fresh.get(f)
            except RecursionError:
                raise SemanticsError(
                    "formula nested too deeply to abstract") from None
            if node is None:
                # named after the walk, once phi's own atoms are all known;
                # no other node can equal it, so it skips the _Nodes index
                node = fresh[f] = len(nodes.table)
                nodes.table.append((_ATOM, None, None))
            done[id(f)] = node
        stack.pop()
    names: dict[str, Formula] = {}
    counter = 0
    for f, node in fresh.items():
        counter += 1
        while f"p{counter}" in taken:
            counter += 1
        names[f"p{counter}"] = f
        nodes.table[node] = (_ATOM, f"p{counter}", None)
    atoms = sorted((name, i) for i, (kind, name, _) in enumerate(nodes.table)
                   if kind == _ATOM)
    steps = tuple((i, kind, l, r) for i, (kind, l, r) in enumerate(nodes.table)
                  if kind >= _AND)
    return _Compiled(nodes, done[id(phi)], tuple(atoms), steps, names)


def abstract_propositional(phi: Formula) -> tuple[Formula, dict[str, Formula]]:
    """The skeleton ``_compile`` interns, as a formula, and the
    atom-to-subformula mapping; equal subformulas of the skeleton are one
    object."""
    compiled = _compile(phi)
    built: list[Formula] = []
    for kind, left, right in compiled.nodes.table:
        built.append(BOT if kind == _BOT else Atom(left) if kind == _ATOM
                     else _TYPES[kind](built[left], built[right]))
    return built[compiled.root], compiled.names


# ---------------------------------------------------------------------------
# G4ip decision procedure


def _g4ip(nodes: _Nodes, ctx: frozenset[int], goal: int):
    """Proof search for the G4ip sequent ``ctx => goal``.  A generator: it
    yields each premise ``(ctx', goal')`` it needs, is sent back whether
    that premise is provable, and returns whether the sequent is.

    Invertible rules are applied first and committed to; the sequent is
    then closed, or its atoms, ``p -> B`` with p absent, ``(C -> D) -> B``
    and disjunctive goal leave the only choices."""
    t = nodes.table
    kind, a, b = t[goal]
    if kind == _AND:
        return (yield ctx, a) and (yield ctx, b)
    if kind == _IMP:
        return (yield ctx | {a}, b)
    if goal in ctx or nodes.bot in ctx:
        return True
    for f in ctx:
        kind, a, b = t[f]
        if kind == _AND:
            return (yield (ctx - {f}) | {a, b}, goal)
        if kind == _OR:
            rest = ctx - {f}
            return (yield rest | {a}, goal) and (yield rest | {b}, goal)
        if kind != _IMP:
            continue
        akind, c, d = t[a]
        if akind == _BOT:
            return (yield ctx - {f}, goal)
        if akind == _ATOM and a in ctx:
            return (yield (ctx - {f}) | {b}, goal)
        if akind == _AND:  # (C & D) -> B  becomes  C -> D -> B
            return (yield (ctx - {f}) | {
                nodes.make(_IMP, c, nodes.make(_IMP, d, b))}, goal)
        if akind == _OR:  # (C | D) -> B  becomes  C -> B, D -> B
            return (yield (ctx - {f}) | {
                nodes.make(_IMP, c, b), nodes.make(_IMP, d, b)}, goal)
    kind, a, b = t[goal]
    if kind == _OR and ((yield ctx, a) or (yield ctx, b)):
        return True
    for f in ctx:
        kind, a, b = t[f]
        if kind == _IMP and t[a][0] == _IMP:
            _, c, d = t[a]
            rest = ctx - {f}
            if (yield rest | {b}, goal) and \
                    (yield rest | {c, nodes.make(_IMP, d, b)}, d):
                return True
    return False


def _decide(compiled: _Compiled) -> bool:
    """Whether ``=> root`` is provable in G4ip.  Each open sequent is a
    generator on an explicit stack, so the search depth is bounded by
    memory, not by Python's recursion limit."""
    nodes = compiled.nodes
    memo: dict[tuple[frozenset[int], int], bool] = {}
    start = (frozenset(), compiled.root)
    stack = [(start, _g4ip(nodes, *start))]
    answer = None  # sent into the generator on top of the stack
    while True:
        sequent, search = stack[-1]
        try:
            premise = search.send(answer)
        except StopIteration as stop:
            answer = memo[sequent] = stop.value
            stack.pop()
            if not stack:
                return answer
            continue
        answer = memo.get(premise)
        if answer is None:
            stack.append((premise, _g4ip(nodes, *premise)))


def provable(phi: Formula) -> bool:
    """True iff the propositional skeleton of phi (see
    ``abstract_propositional``) is a theorem of intuitionistic
    propositional logic, decided by G4ip."""
    return _decide(_compile(phi))


# ---------------------------------------------------------------------------
# frame enumeration up to isomorphism


@lru_cache(maxsize=None)
def enumerate_frames(size: int) -> tuple[KripkeFrame, ...]:
    """All posets on ``size`` worlds, one per isomorphism class.

    Every finite poset has a linear extension (Szpilrajn 1930), so every
    class has a naturally labelled member, whose strict pairs (u, v) all
    have u < v; only those orders are tried.  Each is named by its least
    sorted strict-pair list over all relabellings, and the first order of
    a class gives its frame, with that list as its strict order."""
    if size < 1:
        return ()
    pairs = list(itertools.combinations(range(size), 2))
    perms = list(itertools.permutations(range(size)))
    seen: set[tuple[tuple[int, int], ...]] = set()
    frames: list[KripkeFrame] = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        strict = {pair for pair, bit in zip(pairs, bits) if bit}
        if not all((u, t) in strict
                   for u, v in strict for v2, t in strict if v2 == v):
            continue
        name = min(tuple(sorted((p[u], p[v]) for u, v in strict))
                   for p in perms)
        if name not in seen:
            seen.add(name)
            frames.append(KripkeFrame(size, frozenset(name) | frozenset(
                (w, w) for w in range(size))))
    return tuple(frames)


class _Algebra(NamedTuple):
    """The Heyting algebra of a frame's upsets, over their indices in
    ``frame.upsets()``: the value of a formula is the upset of worlds
    forcing it."""

    ups: tuple[frozenset[int], ...]
    bot: int
    ops: dict[int, tuple[tuple[int, ...], ...]]  # node kind -> op table
    lowest_outside: tuple[Optional[int], ...]  # per upset; None for top


@lru_cache(maxsize=None)  # called only with the enumerated frames
def _algebra(frame: KripkeFrame) -> _Algebra:
    ups = frame.upsets()
    index = {u: i for i, u in enumerate(ups)}
    up_of = [frozenset(frame.above(w)) for w in frame.worlds]

    def table(op) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(index[op(a, b)] for b in ups) for a in ups)

    return _Algebra(
        ups, index[frozenset()],
        {_AND: table(frozenset.__and__),
         _OR: table(frozenset.__or__),
         _IMP: table(lambda a, b: frozenset(
             w for w in frame.worlds if up_of[w] & a <= b))},
        tuple(min((w for w in frame.worlds if w not in u), default=None)
              for u in ups))


# ---------------------------------------------------------------------------
# countermodel search

# the sweep's bound in evaluation steps, valuations tried times compound
# nodes: a count, not a deadline, so every machine stops at the same
# valuation.  Up to 4 worlds the 6-atom width formula (35 nodes, 24.7
# million valuations) passes it; the 5-atom one (24, 1.9 million) does not
_MAX_STEPS = 2**26


class Countermodel(metaclass=record):
    """A model, a world refuting a formula, and its abstractions."""
    model: KripkeModel
    world: int
    subformulas: Mapping[str, Formula]  # atom -> abstracted subformula

    def describe(self) -> str:
        lines = [self.model.describe(), f"refuted at world: {self.world}"]
        for name, phi in sorted(self.subformulas.items()):
            lines.append(f"{name} abbreviates: {pformat(phi)}")
        return "\n".join(lines)


def _first_refutation(compiled: _Compiled, frames: Iterable[KripkeFrame]
                      ) -> Optional[tuple[KripkeModel, int]]:
    """The first model and world refuting the compiled skeleton: frames in
    the order given, monotone valuations in ``itertools.product`` order over
    ``frame.upsets()``, and the lowest refuting world.  None when no model
    on these frames refutes it; ``SearchBoundError`` when ``_MAX_STEPS``
    evaluation steps find none."""
    slots = [node for _, node in compiled.atoms]
    values = [0] * len(compiled.nodes.table)
    budget = _MAX_STEPS // max(len(compiled.steps), 1)  # valuations left
    for frame in frames:
        alg = _algebra(frame)
        program = [(i, alg.ops[kind], l, r) for i, kind, l, r in compiled.steps]
        values[compiled.nodes.bot] = alg.bot
        sweep = itertools.product(range(len(alg.ups)), repeat=len(slots))
        for combo in itertools.islice(sweep, budget):
            for slot, u in zip(slots, combo):
                values[slot] = u
            for i, op, l, r in program:
                values[i] = op[values[l]][values[r]]
            world = alg.lowest_outside[values[compiled.root]]
            if world is not None:
                return KripkeModel(frame, {
                    name: alg.ups[u]
                    for (name, _), u in zip(compiled.atoms, combo)}), world
        budget -= len(alg.ups) ** len(slots)
        if budget < 0:
            raise SearchBoundError(_MAX_STEPS)
    return None


def validity(phi: Formula, max_worlds: int = 4
             ) -> tuple[Optional[bool], Optional[Countermodel]]:
    """Whether phi is intuitionistically valid, by one G4ip search of its
    propositional skeleton, and the first countermodel to the skeleton, as
    ``find_countermodel`` finds it.  True when G4ip proves the skeleton,
    since phi is an instance of it.  Otherwise False, or None when a
    quantified subformula was abstracted: a model of the skeleton need not
    refute phi then, and whether phi is valid is left undecided.  Raises
    ``SearchBoundError``, carrying that verdict, when the model search
    spends ``_MAX_STEPS`` evaluation steps without a countermodel."""
    compiled = _compile(phi)
    if _decide(compiled):
        return True, None
    quantified = any(isinstance(f, (Forall, Exists))
                     for f in compiled.names.values())
    valid = None if quantified else False
    try:
        found = _first_refutation(compiled, (
            frame for size in range(1, max_worlds + 1)
            for frame in enumerate_frames(size)))
    except SearchBoundError as exc:
        exc.valid = valid
        raise
    return valid, (
        None if found is None else Countermodel(*found, compiled.names))


def find_countermodel(phi: Formula, max_worlds: int = 4
                      ) -> Optional[Countermodel]:
    """The first countermodel to phi's propositional skeleton, searching
    posets by size up to ``max_worlds`` worlds (one per isomorphism class,
    in ``enumerate_frames`` order), monotone valuations in
    ``itertools.product`` order over ``frame.upsets()``, and the lowest
    refuting world.  None when G4ip proves the skeleton, or when no model
    within the bound refutes it; ``SearchBoundError`` when ``_MAX_STEPS``
    evaluation steps find no countermodel."""
    return validity(phi, max_worlds)[1]


def holds_in_all_models(phi: Formula, max_worlds: int = 4) -> bool:
    """True iff phi's propositional skeleton is forced at every world of
    every model on every poset with at most ``max_worlds`` worlds.  A model
    search, without G4ip.

    Only rooted frames, where some world has every world above it, are
    searched.  That gives the same answer: a formula refuted at world w is
    refuted in the submodel generated by w, which is rooted and no larger
    (the generated-submodel lemma; Chagrov & Zakharyaschev 1997, *Modal
    Logic*)."""
    return _first_refutation(_compile(phi), (
        frame for size in range(1, max_worlds + 1)
        for frame in enumerate_frames(size)
        if any(len(frame.above(w)) == size for w in frame.worlds))) is None
