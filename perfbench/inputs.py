"""Seeded inputs for the benchmark workloads, and the references their
verdicts are checked against.

The benchmark keeps its own copies of the generators it needs, so editing
a test cannot change a workload:

* ``tactics_proofs`` is the random-proof generator of acceptance
  criterion 07 (``tests/proofgen.py``);
* ``mutations`` is the single-step proof corruption of criterion 09
  (``tests/mutation.py``), with two guards added so that every mutant is
  invalid by construction whatever the seed;
* ``formula_mix`` builds propositional formulas whose intuitionistic
  status is known by construction, and ``refutes`` re-checks a returned
  Kripke countermodel with an evaluator that shares no code with
  ``mathkernel.semantics``.
"""

from __future__ import annotations

import random
from typing import Optional

from mathkernel import kernel, syntax
from mathkernel.kernel import (
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    Proof,
    SchemeError,
    Step,
)
from mathkernel.syntax import AApp, And, BOT, Environment, Implies, MApp, Or, Quote

# ---------------------------------------------------------------------------
# tactics: the criterion-07 generator

_MAX_DEPTH = 4
_LOGICAL_ARITY = {"L1": 2, "L2": 3, "L3": 2, "L4": 2, "L5": 2,
                  "L6": 2, "L7": 2, "L8": 3, "L9": 1}


def make_env() -> Environment:
    """One named sentence; its M/A ascriptions are the generated atoms."""
    env = Environment()
    env.define("s0", (), BOT)
    return env


def _atoms() -> list:
    return [AApp(Quote("s0")), MApp(Quote("s0")), BOT]


def _random_formula(rng: random.Random, depth: int = _MAX_DEPTH):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(_atoms())
    shape = rng.choice((And, Or, Implies))
    return shape(_random_formula(rng, depth - 1),
                 _random_formula(rng, depth - 1))


def _random_proof(rng: random.Random, env: Environment,
                  n_hyps: int, n_moves: int) -> Proof:
    from mathkernel.tactics import ProofBuilder

    hyps = []
    for _ in range(n_hyps):
        phi = _random_formula(rng)
        if phi not in hyps:
            hyps.append(phi)
    b = ProofBuilder(env, tuple(hyps))
    for i in range(len(hyps)):
        b.hyp(i)
    b.logical("L9", _random_formula(rng, 2))
    for _ in range(n_moves):
        if rng.random() < 0.3:
            have = {step.formula: i for i, step in enumerate(b.steps)}
            candidates = [(have[phi.left], i) for phi, i in have.items()
                          if isinstance(phi, Implies) and phi.left in have]
            if candidates:
                minor, major = rng.choice(candidates)
                b.mp(minor, major)
        else:
            scheme = rng.choice(tuple(_LOGICAL_ARITY))
            params = [_random_formula(rng, 2)
                      for _ in range(_LOGICAL_ARITY[scheme])]
            b.logical(scheme, *params)
    return b.build()


def tactics_proofs(seed: int, count: int) -> list[Proof]:
    """The first ``count`` proofs criterion 07 draws from ``seed``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(_random_proof(rng, make_env(), n_hyps=rng.randint(0, 2),
                                 n_moves=rng.randint(2, 8)))
    return out


# ---------------------------------------------------------------------------
# kernel: single-step mutants


def _scheme_groups(params: dict) -> dict:
    return {kinds: tuple(s for s, k in params.items() if k == kinds)
            for kinds in set(params.values())}


_LOGICAL_GROUPS = _scheme_groups(kernel.LOGICAL_PARAMS)
_THEORY_GROUPS = _scheme_groups(kernel.THEORY_PARAMS)


def _with_step(proof: Proof, i: int, step: Step) -> Proof:
    return Proof(proof.hypotheses,
                 proof.steps[:i] + (step,) + proof.steps[i + 1:],
                 proof.enabled)


def _mutate_premise(rng: random.Random, proof: Proof, i: int
                    ) -> Optional[Proof]:
    st = proof.steps[i]
    j = st.just
    if isinstance(j, ByHyp):
        # guard: the new hypothesis must state a different formula
        alts = [k for k, h in enumerate(proof.hypotheses)
                if h != proof.hypotheses[j.index]]
        if not alts:
            return None
        return _with_step(proof, i, Step(st.formula, ByHyp(rng.choice(alts))))
    if isinstance(j, ByRelease) or i < 2:
        return None  # two quotations may name one body: not surely invalid

    def redirect(k: int) -> Optional[int]:
        # guard: the new premise must state a different formula
        alts = [m for m in range(i)
                if proof.steps[m].formula != proof.steps[k].formula]
        return rng.choice(alts) if alts else None

    if isinstance(j, ByMP):
        if rng.random() < 0.5:
            minor = redirect(j.minor)
            return None if minor is None else _with_step(
                proof, i, Step(st.formula, ByMP(minor, j.major)))
        major = redirect(j.major)
        return None if major is None else _with_step(
            proof, i, Step(st.formula, ByMP(j.minor, major)))
    if isinstance(j, (ByGenF, ByGenE)):
        premise = redirect(j.premise)
        return None if premise is None else _with_step(
            proof, i, Step(st.formula, type(j)(premise, j.var, j.to_var)))
    return None


def _mutate_scheme(rng: random.Random, env: Environment, proof: Proof,
                   i: int) -> Optional[Proof]:
    st = proof.steps[i]
    j = st.just
    if isinstance(j, ByLogical):
        group = [s for s in _LOGICAL_GROUPS[kernel.LOGICAL_PARAMS[j.scheme]]
                 if s != j.scheme]
        make = ByLogical
        instance = lambda s: kernel.logical_instance(s, j.params)  # noqa: E731
    elif isinstance(j, ByTheory):
        group = [s for s in _THEORY_GROUPS[kernel.THEORY_PARAMS[j.scheme]]
                 if s != j.scheme]
        make = ByTheory
        instance = lambda s: kernel.theory_instance(env, s, j.params)  # noqa: E731
    else:
        return None
    rng.shuffle(group)
    for scheme in group:
        # guard: the swapped scheme must not justify the same formula
        try:
            changed = instance(scheme) != st.formula
        except (SchemeError, syntax.DefinitionError, syntax.IllFormedError):
            changed = True
        if changed:
            return _with_step(proof, i, Step(st.formula, make(scheme, j.params)))
    return None


def mutations(rng: random.Random, env: Environment, proof: Proof,
              count: int) -> list[Proof]:
    """``count`` distinct single-step corruptions of a valid proof: a stated
    formula negated, a premise redirected, or a scheme name swapped."""
    out: list[Proof] = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("could not generate enough mutations")
        i = rng.randrange(len(proof.steps))
        kind = rng.choice(("formula", "premise", "scheme"))
        if kind == "formula":
            st = proof.steps[i]
            mutated: Optional[Proof] = _with_step(
                proof, i, Step(syntax.neg(st.formula), st.just))
        elif kind == "premise":
            mutated = _mutate_premise(rng, proof, i)
        else:
            mutated = _mutate_scheme(rng, env, proof, i)
        if mutated is not None and mutated != proof:
            out.append(mutated)
    return out


# ---------------------------------------------------------------------------
# countermodel: formulas of known status
#
# A formula is a tuple: ("atom", name), ("bot",), or (op, left, right) with
# op one of "and", "or", "imp".

COUNTERMODEL_LIMIT_S = 0.4

# (status, atom count, formulas per block).  Valid formulas are L1-L9
# instances and implication chains: the search must exhaust every model.
# Refutable ones are classical principles over distinct atoms.  Measured on
# a 2-core machine, valid formulas of 1-2 atoms and refutable ones of 1-6
# atoms decide in at most 0.17 s, while valid formulas of 4-8 atoms take
# 1.4 s to hours: those overrun the limit.  Valid 3-atom formulas
# (0.17-1.4 s) and refutable ones of 7-8 atoms (0.27-1.4 s) straddle the
# limit and are left out, so the same formulas overrun on every run.
COUNTERMODEL_MIX = (
    ("valid", 1, 3), ("valid", 2, 3),
    ("valid", 4, 1), ("valid", 5, 1), ("valid", 6, 1), ("valid", 7, 1),
    ("valid", 8, 1),
    ("refutable", 1, 4), ("refutable", 2, 4), ("refutable", 3, 4),
    ("refutable", 4, 4), ("refutable", 5, 4), ("refutable", 6, 4),
)

MIX_BLOCK = sum(count for _, _, count in COUNTERMODEL_MIX)

_VALID_KINDS = ("chain",) + tuple(_LOGICAL_ARITY)
_REFUTABLE_KINDS = {"EM": 1, "DNE": 1, "Peirce": 2, "ImpDisj": 2}
_ATOM_NAMES = "pqrsuvwxyz"
_BOT = ("bot",)


def _imp(a, b):
    return ("imp", a, b)


def _neg(a):
    return ("imp", a, _BOT)


def _join(op: str, parts: list):
    out = parts[0]
    for p in parts[1:]:
        out = (op, out, p)
    return out


def _logical(scheme: str, p: list):
    if scheme == "L1":
        return _imp(p[0], _imp(p[1], p[0]))
    if scheme == "L2":
        a, b, c = p
        return _imp(_imp(a, _imp(b, c)), _imp(_imp(a, b), _imp(a, c)))
    if scheme == "L3":
        return _imp(p[0], _imp(p[1], ("and", p[0], p[1])))
    if scheme == "L4":
        return _imp(("and", p[0], p[1]), p[0])
    if scheme == "L5":
        return _imp(("and", p[0], p[1]), p[1])
    if scheme == "L6":
        return _imp(p[0], ("or", p[0], p[1]))
    if scheme == "L7":
        return _imp(p[1], ("or", p[0], p[1]))
    if scheme == "L8":
        a, b, c = p
        return _imp(_imp(a, c), _imp(_imp(b, c), _imp(("or", a, b), c)))
    if scheme == "L9":
        return _imp(_BOT, p[0])
    raise ValueError(scheme)


def _valid(atoms: list, kind: str, turn: int):
    if kind == "chain":  # a1 -> (a1 -> a2) -> ... -> (a(k-1) -> ak) -> ak
        out = ("atom", atoms[-1])
        for x, y in reversed(list(zip(atoms, atoms[1:]))):
            out = _imp(_imp(("atom", x), ("atom", y)), out)
        return _imp(("atom", atoms[0]), out)
    n = _LOGICAL_ARITY[kind]
    groups: list[list] = [[] for _ in range(n)]
    for i, a in enumerate(atoms):
        groups[i % n].append(("atom", a))
    for i, g in enumerate(groups):
        if not g:
            g.append(("atom", atoms[i % len(atoms)]))
    ops = ("and", "or", "imp")
    return _logical(kind, [_join(ops[(turn + i) % 3], g)
                           for i, g in enumerate(groups)])


def _refutable(atoms: list, kind: str, op: str):
    # Each letter of the principle becomes a conjunction or a disjunction of
    # its own atoms.  Giving every atom of a letter that letter's value in
    # the principle's countermodel refutes the instance too.
    letters = _REFUTABLE_KINDS[kind]
    a = _join(op, [("atom", x) for x in atoms[::letters]])
    b = _join(op, [("atom", x) for x in atoms[1::letters]]) if letters == 2 else None
    if kind == "EM":
        return ("or", a, _neg(a))
    if kind == "DNE":
        return _imp(_neg(_neg(a)), a)
    if kind == "Peirce":
        return _imp(_imp(_imp(a, b), a), a)
    return _imp(_imp(a, b), ("or", _neg(a), b))  # ImpDisj


def formula_mix(seed: int, blocks: int) -> list[tuple[str, str, int, str, tuple]]:
    """``blocks`` blocks of (text, status, atom count, kind, formula); each
    block holds COUNTERMODEL_MIX in a shuffled order.

    The seed names the atoms and orders each block.  The kinds and
    connectives go round a fixed rotation, and the atoms are used in
    alphabetical order, so the search does the same work for every seed.
    """
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        block = []
        for status, k, count in COUNTERMODEL_MIX:
            for j in range(count):
                turn = b * count + j
                atoms = sorted(rng.sample(_ATOM_NAMES, k))
                if status == "valid":
                    kind = _VALID_KINDS[turn % len(_VALID_KINDS)]
                    phi = _valid(atoms, kind, turn)
                else:
                    kinds = [n for n, m in _REFUTABLE_KINDS.items() if m <= k]
                    kind = kinds[turn % len(kinds)]
                    op = ("and", "or")[turn // len(kinds) % 2]
                    phi = _refutable(atoms, kind, op)
                block.append((show(phi), status, k, kind, phi))
        rng.shuffle(block)
        out += block
    return out


def show(phi) -> str:
    if phi[0] == "atom":
        return phi[1]
    if phi[0] == "bot":
        return "bot"
    op = {"and": "&", "or": "|", "imp": "->"}[phi[0]]
    return f"({show(phi[1])} {op} {show(phi[2])})"


def refutes(phi, size: int, order, valuation: dict, world: int) -> bool:
    """True iff (size, order, valuation) is a Kripke model -- a partial
    order with upward-closed atom sets -- whose ``world`` does not force
    ``phi``.  Atoms missing from ``valuation`` are false everywhere."""
    worlds = range(size)
    le = set(order)
    if not all(0 <= u < size and 0 <= v < size for u, v in le):
        return False
    if not all((w, w) in le for w in worlds):
        return False
    if any(u != v and (v, u) in le for u, v in le):
        return False
    if any((u, t) not in le for u, v in le for v2, t in le if v2 == v):
        return False
    up = {w: [v for v in worlds if (w, v) in le] for w in worlds}
    val = {a: set(ws) for a, ws in valuation.items()}
    for ws in val.values():
        if not ws <= set(worlds) or any(v not in ws for w in ws for v in up[w]):
            return False
    if not 0 <= world < size:
        return False

    def forces(f, w: int) -> bool:
        if f[0] == "bot":
            return False
        if f[0] == "atom":
            return w in val.get(f[1], ())
        if f[0] == "and":
            return forces(f[1], w) and forces(f[2], w)
        if f[0] == "or":
            return forces(f[1], w) or forces(f[2], w)
        return all(not forces(f[1], v) or forces(f[2], v) for v in up[w])

    return not forces(phi, world)
