"""Single-step proof mutations, shared by the corpus and acceptance tests,
and a reference walk over a proof's citations.

Three mutation kinds are produced: a step's stated formula is altered, a
premise index is redirected, or a justification's scheme name is swapped.
Each mutation changes the proof and must be rejected by the checker.
"""

from __future__ import annotations

import random
from typing import Optional

from mathkernel.kernel import (
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    LOGICAL_PARAMS,
    Proof,
    SchemeError,
    Step,
    THEORY_PARAMS,
    logical_instance,
)
from mathkernel.syntax import Environment, neg

_LOGICAL_GROUPS = {
    kinds: tuple(s for s, k in LOGICAL_PARAMS.items() if k == kinds)
    for kinds in set(LOGICAL_PARAMS.values())
}
_THEORY_GROUPS = {
    kinds: tuple(s for s, k in THEORY_PARAMS.items() if k == kinds)
    for kinds in set(THEORY_PARAMS.values())
}


def _with_step(proof: Proof, i: int, step: Step) -> Proof:
    steps = proof.steps[:i] + (step,) + proof.steps[i + 1:]
    return Proof(proof.hypotheses, steps, proof.enabled)


def _mutate_formula(proof: Proof, i: int) -> Proof:
    st = proof.steps[i]
    return _with_step(proof, i, Step(neg(st.formula), st.just))


def _mutate_premise(rng: random.Random, proof: Proof, i: int) -> Optional[Proof]:
    st = proof.steps[i]
    j = st.just
    if isinstance(j, ByHyp) and len(proof.hypotheses) > 1:
        alt = rng.choice([k for k in range(len(proof.hypotheses))
                          if k != j.index])
        return _with_step(proof, i, Step(st.formula, ByHyp(alt)))
    if i < 2:
        return None  # no alternative earlier step to point at
    def redirect(k: int) -> int:
        return rng.choice([m for m in range(i) if m != k])
    if isinstance(j, ByMP):
        if rng.random() < 0.5:
            return _with_step(proof, i,
                              Step(st.formula, ByMP(redirect(j.minor), j.major)))
        return _with_step(proof, i,
                          Step(st.formula, ByMP(j.minor, redirect(j.major))))
    if isinstance(j, (ByGenF, ByGenE)):
        cls = type(j)
        return _with_step(proof, i,
                          Step(st.formula, cls(redirect(j.premise), j.var,
                                               j.to_var)))
    if isinstance(j, ByRelease):
        return _with_step(proof, i,
                          Step(st.formula, ByRelease(redirect(j.premise))))
    return None


def _mutate_scheme(rng: random.Random, proof: Proof, i: int) -> Optional[Proof]:
    st = proof.steps[i]
    j = st.just
    if isinstance(j, ByLogical):
        group = [s for s in _LOGICAL_GROUPS[LOGICAL_PARAMS[j.scheme]]
                 if s != j.scheme]
        rng.shuffle(group)
        for scheme in group:
            try:
                changed = logical_instance(scheme, j.params) != st.formula
            except SchemeError:
                changed = True  # the swap is ill-formed, hence rejected
            if changed:
                return _with_step(proof, i,
                                  Step(st.formula, ByLogical(scheme, j.params)))
        return None
    if isinstance(j, ByTheory):
        group = [s for s in _THEORY_GROUPS[THEORY_PARAMS[j.scheme]]
                 if s != j.scheme]
        if not group:
            return None
        scheme = rng.choice(group)
        return _with_step(proof, i, Step(st.formula, ByTheory(scheme, j.params)))
    return None


def mutations(rng: random.Random, proof: Proof, count: int = 20) -> list[Proof]:
    """``count`` distinct single-step corruptions of a valid proof."""
    out: list[Proof] = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("could not generate enough mutations")
        i = rng.randrange(len(proof.steps))
        kind = rng.choice(("formula", "premise", "scheme"))
        if kind == "formula":
            mutated: Optional[Proof] = _mutate_formula(proof, i)
        elif kind == "premise":
            mutated = _mutate_premise(rng, proof, i)
        else:
            mutated = _mutate_scheme(rng, proof, i)
        if mutated is not None and mutated != proof:
            out.append(mutated)
    return out


def drop_step(proof: Proof, index: int) -> Proof:
    """Remove one step, remapping premise indices across the gap."""
    def remap(k: int) -> int:
        if k < index:
            return k
        if k > index:
            return k - 1
        return max(0, k - 1)  # dangling reference lands on a neighbor

    steps = []
    for i, st in enumerate(proof.steps):
        if i == index:
            continue
        j = st.just
        if isinstance(j, ByMP):
            j = ByMP(remap(j.minor), remap(j.major))
        elif isinstance(j, (ByGenF, ByGenE)):
            j = type(j)(remap(j.premise), j.var, j.to_var)
        elif isinstance(j, ByRelease):
            j = ByRelease(remap(j.premise))
        steps.append(Step(st.formula, j))
    return Proof(proof.hypotheses, tuple(steps), proof.enabled)


def dead_steps(proof: Proof) -> list[int]:
    """The indices of the steps that the last step does not cite, directly
    or through other steps."""
    live = {len(proof.steps) - 1}
    for i in reversed(range(len(proof.steps))):
        if i in live:
            j = proof.steps[i].just
            if isinstance(j, ByMP):
                live.update((j.minor, j.major))
            elif isinstance(j, (ByGenF, ByGenE, ByRelease)):
                live.add(j.premise)
    return [i for i in range(len(proof.steps)) if i not in live]
