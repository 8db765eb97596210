"""Proof transformers built on top of the checker.

Nothing here extends the trusted base: every tactic produces an ordinary
proof object that the checker validates step by step.  The main entry
points are:

* ``deduction_theorem`` -- discharge a hypothesis H, turning a proof of
  phi from Gamma, H into a proof of H -> phi from Gamma.
* ``internalize`` -- turn a purely logical proof of phi from psi_1..psi_k
  into a proof of A(`phi`) from A(`psi_1`)..A(`psi_k`), given
  meaningfulness proofs for the logical axioms it uses.
* ``meaningfulness_closure`` -- derive M(`phi`) by recursion on the shape
  of phi from the compositional meaningfulness schemes, given M facts for
  any atomic leaves that have no scheme of their own.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from .kernel import (
    ByExtension,
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    ExtensionGrant,
    Justification,
    Proof,
    SchemeError,
    Step,
    extension_grant,
    extension_instance,
    generalize,
    logical_instance,
    release,
    theory_instance,
)
from .script import emit_just
from .syntax import (
    AApp,
    And,
    Bot,
    Environment,
    Exists,
    Forall,
    Formula,
    Implies,
    MApp,
    Or,
    Quote,
    first_occurrence_vars,
    free_vars,
    quoted,
)


class TacticError(Exception):
    """A tactic's precondition is not met."""


class NoHypothesisError(TacticError):
    """The hypothesis named to discharge is not one of the proof's."""


# ---------------------------------------------------------------------------
# fresh quotation names


class NameStore:
    """Hands out quotation names for formulas: an existing binding when
    some definition already has exactly the requested body, else the least
    unbound name q1, q2, ... of the environment."""

    def __init__(self, env: Environment) -> None:
        self.env = env

    def name_for(self, phi: Formula) -> str:
        params = first_occurrence_vars(phi)
        name = self.env.name_of(params, phi)
        if name is None:
            name = self.env.fresh_name()
            self.env.define(name, params, phi)
        return name


# ---------------------------------------------------------------------------
# proof builder


class ProofBuilder:
    """Accumulates steps, deduplicating by formula: adding a formula that is
    already proven returns the existing step index."""

    def __init__(self, env: Environment, hypotheses: Sequence[Formula] = (),
                 enabled: frozenset[ExtensionGrant] = frozenset()) -> None:
        self.env = env
        self.hypotheses = tuple(hypotheses)
        self.enabled: set[ExtensionGrant] = set(enabled)
        self.steps: list[Step] = []
        self._cache: dict[Formula, int] = {}

    def __len__(self) -> int:
        return len(self.steps)

    def formula_at(self, index: int) -> Formula:
        return self.steps[index].formula

    def add(self, formula: Formula, just: Justification) -> int:
        n = len(self.steps)
        index = self._cache.setdefault(formula, n)
        if index == n:
            self.steps.append(Step(formula, just))
        return index

    # -- convenience constructors; the checker re-validates everything

    def hyp(self, index: int) -> int:
        return self.add(self.hypotheses[index], ByHyp(index))

    def logical(self, scheme: str, *params) -> int:
        return self.add(logical_instance(scheme, params),
                        ByLogical(scheme, tuple(params)))

    def theory(self, scheme: str, *params) -> int:
        return self.add(theory_instance(self.env, scheme, params),
                        ByTheory(scheme, tuple(params)))

    def extension(self, scheme: str, *params) -> int:
        instance = extension_instance(self.env, scheme, params)
        self.enabled.add(extension_grant(self.env, scheme, params))
        return self.add(instance, ByExtension(scheme, tuple(params)))

    def mp(self, minor: int, major: int) -> int:
        big = self.formula_at(major)
        small = self.formula_at(minor)
        if not isinstance(big, Implies) or (big.left is not small
                                            and big.left != small):
            raise TacticError(
                f"modus ponens mismatch: ({small}) against ({big})")
        return self.add(big.right, ByMP(minor, major))

    def genf(self, premise: int, x: str, y: Optional[str] = None) -> int:
        return self._gen(ByGenF(premise, x, x if y is None else y))

    def gene(self, premise: int, x: str, y: Optional[str] = None) -> int:
        return self._gen(ByGenE(premise, x, x if y is None else y))

    def _gen(self, just: ByGenF | ByGenE) -> int:
        try:
            out = generalize(self.formula_at(just.premise), just.var,
                             just.to_var, isinstance(just, ByGenF))
        except SchemeError as exc:
            raise TacticError(str(exc)) from None
        return self.add(out, just)

    def release(self, premise: int) -> int:
        try:
            body = release(self.env, self.formula_at(premise))
        except SchemeError as exc:
            raise TacticError(str(exc)) from None
        self.enabled.add(ExtensionGrant("ReleaseRule", body))
        return self.add(body, ByRelease(premise))

    def embed(self, sub: Proof) -> int:
        """Splice another proof in, mapping its hypotheses onto this
        builder's hypotheses or already-proven steps."""
        self.enabled |= sub.enabled
        loc: dict[int, int] = {}
        for i, st in enumerate(sub.steps):
            j = st.just
            # a hypothesis already proven here is reused by ``add``
            if isinstance(j, ByHyp) and st.formula not in self._cache:
                if st.formula not in self.hypotheses:
                    raise TacticError("embedded proof needs unavailable "
                                      f"hypothesis ({st.formula})")
                j = ByHyp(self.hypotheses.index(st.formula))
            loc[i] = self.add(st.formula, _renumber(j, loc))
        return loc[len(sub.steps) - 1]

    def build(self, conclusion: Optional[int] = None) -> Proof:
        """The proof of the step at ``conclusion``: only the steps it
        depends on, renumbered so that it comes last.  With no conclusion,
        every step so far, dead or live.

        Either way the header keeps every grant the builder holds, also
        those only a dropped step used: a transformed proof lists the
        grants its input listed, whichever steps survive."""
        steps = (tuple(self.steps) if conclusion is None
                 else _live_steps(self.steps, conclusion))
        return Proof(self.hypotheses, steps, frozenset(self.enabled))


def identity_imp(b: ProofBuilder, phi: Formula) -> int:
    """The five-step derivation of phi -> phi."""
    pp = Implies(phi, phi)
    a1 = b.logical("L1", phi, pp)
    a2 = b.logical("L2", phi, pp, phi)
    t = b.mp(a1, a2)
    a3 = b.logical("L1", phi, phi)
    return b.mp(a3, t)


def weaken(b: ProofBuilder, index: int, hyp: Formula) -> int:
    """From phi derive hyp -> phi."""
    phi = b.formula_at(index)
    a = b.logical("L1", phi, hyp)
    return b.mp(index, a)


def _derive(b: ProofBuilder, index: int, antecedents: Sequence[Formula],
            forward: Callable[[ProofBuilder, Sequence[int]], int]) -> int:
    """Prove the curried implication from ``antecedents`` to the formula
    ``forward`` builds from them and the step at ``index`` of ``b``, then
    splice it into ``b``.

    ``forward`` receives a scratch builder whose hypotheses are the formula
    at ``index`` (hypothesis 0, resolved by ``embed``) followed by
    ``antecedents``, and the hypothesis indices of the antecedents; it must
    use only hypothesis, logical-axiom and modus-ponens steps, so the
    repeated discharges below never recurse back into a generalization case.
    """
    mini = ProofBuilder(b.env, (b.formula_at(index), *antecedents))
    goal = forward(mini, range(1, 1 + len(antecedents)))
    proof = mini.build(goal)
    for _ in antecedents:
        proof = deduction_theorem(b.env, proof)
    return b.embed(proof)


def curry(b: ProofBuilder, h: Formula, ctx: Formula, index: int) -> int:
    """From (h & ctx) -> phi derive h -> (ctx -> phi)."""

    def forward(mini: ProofBuilder, hx: Sequence[int]) -> int:
        ih, ictx = (mini.hyp(k) for k in hx)
        l3 = mini.logical("L3", h, ctx)
        conj = mini.mp(ictx, mini.mp(ih, l3))
        return mini.mp(conj, mini.hyp(0))

    return _derive(b, index, (h, ctx), forward)


def uncurry(b: ProofBuilder, h: Formula, ctx: Formula, index: int) -> int:
    """From h -> (ctx -> phi) derive (h & ctx) -> phi."""

    def forward(mini: ProofBuilder, hx: Sequence[int]) -> int:
        ic = mini.hyp(hx[0])
        s = mini.hyp(0)
        ih = mini.mp(mini.mp(ic, mini.logical("L4", h, ctx)), s)
        return mini.mp(mini.mp(ic, mini.logical("L5", h, ctx)), ih)

    return _derive(b, index, (And(h, ctx),), forward)


def commute(b: ProofBuilder, a: Formula, c: Formula, index: int) -> int:
    """From a -> (c -> phi) derive c -> (a -> phi)."""

    def forward(mini: ProofBuilder, hx: Sequence[int]) -> int:
        ic, ia = (mini.hyp(k) for k in hx)
        return mini.mp(ic, mini.mp(ia, mini.hyp(0)))

    return _derive(b, index, (c, a), forward)


# ---------------------------------------------------------------------------
# deduction theorem


def _cited(just: Justification, here: int) -> tuple[int, ...]:
    """The indices of the steps that step ``here``, justified by ``just``,
    cites.  TacticError if one of them does not precede it."""
    if isinstance(just, ByMP):
        cited: tuple[int, ...] = (just.minor, just.major)
    elif isinstance(just, (ByGenF, ByGenE, ByRelease)):
        cited = (just.premise,)
    else:
        return ()
    for k in cited:
        if not 0 <= k < here:
            raise TacticError(
                f"step {here + 1}: cited step {k + 1} does not precede it")
    return cited


def _renumber(just: Justification, loc: Mapping[int, int]) -> Justification:
    """``just`` citing step ``loc[k]`` wherever it cites step ``k``."""
    if isinstance(just, ByMP):
        return ByMP(loc[just.minor], loc[just.major])
    if isinstance(just, (ByGenF, ByGenE)):
        return type(just)(loc[just.premise], just.var, just.to_var)
    if isinstance(just, ByRelease):
        return ByRelease(loc[just.premise])
    return just


def _live(steps: Sequence[Step], conclusion: int) -> list[bool]:
    """Which of ``steps[:conclusion + 1]`` the step at ``conclusion``
    depends on, directly or through other steps; it depends on itself."""
    if not 0 <= conclusion < len(steps):
        raise TacticError(f"no step {conclusion + 1} to conclude with")
    live = [False] * (conclusion + 1)
    live[conclusion] = True
    for i in range(conclusion, -1, -1):
        if live[i]:
            for k in _cited(steps[i].just, i):
                live[k] = True
    return live


def _live_steps(steps: Sequence[Step], conclusion: int) -> tuple[Step, ...]:
    """The steps the step at ``conclusion`` depends on, renumbered so that
    it comes last.  A step that keeps its index keeps its ``Step`` object:
    every step before it is kept too, so its citations keep theirs."""
    live = _live(steps, conclusion)
    loc: dict[int, int] = {}
    out: list[Step] = []
    for i, st in enumerate(steps[:conclusion + 1]):
        if live[i]:
            loc[i] = len(out)
            out.append(st if loc[i] == i
                       else Step(st.formula, _renumber(st.just, loc)))
    return tuple(out)


def live_axioms(proof: Proof) -> list[Formula]:
    """The distinct logical-axiom instances the last step of ``proof``
    depends on, in order of first use: the formulas ``internalize`` needs
    M-proofs of."""
    live = _live(proof.steps, len(proof.steps) - 1)
    return list(dict.fromkeys(
        st.formula for st, kept in zip(proof.steps, live)
        if kept and isinstance(st.just, ByLogical)))


def _dependencies(proof: Proof, hyp_index: int) -> list[bool]:
    """Which steps depend on hypothesis ``hyp_index``.  Checks that every
    step, dead or live, cites only steps before it."""
    dep = [False] * len(proof.steps)
    for i, st in enumerate(proof.steps):
        j = st.just
        if isinstance(j, ByHyp):
            dep[i] = j.index == hyp_index
        else:
            dep[i] = any(dep[k] for k in _cited(j, i))
    return dep


def _implication(phi: Formula, what: str) -> Implies:
    if not isinstance(phi, Implies):
        raise TacticError(f"{what} must be an implication, got ({phi})")
    return phi


def deduction_theorem(env: Environment, proof: Proof,
                      hyp_index: Optional[int] = None) -> Proof:
    """Discharge one hypothesis H: from a proof of phi using H, a proof of
    H -> phi that no longer lists H.

    Only the steps phi depends on are lifted, and the result keeps only the
    steps H -> phi depends on; every citation of the input, dead steps'
    too, must cite an earlier step.  Steps that never depend on H are
    copied verbatim and weakened only on demand.  Generalization steps
    under H go through conjunction currying (for the universal rule) or
    antecedent commutation (for the existential rule); both fail if the
    generalized variable occurs free in H.  A release step may not depend
    on H, since release applies only to proven assertibility facts.
    """
    if hyp_index is None:
        if not proof.hypotheses:
            raise TacticError("the proof has no hypothesis to discharge")
        hyp_index = len(proof.hypotheses) - 1
    if not (0 <= hyp_index < len(proof.hypotheses)):
        raise NoHypothesisError(f"no hypothesis {hyp_index + 1} to discharge")
    h = proof.hypotheses[hyp_index]
    new_hyps = (proof.hypotheses[:hyp_index] + proof.hypotheses[hyp_index + 1:])
    dep = _dependencies(proof, hyp_index)
    live = _live(proof.steps, len(proof.steps) - 1)
    b = ProofBuilder(env, new_hyps, frozenset(proof.enabled))
    loc: dict[int, int] = {}

    def lifted(i: int) -> int:
        """Builder index of H -> phi_i."""
        if dep[i]:
            return loc[i]
        return weaken(b, loc[i], h)

    for i, st in enumerate(proof.steps):
        if not live[i]:
            continue
        j = st.just
        if not dep[i]:
            if isinstance(j, ByHyp) and j.index > hyp_index:
                j = ByHyp(j.index - 1)
            loc[i] = b.add(st.formula, _renumber(j, loc))
            continue
        if isinstance(j, ByHyp):
            loc[i] = identity_imp(b, h)
        elif isinstance(j, ByMP):
            minor = proof.steps[j.minor].formula
            a2 = b.logical("L2", h, minor, st.formula)
            loc[i] = b.mp(lifted(j.minor), b.mp(lifted(j.major), a2))
        elif isinstance(j, (ByGenF, ByGenE)):
            prem = _implication(proof.steps[j.premise].formula,
                                f"the premise of step {i + 1}")
            if j.var in free_vars(h):
                raise TacticError(
                    f"cannot discharge ({h}): its free variable {j.var} is "
                    "generalized later in the proof")
            if isinstance(j, ByGenF):
                ctx = prem.left
                src = lifted(j.premise)          # H -> (ctx -> gen)
                flat = uncurry(b, h, ctx, src)   # (H & ctx) -> gen
                gen_step = b.genf(flat, j.var, j.to_var)
                loc[i] = curry(b, h, ctx, gen_step)
            else:
                ctx = prem.right
                src = lifted(j.premise)          # H -> (gen -> ctx)
                swapped = commute(b, h, prem.left, src)  # gen -> (H -> ctx)
                gen_step = b.gene(swapped, j.var, j.to_var)
                ex = _implication(b.formula_at(gen_step),
                                  "an existential generalization")
                loc[i] = commute(b, ex.left, h, gen_step)
        else:  # ByRelease, the one other rule that cites a step
            raise TacticError(
                "cannot discharge a hypothesis through a release step")
    return b.build(lifted(len(proof.steps) - 1))


# ---------------------------------------------------------------------------
# internalization


def _quote_of(phi: Formula, what: str) -> str:
    if isinstance(phi, (MApp, AApp)) and isinstance(phi.arg, Quote):
        return phi.arg.name
    raise TacticError(f"{what} must conclude M or A of a quotation, got ({phi})")


def internalize_into(b: ProofBuilder, ns: NameStore, sub: Proof,
                     a_hyps: Sequence[int],
                     m_facts: Mapping[Formula, int]) -> int:
    """Simulate a purely logical proof inside the assertibility operator:
    the steps its last step depends on, which must all be logical.

    ``a_hyps[i]`` must prove A(`h_i`) for the i-th hypothesis of ``sub``;
    ``m_facts`` maps each logical-axiom instance used by ``sub`` to a step
    proving M of a quotation of it.  Returns the index of the step proving
    A(`conclusion`).
    """
    env = b.env
    if len(a_hyps) != len(sub.hypotheses):
        raise TacticError("one assertibility fact per hypothesis is required")
    loc: dict[int, int] = {}
    names: dict[int, str] = {}
    for i, h in enumerate(sub.hypotheses):
        q = _quote_of(b.formula_at(a_hyps[i]), "an assertibility fact")
        if env.resolve(q) != h:
            raise TacticError(
                f"assertibility fact {i + 1} quotes ({env.resolve(q)}), "
                f"not the hypothesis ({h})")
    live = _live(sub.steps, len(sub.steps) - 1)
    for i, st in enumerate(sub.steps):
        if not live[i]:
            continue
        j = st.just
        if isinstance(j, ByHyp):
            loc[i] = a_hyps[j.index]
            names[i] = _quote_of(b.formula_at(loc[i]), "an assertibility fact")
        elif isinstance(j, ByLogical):
            mi = m_facts.get(st.formula)
            if mi is None:
                raise TacticError(
                    f"no meaningfulness fact for the axiom ({st.formula})")
            q = _quote_of(b.formula_at(mi), "a meaningfulness fact")
            if env.resolve(q) != st.formula:
                raise TacticError(
                    f"the meaningfulness fact for ({st.formula}) quotes a "
                    "different formula")
            loc[i] = b.mp(mi, b.theory("ALog", q))
            names[i] = q
        elif isinstance(j, ByMP):
            qminor, qimp = names[j.minor], names[j.major]
            qres = ns.name_for(st.formula)
            l3 = b.logical("L3", quoted("A", qminor), quoted("A", qimp))
            both = b.mp(loc[j.major], b.mp(loc[j.minor], l3))
            amp = b.theory("AMP", qminor, qres, qimp)
            loc[i] = b.mp(both, amp)
            names[i] = qres
        elif isinstance(j, (ByGenF, ByGenE)):
            scheme = "AGenF" if isinstance(j, ByGenF) else "AGenE"
            qres = ns.name_for(st.formula)
            ag = b.theory(scheme, names[j.premise], qres, j.var, j.to_var)
            loc[i] = b.mp(loc[j.premise], ag)
            names[i] = qres
        else:
            raise TacticError(f"step {i + 1}: only logical steps can be "
                              f"internalized, found {emit_just(j)}")
    return loc[len(sub.steps) - 1]


def internalize(env: Environment, proof: Proof,
                m_proofs: Mapping[Formula, Proof]) -> Proof:
    """From a purely logical proof of phi from psi_1..psi_k, a proof of
    A(`phi`) from hypotheses A(`psi_1`)..A(`psi_k`).

    ``m_proofs`` maps each logical-axiom instance used to a proof of M of
    a quotation of it; those proofs may only use hypotheses from the same
    A(`psi_i`) list.  Only the steps phi depends on are internalized, so
    an axiom that only a dead step uses needs no M-proof, and the result
    keeps only the steps A(`phi`) depends on.
    """
    axioms = set(live_axioms(proof))
    ns = NameStore(env)
    hyp_names = [ns.name_for(h) for h in proof.hypotheses]
    b = ProofBuilder(env, tuple(quoted("A", n) for n in hyp_names),
                     frozenset(proof.enabled))
    a_hyps = [b.hyp(i) for i in range(len(hyp_names))]
    m_facts = {phi: b.embed(p) for phi, p in m_proofs.items() if phi in axioms}
    return b.build(internalize_into(b, ns, proof, a_hyps, m_facts))


# ---------------------------------------------------------------------------
# meaningfulness closure


def m_closure_into(b: ProofBuilder, ns: NameStore, phi: Formula,
                   leaves: Optional[Mapping[Formula, int]] = None,
                   memo: Optional[dict[Formula, tuple[int, str]]] = None
                   ) -> tuple[int, str]:
    """Derive M(`phi`) by recursion on phi's shape.  ``leaves`` maps leaf
    formulas with no compositional scheme (atoms, T, H, sim ascriptions) to
    steps already proving M of them; None means there are none.  Returns
    (step index, quotation name).

    ``memo`` holds the result for each subformula already derived in this
    call, so a subformula met again is not walked again; deriving it again
    would add no step and name nothing new.
    """
    if memo is None:
        memo = {}
    else:
        out = memo.get(phi)
        if out is not None:
            return out
    index = None if leaves is None else leaves.get(phi)
    if index is not None:
        out = index, _quote_of(b.formula_at(index), "a leaf fact")
    elif isinstance(phi, Bot):
        q = ns.name_for(phi)
        out = b.theory("MBot", q), q
    elif isinstance(phi, MApp):
        q = ns.name_for(phi)
        out = b.theory("MofM", q), q
    elif isinstance(phi, AApp):
        q = ns.name_for(phi)
        out = b.theory("MofA", q), q
    elif isinstance(phi, And):
        ia, qa = m_closure_into(b, ns, phi.left, leaves, memo)
        ib, qb = m_closure_into(b, ns, phi.right, leaves, memo)
        q = ns.name_for(phi)
        l3 = b.logical("L3", quoted("M", qa), quoted("M", qb))
        both = b.mp(ib, b.mp(ia, l3))
        out = b.mp(both, b.theory("MComp1", qa, qb, q)), q
    elif isinstance(phi, Or):
        ia, qa = m_closure_into(b, ns, And(phi.left, phi.right), leaves, memo)
        q = ns.name_for(phi)
        out = b.mp(ia, b.theory("MComp2", qa, q)), q
    elif isinstance(phi, Implies):
        ia, qa = m_closure_into(b, ns, Or(phi.left, phi.right), leaves, memo)
        q = ns.name_for(phi)
        out = b.mp(ia, b.theory("MComp3", qa, q)), q
    elif isinstance(phi, Forall):
        ib, qb = m_closure_into(b, ns, phi.body, leaves, memo)
        q = ns.name_for(phi)
        out = b.mp(ib, b.theory("MQuant1", qb, q, phi.var)), q
    elif isinstance(phi, Exists):
        ia, qa = m_closure_into(b, ns, Forall(phi.var, phi.body), leaves,
                                memo)
        q = ns.name_for(phi)
        out = b.mp(ia, b.theory("MQuant2", qa, q, phi.var)), q
    else:
        raise TacticError(
            f"no compositional meaningfulness scheme applies to ({phi}); "
            "provide it as a leaf fact")
    memo[phi] = out
    return out


def meaningfulness_closure(env: Environment, phi: Formula,
                           assumed: Sequence[Formula] = ()) -> Proof:
    """A proof of M(`phi`), from hypotheses M(`l`) for each assumed leaf."""
    ns = NameStore(env)
    hyp_names = [ns.name_for(l) for l in assumed]
    b = ProofBuilder(env, tuple(quoted("M", n) for n in hyp_names))
    leaves = {l: b.hyp(i) for i, l in enumerate(assumed)}
    index, _ = m_closure_into(b, ns, phi, leaves)
    return b.build(index)


def m_decompose_into(b: ProofBuilder, ns: NameStore, index: int,
                     qname: str) -> dict[Formula, tuple[int, str]]:
    """From M(`phi`) for a compound phi, derive M of its immediate parts.

    Walks the compositional cycle: a conjunction fact yields the matching
    disjunction and implication facts on the way to the components.
    Returns a map from component formula to (step index, quotation name).
    """
    env = b.env
    phi = env.resolve(qname)
    if isinstance(phi, And):
        qor = ns.name_for(Or(phi.left, phi.right))
        index = b.mp(index, b.theory("MComp2", qname, qor))
        qname = qor
        phi = env.resolve(qname)
    if isinstance(phi, Or):
        qimp = ns.name_for(Implies(phi.left, phi.right))
        index = b.mp(index, b.theory("MComp3", qname, qimp))
        qname = qimp
        phi = env.resolve(qname)
    if isinstance(phi, Implies):
        qa = ns.name_for(phi.left)
        qb = ns.name_for(phi.right)
        both = b.mp(index, b.theory("MComp4", qname, qa, qb))
        ma, mb = quoted("M", qa), quoted("M", qb)
        ia = b.mp(both, b.logical("L4", ma, mb))
        ib = b.mp(both, b.logical("L5", ma, mb))
        return {phi.left: (ia, qa), phi.right: (ib, qb)}
    if isinstance(phi, Forall):
        qex = ns.name_for(Exists(phi.var, phi.body))
        index = b.mp(index, b.theory("MQuant2", qname, qex, phi.var))
        qname = qex
        phi = env.resolve(qname)
    if isinstance(phi, Exists):
        qb = ns.name_for(phi.body)
        ib = b.mp(index, b.theory("MQuant3", qname, qb, phi.var))
        return {phi.body: (ib, qb)}
    raise TacticError(f"({phi}) has no components to extract")
