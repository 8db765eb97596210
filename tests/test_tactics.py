"""Proof transformations: hypothesis discharge, assertibility
internalization, and compositional meaningfulness derivation."""

import random

import pytest

from mutation import dead_steps
from proofgen import make_env, random_proof

from mathkernel.kernel import (
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    ExtensionGrant,
    Proof,
    SCHEMES,
    Step,
    check_proof,
    extension_grant,
)
from mathkernel.parser import MAX_DEPTH, parse_formula
from mathkernel.syntax import (
    AApp,
    And,
    BOT,
    Bot,
    Environment,
    Exists,
    Forall,
    Implies,
    MApp,
    Or,
    Quote,
    Var,
    neg,
    pformat,
)
from mathkernel.tactics import (
    NameStore,
    ProofBuilder,
    TacticError,
    _quote_of,
    deduction_theorem,
    identity_imp,
    internalize,
    internalize_into,
    live_axioms,
    m_closure_into,
    m_decompose_into,
    meaningfulness_closure,
)


def prop_env():
    env = Environment()
    for name in ("p", "q"):
        env.register_predicate(name, 0)
    env.register_predicate("D", 1)
    return env


# -- proof builder


def test_builder_genf_rejects_a_variable_free_in_the_fixed_side():
    env = prop_env()
    dx, q = parse_formula("D(x)", env), parse_formula("q", env)
    b = ProofBuilder(env)
    s = b.logical("L1", dx, q)  # D(x) -> (q -> D(x))
    with pytest.raises(TacticError, match="occurs free in the fixed side"):
        b.genf(s, "x")
    assert len(b) == 1


def test_builder_release_rejects_a_premise_that_is_not_a_quoted_assertion():
    env = prop_env()
    b = ProofBuilder(env, (parse_formula("q", env),))
    with pytest.raises(TacticError, match="release premise"):
        b.release(b.hyp(0))
    assert len(b) == 1 and not b.enabled


def test_builder_mp_rejects_a_major_premise_that_does_not_fit():
    env = prop_env()
    b = ProofBuilder(env, (parse_formula("p", env), parse_formula("q", env)))
    with pytest.raises(TacticError) as exc:
        b.mp(b.hyp(0), b.hyp(1))
    assert str(exc.value) == "modus ponens mismatch: (p) against (q)"


def test_builder_embed_needs_the_hypotheses_of_the_embedded_proof():
    env = prop_env()
    sub = ProofBuilder(env, (parse_formula("p", env),))
    sub.hyp(0)
    b = ProofBuilder(env)
    with pytest.raises(TacticError) as exc:
        b.embed(sub.build())
    assert str(exc.value) == "embedded proof needs unavailable hypothesis (p)"


def test_builder_add_returns_the_first_index_for_an_equal_formula():
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)
    b = ProofBuilder(env)
    b.logical("L3", p, q)
    first, twin = Implies(p, Implies(q, p)), Implies(p, Implies(q, p))
    assert twin == first and twin is not first
    i = b.add(first, ByLogical("L1", (p, q)))
    assert b.add(twin, ByMP(0, 0)) == i == 1
    assert len(b) == 2
    assert b.formula_at(i) is first and b.steps[i].just == ByLogical("L1", (p, q))


def test_closure_of_an_equal_formula_in_the_same_builder_adds_no_step():
    env = prop_env()
    env.define("s", (), parse_formula("p", env))
    text = "(M(`s`) -> bot) & ~(A(`s`) | forall x. M(`s`))"
    first, twin = parse_formula(text, env), parse_formula(text, env)
    assert twin == first and twin is not first
    ns, b = NameStore(env), ProofBuilder(env)
    got = m_closure_into(b, ns, first)
    steps, names = list(b.steps), dict(env.definitions)
    assert m_closure_into(b, ns, twin) == got
    assert b.steps == steps and env.definitions == names


def builder_with_dead_steps():
    """A builder whose step 7, forall x. D(x) -> q, is reached through a
    release, a universal generalization and modus ponens; steps 0, 2 and 5
    are dead, and so is step 8, added after it."""
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)
    env.define("s", (), q)
    b = ProofBuilder(env, (AApp(Quote("s")),))
    b.logical("L1", p, q)
    a_s = b.hyp(0)                             # A(`s`)
    b.logical("L1", q, p)
    got_q = b.release(a_s)                     # q
    weak = b.logical("L1", q, parse_formula("D(x)", env))  # q -> D(x) -> q
    b.logical("L9", q)
    gen = b.genf(weak, "x")                    # q -> forall x. D(x) -> q
    k = b.mp(got_q, gen)
    b.logical("L3", q, q)
    assert (k, len(b)) == (7, 9)
    return env, b, k


def test_build_keeps_only_the_steps_the_conclusion_depends_on():
    env, b, k = builder_with_dead_steps()
    proof = b.build(k)
    assert [st.formula for st in proof.steps] \
        == [b.formula_at(i) for i in (1, 3, 4, 6, 7)]
    assert [st.just for st in proof.steps] == [
        ByHyp(0), ByRelease(0), b.steps[4].just, ByGenF(2, "x", "x"),
        ByMP(1, 3)]
    assert check_proof(env, proof).conclusion == b.formula_at(k)
    with pytest.raises(TacticError, match="no step 10"):
        b.build(len(b))


def test_build_keeps_the_grant_of_a_dropped_release():
    env, b, _ = builder_with_dead_steps()
    proof = b.build(6)  # q -> forall x. D(x) -> q, without the release
    assert not any(isinstance(st.just, ByRelease) for st in proof.steps)
    assert proof.enabled == frozenset(b.enabled)
    assert ExtensionGrant("ReleaseRule", b.formula_at(3)) in proof.enabled
    assert check_proof(env, proof).conclusion == b.formula_at(6)


def test_build_keeps_the_step_objects_of_an_all_live_builder():
    env = prop_env()
    b = ProofBuilder(env)
    k = identity_imp(b, parse_formula("p", env))
    proof = b.build(k)
    assert len(proof.steps) == len(b.steps)
    assert all(kept is st for kept, st in zip(proof.steps, b.steps))
    # behind the first dropped step, a kept step is renumbered, so copied
    env, b, k = builder_with_dead_steps()
    assert not any(kept is st for kept, st in zip(b.build(k).steps, b.steps))


def test_live_axioms_are_the_distinct_axioms_the_conclusion_uses():
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)
    b = ProofBuilder(env)
    b.logical("L1", q, p)                     # dead
    identity_imp(b, p)                        # three axioms, two MPs
    proof = b.build()
    assert live_axioms(proof) == [b.formula_at(1), b.formula_at(2),
                                  b.formula_at(4)]
    # an axiom cited twice is listed once
    twice = Proof((), (Step(b.formula_at(1), ByLogical("L1", (p, p))),
                       Step(b.formula_at(1), ByLogical("L1", (p, p))),
                       Step(p, ByMP(0, 1))))
    assert live_axioms(twice) == [b.formula_at(1)]


def test_build_without_a_conclusion_keeps_every_step():
    env, b, _ = builder_with_dead_steps()
    proof = b.build()
    assert proof.steps == tuple(b.steps)
    assert len(dead_steps(proof)) == 8  # all but the last
    check_proof(env, proof)


# -- deduction theorem


def test_deduction_simple():
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)
    b = ProofBuilder(env, (p, Implies(p, q)))
    b.mp(b.hyp(0), b.hyp(1))
    out = deduction_theorem(env, b.build())
    judgment = check_proof(env, out)
    assert judgment.hypotheses == (p,)
    assert pformat(judgment.conclusion) == "(p -> q) -> q"


def test_deduction_discharges_chosen_hypothesis():
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)
    b = ProofBuilder(env, (p, Implies(p, q)))
    b.mp(b.hyp(0), b.hyp(1))
    out = deduction_theorem(env, b.build(), 0)
    judgment = check_proof(env, out)
    assert judgment.hypotheses == (Implies(p, q),)
    assert pformat(judgment.conclusion) == "p -> q"


def test_deduction_through_genf():
    env = prop_env()
    hyp = parse_formula("forall z. D(z)", env)
    q = parse_formula("q", env)
    dx = parse_formula("D(x)", env)
    b = ProofBuilder(env, (hyp,))
    inst = b.logical("L10", "z", parse_formula("D(z)", env), Var("x"))
    got_dx = b.mp(b.hyp(0), inst)
    guarded = b.mp(got_dx, b.logical("L1", dx, q))  # q -> D(x), via the hyp
    b.genf(guarded, "x")
    out = deduction_theorem(env, b.build())
    judgment = check_proof(env, out)
    assert judgment.hypotheses == ()
    assert judgment.conclusion == Implies(hyp, Implies(q, Forall("x", dx)))


def test_deduction_through_gene():
    env = prop_env()
    p = parse_formula("p", env)
    dx = parse_formula("D(x)", env)
    b = ProofBuilder(env, (p,))
    imp = b.mp(b.hyp(0), b.logical("L1", p, dx))  # D(x) -> p
    b.gene(imp, "x")
    out = deduction_theorem(env, b.build())
    judgment = check_proof(env, out)
    assert judgment.hypotheses == ()
    assert pformat(judgment.conclusion) == "p -> (exists x. D(x)) -> p"


def test_deduction_rejects_generalizing_a_free_hypothesis_variable():
    env = prop_env()
    dx = parse_formula("D(x)", env)
    q = parse_formula("q", env)
    b = ProofBuilder(env, (dx,))
    guarded = b.mp(b.hyp(0), b.logical("L1", dx, q))  # q -> D(x)
    b.genf(guarded, "x")
    with pytest.raises(TacticError, match=r"^cannot discharge \(D\(x\)\): its "
                       "free variable x is generalized later in the proof$"):
        deduction_theorem(env, b.build())


def test_deduction_rejects_release_dependent_on_hypothesis():
    env = Environment()
    env.define("s", (), BOT)
    a_s = AApp(Quote("s"))
    grant = ExtensionGrant("ReleaseRule", BOT)
    proof = Proof((a_s,), (Step(a_s, ByHyp(0)),
                           Step(BOT, ByRelease(0))), frozenset({grant}))
    with pytest.raises(TacticError):
        deduction_theorem(env, proof)


def test_deduction_preserves_extension_grants():
    env = Environment()
    env.define("s", (), BOT)
    p = AApp(Quote("s"))
    grant = ExtensionGrant("ReleaseAxiom", BOT)
    b = ProofBuilder(env, (p,), frozenset({grant}))
    b.hyp(0)
    out = deduction_theorem(env, b.build())
    assert out.enabled == frozenset({grant})


@pytest.mark.parametrize("scheme", [name for name, s in SCHEMES.items()
                                    if s.kind == "extension"])
def test_builder_grants_what_the_kernel_requires(scheme):
    env = Environment()
    env.define("s", (), neg(AApp(Quote("s"))))
    b = ProofBuilder(env)
    b.extension(scheme, "s")
    grant = extension_grant(env, scheme, ("s",))
    assert b.enabled == {grant}
    judgment = check_proof(env, b.build(), granted=[scheme])
    assert judgment.extensions_used == (grant,)


def test_deduction_on_empty_hypotheses_is_rejected():
    env = prop_env()
    b = ProofBuilder(env)
    b.logical("L1", parse_formula("p", env), parse_formula("q", env))
    with pytest.raises(TacticError):
        deduction_theorem(env, b.build())


@pytest.mark.parametrize("minor, major", [
    pytest.param(0, 4, id="out-of-range"),
    pytest.param(0, 2, id="forward"),
    pytest.param(0, 1, id="itself"),
    pytest.param(-1, 0, id="negative"),
])
def test_deduction_rejects_a_citation_that_does_not_precede(minor, major):
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)
    proof = Proof((p,), (Step(p, ByHyp(0)), Step(q, ByMP(minor, major)),
                         Step(p, ByHyp(0))), frozenset())
    with pytest.raises(TacticError, match="does not precede"):
        deduction_theorem(env, proof)


@pytest.mark.parametrize("rule", [ByGenF, ByGenE])
def test_deduction_rejects_generalizing_a_non_implication(rule):
    env = prop_env()
    dx = parse_formula("D(x)", env)
    proof = Proof((dx,), (Step(dx, ByHyp(0)),
                          Step(parse_formula("forall x. D(x)", env),
                               rule(0, "x", "x"))), frozenset())
    with pytest.raises(TacticError, match="must be an implication"):
        deduction_theorem(env, proof)


def test_deduction_lifts_only_live_steps():
    env = prop_env()
    p, q = parse_formula("p", env), parse_formula("q", env)

    def proof(dead: bool) -> Proof:
        b = ProofBuilder(env, (p, Implies(p, q)))
        if dead:
            b.logical("L1", p, q)
        hp = b.hyp(0)
        if dead:  # a dead step that depends on the discharged hypothesis
            b.mp(b.hyp(1), b.logical("L1", Implies(p, q), q))
        b.mp(hp, b.hyp(1))
        return b.build()

    with_dead = proof(dead=True)
    assert len(dead_steps(with_dead)) == 3
    out = deduction_theorem(env, with_dead)
    assert out == deduction_theorem(env, proof(dead=False))
    assert dead_steps(out) == []
    judgment = check_proof(env, out)
    assert pformat(judgment.conclusion) == "(p -> q) -> q"


# -- internalization


def test_internalize_identity_proof():
    env = Environment()
    env.define("s0", (), BOT)
    phi = AApp(Quote("s0"))
    b = ProofBuilder(env)
    # the classic five-step derivation of phi -> phi
    b.mp(b.logical("L1", phi, phi),
         b.mp(b.logical("L1", phi, Implies(phi, phi)),
              b.logical("L2", phi, Implies(phi, phi), phi)))
    proof = b.build()
    m_proofs = {s.formula: meaningfulness_closure(env, s.formula)
                for s in proof.steps if isinstance(s.just, ByLogical)}
    out = internalize(env, proof, m_proofs)
    judgment = check_proof(env, out)
    assert judgment.hypotheses == ()
    conclusion = judgment.conclusion
    assert isinstance(conclusion, AApp)
    assert isinstance(conclusion.arg, Quote)
    assert env.resolve(conclusion.arg.name) == Implies(phi, phi)


def test_internalize_maps_hypotheses_to_assertibility():
    env = Environment()
    env.define("s0", (), BOT)
    phi, psi = AApp(Quote("s0")), MApp(Quote("s0"))
    b = ProofBuilder(env, (phi, Implies(phi, psi)))
    b.mp(b.hyp(0), b.hyp(1))
    proof = b.build()
    m_proofs = {}
    out = internalize(env, proof, m_proofs)
    judgment = check_proof(env, out)
    assert len(judgment.hypotheses) == 2
    assert all(isinstance(h, AApp) for h in judgment.hypotheses)


def test_internalize_rejects_theory_steps():
    env = Environment()
    env.define("s", (), BOT)
    proof = Proof((), (Step(MApp(Quote("s")), ByTheory("MBot", ("s",))),),
                  frozenset())
    with pytest.raises(TacticError):
        internalize(env, proof, {})
    # named by its number in the input, ahead of a dead step, and its rule
    dead = Step(Implies(BOT, BOT), ByLogical("L9", (BOT,)))
    proof = Proof((), (dead,) + proof.steps, frozenset())
    with pytest.raises(TacticError, match=r"^step 2: only logical steps can "
                       r"be internalized, found MBot\[s\]$"):
        internalize(env, proof, {})


def test_internalize_requires_meaningfulness_facts():
    env = Environment()
    env.define("s0", (), BOT)
    phi = AApp(Quote("s0"))
    b = ProofBuilder(env)
    b.logical("L1", phi, phi)
    with pytest.raises(TacticError):
        internalize(env, b.build(), {})


def test_internalize_needs_no_meaningfulness_for_a_dead_axiom():
    env = Environment()
    env.define("s0", (), BOT)
    phi, psi = AApp(Quote("s0")), MApp(Quote("s0"))
    b = ProofBuilder(env, (phi, Implies(phi, psi)))
    b.logical("L1", phi, psi)  # dead, and no M-proof is given for it
    k = b.mp(b.hyp(0), b.hyp(1))
    proof = b.build()
    assert dead_steps(proof) == [0]
    out = internalize(env, proof, {})
    assert dead_steps(out) == []
    conclusion = check_proof(env, out).conclusion
    assert isinstance(conclusion, AApp)
    assert env.resolve(conclusion.arg.name) == b.formula_at(k)


def _internalize_fault(fault):
    """The error of ``internalize_into`` on a one-step proof from p, or of
    bot -> p by L9, with one of its inputs wrong."""
    env = prop_env()
    p = parse_formula("p", env)
    env.define("s", (), p)
    env.define("t", (), parse_formula("q", env))
    hyps = {"hyp-count": (), "not-quoted": (p,),
            "other-hypothesis": (AApp(Quote("t")),)}.get(fault, ())
    b = ProofBuilder(env, hyps + (MApp(Quote("t")),))
    a_hyps = [b.hyp(i) for i in range(len(hyps))]
    if fault == "other-meaning":
        sub = ProofBuilder(env)
        sub.logical("L9", p)
        m_facts = {sub.formula_at(0): b.hyp(len(hyps))}
    else:
        sub = ProofBuilder(env, (p,))
        sub.hyp(0)
        m_facts = {}
    with pytest.raises(TacticError) as exc:
        internalize_into(b, NameStore(env), sub.build(), a_hyps, m_facts)
    return str(exc.value)


@pytest.mark.parametrize("fault,message", [
    ("hyp-count", "one assertibility fact per hypothesis is required"),
    ("not-quoted", "an assertibility fact must conclude M or A of a "
                   "quotation, got (p)"),
    ("other-hypothesis", "assertibility fact 1 quotes (q), not the "
                         "hypothesis (p)"),
    ("other-meaning", "the meaningfulness fact for (bot -> p) quotes a "
                      "different formula"),
], ids=["hyp-count", "not-quoted", "other-hypothesis", "other-meaning"])
def test_internalize_into_rejects_facts_that_do_not_fit(fault, message):
    assert _internalize_fault(fault) == message


@pytest.mark.parametrize("rule", [ByGenF, ByGenE], ids=["GenF", "GenE"])
@pytest.mark.parametrize("to_var", ["x", "y"], ids=["kept", "renamed"])
def test_internalize_through_a_generalization(rule, to_var):
    env = Environment()
    ax, imp = AApp(Var("x")), Implies(BOT, BOT)
    b = ProofBuilder(env)
    if rule is ByGenF:
        b.genf(b.logical("L9", ax), "x", to_var)  # from bot -> A(x)
    else:
        lifted = b.mp(b.logical("L9", BOT), b.logical("L1", imp, ax))
        b.gene(lifted, "x", to_var)  # from A(x) -> bot -> bot
    proof = b.build()
    m_proofs = {phi: meaningfulness_closure(env, phi)
                for phi in live_axioms(proof)}
    out = internalize(env, proof, m_proofs)
    conclusion = check_proof(env, out).conclusion
    assert env.resolve(conclusion.arg.name) == proof.steps[-1].formula
    scheme = "AGenF" if rule is ByGenF else "AGenE"
    assert [st.just.params[2:] for st in out.steps
            if isinstance(st.just, ByTheory)
            and st.just.scheme == scheme] == [("x", to_var)]


# -- meaningfulness closure


def test_m_closure_of_liar_body():
    env = Environment()
    env.define("la", (), neg(AApp(Quote("la"))))
    proof = meaningfulness_closure(env, env.resolve("la"))
    judgment = check_proof(env, proof)
    assert judgment.hypotheses == ()
    conclusion = judgment.conclusion
    assert isinstance(conclusion, MApp)
    assert env.resolve(conclusion.arg.name) == env.resolve("la")


def test_m_closure_of_bot_is_immediate():
    env = Environment()
    proof = meaningfulness_closure(env, BOT)
    judgment = check_proof(env, proof)
    assert isinstance(judgment.conclusion, MApp)


def test_m_closure_quantifiers():
    env = Environment()
    phi = parse_formula("forall x. A(x) | (exists y. M(y))", env)
    proof = meaningfulness_closure(env, phi)
    check_proof(env, proof)


def test_m_closure_fails_on_bare_atom():
    env = prop_env()
    with pytest.raises(TacticError):
        meaningfulness_closure(env, parse_formula("p", env))


def test_m_closure_accepts_assumed_leaves():
    env = prop_env()
    p = parse_formula("p", env)
    proof = meaningfulness_closure(env, neg(p), assumed=(p,))
    judgment = check_proof(env, proof)
    assert len(judgment.hypotheses) == 1
    assert isinstance(judgment.hypotheses[0], MApp)


@pytest.mark.parametrize("text,schemes", [
    ("forall x. A(x)", ["MQuant2", "MQuant3"]),
    ("exists x. A(x)", ["MQuant3"]),
], ids=["forall", "exists"])
def test_m_decompose_a_quantifier_into_its_body(text, schemes):
    env = Environment()
    env.define("q", (), parse_formula(text, env))
    b = ProofBuilder(env, (MApp(Quote("q")),))
    (body, (index, qb)), = m_decompose_into(b, NameStore(env), b.hyp(0),
                                            "q").items()
    assert body == AApp(Var("x")) and env.resolve(qb) == body
    proof = b.build(index)
    assert check_proof(env, proof).conclusion == MApp(Quote(qb))
    assert [st.just.scheme for st in proof.steps
            if isinstance(st.just, ByTheory)] == schemes


def test_m_decompose_rejects_an_atom():
    env = prop_env()
    env.define("s", (), parse_formula("p", env))
    b = ProofBuilder(env, (MApp(Quote("s")),))
    with pytest.raises(TacticError) as exc:
        m_decompose_into(b, NameStore(env), b.hyp(0), "s")
    assert str(exc.value) == "(p) has no components to extract"


# -- transformer soundness on random proofs (the full-size run is in the
#    acceptance suite)


def test_random_proofs_transform_soundly():
    rng = random.Random(2024)
    for _ in range(60):
        env = make_env()
        proof = random_proof(rng, env, n_hyps=rng.randint(0, 2),
                             n_moves=rng.randint(2, 8))
        check_proof(env, proof)
        if proof.hypotheses:
            check_proof(env, deduction_theorem(env, proof))
        m_proofs = {s.formula: meaningfulness_closure(env, s.formula)
                    for s in proof.steps if isinstance(s.just, ByLogical)}
        out = internalize(env, proof, m_proofs)
        check_proof(env, out)


# -- the memoized closure against the closure that re-walks every subformula


def reference_m_closure(b, ns, phi, leaves={}):
    """``m_closure_into`` without the memo: a subformula met again is
    derived again."""
    if phi in leaves:
        index = leaves[phi]
        return index, _quote_of(b.formula_at(index), "a leaf fact")
    if isinstance(phi, Bot):
        q = ns.name_for(phi)
        return b.theory("MBot", q), q
    if isinstance(phi, MApp):
        q = ns.name_for(phi)
        return b.theory("MofM", q), q
    if isinstance(phi, AApp):
        q = ns.name_for(phi)
        return b.theory("MofA", q), q
    if isinstance(phi, And):
        ia, qa = reference_m_closure(b, ns, phi.left, leaves)
        ib, qb = reference_m_closure(b, ns, phi.right, leaves)
        q = ns.name_for(phi)
        l3 = b.logical("L3", MApp(Quote(qa)), MApp(Quote(qb)))
        both = b.mp(ib, b.mp(ia, l3))
        return b.mp(both, b.theory("MComp1", qa, qb, q)), q
    if isinstance(phi, Or):
        ia, qa = reference_m_closure(b, ns, And(phi.left, phi.right), leaves)
        q = ns.name_for(phi)
        return b.mp(ia, b.theory("MComp2", qa, q)), q
    if isinstance(phi, Implies):
        ia, qa = reference_m_closure(b, ns, Or(phi.left, phi.right), leaves)
        q = ns.name_for(phi)
        return b.mp(ia, b.theory("MComp3", qa, q)), q
    if isinstance(phi, Forall):
        ib, qb = reference_m_closure(b, ns, phi.body, leaves)
        q = ns.name_for(phi)
        return b.mp(ib, b.theory("MQuant1", qb, q, phi.var)), q
    if isinstance(phi, Exists):
        ia, qa = reference_m_closure(b, ns, Forall(phi.var, phi.body), leaves)
        q = ns.name_for(phi)
        return b.mp(ia, b.theory("MQuant2", qa, q, phi.var)), q
    raise TacticError(f"no compositional meaningfulness scheme for ({phi})")


def _closures(closure, env, formulas):
    """The closures of ``formulas`` one after another in one builder, as
    the corpus generator runs them.  The builder starts from hypotheses M
    of the left part of each formula: a closure derives such a part again
    all the same, so neither the memo nor an earlier call may shortcut
    through steps the builder already has."""
    ns = NameStore(env)
    parts = [phi.left for phi in formulas if isinstance(phi, Implies)]
    b = ProofBuilder(env, tuple(MApp(Quote(ns.name_for(p))) for p in parts))
    for i in range(len(parts)):
        b.hyp(i)
    results = [closure(b, ns, phi) for phi in formulas]
    return results, b.steps, list(env.definitions.values())


def test_memoized_closure_matches_the_reference_on_criterion_07_formulas():
    rng = random.Random(20240817)  # the criterion-07 seed and generator
    for _ in range(200):
        env = make_env()
        proof = random_proof(rng, env, n_hyps=rng.randint(0, 2),
                             n_moves=rng.randint(2, 8))
        axioms = [s.formula for s in proof.steps
                  if isinstance(s.just, ByLogical)]
        assert (_closures(m_closure_into, make_env(), axioms)
                == _closures(reference_m_closure, make_env(), axioms))


def test_memoized_closure_matches_the_reference_at_the_depth_cap():
    phi = BOT
    for _ in range(MAX_DEPTH):
        phi = neg(phi)
    shared = And(phi, Or(phi, Forall("x", phi)))  # one subtree met 3 times
    for f in (phi, shared):
        assert (_closures(m_closure_into, Environment(), [f])
                == _closures(reference_m_closure, Environment(), [f]))
