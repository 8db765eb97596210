#!/usr/bin/env python3
"""Regenerates the proof-script corpus under src/mathkernel/corpus/.

Each entry is elaborated with the tactics layer, checked, rendered to
script text, re-parsed in a fresh environment, and checked again before
being written out.  The frozen .pf files are what ships; nothing at run
time trusts this generator.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mathkernel.corpus import judgment_json
from mathkernel.kernel import ByLogical, Proof, check_proof
from mathkernel.parser import parse_formula
from mathkernel.script import emit_script, parse_script, script_of
from mathkernel.syntax import (AApp, And, Atom, BOT, Const, Environment,
                               Forall, Formula, HApp, Implies, MApp, Quote,
                               TApp, Var, iff, neg)
from mathkernel.tactics import (NameStore, ProofBuilder, deduction_theorem,
                                internalize_into, m_closure_into,
                                m_decompose_into, weaken)

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "mathkernel" / "corpus"


def finish(env: Environment, proof: Proof) -> tuple[str, dict]:
    """Render, re-parse in a fresh environment, re-check, and describe."""
    check_proof(env, proof)
    text = emit_script(script_of(env, proof))
    reparsed, fresh = parse_script(text)
    return text, judgment_json(check_proof(fresh, reparsed.proof()))


# ---------------------------------------------------------------------------
# shared pieces


def bic_half(b: ProofBuilder, bic: int, x: Formula, y: Formula,
             scheme: str) -> int:
    """From step ``bic`` proving x <-> y, the step x -> y (scheme L4) or
    y -> x (scheme L5)."""
    return b.mp(bic, b.logical(scheme, Implies(x, y), Implies(y, x)))


def contradiction_lemma(env: Environment, x: Formula) -> Proof:
    """The purely logical proof that a sentence equivalent to its own
    negation yields bot: from x <-> ~x, derive bot."""
    nb = ProofBuilder(env, (iff(x, neg(x)), x))
    imp1 = bic_half(nb, nb.hyp(0), x, neg(x), "L4")
    hx = nb.hyp(1)
    nx = nb.mp(hx, imp1)
    inner = deduction_theorem(env, nb.build(nb.mp(hx, nx)))  # x <-> ~x |- ~x
    ob = ProofBuilder(env, (iff(x, neg(x)),))
    notx = ob.embed(inner)
    x_ = ob.mp(notx, bic_half(ob, ob.hyp(0), x, neg(x), "L5"))
    return ob.build(ob.mp(x_, notx))


def forward_parts(b: ProofBuilder, ns: NameStore, a_bic: int, qbic: str,
                  x: Formula, y: Formula) -> dict[Formula, tuple[int, str]]:
    """Given a step proving A(`qbic`) where qbic's body is x <-> y, derive
    M of x and of y: ``m_decompose_into``'s map for x -> y."""
    m_bic = b.mp(a_bic, b.theory("AtoM", qbic))
    i_fwd, q_fwd = m_decompose_into(b, ns, m_bic, qbic)[Implies(x, y)]
    return m_decompose_into(b, ns, i_fwd, q_fwd)


def internalize_over(b: ProofBuilder, ns: NameStore, obj: Proof,
                     premises: list[int], leaves: dict[Formula, int]) -> int:
    """Run the logical proof obj inside the assertibility operator, from
    steps asserting its hypotheses; each logical step's M-fact is closed
    over the given leaf M-facts."""
    m_facts = {}
    for st in obj.steps:
        if isinstance(st.just, ByLogical) and st.formula not in m_facts:
            m_facts[st.formula] = m_closure_into(b, ns, st.formula, leaves)[0]
    return internalize_into(b, ns, obj, premises, m_facts)


# ---------------------------------------------------------------------------
# the four anomaly arguments, each for any sentence it applies to


def anomaly_assertible(env: Environment, q: str) -> Proof:
    """|- ~~A(`q`) for q := ~A(`q`): assuming q is not assertible leads to
    absurdity."""
    b = ProofBuilder(env, (neg(AApp(Quote(q))),))
    m, _ = m_closure_into(b, NameStore(env), env.resolve(q))
    cap = b.mp(m, b.theory("Capture", q))
    hi = b.hyp(0)
    return deduction_theorem(env, b.build(b.mp(b.mp(hi, cap), hi)))


def assertible_collapse(env: Environment, q: str, aq: str) -> Proof:
    """|- A(`q`) -> A(`zero_eq_one`) for q := ~A(`q`) and aq := A(`q`)."""
    b = ProofBuilder(env, (AApp(Quote(q)),))
    cap = b.mp(b.theory("MofA", aq), b.theory("Capture", aq))
    hi = b.hyp(0)
    a2 = b.mp(hi, cap)                     # A(`aq`)
    l3 = b.logical("L3", AApp(Quote(aq)), AApp(Quote(q)))
    conj = b.mp(hi, b.mp(a2, l3))
    amp = b.theory("AMP", aq, "zero_eq_one", q)
    return deduction_theorem(env, b.build(b.mp(conj, amp)))


def anomaly_meaningful(env: Environment, q: str, rule: tuple) -> Proof:
    """|- ~~M(`q`), where the theory step ``rule`` proves
    ~M(`q`) -> A(`q`)."""
    b = ProofBuilder(env, (neg(MApp(Quote(q))),))
    step = b.theory(*rule)
    hi = b.hyp(0)
    m = b.mp(b.mp(hi, step), b.theory("AtoM", q))
    return deduction_theorem(env, b.build(b.mp(m, hi)))


def meaningful_collapse(env: Environment, q: str, x: Formula, qbic: str,
                        rule: tuple) -> tuple[ProofBuilder, int]:
    """A builder with a step proving A(`zero_eq_one`) from M(`q`), and that
    step's index.  Defines qbic := x <-> ~x; the theory step ``rule`` with
    qbic as its last parameter proves M(`q`) -> A(`qbic`), and the
    contradiction lemma runs inside the assertibility operator."""
    env.define(qbic, (), iff(x, neg(x)))
    b = ProofBuilder(env, (MApp(Quote(q)),))
    ns = NameStore(env)
    step = b.theory(*rule, qbic)
    a_bic = b.mp(b.hyp(0), step)
    leaves = {x: forward_parts(b, ns, a_bic, qbic, x, neg(x))[x][0]}
    obj = contradiction_lemma(env, x)
    return b, internalize_over(b, ns, obj, [a_bic], leaves)


# ---------------------------------------------------------------------------
# the entries


def a_env(q: str, aq: str) -> Environment:
    """An assertibility sentence q := ~A(`q`), with aq := A(`q`)."""
    env = Environment()
    env.define(q, (), neg(AApp(Quote(q))))
    env.define(aq, (), AApp(Quote(q)))
    env.define("zero_eq_one", (), BOT)
    return env


def entry_1():
    env = a_env("la", "ala")
    return env, anomaly_assertible(env, "la")


def entry_2():
    env = a_env("la", "ala")
    return env, assertible_collapse(env, "la", "ala")


def entry_3():
    env = a_env("la", "ala")
    b = ProofBuilder(env)
    index, _ = m_closure_into(b, NameStore(env), env.resolve("la"))
    return env, b.build(index)


def liar_t_env() -> Environment:
    env = Environment()
    env.define("liar", (), neg(TApp(Quote("liar"))))
    env.define("zero_eq_one", (), BOT)
    return env


def entry_4():
    env = liar_t_env()
    return env, anomaly_meaningful(env, "liar", ("TNeg", "liar", "liar"))


def entry_5(released: bool):
    env = liar_t_env()
    b, index = meaningful_collapse(env, "liar", TApp(Quote("liar")),
                                   "truth_bic", ("TDef", "liar"))
    if released:
        return env, b.build(b.release(index))
    return env, deduction_theorem(env, b.build(index))


def entry_6():
    env = Environment()
    pf, qf, pq = (parse_formula(s, env) for s in ("p", "q", "p & q"))
    x1, x2, x3 = (TApp(Quote(n)) for n in ("phi", "psi", "phi_and_psi"))
    c1, c2, c3 = iff(x1, pf), iff(x2, qf), iff(x3, pq)
    for name, body in (("phi", pf), ("psi", qf), ("phi_and_psi", pq),
                       ("tb1", c1), ("tb2", c2), ("tb3", c3),
                       ("tdist", iff(x3, And(x1, x2)))):
        env.define(name, (), body)

    # object lemma, forward direction: from the three biconditionals and x3,
    # recover x1 & x2
    nb = ProofBuilder(env, (c1, c2, c3, x3))
    both = nb.mp(nb.hyp(3), bic_half(nb, nb.hyp(2), x3, pq, "L4"))
    p_ = nb.mp(both, nb.logical("L4", pf, qf))
    q_ = nb.mp(both, nb.logical("L5", pf, qf))
    i1 = nb.mp(p_, bic_half(nb, nb.hyp(0), x1, pf, "L5"))
    i2 = nb.mp(q_, bic_half(nb, nb.hyp(1), x2, qf, "L5"))
    last = nb.mp(i2, nb.mp(i1, nb.logical("L3", x1, x2)))
    lemma_fwd = deduction_theorem(env, nb.build(last))

    # backward direction: from the biconditionals and x1 & x2, recover x3
    nb = ProofBuilder(env, (c1, c2, c3, And(x1, x2)))
    ix1 = nb.mp(nb.hyp(3), nb.logical("L4", x1, x2))
    ix2 = nb.mp(nb.hyp(3), nb.logical("L5", x1, x2))
    p_ = nb.mp(ix1, bic_half(nb, nb.hyp(0), x1, pf, "L4"))
    q_ = nb.mp(ix2, bic_half(nb, nb.hyp(1), x2, qf, "L4"))
    ipq = nb.mp(q_, nb.mp(p_, nb.logical("L3", pf, qf)))
    last = nb.mp(ipq, bic_half(nb, nb.hyp(2), x3, pq, "L5"))
    lemma_bwd = deduction_theorem(env, nb.build(last))

    ob = ProofBuilder(env, (c1, c2, c3))
    f = ob.embed(lemma_fwd)
    g = ob.embed(lemma_bwd)
    last = ob.mp(g, ob.mp(f, ob.logical("L3", Implies(x3, And(x1, x2)),
                                        Implies(And(x1, x2), x3))))
    obj = ob.build(last)

    # outer derivation: from M(`phi`) & M(`psi`), assert the distribution law
    h = And(MApp(Quote("phi")), MApp(Quote("psi")))
    b = ProofBuilder(env, (h,))
    ns = NameStore(env)
    hi = b.hyp(0)
    m1 = b.mp(hi, b.logical("L4", MApp(Quote("phi")), MApp(Quote("psi"))))
    m2 = b.mp(hi, b.logical("L5", MApp(Quote("phi")), MApp(Quote("psi"))))
    m3 = b.mp(hi, b.theory("MComp1", "phi", "psi", "phi_and_psi"))
    a1 = b.mp(m1, b.theory("TDef", "phi", "tb1"))
    a2 = b.mp(m2, b.theory("TDef", "psi", "tb2"))
    a3 = b.mp(m3, b.theory("TDef", "phi_and_psi", "tb3"))
    leaves: dict[Formula, int] = {}
    for a_idx, qb, x, base in ((a1, "tb1", x1, pf), (a2, "tb2", x2, qf),
                               (a3, "tb3", x3, pq)):
        sub = forward_parts(b, ns, a_idx, qb, x, base)
        leaves[x] = sub[x][0]
        if not isinstance(base, And):
            leaves[base] = sub[base][0]
    index = internalize_over(b, ns, obj, [a1, a2, a3], leaves)
    return env, deduction_theorem(env, b.build(index))


def entry_7(released: bool):
    env = Environment()
    env.declare_domain("Sent", ("s1", "s2"), definite=True)
    x = Var("x")
    env.define("wA", ("x",), AApp(x))
    env.define("hbic", ("x",), iff(HApp(Quote("wA"), x), AApp(x)))
    for c in ("s1", "s2"):
        ct = Const(c)
        env.define(f"wA_{c}", (), AApp(ct))
        env.define(f"hbic_{c}", (), iff(HApp(Quote("wA"), ct), AApp(ct)))
    env.define("huniv", (), Forall("x", Implies(
        Atom("Sent", (x,)), iff(HApp(Quote("wA"), x), AApp(x)))))
    b = ProofBuilder(env)
    a_insts = []
    for c in ("s1", "s2"):
        ct = Const(c)
        hd = b.theory("HDef", "wA", ct, f"wA_{c}", f"hbic_{c}")
        m = b.theory("MofA", f"wA_{c}")
        a_insts.append(b.mp(m, hd))
    fc = b.theory("ForallCapture", "Sent", "hbic", "huniv",
                  "hbic_s1", "hbic_s2")
    l3 = b.logical("L3", AApp(Quote("hbic_s1")), AApp(Quote("hbic_s2")))
    conj = b.mp(a_insts[1], b.mp(a_insts[0], l3))
    a_univ = b.mp(conj, fc)
    return env, b.build(b.release(a_univ) if released else a_univ)


def russell_env() -> Environment:
    env = Environment()
    x = Var("x")
    env.define("R", ("x",), neg(HApp(x, x)))
    env.define("RR", (), neg(HApp(Quote("R"), Quote("R"))))
    env.define("zero_eq_one", (), BOT)
    return env


def entry_8a():
    env = russell_env()
    rule = ("HNeg", "R", Quote("R"), "RR", "RR")
    return env, anomaly_meaningful(env, "RR", rule)


def entry_8b():
    env = russell_env()
    rule = ("HDef", "R", Quote("R"), "RR")
    b, index = meaningful_collapse(env, "RR", HApp(Quote("R"), Quote("R")),
                                   "holding_bic", rule)
    return env, deduction_theorem(env, b.build(index))


def entry_9a():
    env = a_env("rara", "arara")
    return env, anomaly_assertible(env, "rara")


def entry_9b():
    env = a_env("rara", "arara")
    return env, assertible_collapse(env, "rara", "arara")


def entry_10():
    env = a_env("la", "ala")
    p1 = anomaly_assertible(env, "la")
    p2 = assertible_collapse(env, "la", "ala")
    b = ProofBuilder(env)
    i1 = b.embed(p1)                         # ~~A(`la`)
    i2 = b.embed(p2)                         # A(`la`) -> A(`zero_eq_one`)
    rel = b.extension("ReleaseAxiom", "zero_eq_one")  # A(`zero_eq_one`) -> bot
    ala = AApp(Quote("la"))
    azeq = AApp(Quote("zero_eq_one"))
    w = weaken(b, rel, ala)
    comp = b.mp(i2, b.mp(w, b.logical("L2", ala, azeq, BOT)))
    return env, b.build(b.mp(comp, i1))


def entry_11():
    env = liar_t_env()
    x = TApp(Quote("liar"))
    b = ProofBuilder(env)
    b.extension("UnrestrictedT", "liar")     # T(`liar`) <-> ~T(`liar`)
    obj = contradiction_lemma(env, x)
    return env, b.build(b.embed(obj))


def entry_12(kind: str):
    env = a_env("la", "ala")
    env.define("m_la", (), MApp(Quote("la")))
    scheme, name = ("MofM", "m_la") if kind == "M" else ("MofA", "ala")
    b = ProofBuilder(env)
    return env, b.build(b.theory(scheme, name))


ENTRIES = [
    ("anomaly_assertible_liar", entry_1,
     "the assertible liar sentence is not not assertible"),
    ("assertible_liar_collapse", entry_2,
     "if the assertible liar is assertible, the falsehood is assertible"),
    ("assertible_liar_meaningful", entry_3,
     "the assertible liar sentence is meaningful, by compositional closure"),
    ("anomaly_liar_meaningful", entry_4,
     "the truth-liar sentence is not not meaningful"),
    ("liar_meaningful_collapse", lambda: entry_5(False),
     "if the truth-liar is meaningful, the falsehood is assertible"),
    ("liar_meaningful_collapse_released", lambda: entry_5(True),
     "with the release rule, meaningfulness of the truth-liar yields "
     "the falsehood outright"),
    ("truth_conjunction_distribution", entry_6,
     "truth distributes over conjunction of meaningful sentences"),
    ("quantified_holding_law", lambda: entry_7(False),
     "holding law quantified over a definite two-sentence domain via "
     "finite universal capture"),
    ("quantified_holding_law_released", lambda: entry_7(True),
     "the quantified holding law, released to an object-level fact"),
    ("anomaly_russell_meaningful", entry_8a,
     "the self-applied Russell predicate is not not meaningful"),
    ("russell_meaningful_collapse", entry_8b,
     "if the self-applied Russell predicate is meaningful, the falsehood "
     "is assertible"),
    ("anomaly_assertible_russell", entry_9a,
     "the assertibility Russell sentence is not not assertible"),
    ("assertible_russell_collapse", entry_9b,
     "if the assertibility Russell sentence is assertible, the falsehood "
     "is assertible"),
    ("release_paradox", entry_10,
     "with release for the falsehood granted, the assertible liar yields "
     "an outright contradiction"),
    ("unrestricted_T_paradox", entry_11,
     "an unguarded truth biconditional for the liar yields an outright "
     "contradiction"),
    ("meaningfulness_of_meaningfulness", lambda: entry_12("M"),
     "ascriptions of meaningfulness are themselves meaningful"),
    ("meaningfulness_of_assertibility", lambda: entry_12("A"),
     "ascriptions of assertibility are themselves meaningful"),
]


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, make, description in ENTRIES:
        env, proof = make()
        text, expected = finish(env, proof)
        (OUT / f"{name}.pf").write_text(text)
        manifest.append({"script": f"{name}.pf", "description": description,
                         **expected})
        print(f"{name}: {len(proof.steps)} steps, "
              f"conclusion {expected['conclusion']}")
    (OUT / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest)} entries to {OUT}")


if __name__ == "__main__":
    main()
