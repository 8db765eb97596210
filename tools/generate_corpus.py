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

from mathkernel.kernel import ExtensionGrant, Proof, check_proof
from mathkernel.script import emit_script, parse_script, script_of
from mathkernel.syntax import (
    AApp,
    And,
    Atom,
    BOT,
    Const,
    Environment,
    Forall,
    Formula,
    HApp,
    Implies,
    MApp,
    Quote,
    TApp,
    Var,
    iff,
    neg,
    pformat,
)
from mathkernel.tactics import (
    NameStore,
    ProofBuilder,
    deduction_theorem,
    internalize_into,
    m_closure_into,
    m_decompose_into,
    weaken,
)
from mathkernel.kernel import ByLogical

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "mathkernel" / "corpus"


def finish(env: Environment, proof: Proof) -> tuple[str, dict]:
    """Render, re-parse in a fresh environment, re-check, and describe."""
    check_proof(env, proof)
    text = emit_script(script_of(env, proof))
    reparsed, fresh = parse_script(text)
    judgment = check_proof(fresh, reparsed.proof())
    expected = {
        "hypotheses": [pformat(h) for h in judgment.hypotheses],
        "conclusion": pformat(judgment.conclusion),
        "extensions": [
            {"scheme": g.scheme,
             "formula": None if g.formula is None else pformat(g.formula)}
            for g in judgment.extensions_used
        ],
    }
    return text, expected


# ---------------------------------------------------------------------------
# shared pieces


def contradiction_lemma(env: Environment, x: Formula) -> Proof:
    """The purely logical proof that a sentence equivalent to its own
    negation yields bot: from x <-> ~x, derive bot."""
    c = iff(x, neg(x))
    fwd, bwd = Implies(x, neg(x)), Implies(neg(x), x)
    nb = ProofBuilder(env, (c, x))
    imp1 = nb.mp(nb.hyp(0), nb.logical("L4", fwd, bwd))
    hx = nb.hyp(1)
    nx = nb.mp(hx, imp1)
    inner = deduction_theorem(env, nb.build(nb.mp(hx, nx)))  # (c,) |- ~x
    ob = ProofBuilder(env, (c,))
    notx = ob.embed(inner)
    back = ob.mp(ob.hyp(0), ob.logical("L5", fwd, bwd))
    x_ = ob.mp(notx, back)
    return ob.build(ob.mp(x_, notx))


def internalized_absurdity(env: Environment, b: ProofBuilder, ns: NameStore,
                           a_bic: int, qbic: str, x: Formula) -> int:
    """Given a step proving A(`qbic`) where qbic's body is x <-> ~x, derive
    A of the distinguished falsehood by running the contradiction lemma
    inside the assertibility operator."""
    m_bic = b.mp(a_bic, b.theory("AtoM", qbic))
    parts = m_decompose_into(b, ns, m_bic, qbic)
    i_fwd, q_fwd = parts[Implies(x, neg(x))]
    leaves = {x: m_decompose_into(b, ns, i_fwd, q_fwd)[x][0]}
    obj = contradiction_lemma(env, x)
    m_facts = {}
    for st in obj.steps:
        if isinstance(st.just, ByLogical):
            m_facts[st.formula] = m_closure_into(b, ns, st.formula, leaves)[0]
    index, _ = internalize_into(b, ns, obj, [a_bic], m_facts)
    return index


# ---------------------------------------------------------------------------
# the entries


def liar_a_env() -> Environment:
    env = Environment()
    env.define("la", (), neg(AApp(Quote("la"))))
    env.define("ala", (), AApp(Quote("la")))
    env.define("zero_eq_one", (), BOT)
    return env


def anomaly_assertible_liar(env: Environment) -> Proof:
    """|- ~~A(`la`): assuming the assertible liar is not assertible leads
    to absurdity."""
    h = neg(AApp(Quote("la")))
    b = ProofBuilder(env, (h,))
    ns = NameStore(env)
    m_la, _ = m_closure_into(b, ns, env.resolve("la"))
    cap = b.mp(m_la, b.theory("Capture", "la"))
    hi = b.hyp(0)
    a = b.mp(hi, cap)
    return deduction_theorem(env, b.build(b.mp(a, hi)))


def assertible_liar_collapse(env: Environment) -> Proof:
    """|- A(`la`) -> A(`zero_eq_one`)."""
    b = ProofBuilder(env, (AApp(Quote("la")),))
    m = b.theory("MofA", "ala")
    cap = b.mp(m, b.theory("Capture", "ala"))
    hi = b.hyp(0)
    a2 = b.mp(hi, cap)                     # A(`ala`)
    l3 = b.logical("L3", AApp(Quote("ala")), AApp(Quote("la")))
    conj = b.mp(hi, b.mp(a2, l3))
    amp = b.theory("AMP", "ala", "zero_eq_one", "la")
    return deduction_theorem(env, b.build(b.mp(conj, amp)))


def entry_1():
    env = liar_a_env()
    return env, anomaly_assertible_liar(env)


def entry_2():
    env = liar_a_env()
    return env, assertible_liar_collapse(env)


def entry_3():
    env = liar_a_env()
    b = ProofBuilder(env)
    ns = NameStore(env)
    index, _ = m_closure_into(b, ns, env.resolve("la"))
    return env, b.build(index)


def liar_t_env() -> Environment:
    env = Environment()
    env.define("liar", (), neg(TApp(Quote("liar"))))
    env.define("zero_eq_one", (), BOT)
    return env


def entry_4():
    env = liar_t_env()
    h = neg(MApp(Quote("liar")))
    b = ProofBuilder(env, (h,))
    tn = b.theory("TNeg", "liar", "liar")
    hi = b.hyp(0)
    a = b.mp(hi, tn)
    m = b.mp(a, b.theory("AtoM", "liar"))
    return env, deduction_theorem(env, b.build(b.mp(m, hi)))


def _liar_meaningful_collapse(env: Environment) -> tuple[ProofBuilder, int]:
    """A builder with a step proving A(`zero_eq_one`) from M(`liar`), and
    that step's index."""
    x = TApp(Quote("liar"))
    env.define("truth_bic", (), iff(x, neg(x)))
    b = ProofBuilder(env, (MApp(Quote("liar")),))
    ns = NameStore(env)
    td = b.theory("TDef", "liar", "truth_bic")
    a_bic = b.mp(b.hyp(0), td)
    return b, internalized_absurdity(env, b, ns, a_bic, "truth_bic", x)


def entry_5():
    env = liar_t_env()
    b, index = _liar_meaningful_collapse(env)
    return env, deduction_theorem(env, b.build(index))


def entry_5b():
    env = liar_t_env()
    b, index = _liar_meaningful_collapse(env)
    return env, b.build(b.release(index))


def entry_6():
    env = Environment()
    p, q = "p", "q"
    from mathkernel.parser import parse_formula

    P = lambda s: parse_formula(s, env)
    env.define("phi", (), P("p"))
    env.define("psi", (), P("q"))
    env.define("phi_and_psi", (), P("p & q"))
    x1, x2, x3 = (TApp(Quote(n)) for n in ("phi", "psi", "phi_and_psi"))
    env.define("tb1", (), iff(x1, P("p")))
    env.define("tb2", (), iff(x2, P("q")))
    env.define("tb3", (), iff(x3, P("p & q")))
    env.define("tdist", (), iff(x3, And(x1, x2)))
    pf, qf, pq = P("p"), P("q"), P("p & q")
    c1, c2, c3 = env.resolve("tb1"), env.resolve("tb2"), env.resolve("tb3")

    # object lemma, forward direction: from the three biconditionals and x3,
    # recover x1 & x2
    nb = ProofBuilder(env, (c1, c2, c3, x3))
    both = nb.mp(nb.hyp(3), nb.mp(nb.hyp(2), nb.logical("L4", Implies(x3, pq),
                                                        Implies(pq, x3))))
    p_ = nb.mp(both, nb.logical("L4", pf, qf))
    q_ = nb.mp(both, nb.logical("L5", pf, qf))
    i1 = nb.mp(p_, nb.mp(nb.hyp(0), nb.logical("L5", Implies(x1, pf),
                                               Implies(pf, x1))))
    i2 = nb.mp(q_, nb.mp(nb.hyp(1), nb.logical("L5", Implies(x2, qf),
                                               Implies(qf, x2))))
    last = nb.mp(i2, nb.mp(i1, nb.logical("L3", x1, x2)))
    lemma_fwd = deduction_theorem(env, nb.build(last))

    # backward direction: from the biconditionals and x1 & x2, recover x3
    nb = ProofBuilder(env, (c1, c2, c3, And(x1, x2)))
    ix1 = nb.mp(nb.hyp(3), nb.logical("L4", x1, x2))
    ix2 = nb.mp(nb.hyp(3), nb.logical("L5", x1, x2))
    p_ = nb.mp(ix1, nb.mp(nb.hyp(0), nb.logical("L4", Implies(x1, pf),
                                                Implies(pf, x1))))
    q_ = nb.mp(ix2, nb.mp(nb.hyp(1), nb.logical("L4", Implies(x2, qf),
                                                Implies(qf, x2))))
    ipq = nb.mp(q_, nb.mp(p_, nb.logical("L3", pf, qf)))
    last = nb.mp(ipq, nb.mp(nb.hyp(2), nb.logical("L5", Implies(x3, pq),
                                                  Implies(pq, x3))))
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
        m_b = b.mp(a_idx, b.theory("AtoM", qb))
        parts = m_decompose_into(b, ns, m_b, qb)
        i_fwd, q_fwd = parts[Implies(x, base)]
        sub = m_decompose_into(b, ns, i_fwd, q_fwd)
        leaves[x] = sub[x][0]
        if not isinstance(base, And):
            leaves[base] = sub[base][0]
    m_facts = {}
    for st in obj.steps:
        if isinstance(st.just, ByLogical) and st.formula not in m_facts:
            m_facts[st.formula] = m_closure_into(b, ns, st.formula, leaves)[0]
    index, _ = internalize_into(b, ns, obj, [a1, a2, a3], m_facts)
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
    h = neg(MApp(Quote("RR")))
    b = ProofBuilder(env, (h,))
    hn = b.theory("HNeg", "R", Quote("R"), "RR", "RR")
    hi = b.hyp(0)
    a = b.mp(hi, hn)
    m = b.mp(a, b.theory("AtoM", "RR"))
    return env, deduction_theorem(env, b.build(b.mp(m, hi)))


def entry_8b():
    env = russell_env()
    x = HApp(Quote("R"), Quote("R"))
    env.define("holding_bic", (), iff(x, neg(x)))
    b = ProofBuilder(env, (MApp(Quote("RR")),))
    ns = NameStore(env)
    hd = b.theory("HDef", "R", Quote("R"), "RR", "holding_bic")
    a_bic = b.mp(b.hyp(0), hd)
    index = internalized_absurdity(env, b, ns, a_bic, "holding_bic", x)
    return env, deduction_theorem(env, b.build(index))


def russell_a_env() -> Environment:
    env = Environment()
    env.define("rara", (), neg(AApp(Quote("rara"))))
    env.define("arara", (), AApp(Quote("rara")))
    env.define("zero_eq_one", (), BOT)
    return env


def entry_9a():
    env = russell_a_env()
    h = neg(AApp(Quote("rara")))
    b = ProofBuilder(env, (h,))
    ns = NameStore(env)
    m, _ = m_closure_into(b, ns, env.resolve("rara"))
    cap = b.mp(m, b.theory("Capture", "rara"))
    hi = b.hyp(0)
    a = b.mp(hi, cap)
    return env, deduction_theorem(env, b.build(b.mp(a, hi)))


def entry_9b():
    env = russell_a_env()
    b = ProofBuilder(env, (AApp(Quote("rara")),))
    m = b.theory("MofA", "arara")
    cap = b.mp(m, b.theory("Capture", "arara"))
    hi = b.hyp(0)
    a2 = b.mp(hi, cap)
    l3 = b.logical("L3", AApp(Quote("arara")), AApp(Quote("rara")))
    conj = b.mp(hi, b.mp(a2, l3))
    last = b.mp(conj, b.theory("AMP", "arara", "zero_eq_one", "rara"))
    return env, deduction_theorem(env, b.build(last))


def entry_10():
    env = liar_a_env()
    p1 = anomaly_assertible_liar(env)       # |- ~~A(`la`)
    p2 = assertible_liar_collapse(env)      # |- A(`la`) -> A(`zero_eq_one`)
    b = ProofBuilder(env)
    i1 = b.embed(p1)
    i2 = b.embed(p2)
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
    env = liar_a_env()
    env.define("m_la", (), MApp(Quote("la")))
    b = ProofBuilder(env)
    if kind == "M":
        index = b.theory("MofM", "m_la")
    else:
        index = b.theory("MofA", "ala")
    return env, b.build(index)


ENTRIES = [
    ("anomaly_assertible_liar", entry_1,
     "the assertible liar sentence is not not assertible"),
    ("assertible_liar_collapse", entry_2,
     "if the assertible liar is assertible, the falsehood is assertible"),
    ("assertible_liar_meaningful", entry_3,
     "the assertible liar sentence is meaningful, by compositional closure"),
    ("anomaly_liar_meaningful", entry_4,
     "the truth-liar sentence is not not meaningful"),
    ("liar_meaningful_collapse", entry_5,
     "if the truth-liar is meaningful, the falsehood is assertible"),
    ("liar_meaningful_collapse_released", entry_5b,
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
