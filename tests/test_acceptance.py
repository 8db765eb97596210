"""Acceptance criteria, one test and one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
verdicts; each test also prints an ``ACCEPTANCE n PASS`` line on success.
"""

import random
import time

import pytest

from mutation import mutations
from proofgen import make_env, random_formula, random_proof

from mathkernel.cli import main as cli_main
from mathkernel.corpus import corpus_dir, load_manifest, run_corpus
from mathkernel.kernel import (
    ByLogical,
    ByMP,
    ProofCheckError,
    check_proof,
    is_log_instance,
)
from mathkernel.parser import parse_formula
from mathkernel.script import parse_script
from mathkernel.semantics import (
    abstract_propositional,
    find_countermodel,
    holds_in_all_models,
)
from mathkernel.syntax import (
    And,
    Atom,
    Environment,
    Implies,
    Or,
    pformat,
)
from mathkernel.tactics import (
    deduction_theorem,
    internalize,
    live_axioms,
    meaningfulness_closure,
)

GATED = {"release_paradox.pf", "unrestricted_T_paradox.pf",
         "liar_meaningful_collapse_released.pf",
         "quantified_holding_law_released.pf"}


def load(name):
    return parse_script((corpus_dir() / name).read_text())


def conclusion_of(name):
    script, env = load(name)
    return pformat(check_proof(env, script.proof()).conclusion)


def done(n, text):
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_01_corpus_fidelity():
    report = run_corpus()
    assert report.passed, [r.detail for r in report.results if not r.passed]
    assert len(report.results) >= 12
    for r in report.results:
        if r.entry.script not in GATED:
            assert r.entry.extensions == (), r.entry.script
    assert report.seconds < 5.0, f"corpus took {report.seconds:.2f}s"
    done(1, f"{len(report.results)} corpus entries pass "
            f"in {report.seconds:.2f}s with expected judgments")


def test_criterion_02_assertible_liar_anomaly_pair():
    assert conclusion_of("anomaly_assertible_liar.pf") == "~~A(`la`)"
    assert conclusion_of("assertible_liar_collapse.pf") \
        == "A(`la`) -> A(`zero_eq_one`)"
    for name in ("anomaly_assertible_liar.pf", "assertible_liar_collapse.pf"):
        script, env = load(name)
        judgment = check_proof(env, script.proof(), granted=set())
        assert judgment.extensions_used == ()
    done(2, "kernel-checked ~~A and A-collapse for the assertible liar, "
            "extension-free")


def test_criterion_03_meaningful_liar_anomaly_pair():
    assert conclusion_of("anomaly_liar_meaningful.pf") == "~~M(`liar`)"
    assert conclusion_of("liar_meaningful_collapse.pf") \
        == "M(`liar`) -> A(`zero_eq_one`)"
    done(3, "kernel-checked ~~M and M-collapse for the truth-theoretic liar")


def test_criterion_04_russell_analogues():
    assert conclusion_of("anomaly_russell_meaningful.pf") == "~~M(`RR`)"
    assert conclusion_of("russell_meaningful_collapse.pf") \
        == "M(`RR`) -> A(`zero_eq_one`)"
    assert conclusion_of("anomaly_assertible_russell.pf") == "~~A(`rara`)"
    assert conclusion_of("assertible_russell_collapse.pf") \
        == "A(`rara`) -> A(`zero_eq_one`)"
    done(4, "kernel-checked anomaly pairs for both self-application "
            "predicates")


def test_criterion_05_paradox_gating(capsys):
    cases = {"release_paradox.pf": "ReleaseAxiom",
             "unrestricted_T_paradox.pf": "UnrestrictedT"}
    for name, scheme in cases.items():
        path = str(corpus_dir() / name)
        script, env = load(name)
        # header grant alone: the library checker without a caller grant says no
        with pytest.raises(ProofCheckError):
            check_proof(env, script.proof(), granted=set())
        # CLI grant alone cannot help a script without the header grant;
        # with both keys the scripts conclude bot
        assert cli_main(["check", path]) == 1
        assert cli_main(["check", path, "--allow", scheme]) == 0
        judgment = check_proof(env, script.proof(), granted={scheme})
        assert pformat(judgment.conclusion) == "bot"
        capsys.readouterr()
    done(5, "bot is derivable exactly when the extension is granted in "
            "both the header and the command line")


def test_criterion_06_classicality_guard():
    env = Environment()
    for name in ("p", "q"):
        env.register_predicate(name, 0)
    principles = ("p | ~p", "~~p -> p", "((p -> q) -> p) -> p")
    start = time.perf_counter()
    for text in principles:
        phi = parse_formula(text, env)
        assert is_log_instance(phi) is None, text
        cm = find_countermodel(phi, max_worlds=2)
        assert cm is not None and cm.model.frame.size <= 2, text
        assert find_countermodel(phi, max_worlds=4) is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"bound-4 searches took {elapsed:.2f}s"
    done(6, "excluded middle, double negation elimination, and Peirce's "
            f"law refuted in <=2 worlds ({elapsed:.2f}s at bound 4)")


def test_criterion_07_transformer_soundness():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(1000):
        env = make_env()
        proof = random_proof(rng, env, n_hyps=rng.randint(0, 2),
                             n_moves=rng.randint(2, 8))
        check_proof(env, proof)
        if proof.hypotheses:
            check_proof(env, deduction_theorem(env, proof))
        m_proofs = {phi: meaningfulness_closure(env, phi)
                    for phi in live_axioms(proof)}
        out = internalize(env, proof, m_proofs)
        check_proof(env, out)
        bound = 10 * len(proof.steps) + sum(len(q.steps)
                                            for q in m_proofs.values())
        assert len(out.steps) <= bound, (len(out.steps), bound)
        checked += 1
    done(7, f"{checked} random proofs transformed and re-checked; "
            "internalization stays within the 10x-plus-M-proofs bound")


def _canonical_skeleton(phi):
    names = {}

    def go(f):
        if isinstance(f, Atom):
            if f.pred not in names:
                names[f.pred] = f"a{len(names)}"
            return Atom(names[f.pred])
        if isinstance(f, (And, Or, Implies)):
            return type(f)(go(f.left), go(f.right))
        return f

    return go(phi)


def test_criterion_08_soundness_cross_check():
    theorems = set()
    for entry in load_manifest():
        script, _ = load(entry.script)
        proof = script.proof()
        pure = set()
        for i, st in enumerate(proof.steps):
            j = st.just
            if isinstance(j, ByLogical) and j.scheme not in ("L10", "L11"):
                pure.add(i)
            elif isinstance(j, ByMP) and j.minor in pure and j.major in pure:
                pure.add(i)
        theorems |= {proof.steps[i].formula for i in pure}
    skeletons = {_canonical_skeleton(abstract_propositional(phi)[0])
                 for phi in theorems}
    for skeleton in sorted(skeletons, key=str):
        assert holds_in_all_models(skeleton, max_worlds=4), pformat(skeleton)
    done(8, f"{len(theorems)} hypothesis-free propositional theorems "
            f"({len(skeletons)} shapes) hold in every model with <=4 worlds")


def test_criterion_09_mutation_robustness():
    total = 0
    for entry in load_manifest():
        script, env = load(entry.script)
        proof = script.proof()
        rng = random.Random(entry.script)
        for mutated in mutations(rng, proof, count=20):
            with pytest.raises(ProofCheckError):
                check_proof(env, mutated)
            total += 1
    done(9, f"{total} single-step mutations (20 per entry) all rejected")


def test_criterion_10_round_trip():
    count = 0
    for entry in load_manifest():
        script, env = load(entry.script)
        proof = script.proof()
        for phi in proof.hypotheses + tuple(s.formula for s in proof.steps):
            assert parse_formula(pformat(phi), env) == phi
            count += 1
    rng = random.Random(99)
    env = make_env()
    for _ in range(1000):
        phi = random_formula(rng)
        assert parse_formula(pformat(phi), env) == phi
    done(10, f"parse/print/parse identity on {count} corpus formulas "
             "and 1000 random formulas")
