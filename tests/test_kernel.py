"""Axiom-scheme instantiation, scheme recognition, and proof checking."""

import ast
import copy
import random
from pathlib import Path
from typing import get_args
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mathkernel import kernel
from mathkernel.corpus import corpus_dir
from mathkernel.kernel import (
    EXTENSION_PARAMS,
    EXTENSION_SCHEMES,
    LOGICAL_PARAMS,
    SCHEMES,
    THEORY_PARAMS,
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
    ProofCheckError,
    SchemeError,
    Step,
    StepError,
    check_proof,
    define_total_extension,
    expand_params,
    extension_instance,
    is_log_instance,
    logical_instance,
    release,
    theory_instance,
)
from mathkernel.parser import parse_formula
from mathkernel.script import ScriptError, emit_script, parse_script, script_of
from mathkernel.syntax import (
    AApp,
    And,
    Atom,
    BOT,
    Bot,
    Const,
    DefinitionError,
    Environment,
    Exists,
    Forall,
    HApp,
    IllFormedError,
    Implies,
    MApp,
    Or,
    Quote,
    SimApp,
    TApp,
    Var,
    captures,
    iff,
    neg,
    pformat,
    substitute,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# -- the scheme registry


def test_derived_tables_keep_their_keys_values_and_order():
    # the script reader and writer, and the benchmark's seeded mutants,
    # depend on these tables exactly as they are
    assert list(LOGICAL_PARAMS.items()) == [
        ("L1", ("f", "f")), ("L2", ("f", "f", "f")), ("L3", ("f", "f")),
        ("L4", ("f", "f")), ("L5", ("f", "f")), ("L6", ("f", "f")),
        ("L7", ("f", "f")), ("L8", ("f", "f", "f")), ("L9", ("f",)),
        ("L10", ("v", "f", "t")), ("L11", ("v", "f", "t")),
    ]
    assert list(THEORY_PARAMS.items()) == [
        ("MComp1", ("n", "n", "n")), ("MComp2", ("n", "n")),
        ("MComp3", ("n", "n")), ("MComp4", ("n", "n", "n")),
        ("MQuant1", ("n", "n", "v")), ("MQuant2", ("n", "n", "v")),
        ("MQuant3", ("n", "n", "v")), ("MBot", ("n",)), ("MofM", ("n",)),
        ("MofA", ("n",)), ("ALog", ("n",)), ("AMP", ("n", "n", "n")),
        ("AGenF", ("n", "n", "v", "v")), ("AGenE", ("n", "n", "v", "v")),
        ("AtoM", ("n",)), ("ForallCapture", ("d", "n", "n", "n*")),
        ("Capture", ("n",)), ("TDef", ("n", "n")), ("TNeg", ("n", "n")),
        ("HDef", ("n", "t", "n", "n")), ("HNeg", ("n", "t", "n", "n")),
        ("SimDef", ("n", "n", "n", "n")), ("DefiniteEM", ("d", "t")),
        ("TotalExtPos", ("p", "t")), ("TotalExtNeg", ("p", "t")),
        ("TotalExtM", ("p", "t")),
    ]
    assert list(EXTENSION_PARAMS.items()) == [
        ("ReleaseAxiom", ("n",)), ("UnrestrictedT", ("n",)),
    ]
    assert EXTENSION_SCHEMES == ("ReleaseAxiom", "ReleaseRule", "UnrestrictedT")


def test_expand_params():
    assert expand_params(("f", "f"), 2) == ("f", "f")
    assert expand_params(("d", "n", "n", "n*"), 4) == ("d", "n", "n", "n")
    assert expand_params(("d", "n", "n", "n*"), 6) == ("d",) + ("n",) * 5
    for kinds, n in ((("f", "f"), 1), (("f", "f"), 3),
                     (("d", "n", "n", "n*"), 3)):
        with pytest.raises(SchemeError):
            expand_params(kinds, n)


_JUSTIFICATION = {"logical": ByLogical, "theory": ByTheory,
                  "extension": ByExtension}
# a value of each parameter kind that the registry environment accepts
_GOOD = {"f": P, "t": Const("c"), "v": "x", "n": "s", "d": "Sent", "p": "R"}


def _registry_env() -> Environment:
    env = Environment()
    env.declare_domain("Sent", ("c",), definite=True)
    env.define("s", (), BOT)
    define_total_extension(env, "R", "Sent")
    return env


# wrongly typed values of a parameter kind besides None, 3 and ["x"]; for
# formulas and terms, also one that is ill-typed only below its top node
_WRONG = {"f": ("a", Atom(["p"])), "t": ("a", Var(["x"]))}


def _ill_shaped(kinds):
    """Parameter tuples one short, one long, and wrongly typed per slot."""
    good = tuple(_GOOD[k] for k in kinds)
    yield good[:-1]
    yield good + good[-1:]
    yield None
    for i, kind in enumerate(kinds):
        for bad in (*_WRONG.get(kind, (BOT,)), None, 3, ["x"]):
            yield good[:i] + (bad,) + good[i + 1:]


def test_generic_check_rejects_unknown_names():
    env = _registry_env()
    with pytest.raises(DefinitionError):  # AtoM resolves nothing itself
        theory_instance(env, "AtoM", ("nope",))
    with pytest.raises(SchemeError, match="not a declared domain"):
        theory_instance(env, "DefiniteEM", ("Nope", Const("c")))
    with pytest.raises(SchemeError, match="no total extension"):
        theory_instance(env, "TotalExtM", ("Nope", Const("c")))
    with pytest.raises(IllFormedError):  # terms are checked for theory schemes
        theory_instance(env, "HDef", ("s", Quote("nope"), "s", "s"))


def test_parameters_that_are_no_sequence_are_rejected():
    with pytest.raises(SchemeError) as exc:
        theory_instance(_registry_env(), "MBot", "q")
    assert str(exc.value) == "MBot: expected a tuple of parameters, got 'q'"


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_ill_shaped_parameters_raise_only_proof_check_errors(scheme):
    env = _registry_env()
    s = SCHEMES[scheme]
    kinds = expand_params(s.params, len(s.params))
    every_grant = frozenset(ExtensionGrant(e) for e in EXTENSION_SCHEMES)
    for params in _ill_shaped(kinds):
        step = Step(BOT, _JUSTIFICATION[s.kind](scheme, params))
        with pytest.raises(ProofCheckError):
            check_proof(env, Proof((), (step,), every_grant))


# a value of each justification field type, and wrongly typed values
_GOOD_FIELD = {"int": 0, "str": "x", "tuple": (BOT,)}
_WRONG_FIELD = {"int": ("0", True, 0.0, None), "str": (7, None, ["x"]),
                "tuple": ([BOT], None, "ab")}


@pytest.mark.parametrize("cls", get_args(Justification),
                         ids=lambda cls: cls.__name__)
def test_ill_typed_justification_fields_raise_only_proof_check_errors(cls):
    env = _registry_env()
    every_grant = frozenset(ExtensionGrant(e) for e in EXTENSION_SCHEMES)
    kinds = cls.__annotations__
    good = {name: _GOOD_FIELD[kind] for name, kind in kinds.items()}
    for name, kind in kinds.items():
        for bad in _WRONG_FIELD[kind]:
            step = Step(BOT, cls(**{**good, name: bad}))
            proof = Proof((BOT,), (Step(BOT, ByHyp(0)), step), every_grant)
            with pytest.raises(ProofCheckError,
                               match=rf"{cls.__name__}\.{name} must be"):
                check_proof(env, proof)
    with pytest.raises(ProofCheckError, match="unknown justification"):
        check_proof(env, Proof((), (Step(BOT, "hyp 1"),)))


@pytest.mark.parametrize("phi", [
    Atom("p", (3,)), Atom("p", (Var(3),)), Atom("p", (Const(""),)),
    Atom(["p"]), Atom("p", [Var("x")]), MApp(Quote(["s"])), MApp("s"),
    Forall(7, BOT), Forall(["y"], BOT), Forall(["y"], Atom("P", (Var("x"),))),
    "x", None, And(BOT, 3),
], ids=["int-term", "int-variable", "empty-constant", "list-predicate",
        "list-arguments", "list-quotation", "str-term", "int-binder",
        "list-binder", "list-binder-over-x", "str", "None", "int-subformula"])
def test_ill_typed_formulas_are_ill_formed(phi):
    env = _registry_env()
    with pytest.raises(IllFormedError):
        env.check_formula(phi)
    l1 = Implies(phi, Implies(BOT, phi))
    for proof in (Proof((BOT,), (Step(phi, ByHyp(0)),)),
                  Proof((phi,), (Step(Implies(BOT, BOT),
                                      ByLogical("L9", (BOT,))),)),
                  Proof((), (Step(l1, ByLogical("L1", (phi, BOT))),)),
                  # a well-formed stated formula; the ill-typed node is
                  # only inside the parameters
                  Proof((), (Step(BOT, ByLogical("L1", (phi, BOT))),)),
                  Proof((), (Step(BOT, ByLogical("L10",
                                                 ("x", phi, Var("y")))),))):
        with pytest.raises(ProofCheckError):
            check_proof(env, proof)


def test_kernel_imports_only_syntax_from_the_package():
    tree = ast.parse(Path(kernel.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            assert module in (".syntax", "mathkernel.syntax") or not (
                node.level or module.split(".")[0] == "mathkernel"), module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "mathkernel", alias.name


# -- logical schemes


def test_logical_instances_exact_shapes():
    cases = {
        ("L1", (P, Q)): "p -> q -> p",
        ("L2", (P, Q, R)): "(p -> q -> r) -> (p -> q) -> p -> r",
        ("L3", (P, Q)): "p -> q -> p & q",
        ("L4", (P, Q)): "p & q -> p",
        ("L5", (P, Q)): "p & q -> q",
        ("L6", (P, Q)): "p -> p | q",
        ("L7", (P, Q)): "q -> p | q",
        ("L8", (P, Q, R)): "(p -> r) -> (q -> r) -> p | q -> r",
        ("L9", (P,)): "bot -> p",
    }
    for (scheme, params), expected in cases.items():
        assert pformat(logical_instance(scheme, params)) == expected


def test_logical_quantifier_instances():
    phi = Atom("P1", (Var("x"),))
    inst = logical_instance("L10", ("x", phi, Const("c")))
    assert pformat(inst) == "(forall x. P1(x)) -> P1(c)"
    inst = logical_instance("L11", ("x", phi, Const("c")))
    assert pformat(inst) == "P1(c) -> (exists x. P1(x))"


def test_logical_instance_rejects_capture():
    phi = Atom("R1", (Var("x"), Var("y")))
    from mathkernel.syntax import Exists, Forall
    body = Forall("y", phi)
    with pytest.raises(SchemeError):
        logical_instance("L10", ("x", body, Var("y")))


def test_is_log_instance_recognizes_instances():
    for scheme, params in [("L1", (P, Q)), ("L2", (P, Q, R)),
                           ("L8", (P, Q, R)), ("L9", (And(P, Q),))]:
        phi = logical_instance(scheme, params)
        found = is_log_instance(phi)
        assert found is not None
        assert logical_instance(found[0], found[1]) == phi


def test_is_log_instance_recognizes_quantifier_axioms():
    phi = Atom("P1", (Var("x"),))
    for scheme in ("L10", "L11"):
        inst = logical_instance(scheme, ("x", phi, Const("c")))
        found = is_log_instance(inst)
        assert found is not None and found[0] == scheme


def test_is_log_instance_rejects_classical_principles():
    em = parse_formula("p | ~p", _prop_env())
    dne = parse_formula("~~p -> p", _prop_env())
    peirce = parse_formula("((p -> q) -> p) -> p", _prop_env())
    for phi in (em, dne, peirce):
        assert is_log_instance(phi) is None


def _prop_env():
    env = Environment()
    for name in ("p", "q", "r"):
        env.register_predicate(name, 0)
    return env


def _reference_infer_term(bt, gt, x, bound, cands):
    if isinstance(bt, Var) and bt.name == x and x not in bound:
        cands.append(gt)
        return True
    return bt == gt


def _reference_infer(body, g, x, bound, cands):
    if type(body) is not type(g):
        return False
    if isinstance(body, Bot):
        return True
    if isinstance(body, Atom):
        return (
            body.pred == g.pred
            and len(body.args) == len(g.args)
            and all(_reference_infer_term(a, b, x, bound, cands)
                    for a, b in zip(body.args, g.args))
        )
    if isinstance(body, (MApp, AApp, TApp)):
        return _reference_infer_term(body.arg, g.arg, x, bound, cands)
    if isinstance(body, HApp):
        return (_reference_infer_term(body.pred, g.pred, x, bound, cands)
                and _reference_infer_term(body.arg, g.arg, x, bound, cands))
    if isinstance(body, SimApp):
        return (_reference_infer_term(body.left, g.left, x, bound, cands)
                and _reference_infer_term(body.right, g.right, x, bound, cands))
    if isinstance(body, (And, Or, Implies)):
        return (_reference_infer(body.left, g.left, x, bound, cands)
                and _reference_infer(body.right, g.right, x, bound, cands))
    if isinstance(body, (Forall, Exists)):
        if body.var != g.var:
            return False
        return _reference_infer(body.body, g.body, x, bound | {body.var}, cands)
    return False


def _reference_match_subst(body, x, g):
    cands = []
    if not _reference_infer(body, g, x, frozenset(), cands):
        return None
    t = cands[0] if cands else Var(x)
    if any(c != t for c in cands):
        return None
    if captures(body, x, t):
        return None
    if substitute(body, x, t) != g:
        return None
    return t


def reference_is_log_instance(phi):
    """The recognizer as it was before the patterns: hand-written shape
    tests for L1..L9, and a collecting walk for L10 and L11."""
    if not isinstance(phi, Implies):
        return None
    l, r = phi.left, phi.right
    if isinstance(r, Implies) and r.right == l:
        return ("L1", (l, r.left))
    if (isinstance(l, Implies) and isinstance(l.right, Implies)
            and isinstance(r, Implies) and isinstance(r.left, Implies)
            and isinstance(r.right, Implies)):
        a, b, c = l.left, l.right.left, l.right.right
        if r.left == Implies(a, b) and r.right == Implies(a, c):
            return ("L2", (a, b, c))
    if (isinstance(r, Implies) and isinstance(r.right, And)
            and r.right.left == l and r.right.right == r.left):
        return ("L3", (l, r.left))
    if isinstance(l, And):
        if r == l.left:
            return ("L4", (l.left, l.right))
        if r == l.right:
            return ("L5", (l.left, l.right))
    if isinstance(r, Or):
        if l == r.left:
            return ("L6", (r.left, r.right))
        if l == r.right:
            return ("L7", (r.left, r.right))
    if (isinstance(l, Implies) and isinstance(r, Implies)
            and isinstance(r.left, Implies) and isinstance(r.right, Implies)
            and isinstance(r.right.left, Or)):
        a, c = l.left, l.right
        if (r.left.right == c and r.right.right == c
                and r.right.left == Or(a, r.left.left)):
            return ("L8", (a, r.left.left, c))
    if l == BOT:
        return ("L9", (r,))
    if isinstance(l, Forall):
        t = _reference_match_subst(l.body, l.var, r)
        if t is not None:
            return ("L10", (l.var, l.body, t))
    if isinstance(r, Exists):
        t = _reference_match_subst(r.body, r.var, l)
        if t is not None:
            return ("L11", (r.var, r.body, t))
    return None


_VARS = ("x", "y", "z")
_TERMS = (Var("x"), Var("y"), Var("z"), Const("c"), Quote("s"))


def _random_formula(rng, depth):
    """Formulas over few atoms, so that shapes repeat, with every kind of
    atomic formula and binders over the variables terms use."""
    if depth == 0 or rng.random() < 0.3:
        s, t = rng.choice(_TERMS), rng.choice(_TERMS)
        return rng.choice((BOT, Atom("q"), Atom("P", (s,)), Atom("R", (s, t)),
                           MApp(s), TApp(s), HApp(s, t), SimApp(s, t)))
    shape = rng.choice((And, Or, Implies, Implies, Forall, Exists))
    if shape in (Forall, Exists):
        return shape(rng.choice(_VARS), _random_formula(rng, depth - 1))
    return shape(_random_formula(rng, depth - 1),
                 _random_formula(rng, depth - 1))


def _random_instance(rng, scheme):
    """An instance of scheme; for L10 and L11 the substitution renames a
    binder when the term would be captured, which gives a formula of the
    instance's shape that is not one."""
    kinds = LOGICAL_PARAMS[scheme]
    if kinds == ("v", "f", "t"):
        x, t = rng.choice(_VARS), rng.choice(_TERMS)
        body = _random_formula(rng, 3)
        if scheme == "L10":
            return Implies(Forall(x, body), substitute(body, x, t))
        return Implies(substitute(body, x, t), Exists(x, body))
    return logical_instance(
        scheme, tuple(_random_formula(rng, 2) for _ in kinds))


def _seeded_formulas(seed, rounds):
    rng = random.Random(seed)
    for _ in range(rounds):
        for scheme in LOGICAL_PARAMS:
            phi = _random_instance(rng, scheme)
            yield phi
            other = _random_formula(rng, 2)
            yield Implies(other, phi.right) if rng.random() < 0.5 \
                else Implies(phi.left, other)
            yield _random_formula(rng, 4)


def _corpus_pattern_steps():
    """The stated formula of every L1..L9 step of the corpus scripts."""
    for path in sorted(corpus_dir().glob("*.pf")):
        script, _ = parse_script(path.read_text())
        for step in script.steps:
            if isinstance(step.just, ByLogical) and step.just.scheme not in (
                    "L10", "L11"):
                yield step.formula


def test_is_log_instance_matches_reference_on_seeded_formulas():
    found = 0
    for phi in _seeded_formulas(20261018, 150):
        witness = is_log_instance(phi)
        assert witness == reference_is_log_instance(phi), pformat(phi)
        found += witness is not None
    assert found >= 1500  # instances of every kind are exercised
    # and on real steps: every L1..L9 step of the corpus
    corpus_steps = 0
    for phi in _corpus_pattern_steps():
        witness = is_log_instance(phi)
        assert witness is not None, pformat(phi)
        assert witness == reference_is_log_instance(phi), pformat(phi)
        corpus_steps += 1
    assert corpus_steps >= 1400


# -- the code generated from the L1..L9 patterns


L1_SOURCE = """\
def match(phi, a=_FREE, b=_FREE):
    if type(phi) is not Implies: return None
    l = phi.left
    if a is _FREE: a = l
    elif not (type(a) in _FORMULAS and (a is l or a == l)): return None
    r = phi.right
    if type(r) is not Implies: return None
    rl = r.left
    if b is _FREE: b = rl
    elif not (type(b) in _FORMULAS and (b is rl or b == rl)): return None
    rr = r.right
    if not (a is rr or a == rr): return None
    return a, b
def build(a, b):
    return Implies(a, Implies(b, a))
"""

L8_SOURCE = """\
def match(phi, a=_FREE, b=_FREE, c=_FREE):
    if type(phi) is not Implies: return None
    l = phi.left
    if type(l) is not Implies: return None
    ll = l.left
    if a is _FREE: a = ll
    elif not (type(a) in _FORMULAS and (a is ll or a == ll)): return None
    lr = l.right
    if c is _FREE: c = lr
    elif not (type(c) in _FORMULAS and (c is lr or c == lr)): return None
    r = phi.right
    if type(r) is not Implies: return None
    rl = r.left
    if type(rl) is not Implies: return None
    rll = rl.left
    if b is _FREE: b = rll
    elif not (type(b) in _FORMULAS and (b is rll or b == rll)): return None
    rlr = rl.right
    if not (c is rlr or c == rlr): return None
    rr = r.right
    if type(rr) is not Implies: return None
    rrl = rr.left
    if type(rrl) is not Or: return None
    rrll = rrl.left
    if not (a is rrll or a == rrll): return None
    rrlr = rrl.right
    if not (b is rrlr or b == rrlr): return None
    rrr = rr.right
    if not (c is rrr or c == rrr): return None
    return a, b, c
def build(a, b, c):
    return Implies(Implies(a, c), Implies(Implies(b, c), Implies(Or(a, b), c)))
"""


def test_the_code_generated_from_l1_and_l8_reads_as_pinned():
    assert kernel._source(SCHEMES["L1"].instance.pattern, "ab") == L1_SOURCE
    assert kernel._source(SCHEMES["L8"].instance.pattern, "abc") == L8_SOURCE
    # a lone slot is returned as a one-tuple
    assert kernel._source(SCHEMES["L9"].instance.pattern, "a").endswith(
        "    return a,\ndef build(a):\n    return Implies(BOT, a)\n")


_SLOT = {"a": 0, "b": 1, "c": 2}  # the parameter each metavariable stands for


def reference_fill(pattern, params):
    """The instance of a pattern, filled by a recursive walk."""
    node = type(pattern)
    if node is str:
        return params[_SLOT[pattern]]
    if node is Bot:
        return pattern
    return node(reference_fill(pattern.left, params),
                reference_fill(pattern.right, params))


def test_logical_instance_matches_a_recursive_fill_on_seeded_parameters():
    rng = random.Random(20261020)
    patterns = {name: s.instance.pattern for name, s in SCHEMES.items()
                if isinstance(s.instance, kernel._Pattern)}
    assert list(patterns) == [f"L{i}" for i in range(1, 10)]
    for _ in range(200):
        for name, pattern in patterns.items():
            params = tuple(_random_formula(rng, 2)
                           for _ in LOGICAL_PARAMS[name])
            phi = logical_instance(name, params)
            assert phi == reference_fill(pattern, params), name
            # the matcher gives the parameters back, given or free
            assert kernel._MATCHERS[name](phi, *params) == params
            assert logical_instance(name, kernel._MATCHERS[name](phi)) == phi


@pytest.mark.parametrize("params,shown", [
    ((None, Q), "None"), ((P, None), "None"), ((mock.ANY, Q), "<ANY>")],
    ids=["none-first", "none-second", "equal-to-anything"])
def test_a_parameter_that_is_no_formula_is_rejected(params, shown):
    # the matcher marks a free slot with its own default, so a step's None
    # parameter is checked, not bound to the subformula there; and a value
    # that compares equal to any formula is no formula
    stated = Implies(P, Implies(Q, P))
    assert _errors(_prop_env(), Proof((), (Step(stated, ByLogical(
        "L1", params)),))) == [f"step 1: L1: expected a formula, got {shown}"]


# -- theory schemes


def liar_env() -> Environment:
    env = Environment()
    env.define("la", (), neg(AApp(Quote("la"))))
    env.define("ala", (), AApp(Quote("la")))
    env.define("zero_eq_one", (), BOT)
    return env


def test_capture_instance():
    env = liar_env()
    inst = theory_instance(env, "Capture", ("la",))
    assert pformat(inst) == "M(`la`) -> ~A(`la`) -> A(`la`)"


def test_m_compositionality_cycle():
    env = liar_env()
    env.define("c1", (), And(AApp(Quote("la")), BOT))
    env.define("c2", (), parse_formula("A(`la`) | bot", env))
    env.define("c3", (), parse_formula("A(`la`) -> bot", env))
    assert pformat(theory_instance(env, "MComp1", ("ala", "zero_eq_one", "c1"))) \
        == "M(`ala`) & M(`zero_eq_one`) -> M(`c1`)"
    assert pformat(theory_instance(env, "MComp2", ("c1", "c2"))) \
        == "M(`c1`) -> M(`c2`)"
    assert pformat(theory_instance(env, "MComp3", ("c2", "c3"))) \
        == "M(`c2`) -> M(`c3`)"
    assert pformat(theory_instance(env, "MComp4", ("c3", "ala", "zero_eq_one"))) \
        == "M(`c3`) -> M(`ala`) & M(`zero_eq_one`)"


def test_m_cycle_side_conditions():
    env = liar_env()
    with pytest.raises(SchemeError):
        theory_instance(env, "MComp1", ("ala", "ala", "zero_eq_one"))
    with pytest.raises(SchemeError):
        theory_instance(env, "MComp2", ("ala", "zero_eq_one"))


def test_m_leaf_schemes():
    env = liar_env()
    assert pformat(theory_instance(env, "MBot", ("zero_eq_one",))) \
        == "M(`zero_eq_one`)"
    assert pformat(theory_instance(env, "MofA", ("ala",))) == "M(`ala`)"
    env.define("mla", (), MApp(Quote("la")))
    assert pformat(theory_instance(env, "MofM", ("mla",))) == "M(`mla`)"
    with pytest.raises(SchemeError):
        theory_instance(env, "MBot", ("la",))
    with pytest.raises(SchemeError):
        theory_instance(env, "MofA", ("la",))


def test_alog_gated_on_axiomhood():
    env = liar_env()
    env.define("ax", (), parse_formula("A(`la`) -> bot -> A(`la`)", env))
    assert pformat(theory_instance(env, "ALog", ("ax",))) \
        == "M(`ax`) -> A(`ax`)"
    with pytest.raises(SchemeError):
        theory_instance(env, "ALog", ("la",))  # the liar is no axiom


def test_amp_instance_and_side_condition():
    env = liar_env()
    inst = theory_instance(env, "AMP", ("ala", "zero_eq_one", "la"))
    assert pformat(inst) == "A(`ala`) & A(`la`) -> A(`zero_eq_one`)"
    with pytest.raises(SchemeError):
        theory_instance(env, "AMP", ("zero_eq_one", "ala", "la"))


def test_agen_side_conditions():
    env = Environment()
    env.register_predicate("D", 1)
    env.register_predicate("E", 1)
    env.define("i1", ("x",), parse_formula("(exists z. E(z)) -> D(x)", env))
    env.define("g1", (), parse_formula("(exists z. E(z)) -> forall x. D(x)", env))
    inst = theory_instance(env, "AGenF", ("i1", "g1", "x", "x"))
    assert pformat(inst) == "A(`i1`) -> A(`g1`)"
    # x free on the fixed side is rejected
    env.define("i2", ("x",), parse_formula("D(x) -> D(x)", env))
    env.define("g2", ("x",), parse_formula("D(x) -> forall x. D(x)", env))
    with pytest.raises(SchemeError):
        theory_instance(env, "AGenF", ("i2", "g2", "x", "x"))


def test_atom_scheme():
    env = liar_env()
    assert pformat(theory_instance(env, "AtoM", ("la",))) \
        == "A(`la`) -> M(`la`)"


def test_tdef_tneg():
    env = Environment()
    env.define("s", (), BOT)
    env.define("tb", (), iff(parse_formula("T(`s`)", env), BOT))
    assert pformat(theory_instance(env, "TDef", ("s", "tb"))) \
        == "M(`s`) -> A(`tb`)"
    env.define("tn", (), neg(parse_formula("T(`s`)", env)))
    assert pformat(theory_instance(env, "TNeg", ("s", "tn"))) \
        == "~M(`s`) -> A(`tn`)"
    with pytest.raises(SchemeError):
        theory_instance(env, "TDef", ("s", "tn"))


def test_hdef_hneg():
    env = Environment()
    env.register_predicate("D", 1)
    env.define("w", ("x",), parse_formula("D(x)", env))
    env.declare_constant("c")
    env.define("wc", (), parse_formula("D(c)", env))
    env.define("hb", (), iff(parse_formula("H(`w`, c)", env),
                             parse_formula("D(c)", env)))
    assert pformat(theory_instance(env, "HDef", ("w", Const("c"), "wc", "hb"))) \
        == "M(`wc`) -> A(`hb`)"
    env.define("hn", (), neg(parse_formula("H(`w`, c)", env)))
    assert pformat(theory_instance(env, "HNeg", ("w", Const("c"), "wc", "hn"))) \
        == "~M(`wc`) -> A(`hn`)"


def test_forall_capture_finite_domain():
    env = Environment()
    env.declare_domain("Sent", ("s1", "s2"), definite=True)
    env.define("w", ("x",), AApp(Var("x")))
    env.define("w1", (), AApp(Const("s1")))
    env.define("w2", (), AApp(Const("s2")))
    env.define("u", (), parse_formula("forall x. Sent(x) -> A(x)", env))
    inst = theory_instance(env, "ForallCapture", ("Sent", "w", "u", "w1", "w2"))
    assert pformat(inst) == "A(`w1`) & A(`w2`) -> A(`u`)"
    with pytest.raises(SchemeError):
        theory_instance(env, "ForallCapture", ("Sent", "w", "u", "w1"))


def test_definite_em_and_total_extension():
    env = Environment()
    env.declare_domain("Sent", ("s1",), definite=True)
    define_total_extension(env, "Tr", "Sent")
    s1 = Const("s1")
    rendered = {pformat(theory_instance(env, scheme, params)) for scheme, params
                in [("TotalExtPos", ("Tr", s1)), ("TotalExtNeg", ("Tr", s1)),
                    ("DefiniteEM", ("Sent", s1)), ("TotalExtM", ("Tr", s1))]}
    assert "Sent(s1) -> (Tr_ext(s1) <-> Tr(s1))" in rendered
    assert "~Sent(s1) -> (Tr_ext(s1) <-> bot)" in rendered
    assert "Sent(s1) | ~Sent(s1)" in rendered
    assert "M(`Tr_ext_s1`)" in rendered


def test_definite_em_requires_definiteness():
    env = Environment()
    env.declare_domain("Open", ("c1",), definite=False)
    with pytest.raises(SchemeError):
        theory_instance(env, "DefiniteEM", ("Open", Const("c1")))


def test_total_extension_needs_a_declared_definite_domain():
    env = Environment()
    env.declare_domain("Open", ("c1",), definite=False)
    with pytest.raises(SchemeError) as exc:
        define_total_extension(env, "Tr", "Nowhere")
    assert str(exc.value) == "Nowhere is not a declared domain"
    with pytest.raises(SchemeError) as exc:
        define_total_extension(env, "Tr", "Open")
    assert str(exc.value) == ("domain Open is not declared definite; a "
                              "predicate can only be totalized over a "
                              "definite range")
    assert env.extensions == {}


def _errors(env, proof):
    """The messages of the errors check_proof finds in ``proof``."""
    with pytest.raises(ProofCheckError) as exc:
        check_proof(env, proof)
    return [str(e) for e in exc.value.errors]


def _sim_env():
    env = Environment()
    env.register_predicate("D", 1)
    env.register_predicate("E", 1)
    for name, params, body in [
            ("w", ("x",), "D(x)"), ("v", ("x",), "E(x)"), ("s", (), "bot"),
            ("u", (), "forall x. D(x) <-> E(x)"),
            ("b", (), "sim(`w`, `v`) <-> T(`u`)"),
            ("u2", (), "forall x. D(x) <-> D(x)"),
            ("b2", (), "sim(`v`, `w`) <-> T(`u`)")]:
        env.define(name, params, parse_formula(body, env))
    return env


@pytest.mark.parametrize("params,message", [
    (("w", "v", "u", "b"), None),
    (("s", "v", "u", "b"), "s has arity 0; a unary predicate is required"),
    (("w", "s", "u", "b"), "s has arity 0; a unary predicate is required"),
    (("w", "v", "w", "b"), "w has arity 1; a sentence is required"),
    (("w", "v", "u", "v"), "v has arity 1; a sentence is required"),
    (("w", "v", "s", "b"), "the extensional-equivalence body is not quantified"),
    (("w", "v", "u2", "b"),
     "body of u2 is not the pointwise biconditional of w and v"),
    (("w", "v", "u", "b2"),
     "body of b2 is not the concept-equivalence biconditional"),
], ids=["accepted", "first-not-unary", "second-not-unary",
        "universal-not-a-sentence", "biconditional-not-a-sentence",
        "not-quantified", "not-pointwise", "not-the-sim-biconditional"])
def test_simdef_side_conditions(params, message):
    env = _sim_env()
    qp, qq, _, qbic = params
    stated = Implies(And(MApp(Quote(qp)), MApp(Quote(qq))), AApp(Quote(qbic)))
    proof = Proof((), (Step(stated, ByTheory("SimDef", params)),))
    if message is None:
        assert check_proof(env, proof).conclusion == stated
    else:
        assert _errors(env, proof) == [f"step 1: SimDef: {message}"]


def test_mquant3_takes_an_existential_to_its_body():
    env = Environment()
    env.register_predicate("D", 1)
    env.define("d", ("x",), parse_formula("D(x)", env))
    env.define("e", (), parse_formula("exists x. D(x)", env))
    stated = Implies(MApp(Quote("e")), MApp(Quote("d")))
    ok = Proof((), (Step(stated, ByTheory("MQuant3", ("e", "d", "x"))),))
    assert check_proof(env, ok).conclusion == stated
    bad = Proof((), (Step(stated, ByTheory("MQuant3", ("e", "d", "y"))),))
    assert _errors(env, bad) == [
        "step 1: MQuant3: body of e is not (exists y) applied to d"]


def _scheme_env():
    env = Environment()
    env.declare_domain("Sent", ("s1",), definite=True)
    env.declare_domain("Open", ("o1",), definite=False)
    define_total_extension(env, "Tr", "Sent")
    for name, params, body in [
            ("a", (), "p"), ("b", (), "q"), ("imp", (), "p -> q"),
            ("w", ("x",), "A(x)"), ("ws1", (), "A(s1)")]:
        env.define(name, params, parse_formula(body, env))
    return env


# one rejected step per theory and extension scheme, each by a side
# condition of its own where the scheme has one (AtoM has none)
_REJECTIONS = [
    ("MComp1", ("a", "b", "a"), "body of a is not the conjunction of a and b"),
    ("MComp2", ("a", "b"), "a and b are not a matching conjunction/disjunction"),
    ("MComp3", ("a", "b"), "a and b are not a matching disjunction/implication"),
    ("MComp4", ("a", "a", "b"), "body of a is not the implication from a to b"),
    ("MQuant1", ("a", "b", "x"), "body of b is not (forall x) applied to a"),
    ("MQuant2", ("a", "b", "x"), "a and b are not matching forall/exists bodies"),
    ("MQuant3", ("a", "b", "x"), "body of a is not (exists x) applied to b"),
    ("MBot", ("a",), "body of a is not bot"),
    ("MofM", ("a",), "body of a is not a meaningfulness ascription"),
    ("MofA", ("a",), "body of a is not an assertibility ascription"),
    ("ALog", ("a",), "body of a is not a logical axiom instance"),
    ("AMP", ("a", "b", "a"), "body of a is not the implication from a to b"),
    ("AGenF", ("imp", "a", "x", "x"),
     "body of a is not the generalization of imp"),
    ("AGenE", ("imp", "a", "x", "x"),
     "body of a is not the generalization of imp"),
    ("AtoM", ("a",), None),
    ("ForallCapture", ("Sent", "w", "a", "a", "b"),
     "2 instances given for the 1 constants of Sent"),
    ("Capture", ("w",), "w has arity 1; a sentence is required"),
    ("TDef", ("a", "b"), "body of b is not the truth biconditional for a"),
    ("TNeg", ("a", "b"),
     "body of b is not the negated truth ascription for a"),
    ("HDef", ("w", Const("s1"), "ws1", "a"),
     "body of a is not the holding biconditional"),
    ("HNeg", ("w", Const("s1"), "ws1", "a"),
     "body of a is not the negated holding ascription"),
    ("SimDef", ("w", "w", "a", "b"),
     "the extensional-equivalence body is not quantified"),
    ("DefiniteEM", ("Open", Const("o1")), "domain Open is not definite"),
    ("TotalExtPos", ("Tr", Var("x")),
     "the witness must be a declared object constant"),
    ("TotalExtNeg", ("Tr", Var("x")),
     "the witness must be a declared object constant"),
    ("TotalExtM", ("Tr", Var("x")),
     "the witness must be a declared object constant"),
    ("ReleaseAxiom", ("w",), "w has arity 1; a sentence is required"),
    ("UnrestrictedT", ("w",), "w has arity 1; a sentence is required"),
]


@pytest.mark.parametrize("scheme,params,message", _REJECTIONS,
                         ids=[scheme for scheme, _, _ in _REJECTIONS])
def test_each_theory_and_extension_scheme_names_its_rejection(scheme, params,
                                                              message):
    env = _scheme_env()
    if SCHEMES[scheme].kind == "theory":
        proof = Proof((), (Step(BOT, ByTheory(scheme, params)),))
    else:
        proof = Proof((), (Step(BOT, ByExtension(scheme, params)),),
                      frozenset({ExtensionGrant(scheme)}))
    if message is None:  # the stated formula is not the instance
        message = ("stated formula (bot) differs from the justified formula "
                   "(A(`a`) -> M(`a`))")
    else:
        message = f"{scheme}: {message}"
    assert _errors(env, proof) == [f"step 1: {message}"]


def test_the_rejections_pin_every_theory_and_extension_scheme():
    assert [scheme for scheme, _, _ in _REJECTIONS] == [
        name for name, s in SCHEMES.items() if s.kind != "logical"]


def _guard_env():
    env = Environment()
    env.declare_domain("Sent", ("s1", "s2"), definite=True)
    env.declare_domain("Open", ("o1",), definite=False)
    for name, params, body in [
            ("wA", ("x",), "A(x)"), ("bin", ("x", "y"), "A(x) & A(y)"),
            ("i1", (), "A(s1)"), ("i2", (), "A(s2)"), ("bad_i2", (), "bot"),
            ("u", (), "forall x. Sent(x) -> A(x)"),
            ("ex", (), "exists x. Sent(x) -> A(x)"),
            ("nq", (), "Sent(s1) -> A(s1)"),
            ("unrel", (), "forall x. Open(x) -> A(x)"),
            ("bare", (), "forall x. A(x)"),
            ("hd", (), "H(`wA`, s1) <-> A(s1)"), ("hn", (), "~H(`wA`, s1)"),
            ("hdx", ("x",), "H(`wA`, x) <-> A(x)"),
            ("hnx", ("x",), "~H(`wA`, x)"),
            ("tb", (), "T(`i1`) <-> A(s1)"), ("tn", (), "~T(`i1`)"),
            ("conj", (), "A(s1) & A(s2)"),
            ("dis", (), "A(s1) | A(s2)"), ("dis2", (), "A(s1) | A(s2)"),
            ("imp", (), "A(s1) -> A(s2)"), ("imp2", (), "A(s1) -> A(s2)"),
            ("some", (), "exists x. A(x)"),
            ("all_y", (), "forall y. A(s1)"), ("ex_x", (), "exists x. A(s1)")]:
        env.define(name, params, parse_formula(body, env))
    return env


_UNARY = "bin has arity 2; a unary predicate is required"
_SENTENCE = "wA has arity 1; a sentence is required"
_WITNESS = "the witness must be a declared object constant"


# side conditions that the one row per scheme above leaves open: each row
# is rejected by one guard, and without that guard it is accepted or
# rejected with another message
@pytest.mark.parametrize("scheme,params,message", [
    pytest.param("ForallCapture", ("Sent", "bin", "u", "i1", "i2"), _UNARY,
                 id="ForallCapture-binary-predicate"),
    pytest.param("ForallCapture", ("Sent", "wA", "u", "wA", "i2"), _SENTENCE,
                 id="ForallCapture-unary-instance"),
    pytest.param("ForallCapture", ("Sent", "wA", "u", "i1", "bad_i2"),
                 "body of bad_i2 is not wA applied to s2",
                 id="ForallCapture-wrong-instance"),
    pytest.param("ForallCapture", ("Sent", "wA", "ex", "i1", "i2"),
                 "body of ex is not universally quantified",
                 id="ForallCapture-existential"),
    pytest.param("ForallCapture", ("Sent", "wA", "nq", "i1", "i2"),
                 "body of nq is not universally quantified",
                 id="ForallCapture-not-quantified"),
    pytest.param("ForallCapture", ("Sent", "wA", "unrel", "i1", "i2"),
                 "body of unrel does not relativize wA to Sent",
                 id="ForallCapture-other-relativization"),
    pytest.param("ForallCapture", ("Sent", "wA", "bare", "i1", "i2"),
                 "body of bare does not relativize wA to Sent",
                 id="ForallCapture-no-relativization"),
    pytest.param("HDef", ("bin", Const("s1"), "i1", "hd"), _UNARY,
                 id="HDef-binary-predicate"),
    pytest.param("HNeg", ("bin", Const("s1"), "i1", "hn"), _UNARY,
                 id="HNeg-binary-predicate"),
    pytest.param("HDef", ("wA", Var("x"), "wA", "hdx"), _SENTENCE,
                 id="HDef-variable-witness"),
    pytest.param("HNeg", ("wA", Var("x"), "wA", "hnx"), _SENTENCE,
                 id="HNeg-variable-witness"),
    pytest.param("HDef", ("wA", Const("s1"), "bad_i2", "hd"),
                 "body of bad_i2 is not wA applied to s1",
                 id="HDef-wrong-instance"),
    pytest.param("HNeg", ("wA", Const("s1"), "bad_i2", "hn"),
                 "body of bad_i2 is not wA applied to s1",
                 id="HNeg-wrong-instance"),
    pytest.param("TDef", ("wA", "tb"), _SENTENCE, id="TDef-unary"),
    pytest.param("TNeg", ("wA", "tn"), _SENTENCE, id="TNeg-unary"),
    pytest.param("DefiniteEM", ("Sent", Var("s1")), _WITNESS,
                 id="DefiniteEM-variable"),
    pytest.param("DefiniteEM", ("Sent", Const("c9")), _WITNESS,
                 id="DefiniteEM-undeclared-constant"),
    pytest.param("MComp2", ("dis", "dis2"),
                 "dis and dis2 are not a matching conjunction/disjunction",
                 id="MComp2-two-disjunctions"),
    pytest.param("MComp2", ("conj", "imp"),
                 "conj and imp are not a matching conjunction/disjunction",
                 id="MComp2-conjunction-to-implication"),
    pytest.param("MComp3", ("imp", "imp2"),
                 "imp and imp2 are not a matching disjunction/implication",
                 id="MComp3-two-implications"),
    pytest.param("MComp3", ("dis", "conj"),
                 "dis and conj are not a matching disjunction/implication",
                 id="MComp3-disjunction-to-conjunction"),
    pytest.param("MQuant2", ("some", "some", "x"),
                 "some and some are not matching forall/exists bodies",
                 id="MQuant2-from-existential"),
    pytest.param("MQuant2", ("all_y", "ex_x", "x"),
                 "all_y and ex_x are not matching forall/exists bodies",
                 id="MQuant2-other-variable"),
    pytest.param("MQuant2", ("bare", "ex_x", "x"),
                 "bare and ex_x are not matching forall/exists bodies",
                 id="MQuant2-other-body"),
    pytest.param("L1", ("x", BOT), "expected a formula, got 'x'",
                 id="L1-not-a-formula"),
    pytest.param("L10", ("x", Atom("P", (Var("x"),)), "c"),
                 "expected a term, got 'c'", id="L10-not-a-term"),
])
def test_each_side_condition_names_its_rejection(scheme, params, message):
    with pytest.raises(SchemeError) as exc:
        if SCHEMES[scheme].kind == "logical":
            logical_instance(scheme, params)
        else:
            theory_instance(_guard_env(), scheme, params)
    assert str(exc.value) == f"{scheme}: {message}"


def test_total_ext_m_needs_the_name_of_its_instance():
    env = Environment()
    env.declare_domain("Sent", ("s1",), definite=True)
    define_total_extension(env, "Tr", "Sent")
    env.declare_constant("c")  # after the extension: Tr_ext_c is unbound
    with pytest.raises(DefinitionError) as exc:
        theory_instance(env, "TotalExtM", ("Tr", Const("c")))
    assert str(exc.value) == "unbound quotation name: Tr_ext_c"
    assert pformat(theory_instance(env, "TotalExtM", ("Tr", Const("s1")))) \
        == "M(`Tr_ext_s1`)"


# -- extension schemes


def test_extension_instances():
    env = liar_env()
    assert pformat(extension_instance(env, "ReleaseAxiom", ("zero_eq_one",))) \
        == "~A(`zero_eq_one`)"
    assert pformat(extension_instance(env, "UnrestrictedT", ("la",))) \
        == "T(`la`) <-> ~A(`la`)"


# -- proof checking


def test_check_simple_proof():
    env = liar_env()
    phi = AApp(Quote("la"))
    proof = Proof(
        hypotheses=(phi,),
        steps=(
            Step(phi, ByHyp(0)),
            Step(logical_instance("L1", (phi, BOT)), ByLogical("L1", (phi, BOT))),
            Step(Implies(BOT, phi), ByMP(0, 1)),
        ),
        enabled=frozenset(),
    )
    judgment = check_proof(env, proof)
    assert judgment.conclusion == Implies(BOT, phi)
    assert judgment.extensions_used == ()


def test_check_rejects_formula_mismatch():
    env = liar_env()
    proof = Proof((), (Step(BOT, ByLogical("L1", (P, Q))),), frozenset())
    with pytest.raises(ProofCheckError):
        check_proof(env, proof)


@pytest.mark.parametrize("scheme,stated", [
    ("L10", Implies(Forall("x", P), P)), ("L11", Implies(P, Exists("x", P)))],
    ids=["L10", "L11"])
def test_a_quantifier_axiom_term_is_checked_where_its_instance_lacks_it(
        scheme, stated):
    # x is not free in p, so the term is in no part of the stated formula
    env = _prop_env()
    step = Step(stated, ByLogical(scheme, ("x", P, Quote("nope"))))
    assert _errors(env, Proof((), (step,))) == [
        "step 1: unbound quotation name: nope"]
    # the reader rejects the text the writer gives for the step alike
    text = emit_script(script_of(env, Proof((), (step,))))
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == (f"line 1: {scheme}: unbound quotation name "
                              "`nope` (at position 0)")


def test_a_proof_needs_steps():
    with pytest.raises(ProofCheckError) as exc:
        check_proof(liar_env(), Proof((), ()))
    assert exc.value.errors == (StepError(None, "a proof must have steps"),)


def test_a_theory_step_may_not_cite_a_logical_scheme():
    stated = logical_instance("L1", (P, Q))
    proof = Proof((), (Step(stated, ByTheory("L1", (P, Q))),))
    assert _errors(_prop_env(), proof) == ["step 1: unknown theory scheme: L1"]


@pytest.mark.parametrize("rule", [ByGenF, ByGenE], ids=["GenF", "GenE"])
@pytest.mark.parametrize("gen,renamed,message", [
    ("Q(x, y)", "Q(y, y)",
     "y occurs free in the generalized side of the premise"),
    ("exists y. Q(x, y)", "exists y. Q(y, y)",
     "renaming x to y would capture a variable"),
], ids=["free-target", "capture"])
def test_generalization_renaming_side_conditions(rule, gen, renamed, message):
    # the stated formula is the one renaming x to y by rote would give,
    # and it does not follow from the premise
    env = Environment()
    env.register_predicate("p", 0)
    env.register_predicate("Q", 2)
    p = Atom("p")
    gen, renamed = parse_formula(gen, env), parse_formula(renamed, env)
    if rule is ByGenF:
        premise, stated = Implies(p, gen), Implies(p, Forall("y", renamed))
    else:
        premise, stated = Implies(gen, p), Implies(Exists("y", renamed), p)
    proof = Proof((premise,), (Step(premise, ByHyp(0)),
                               Step(stated, rule(0, "x", "y"))))
    assert _errors(env, proof) == [f"step 2: {message}"]


_PHI = AApp(Quote("la"))


# Each proof cites a step that does not precede the citing one.  A negative
# index, read the Python way, would cite a later step whose formula fits.
@pytest.mark.parametrize("hyps,steps,enabled", [
    pytest.param(
        (_PHI, Implies(_PHI, BOT)),
        (
            Step(BOT, ByMP(1, 2)),  # premises not yet established
            Step(_PHI, ByHyp(0)),
            Step(Implies(_PHI, BOT), ByHyp(1)),
        ),
        (), id="later-steps"),
    pytest.param(
        (),
        (
            Step(Implies(BOT, BOT), ByLogical("L9", (BOT,))),
            Step(BOT, ByMP(-1, 0)),  # steps[-1] is this very step
        ),
        (), id="negative-minor"),
    pytest.param(
        (Implies(_PHI, BOT),),
        (
            Step(Implies(_PHI, Forall("x", BOT)), ByGenF(-1, "x", "x")),
            Step(Implies(_PHI, BOT), ByHyp(0)),
        ),
        (), id="negative-generalization-premise"),
    pytest.param(
        (AApp(Quote("zero_eq_one")),),
        (
            Step(BOT, ByRelease(-1)),
            Step(AApp(Quote("zero_eq_one")), ByHyp(0)),
        ),
        (ExtensionGrant("ReleaseRule", BOT),), id="negative-release-premise"),
])
def test_check_rejects_forward_reference(hyps, steps, enabled):
    env = liar_env()
    proof = Proof(hyps, steps, frozenset(enabled))
    with pytest.raises(ProofCheckError, match="does not precede"):
        check_proof(env, proof, granted={"ReleaseRule"})


@pytest.mark.parametrize("hyps,index", [
    pytest.param((), 0, id="past-the-end"),
    pytest.param((BOT,), -1, id="negative"),  # hypotheses[-1] is bot
])
def test_check_rejects_bad_hyp_index(hyps, index):
    env = liar_env()
    proof = Proof(hyps, (Step(BOT, ByHyp(index)),), frozenset())
    with pytest.raises(ProofCheckError, match="no hypothesis"):
        check_proof(env, proof)


def test_extension_gating_is_double_keyed():
    env = liar_env()
    inst = extension_instance(env, "ReleaseAxiom", ("zero_eq_one",))
    step = Step(inst, ByExtension("ReleaseAxiom", ("zero_eq_one",)))
    grant = ExtensionGrant("ReleaseAxiom", BOT)

    # header grant missing: rejected even when the caller grants the scheme
    bare = Proof((), (step,), frozenset())
    with pytest.raises(ProofCheckError):
        check_proof(env, bare, granted={"ReleaseAxiom"})

    # caller grant missing: rejected even with the header grant
    headed = Proof((), (step,), frozenset({grant}))
    with pytest.raises(ProofCheckError):
        check_proof(env, headed, granted=set())

    # both keys present: accepted, and the use is reported
    judgment = check_proof(env, headed, granted={"ReleaseAxiom"})
    assert judgment.extensions_used == (grant,)


def test_release_rule_gating():
    env = liar_env()
    a_bot = AApp(Quote("zero_eq_one"))
    steps = (
        Step(a_bot, ByHyp(0)),
        Step(BOT, ByRelease(0)),
    )
    grant = ExtensionGrant("ReleaseRule", BOT)
    with pytest.raises(ProofCheckError):
        check_proof(env, Proof((a_bot,), steps, frozenset()),
                    granted={"ReleaseRule"})
    judgment = check_proof(env, Proof((a_bot,), steps, frozenset({grant})),
                           granted={"ReleaseRule"})
    assert judgment.extensions_used == (grant,)
    # only an assertibility ascription is released, even under a grant
    m_bot = MApp(Quote("zero_eq_one"))
    m_steps = (Step(m_bot, ByHyp(0)), Step(BOT, ByRelease(0)))
    with pytest.raises(ProofCheckError, match="release premise"):
        check_proof(env, Proof((m_bot,), m_steps, frozenset({grant})),
                    granted={"ReleaseRule"})


def test_release_gives_the_body_of_an_asserted_quotation():
    env = liar_env()
    assert release(env, AApp(Quote("la"))) == env.resolve("la")
    for premise in (MApp(Quote("la")), AApp(Const("c")), BOT):
        with pytest.raises(SchemeError, match="release premise"):
            release(env, premise)


def test_partial_grant_by_formula():
    env = liar_env()
    other = ExtensionGrant("ReleaseAxiom", AApp(Quote("la")))
    inst = extension_instance(env, "ReleaseAxiom", ("zero_eq_one",))
    proof = Proof((), (Step(inst, ByExtension("ReleaseAxiom", ("zero_eq_one",))),),
                  frozenset({other}))
    # the header grants ReleaseAxiom only for a different sentence
    with pytest.raises(ProofCheckError):
        check_proof(env, proof, granted={"ReleaseAxiom"})


# -- the step checker against a build-and-compare reference


def _ill_formed(env, phi):
    try:
        env.check_formula(phi)
    except (DefinitionError, IllFormedError):
        return True
    return False


def reference_check_errors(env, proof):
    """The errors of ``check_proof`` on a proof of hypothesis, logical and
    modus ponens steps, found by building each justified formula and
    comparing it with the stated one, a logical step's parameters checked
    in the environment first.  A step may not cite an ill-formed
    hypothesis or step."""
    errors = []
    for i, h in enumerate(proof.hypotheses):
        try:
            env.check_formula(h)
        except (DefinitionError, IllFormedError) as exc:
            errors.append(StepError(None, f"hypothesis {i + 1}: {exc}"))
    for i, step in enumerate(proof.steps):
        stated, just = step.formula, step.just
        try:
            env.check_formula(stated)
            if isinstance(just, ByHyp):
                expected = proof.hypotheses[just.index]
                if _ill_formed(env, expected):
                    raise SchemeError(
                        f"hypothesis {just.index + 1} is ill formed")
            elif isinstance(just, ByLogical):
                # count, then each parameter's type and well-formedness in
                # order, and only then the instance
                try:
                    kernel._check_params(env, LOGICAL_PARAMS[just.scheme],
                                         just.params)
                except SchemeError as exc:
                    raise SchemeError(f"{just.scheme}: {exc}") from None
                expected = logical_instance(just.scheme, just.params)
            else:
                for k in (just.minor, just.major):
                    if _ill_formed(env, proof.steps[k].formula):
                        raise SchemeError(f"cited step {k + 1} is ill formed")
                minor = proof.steps[just.minor].formula
                major = proof.steps[just.major].formula
                if major != Implies(minor, stated):
                    raise SchemeError(
                        f"modus ponens mismatch: step {just.major + 1} is not "
                        f"({minor}) -> ({stated})")
                expected = stated
            if expected != stated:
                raise SchemeError(
                    f"stated formula ({stated}) differs from the justified "
                    f"formula ({expected})")
        except (SchemeError, DefinitionError, IllFormedError) as exc:
            errors.append(StepError(i, str(exc)))
    return errors


def _diff_env() -> Environment:
    env = Environment()
    env.register_predicate("R", 1)
    env.define("s", (), BOT)
    return env


# leaves well formed in _diff_env, ill formed there (R is unary, t is
# unbound), and ill-typed
_WELL_LEAVES = (P, Q, BOT, Atom("R", (Var("x"),)), MApp(Quote("s")))
_ILL_FORMED_LEAVES = (Atom("R", ()), MApp(Quote("t")))
_ILL_TYPED_LEAVES = (3, None, "p", Var("x"), Atom(["p"]), Forall(7, P))


def _formulas(leaves):
    return st.recursive(st.sampled_from(leaves), lambda sub: st.one_of(
        st.builds(Implies, sub, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Forall, st.sampled_from("xy"), sub),
        st.builds(Exists, st.sampled_from("xy"), sub)), max_leaves=6)


WELL_FORMED = _formulas(_WELL_LEAVES)
# premises are printed in messages, so they stay well-typed
PREMISES = st.one_of(WELL_FORMED,
                     _formulas(_WELL_LEAVES + _ILL_FORMED_LEAVES))
FORMULAS = st.one_of(WELL_FORMED, PREMISES, _formulas(
    _WELL_LEAVES + _ILL_FORMED_LEAVES + _ILL_TYPED_LEAVES))
# a parameter of each kind of the logical schemes, sometimes of a wrong type
PARAMS = {"f": FORMULAS,
          "v": st.sampled_from(("x", "y", 7)),
          "t": st.sampled_from((Var("x"), Var("y"), Const("c"), Quote("s"),
                                P, "x"))}


def _rebuilt(phi):
    """A formula equal to ``phi`` that shares no node with it."""
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_rebuilt(phi.left), _rebuilt(phi.right))
    if isinstance(phi, (Forall, Exists)):
        return type(phi)(phi.var, _rebuilt(phi.body))
    return copy.copy(phi)


def _each_occurrence(draw, scheme, params):
    """The instance of an L1..L9 scheme with each occurrence of a
    parameter drawn anew: the parameter, a copy of it, or another
    formula."""
    marks = tuple(Atom(f"mark{k}") for k in range(len(params)))

    def fill(phi):
        if isinstance(phi, (And, Or, Implies)):
            return type(phi)(fill(phi.left), fill(phi.right))
        if phi not in marks:
            return phi
        p = params[marks.index(phi)]
        return (p, _rebuilt(p), draw(WELL_FORMED))[draw(st.integers(0, 2))]

    return fill(logical_instance(scheme, marks))


@st.composite
def logical_step_proofs(draw):
    """One-step proofs by an L1..L11 step, its parameters mostly of the
    right count and kinds, its stated formula the instance of them, of
    copies of them, or of other parameters, the instance with each
    occurrence of a parameter drawn anew, or any formula."""
    scheme = draw(st.sampled_from(sorted(LOGICAL_PARAMS)))
    kinds = LOGICAL_PARAMS[scheme]
    count = draw(st.sampled_from((len(kinds),) * 4 + (0, 1, 2, 3, 4)))
    kinds = (kinds + ("f",) * 4)[:count]
    params = tuple(draw(PARAMS[k]) for k in kinds)
    how = draw(st.sampled_from(("same", "copies", "other", "each", "any")))
    try:
        if how == "same":
            stated = logical_instance(scheme, params)
        elif how == "copies":
            stated = logical_instance(scheme, tuple(map(_rebuilt, params)))
        elif how == "other":
            stated = logical_instance(
                scheme, tuple(draw(PARAMS[k]) for k in kinds))
        elif how == "each" and scheme not in ("L10", "L11"):
            stated = _each_occurrence(draw, scheme, params)
        else:
            stated = draw(FORMULAS)
    except (SchemeError, TypeError):  # no instance to state
        stated = draw(FORMULAS)
    return Proof((), (Step(stated, ByLogical(scheme, params)),))


def _mp_proof(minor, major, stated):
    return Proof((minor, major), (Step(minor, ByHyp(0)), Step(major, ByHyp(1)),
                                  Step(stated, ByMP(0, 1))))


@st.composite
def mp_step_proofs(draw):
    """Proofs of a modus ponens step from two hypotheses, the major premise
    the implication from the minor one to the stated formula, made of the
    same nodes or of copies, with one side drawn anew, or a formula that
    is not an implication."""
    minor, stated = draw(PREMISES), draw(PREMISES)
    how = draw(st.sampled_from(("same", "copies", "left", "right", "other")))
    if how == "same":
        major = Implies(minor, stated)
    elif how == "copies":
        major = Implies(_rebuilt(minor), _rebuilt(stated))
    elif how == "left":
        major = Implies(draw(PREMISES), stated)
    elif how == "right":
        major = Implies(minor, draw(PREMISES))
    else:
        major = draw(st.one_of(st.builds(And, st.just(minor), st.just(stated)),
                               st.builds(Or, st.just(minor), st.just(stated)),
                               PREMISES))
    return _mp_proof(minor, major, stated)


def _l1(a, b):
    return Implies(a, Implies(b, a))


@settings(max_examples=400, deadline=None)
@given(st.one_of(logical_step_proofs(), mp_step_proofs()))
# parameters equal to the stated subformulas but distinct objects
@example(Proof((), (Step(_l1(And(P, Q), Q),
                         ByLogical("L1", (And(P, Q), Atom("q")))),)))
# the two occurrences of a differ
@example(Proof((), (Step(Implies(P, Implies(Q, Q)),
                         ByLogical("L1", (P, Q))),)))
# only the right side differs: this is the L5 instance
@example(Proof((), (Step(Implies(And(P, Q), Q), ByLogical("L4", (P, Q))),)))
# the instance of other parameters
@example(Proof((), (Step(_l1(Q, P), ByLogical("L1", (P, Q))),)))
# an ill-typed node inside a parameter
@example(Proof((), (Step(_l1(P, Q), ByLogical("L1", (P, And(Q, 3)))),)))
# faults in two parameters: the first one's is reported
@example(Proof((), (Step(_l1(P, Q), ByLogical("L1", (Atom("R", ()), 3))),)))
# a wrong parameter count, and a term for a formula
@example(Proof((), (Step(_l1(P, Q), ByLogical("L1", (P,))),)))
@example(Proof((), (Step(_l1(P, Q), ByLogical("L1", (P, Var("x")))),)))
# a quantifier axiom, built as before
@example(Proof((), (Step(Implies(Forall("x", Atom("R", (Var("x"),))),
                                 Atom("R", (Const("c"),))),
                         ByLogical("L10", ("x", Atom("R", (Var("x"),)),
                                           Const("c")))),)))
# a major premise equal to the implication, and one that is none
@example(_mp_proof(P, Implies(Atom("p"), Q), Q))
@example(_mp_proof(P, And(P, Q), Q))
@example(_mp_proof(P, Implies(P, R), Q))
def test_check_proof_matches_build_and_compare(proof):
    try:
        check_proof(_diff_env(), proof)
        errors = []
    except ProofCheckError as exc:
        errors = list(exc.errors)
    assert errors == reference_check_errors(_diff_env(), proof)


def test_check_proof_reports_an_ill_typed_hypothesis():
    proof = Proof((Implies(P, 3),), (Step(P, ByHyp(0)),))
    with pytest.raises(ProofCheckError) as exc:
        check_proof(_diff_env(), proof)
    assert [str(e) for e in exc.value.errors] == [
        "proof: hypothesis 1: not a formula: 3",
        "step 1: hypothesis 1 is ill formed"]


@pytest.mark.parametrize("ill", [
    Implies(P, 3), Implies(Atom("R", (Var(3),)), P), AApp(Quote(["s"])),
    Implies(P, Atom("R", (Var(["x"]),)))],
    ids=["int-subformula", "int-variable", "list-quotation", "list-variable"])
@pytest.mark.parametrize("just", [
    ByMP(0, 1), ByMP(1, 0), ByGenF(0, "x", "y"), ByGenE(0, "x", "y"),
    ByRelease(0)], ids=["mp-minor", "mp-major", "genf", "gene", "release"])
def test_a_step_citing_an_ill_typed_step_is_rejected(ill, just):
    # step 1 states the ill-typed formula, step 2 is well formed, and step
    # 3 cites step 1, which no rule may read: printing or generalizing an
    # ill-typed formula raises TypeError
    proof = Proof((ill, Implies(P, P)),
                  (Step(ill, ByHyp(0)), Step(Implies(P, P), ByHyp(1)),
                   Step(P, just)),
                  frozenset({ExtensionGrant("ReleaseRule")}))
    with pytest.raises(ProofCheckError) as exc:
        check_proof(_diff_env(), proof)
    assert [e.index for e in exc.value.errors] == [None, 0, 2]
    assert str(exc.value.errors[2]) == "step 3: cited step 1 is ill formed"
