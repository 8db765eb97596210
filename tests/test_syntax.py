"""Formula construction, substitution, definitions, and well-formedness."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import mathkernel
from mathkernel.corpus import CorpusEntry, CorpusReport, EntryResult
from mathkernel.kernel import (
    SCHEMES,
    ByExtension,
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    ExtensionGrant,
    Judgment,
    Proof,
    Scheme,
    Step,
    StepError,
)
from mathkernel.script import Script
from mathkernel.semantics import (
    Countermodel,
    KripkeFrame,
    KripkeModel,
    SemanticsError,
)
from mathkernel.syntax import (
    _ATOMIC,
    _PREC_AND,
    _PREC_IFF,
    _PREC_IMP,
    _PREC_NEG,
    _PREC_OR,
    _Node,
    QUOTED_CACHE_SIZE,
    AApp,
    And,
    Atom,
    BOT,
    Bot,
    Const,
    Definition,
    DefinitionError,
    Domain,
    Environment,
    Exists,
    Forall,
    HApp,
    IllFormedError,
    Implies,
    MApp,
    Or,
    Quote,
    Record,
    SimApp,
    TApp,
    TotalExtension,
    Var,
    captures,
    first_occurrence_vars,
    free_vars,
    iff,
    is_neg,
    neg,
    as_iff,
    pformat,
    quoted,
    renderer,
    substitute,
)
from mathkernel.tactics import NameStore


def test_neg_is_implication_to_bot():
    phi = Atom("p")
    assert neg(phi) == Implies(phi, BOT)
    assert is_neg(neg(phi))
    assert not is_neg(Implies(phi, phi))


def test_iff_is_conjunction_of_implications():
    p, q = Atom("p"), Atom("q")
    assert iff(p, q) == And(Implies(p, q), Implies(q, p))


def test_free_vars():
    phi = Forall("x", Implies(Atom("P", (Var("x"),)), Atom("Q", (Var("y"),))))
    assert free_vars(phi) == {"y"}
    assert free_vars(Exists("y", phi)) == set()


def test_substitute_replaces_free_occurrences_only():
    phi = And(Atom("P", (Var("x"),)), Forall("x", Atom("P", (Var("x"),))))
    out = substitute(phi, "x", Const("c"))
    assert out == And(Atom("P", (Const("c"),)),
                      Forall("x", Atom("P", (Var("x"),))))


def test_substitute_renames_to_avoid_capture():
    phi = Forall("y", Atom("R", (Var("x"), Var("y"))))
    out = substitute(phi, "x", Var("y"))
    assert isinstance(out, Forall)
    assert out.var != "y"
    assert out.body == Atom("R", (Var("y"), Var(out.var)))


def test_substitute_renames_past_a_name_in_use():
    # y_1 occurs free in the body, so the binder becomes y_2
    phi = Forall("y", Atom("R", (Var("x"), Var("y_1"))))
    out = substitute(phi, "x", Var("y"))
    assert out == Forall("y_2", Atom("R", (Var("y"), Var("y_1"))))


def test_substitute_rejects_what_is_no_formula():
    with pytest.raises(TypeError) as exc:
        substitute(And(Atom("p"), 3), "x", Const("c"))
    assert str(exc.value) == "not a formula: 3"


def test_captures_detects_bound_collision():
    phi = Forall("y", Atom("R", (Var("x"), Var("y"))))
    assert captures(phi, "x", Var("y"))
    assert not captures(phi, "x", Const("c"))


def test_pformat_precedence():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert pformat(Implies(p, Implies(q, r))) == "p -> q -> r"
    assert pformat(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert pformat(And(p, Or(q, r))) == "p & (q | r)"
    assert pformat(neg(neg(p))) == "~~p"
    assert pformat(Forall("x", Implies(p, q))) == "forall x. p -> q"


def test_environment_define_and_resolve():
    env = Environment()
    d = env.define("la", (), neg(AApp(Quote("la"))))
    assert d.name == "la"
    assert env.resolve("la") == neg(AApp(Quote("la")))


def test_environment_rejects_reserved_names():
    env = Environment()
    with pytest.raises(DefinitionError):
        env.define("forall", (), BOT)
    with pytest.raises(IllFormedError):
        env.register_predicate("sim", 0)
    with pytest.raises(IllFormedError) as exc:
        env.declare_constant("forall")
    assert str(exc.value) == "reserved word used as constant: forall"
    assert env.constants == set() and env.declarations == []


def test_environment_rejects_unbound_quote():
    env = Environment()
    with pytest.raises(IllFormedError) as exc:
        env.define("a", (), MApp(Quote("missing")))
    assert str(exc.value) == "unbound quotation name: missing"


SELF_QUOTE = neg(AApp(Quote("n")))  # well formed once n is bound
UNBOUND_QUOTE_BODIES = {
    "atom-argument": Atom("P", (Const("c"), Quote("q"))),
    "M": MApp(Quote("q")),
    "A": AApp(Quote("q")),
    "T": TApp(Quote("q")),
    "H-predicate": HApp(Quote("q"), Const("c")),
    "H-argument": HApp(Quote("w"), Quote("q")),
    "sim-left": SimApp(Quote("q"), Quote("w")),
    "sim-right": SimApp(Quote("w"), Quote("q")),
    "under-forall": Forall("x", Implies(MApp(Var("x")), TApp(Quote("q")))),
    # SELF_QUOTE is checked, and remembered, before q is met
    "under-implies": Implies(SELF_QUOTE, AApp(Quote("q"))),
}


def test_fresh_name_is_the_least_unbound_name_over_gaps_and_rollbacks():
    env = Environment()
    env.define("q2", (), BOT)
    env.define("q5", (), BOT)
    given = []
    for _ in range(4):
        given.append(env.fresh_name())
        env.define(given[-1], (), BOT)
    assert given == ["q1", "q3", "q4", "q6"]
    # a rejected body binds nothing, so its name is handed out again
    assert env.fresh_name() == "q7"
    with pytest.raises(IllFormedError):
        env.define("q7", (), MApp(Quote("unbound")))
    assert env.fresh_name() == "q7"
    # and a store hands out again the name its failed define rolled back
    store = NameStore(env)
    with pytest.raises(IllFormedError):
        store.name_for(AApp(Quote("unbound")))
    assert store.name_for(MApp(Quote("q1"))) == "q7"
    # a copy or pickle goes on from where the environment stands, and
    # apart from it
    env.define("q9", (), BOT)
    for twin in (copy.deepcopy(env), pickle.loads(pickle.dumps(env))):
        assert twin.fresh_name() == "q8"
        twin.define("q8", (), BOT)
        assert twin.fresh_name() == "q10"
    assert env.fresh_name() == "q8"


@pytest.mark.parametrize("body", UNBOUND_QUOTE_BODIES.values(),
                         ids=UNBOUND_QUOTE_BODIES.keys())
def test_define_rejects_an_unbound_quotation_and_binds_nothing(body):
    env = Environment()
    env.define("w", ("x",), MApp(Var("x")))
    before = list(env.declarations)
    with pytest.raises(IllFormedError) as exc:
        env.define("n", (), body)
    assert str(exc.value) == "unbound quotation name: q"
    assert not env.is_bound("n") and env.declarations == before
    with pytest.raises(IllFormedError) as exc:
        env.check_formula(SELF_QUOTE)
    assert str(exc.value) == "unbound quotation name: n"
    d = env.define("n", (), SELF_QUOTE)
    assert env.definition("n") == d and env.declarations == [*before, d]


def test_environment_rollback_on_bad_self_reference():
    env = Environment()
    with pytest.raises((DefinitionError, IllFormedError)):
        env.define("w", ("x",), TApp(Quote("undefined_name")))
    with pytest.raises(DefinitionError):
        env.resolve("w")


def test_check_formula_rejects_bad_arity():
    env = Environment()
    env.register_predicate("P", 1)
    with pytest.raises(IllFormedError):
        env.check_formula(Atom("P"))
    env.check_formula(Atom("P", (Const("c"),)))


def test_t_requires_sentence_quotation():
    env = Environment()
    env.define("s", (), BOT)
    env.define("w", ("x",), MApp(Var("x")))
    env.check_formula(TApp(Quote("s")))
    with pytest.raises(IllFormedError):
        env.check_formula(TApp(Quote("w")))


def test_instantiate_parameterized_definition():
    env = Environment()
    env.define("w", ("x",), MApp(Var("x")))
    assert env.instantiate("w", (Const("c"),)) == MApp(Const("c"))
    with pytest.raises(DefinitionError) as exc:
        env.instantiate("w", (Const("c"), Const("d")))
    assert str(exc.value) == "w has arity 1, got 2 arguments"


# -- cached facts on formula nodes, against uncached reference walks

TERMS = st.one_of(st.builds(Var, st.sampled_from("xyz")),
                  st.builds(Const, st.sampled_from("cd")),
                  st.builds(Quote, st.sampled_from(["s", "t"])))
LEAVES = st.one_of(st.just(BOT),
                   st.builds(Atom, st.sampled_from("PQ"),
                             st.lists(TERMS, max_size=2).map(tuple)),
                   st.builds(MApp, TERMS), st.builds(AApp, TERMS),
                   st.builds(TApp, TERMS), st.builds(HApp, TERMS, TERMS),
                   st.builds(SimApp, TERMS, TERMS))


def _extend(children):
    binary = st.sampled_from([And, Or, Implies])
    quant = st.sampled_from([Forall, Exists])
    return st.one_of(
        st.builds(lambda c, a, b: c(a, b), binary, children, children),
        st.builds(lambda c, a: c(a, a), binary, children),  # a shared subtree
        st.builds(lambda c, v, a: c(v, a), quant, st.sampled_from("xyz"),
                  children))


FORMULAS = st.recursive(LEAVES, _extend, max_leaves=12)


class _Hashed:
    """Stands in a tuple for a value whose hash is already known."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def reference_hash(phi):
    """The frozen-dataclass hash, the hash of the tuple of fields, recomputed
    through the whole tree, leaves included."""
    if isinstance(phi, (And, Or, Implies)):
        return hash((_Hashed(reference_hash(phi.left)),
                     _Hashed(reference_hash(phi.right))))
    if isinstance(phi, (Forall, Exists)):
        return hash((phi.var, _Hashed(reference_hash(phi.body))))
    if isinstance(phi, Bot):
        return hash(())
    if isinstance(phi, Atom):
        return hash((phi.pred, phi.args))
    if isinstance(phi, (MApp, AApp, TApp)):
        return hash((phi.arg,))
    if isinstance(phi, HApp):
        return hash((phi.pred, phi.arg))
    if isinstance(phi, SimApp):
        return hash((phi.left, phi.right))
    raise TypeError(f"not a formula: {phi!r}")


def reference_free_vars(phi):
    if isinstance(phi, (And, Or, Implies)):
        return reference_free_vars(phi.left) | reference_free_vars(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return reference_free_vars(phi.body) - {phi.var}
    return free_vars(phi)


def reference_eq(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, (And, Or, Implies)):
        return reference_eq(a.left, b.left) and reference_eq(a.right, b.right)
    if isinstance(a, (Forall, Exists)):
        return a.var == b.var and reference_eq(a.body, b.body)
    return a == b


@settings(max_examples=200, deadline=None)
@given(FORMULAS, FORMULAS)
def test_cached_facts_match_reference_walks(phi, other):
    for f in (phi, other):
        for _ in range(2):  # the first call fills the caches
            assert hash(f) == reference_hash(f)
            assert free_vars(f) == reference_free_vars(f)
    assert (phi == other) == reference_eq(phi, other)
    twin = copy.deepcopy(phi)
    assert twin == phi and hash(twin) == hash(phi)


@settings(max_examples=100, deadline=None)
@given(FORMULAS)
def test_pickle_and_deepcopy_rebuild_nodes_without_caches(phi):
    fresh = copy.deepcopy(phi)  # built from fields: nothing cached yet
    hash(phi), free_vars(phi)
    data = pickle.dumps(phi)
    assert data == pickle.dumps(fresh)
    for slot in (b"_hash", b"_fv"):
        assert slot not in data
    assert pickle.loads(data) == phi
    assert copy.deepcopy(phi) == phi
    assert pickle.loads(pickle.dumps(And(BOT, BOT))) == And(BOT, BOT)


def test_no_formula_node_has_a_dict():
    x, s = Var("x"), Quote("s")
    for node in (BOT, Atom("P", (x,)), MApp(s), AApp(s), TApp(s),
                 HApp(s, x), SimApp(s, x), And(BOT, BOT), Or(BOT, BOT),
                 Implies(BOT, BOT), Forall("x", BOT), Exists("x", BOT)):
        hash(node), free_vars(node)  # fill every cache first
        assert not hasattr(node, "__dict__"), type(node).__name__
        # both facts are cached, by the one caching hash of every class
        assert node._hash is not None and node._fv is not None
        assert type(node).__hash__ is _Node.__hash__, type(node).__name__


def test_nodes_without_free_variables_share_one_empty_set():
    phi = Forall("x", And(MApp(Var("x")), BOT))
    assert free_vars(phi) is free_vars(BOT) is free_vars(Implies(BOT, BOT))


# -- the name index of Environment.define, against the linear scan

NAMES = ["a", "b", "c"]
BODIES = ([BOT, MApp(Var("x")), And(MApp(Var("x")), BOT)]
          + [f(Quote(n)) for n in NAMES for f in (MApp, TApp)]
          + [Implies(TApp(Quote(n)), MApp(Var("x"))) for n in NAMES])


def reference_name_of(env, params, body):
    for name, d in env.definitions.items():
        if d.body == body and d.params == params:
            return name
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NAMES),
                          st.sampled_from([(), ("x",)]),
                          st.sampled_from(BODIES)), max_size=12),
       st.sampled_from(BODIES))
def test_name_index_matches_the_linear_scan(defines, wanted):
    env = Environment()
    for name, params, body in defines:
        # conflicting, unbound, mis-scoped and ill-formed definitions
        # (T of a predicate quotation, rolled back after binding) all fail
        try:
            env.define(name, params, body)
        except (DefinitionError, IllFormedError):
            pass
        for ps in [(), ("x",)]:
            for b in BODIES:
                assert env.name_of(ps, b) == reference_name_of(env, ps, b)
    expected = reference_name_of(env, first_occurrence_vars(wanted), wanted)
    try:
        got = NameStore(env).name_for(wanted)
    except (DefinitionError, IllFormedError):
        assert expected is None
        return
    if expected is not None:
        assert got == expected
    else:
        assert got not in NAMES and env.resolve(got) == wanted


# -- the memo of Environment.check_formula, against the memo-free walk


def _quote_arity(env, t):
    return env.definitions[t.name].arity if isinstance(t, Quote) else None


def reference_check_formula(env, phi):
    """Environment.check_formula as it was before the memo: every node of
    phi walked against env's current names and predicates."""
    if isinstance(phi, (And, Or, Implies)):
        reference_check_formula(env, phi.left)
        reference_check_formula(env, phi.right)
        return
    if isinstance(phi, (Forall, Exists)):
        if type(phi.var) is not str:
            raise IllFormedError(f"not a variable: {phi.var!r}")
        reference_check_formula(env, phi.body)
        return
    if isinstance(phi, Bot):
        return
    if isinstance(phi, Atom):
        if type(phi.pred) is not str or type(phi.args) is not tuple:
            raise IllFormedError(f"not an atomic formula: {phi!r}")
        known = env.predicates.get(phi.pred)
        if known is not None and known != len(phi.args):
            raise IllFormedError(
                f"predicate {phi.pred} expects {known} arguments")
        for t in phi.args:
            env.check_term(t)
        return
    if isinstance(phi, (MApp, AApp)):
        env.check_term(phi.arg)
        return
    if isinstance(phi, TApp):
        env.check_term(phi.arg)
        a = _quote_arity(env, phi.arg)
        if a is not None and a != 0:
            raise IllFormedError(
                f"T applied to quotation of arity {a}; a sentence is required")
        return
    if isinstance(phi, HApp):
        env.check_term(phi.pred)
        env.check_term(phi.arg)
        a = _quote_arity(env, phi.pred)
        if a is not None and a != 1:
            raise IllFormedError(
                f"H requires a unary predicate quotation, got arity {a}")
        return
    if isinstance(phi, SimApp):
        for t in (phi.left, phi.right):
            env.check_term(t)
            a = _quote_arity(env, t)
            if a is not None and a != 1:
                raise IllFormedError(
                    f"sim requires unary predicate quotations, got arity {a}")
        return
    raise IllFormedError(f"not a formula: {phi!r}")


def verdict(check, phi):
    try:
        check(phi)
    except IllFormedError as exc:
        return str(exc)
    return None


def memo_leaves():
    """Fresh leaves: quotations of names that may be unbound, bound as a
    sentence, or bound as a predicate; atoms whose predicate arity may be
    registered later; and ill-typed nodes."""
    x = Var("x")
    return [BOT, Atom("P"), Atom("P", (x,)), Atom("Q", (Const("c"), x)),
            AApp(Quote("la")), TApp(Quote("la")), MApp(Quote("s")),
            TApp(Quote("w")), HApp(Quote("w"), x), SimApp(Quote("w"), x),
            Atom(["p"]), Atom("P", [x]), Implies(1, BOT), Forall(3, BOT)]


MEMO_OPS = st.lists(st.one_of(
    # a compound node over two nodes built so far: sharing by identity
    st.tuples(st.just("node"), st.sampled_from([And, Or, Implies]),
              st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("quant"), st.sampled_from([Forall, Exists]),
              st.sampled_from("xy"), st.integers(0, 99)),
    st.tuples(st.just("define"), st.sampled_from(["la", "s", "w"]),
              st.sampled_from([(), ("x",)]), st.integers(0, 99)),
    st.tuples(st.just("register"), st.sampled_from("PQ"), st.integers(0, 2)),
), max_size=30)


def run_memo_ops(env, ops):
    """Apply ops to env and to a growing pool of shared nodes; after each
    op, check_formula gives every node of the pool, in order, the
    reference's verdict and message."""
    pool = memo_leaves()
    for op in ops:
        kind = op[0]
        if kind == "node":
            pool.append(op[1](pool[op[2] % len(pool)], pool[op[3] % len(pool)]))
        elif kind == "quant":
            pool.append(op[1](op[2], pool[op[3] % len(pool)]))
        elif kind == "define":
            try:
                env.define(op[1], op[2], pool[op[3] % len(pool)])
            except (DefinitionError, IllFormedError, TypeError):
                pass  # TypeError: the free variables of an ill-typed body
        else:
            try:
                env.register_predicate(op[1], op[2])
            except IllFormedError:
                pass
        for phi in pool:
            assert verdict(env.check_formula, phi) == verdict(
                lambda f: reference_check_formula(env, f), phi)
    return pool


@settings(max_examples=300, deadline=None)
@given(MEMO_OPS)
# Implies(A(`la`), bot) passes while la is provisionally bound, then
# T(`w`) fails and la is unbound again
@example([("node", Implies, 4, 0), ("node", Or, 14, 7),
          ("define", "la", (), 15)])
# P(x) passes while P is unknown; then P gets arity 2
@example([("node", And, 2, 0), ("register", "P", 2)])
def test_check_formula_memo_matches_the_memo_free_walk(ops):
    env = Environment()
    env.define("w", ("x",), MApp(Var("x")))  # T(`w`) is ill formed
    pool = run_memo_ops(env, ops)
    for twin in (copy.deepcopy(env), pickle.loads(pickle.dumps(env))):
        for phi in pool:
            assert verdict(twin.check_formula, phi) == verdict(
                env.check_formula, phi)


def test_a_copied_environment_starts_with_an_empty_memo():
    env = Environment()
    env.define("s", (), BOT)
    env.check_formula(And(MApp(Quote("s")), BOT))
    for twin in (copy.copy(env), copy.deepcopy(env),
                 pickle.loads(pickle.dumps(env))):
        assert twin._checked == {}
        assert twin.definitions == env.definitions


def test_a_copied_environment_owns_its_tables():
    # a predicate registered through a copy is not in the original, which
    # still accepts what a fresh environment accepts, as a deep copy does
    env = Environment()
    env.define("s", (), BOT)
    phi = And(Atom("P", (Var("x"),)), BOT)
    env.check_formula(phi)
    twin = copy.copy(env)
    twin.register_predicate("P", 2)
    assert env.predicates == {} and twin.predicates == {"P": 2}
    env.check_formula(phi)
    deep = copy.deepcopy(env)
    deep.register_predicate("P", 2)
    for other in (twin, deep):
        with pytest.raises(IllFormedError):
            other.check_formula(phi)
    # every table is the copy's own, with the original's entries
    twin = copy.copy(env)
    for name, table in vars(env).items():
        if isinstance(table, (dict, set, list)):
            assert getattr(twin, name) is not table
            assert getattr(twin, name) == ({} if name == "_checked" else table)
    twin.define("t", (), BOT)
    twin.declare_constant("c")
    assert not env.is_bound("t") and "c" not in env.constants
    assert env.declarations == [env.definitions["s"]]


# -- the memoizing renderer, against the recursive printer it replaced


def reference_pformat(phi):
    return _reference_fmt(phi, 0)


def _reference_fmt(phi, prec):
    if isinstance(phi, _ATOMIC):
        return str(phi)
    if isinstance(phi, (Forall, Exists)):
        kw = "forall" if isinstance(phi, Forall) else "exists"
        s = f"{kw} {phi.var}. {_reference_fmt(phi.body, 0)}"
        return f"({s})" if prec > 0 else s
    two = as_iff(phi)
    if two is not None:
        s = (f"{_reference_fmt(two[0], _PREC_IMP)} <-> "
             f"{_reference_fmt(two[1], _PREC_IMP)}")
        return f"({s})" if prec > _PREC_IFF else s
    if is_neg(phi):
        return f"~{_reference_fmt(phi.left, _PREC_NEG)}"
    if isinstance(phi, Implies):
        s = (f"{_reference_fmt(phi.left, _PREC_IMP + 1)} -> "
             f"{_reference_fmt(phi.right, _PREC_IMP)}")
        return f"({s})" if prec > _PREC_IMP else s
    if isinstance(phi, Or):
        s = (f"{_reference_fmt(phi.left, _PREC_OR)} | "
             f"{_reference_fmt(phi.right, _PREC_OR + 1)}")
        return f"({s})" if prec > _PREC_OR else s
    if isinstance(phi, And):
        s = (f"{_reference_fmt(phi.left, _PREC_AND)} & "
             f"{_reference_fmt(phi.right, _PREC_AND + 1)}")
        return f"({s})" if prec > _PREC_AND else s
    raise TypeError(f"not a formula: {phi!r}")


# each builds a node over nodes already in the pool, so one object comes to
# sit at several precedences: left and right of ->, under ~, as an & or |
# operand, on both sides of <->, under a quantifier
_SHAPES = {
    "->": lambda a, b: Implies(a, b),
    "~": lambda a, b: neg(a),
    "&": lambda a, b: And(a, b),
    "|": lambda a, b: Or(a, b),
    "<->": lambda a, b: iff(a, b),
    "forall": lambda a, b: Forall("x", a),
    "exists": lambda a, b: Exists("y", a),
}


@st.composite
def shared_pools(draw):
    """Formulas, each after the nodes it is built from."""
    pool = draw(st.lists(LEAVES, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 14))):
        shape = draw(st.sampled_from(sorted(_SHAPES)))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        pool.append(_SHAPES[shape](a, b))
    return pool


def _every_context(a, b):
    """``a`` and the formulas that hold it at each precedence, the last
    one holding all of them."""
    around = [Implies(a, b), Implies(b, a), neg(a), And(a, b), And(b, a),
              Or(a, b), Or(b, a), iff(a, a), iff(a, b), Forall("x", a)]
    return [a, b, *around, reduce(Implies, around)]


@settings(max_examples=300, deadline=None)
@given(shared_pools())
@example(_every_context(Implies(Atom("p"), Atom("q")), Atom("r")))
@example(_every_context(Or(BOT, Atom("p")), And(Atom("q"), Atom("r"))))
@example(_every_context(Forall("x", Atom("p")), neg(Atom("q"))))
@example(_every_context(iff(Atom("p"), Atom("q")), BOT))
@example(_every_context(MApp(Quote("s")), neg(neg(Atom("p")))))
def test_renderer_matches_the_reference_printer(pool):
    for phi in pool:
        assert pformat(phi) == reference_pformat(phi)
    # one memo across formulas: parts first, then the whole first
    for order in (pool, pool[::-1]):
        render = renderer()
        for phi in order:
            assert render(phi) == reference_pformat(phi)


def test_renderer_rejects_what_is_no_formula():
    with pytest.raises(TypeError):
        renderer()(Implies(Atom("p"), "q"))


# -- one object per quotation leaf


def test_equal_quotation_leaves_are_one_object():
    assert quoted("M", "s") is quoted("M", "s")
    assert quoted("M", "s") == MApp(Quote("s"))
    leaves = [quoted(a, "s") for a in "MAT"]
    assert [type(leaf) for leaf in leaves] == [MApp, AApp, TApp]
    assert len({id(leaf) for leaf in leaves}) == 3
    assert quoted("A", "s") == AApp(Quote("s"))
    assert quoted("T", "s") == TApp(Quote("s"))
    assert quoted("M", "t") is not quoted("M", "s")


def test_the_leaf_cache_stays_bounded():
    for i in range(QUOTED_CACHE_SIZE + 100):
        quoted("A", f"n{i}")
    assert quoted.cache_info().currsize == QUOTED_CACHE_SIZE
    assert quoted("A", "n0") == AApp(Quote("n0"))  # evicted, built again


# -- the order of declarations


def test_an_environment_records_each_declaration_once_in_order():
    env = Environment()
    env.declare_constant("c")
    env.declare_domain("Sent", ("s1", "c"), definite=True)
    env.declare_domain("Sent", ("s1", "c"), definite=True)  # the same again
    env.declare_constant("s1")  # listed by Sent already
    env.declare_constant("c")
    body = env.define("s", (), BOT)
    env.define("s", (), BOT)
    with pytest.raises(IllFormedError) as exc:
        env.define("u", (), MApp(Quote("missing")))
    assert str(exc.value) == "unbound quotation name: missing"
    env.declare_constant("d")
    assert env.declarations == ["c", env.domains["Sent"], body, "d"]


# -- the record rule: one row per value class, with its text


def record_classes():
    """Every record class the package defines."""
    found = []
    for info in pkgutil.iter_modules(mathkernel.__path__):
        module = importlib.import_module(f"mathkernel.{info.name}")
        found += [cls for cls in vars(module).values()
                  if inspect.isclass(cls) and issubclass(cls, Record)
                  and "__match_args__" in vars(cls)
                  and cls.__module__ == module.__name__]
    return found


_P, _Q, _S, _PX = Atom("p"), Atom("q"), Quote("s"), Atom("P", (Var("x"),))
_PX_TEXT = "Atom(pred='P', args=(Var(name='x'),))"
_PQ_TEXT = "left=Atom(pred='p', args=()), right=Atom(pred='q', args=())"
# a registry row holds functions, whose text is an address; this one holds
# plain values
_L1 = Scheme("logical", ("f", "f"), None, None, Implies("a", Implies("b", "a")))
_L1_TEXT = ("Scheme(kind='logical', params=('f', 'f'), instance=None, "
            "match=None, pattern=Implies(left='a', right=Implies(left='b', "
            "right='a')))")
_ATOM = SCHEMES["AtoM"].pattern
_ATOM_TEXT = ("_NamePattern(conclusion=Implies(left=AApp(arg=Quote(name='q')), "
              "right=MApp(arg=Quote(name='q'))), params={'q': 'a'}, message='', "
              "sentences='')")
_ENTRY = CorpusEntry("a.pf", "one entry", ("p",), "bot",
                     (("ReleaseAxiom", None),))
_ENTRY_TEXT = ("CorpusEntry(script='a.pf', description='one entry', "
               "hypotheses=('p',), conclusion='bot', "
               "extensions=(('ReleaseAxiom', None),))")
_RESULT = EntryResult(_ENTRY, True, "⊦ bot", 0.5)
_RESULT_TEXT = (f"EntryResult(entry={_ENTRY_TEXT}, passed=True, "
                "detail='⊦ bot', seconds=0.5)")
_FRAME = KripkeFrame(2, frozenset({(0, 0), (0, 1), (1, 1)}))
_FRAME_TEXT = "KripkeFrame(size=2, order=frozenset({(0, 1), (1, 1), (0, 0)}))"
_MODEL = KripkeModel(_FRAME, {"p": frozenset({1})})
_MODEL_TEXT = (f"KripkeModel(frame={_FRAME_TEXT}, "
               "valuation={'p': frozenset({1})})")
_STEP_TEXT = "Step(formula=Bot(), just=ByHyp(index=0))"

# each record with the text it printed as a dataclass
RECORDS = [
    (Var("x"), "Var(name='x')"),
    (Const("c"), "Const(name='c')"),
    (_S, "Quote(name='s')"),
    (BOT, "Bot()"),
    (_PX, _PX_TEXT),
    (MApp(_S), "MApp(arg=Quote(name='s'))"),
    (AApp(_S), "AApp(arg=Quote(name='s'))"),
    (TApp(_S), "TApp(arg=Quote(name='s'))"),
    (HApp(_S, Var("x")), "HApp(pred=Quote(name='s'), arg=Var(name='x'))"),
    (SimApp(_S, _S), "SimApp(left=Quote(name='s'), right=Quote(name='s'))"),
    (And(_P, _Q), f"And({_PQ_TEXT})"),
    (Or(_P, _Q), f"Or({_PQ_TEXT})"),
    (Implies(_P, _Q), f"Implies({_PQ_TEXT})"),
    (Forall("x", _PX), f"Forall(var='x', body={_PX_TEXT})"),
    (Exists("x", _PX), f"Exists(var='x', body={_PX_TEXT})"),
    (Definition("s", ("x",), _PX),
     f"Definition(name='s', params=('x',), body={_PX_TEXT})"),
    (Domain("D", ("a", "b"), True),
     "Domain(predicate='D', constants=('a', 'b'), definite=True)"),
    (TotalExtension("P", "D", "P_ext"),
     "TotalExtension(base='P', domain='D', extended='P_ext')"),
    (_L1, _L1_TEXT),
    (_ATOM, _ATOM_TEXT),
    (ByHyp(0), "ByHyp(index=0)"),
    (ByLogical("L1", (BOT, BOT)), "ByLogical(scheme='L1', params=(Bot(), Bot()))"),
    (ByTheory("MBot", ()), "ByTheory(scheme='MBot', params=())"),
    (ByMP(0, 1), "ByMP(minor=0, major=1)"),
    (ByGenF(0, "x", "y"), "ByGenF(premise=0, var='x', to_var='y')"),
    (ByGenE(0, "x", "y"), "ByGenE(premise=0, var='x', to_var='y')"),
    (ByExtension("ReleaseAxiom", (BOT,)),
     "ByExtension(scheme='ReleaseAxiom', params=(Bot(),))"),
    (ByRelease(0), "ByRelease(premise=0)"),
    (Step(BOT, ByHyp(0)), _STEP_TEXT),
    (ExtensionGrant("ReleaseRule"),
     "ExtensionGrant(scheme='ReleaseRule', formula=None)"),
    (Proof((BOT,), (Step(BOT, ByHyp(0)),)),
     f"Proof(hypotheses=(Bot(),), steps=({_STEP_TEXT},), enabled=frozenset())"),
    (Judgment((), BOT, (ExtensionGrant("ReleaseAxiom", BOT),)),
     "Judgment(hypotheses=(), conclusion=Bot(), extensions_used="
     "(ExtensionGrant(scheme='ReleaseAxiom', formula=Bot()),))"),
    (StepError(None, "no steps"), "StepError(index=None, message='no steps')"),
    (_ENTRY, _ENTRY_TEXT),
    (_RESULT, _RESULT_TEXT),
    (CorpusReport((_RESULT,), 0.5),
     f"CorpusReport(results=({_RESULT_TEXT},), seconds=0.5)"),
    (_FRAME, _FRAME_TEXT),
    (_MODEL, _MODEL_TEXT),
    (Countermodel(_MODEL, 0, {"p1": _P}),
     f"Countermodel(model={_MODEL_TEXT}, world=0, "
     "subformulas={'p1': Atom(pred='p', args=())})"),
    # an environment compares by identity, so that a rebuilt script would
    # not equal this one; the record rule does not look at a field's type
    (Script(None, [], [BOT], [Step(BOT, ByHyp(0))]),
     f"Script(env=None, enables=[], hypotheses=[Bot()], "
     f"steps=[{_STEP_TEXT}])"),
]


def test_the_record_table_has_one_row_per_record_class():
    rows = [type(rec) for rec, _ in RECORDS]
    assert len(rows) == len(set(rows))
    assert set(rows) == set(record_classes())


@pytest.mark.parametrize("rec,text", RECORDS,
                         ids=[type(rec).__name__ for rec, _ in RECORDS])
def test_a_record_is_a_frozen_value_of_its_fields(rec, text):
    cls = type(rec)
    fields = {name: getattr(rec, name) for name in cls.__match_args__}
    assert repr(rec) == text
    assert not hasattr(rec, "__dict__")
    hashable = all(type(v).__hash__ is not None for v in fields.values())
    for twin in (cls(*fields.values()), cls(**fields), copy.copy(rec),
                 copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec and not twin != rec
        assert repr(twin) == text
        if hashable:
            assert hash(twin) == hash(rec) == hash(tuple(fields.values()))
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert {name: getattr(rec, name) for name in fields} == fields


def test_records_of_two_classes_differ_on_the_same_fields():
    assert ByHyp(0) != ByRelease(0)
    assert ByGenF(0, "x", "y") != ByGenE(0, "x", "y")
    assert And(_P, _Q) != Or(_P, _Q) != Implies(_P, _Q)
    assert Var("x") != Const("x") != Quote("x")
    assert MApp(_S) != AApp(_S) != TApp(_S)


def test_a_record_takes_its_fields_by_position_or_keyword_with_defaults():
    assert Atom("p").args == () and Atom(pred="p") == Atom("p", ())
    assert ExtensionGrant("X").formula is None
    assert Proof((BOT,), ()).enabled == frozenset()
    assert ByMP(major=1, minor=0) == ByMP(0, 1)
    for bad in (lambda: Atom(), lambda: Var("x", "y"), lambda: ByHyp(i=0)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(SemanticsError, match="not transitive"):
        KripkeFrame(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))
