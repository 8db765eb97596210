"""Finite ordered-model evaluation, the G4ip decision procedure, and
exhaustive countermodel search."""

import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mathkernel.kernel import logical_instance
from mathkernel.parser import parse_formula
from mathkernel.semantics import (
    Countermodel,
    KripkeFrame,
    KripkeModel,
    SemanticsError,
    _force,
    abstract_propositional,
    chain_frame,
    check_monotonicity,
    enumerate_frames,
    eval_at,
    find_countermodel,
    holds_in_all_models,
    provable,
)
from mathkernel.syntax import (
    AApp,
    And,
    Atom,
    BOT,
    Environment,
    Implies,
    Or,
    Quote,
    neg,
    pformat,
)


def prop_env():
    env = Environment()
    for name in ("p", "q", "r"):
        env.register_predicate(name, 0)
    return env


ENV = prop_env()


def f(text):
    return parse_formula(text, ENV)


# -- frames


def test_frame_validation():
    with pytest.raises(SemanticsError):
        KripkeFrame(2, frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))  # not antisym
    with pytest.raises(SemanticsError):
        KripkeFrame(2, frozenset({(0, 0)}))  # not reflexive


def test_chain_frame():
    frame = chain_frame(3)
    assert set(frame.above(0)) == {0, 1, 2}
    assert set(frame.above(2)) == {2}


def test_enumerate_frames_matches_poset_counts():
    # numbers of partial orders on 1..4 unlabeled points
    assert [len(enumerate_frames(n)) for n in (1, 2, 3, 4)] == [1, 2, 5, 16]


def test_upsets_are_upward_closed():
    for frame in enumerate_frames(3):
        for up in frame.upsets():
            assert frame.is_upward_closed(up)


# -- evaluation


def test_eval_basic():
    frame = chain_frame(2)
    model = KripkeModel(frame, {"p": frozenset({1})})
    p = f("p")
    assert not eval_at(model, 0, p)
    assert eval_at(model, 1, p)
    assert not eval_at(model, 0, neg(p))       # p becomes true later
    assert eval_at(model, 0, neg(neg(p)))
    assert not eval_at(model, 0, f("p | ~p"))


def test_eval_rejects_non_monotone_model():
    frame = chain_frame(2)
    model = KripkeModel(frame, {"p": frozenset({0})})
    assert not check_monotonicity(model)
    with pytest.raises(SemanticsError):
        eval_at(model, 0, f("p"))


def test_eval_rejects_non_propositional():
    frame = chain_frame(1)
    model = KripkeModel(frame, {})
    env = Environment()
    env.define("s", (), BOT)
    with pytest.raises(SemanticsError):
        eval_at(model, 0, AApp(Quote("s")))


def test_forcing_is_persistent():
    rng = random.Random(5)
    formulas = [f(t) for t in
                ("p", "~p", "p -> q", "p & (q | r)", "(p -> q) -> r",
                 "~~p", "p | ~q", "bot -> p")]
    for frame in enumerate_frames(3):
        ups = frame.upsets()
        for _ in range(10):
            model = KripkeModel(frame, {a: rng.choice(ups)
                                        for a in ("p", "q", "r")})
            for phi in formulas:
                for w in frame.worlds:
                    if eval_at(model, w, phi):
                        assert all(eval_at(model, v, phi)
                                   for v in frame.above(w))


# -- countermodel search


def test_classical_principles_refuted_within_two_worlds():
    for text in ("p | ~p", "~~p -> p", "((p -> q) -> p) -> p"):
        cm = find_countermodel(f(text), max_worlds=2)
        assert cm is not None, text
        assert cm.model.frame.size <= 2
        assert not eval_at(cm.model, cm.world, f(text))


def test_intuitionistic_theorems_have_no_countermodel():
    for text in ("p -> p", "p -> ~~p", "~~(p | ~p)",
                 "(p -> q) -> (q -> r) -> p -> r",
                 "(p & q -> r) -> p -> q -> r"):
        assert find_countermodel(f(text), max_worlds=4) is None, text
        assert holds_in_all_models(f(text), max_worlds=4), text


def test_search_and_sweep_agree_on_random_formulas():
    rng = random.Random(11)
    atoms = [f("p"), f("q"), BOT]

    def rand(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        shape = rng.choice((And, Or, Implies))
        return shape(rand(depth - 1), rand(depth - 1))

    for _ in range(40):
        phi = rand(3)
        assert (find_countermodel(phi, max_worlds=3) is None) \
            == holds_in_all_models(phi, max_worlds=3), pformat(phi)


def test_bound_four_search_is_fast():
    start = time.perf_counter()
    assert find_countermodel(f("(p -> q) -> (q -> r) -> p -> r"),
                             max_worlds=4) is None
    assert time.perf_counter() - start < 2.0


def test_countermodel_describe_mentions_abstracted_subformulas():
    env = Environment()
    env.define("s", (), BOT)
    phi = Or(AApp(Quote("s")), neg(AApp(Quote("s"))))
    cm = find_countermodel(phi)
    assert cm is not None
    assert "A(`s`)" in cm.describe()


def reference_countermodel(phi, max_worlds):
    """The exhaustive search as it was before the decider and the tables:
    a fresh model per valuation, every world re-forced with ``_force``."""
    skeleton, names = abstract_propositional(phi)
    atoms = sorted(atom_names(skeleton))
    for size in range(1, max_worlds + 1):
        for frame in enumerate_frames(size):
            ups = frame.upsets()
            for combo in itertools.product(ups, repeat=len(atoms)):
                model = KripkeModel(frame, dict(zip(atoms, combo)))
                for w in frame.worlds:
                    if not _force(model, w, skeleton):
                        return Countermodel(model, w, names)
    return None


def atom_names(phi):
    if isinstance(phi, Atom):
        return {phi.pred}
    if isinstance(phi, (And, Or, Implies)):
        return atom_names(phi.left) | atom_names(phi.right)
    return set()


def random_formulas(seed, count):
    """``count`` seeded formulas over p, q, r and bot, depth <= 4, each with
    a world bound of 1 to 3."""
    rng = random.Random(seed)
    leaves = [f("p"), f("q"), f("r"), BOT]

    def rand(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        shape = rng.choice((And, Or, Implies))
        return shape(rand(depth - 1), rand(depth - 1))

    return [(rand(4), rng.randint(1, 3)) for _ in range(count)]


def test_search_matches_reference_on_random_formulas():
    for phi, bound in random_formulas(20241018, 400):
        reference = reference_countermodel(phi, bound)
        assert find_countermodel(phi, max_worlds=bound) \
            == reference, (pformat(phi), bound)
        # the reference searches every frame, the sweep only rooted ones
        assert holds_in_all_models(phi, max_worlds=bound) \
            == (reference is None), (pformat(phi), bound)


def test_decider_agrees_with_models_on_random_formulas():
    decided = {True: 0, False: 0}
    for phi, bound in random_formulas(7, 400):
        proved = provable(phi)
        decided[proved] += 1
        if proved:
            assert holds_in_all_models(phi, max_worlds=3), pformat(phi)
        if find_countermodel(phi, max_worlds=bound) is not None:
            assert not proved, pformat(phi)
    assert min(decided.values()) >= 50  # both answers are exercised


def test_classical_principles_are_unprovable():
    for text in ("p | ~p", "~~p -> p", "((p -> q) -> p) -> p"):
        assert not provable(f(text)), text
    for text in ("~~(p | ~p)", "~~~p -> ~p", "((p -> q) -> p) -> ~~p"):
        assert provable(f(text)), text


def scheme_instances(max_atoms=8):
    """Instances of L1-L9 and implication chains over 1 to ``max_atoms``
    atoms; a scheme's parameters split the atoms between them, each joined
    by &, | or -> in turn."""
    names = [f"a{i}" for i in range(1, max_atoms + 1)]
    joins = (And, Or, Implies)
    for k in range(1, max_atoms + 1):
        atoms = [Atom(n) for n in names[:k]]
        for scheme, arity in (("L1", 2), ("L2", 3), ("L3", 2), ("L4", 2),
                              ("L5", 2), ("L6", 2), ("L7", 2), ("L8", 3),
                              ("L9", 1)):
            groups = [atoms[i::arity] or [atoms[i % k]]
                      for i in range(arity)]
            yield logical_instance(scheme, [
                functools.reduce(joins[(k + i) % 3], group)
                for i, group in enumerate(groups)])
        if k >= 2:  # a1 -> (a1 -> a2) -> ... -> (a(k-1) -> ak) -> ak
            chain = atoms[-1]
            for x, y in reversed(list(zip(atoms, atoms[1:]))):
                chain = Implies(Implies(x, y), chain)
            yield Implies(atoms[0], chain)


def test_scheme_instances_and_chains_decide_within_a_second():
    count = 0
    for phi in scheme_instances():
        start = time.perf_counter()
        assert provable(phi), pformat(phi)
        assert find_countermodel(phi) is None, pformat(phi)
        assert time.perf_counter() - start < 1.0, pformat(phi)
        count += 1
    assert count == 9 * 8 + 7


def test_deep_formulas_decide_without_recursion():
    p = f("p")
    negations = p
    for _ in range(2000):
        negations = neg(negations)
    assert not provable(negations)
    cm = find_countermodel(negations, max_worlds=1)
    assert cm is not None and cm.model.valuation == {"p": frozenset()}
    implications = p
    for _ in range(2000):
        implications = Implies(p, implications)
    assert provable(implications)
    assert find_countermodel(implications) is None


# -- abstraction


def test_abstract_propositional_is_uniform():
    env = Environment()
    env.define("s", (), BOT)
    a = AApp(Quote("s"))
    skeleton, names = abstract_propositional(Implies(a, And(a, f("p"))))
    assert len(names) == 1  # the two occurrences share one atom
    (atom_name,) = names
    assert names[atom_name] == a
    assert isinstance(skeleton, Implies)
    assert skeleton.left == Atom(atom_name)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_random_formula_abstraction_roundtrip_validity(seed):
    # validity of the abstraction is necessary for validity of the original
    rng = random.Random(seed)
    env = Environment()
    env.define("s", (), BOT)
    leaves = [AApp(Quote("s")), f("p"), BOT]

    def rand(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)
        shape = rng.choice((And, Or, Implies))
        return shape(rand(depth - 1), rand(depth - 1))

    phi = rand(3)
    skeleton, _ = abstract_propositional(phi)
    assert holds_in_all_models(phi, max_worlds=2) \
        == holds_in_all_models(skeleton, max_worlds=2)
