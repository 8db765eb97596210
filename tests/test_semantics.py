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
    SearchBoundError,
    SemanticsError,
    _ATOM,
    _AND,
    _KINDS,
    _Compiled,
    _Nodes,
    _compile,
    _decide,
    _first_refutation,
    _force,
    abstract_propositional,
    chain_frame,
    check_monotonicity,
    enumerate_frames,
    eval_at,
    find_countermodel,
    holds_in_all_models,
    provable,
    validity,
)
from mathkernel.syntax import (
    AApp,
    And,
    Atom,
    BOT,
    Bot,
    Environment,
    Forall,
    HApp,
    Implies,
    MApp,
    Or,
    Quote,
    TApp,
    Var,
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


def test_frame_validation_names_the_fault():
    with pytest.raises(SemanticsError) as exc:
        KripkeFrame(2, frozenset({(0, 0), (1, 1), (0, 2)}))
    assert str(exc.value) == "order mentions unknown world (0, 2)"
    with pytest.raises(SemanticsError) as exc:
        KripkeFrame(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))
    assert str(exc.value) == "order is not transitive: 0 <= 1 <= 2"


def test_chain_frame():
    frame = chain_frame(3)
    assert set(frame.above(0)) == {0, 1, 2}
    assert set(frame.above(2)) == {2}


def test_enumerate_frames_matches_poset_counts():
    # numbers of partial orders on 1..5 unlabeled points (OEIS A000112)
    assert [len(enumerate_frames(n)) for n in (1, 2, 3, 4, 5)] \
        == [1, 2, 5, 16, 63]
    assert enumerate_frames(0) == ()


def reference_frames(size):
    """Every labelled strict order on ``size`` worlds, each pair of worlds
    unordered or ordered either way, kept when its least sorted strict-pair
    list over all relabellings is new; that list is the frame's order."""
    pairs = list(itertools.combinations(range(size), 2))
    perms = list(itertools.permutations(range(size)))
    seen, frames = set(), []
    for choice in itertools.product((None, 0, 1), repeat=len(pairs)):
        strict = {pair[::-1] if c else pair
                  for pair, c in zip(pairs, choice) if c is not None}
        if not all((u, t) in strict for u, v in strict
                   for v2, t in strict if v2 == v and u != t):
            continue
        name = min(tuple(sorted((p[u], p[v]) for u, v in strict))
                   for p in perms)
        if name not in seen:
            seen.add(name)
            frames.append(KripkeFrame(size, frozenset(name) | frozenset(
                (w, w) for w in range(size))))
    return frames


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_enumerate_frames_matches_every_labelled_order(size):
    # the naturally labelled orders meet every class the labelled ones do,
    # and up to 3 worlds in the same order
    frames = enumerate_frames(size)
    reference = reference_frames(size)
    assert set(frames) == set(reference)
    assert len(frames) == len(reference)
    if size <= 3:
        assert list(frames) == reference


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


# the width formula over three atoms: refuted on four worlds, none fewer
WIDTH_3 = "(p -> q | r) | (q -> p | r) | (r -> p | q)"


def test_search_past_the_step_bound_is_a_semantics_error(monkeypatch):
    monkeypatch.setattr("mathkernel.semantics._MAX_STEPS", 100)
    with pytest.raises(SemanticsError, match="within 100 evaluation steps"):
        find_countermodel(f(WIDTH_3))


def test_the_step_bound_error_carries_the_g4ip_verdict(monkeypatch):
    monkeypatch.setattr("mathkernel.semantics._MAX_STEPS", 100)
    quantified = WIDTH_3.replace("r", "(forall x. P(x))")
    for text, verdict in ((WIDTH_3, False), (quantified, None)):
        with pytest.raises(SearchBoundError) as exc:
            validity(f(text))
        assert (exc.value.steps, exc.value.valid) == (100, verdict)
    # the model-only check decides nothing before its search
    with pytest.raises(SearchBoundError) as exc:
        holds_in_all_models(f(WIDTH_3))
    assert exc.value.valid is None


def test_step_bound_stops_at_the_last_valuation_it_allows(monkeypatch):
    # a bound of exactly the steps the sweep takes up to the refuting
    # valuation finds the unbounded search's countermodel; one step less
    # finds none
    phi = f(WIDTH_3)
    found = find_countermodel(phi)
    assert found is not None and found.model.frame.size == 4
    steps = len(_compile(phi).steps)
    assert steps == 8  # n*n - 1 compound nodes
    # valuations tried: every one of the earlier frames, then the refuting
    # one's place in product order over the upsets, first atom first
    frames = [fr for size in range(1, 5) for fr in enumerate_frames(size)]
    k = frames.index(found.model.frame)
    atoms = sorted(found.model.valuation)
    ups = found.model.frame.upsets()
    place = 0
    for a in atoms:
        place = place * len(ups) + ups.index(found.model.valuation[a])
    tried = place + 1 + sum(len(fr.upsets()) ** len(atoms)
                            for fr in frames[:k])
    monkeypatch.setattr("mathkernel.semantics._MAX_STEPS", tried * steps)
    assert find_countermodel(phi) == found
    monkeypatch.setattr("mathkernel.semantics._MAX_STEPS", tried * steps - 1)
    with pytest.raises(SemanticsError):
        find_countermodel(phi)


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


@pytest.mark.parametrize("text,valid", [
    ("p -> p", True), ("(forall x. P(x)) -> (forall x. P(x))", True),
    ("p | ~p", False), ("P(x) -> P(y)", False), ("M(`s`) -> A(`s`)", False),
    ("forall x. (P(x) -> P(x))", None), ("(forall x. P(x)) -> P(a)", None),
    ("(exists x. P(x)) | ~(exists x. P(x))", None)])
def test_validity_claims_only_what_the_skeleton_decides(text, valid):
    env = Environment()
    env.define("s", (), BOT)
    phi = parse_formula(text, env)
    got, cm = validity(phi)
    assert got is valid
    assert cm == find_countermodel(phi)
    assert (cm is None) == (valid is True)


# -- abstraction


class _TooDeep(Atom):
    """An atom whose hash raises RecursionError, as hashing a formula built
    through the API deeper than Python's recursion limit does.  A real one
    would also unset a running trace function (such as the one
    ``tools/line_trace.py`` installs), which then records nothing until
    the plugin restarts it after the test."""

    def __hash__(self):
        raise RecursionError


def test_a_subformula_too_deep_to_hash_is_a_semantics_error():
    # a non-propositional subformula is abstracted as a whole, which hashes it
    for phi in (_TooDeep("P", (Var("x"),)),
                Implies(f("p"), Forall("x", _TooDeep("P", (Var("x"),))))):
        with pytest.raises(SemanticsError) as exc:
            abstract_propositional(phi)
        assert str(exc.value) == "formula nested too deeply to abstract"


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


def reference_propositional_atoms(phi):
    """The names of the 0-ary atoms outside every non-propositional
    subformula of phi, found by a walk of their own."""
    atoms = set()
    seen = set()
    stack = [phi]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            if isinstance(g, (And, Or, Implies)):
                stack += (g.left, g.right)
            elif isinstance(g, Atom) and not g.args:
                atoms.add(g.pred)
    return atoms


def reference_abstract_propositional(phi):
    """The first of the two walks ``_compile`` replaced: the skeleton as a
    formula, each subformula of phi (by identity) mapped to a new image."""
    table = {}
    names = {}
    out = {}  # id of a subformula of phi -> its image
    taken = None  # phi's own atoms, found when needed
    counter = 0
    stack = [phi]
    while stack:
        g = stack[-1]
        if id(g) in out:
            stack.pop()
            continue
        if isinstance(g, (And, Or, Implies)):
            missing = [h for h in (g.right, g.left) if id(h) not in out]
            if missing:
                stack += missing  # the left child ends on top: done first
                continue
            out[id(g)] = type(g)(out[id(g.left)], out[id(g.right)])
        elif isinstance(g, Bot) or (isinstance(g, Atom) and not g.args):
            out[id(g)] = g
        else:
            name = table.get(g)
            if name is None:
                if taken is None:
                    taken = reference_propositional_atoms(phi)
                counter += 1
                while f"p{counter}" in taken:
                    counter += 1
                name = table[g] = f"p{counter}"
                names[name] = g
            out[id(g)] = Atom(name)
        stack.pop()
    return out[id(phi)], names


def reference_compile(skeleton, names):
    """The second walk: intern the skeleton, by the identity of its
    subformulas, into a node table."""
    nodes = _Nodes()
    done = {}  # id of a subformula -> its node
    stack = [skeleton]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        if isinstance(g, Bot):
            done[id(g)] = nodes.bot
        elif isinstance(g, Atom):
            done[id(g)] = nodes.make(_ATOM, g.pred)
        else:
            missing = [h for h in (g.right, g.left) if id(h) not in done]
            if missing:
                stack += missing
                continue
            done[id(g)] = nodes.make(_KINDS[type(g)], done[id(g.left)],
                                     done[id(g.right)])
        stack.pop()
    atoms = sorted((name, i) for i, (kind, name, _) in enumerate(nodes.table)
                   if kind == _ATOM)
    steps = tuple((i, kind, l, r) for i, (kind, l, r) in enumerate(nodes.table)
                  if kind >= _AND)
    return _Compiled(nodes, done[id(skeleton)], tuple(atoms), steps, names)


def abstraction_formulas(seed, count):
    """``count`` seeded formulas over atoms named as fresh atoms are (p1, p2)
    and non-propositional leaves, each leaf either shared or built anew, and
    subtrees reused by identity; each with a world bound of 1 to 3."""
    rng = random.Random(seed)
    env = Environment()
    env.define("s", (), BOT)
    env.define("t", (), BOT)
    x = Var("x")
    makers = [lambda: AApp(Quote("s")), lambda: MApp(Quote("t")),
              lambda: TApp(Quote("s")), lambda: Atom("P", (x,)),
              lambda: HApp(Quote("s"), x),
              lambda: Forall("x", Or(Atom("P", (x,)), Atom("p1")))]
    shared = [make() for make in makers]
    props = [Atom("p1"), Atom("p2"), Atom("q"), BOT]

    def rand(depth, built):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            if rng.random() < 0.5:
                return rng.choice(props)
            if rng.random() < 0.5:
                return rng.choice(shared)
            return rng.choice(makers)()  # equal to a shared one, not it
        if built and roll < 0.4:
            return rng.choice(built)
        phi = rng.choice((And, Or, Implies))(rand(depth - 1, built),
                                             rand(depth - 1, built))
        built.append(phi)
        return phi

    return [(rand(4, []), rng.randint(1, 3)) for _ in range(count)]


def test_one_walk_compiles_as_the_two_walks_did():
    # atom names and node order decide which countermodel the search finds
    # first and the `pN abbreviates:` lines the CLI prints
    skipped = 0  # formulas whose own atoms push a fresh name further up
    for phi, bound in abstraction_formulas(20261019, 300):
        skeleton, names = reference_abstract_propositional(phi)
        reference = reference_compile(skeleton, names)
        compiled = _compile(phi)
        assert compiled.nodes.table == reference.nodes.table, pformat(phi)
        assert compiled[1:] == reference[1:], pformat(phi)
        assert abstract_propositional(phi) == (skeleton, names)
        assert provable(phi) == _decide(reference)
        expected = None
        if not _decide(reference):
            found = _first_refutation(reference, (
                frame for size in range(1, bound + 1)
                for frame in enumerate_frames(size)))
            if found is not None:
                expected = Countermodel(*found, names)
        assert find_countermodel(phi, max_worlds=bound) == expected
        skipped += set(names) != {f"p{i}" for i in range(1, len(names) + 1)}
    assert skipped >= 50
