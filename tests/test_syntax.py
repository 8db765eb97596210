"""Formula construction, substitution, definitions, and well-formedness."""

import pytest

from mathkernel.syntax import (
    AApp,
    And,
    Atom,
    BOT,
    Const,
    DefinitionError,
    Environment,
    Exists,
    Forall,
    IllFormedError,
    Implies,
    MApp,
    Or,
    Quote,
    TApp,
    Var,
    captures,
    free_vars,
    iff,
    is_neg,
    neg,
    pformat,
    substitute,
)


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


def test_environment_rejects_unbound_quote():
    env = Environment()
    with pytest.raises(DefinitionError):
        env.define("a", (), MApp(Quote("missing")))


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
