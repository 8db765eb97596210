"""Formula parsing, and the parse/print/parse identity."""

import random
import re
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from mathkernel.kernel import theory_instance
from mathkernel.parser import (
    _TOKEN_RE,
    MAX_DEPTH,
    FormulaParser,
    ParseError,
    parse_formula,
    parse_term,
)
from mathkernel.syntax import (
    DefinitionError,
    IllFormedError,
    AApp,
    And,
    Atom,
    BOT,
    Const,
    Environment,
    Exists,
    Formula,
    Forall,
    HApp,
    Implies,
    MApp,
    Or,
    Quote,
    SimApp,
    TApp,
    Term,
    Var,
    iff,
    first_occurrence_vars,
    neg,
    pformat,
    quoted,
)
from mathkernel.script import parse_script
from mathkernel.tactics import ProofBuilder, meaningfulness_closure


def env_with_vocab() -> Environment:
    env = Environment()
    for name in ("p", "q", "r"):
        env.register_predicate(name, 0)
    env.register_predicate("P", 1)
    env.register_predicate("R", 2)
    env.declare_constant("c")
    env.declare_constant("d")
    env.define("s", (), BOT)
    env.define("w", ("x",), MApp(Var("x")))
    env.define("u", ("x",), AApp(Var("x")))
    return env


ENV = env_with_vocab()


def rt(phi):
    """Round-trip a formula through its textual rendering."""
    return parse_formula(pformat(phi), ENV)


def test_parse_connectives_and_precedence():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("p -> q -> r", ENV) == Implies(p, Implies(q, r))
    assert parse_formula("p & q | r", ENV) == Or(And(p, q), r)
    assert parse_formula("~p & q", ENV) == And(neg(p), q)
    assert parse_formula("p <-> q", ENV) == iff(p, q)
    assert parse_formula("bot", ENV) == BOT


def test_parse_quantifiers_greedy_body():
    out = parse_formula("forall x. P(x) -> p", ENV)
    assert out == Forall("x", Implies(Atom("P", (Var("x"),)), Atom("p")))
    out = parse_formula("exists y. R(y, c)", ENV)
    assert out == Exists("y", Atom("R", (Var("y"), Const("c"))))


def test_parse_ascriptions():
    assert parse_formula("M(`s`)", ENV) == MApp(Quote("s"))
    assert parse_formula("A(x)", ENV) == AApp(Var("x"))
    assert parse_formula("T(`s`)", ENV) == TApp(Quote("s"))
    assert parse_formula("H(`w`, c)", ENV) == HApp(Quote("w"), Const("c"))
    assert parse_formula("sim(`w`, `u`)", ENV) == SimApp(Quote("w"), Quote("u"))


def test_parse_terms():
    assert parse_term("c", ENV) == Const("c")
    assert parse_term("x", ENV) == Var("x")
    assert parse_term("`s`", ENV) == Quote("s")


def test_parse_errors():
    for bad in ("p ->", "(p", "forall. p", "M()", "`nosuch`", "p q"):
        with pytest.raises(ParseError):
            parse_formula(bad, ENV)


def test_one_parser_shares_checked_quotation_leaves():
    env = Environment()
    env.define("a", (), BOT)
    fp = FormulaParser(env)
    first = fp.formula("M(`a`) & A(`a`) & T(`a`)")
    second = fp.formula("T(`a`) -> A(`a`) | M(`a`)")
    assert second.left is first.right
    assert second.right.left is first.left.right
    assert second.right.right is first.left.left
    # a bare identifier is never shared: a later const line may change it
    assert fp.formula("M(c)") is not fp.formula("M(c)")


def test_one_parser_shares_equal_compound_subformulas():
    env = Environment()
    env.define("a", (), BOT)
    fp = FormulaParser(env)
    bic = fp.formula("p <-> M(`a`)")
    # both implications inside <-> are the ones written out
    assert bic.left is fp.formula("p -> M(`a`)")
    assert bic.right is fp.formula("M(`a`) -> p")
    assert fp.formula("(p -> M(`a`)) & (M(`a`) -> p)") is bic
    assert fp.formula("~(p <-> M(`a`))").left is bic
    assert fp.formula("~p") is fp.formula("p -> bot")
    assert fp.formula("forall x. ~p") is fp.formula("(forall x. (~p))")
    assert fp.formula("forall x. ~p") is not fp.formula("forall y. ~p")
    assert fp.formula("exists x. ~p") is not fp.formula("forall x. ~p")
    assert fp.formula("p & q") is not fp.formula("p | q")
    # equal values, whoever built them, and a fresh parser builds its own
    assert fp.formula("p <-> M(`a`)") == iff(Atom("p"), MApp(Quote("a")))
    assert parse_formula("p <-> M(`a`)", env) is not bic
    # a leaf with arguments is built afresh, and so is what lies above it
    assert fp.formula("~P(`a`)") is not fp.formula("~P(`a`)")


def test_a_rejected_leaf_is_not_shared():
    env = Environment()
    env.define("w", ("x",), Atom("P", (Var("x"),)))
    fp = FormulaParser(env)
    for _ in range(2):
        with pytest.raises(IllFormedError):
            fp.formula("T(`w`)")  # T of a name with a parameter


@pytest.mark.parametrize("text, message", [
    ("M(", "expected a term, found '' (at position 2)"),
    ("M(`a`", "expected ')', found '' (at position 5)"),
    ("A(`a` &", "expected ')', found '&' (at position 6)"),
    ("T(`a`, `a`)", "T takes 1 term(s) (at position 10)"),
    ("M(`a`) & M(`zz`)", "unbound quotation name `zz` (at position 11)"),
    ("M(`a`) & M(`a`", "expected ')', found '' (at position 14)"),
    ("M(`a`) & A(`a`) & T(`a`) &",
     "expected a formula, found '' (at position 26)"),
    ("(M(`a`) & A(`a`)) <-> T(`a`) <-> bot",
     "'<->' is non-associative; add parentheses (at position 29)"),
    ("~(M(`a`) & A(`a`) & T(`a`)", "expected ')', found '' (at position 26)"),
    ("forall x. M(`a`) & A(`a`) & T(`zz`)",
     "unbound quotation name `zz` (at position 30)"),
])
def test_errors_after_shared_leaves_are_unchanged(text, message):
    env = Environment()
    env.define("a", (), BOT)
    fp = FormulaParser(env)
    fp.formula("M(`a`) & A(`a`) & T(`a`)")
    for parse in (fp.formula, lambda t: parse_formula(t, env)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


# a leaf written without spaces, such as M(`a`), is one token where it is an
# operand; in any other place it is read as its four tokens, as before
@pytest.mark.parametrize("text, message", [
    ("H(M(`a`), c)", "expected ')', found '(' (at position 3)"),
    ("P(A(`a`))", "expected ')', found '(' (at position 3)"),
    ("sim(`a`, T(`a`))", "expected ')', found '(' (at position 10)"),
    ("forall M(`a`). p", "expected '.', found '(' (at position 8)"),
    ("p M(`a`)", "trailing input 'M' (at position 2)"),
    ("~M(`a`) M(`a`)", "trailing input 'M' (at position 8)"),
    ("M M(`a`)", "expected '(', found 'M' (at position 2)"),
    ("M(M(`a`))", "expected ')', found '(' (at position 3)"),
    ("p & M(`zz`)", "unbound quotation name `zz` (at position 6)"),
    ("T(`a`) -> T(`zz`)", "unbound quotation name `zz` (at position 12)"),
])
def test_glued_leaves_out_of_operand_position_fail_as_before(text, message):
    env = Environment()
    env.define("a", (), BOT)
    env.register_predicate("P", 1)
    fp = FormulaParser(env)
    fp.formula("M(`a`) & A(`a`) & T(`a`)")
    for parse in (fp.formula, lambda t: parse_formula(t, env)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message


def test_a_definition_quoting_itself_shares_no_leaf():
    fp = FormulaParser(Environment())
    assert fp.formula("M(`n`) -> p", self_name="n") == Implies(
        MApp(Quote("n")), Atom("p"))
    with pytest.raises(ParseError) as exc:
        fp.formula("M(`n`) -> p")
    assert str(exc.value) == "unbound quotation name `n` (at position 2)"


def test_a_leaf_quoting_the_name_being_defined_is_held_nowhere():
    env = Environment()
    fp = FormulaParser(env)
    body = fp.formula("M(`n`) -> M( `n` )", self_name="n")
    # built afresh, unchecked, and held nowhere: n is not bound yet
    assert body.left is not quoted("M", "n")
    assert body.right is not quoted("M", "n") and body.right is not body.left
    assert fp._leaves == {}
    env.define("n", (), body)
    assert fp.formula("M(`n`)") is quoted("M", "n")
    assert fp._leaves == {"M(`n`)": quoted("M", "n")}


def test_a_parsed_leaf_is_the_leaf_kernel_and_builder_build():
    script, env = parse_script("def q := bot\n1: M(`q`) by MBot[q]\n"
                               "2: A(`q`) -> M(`q`) by AtoM[q]\n")
    leaf = script.steps[0].formula
    assert leaf is quoted("M", "q")
    assert theory_instance(env, "MBot", ("q",)) is leaf
    assert theory_instance(env, "AtoM", ("q",)).right is leaf
    assert script.steps[1].formula.left is quoted("A", "q")
    b = ProofBuilder(env)
    assert b.formula_at(b.theory("MBot", "q")) is leaf
    proof = meaningfulness_closure(env, BOT)
    assert proof.steps[-1].formula is leaf  # q already names bot


def test_a_glued_leaf_is_one_token():
    assert _TOKEN_RE.findall("M(`a`) -> A(`b`)") == ["M(`a`)", "->", "A(`b`)"]
    # inside a longer identifier, or spaced, a leaf is several tokens
    assert _TOKEN_RE.findall("XM(`a`)") == ["XM", "(", "`a`", ")"]
    assert _TOKEN_RE.findall("M( `a` )") == ["M", "(", "`a`", ")"]


def test_spaced_and_glued_leaves_are_one_node():
    env = Environment()
    env.define("a", (), BOT)
    fp = FormulaParser(env)
    spaced = fp.formula("M( `a` )")
    assert fp.formula("M(`a`)") is spaced
    glued = fp.formula("T(`a`)")
    assert fp.formula("T (`a` )") is glued
    assert fp.formula("~ T( `a`)").left is glued
    # both are held under the text of the glued leaf, the token it reads
    assert fp._leaves == {"M(`a`)": spaced, "T(`a`)": glued}


def test_depth_cap_holds_for_a_held_leaf():
    env = Environment()
    env.define("s", (), BOT)
    fp = FormulaParser(env)
    leaf = fp.formula("M(`s`)")
    assert fp.formula("(" * MAX_DEPTH + "M(`s`)" + ")" * MAX_DEPTH) is leaf
    deep = "(" * (MAX_DEPTH + 1) + "M(`s`)" + ")" * (MAX_DEPTH + 1)
    for parse in (fp.formula, lambda t: parse_formula(t, env)):
        with pytest.raises(ParseError) as exc:
            parse(deep)
        assert str(exc.value) == (f"formula nested deeper than {MAX_DEPTH} "
                                  f"(at position {MAX_DEPTH + 1})")


def test_ill_formed_rejected():
    with pytest.raises(IllFormedError):
        parse_formula("P(c, d)", ENV)  # arity
    with pytest.raises((ParseError, IllFormedError)):
        parse_formula("T(`w`)", ENV)  # T needs a sentence quotation


# -- the parse/print/parse identity, property-tested


terms = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z"),
                     Const("c"), Const("d"), Quote("s")]))

leaves = st.one_of(
    st.just(BOT),
    st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
    st.builds(lambda t: Atom("P", (t,)), terms),
    st.builds(lambda a, b: Atom("R", (a, b)), terms, terms),
    st.builds(MApp, terms),
    st.builds(AApp, terms),
    st.just(TApp(Quote("s"))),
    st.builds(lambda t: HApp(Quote("w"), t), terms),
    st.just(SimApp(Quote("w"), Quote("u"))),
)


def compounds(sub):
    return st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Forall, st.sampled_from(["x", "y", "z"]), sub),
        st.builds(Exists, st.sampled_from(["x", "y", "z"]), sub),
    )


formulas = st.recursive(leaves, compounds, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_roundtrip_random_formulas(phi):
    assert rt(phi) == phi


# -- the depth cap


def deep_texts(n):
    """Four formulas nested n deep: a ~ chain, parentheses, and chains of n + 1
    terms under & and under ->."""
    return {"neg": "~" * n + "bot",
            "parens": "(" * n + "p" + ")" * n,
            "and": " & ".join(["p"] * (n + 1)),
            "imp": " -> ".join(["p"] * (n + 1))}


@pytest.mark.parametrize("kind", ["neg", "parens", "and", "imp"])
def test_depth_cap(kind):
    parse_formula(deep_texts(MAX_DEPTH)[kind], env_with_vocab())
    for n in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_formula(deep_texts(n)[kind], env_with_vocab())


def test_depth_cap_counts_a_deep_first_term_of_a_chain():
    # the left operand sinks one level per connective that follows it
    deep = "~" * (MAX_DEPTH - 2) + "p"
    parse_formula(f"{deep} & p & p", env_with_vocab())
    with pytest.raises(ParseError):
        parse_formula(f"{deep} & p & p & p", env_with_vocab())
    with pytest.raises(ParseError):  # <-> stands for two levels
        parse_formula(f"~{deep} <-> p", env_with_vocab())


def test_depth_cap_counts_a_held_leaf_taken_as_a_right_operand():
    # each M(`s`) after the first is a held glued leaf, and the last one,
    # with nothing after it, is taken by the expression rule at the
    # deepest level, where every operand is read
    def chain(n):
        return " -> ".join(["M(`s`)"] * (n + 1))
    parse_formula(chain(MAX_DEPTH), env_with_vocab())
    text = chain(MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"
                       ) as exc:
        parse_formula(text, env_with_vocab())
    assert exc.value.position == text.rindex("M")


# -- the one-pass parser against the five-level parser it replaced


_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<quote>`[A-Za-z_][A-Za-z0-9_]*`)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|:=|[()\{\},;.&|~=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # quote | ident | op | end
    value: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i = 0
    while i < len(text):
        m = _REF_TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            out.append(Token(kind, m.group(), i))
        i = m.end()
    out.append(Token("end", "", len(text)))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t.value != value:
            raise ParseError(f"expected {value!r}, found {t.value!r}", t.pos)
        return self.next()

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.pos)


class ReferenceParser:
    def __init__(self, env: Environment, self_name: Optional[str] = None) -> None:
        self.env = env
        self.self_name = self_name

    # -- entry points

    def formula(self, text: str) -> Formula:
        cur = _Cursor(tokenize(text))
        phi = self._formula(cur)
        if cur.peek().kind != "end":
            raise cur.fail(f"trailing input {cur.peek().value!r}")
        self._check(phi, cur)
        return phi

    def _check(self, phi: Formula, cur: _Cursor) -> None:
        # arity discipline; quote binding was checked during parsing.  A body
        # quoting the name being defined is checked by Environment.define
        # after the provisional binding exists.
        if self.self_name is None:
            self.env.check_formula(phi)

    # -- grammar

    def _formula(self, cur: _Cursor) -> Formula:
        left = self._imp(cur)
        if cur.peek().value == "<->":
            cur.next()
            right = self._imp(cur)
            if cur.peek().value == "<->":
                raise cur.fail("'<->' is non-associative; add parentheses")
            return iff(left, right)
        return left

    def _imp(self, cur: _Cursor) -> Formula:
        left = self._or(cur)
        if cur.peek().value == "->":
            cur.next()
            return Implies(left, self._imp(cur))
        return left

    def _or(self, cur: _Cursor) -> Formula:
        out = self._and(cur)
        while cur.peek().value == "|":
            cur.next()
            out = Or(out, self._and(cur))
        return out

    def _and(self, cur: _Cursor) -> Formula:
        out = self._unary(cur)
        while cur.peek().value == "&":
            cur.next()
            out = And(out, self._unary(cur))
        return out

    def _unary(self, cur: _Cursor) -> Formula:
        if cur.peek().value == "~":
            cur.next()
            return neg(self._unary(cur))
        return self._primary(cur)

    def _primary(self, cur: _Cursor) -> Formula:
        tok = cur.peek()
        if tok.value == "(":
            cur.next()
            phi = self._formula(cur)
            cur.expect(")")
            return phi
        if tok.value in ("forall", "exists"):
            cur.next()
            v = cur.next()
            if v.kind != "ident":
                raise cur.fail("expected a variable after quantifier")
            cur.expect(".")
            body = self._formula(cur)
            return (Forall if tok.value == "forall" else Exists)(v.value, body)
        if tok.value == "bot":
            cur.next()
            return BOT
        if tok.kind == "ident":
            name = cur.next().value
            if name in ("M", "A", "T"):
                cur.expect("(")
                t = self._term(cur)
                cur.expect(")")
                return {"M": MApp, "A": AApp, "T": TApp}[name](t)
            if name in ("H", "sim"):
                cur.expect("(")
                t1 = self._term(cur)
                cur.expect(",")
                t2 = self._term(cur)
                cur.expect(")")
                return HApp(t1, t2) if name == "H" else SimApp(t1, t2)
            args: list[Term] = []
            if cur.peek().value == "(":
                cur.next()
                args.append(self._term(cur))
                while cur.peek().value == ",":
                    cur.next()
                    args.append(self._term(cur))
                cur.expect(")")
            self.env.register_predicate(name, len(args))
            return Atom(name, tuple(args))
        raise cur.fail(f"expected a formula, found {tok.value!r}")

    def _term(self, cur: _Cursor) -> Term:
        tok = cur.next()
        if tok.kind == "quote":
            name = tok.value[1:-1]
            if name != self.self_name and not self.env.is_bound(name):
                raise ParseError(f"unbound quotation name `{name}`", tok.pos)
            return Quote(name)
        if tok.kind == "ident":
            if tok.value in self.env.constants:
                return Const(tok.value)
            return Var(tok.value)
        raise ParseError(f"expected a term, found {tok.value!r}", tok.pos)


def reference_parse_formula(text, env, self_name=None):
    """The parser as it was before precedence climbing: a tokenizer of
    Token records, five recursive-descent levels, and a second walk that
    checks the parsed formula.  It ran off the end of its token list on a
    quantifier at the end of the input; that IndexError is a ParseError
    here."""
    try:
        return ReferenceParser(env, self_name).formula(text)
    except IndexError:
        raise ParseError("input ends after a quantifier", len(text)) from None


_ATOMS = ["p", "q", "r", "P(x)", "P(c)", "R(x, y)", "R(c, `s`)", "Q(z)",
          "M(`s`)", "A(x)", "T(`s`)", "H(`w`, c)", "sim(`w`, `u`)", "bot"]
# ill-formed, or quoting the name `n` that only a definition of n may quote
_RARE_ATOMS = ["Q", "T(`w`)", "H(`s`, c)", "sim(`w`, `s`)", "M(`n`)",
               "T(`n`)", "H(`n`, x)"]
_SOUP = ["p", "q", "P", "R", "Q", "x", "y", "c", "`s`", "`w`", "`n`",
         "`nosuch`", "M", "A", "T", "H", "sim", "bot", "forall", "exists",
         "hyp", "def", "(", ")", ",", ".", "~", "&", "|", "->", "<->", "-",
         "<", "`", "$", ":=", "\u00e9", "\u00b2", "\u00a0"]


def _random_formula(rng, size):
    if size <= 1:
        return rng.choice(_RARE_ATOMS if rng.random() < 0.05 else _ATOMS)
    k = rng.randrange(7)
    if k == 0:
        return "~" + _random_formula(rng, size - 1)
    if k == 1:
        return f"{rng.choice(['forall', 'exists'])} {rng.choice('xyz')}. " \
            + _random_formula(rng, size - 1)
    left = rng.randrange(1, size)
    a, b = _random_formula(rng, left), _random_formula(rng, size - left)
    op = rng.choice(["&", "|", "->", "->", "<->"])
    return f"({a} {op} {b})"


def _texts(seed, count):
    """Seeded texts of three kinds: printed random formulas, the same with
    one token inserted, deleted or swapped, and token soup."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 2:
            sep = rng.choice([" ", ""])
            out.append(sep.join(rng.choice(_SOUP)
                                for _ in range(rng.randrange(1, 10))))
            continue
        text = _random_formula(rng, rng.randrange(1, 12))
        try:  # printed if it parses, as written if it does not
            text = pformat(reference_parse_formula(text, env_with_vocab()))
        except (ParseError, IllFormedError):
            pass
        if i % 3 == 0:
            out.append(text)
        else:
            toks = re.findall(r"`\w+`|\w+|<?->|\S", text)
            j = rng.randrange(len(toks))
            edit = rng.randrange(3)
            if edit == 0:
                toks.insert(j, rng.choice(_SOUP))
            elif edit == 1:
                del toks[j]
            else:
                k = rng.randrange(len(toks))
                toks[j], toks[k] = toks[k], toks[j]
            out.append(" ".join(toks))
    return out


def _outcome(parse, text, self_name):
    """What a parse leaves: the formula or None, and the predicate table.
    With a self_name, the definition of that name is part of the parse."""
    env = env_with_vocab()
    try:
        phi = parse(text, env, self_name)
        if self_name is not None:
            env.define(self_name, first_occurrence_vars(phi), phi)
    except (ParseError, IllFormedError, DefinitionError):
        return None, None
    return phi, env.predicates


def test_parser_agrees_with_the_reference_parser():
    texts = _texts(7, 3600)
    accepted = 0
    for i, text in enumerate(texts):
        self_name = "n" if i % 4 == 3 else None
        got = _outcome(parse_formula, text, self_name)
        assert got == _outcome(reference_parse_formula, text, self_name), text
        accepted += got[0] is not None
    # the mix holds accepted and rejected texts in good measure
    assert len(texts) // 4 < accepted < len(texts) * 3 // 4


# -- one parser over many texts against a fresh parser for each


_GLUED = ["M(`s`)", "A(`s`)", "T(`s`)", "M(`w`)", "T(`w`)", "M(`n`)",
          "T(`n`)", "A(`nosuch`)"]


def _glued_texts(seed, count):
    """Seeded texts full of glued leaves: random formulas, some with one
    token inserted, and token soup."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            text = _random_formula(rng, rng.randrange(1, 10))
            if rng.random() < 0.4:
                j = rng.randrange(len(text) + 1)
                text = text[:j] + rng.choice(_GLUED + _SOUP) + text[j:]
        else:
            sep = rng.choice([" ", "", ""])
            text = sep.join(rng.choice(_GLUED + _SOUP)
                            for _ in range(rng.randrange(1, 12)))
        out.append(text)
    return out


def _parsed(fp, text, self_name):
    try:
        return fp.formula(text, self_name)
    except (ParseError, IllFormedError) as exc:
        return type(exc), str(exc)


def test_one_parser_reads_each_text_as_a_fresh_parser_does():
    env = env_with_vocab()
    fp = FormulaParser(env)
    outcomes = set()
    for i, text in enumerate(_glued_texts(15, 1500)):
        self_name = "n" if i % 5 == 4 else None
        fresh = _parsed(FormulaParser(env), text, self_name)
        assert _parsed(fp, text, self_name) == fresh, text
        outcomes.add(fresh[0] if type(fresh) is tuple else "formula")
    assert outcomes == {ParseError, IllFormedError, "formula"}
