"""Text format for formulas.

Grammar (UTF-8 text):

    formula   :=  unary ( BINOP unary )*      by the table below
    unary     :=  '~' unary | primary
    primary   :=  '(' formula ')'
               |  'forall' VAR '.' formula    body extends to the right
               |  'exists' VAR '.' formula
               |  'bot'
               |  'M(' term ')' | 'A(' term ')' | 'T(' term ')'
               |  'H(' term ',' term ')' | 'sim(' term ',' term ')'
               |  IDENT ( '(' term ( ',' term )* ')' )?
    term      :=  '`' IDENT '`' | IDENT

    BINOP   precedence   associativity
    <->     1            none
    ->      2            right
    |       3            left
    &       4            left

The precedences are the ``_PREC_*`` constants ``syntax.pformat`` prints
with; one precedence-climbing loop parses every binary connective.

`~p` is sugar for `p -> bot`, `a <-> b` for `(a -> b) & (b -> a)`.  A bare
identifier in term position is an object constant if declared, otherwise a
variable.  Predicates are registered in the symbol table at first use and
checked for consistent arity afterwards; every other atomic formula is
checked by ``Environment.check_formula`` as it is built, except one that
quotes the name being defined, which ``Environment.define`` checks; such
a leaf is built afresh and held nowhere, as the name is not bound yet.

One parser reads every formula of a script and shares equal subformulas:
each quotation leaf (`M`, `A` or `T` of a quotation) is checked once and is
the one leaf ``syntax.quoted`` gives, which the kernel and the tactics build
too, a nullary atom is built once, and a compound formula whose children
are the same objects is built once, so equal subformulas of a script are
one object.  A kernel comparison of two of them stops at the first shared
node, and ``Environment.check_formula`` skips a node it checked before.
Other leaves (an atom with arguments, `H`, `sim`, and `M`, `A` or `T` of a
bare identifier, which a later `const` line may turn into a constant) are
built afresh each time, and so are the formulas above them.

A quotation leaf written without spaces, such as M(`q`) (a glued leaf), is
one token, and the parser holds each leaf it has checked under that text.
Every operand, of a connective or of `~`, is read at one place, the entry
of the expression rule, which takes a held glued leaf from that table with
no call to read it.  A glued leaf read for the first time, or found where
it is no operand (a term, a quantifier's variable, trailing input), is
split back into its four tokens, and so is the text when an error position
is found, so every message and position is what the four tokens give.  A
spaced leaf, such as M( `q` ), is read from its four tokens each time.

A formula is at most ``MAX_DEPTH`` deep: no atom lies inside more than
``MAX_DEPTH`` levels, a level being a connective (two for `<->`, which
stands for two), a quantifier or a pair of parentheses.  Deeper text is a
``ParseError``, so no recursive walk over a parsed formula (hashing,
printing, substitution, checking) comes near Python's recursion limit.
"""

from __future__ import annotations

import re
import string
from typing import Optional

from .syntax import (
    _PREC_AND,
    _PREC_IFF,
    _PREC_IMP,
    _PREC_NEG,
    _PREC_OR,
    _leaf_text,
    ASCRIPTIONS,
    And,
    Atom,
    BOT,
    Const,
    Environment,
    Formula,
    Or,
    Implies,
    Exists,
    Forall,
    Quote,
    Term,
    Var,
    quoted,
)

MAX_DEPTH = 256


class ParseError(Exception):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # every name, here and in a script line

# an `M`, `A` or `T` leaf over a quotation written without spaces (a glued
# leaf), a quotation, an identifier, an arrow, or any other single
# character; a character the grammar has no use for fails where it stands
_TOKEN_RE = re.compile(rf"[MAT]\(`{_IDENT}`\)|`{_IDENT}`|{_IDENT}|<?->|\S")
_IDENT_START = frozenset(string.ascii_letters + "_")

# connective -> (precedence, least precedence of its right operand, levels
# it adds, constructor); a right operand of equal precedence makes `->`
# right-associative, `<->` (no constructor: it stands for two implications)
# is refused a second time below
_BINARY = {
    "<->": (_PREC_IFF, _PREC_IFF + 1, 2, None),
    "->": (_PREC_IMP, _PREC_IMP, 1, Implies),
    "|": (_PREC_OR, _PREC_OR + 1, 1, Or),
    "&": (_PREC_AND, _PREC_AND + 1, 1, And),
}

_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH}"


class FormulaParser:
    """Parses formulas and terms against an Environment's symbol table.

    One parser may parse every formula of a script, the environment growing
    in between.  It keeps each `M`, `A` or `T` leaf over a quotation once
    ``Environment.check_formula`` has accepted it, keyed by the leaf's text
    written without spaces, and returns that object for every later glued
    occurrence, read as a single token: a bound name stays
    bound with the same definition, so the leaf stays well formed.  It
    returns one object for each nullary atom and for each compound formula
    over the same children.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        # glued leaf text, such as M(`q`) -> the checked leaf built for it
        self._leaves: dict[str, Formula] = {}
        # (constructor, variable or predicate or id(first child), id(last
        # child)) -> the node, a nullary atom's last child being (); keyed
        # by identity, since hashing a node by value costs a Python call per
        # node, and the node keeps its children alive
        self._nodes: dict[tuple[type, object, int], Formula] = {}

    # -- entry points

    def formula(self, text: str, self_name: Optional[str] = None) -> Formula:
        """``self_name`` allows the name being defined to appear quoted
        inside its own body."""
        self._start(text, self_name)
        phi, _ = self._expr(0, 0)
        self._finish()
        return phi

    def term(self, text: str) -> Term:
        self._start(text, None)
        t = self._term()
        self._finish()
        return t

    # -- tokens

    def _start(self, text: str, self_name: Optional[str]) -> None:
        self.self_name = self_name
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")  # end of input
        self.i = 0

    def _split(self) -> str:
        """The token at i, a glued leaf there first split back into the
        four tokens it is read as where it is no operand."""
        tok = self.toks[self.i]
        if tok[1:2] == "(":  # no other token has "(" second
            self.toks[self.i:self.i + 1] = tok[0], "(", tok[2:-1], ")"
            tok = tok[0]
        return tok

    def _finish(self) -> None:
        if self.toks[self.i]:
            raise self._fail(f"trailing input {self._split()!r}")

    def _fail(self, message: str) -> ParseError:
        starts: list[int] = []
        for m in _TOKEN_RE.finditer(self.text):
            if self.toks[len(starts)] == m.group():
                starts.append(m.start())
            else:  # a glued leaf split into four tokens
                starts += m.start(), m.start() + 1, m.start() + 2, m.end() - 1
        starts.append(len(self.text))
        return ParseError(message, starts[self.i])

    def _expect(self, value: str) -> None:
        if self.toks[self.i] != value:
            raise self._fail(f"expected {value!r}, found {self._split()!r}")
        self.i += 1

    # -- grammar; depth counts the levels above, height the levels below

    def _expr(self, min_prec: int, depth: int) -> tuple[Formula, int]:
        toks = self.toks
        left = self._leaves.get(toks[self.i])
        if left is None:
            left, height = self._unary(depth)
        else:  # a glued leaf this parser holds
            if depth > MAX_DEPTH:
                raise self._fail(_TOO_DEEP)
            self.i += 1
            height = 0
        while True:
            op = toks[self.i]
            entry = _BINARY.get(op)
            if entry is None or entry[0] < min_prec:
                return left, height
            _, right_prec, levels, build = entry
            self.i += 1
            right, right_height = self._expr(right_prec, depth + levels)
            if build is None:  # a <-> b is (a -> b) & (b -> a)
                left = self._node(And, self._node(Implies, left, right),
                                  self._node(Implies, right, left))
            else:
                left = self._node(build, left, right)
            height = levels + max(height, right_height)
            if depth + height > MAX_DEPTH:
                raise self._fail(_TOO_DEEP)
            if op == "<->" and self.toks[self.i] == "<->":
                raise self._fail("'<->' is non-associative; add parentheses")

    def _unary(self, depth: int) -> tuple[Formula, int]:
        if depth > MAX_DEPTH:
            raise self._fail(_TOO_DEEP)
        tok = self._split()  # a glued leaf here is new
        self.i += 1
        if tok == "~":  # no binary connective binds tighter: one operand
            phi, height = self._expr(_PREC_NEG, depth + 1)
            return self._node(Implies, phi, BOT), height + 1
        if tok == "(":
            phi, height = self._expr(0, depth + 1)
            self._expect(")")
            return phi, height + 1
        if tok in ("forall", "exists"):
            var = self._split()
            if var[:1] not in _IDENT_START:
                raise self._fail("expected a variable after quantifier")
            self.i += 1
            self._expect(".")
            body, height = self._expr(0, depth + 1)
            quantifier = Forall if tok == "forall" else Exists
            return self._node(quantifier, var, body), height + 1
        if tok == "bot":
            return BOT, 0
        if tok[:1] not in _IDENT_START:
            self.i -= 1
            raise self._fail(f"expected a formula, found {tok!r}")
        ascription = ASCRIPTIONS.get(tok)
        args: list[Term] = []
        if ascription or self.toks[self.i] == "(":
            self._expect("(")
            args.append(self._term())
            while self.toks[self.i] == ",":
                self.i += 1
                args.append(self._term())
            self._expect(")")
        if ascription is None:
            self.env.register_predicate(tok, len(args))
            if args:
                return Atom(tok, tuple(args)), 0
            return self._node(Atom, tok, ()), 0
        arity = len(ascription.__match_args__)
        if len(args) != arity:
            self.i -= 1
            raise self._fail(f"{tok} takes {arity} term(s)")
        if self.self_name is not None and Quote(self.self_name) in args:
            return ascription(*args), 0  # Environment.define checks it
        # a one-term leaf over a quotation is shared
        held = arity == 1 and type(args[0]) is Quote
        leaf = quoted(tok, args[0].name) if held else ascription(*args)
        self.env.check_formula(leaf)
        if held:  # under the key of its glued token
            self._leaves[_leaf_text(leaf)] = leaf
        return leaf, 0

    def _node(self, build: type, first: Formula | str,
              last: Formula | tuple[()]) -> Formula:
        """The one node ``build(first, last)`` of this parser."""
        key = (build, first if type(first) is str else id(first), id(last))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = build(first, last)
        return node

    def _term(self) -> Term:
        tok = self.toks[self.i]
        if len(tok) > 1 and tok[0] == "`":
            name = tok[1:-1]
            if name != self.self_name and not self.env.is_bound(name):
                raise self._fail(f"unbound quotation name `{name}`")
            self.i += 1
            return Quote(name)
        tok = self._split()
        if tok[:1] in _IDENT_START:
            self.i += 1
            return Const(tok) if tok in self.env.constants else Var(tok)
        raise self._fail(f"expected a term, found {tok!r}")


def parse_formula(text: str, env: Environment,
                  self_name: Optional[str] = None) -> Formula:
    return FormulaParser(env).formula(text, self_name)


def parse_term(text: str, env: Environment) -> Term:
    return FormulaParser(env).term(text)
