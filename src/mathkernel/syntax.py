"""Terms, formulas, quotation names, and the definitional environment.

Negation is not a constructor: ~phi is stored as Implies(phi, Bot), and
phi <-> psi as And(Implies(phi, psi), Implies(psi, phi)).  Quotation is
opaque: a Quote term stands for a named formula bound in an Environment,
and resolving a name never unfolds quotations inside the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence, Union


class IllFormedError(Exception):
    """A formula violates arity or binding discipline."""


class DefinitionError(Exception):
    """A quotation name or domain declaration is rejected."""


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Quote:
    name: str

    def __str__(self) -> str:
        return f"`{self.name}`"


Term = Union[Var, Const, Quote]


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Bot:
    def __str__(self) -> str:
        return "bot"


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class MApp:
    arg: Term

    def __str__(self) -> str:
        return f"M({self.arg})"


@dataclass(frozen=True)
class AApp:
    arg: Term

    def __str__(self) -> str:
        return f"A({self.arg})"


@dataclass(frozen=True)
class TApp:
    arg: Term

    def __str__(self) -> str:
        return f"T({self.arg})"


@dataclass(frozen=True)
class HApp:
    pred: Term
    arg: Term

    def __str__(self) -> str:
        return f"H({self.pred}, {self.arg})"


@dataclass(frozen=True)
class SimApp:
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"sim({self.left}, {self.right})"


class _Compound:
    """Base of the compound formulas.  A node computes its hash, free
    variables and quotation names on first use and keeps them in slots, so
    none of them walks the subtree again; ``==`` still compares fields.
    Pickling and copying rebuild a node from its fields: no cached value
    leaves the process (string hashes are salted per process)."""

    __slots__ = ("_hash", "_fv", "_qn")

    # the tuple of a node's fields, set on each class below
    _fields: Callable[["_Compound"], tuple]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._fields(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return type(self), self._fields(self)

    def __str__(self) -> str:
        return pformat(self)


@dataclass(frozen=True, slots=True)
class And(_Compound):
    left: "Formula"
    right: "Formula"
    __hash__ = _Compound.__hash__


@dataclass(frozen=True, slots=True)
class Or(_Compound):
    left: "Formula"
    right: "Formula"
    __hash__ = _Compound.__hash__


@dataclass(frozen=True, slots=True)
class Implies(_Compound):
    left: "Formula"
    right: "Formula"
    __hash__ = _Compound.__hash__


@dataclass(frozen=True, slots=True)
class Forall(_Compound):
    var: str
    body: "Formula"
    __hash__ = _Compound.__hash__


@dataclass(frozen=True, slots=True)
class Exists(_Compound):
    var: str
    body: "Formula"
    __hash__ = _Compound.__hash__


for _cls in (And, Or, Implies, Forall, Exists):
    _cls._fields = attrgetter(*_cls.__match_args__)

Formula = Union[
    Bot, Atom, MApp, AApp, TApp, HApp, SimApp, And, Or, Implies, Forall, Exists
]

BOT = Bot()
_ATOMIC = (Bot, Atom, MApp, AApp, TApp, HApp, SimApp)


def neg(phi: Formula) -> Formula:
    return Implies(phi, BOT)


def iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def is_neg(phi: Formula) -> bool:
    return isinstance(phi, Implies) and phi.right == BOT


def as_iff(phi: Formula) -> Optional[tuple[Formula, Formula]]:
    """Decompose a stored biconditional, if phi has that shape."""
    if (
        isinstance(phi, And)
        and isinstance(phi.left, Implies)
        and isinstance(phi.right, Implies)
        and phi.left.left == phi.right.right
        and phi.left.right == phi.right.left
    ):
        return phi.left.left, phi.left.right
    return None


# ---------------------------------------------------------------------------
# pretty-printing

# precedence levels: quantifier body 0, <-> 1, -> 2, | 3, & 4, ~ 5, atom 10
_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NEG = 5


def pformat(phi: Formula) -> str:
    """Render phi in the concrete grammar; parse(pformat(phi)) == phi."""
    return _fmt(phi, 0)


def _fmt(phi: Formula, prec: int) -> str:
    if isinstance(phi, _ATOMIC):
        return str(phi)
    if isinstance(phi, (Forall, Exists)):
        kw = "forall" if isinstance(phi, Forall) else "exists"
        s = f"{kw} {phi.var}. {_fmt(phi.body, 0)}"
        return f"({s})" if prec > 0 else s
    two = as_iff(phi)
    if two is not None:
        s = f"{_fmt(two[0], _PREC_IMP)} <-> {_fmt(two[1], _PREC_IMP)}"
        return f"({s})" if prec > _PREC_IFF else s
    if is_neg(phi):
        assert isinstance(phi, Implies)
        return f"~{_fmt(phi.left, _PREC_NEG)}"
    if isinstance(phi, Implies):
        s = f"{_fmt(phi.left, _PREC_IMP + 1)} -> {_fmt(phi.right, _PREC_IMP)}"
        return f"({s})" if prec > _PREC_IMP else s
    if isinstance(phi, Or):
        s = f"{_fmt(phi.left, _PREC_OR)} | {_fmt(phi.right, _PREC_OR + 1)}"
        return f"({s})" if prec > _PREC_OR else s
    if isinstance(phi, And):
        s = f"{_fmt(phi.left, _PREC_AND)} & {_fmt(phi.right, _PREC_AND + 1)}"
        return f"({s})" if prec > _PREC_AND else s
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# free variables and substitution


_EMPTY: frozenset[str] = frozenset()  # shared by every node that has none


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, reusing an operand that already contains the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


@lru_cache(maxsize=1024)
def _singleton(name: str) -> frozenset[str]:
    """One shared set per name, so that the leaf sets compound nodes keep
    are not one copy per leaf."""
    return frozenset((name,))


def term_vars(t: Term) -> frozenset[str]:
    return _singleton(t.name) if isinstance(t, Var) else _EMPTY


def free_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, _Compound):
        try:
            return phi._fv
        except AttributeError:
            pass
        if isinstance(phi, (Forall, Exists)):
            fv = free_vars(phi.body)
            if phi.var in fv:
                fv = (fv - {phi.var}) or _EMPTY
        else:
            fv = _union(free_vars(phi.left), free_vars(phi.right))
        object.__setattr__(phi, "_fv", fv)
        return fv
    if not isinstance(phi, _ATOMIC):
        raise TypeError(f"not a formula: {phi!r}")
    out = _EMPTY
    for t in _atomic_terms(phi):
        out = _union(out, term_vars(t))
    return out


def _fresh(base: str, avoid: frozenset[str]) -> str:
    stem = base.split("_")[0] if base.rsplit("_", 1)[-1].isdigit() else base
    i = 1
    while f"{stem}_{i}" in avoid:
        i += 1
    return f"{stem}_{i}"


def substitute(phi: Formula, x: str, t: Term) -> Formula:
    """Capture-avoiding substitution of t for free occurrences of x."""
    return substitute_map(phi, {x: t})


def substitute_map(phi: Formula, sub: Mapping[str, Term]) -> Formula:
    sub = {x: t for x, t in sub.items() if t != Var(x)}
    if not sub:
        return phi
    return _subst(phi, sub)


def _subst_term(t: Term, sub: Mapping[str, Term]) -> Term:
    if isinstance(t, Var) and t.name in sub:
        return sub[t.name]
    return t


def _subst(phi: Formula, sub: Mapping[str, Term]) -> Formula:
    if isinstance(phi, Bot):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(_subst_term(a, sub) for a in phi.args))
    if isinstance(phi, _ATOMIC):  # its fields are its terms, in order
        return type(phi)(*(_subst_term(t, sub) for t in _atomic_terms(phi)))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(_subst(phi.left, sub), _subst(phi.right, sub))
    if isinstance(phi, (Forall, Exists)):
        live = {x: t for x, t in sub.items() if x != phi.var and x in free_vars(phi.body)}
        if not live:
            return phi
        incoming = frozenset()
        for t in live.values():
            incoming |= term_vars(t)
        var, body = phi.var, phi.body
        if var in incoming:
            avoid = free_vars(body) | incoming | frozenset(live)
            nv = _fresh(var, avoid)
            body = _subst(body, {var: Var(nv)})
            var = nv
        return type(phi)(var, _subst(body, live))
    raise TypeError(f"not a formula: {phi!r}")


def captures(phi: Formula, x: str, t: Term) -> bool:
    """True if naive substitution of t for x in phi would capture a variable."""
    tv = term_vars(t)
    if not tv:
        return False

    def walk(f: Formula) -> bool:
        # capture happens at a binder whose variable occurs in t while x is
        # still free below it
        if isinstance(f, (Forall, Exists)):
            if f.var == x:
                return False
            if f.var in tv and x in free_vars(f.body):
                return True
            return walk(f.body)
        if isinstance(f, (And, Or, Implies)):
            return walk(f.left) or walk(f.right)
        return False

    return walk(phi)


def _atomic_terms(phi: Formula) -> tuple[Term, ...]:
    """The argument terms of an atomic formula; () for a compound one."""
    if isinstance(phi, Atom):
        return phi.args
    if isinstance(phi, (MApp, AApp, TApp)):
        return (phi.arg,)
    if isinstance(phi, HApp):
        return (phi.pred, phi.arg)
    if isinstance(phi, SimApp):
        return (phi.left, phi.right)
    return ()


def quote_names(phi: Formula) -> frozenset[str]:
    """All quotation names mentioned anywhere in phi (one level, opaque)."""
    if isinstance(phi, _Compound):
        try:
            return phi._qn
        except AttributeError:
            pass
        if isinstance(phi, (Forall, Exists)):
            qn = quote_names(phi.body)
        else:
            qn = _union(quote_names(phi.left), quote_names(phi.right))
        object.__setattr__(phi, "_qn", qn)
        return qn
    out = _EMPTY
    for t in _atomic_terms(phi):
        if isinstance(t, Quote):
            out = _union(out, _singleton(t.name))
    return out


def first_occurrence_vars(phi: Formula) -> tuple[str, ...]:
    """Free variables of phi ordered by first occurrence in a left-to-right
    walk, matching their textual order."""
    if not free_vars(phi):
        return ()
    seen: dict[str, None] = {}

    def walk(f: Formula, bound: frozenset[str]) -> None:
        if isinstance(f, (And, Or, Implies)):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, (Forall, Exists)):
            walk(f.body, bound | {f.var})
        else:
            for t in _atomic_terms(f):
                if isinstance(t, Var) and t.name not in bound:
                    seen.setdefault(t.name)

    walk(phi, frozenset())
    return tuple(seen)


# ---------------------------------------------------------------------------
# definitional environment


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[str, ...]
    body: Formula

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class Domain:
    predicate: str
    constants: tuple[str, ...]
    definite: bool


@dataclass(frozen=True)
class TotalExtension:
    base: str
    domain: str
    extended: str


_RESERVED = {"bot", "forall", "exists", "M", "A", "T", "H", "sim", "def",
             "domain", "const", "enable", "hyp", "by", "definite"}


class Environment:
    """Names, domains, and the symbol table.

    Built in a setup phase; the checker adds no name, domain or predicate.
    ``check_formula`` remembers each compound node it has accepted, by
    identity, and skips it from then on: a node stays well formed while
    names are only added.  The memo is emptied when a new predicate name is
    registered (an atom accepted with the name unknown may have another
    arity) and when ``define`` rolls back a provisional binding (a node
    accepted while the name was bound no longer is).  It holds the nodes
    it remembers for the environment's life, and a pickle or copy of the
    environment starts with an empty one.
    """

    def __init__(self) -> None:
        self.definitions: dict[str, Definition] = {}
        # (params, body) -> the first name defined with exactly those
        self._names: dict[tuple[tuple[str, ...], Formula], str] = {}
        self.domains: dict[str, Domain] = {}
        self.predicates: dict[str, int] = {}
        self.constants: set[str] = set()
        self.extensions: dict[str, TotalExtension] = {}
        # id(node) -> node, for each compound node check_formula accepted;
        # keyed by identity, never by the node (an equality hit walks as far
        # as a check does), and a hit needs the stored node itself
        self._checked: dict[int, Formula] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_checked": {}}

    # -- symbol table

    def register_predicate(self, name: str, arity: int) -> None:
        if name in _RESERVED:
            raise IllFormedError(f"reserved word used as predicate: {name}")
        old = self.predicates.get(name)
        if old is not None and old != arity:
            raise IllFormedError(
                f"arity mismatch for predicate {name}: {old} vs {arity}"
            )
        if old is None:
            self._checked.clear()
        self.predicates[name] = arity

    def declare_constant(self, name: str) -> None:
        if name in _RESERVED:
            raise IllFormedError(f"reserved word used as constant: {name}")
        self.constants.add(name)

    @property
    def universe(self) -> tuple[str, ...]:
        return tuple(sorted(self.constants))

    # -- domains

    def declare_domain(self, predicate: str, constants: Sequence[str],
                       definite: bool) -> Domain:
        if predicate in self.domains:
            old = self.domains[predicate]
            if old.constants == tuple(constants) and old.definite == definite:
                return old
            raise DefinitionError(f"conflicting redeclaration of domain {predicate}")
        self.register_predicate(predicate, 1)
        for c in constants:
            self.declare_constant(c)
        dom = Domain(predicate, tuple(constants), definite)
        self.domains[predicate] = dom
        return dom

    # -- definitions

    def define(self, name: str, params: Sequence[str], body: Formula) -> Definition:
        if name in _RESERVED:
            raise DefinitionError(f"reserved word used as name: {name}")
        d = Definition(name, tuple(params), body)
        if name in self.definitions:
            if self.definitions[name] == d:
                return d
            raise DefinitionError(f"conflicting redefinition of {name}")
        if len(set(d.params)) != len(d.params):
            raise DefinitionError(f"repeated parameter in definition of {name}")
        fv = free_vars(body)
        if fv != set(d.params):
            raise DefinitionError(
                f"body of {name} must have free variables exactly "
                f"{{{', '.join(d.params)}}}, found {{{', '.join(sorted(fv))}}}"
            )
        for q in quote_names(body):
            if q != name and q not in self.definitions:
                raise DefinitionError(f"unbound quotation `{q}` in body of {name}")
        # bind provisionally so self-mention passes the well-formedness check
        self.definitions[name] = d
        try:
            self.check_formula(body)
        except IllFormedError:
            del self.definitions[name]
            self._checked.clear()
            raise
        self._names.setdefault((d.params, body), name)
        return d

    def name_of(self, params: tuple[str, ...], body: Formula) -> Optional[str]:
        """The first name defined with exactly these parameters and body."""
        return self._names.get((params, body))

    def is_bound(self, name: str) -> bool:
        return name in self.definitions

    def definition(self, name: str) -> Definition:
        if name not in self.definitions:
            raise DefinitionError(f"unbound quotation name: {name}")
        return self.definitions[name]

    def resolve(self, name: str) -> Formula:
        """The body of a bound name, verbatim; never unfolds inner quotes."""
        return self.definition(name).body

    def arity(self, name: str) -> int:
        return self.definition(name).arity

    def instantiate(self, name: str, args: Sequence[Term]) -> Formula:
        d = self.definition(name)
        if len(args) != d.arity:
            raise DefinitionError(
                f"{name} has arity {d.arity}, got {len(args)} arguments"
            )
        return substitute_map(d.body, dict(zip(d.params, args)))

    # -- well-formedness

    def check_term(self, t: Term) -> None:
        """Raise IllFormedError unless t is a term whose name is a nonempty
        string and, for a quotation, bound."""
        if type(t) is Quote:
            if type(t.name) is not str or t.name not in self.definitions:
                raise IllFormedError(f"unbound quotation name: {t.name}")
        elif type(t) is Var or type(t) is Const:
            if type(t.name) is not str or not t.name:
                raise IllFormedError(f"not an identifier: {t.name!r}")
        else:
            raise IllFormedError(f"not a term: {t!r}")

    def _quote_arity(self, t: Term) -> Optional[int]:
        if isinstance(t, Quote):
            return self.definition(t.name).arity
        return None

    def check_formula(self, phi: Formula) -> None:
        """Raise IllFormedError on arity or binding violations, and on a
        value that is not a formula."""
        if isinstance(phi, _Compound):
            if self._checked.get(id(phi)) is phi:
                return
            if isinstance(phi, (Forall, Exists)):
                if type(phi.var) is not str:
                    raise IllFormedError(f"not a variable: {phi.var!r}")
                self.check_formula(phi.body)
            else:
                self.check_formula(phi.left)
                self.check_formula(phi.right)
            self._checked[id(phi)] = phi
            return
        if isinstance(phi, Bot):
            return
        if isinstance(phi, Atom):
            if type(phi.pred) is not str or type(phi.args) is not tuple:
                raise IllFormedError(f"not an atomic formula: {phi!r}")
            known = self.predicates.get(phi.pred)
            if known is not None and known != len(phi.args):
                raise IllFormedError(
                    f"predicate {phi.pred} expects {known} arguments"
                )
            for t in phi.args:
                self.check_term(t)
            return
        if isinstance(phi, (MApp, AApp)):
            self.check_term(phi.arg)
            return
        if isinstance(phi, TApp):
            self.check_term(phi.arg)
            a = self._quote_arity(phi.arg)
            if a is not None and a != 0:
                raise IllFormedError(
                    f"T applied to quotation of arity {a}; a sentence is required"
                )
            return
        if isinstance(phi, HApp):
            self.check_term(phi.pred)
            self.check_term(phi.arg)
            a = self._quote_arity(phi.pred)
            if a is not None and a != 1:
                raise IllFormedError(
                    f"H requires a unary predicate quotation, got arity {a}"
                )
            return
        if isinstance(phi, SimApp):
            for t in (phi.left, phi.right):
                self.check_term(t)
                a = self._quote_arity(t)
                if a is not None and a != 1:
                    raise IllFormedError(
                        f"sim requires unary predicate quotations, got arity {a}"
                    )
            return
        raise IllFormedError(f"not a formula: {phi!r}")
