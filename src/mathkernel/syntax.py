"""Terms, formulas, quotation names, and the definitional environment.

Negation is not a constructor: ~phi is stored as Implies(phi, Bot), and
phi <-> psi as And(Implies(phi, psi), Implies(psi, phi)).  Quotation is
opaque: a Quote term stands for a named formula bound in an Environment,
and resolving a name never unfolds quotations inside the body.  Every
value class of the package is a frozen record of its fields, made by one
rule (``record``, on the base ``Record``).  One loop gives each formula
node class its terms, and ``_Node`` its cached hash, ``ASCRIPTIONS`` holds
each written ascription name, ``M`` to ``sim``, and one table the arity a
quotation must have in a ``T``, ``H`` or ``sim`` leaf.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence, Union, get_args


class IllFormedError(Exception):
    """A formula violates arity or binding discipline."""


class DefinitionError(Exception):
    """A quotation name or domain declaration is rejected."""


# ---------------------------------------------------------------------------
# records


def _field_tuple(names: tuple[str, ...]) -> Callable[["Record"], tuple]:
    """The function from a record whose fields are ``names`` to the tuple of
    those fields, also for none or one."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """Base of every value class: a frozen record of its fields, made by
    ``record``.  A record hashes, prints and pickles as its fields: the
    hash of their tuple, the text ``Class(field=value, ...)``, and a
    rebuild from them.  Assigning or deleting an attribute raises
    AttributeError, and no record has a ``__dict__``."""

    __slots__ = ()

    _fields: Callable[["Record"], tuple]  # set on each class by ``record``

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


def record(name: str, bases: tuple, ns: dict) -> type:
    """The metaclass of every value class, written ``class
    C(metaclass=record)``: a class of ``bases``, or of ``Record`` if none
    is written, whose fields are the names annotated in its body, in order;
    a value written after an annotation is that field's default.  The class
    gets one slot per field, ``__match_args__``, ``_fields`` and, generated
    once, an ``__init__`` and an ``__eq__``.  The ``__init__`` takes each
    field by position or keyword, stores it through its slot descriptor,
    past the frozen ``__setattr__``, then calls ``__post_init__`` if the
    class defines one.  The ``__eq__`` holds between records of one class
    with equal fields.  A function, not a subclass of ``type``: a class
    whose type is ``type`` itself keeps the fast path of ``isinstance``."""
    names = tuple(ns.get("__annotations__", ()))
    defaults = {f"_d_{f}": ns.pop(f) for f in names if f in ns}
    ns["__slots__"] = ns["__match_args__"] = names
    cls = type(name, bases or (Record,), ns)
    scope = {f"_s_{f}": getattr(cls, f).__set__ for f in names}
    scope.update(defaults)
    params = "".join(f", {f}=_d_{f}" if f"_d_{f}" in defaults else f", {f}"
                     for f in names)
    stores = [f"_s_{f}(self, {f})" for f in names]
    if "__post_init__" in ns:
        stores.append("self.__post_init__()")
    mine = "".join(f"self.{f}, " for f in names)
    theirs = "".join(f"other.{f}, " for f in names)
    exec(f"def __init__(self{params}):\n"
         f"    {'; '.join(stores) or 'pass'}\n"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n", scope)
    cls.__init__, cls.__eq__ = scope["__init__"], scope["__eq__"]
    cls._fields = staticmethod(_field_tuple(names))
    return cls


# ---------------------------------------------------------------------------
# terms


class Var(metaclass=record):
    """A variable term."""
    name: str

    def __str__(self) -> str:
        return self.name


class Const(metaclass=record):
    """An object constant, declared with ``const`` or by a domain."""
    name: str

    def __str__(self) -> str:
        return self.name


class Quote(metaclass=record):
    """The quotation of a defined name, written `` `name` ``."""
    name: str

    def __str__(self) -> str:
        return f"`{self.name}`"


Term = Union[Var, Const, Quote]


# ---------------------------------------------------------------------------
# formulas


class _Node(Record):
    """Base of every formula node.  A node computes its hash, the hash of
    the tuple of its fields, and its free variables on first use and keeps
    each in a slot, so it neither builds that tuple nor walks the subtree
    again; ``==`` still compares fields.  Pickling and copying rebuild a
    node from its fields: no cached value leaves the process (string hashes
    are salted per process)."""

    __slots__ = ("_hash", "_fv")

    _terms: Callable[["_Node"], tuple]  # a node's terms; set on each class

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._fields(self))
            _set_hash(self, h)
        return h

    def __str__(self) -> str:
        return pformat(self)


# store a cached value past the frozen ``__setattr__``
_set_hash = _Node._hash.__set__
_set_fv = _Node._fv.__set__


class Bot(_Node, metaclass=record):
    """Falsum, ``bot``; ``BOT`` is its one instance."""


class Atom(_Node, metaclass=record):
    """A predicate applied to terms; nullary when ``args`` is empty."""
    pred: str
    args: tuple[Term, ...] = ()


class MApp(_Node, metaclass=record):
    """``M(t)``: the sentence ``t`` names is meaningful."""
    arg: Term


class AApp(_Node, metaclass=record):
    """``A(t)``: the sentence ``t`` names is assertible."""
    arg: Term


class TApp(_Node, metaclass=record):
    """``T(t)``: the sentence ``t`` names is true."""
    arg: Term


class HApp(_Node, metaclass=record):
    """``H(p, a)``: the concept ``p`` names holds of ``a``."""
    pred: Term
    arg: Term


class SimApp(_Node, metaclass=record):
    """``sim(p, q)``: the concepts ``p`` and ``q`` name are equivalent."""
    left: Term
    right: Term


class _Compound(_Node):
    """Base of the compound formulas."""

    __slots__ = ()


class And(_Compound, metaclass=record):
    """A conjunction, ``left & right``."""
    left: "Formula"
    right: "Formula"


class Or(_Compound, metaclass=record):
    """A disjunction, ``left | right``."""
    left: "Formula"
    right: "Formula"


class Implies(_Compound, metaclass=record):
    """An implication, ``left -> right``."""
    left: "Formula"
    right: "Formula"


class Forall(_Compound, metaclass=record):
    """A universal quantification, ``forall var. body``."""
    var: str
    body: "Formula"


class Exists(_Compound, metaclass=record):
    """An existential quantification, ``exists var. body``."""
    var: str
    body: "Formula"


Formula = Union[
    Bot, Atom, MApp, AApp, TApp, HApp, SimApp, And, Or, Implies, Forall, Exists
]

# written name -> the class of the leaves it ascribes to terms
ASCRIPTIONS = {"M": MApp, "A": AApp, "T": TApp, "H": HApp, "sim": SimApp}

for _cls in get_args(Formula):
    _cls._terms = staticmethod(attrgetter("args") if _cls is Atom else
                               _cls._fields if _cls in ASCRIPTIONS.values()
                               else _field_tuple(()))  # none in a compound

BOT = Bot()
_ATOMIC = (Bot, Atom, *ASCRIPTIONS.values())

# how many quotation leaves ``quoted`` keeps, the most recently used
QUOTED_CACHE_SIZE = 2048


@lru_cache(maxsize=QUOTED_CACHE_SIZE)
def quoted(ascription: str, name: str) -> Formula:
    """The one ``M``, ``A`` or ``T`` leaf (as ``ascription`` says) over the
    quotation of ``name``.  Equal arguments give the same object while it
    is among the ``QUOTED_CACHE_SIZE`` leaves last asked for, so that the
    kernel, the parser and the tactics build one leaf and compare it by
    identity."""
    return ASCRIPTIONS[ascription](Quote(name))


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
_PREC_ATOM = 10


def pformat(phi: Formula) -> str:
    """Render phi in the concrete grammar; parse(pformat(phi)) == phi."""
    if isinstance(phi, _ATOMIC):  # as the renderer would, without building one
        return _leaf_text(phi)
    return renderer()(phi)


# each leaf class but Atom -> its written name
_WRITTEN = {Bot: "bot", **{cls: name for name, cls in ASCRIPTIONS.items()}}


def _leaf_text(phi: Formula) -> str:
    """A leaf's predicate or written name, then its terms if it has any."""
    terms = phi._terms(phi)
    name = phi.pred if type(phi) is Atom else _WRITTEN[type(phi)]
    return f"{name}({', '.join(map(str, terms))})" if terms else name


def renderer() -> Callable[[Formula], str]:
    """A function that renders formulas as ``pformat`` does, with one memo
    for all of them: a node it meets again, in the same formula or a later
    one, at any precedence, is not walked again.  The memo is keyed by node
    identity and holds each node it has rendered, so no key is reused while
    the function lives; dropping the function drops the memo."""
    # id(node) -> (its text without outer parentheses, its precedence, node)
    memo: dict[int, tuple[str, int, Formula]] = {}

    def at(phi: Formula, prec: int) -> str:
        """phi where an operand of precedence at least prec is wanted."""
        hit = memo.get(id(phi))
        if hit is None:
            hit = memo[id(phi)] = (*layout(phi), phi)
        return hit[0] if hit[1] >= prec else f"({hit[0]})"

    def layout(phi: Formula) -> tuple[str, int]:
        if isinstance(phi, _ATOMIC):
            return _leaf_text(phi), _PREC_ATOM
        if isinstance(phi, (Forall, Exists)):
            kw = "forall" if isinstance(phi, Forall) else "exists"
            return f"{kw} {phi.var}. {at(phi.body, 0)}", 0
        two = as_iff(phi)
        if two is not None:
            return (f"{at(two[0], _PREC_IMP)} <-> {at(two[1], _PREC_IMP)}",
                    _PREC_IFF)
        if is_neg(phi):  # no operand asks for more than _PREC_NEG
            assert isinstance(phi, Implies)
            return f"~{at(phi.left, _PREC_NEG)}", _PREC_NEG
        if isinstance(phi, Implies):
            return (f"{at(phi.left, _PREC_IMP + 1)} -> "
                    f"{at(phi.right, _PREC_IMP)}", _PREC_IMP)
        if isinstance(phi, Or):
            return (f"{at(phi.left, _PREC_OR)} | {at(phi.right, _PREC_OR + 1)}",
                    _PREC_OR)
        if isinstance(phi, And):
            return (f"{at(phi.left, _PREC_AND)} & "
                    f"{at(phi.right, _PREC_AND + 1)}", _PREC_AND)
        raise TypeError(f"not a formula: {phi!r}")

    return lambda phi: at(phi, 0)


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
    fv = getattr(phi, "_fv", None)
    if fv is not None:
        return fv
    if isinstance(phi, (Forall, Exists)):
        fv = free_vars(phi.body)
        if phi.var in fv:
            fv = (fv - {phi.var}) or _EMPTY
    elif isinstance(phi, _Compound):
        fv = _union(free_vars(phi.left), free_vars(phi.right))
    elif isinstance(phi, _Node):
        fv = _EMPTY
        for t in phi._terms(phi):
            fv = _union(fv, term_vars(t))
    else:
        raise TypeError(f"not a formula: {phi!r}")
    _set_fv(phi, fv)
    return fv


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
        return type(phi)(*(_subst_term(t, sub) for t in phi._terms(phi)))
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
            for t in f._terms(f):
                if isinstance(t, Var) and t.name not in bound:
                    seen.setdefault(t.name)

    walk(phi, frozenset())
    return tuple(seen)


# ---------------------------------------------------------------------------
# definitional environment


class Definition(metaclass=record):
    """A defined name with its parameters and its body."""
    name: str
    params: tuple[str, ...]
    body: Formula

    @property
    def arity(self) -> int:
        return len(self.params)


class Domain(metaclass=record):
    """A domain predicate with its constants, possibly definite."""
    predicate: str
    constants: tuple[str, ...]
    definite: bool


class TotalExtension(metaclass=record):
    """The total extension of ``base`` over ``domain``, named ``extended``."""
    base: str
    domain: str
    extended: str


# one entry of ``Environment.declarations``; a string is a constant
# declared on its own
Declaration = Union[Domain, str, TotalExtension, Definition]


_RESERVED = {"bot", "forall", "exists", *ASCRIPTIONS, "def", "domain", "const",
             "enable", "hyp", "by", "definite", "extend", "over"}

# each leaf class whose quotations have a required arity -> one row per
# term, in field order: that arity (None: any) and the message for another
_QUOTE_ARITIES = {
    TApp: ((0, "T applied to quotation of arity {}; a sentence is required"),),
    HApp: ((1, "H requires a unary predicate quotation, got arity {}"),
           (None, "")),
    SimApp: ((1, "sim requires unary predicate quotations, got arity {}"),) * 2,
}


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
        # every domain, constant declared on its own, total extension and
        # definition, in the order it was made: a total extension covers
        # the constants declared before it, and a body reads as a constant
        # only a name declared before it
        self.declarations: list[Declaration] = []
        # id(node) -> node, for each compound node check_formula accepted;
        # keyed by identity, never by the node (an equality hit walks as far
        # as a check does), and a hit needs the stored node itself
        self._checked: dict[int, Formula] = {}
        # every name q1 .. q<n - 1> is bound, for n = _unbound_from
        self._unbound_from = 1

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
        if self._add_constant(name):
            self.declarations.append(name)

    def _add_constant(self, name: str) -> bool:
        """Add a constant to the universe; whether it is new."""
        if name in _RESERVED:
            raise IllFormedError(f"reserved word used as constant: {name}")
        if name in self.constants:
            return False
        self.constants.add(name)
        return True

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
            self._add_constant(c)
        dom = Domain(predicate, tuple(constants), definite)
        self.domains[predicate] = dom
        self.declarations.append(dom)
        return dom

    def declare_extension(self, ext: TotalExtension) -> None:
        """Register the total extension of ``ext.base``."""
        self.extensions[ext.base] = ext
        self.declarations.append(ext)

    # -- definitions

    def define(self, name: str, params: Sequence[str], body: Formula) -> Definition:
        """Bind name to body, which may quote name; ``check_formula`` rejects
        any other unbound quotation, and a rejected body binds nothing."""
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
        # bind provisionally: the check below is the one quotation check
        self.definitions[name] = d
        try:
            self.check_formula(body)
        except IllFormedError:
            del self.definitions[name]
            self._checked.clear()
            raise
        self._names.setdefault((d.params, body), name)
        self.declarations.append(d)
        return d

    def name_of(self, params: tuple[str, ...], body: Formula) -> Optional[str]:
        """The first name defined with exactly these parameters and body."""
        return self._names.get((params, body))

    def is_bound(self, name: str) -> bool:
        return name in self.definitions

    def fresh_name(self) -> str:
        """The least name ``q<n>``, n >= 1, that is not bound.  Names are
        only added, and ``define`` unbinds only the name it was binding, so
        every name below the last one handed out stays bound."""
        n = self._unbound_from
        while f"q{n}" in self.definitions:
            n += 1
        self._unbound_from = n
        return f"q{n}"

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
        if isinstance(phi, (MApp, AApp)):  # the hot leaves: no arity to check
            self.check_term(phi.arg)
            return
        rows = _QUOTE_ARITIES.get(type(phi))
        if rows is None:
            raise IllFormedError(f"not a formula: {phi!r}")
        for t, (arity, message) in zip(phi._terms(phi), rows):
            self.check_term(t)
            if arity is not None and type(t) is Quote:
                a = self.definitions[t.name].arity
                if a != arity:
                    raise IllFormedError(message.format(a))
