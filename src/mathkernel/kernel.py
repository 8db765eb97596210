"""The trusted checker.

Eleven logical axiom schemes (L1..L11) for the intuitionistic predicate
calculus, three deduction rules (modus ponens and the two generalization
rules), the theory schemes for meaningfulness (M), assertibility (A),
truth (T), holding (H) and concept equivalence (sim), and gated extension
schemes that are unsound in general and must be enabled explicitly.

Every scheme is one entry of the registry ``SCHEMES``: its kind (logical,
theory or extension), the kinds of its parameters, one function that
builds its instance and, for a scheme given by a pattern, the pattern and
the matcher generated from it.  A generic check runs before every instance
function: it checks the number of parameters, then, in order, each one's
Python type for its kind, that a quotation name is bound, a domain
declared and a total extension registered, and, given an environment, that
a formula or term is well formed.  The instance functions check only the
side conditions of their scheme.  ``LOGICAL_PARAMS``, ``THEORY_PARAMS``,
``EXTENSION_PARAMS`` and ``EXTENSION_SCHEMES`` are views of the registry.

L1..L9 are patterns over metavariables; eighteen theory and extension
schemes (MComp1..4, MQuant1..3, MBot, MofM, MofA, ALog, AMP, AtoM, Capture,
TDef, TNeg, ReleaseAxiom, UnrestrictedT) are patterns of the bodies their
names resolve to, and ALog's body must also be a logical axiom instance
(``is_log_instance``).  ``_from_pattern`` makes the row of each: at import,
one generator writes from the pattern a constructor and a matcher in
straight-line code, and the pattern gives the parameter kinds.  Every
matcher is ``match(env, phi, params)``: whether phi is the instance for
``params``, building nothing.  An L1..L9 matcher binds each metavariable
where it first occurs and returns the values it found when ``params`` is
None (``is_log_instance``) or equals them, formula for formula.

``check_proof`` reads the class of each step's justification once and runs
its one branch, which opens by testing that each field has exactly its
annotated Python type (a bool is no step index).  Every step that cites a
scheme takes one branch: it is done when its scheme's matcher accepts it
(an extension step then still passes the grant gate); otherwise one call
of ``_instantiate`` checks its parameters in the environment and builds
the instance to compare.  A modus ponens step is compared with its major
premise's fields, so a matched or modus ponens step builds no formula.
While no step is ill formed, a modus ponens step that states the very
consequent object of the earlier major premise it cites is not checked for
well-formedness again: the premise's check covered that object.
``check_proof`` lets no step cite an ill-formed hypothesis or step,
rejects a step in one way, by raising at the first failed condition, and
has one gate for the header's extension grants, shared by ``ByExtension``
and ``ByRelease``; ``extension_grant`` and ``release`` give the grant
subjects, to the checker and to the proof builder alike.  The kernel
declares nothing: the ``Environment`` holds every name, domain and total
extension a step cites.

A rejection renders no formula until its text is read: the messages that
print one (a modus ponens mismatch, a stated formula that differs, an
extension not enabled) are SchemeErrors that keep a format string and its
values.  Every fault ``check_proof`` finds is one pair, its step index
(None for the proof) and the exception that names it, without the
traceback; ``ProofCheckError`` holds the pairs and makes its ``errors``
and its text from them when they are first read.

Quoted-formula side conditions are checked by syntactic equality after one
level of name resolution: quotation terms inside resolved bodies are never
unfolded further.  The theory schemes build each ``M``, ``A`` and ``T`` leaf
over a quotation with ``syntax.quoted``, so it is the object a parsed step
or the proof builder holds, and comparing the two stops at it.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from typing import Callable, Iterable, Optional, Sequence, Union, get_args

from .syntax import (
    ASCRIPTIONS,
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
    Formula,
    HApp,
    IllFormedError,
    Implies,
    MApp,
    Or,
    Quote,
    SimApp,
    TApp,  # named by the code generated from the TDef and TNeg patterns
    Term,
    Var,
    captures,
    free_vars,
    iff,
    neg,
    quoted,
    record,
    substitute,
)


class SchemeError(Exception):
    """Malformed scheme parameters or a violated side condition.  Given
    values after its message, the message is a format string they fill in
    when the text is read, so a verdict no one prints renders no formula."""

    def __str__(self) -> str:
        if len(self.args) > 1:
            return self.args[0].format(*self.args[1:])
        return super().__str__()


class Scheme(metaclass=record):
    """An axiom scheme: its kind, parameter kinds and instance function,
    and the matcher and pattern of a scheme given by a pattern."""
    kind: str  # "logical", "theory" or "extension"
    # parameter kinds: f formula, t term, v variable, n quotation name,
    # d domain, p predicate with a total extension; a trailing "k*" stands
    # for one or more parameters of kind k
    params: tuple[str, ...]
    instance: Callable[..., Formula]  # (env, *params) -> the instance
    match: Optional[Callable] = None  # generated from the pattern
    pattern: Union[Formula, _NamePattern, None] = None


# ---------------------------------------------------------------------------
# the generic parameter check


_FORMULAS = frozenset(get_args(Formula))
_TERMS = frozenset(get_args(Term))
_KIND_NAMES = {"v": "a variable", "n": "a quotation name", "d": "a domain",
               "p": "a predicate name"}


def expand_params(kinds: Sequence[str], n: int) -> tuple[str, ...]:
    """The kinds of ``n`` parameters of a scheme whose signature is
    ``kinds``, or SchemeError if the scheme cannot take ``n``."""
    if kinds and kinds[-1].endswith("*"):
        if n < len(kinds):
            raise SchemeError(
                f"expected at least {len(kinds)} parameters, got {n}")
        return (*kinds[:-1], *[kinds[-1][:-1]] * (n - len(kinds) + 1))
    if n != len(kinds):
        raise SchemeError(f"expected {len(kinds)} parameters, got {n}")
    return tuple(kinds)


def _check_params(env: Optional[Environment], kinds: Sequence[str],
                  params: Sequence) -> None:
    if not isinstance(params, (tuple, list)):
        raise SchemeError(f"expected a tuple of parameters, got {params!r}")
    for kind, p in zip(expand_params(kinds, len(params)), params):
        if kind == "f":
            if type(p) not in _FORMULAS:
                raise SchemeError(f"expected a formula, got {p!r}")
            if env is not None:
                env.check_formula(p)
        elif kind == "t":
            if type(p) not in _TERMS:
                raise SchemeError(f"expected a term, got {p!r}")
            if env is not None:
                env.check_term(p)
        elif not isinstance(p, str):
            raise SchemeError(f"expected {_KIND_NAMES[kind]}, got {p!r}")
        elif kind == "n":
            env.definition(p)  # raises if unbound
        elif kind == "d" and p not in env.domains:
            raise SchemeError(f"{p} is not a declared domain")
        elif kind == "p" and p not in env.extensions:
            raise SchemeError(f"no total extension registered for {p}")


def _instantiate(kind: str, env: Optional[Environment], scheme: str,
                 params: Sequence) -> Formula:
    s = SCHEMES.get(scheme)
    if s is None or s.kind != kind:
        raise SchemeError(f"unknown {kind} scheme: {scheme}")
    try:
        _check_params(env, s.params, params)
        return s.instance(env, *params)
    except SchemeError as exc:
        raise SchemeError(f"{scheme}: {exc}") from None


def logical_instance(scheme: str, params: Sequence) -> Formula:
    """The exact instance of a logical scheme for the given parameters."""
    return _instantiate("logical", None, scheme, params)


def theory_instance(env: Environment, scheme: str, params: Sequence) -> Formula:
    """The exact instance of a theory scheme, or SchemeError naming the
    violated side condition."""
    return _instantiate("theory", env, scheme, params)


def extension_instance(env: Environment, scheme: str, params: Sequence) -> Formula:
    return _instantiate("extension", env, scheme, params)


# ---------------------------------------------------------------------------
# logical schemes


def _instance_at(body: Formula, x: str, t: Term) -> Formula:
    """body[t/x], for the quantifier axioms L10 and L11."""
    if captures(body, x, t):
        raise SchemeError(f"substituting {t} for {x} would capture a variable")
    return substitute(body, x, t)


def _match_subst(body: Formula, x: str, g: Formula) -> Optional[Term]:
    """The t with body[t/x] == g, without renaming any binder, if any: the
    term of g where x first occurs free in body, or x if it does not."""
    x_var, t, pairs = Var(x), None, [(body, g)]
    while pairs and t is None:
        f, h = pairs.pop()
        if type(f) is not type(h):
            return None
        if isinstance(f, (And, Or, Implies)):
            pairs += [(f.right, h.right), (f.left, h.left)]
        elif isinstance(f, (Forall, Exists)):
            if f.var != x:
                pairs.append((f.body, h.body))
        else:
            t = next((u for s, u in zip(f._terms(f), h._terms(h))
                      if s == x_var), None)
    if t is None:
        t = x_var
    if captures(body, x, t) or substitute(body, x, t) != g:
        return None
    return t


def is_log_instance(phi: Formula) -> Optional[tuple[str, tuple]]:
    """A witness (scheme, params) if phi is an L1..L11 axiom instance."""
    for name, match in _LOG_MATCHERS.items():
        found = match(None, phi, None)
        if found is not None:
            return (name, found)
    if not isinstance(phi, Implies):
        return None
    l, r = phi.left, phi.right
    # L10: (forall x. b) -> b[t/x]
    if isinstance(l, Forall):
        t = _match_subst(l.body, l.var, r)
        if t is not None:
            return ("L10", (l.var, l.body, t))
    # L11: b[t/x] -> (exists x. b)
    if isinstance(r, Exists):
        t = _match_subst(r.body, r.var, l)
        if t is not None:
            return ("L11", (r.var, r.body, t))
    return None


# ---------------------------------------------------------------------------
# theory schemes


_m = partial(quoted, "M")  # M(`q`)
_a = partial(quoted, "A")  # A(`q`)
_t = partial(quoted, "T")  # T(`q`)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemeError(message)


def _sentence(env: Environment, *names: str) -> None:
    for name in names:
        _expect(env.arity(name) == 0,
                f"{name} has arity {env.arity(name)}; a sentence is required")


def _unary(env: Environment, name: str) -> None:
    _expect(env.arity(name) == 1,
            f"{name} has arity {env.arity(name)}; a unary predicate is "
            "required")


def _object(env: Environment, c: Term) -> None:
    _expect(isinstance(c, Const) and c.name in env.constants,
            "the witness must be a declared object constant")


def generalize(premise: Formula, x: str, y: str, forall: bool) -> Formula:
    """The conclusion of generalizing ``premise`` over ``x``, renamed to
    ``y``: from ctx -> gen, ctx -> (forall y. gen[y/x]) if ``forall``; from
    gen -> ctx, (exists y. gen[y/x]) -> ctx otherwise.  SchemeError names
    the violated side condition.  A hypothesis is an extra axiom, its free
    variables read universally (Mendelson, Introduction to Mathematical
    Logic, ch. 2): from the hypothesis P(x), Q -> P(x) generalizes over x,
    and the tactics refuse to discharge P(x)."""
    if not isinstance(premise, Implies):
        raise SchemeError("generalization premise is not an implication")
    if forall:
        ctx, gen = premise.left, premise.right
    else:
        gen, ctx = premise.left, premise.right
    if x in free_vars(ctx):
        raise SchemeError(f"{x} occurs free in the fixed side of the premise")
    if y != x and y in free_vars(gen):
        raise SchemeError(
            f"{y} occurs free in the generalized side of the premise")
    if captures(gen, x, Var(y)):
        raise SchemeError(f"renaming {x} to {y} would capture a variable")
    shifted = substitute(gen, x, Var(y))
    if forall:
        return Implies(ctx, Forall(y, shifted))
    return Implies(Exists(y, shifted), ctx)


def release(env: Environment, premise: Formula) -> Formula:
    """The conclusion of the release rule from ``premise``: from A(`q`),
    the body of q.  SchemeError when the premise is not A of a quotation."""
    if not (isinstance(premise, AApp) and isinstance(premise.arg, Quote)):
        raise SchemeError("release premise is not an assertibility "
                          "ascription of a quotation")
    return env.resolve(premise.arg.name)


def _agen(env: Environment, qimp: str, qres: str, x: str, y: str,
          forall: bool) -> Formula:
    _expect(env.resolve(qres) == generalize(env.resolve(qimp), x, y, forall),
            f"body of {qres} is not the generalization of {qimp}")
    return Implies(_a(qimp), _a(qres))


def _forall_capture(env: Environment, dom_name: str, pred: str, quniv: str,
                    *insts: str) -> Formula:
    dom = env.domains[dom_name]
    _unary(env, pred)
    _sentence(env, quniv, *insts)
    _expect(len(insts) == len(dom.constants),
            f"{len(insts)} instances given for the {len(dom.constants)} "
            f"constants of {dom_name}")
    for qi, c in zip(insts, dom.constants):
        _expect(env.resolve(qi) == env.instantiate(pred, [Const(c)]),
                f"body of {qi} is not {pred} applied to {c}")
    bu = env.resolve(quniv)
    _expect(isinstance(bu, Forall),
            f"body of {quniv} is not universally quantified")
    x = bu.var
    _expect(bu.body == Implies(Atom(dom.predicate, (Var(x),)),
                               env.instantiate(pred, [Var(x)])),
            f"body of {quniv} does not relativize {pred} to {dom_name}")
    return Implies(reduce(And, [_a(q) for q in insts]), _a(quniv))


def _holding_instance(env: Environment, pred: str, c: Term, qinst: str,
                      qlast: str) -> Formula:
    """pred applied to c, which qinst must name; for HDef and HNeg."""
    _unary(env, pred)
    _sentence(env, qinst, qlast)
    inst = env.instantiate(pred, [c])
    _expect(env.resolve(qinst) == inst,
            f"body of {qinst} is not {pred} applied to {c}")
    return inst


def _hdef(env: Environment, pred: str, c: Term, qinst: str,
          qlast: str) -> Formula:
    inst = _holding_instance(env, pred, c, qinst, qlast)
    _expect(env.resolve(qlast) == iff(HApp(Quote(pred), c), inst),
            f"body of {qlast} is not the holding biconditional")
    return Implies(_m(qinst), _a(qlast))


def _hneg(env: Environment, pred: str, c: Term, qinst: str,
          qlast: str) -> Formula:
    _holding_instance(env, pred, c, qinst, qlast)
    _expect(env.resolve(qlast) == neg(HApp(Quote(pred), c)),
            f"body of {qlast} is not the negated holding ascription")
    return Implies(neg(_m(qinst)), _a(qlast))


def _simdef(env: Environment, qp: str, qq: str, quniv: str,
            qbic: str) -> Formula:
    _unary(env, qp)
    _unary(env, qq)
    _sentence(env, quniv, qbic)
    bu = env.resolve(quniv)
    _expect(isinstance(bu, Forall),
            "the extensional-equivalence body is not quantified")
    x = bu.var
    _expect(bu.body == iff(env.instantiate(qp, [Var(x)]),
                           env.instantiate(qq, [Var(x)])),
            f"body of {quniv} is not the pointwise biconditional of {qp} "
            f"and {qq}")
    _expect(env.resolve(qbic)
            == iff(SimApp(Quote(qp), Quote(qq)), _t(quniv)),
            f"body of {qbic} is not the concept-equivalence biconditional")
    return Implies(And(_m(qp), _m(qq)), _a(qbic))


def _definite_em(env: Environment, dom_name: str, c: Term) -> Formula:
    dom = env.domains[dom_name]
    _expect(dom.definite, f"domain {dom_name} is not definite")
    _object(env, c)
    at = Atom(dom.predicate, (c,))
    return Or(at, neg(at))


def _total_atoms(env: Environment, base: str,
                 c: Term) -> tuple[Formula, Formula]:
    """The domain atom and the extended atom at c, for TotalExtPos/Neg."""
    _object(env, c)
    ext = env.extensions[base]
    return Atom(env.domains[ext.domain].predicate, (c,)), Atom(ext.extended, (c,))


def _total_ext_pos(env: Environment, base: str, c: Term) -> Formula:
    rho, rtil = _total_atoms(env, base, c)
    return Implies(rho, iff(rtil, Atom(base, (c,))))


def _total_ext_neg(env: Environment, base: str, c: Term) -> Formula:
    rho, rtil = _total_atoms(env, base, c)
    return Implies(neg(rho), iff(rtil, BOT))


def _total_ext_m(env: Environment, base: str, c: Term) -> Formula:
    _object(env, c)
    name = env.extensions[base].name_at(c.name)
    env.definition(name)  # raises for a constant declared after the extension
    return _m(name)


# ---------------------------------------------------------------------------
# the registry, and the code generated from its patterns


_WRITTEN = {cls: name for name, cls in ASCRIPTIONS.items()}  # for ``quoted``


class _NamePattern(metaclass=record):
    """A scheme given by the patterns of the bodies its names resolve to."""
    conclusion: Formula  # the instance
    params: dict  # each name, in order -> its body's pattern; None: a variable
    message: str = ""  # the one side condition, violated
    sentences: str = ""  # the names that must name sentences
    axioms: str = ""  # the metavariables that must be L1..L11 instances


def _source(pattern: Union[Formula, _NamePattern]) -> str:
    """The text of the functions generated from a scheme's pattern.

    Every metavariable is bound where it first occurs and compared with
    the subformula wherever it occurs again.  An L1..L9 pattern is a
    formula whose slots are its metavariables, in sorted order:
    ``match(_env, phi, params)`` finds the values of the slots for which
    ``build(_env, a, ...)`` gives ``phi`` and returns them when ``params``
    is None, or is a tuple of formulas equal to them; else None.

    A ``_NamePattern`` maps each parameter's name, in order, to the pattern
    of the body it names, or to None for a variable.  ``bodies(defs, ...)``
    gives the metavariables' values if each name is bound, the
    ``sentences`` name sentences, each body matches and the ``axioms`` are
    logical axiom instances (``is_log_instance``), else None;
    ``build(env, ...)`` returns the instance, ``conclusion``, or raises
    SchemeError with ``message``; ``match(env, phi, params)`` says whether
    ``build`` would give ``phi``, building nothing.  A subformula is named
    by its path: l for a node's first field, r for its second."""
    tup = lambda names: f"{', '.join(names)}{',' if len(names) == 1 else ''}"

    def walk(p, x: str, fail: str, seen: dict, lines: list) -> str:
        # add the lines that match x against p; return what builds p
        if type(p) is str:  # a metavariable, or a parameter's name
            lines.append(f"    if not ({p} is {x} or {p} == {x}): {fail}"
                         if p in seen else f"    {p} = {x}")
            seen[p] = None
            return p
        cls = type(p)
        if cls in _WRITTEN and type(p.arg) is Quote:  # over a name's quotation
            lines.append(f"    if not (type({x}) is {cls.__name__} and type("
                         f"{x}.arg) is Quote and {x}.arg.name == {p.arg.name}):"
                         f" {fail}")
            return f"quoted({_WRITTEN[cls]!r}, {p.arg.name})"
        lines.append(f"    if type({x}) is not {cls.__name__}: {fail}")
        if cls is Bot:
            return "BOT"
        kids = []
        for side, field in zip("lr", cls.__match_args__):
            path = side if x in ("phi", "body") else x + side
            lines.append(f"    {path} = {x}.{field}")
            kids.append(walk(getattr(p, field), path, fail, seen, lines))
        return f"{cls.__name__}({', '.join(kids)})"

    if not isinstance(pattern, _NamePattern):
        lines, seen = [], {}
        built = walk(pattern, "phi", "return None", seen, lines)
        slots = sorted(seen)
        formulas = " and ".join(f"type(params[{i}]) in _FORMULAS"
                                for i in range(len(slots)))
        return "\n".join([
            "def match(_env, phi, params):", *lines,
            f"    found = {tup(slots)}",
            f"    if params is None or params == found and {formulas}:"
            " return found",
            "    return None",
            f"def build(_env, {', '.join(slots)}):", f"    return {built}", ""])

    slots, sentences = pattern.params, pattern.sentences.split()
    lines, seen = [], dict.fromkeys(slots)
    for q, body in slots.items():
        if body is not None:
            lines += [f"    d = defs.get({q})", "    if d is None"
                      f"{' or d.params' * (q in sentences)}: return None",
                      "    body = d.body"]
            walk(body, "body", "return None", seen, lines)
    lines += [f"    if is_log_instance({a}) is None: return None"
              for a in pattern.axioms.split()]
    found = tup(list(seen)[len(slots):])  # the metavariables, as bound
    checks: list[str] = []
    built = walk(pattern.conclusion, "phi", "return False", seen, checks)
    names = ", ".join(slots)
    return "\n".join([
        f"def bodies(defs, {names}):", *lines, f"    return ({found})",
        f"def build(env, {names}):",
        *[f"    _sentence(env, {', '.join(sentences)})"] * bool(sentences),
        f"    found = bodies(env.definitions, {names})",
        f"    if found is None: raise SchemeError(f{pattern.message!r})",
        *[f"    {found} = found"] * bool(found), f"    return {built}",
        "def match(env, phi, params):",
        f"    if len(params) != {len(slots)}: return False",
        f"    {tup(slots)} = params",
        f"    if {' or '.join(f'type({q}) is not str' for q in slots)}:"
        " return False",
        f"    found = bodies(env.definitions, {names})",
        "    if found is None: return False",
        *[f"    {found} = found"] * bool(found), *checks, "    return True", ""])


def _from_pattern(kind: str, pattern: Union[Formula, _NamePattern]) -> Scheme:
    """The row of a scheme given by a pattern, with the constructor and the
    matcher ``_source`` writes from it; its parameters are a formula per
    metavariable, or a quotation name per body and a variable per None."""
    code = dict(globals())  # a namespace of its own, for its own ``bodies``
    exec(_source(pattern), code)
    if isinstance(pattern, _NamePattern):
        kinds = tuple("v" if b is None else "n" for b in pattern.params.values())
    else:  # a formula per metavariable: build's parameters after _env
        kinds = ("f",) * (code["build"].__code__.co_argcount - 1)
    return Scheme(kind, kinds, code["build"], code["match"], pattern)


SCHEMES: dict[str, Scheme] = {
    "L1": _from_pattern("logical", Implies("a", Implies("b", "a"))),
    "L2": _from_pattern("logical", Implies(
        Implies("a", Implies("b", "c")),
        Implies(Implies("a", "b"), Implies("a", "c")))),
    "L3": _from_pattern("logical", Implies("a", Implies("b", And("a", "b")))),
    "L4": _from_pattern("logical", Implies(And("a", "b"), "a")),
    "L5": _from_pattern("logical", Implies(And("a", "b"), "b")),
    "L6": _from_pattern("logical", Implies("a", Or("a", "b"))),
    "L7": _from_pattern("logical", Implies("b", Or("a", "b"))),
    "L8": _from_pattern("logical", Implies(
        Implies("a", "c"), Implies(Implies("b", "c"), Implies(Or("a", "b"), "c")))),
    "L9": _from_pattern("logical", Implies(BOT, "a")),
    "L10": Scheme("logical", ("v", "f", "t"),
                  lambda _, x, b, t: Implies(Forall(x, b), _instance_at(b, x, t))),
    "L11": Scheme("logical", ("v", "f", "t"),
                  lambda _, x, b, t: Implies(_instance_at(b, x, t), Exists(x, b))),
    "MComp1": _from_pattern("theory", _NamePattern(
        Implies(And(_m("qa"), _m("qb")), _m("qand")),
        {"qa": "a", "qb": "b", "qand": And("a", "b")},
        "body of {qand} is not the conjunction of {qa} and {qb}")),
    "MComp2": _from_pattern("theory", _NamePattern(
        Implies(_m("qand"), _m("qor")), {"qand": And("a", "b"), "qor": Or("a", "b")},
        "{qand} and {qor} are not a matching conjunction/disjunction")),
    "MComp3": _from_pattern("theory", _NamePattern(
        Implies(_m("qor"), _m("qimp")),
        {"qor": Or("a", "b"), "qimp": Implies("a", "b")},
        "{qor} and {qimp} are not a matching disjunction/implication")),
    "MComp4": _from_pattern("theory", _NamePattern(
        Implies(_m("qimp"), And(_m("qa"), _m("qb"))),
        {"qimp": Implies("a", "b"), "qa": "a", "qb": "b"},
        "body of {qimp} is not the implication from {qa} to {qb}")),
    "MQuant1": _from_pattern("theory", _NamePattern(
        Implies(_m("q1"), _m("q2")), {"q1": "a", "q2": Forall("x", "a"), "x": None},
        "body of {q2} is not (forall {x}) applied to {q1}")),
    "MQuant2": _from_pattern("theory", _NamePattern(
        Implies(_m("q1"), _m("q2")),
        {"q1": Forall("x", "a"), "q2": Exists("x", "a"), "x": None},
        "{q1} and {q2} are not matching forall/exists bodies")),
    "MQuant3": _from_pattern("theory", _NamePattern(
        Implies(_m("q1"), _m("q2")), {"q1": Exists("x", "a"), "q2": "a", "x": None},
        "body of {q1} is not (exists {x}) applied to {q2}")),
    "MBot": _from_pattern("theory", _NamePattern(
        _m("q"), {"q": BOT}, "body of {q} is not bot")),
    "MofM": _from_pattern("theory", _NamePattern(
        _m("q"), {"q": MApp("t")}, "body of {q} is not a meaningfulness ascription")),
    "MofA": _from_pattern("theory", _NamePattern(
        _m("q"), {"q": AApp("t")}, "body of {q} is not an assertibility ascription")),
    "ALog": _from_pattern("theory", _NamePattern(
        Implies(_m("q"), _a("q")), {"q": "a"},
        "body of {q} is not a logical axiom instance", axioms="a")),
    "AMP": _from_pattern("theory", _NamePattern(
        Implies(And(_a("qphi"), _a("qimp")), _a("qpsi")),
        {"qphi": "a", "qpsi": "b", "qimp": Implies("a", "b")},
        "body of {qimp} is not the implication from {qphi} to {qpsi}")),
    "AGenF": Scheme("theory", ("n", "n", "v", "v"), partial(_agen, forall=True)),
    "AGenE": Scheme("theory", ("n", "n", "v", "v"), partial(_agen, forall=False)),
    "AtoM": _from_pattern("theory", _NamePattern(
        Implies(_a("q"), _m("q")), {"q": "a"})),
    "ForallCapture": Scheme("theory", ("d", "n", "n", "n*"), _forall_capture),
    "Capture": _from_pattern("theory", _NamePattern(
        Implies(_m("q"), Implies("a", _a("q"))), {"q": "a"}, sentences="q")),
    "TDef": _from_pattern("theory", _NamePattern(
        Implies(_m("q"), _a("qbic")), {"q": "a", "qbic": iff(_t("q"), "a")},
        "body of {qbic} is not the truth biconditional for {q}", "q qbic")),
    "TNeg": _from_pattern("theory", _NamePattern(
        Implies(neg(_m("q")), _a("qneg")), {"q": "a", "qneg": neg(_t("q"))},
        "body of {qneg} is not the negated truth ascription for {q}", "q qneg")),
    "HDef": Scheme("theory", ("n", "t", "n", "n"), _hdef),
    "HNeg": Scheme("theory", ("n", "t", "n", "n"), _hneg),
    "SimDef": Scheme("theory", ("n", "n", "n", "n"), _simdef),
    "DefiniteEM": Scheme("theory", ("d", "t"), _definite_em),
    "TotalExtPos": Scheme("theory", ("p", "t"), _total_ext_pos),
    "TotalExtNeg": Scheme("theory", ("p", "t"), _total_ext_neg),
    "TotalExtM": Scheme("theory", ("p", "t"), _total_ext_m),
    "ReleaseAxiom": _from_pattern("extension", _NamePattern(
        Implies(_a("q"), "a"), {"q": "a"}, sentences="q")),
    "UnrestrictedT": _from_pattern("extension", _NamePattern(
        iff(_t("q"), "a"), {"q": "a"}, sentences="q")),
}


def _table(kind: str, field: str) -> dict:
    """Each scheme of ``kind`` that has a ``field``, to its value."""
    return {name: getattr(s, field) for name, s in SCHEMES.items()
            if s.kind == kind and getattr(s, field) is not None}


LOGICAL_PARAMS = _table("logical", "params")
THEORY_PARAMS = _table("theory", "params")
EXTENSION_PARAMS = _table("extension", "params")
# ReleaseRule is a rule, not a scheme, but is gated like the extension schemes
EXTENSION_SCHEMES = tuple(sorted([*EXTENSION_PARAMS, "ReleaseRule"]))
# the L1..L9 matchers that is_log_instance runs with params None
_LOG_MATCHERS = _table("logical", "match")


# ---------------------------------------------------------------------------
# proofs


class ByHyp(metaclass=record):
    """Justification: a hypothesis of the proof."""
    index: int  # 0-based into Proof.hypotheses


class ByLogical(metaclass=record):
    """Justification: an instance of a logical axiom scheme."""
    scheme: str
    params: tuple


class ByTheory(metaclass=record):
    """Justification: an instance of an axiom scheme of the theory."""
    scheme: str
    params: tuple


class ByMP(metaclass=record):
    """Justification: modus ponens from two earlier steps."""
    minor: int  # step proving phi
    major: int  # step proving phi -> psi


class ByGenF(metaclass=record):
    """Justification: the forall generalization rule on an earlier step."""
    premise: int
    var: str
    to_var: str


class ByGenE(metaclass=record):
    """Justification: the exists generalization rule on an earlier step."""
    premise: int
    var: str
    to_var: str


class ByExtension(metaclass=record):
    """Justification: an instance of a gated extension scheme."""
    scheme: str
    params: tuple


class ByRelease(metaclass=record):
    """Justification: the release rule applied to an earlier step."""
    premise: int


Justification = Union[
    ByHyp, ByLogical, ByTheory, ByMP, ByGenF, ByGenE, ByExtension, ByRelease
]
# each justification that cites a scheme -> the kind of its schemes
_KINDS = {ByLogical: "logical", ByTheory: "theory", ByExtension: "extension"}
# the generated matchers check_proof calls, per justification class
_MATCHERS = {cls: _table(kind, "match") for cls, kind in _KINDS.items()}


def _ill_typed(just: Justification) -> SchemeError:
    """The error naming the first field of ``just`` whose Python type is not
    the one it is annotated with; for a justification found ill typed."""
    for name, kind in type(just).__annotations__.items():
        value = getattr(just, name)
        if type(value) is not {"int": int, "str": str, "tuple": tuple}[kind]:
            return SchemeError(f"{type(just).__name__}.{name} must be "
                               f"{kind}, got {value!r}")


class Step(metaclass=record):
    """One line of a proof: a formula and its justification."""
    formula: Formula
    just: Justification


class ExtensionGrant(metaclass=record):
    """Leave to use an extension scheme, for one formula or all."""
    scheme: str
    formula: Optional[Formula] = None  # None grants every instance

    def __str__(self) -> str:
        if self.formula is None:
            return self.scheme
        return f"{self.scheme}({self.formula})"


class Proof(metaclass=record):
    """Hypotheses, steps and the extension grants the steps may use."""
    hypotheses: tuple[Formula, ...]
    steps: tuple[Step, ...]
    enabled: frozenset[ExtensionGrant] = frozenset()


class Judgment(metaclass=record):
    """What a checked proof establishes, with the grants it used."""
    hypotheses: tuple[Formula, ...]
    conclusion: Formula
    extensions_used: tuple[ExtensionGrant, ...]


class StepError(metaclass=record):
    """A fault ``check_proof`` found, at a step or in the proof."""
    index: Optional[int]  # 0-based step index; None for proof-level errors
    message: str

    def __str__(self) -> str:
        where = "proof" if self.index is None else f"step {self.index + 1}"
        return f"{where}: {self.message}"


class ProofCheckError(Exception):
    """The faults of a proof, its one argument: each the index of its step
    (None for the proof) and the exception that names it.  Their
    ``errors``, a StepError each, and the text are made on first read, so a
    verdict no one prints renders no formula; a pickle or a copy carries
    the faults, and the ``errors`` once read."""

    @cached_property
    def errors(self) -> tuple[StepError, ...]:
        return tuple(StepError(i, str(exc)) for i, exc in self.args[0])

    def __str__(self) -> str:
        return "; ".join(map(str, self.errors))


def _fault(index: Optional[int],
           exc: Exception) -> tuple[Optional[int], Exception]:
    """``exc`` as a fault at ``index``, without its traceback or the exception
    it was raised in, so no reference cycle runs through a checker frame."""
    exc.__traceback__ = exc.__context__ = None
    return index, exc


def extension_grant(env: Environment, scheme: str,
                    params: Sequence) -> ExtensionGrant:
    """The grant a ``ByExtension`` step of ``scheme`` needs: the gate
    subject is the sentence its first parameter names."""
    return ExtensionGrant(scheme, env.resolve(params[0]))


def check_proof(env: Environment, proof: Proof,
                granted: Optional[Iterable[str]] = None) -> Judgment:
    """Validate every step of a proof against its justification.

    ``granted`` is the second gate on extension schemes: when given, any
    extension enabled by the proof header must also be named there.  Raises
    ProofCheckError with per-step errors on any violation.
    """
    faults: list[tuple[Optional[int], Exception]] = []
    steps = proof.steps
    if not steps:
        raise ProofCheckError([(None, SchemeError("a proof must have steps"))])
    if granted is not None:
        allowed = set(granted)
        for g in proof.enabled:
            if g.scheme not in allowed:
                faults.append((None, SchemeError(
                    f"extension {g.scheme} enabled by the header but not "
                    "granted by the caller")))
    # the hypotheses and steps whose formula is ill formed, which none may cite
    ill_hyps: set[int] = set()
    ill_steps: set[int] = set()
    for i, h in enumerate(proof.hypotheses):
        try:
            env.check_formula(h)
        except (DefinitionError, IllFormedError) as exc:
            faults.append((None, SchemeError(f"hypothesis {i + 1}: {exc}")))
            ill_hyps.add(i)
    used: dict[str, ExtensionGrant] = {}

    def premise(idx: int, here: int) -> Formula:
        if not (0 <= idx < here):
            raise SchemeError(f"cited step {idx + 1} does not precede this step")
        if idx in ill_steps:
            raise SchemeError(f"cited step {idx + 1} is ill formed")
        return steps[idx].formula

    for i, step in enumerate(steps):
        stated, just = step.formula, step.just
        kind = type(just)
        # a modus ponens step that states the very consequent object of an
        # earlier major premise, checked well formed, is well formed with it
        if not (kind is ByMP and not ill_steps and type(just.major) is int
                and 0 <= just.major < i
                and type(cited := steps[just.major].formula) is Implies
                and cited.right is stated):
            try:
                env.check_formula(stated)
            except (DefinitionError, IllFormedError) as exc:
                faults.append(_fault(i, exc))
                ill_steps.add(i)
                continue
        # one branch per class of justification, the most frequent first
        try:
            if kind is ByMP:
                minor, major = just.minor, just.major
                if type(minor) is not int or type(major) is not int:
                    raise _ill_typed(just)
                if ill_steps or not (0 <= minor < i and 0 <= major < i):
                    premise(minor, i)  # raises at the first bad citation
                    premise(major, i)
                minor_f, major_f = steps[minor].formula, steps[major].formula
                if not (type(major_f) is Implies
                        and (major_f.left is minor_f or major_f.left == minor_f)
                        and (major_f.right is stated or major_f.right == stated)):
                    raise SchemeError("modus ponens mismatch: step {} is not "
                                      "({}) -> ({})", major + 1, minor_f, stated)
                continue
            elif kind is ByLogical or kind is ByTheory or kind is ByExtension:
                scheme, params = just.scheme, just.params
                if type(scheme) is not str or type(params) is not tuple:
                    raise _ill_typed(just)
                match = _MATCHERS[kind].get(scheme)
                if match is not None and match(env, stated, params):
                    if kind is not ByExtension:
                        continue
                    expected = stated
                else:
                    expected = _instantiate(_KINDS[kind], env, scheme, params)
                if kind is ByExtension:
                    grant = extension_grant(env, scheme, params)
            elif kind is ByHyp:
                if type(just.index) is not int:
                    raise _ill_typed(just)
                if not (0 <= just.index < len(proof.hypotheses)):
                    raise SchemeError(f"no hypothesis {just.index + 1}")
                if just.index in ill_hyps:
                    raise SchemeError(f"hypothesis {just.index + 1} is ill formed")
                expected = proof.hypotheses[just.index]
            elif kind is ByGenF or kind is ByGenE:
                if (type(just.premise) is not int or type(just.var) is not str
                        or type(just.to_var) is not str):
                    raise _ill_typed(just)
                expected = generalize(premise(just.premise, i), just.var,
                                      just.to_var, kind is ByGenF)
            elif kind is ByRelease:
                if type(just.premise) is not int:
                    raise _ill_typed(just)
                expected = release(env, premise(just.premise, i))
                grant = ExtensionGrant("ReleaseRule", expected)
            else:
                raise SchemeError(f"unknown justification {just!r}")
            if kind is ByExtension or kind is ByRelease:  # the one gate
                if not any(g.scheme == grant.scheme and g.formula in (
                        None, grant.formula) for g in proof.enabled):
                    raise SchemeError("extension not enabled: {}", grant)
                used.setdefault(str(grant), grant)
            if expected is not stated and expected != stated:
                raise SchemeError("stated formula ({}) differs from the "
                                  "justified formula ({})", stated, expected)
        except (SchemeError, DefinitionError, IllFormedError) as exc:
            faults.append(_fault(i, exc))
    if faults:
        raise ProofCheckError(faults)
    return Judgment(proof.hypotheses, steps[-1].formula,
                    tuple(sorted(used.values(), key=str)))
