"""The trusted checker.

Eleven logical axiom schemes (L1..L11) for the intuitionistic predicate
calculus, three deduction rules (modus ponens and the two generalization
rules), the theory schemes for meaningfulness (M), assertibility (A),
truth (T), holding (H) and concept equivalence (sim), and gated extension
schemes that are unsound in general and must be enabled explicitly.

Every scheme is one entry of the registry ``SCHEMES``: its kind (logical,
theory or extension), the kinds of its parameters, and one function that
builds its instance.  A generic check runs before every instance function:
it checks the number of parameters, then, in order, each one's Python type
for its kind, that a quotation name is bound, a domain declared and a total
extension registered, and, given an environment, that a formula or term is
well formed.  The instance functions check only the side conditions of
their scheme.  ``LOGICAL_PARAMS``, ``THEORY_PARAMS``, ``EXTENSION_PARAMS``
and ``EXTENSION_SCHEMES`` are views of the registry.

L1..L9 are written once each, as patterns over the metavariables a, b and
c.  From each pattern one generator writes, once at import, two functions
of straight-line code: a constructor, which builds the instance, and a
matcher, which serves both uses of a pattern: with its slots free it
recognizes an instance (``is_log_instance``), and with a step's parameters
in its slots it checks the stated formula of an L1..L9 step.  A modus
ponens step is checked by comparing the fields of its major premise.  So
an L1..L9 or modus ponens step that checks builds no formula.  Every other
step that cites a scheme takes one path, ``_instantiate``: its parameters
are checked in the environment, then its instance is built.

``check_proof`` checks the Python type of each field of a justification
before using it, lets no step cite an ill-formed hypothesis or step,
rejects a step in one way, by raising at the first failed condition, and
has one gate for the header's extension grants, shared by ``ByExtension``
and ``ByRelease``; ``extension_grant`` and ``release`` give the grant
subjects, to the checker and to the proof builder alike.

Quoted-formula side conditions are checked by syntactic equality after one
level of name resolution: quotation terms inside resolved bodies are never
unfolded further.  The theory schemes build each ``M``, ``A`` and ``T`` leaf
over a quotation with ``syntax.quoted``, so it is the object a parsed step
or the proof builder holds, and comparing the two stops at it.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Callable, Iterable, Optional, Sequence, Union, get_args

from .syntax import (
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
    Term,
    TotalExtension,
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
    """Malformed scheme parameters or a violated side condition."""


class Scheme(metaclass=record):
    """An axiom scheme: its kind, parameter kinds and instance function."""
    kind: str  # "logical", "theory" or "extension"
    # parameter kinds: f formula, t term, v variable, n quotation name,
    # d domain, p predicate with a total extension; a trailing "k*" stands
    # for one or more parameters of kind k
    params: tuple[str, ...]
    instance: Callable[..., Formula]  # (env, *params) -> the instance


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
#
# L1..L9 are patterns: formulas whose leaves may be the metavariables "a",
# "b" and "c", which stand for the first, second and third parameter, and
# from which ``_source`` writes a matcher and a constructor.


_FREE = object()  # the default of a matcher's slot: free, to be bound


def _source(pattern: Formula, slots: str) -> str:
    """The text of ``match(phi, a=_FREE, ...)`` and ``build(a, ...)`` for
    ``pattern`` over the metavariables ``slots``.  ``match`` returns the
    values of the slots for which ``build`` gives ``phi``, or None: a free
    slot is bound at its first occurrence, where a given value must be of a
    formula type and be the subformula there or equal it; later occurrences
    only compare.  A subformula is named by its path, l left and r right."""
    lines, seen = [], set()

    def walk(p: Formula, x: str) -> str:  # x names p's place in phi
        if type(p) is str:
            same = f"({p} is {x} or {p} == {x})"
            lines.extend([f"    if not {same}: return None"] if p in seen else
                         [f"    if {p} is _FREE: {p} = {x}",
                          f"    elif not (type({p}) in _FORMULAS and {same}):"
                          " return None"])
            seen.add(p)
            return p
        lines.append(f"    if type({x}) is not {type(p).__name__}: return None")
        if type(p) is Bot:
            return "BOT"
        kids = []
        for side, field, kid in (("l", "left", p.left), ("r", "right", p.right)):
            path = side if x == "phi" else x + side
            lines.append(f"    {path} = {x}.{field}")
            kids.append(walk(kid, path))
        return f"{type(p).__name__}({', '.join(kids)})"

    built = walk(pattern, "phi")
    return "\n".join([
        f"def match(phi, {', '.join(s + '=_FREE' for s in slots)}):", *lines,
        f"    return {', '.join(slots)}{',' if len(slots) == 1 else ''}",
        f"def build({', '.join(slots)}):", f"    return {built}", ""])


def _states_pattern_instance(scheme: str, params: tuple, phi: Formula) -> bool:
    """Whether ``phi`` is the instance of the L1..L9 scheme ``scheme`` for
    ``params``, and the count and types of ``params`` are right: the
    matcher runs with every slot given, so nothing is built."""
    # the count and type checks of _check_params(None, ...) for the all-'f'
    # parameters of L1..L9: the count here, each type in the matcher
    match = _MATCHERS.get(scheme)
    return (match is not None and len(params) == len(LOGICAL_PARAMS[scheme])
            and match(phi, *params) is not None)


class _Pattern(metaclass=record):
    """The instance function of a scheme given by a pattern."""
    pattern: Formula

    def __call__(self, _env: Optional[Environment], *params: Formula) -> Formula:
        return _BUILDERS[self.pattern](*params)


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
    for name, match in _MATCHERS.items():
        found = match(phi)
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
    the violated side condition."""
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


def _mcomp1(env: Environment, qa: str, qb: str, qand: str) -> Formula:
    _expect(env.resolve(qand) == And(env.resolve(qa), env.resolve(qb)),
            f"body of {qand} is not the conjunction of {qa} and {qb}")
    return Implies(And(_m(qa), _m(qb)), _m(qand))


def _mcomp2(env: Environment, qand: str, qor: str) -> Formula:
    ba, bo = env.resolve(qand), env.resolve(qor)
    _expect(isinstance(ba, And) and bo == Or(ba.left, ba.right),
            f"{qand} and {qor} are not a matching conjunction/disjunction")
    return Implies(_m(qand), _m(qor))


def _mcomp3(env: Environment, qor: str, qimp: str) -> Formula:
    bo, bi = env.resolve(qor), env.resolve(qimp)
    _expect(isinstance(bo, Or) and bi == Implies(bo.left, bo.right),
            f"{qor} and {qimp} are not a matching disjunction/implication")
    return Implies(_m(qor), _m(qimp))


def _mcomp4(env: Environment, qimp: str, qa: str, qb: str) -> Formula:
    _expect(env.resolve(qimp) == Implies(env.resolve(qa), env.resolve(qb)),
            f"body of {qimp} is not the implication from {qa} to {qb}")
    return Implies(_m(qimp), And(_m(qa), _m(qb)))


def _mquant1(env: Environment, q1: str, q2: str, x: str) -> Formula:
    _expect(env.resolve(q2) == Forall(x, env.resolve(q1)),
            f"body of {q2} is not (forall {x}) applied to {q1}")
    return Implies(_m(q1), _m(q2))


def _mquant2(env: Environment, q1: str, q2: str, x: str) -> Formula:
    b1 = env.resolve(q1)
    _expect(isinstance(b1, Forall) and b1.var == x
            and env.resolve(q2) == Exists(x, b1.body),
            f"{q1} and {q2} are not matching forall/exists bodies")
    return Implies(_m(q1), _m(q2))


def _mquant3(env: Environment, q1: str, q2: str, x: str) -> Formula:
    _expect(env.resolve(q1) == Exists(x, env.resolve(q2)),
            f"body of {q1} is not (exists {x}) applied to {q2}")
    return Implies(_m(q1), _m(q2))


def _mbot(env: Environment, q: str) -> Formula:
    _expect(env.resolve(q) == BOT, f"body of {q} is not bot")
    return _m(q)


def _mofm(env: Environment, q: str) -> Formula:
    _expect(isinstance(env.resolve(q), MApp),
            f"body of {q} is not a meaningfulness ascription")
    return _m(q)


def _mofa(env: Environment, q: str) -> Formula:
    _expect(isinstance(env.resolve(q), AApp),
            f"body of {q} is not an assertibility ascription")
    return _m(q)


def _alog(env: Environment, q: str) -> Formula:
    _expect(is_log_instance(env.resolve(q)) is not None,
            f"body of {q} is not a logical axiom instance")
    return Implies(_m(q), _a(q))


def _amp(env: Environment, qphi: str, qpsi: str, qimp: str) -> Formula:
    _expect(env.resolve(qimp) == Implies(env.resolve(qphi), env.resolve(qpsi)),
            f"body of {qimp} is not the implication from {qphi} to {qpsi}")
    return Implies(And(_a(qphi), _a(qimp)), _a(qpsi))


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


def _capture(env: Environment, q: str) -> Formula:
    _sentence(env, q)
    return Implies(_m(q), Implies(env.resolve(q), _a(q)))


def _tdef(env: Environment, q: str, qbic: str) -> Formula:
    _sentence(env, q, qbic)
    _expect(env.resolve(qbic) == iff(_t(q), env.resolve(q)),
            f"body of {qbic} is not the truth biconditional for {q}")
    return Implies(_m(q), _a(qbic))


def _tneg(env: Environment, q: str, qneg: str) -> Formula:
    _sentence(env, q, qneg)
    _expect(env.resolve(qneg) == neg(_t(q)),
            f"body of {qneg} is not the negated truth ascription for {q}")
    return Implies(neg(_m(q)), _a(qneg))


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
    name = total_extension_name(base, c.name)
    env.definition(name)  # raises for a constant declared after the extension
    return _m(name)


# ---------------------------------------------------------------------------
# extension schemes


def _release_axiom(env: Environment, q: str) -> Formula:
    _sentence(env, q)
    return Implies(_a(q), env.resolve(q))


def _unrestricted_t(env: Environment, q: str) -> Formula:
    _sentence(env, q)
    return iff(_t(q), env.resolve(q))


# ---------------------------------------------------------------------------
# the registry


SCHEMES: dict[str, Scheme] = {
    "L1": Scheme("logical", ("f", "f"), _Pattern(Implies("a", Implies("b", "a")))),
    "L2": Scheme("logical", ("f", "f", "f"), _Pattern(Implies(
        Implies("a", Implies("b", "c")),
        Implies(Implies("a", "b"), Implies("a", "c"))))),
    "L3": Scheme("logical", ("f", "f"),
                 _Pattern(Implies("a", Implies("b", And("a", "b"))))),
    "L4": Scheme("logical", ("f", "f"), _Pattern(Implies(And("a", "b"), "a"))),
    "L5": Scheme("logical", ("f", "f"), _Pattern(Implies(And("a", "b"), "b"))),
    "L6": Scheme("logical", ("f", "f"), _Pattern(Implies("a", Or("a", "b")))),
    "L7": Scheme("logical", ("f", "f"), _Pattern(Implies("b", Or("a", "b")))),
    "L8": Scheme("logical", ("f", "f", "f"), _Pattern(Implies(
        Implies("a", "c"), Implies(Implies("b", "c"), Implies(Or("a", "b"), "c"))))),
    "L9": Scheme("logical", ("f",), _Pattern(Implies(BOT, "a"))),
    "L10": Scheme("logical", ("v", "f", "t"),
                  lambda _, x, b, t: Implies(Forall(x, b), _instance_at(b, x, t))),
    "L11": Scheme("logical", ("v", "f", "t"),
                  lambda _, x, b, t: Implies(_instance_at(b, x, t), Exists(x, b))),
    "MComp1": Scheme("theory", ("n", "n", "n"), _mcomp1),
    "MComp2": Scheme("theory", ("n", "n"), _mcomp2),
    "MComp3": Scheme("theory", ("n", "n"), _mcomp3),
    "MComp4": Scheme("theory", ("n", "n", "n"), _mcomp4),
    "MQuant1": Scheme("theory", ("n", "n", "v"), _mquant1),
    "MQuant2": Scheme("theory", ("n", "n", "v"), _mquant2),
    "MQuant3": Scheme("theory", ("n", "n", "v"), _mquant3),
    "MBot": Scheme("theory", ("n",), _mbot),
    "MofM": Scheme("theory", ("n",), _mofm),
    "MofA": Scheme("theory", ("n",), _mofa),
    "ALog": Scheme("theory", ("n",), _alog),
    "AMP": Scheme("theory", ("n", "n", "n"), _amp),
    "AGenF": Scheme("theory", ("n", "n", "v", "v"), partial(_agen, forall=True)),
    "AGenE": Scheme("theory", ("n", "n", "v", "v"), partial(_agen, forall=False)),
    "AtoM": Scheme("theory", ("n",), lambda _, q: Implies(_a(q), _m(q))),
    "ForallCapture": Scheme("theory", ("d", "n", "n", "n*"), _forall_capture),
    "Capture": Scheme("theory", ("n",), _capture),
    "TDef": Scheme("theory", ("n", "n"), _tdef),
    "TNeg": Scheme("theory", ("n", "n"), _tneg),
    "HDef": Scheme("theory", ("n", "t", "n", "n"), _hdef),
    "HNeg": Scheme("theory", ("n", "t", "n", "n"), _hneg),
    "SimDef": Scheme("theory", ("n", "n", "n", "n"), _simdef),
    "DefiniteEM": Scheme("theory", ("d", "t"), _definite_em),
    "TotalExtPos": Scheme("theory", ("p", "t"), _total_ext_pos),
    "TotalExtNeg": Scheme("theory", ("p", "t"), _total_ext_neg),
    "TotalExtM": Scheme("theory", ("p", "t"), _total_ext_m),
    "ReleaseAxiom": Scheme("extension", ("n",), _release_axiom),
    "UnrestrictedT": Scheme("extension", ("n",), _unrestricted_t),
}


def _params_of(kind: str) -> dict[str, tuple[str, ...]]:
    return {name: s.params for name, s in SCHEMES.items() if s.kind == kind}


LOGICAL_PARAMS = _params_of("logical")
# the matcher of each of L1..L9, by scheme, and its constructor, by
# pattern, generated once; they read this module's names
_MATCHERS, _BUILDERS = {}, {}
for _name, _s in SCHEMES.items():
    if isinstance(_s.instance, _Pattern):
        _code: dict = {}
        exec(_source(_s.instance.pattern, "abc"[:len(_s.params)]), globals(),
             _code)
        _MATCHERS[_name] = _code["match"]
        _BUILDERS[_s.instance.pattern] = _code["build"]
THEORY_PARAMS = _params_of("theory")
EXTENSION_PARAMS = _params_of("extension")
# ReleaseRule is a rule, not a scheme, but is gated like the extension schemes
EXTENSION_SCHEMES = tuple(sorted([*EXTENSION_PARAMS, "ReleaseRule"]))


# ---------------------------------------------------------------------------
# total extensions


def total_extension_name(base: str, constant: str) -> str:
    return f"{base}_ext_{constant}"


def define_total_extension(env: Environment, base: str, domain: str) -> None:
    """Extend predicate ``base``, defined on a definite domain, to the whole
    object universe, defaulting to bot outside the domain.

    Registers the extended predicate ``base_ext`` and the quotation name
    ``base_ext_c`` of its instance at each constant c declared so far, which
    ``TotalExtPos``, ``TotalExtNeg`` and ``TotalExtM`` steps then cite.
    """
    if domain not in env.domains:
        raise SchemeError(f"{domain} is not a declared domain")
    dom = env.domains[domain]
    if not dom.definite:
        raise SchemeError(
            f"domain {domain} is not declared definite; a predicate can only "
            "be totalized over a definite range"
        )
    env.register_predicate(base, 1)
    extended = f"{base}_ext"
    env.register_predicate(extended, 1)
    env.declare_extension(TotalExtension(base, domain, extended))
    for c in env.universe:
        env.define(total_extension_name(base, c), (), Atom(extended, (Const(c),)))


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

# per class, whether each field has exactly its annotated type, a bool being
# no step index; the fields are read at once, as this runs for every step
_scheme_call = lambda j: type(j.scheme) is str and type(j.params) is tuple
_gen = lambda j: type(j.premise) is int and type(j.var) is str and type(j.to_var) is str
_WELL_TYPED = {ByHyp: lambda j: type(j.index) is int, ByLogical: _scheme_call,
               ByTheory: _scheme_call, ByExtension: _scheme_call,
               ByMP: lambda j: type(j.minor) is int and type(j.major) is int,
               ByGenF: _gen, ByGenE: _gen,
               ByRelease: lambda j: type(j.premise) is int}


def _check_fields(just: Justification) -> None:
    well_typed = _WELL_TYPED.get(type(just))
    if well_typed is None:
        raise SchemeError(f"unknown justification {just!r}")
    if not well_typed(just):
        for name, kind in type(just).__annotations__.items():
            value = getattr(just, name)
            if type(value) is not {"int": int, "str": str, "tuple": tuple}[kind]:
                raise SchemeError(f"{type(just).__name__}.{name} must be "
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
    def __init__(self, errors: Sequence[StepError]) -> None:
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = tuple(errors)


def extension_grant(env: Environment, scheme: str,
                    params: Sequence) -> ExtensionGrant:
    """The grant a ``ByExtension`` step of ``scheme`` needs: the gate
    subject is the sentence its first parameter names."""
    return ExtensionGrant(scheme, env.resolve(params[0]))


def _grant_covers(enabled: frozenset[ExtensionGrant],
                  want: ExtensionGrant) -> bool:
    return any(
        g.scheme == want.scheme and (g.formula is None or g.formula == want.formula)
        for g in enabled
    )


def check_proof(
    env: Environment,
    proof: Proof,
    granted: Optional[Iterable[str]] = None,
) -> Judgment:
    """Validate every step of a proof against its justification.

    ``granted`` is the second gate on extension schemes: when given, any
    extension enabled by the proof header must also be named there.  Raises
    ProofCheckError with per-step errors on any violation.
    """
    errors: list[StepError] = []
    if not proof.steps:
        raise ProofCheckError([StepError(None, "a proof must have steps")])
    if granted is not None:
        allowed = set(granted)
        for g in proof.enabled:
            if g.scheme not in allowed:
                errors.append(StepError(
                    None, f"extension {g.scheme} enabled by the header but "
                    "not granted by the caller"))
    # the hypotheses and steps whose formula is ill formed, which none may cite
    ill_hyps: set[int] = set()
    ill_steps: set[int] = set()
    for i, h in enumerate(proof.hypotheses):
        try:
            env.check_formula(h)
        except (DefinitionError, IllFormedError) as exc:
            errors.append(StepError(None, f"hypothesis {i + 1}: {exc}"))
            ill_hyps.add(i)
    used: dict[str, ExtensionGrant] = {}

    def premise(idx: int, here: int) -> Formula:
        if not (0 <= idx < here):
            raise SchemeError(f"cited step {idx + 1} does not precede this step")
        if idx in ill_steps:
            raise SchemeError(f"cited step {idx + 1} is ill formed")
        return proof.steps[idx].formula

    for i, step in enumerate(proof.steps):
        stated = step.formula
        just = step.just
        grant: Optional[ExtensionGrant] = None
        try:
            env.check_formula(stated)
        except (DefinitionError, IllFormedError) as exc:
            errors.append(StepError(i, str(exc)))
            ill_steps.add(i)
            continue
        try:
            _check_fields(just)
            if isinstance(just, ByHyp):
                if not (0 <= just.index < len(proof.hypotheses)):
                    raise SchemeError(f"no hypothesis {just.index + 1}")
                if just.index in ill_hyps:
                    raise SchemeError(f"hypothesis {just.index + 1} is ill formed")
                expected = proof.hypotheses[just.index]
            elif isinstance(just, ByLogical):
                if _states_pattern_instance(just.scheme, just.params, stated):
                    continue
                expected = _instantiate("logical", env, just.scheme, just.params)
            elif isinstance(just, ByTheory):
                expected = theory_instance(env, just.scheme, just.params)
            elif isinstance(just, ByMP):
                minor = premise(just.minor, i)
                major = premise(just.major, i)
                if not (type(major) is Implies
                        and (major.left is minor or major.left == minor)
                        and (major.right is stated or major.right == stated)):
                    raise SchemeError(
                        f"modus ponens mismatch: step {just.major + 1} is not "
                        f"({minor}) -> ({stated})")
                continue
            elif isinstance(just, (ByGenF, ByGenE)):
                expected = generalize(premise(just.premise, i), just.var,
                                      just.to_var, isinstance(just, ByGenF))
            elif isinstance(just, ByExtension):
                expected = extension_instance(env, just.scheme, just.params)
                grant = extension_grant(env, just.scheme, just.params)
            else:  # ByRelease, the one kind left after _check_fields
                expected = release(env, premise(just.premise, i))
                grant = ExtensionGrant("ReleaseRule", expected)
            if grant is not None:
                if not _grant_covers(proof.enabled, grant):
                    raise SchemeError(f"extension not enabled: {grant}")
                used.setdefault(str(grant), grant)
            if expected is not stated and expected != stated:
                raise SchemeError(
                    f"stated formula ({stated}) differs from the justified "
                    f"formula ({expected})")
        except (SchemeError, DefinitionError, IllFormedError) as exc:
            errors.append(StepError(i, str(exc)))
    if errors:
        raise ProofCheckError(errors)
    return Judgment(
        proof.hypotheses,
        proof.steps[-1].formula,
        tuple(sorted(used.values(), key=str)),
    )
