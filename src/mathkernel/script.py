"""Reading and writing proof scripts.

A script is line-oriented.  ``#`` starts a comment.  Header directives come
first, then hypotheses, then numbered steps::

    enable ReleaseRule(~A(`la`))       # or every instance: enable ReleaseRule
    domain Sent = {s1, s2} definite    # 'definite' is optional
    const c
    extend Tr over Sent                # Tr totalized: Tr_ext, Tr_ext_s1, ...
    def la := ~A(`la`)                 # arity 0; self-quotation allowed
    def w/1 := A(v0)                   # params inferred, first occurrence
    def g(x, y) := Q(x, y)             # params given explicitly
    hyp 1: A(`la`)
    1: M(`Tr_ext_s1`)                by TotalExtM[Tr; s1]
    2: p -> q -> p                   by L1[p; q]
    3: A(`la`)                       by hyp 1
    4: ~A(`la`)                      by Release 3
    5: bot                           by MP 3 4

Step and hypothesis numbers are 1-based and must be consecutive.  Scheme
parameters are separated by ``;`` because formulas contain commas.

``extend P over D`` runs ``Environment.declare_total_extension`` over the
constants declared so far; ``P_ext`` must be a new predicate.

A ``Script`` keeps grants, hypotheses and steps; its declarations live only
in its ``Environment``, which the writer prints in the order they were
made (``Environment.declarations``): domains, constants declared on their
own, total extensions, and definitions (an extension's own names among
them), each with its parameters written out (``def w(v0) := A(v0)``).  So
a re-read ``extend`` covers the constants the original did.  The writer
renders each formula node once per script, however many lines share it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import kernel
from .kernel import (
    ByExtension,
    ByGenE,
    ByGenF,
    ByHyp,
    ByLogical,
    ByMP,
    ByRelease,
    ByTheory,
    ExtensionGrant,
    Justification,
    Proof,
    SCHEMES,
    SchemeError,
    Step,
    expand_params,
)
from .parser import _IDENT, FormulaParser, ParseError
from .syntax import (
    Definition,
    DefinitionError,
    Domain,
    Environment,
    Formula,
    IllFormedError,
    TotalExtension,
    first_occurrence_vars,
    pformat,
    record,
    renderer,
)


class ScriptError(Exception):
    """A malformed proof-script line."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Script(metaclass=record):
    """A proof with the environment that declares its names."""

    env: Environment
    enables: list[ExtensionGrant]
    hypotheses: list[Formula]
    steps: list[Step]

    def proof(self) -> Proof:
        return Proof(
            tuple(self.hypotheses), tuple(self.steps), frozenset(self.enables)
        )


# ---------------------------------------------------------------------------
# reading


def _split_params(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(";")]
    if parts == [""]:
        return []
    return parts


def _parse_scheme_params(fp: FormulaParser, kinds: Sequence[str],
                         parts: Sequence[str], scheme: str,
                         line_no: int) -> tuple:
    try:
        kinds = expand_params(kinds, len(parts))
    except SchemeError as exc:
        raise ScriptError(f"{scheme}: {exc}", line_no) from None
    out = []
    for kind, part in zip(kinds, parts):
        try:
            if kind == "f":
                out.append(fp.formula(part))
            elif kind == "t":
                out.append(fp.term(part))
            else:  # v, n, d, p: bare identifiers
                out.append(_identifier(part, scheme, line_no))
        except ParseError as exc:
            raise ScriptError(f"{scheme}: {exc}", line_no) from exc
    return tuple(out)


def _identifier(word: str, head: str, line_no: int) -> str:
    """A variable or name that the justification ``head`` cites, which
    must be an identifier."""
    if not re.fullmatch(_IDENT, word):
        raise ScriptError(f"{head}: expected an identifier, got {word!r}",
                          line_no)
    return word


def _number(word: str, usage: str, line_no: int) -> int:
    """The value of a number in a script line: ScriptError with ``usage``
    unless ``word`` is decimal digits, and one that gives its length if it
    is longer than ``int`` reads."""
    if not word.isdecimal():
        raise ScriptError(usage, line_no)
    try:
        return int(word)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ScriptError(f"number too long: {len(word)} digits",
                          line_no) from None


def _constant(name: str, line_no: int) -> str:
    """A constant named in a ``const`` or ``domain`` line, which must be an
    identifier."""
    if not re.fullmatch(_IDENT, name):
        raise ScriptError(f"bad constant name: {name!r}", line_no)
    return name


def _numbered(text: str, usage: str,
              line_no: int) -> tuple[str, int, str]:
    """The number as written, its value and the text after the colon of a
    step or hypothesis line ``N: text``; ScriptError with ``usage`` unless
    the text before the first colon is decimal digits, which may be
    followed by whitespace."""
    number, colon, rest = text.partition(":")
    number = number.rstrip()
    if not colon:
        raise ScriptError(usage, line_no)
    return number, _number(number, usage, line_no), rest.lstrip()


_SCHEME_RE = re.compile(rf"({_IDENT})\s*\[(.*)\]\s*$")
_JUSTIFICATIONS = {kind: cls for cls, kind in kernel._KINDS.items()}


def _parse_just(fp: FormulaParser, text: str, line_no: int) -> Justification:
    words = text.split()
    if not words:
        raise ScriptError("missing justification", line_no)
    head = words[0]
    if head in ("hyp", "Release"):
        usage = f"usage: {head} N"
        if len(words) != 2:
            raise ScriptError(usage, line_no)
        n = _number(words[1], usage, line_no)
        return (ByHyp if head == "hyp" else ByRelease)(n - 1)
    if head == "MP":
        usage = "usage: MP minor major"
        if len(words) != 3:
            raise ScriptError(usage, line_no)
        return ByMP(_number(words[1], usage, line_no) - 1,
                    _number(words[2], usage, line_no) - 1)
    if head in ("GenF", "GenE"):
        usage = f"usage: {head} N x [y]"
        if len(words) not in (3, 4):
            raise ScriptError(usage, line_no)
        n = _number(words[1], usage, line_no)
        x = _identifier(words[2], head, line_no)
        y = _identifier(words[3], head, line_no) if len(words) == 4 else x
        return (ByGenF if head == "GenF" else ByGenE)(n - 1, x, y)
    ext = head == "Ext"
    m = _SCHEME_RE.fullmatch(text.strip()[len("Ext"):].strip() if ext
                             else text.strip())
    scheme = SCHEMES.get(m.group(1)) if m else None
    if scheme is None or ext != (scheme.kind == "extension"):
        what = "unknown extension" if ext else "unrecognized"
        raise ScriptError(f"{what} justification: {text!r}", line_no)
    params = _parse_scheme_params(fp, scheme.params, _split_params(m.group(2)),
                                  m.group(1), line_no)
    return _JUSTIFICATIONS[scheme.kind](m.group(1), params)


def read_text(path: Path) -> str:
    """The text of a script or manifest file, or ScriptError if it is not
    UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScriptError(f"not UTF-8 text: {exc.reason} at byte {exc.start}"
                          ) from None


def parse_script(text: str) -> tuple[Script, Environment]:
    """Parse a proof script into a fresh environment, building it up as
    directives are encountered.  Returns the script and the environment.

    One parser reads every formula and term of the script, so each
    quotation leaf is built and checked once."""
    env = Environment()
    fp = FormulaParser(env)
    script = Script(env, [], [], [])
    next_hyp = 1
    next_step = 1
    # grant formulas may quote names defined later; parse them at the end
    pending_enables: list[tuple[str, Optional[str], int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line[0].isdecimal():  # most lines are steps: read them first
                number, value, rest = _numbered(
                    line, f"unrecognized line: {line!r}", line_no)
                if value != next_step:
                    raise ScriptError(
                        f"expected step {next_step}, found {number}", line_no)
                fml_text, by, just_text = f" {rest} ".rpartition(" by ")
                if not by:
                    raise ScriptError("a step needs 'formula by justification'",
                                      line_no)
                phi = fp.formula(fml_text.strip())
                script.steps.append(
                    Step(phi, _parse_just(fp, just_text.strip(), line_no)))
                next_step += 1
            elif line.startswith("enable "):
                rest = line[len("enable "):].strip()
                m = re.fullmatch(rf"({_IDENT})\s*(?:\((.*)\))?", rest)
                if not m or m.group(1) not in kernel.EXTENSION_SCHEMES:
                    raise ScriptError(f"unknown extension: {rest!r}", line_no)
                pending_enables.append((m.group(1), m.group(2), line_no))
            elif line.startswith("domain "):
                m = re.fullmatch(
                    rf"domain\s+({_IDENT})\s*=\s*\{{([^}}]*)\}}"
                    rf"(\s+definite)?",
                    line)
                if not m:
                    raise ScriptError(
                        "usage: domain Name = {c1, c2, ...} [definite]",
                        line_no)
                consts = tuple(_constant(c.strip(), line_no)
                               for c in m.group(2).split(",") if c.strip())
                env.declare_domain(m.group(1), consts, m.group(3) is not None)
            elif line.startswith("const "):
                env.declare_constant(
                    _constant(line[len("const "):].strip(), line_no))
            elif line.startswith("extend "):
                m = re.fullmatch(rf"extend\s+({_IDENT})\s+over\s+({_IDENT})",
                                 line)
                if not m:
                    raise ScriptError("usage: extend P over Domain", line_no)
                env.declare_total_extension(m.group(1), m.group(2))
            elif line.startswith("def "):
                usage = "usage: def name[/N | (x, y)] := formula"
                m = re.fullmatch(
                    rf"def\s+({_IDENT})\s*"
                    rf"(?:/(\d+)|\(([^)]*)\))?\s*:=\s*(.*)",
                    line)
                if not m:
                    raise ScriptError(usage, line_no)
                name = m.group(1)
                body = fp.formula(m.group(4), self_name=name)
                if m.group(3) is not None:
                    params = tuple(
                        p.strip() for p in m.group(3).split(",") if p.strip())
                else:
                    params = first_occurrence_vars(body)
                    want = (_number(m.group(2), usage, line_no)
                            if m.group(2) else 0)
                    if len(params) != want:
                        raise ScriptError(
                            f"{name} declared with arity {want} but its body "
                            f"has {len(params)} free variables", line_no)
                env.define(name, params, body)
            elif line.startswith("hyp "):
                usage = f"expected 'hyp {next_hyp}: formula'"
                _, value, rest = _numbered(line[len("hyp "):].strip(), usage,
                                           line_no)
                if value != next_hyp:
                    raise ScriptError(usage, line_no)
                if next_step > 1:
                    raise ScriptError("hypotheses must precede steps", line_no)
                script.hypotheses.append(fp.formula(rest))
                next_hyp += 1
            else:
                raise ScriptError(f"unrecognized line: {line!r}", line_no)
        except ScriptError:
            raise
        except (ParseError, DefinitionError, IllFormedError,
                SchemeError) as exc:
            raise ScriptError(str(exc), line_no) from exc
    for scheme, fml_text, line_no in pending_enables:
        phi = None
        if fml_text is not None:
            try:
                phi = fp.formula(fml_text)
            except (ParseError, IllFormedError) as exc:
                raise ScriptError(str(exc), line_no) from exc
        script.enables.append(ExtensionGrant(scheme, phi))
    if not script.steps:
        raise ScriptError("a proof script needs at least one step")
    return script, env


def script_of(env: Environment, proof: Proof) -> Script:
    """Package a proof with its environment, whose every declaration the
    emitted text repeats, so that it is checkable from scratch."""
    return Script(env, sorted(proof.enabled, key=str), list(proof.hypotheses),
                  list(proof.steps))


# ---------------------------------------------------------------------------
# writing


def emit_just(just: Justification,
              render: Callable[[Formula], str] = pformat) -> str:
    """The text of a justification, its formula parameters rendered by
    ``render``."""
    if isinstance(just, ByHyp):
        return f"hyp {just.index + 1}"
    if isinstance(just, ByMP):
        return f"MP {just.minor + 1} {just.major + 1}"
    if isinstance(just, (ByGenF, ByGenE)):
        head = "GenF" if isinstance(just, ByGenF) else "GenE"
        suffix = "" if just.to_var == just.var else f" {just.to_var}"
        return f"{head} {just.premise + 1} {just.var}{suffix}"
    if isinstance(just, ByRelease):
        return f"Release {just.premise + 1}"
    if isinstance(just, (ByLogical, ByTheory, ByExtension)):
        kinds = expand_params(SCHEMES[just.scheme].params, len(just.params))
        # terms and identifiers print as themselves
        body = "; ".join(render(p) if k == "f" else str(p)
                         for k, p in zip(kinds, just.params))
        prefix = "Ext " if isinstance(just, ByExtension) else ""
        return f"{prefix}{just.scheme}[{body}]"
    raise TypeError(f"not a justification: {just!r}")


def emit_script(script: Script) -> str:
    """Render a script back to text; parsing the result reproduces it."""
    render = renderer()  # one memo for every formula of the script
    lines = [f"enable {g}" for g in script.enables]
    for decl in script.env.declarations:
        if isinstance(decl, Definition):
            head = (f"{decl.name}({', '.join(decl.params)})" if decl.params
                    else decl.name)
            lines.append(f"def {head} := {render(decl.body)}")
        elif isinstance(decl, Domain):
            tail = " definite" if decl.definite else ""
            lines.append(f"domain {decl.predicate} = "
                         f"{{{', '.join(decl.constants)}}}{tail}")
        elif isinstance(decl, TotalExtension):
            lines.append(f"extend {decl.base} over {decl.domain}")
        else:
            lines.append(f"const {decl}")
    for i, h in enumerate(script.hypotheses, start=1):
        lines.append(f"hyp {i}: {render(h)}")
    for i, s in enumerate(script.steps, start=1):
        lines.append(f"{i}: {render(s.formula)} by {emit_just(s.just, render)}")
    return "\n".join(lines) + "\n"
