"""Reading and writing proof scripts.

A script is line-oriented.  ``#`` starts a comment.  Header directives come
first, then hypotheses, then numbered steps::

    enable ReleaseAxiom(A(`f`) -> bot)   # or just: enable ReleaseRule
    domain Sent = {s1, s2} definite      # 'definite' is optional
    const c
    def la := ~A(`la`)                   # arity 0; self-quotation allowed
    def w/1 := A(v0)                     # params inferred, first occurrence
    def g(x, y) := Q(x, y)               # params given explicitly
    hyp 1: M(`la`)
    1: ~A(`la`) -> A(`la`) -> bot  by hyp 1
    2: p -> q -> p                 by L1[p; q]
    3: M(`la`) -> A(`la`)          by ALog[la]
    4: A(`la`)                     by MP 1 3
    5: ~A(`la`)                    by Release 4

Step and hypothesis numbers are 1-based and must be consecutive.  Scheme
parameters are separated by ``;`` because formulas contain commas.

A ``Script`` keeps grants, hypotheses and steps; its declarations live only
in its ``Environment``, which the writer prints: domains as declared, the
constants no domain lists (sorted), then definitions as defined, each with
its parameters written out (``def w(v0) := A(v0)``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

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
from .parser import FormulaParser, ParseError
from .syntax import (
    DefinitionError,
    Environment,
    Formula,
    IllFormedError,
    first_occurrence_vars,
    pformat,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


class ScriptError(Exception):
    """A malformed proof-script line."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class Script:
    """A proof with the environment that declares its names."""

    env: Environment
    enables: list[ExtensionGrant] = field(default_factory=list)
    hypotheses: list[Formula] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)

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
                if not re.fullmatch(_IDENT, part):
                    raise ScriptError(
                        f"{scheme}: expected an identifier, got {part!r}",
                        line_no)
                out.append(part)
        except ParseError as exc:
            raise ScriptError(f"{scheme}: {exc}", line_no) from exc
    return tuple(out)


_STEP_RE = re.compile(r"(\d+)\s*:\s*(.*)$")
_SCHEME_RE = re.compile(rf"({_IDENT})\s*\[(.*)\]\s*$")
_JUSTIFICATIONS = {"logical": ByLogical, "theory": ByTheory,
                   "extension": ByExtension}


def _parse_just(fp: FormulaParser, text: str, line_no: int) -> Justification:
    words = text.split()
    if not words:
        raise ScriptError("missing justification", line_no)
    head = words[0]
    if head == "hyp":
        if len(words) != 2 or not words[1].isdecimal():
            raise ScriptError("usage: hyp N", line_no)
        return ByHyp(int(words[1]) - 1)
    if head == "MP":
        if len(words) != 3 or not all(w.isdecimal() for w in words[1:]):
            raise ScriptError("usage: MP minor major", line_no)
        return ByMP(int(words[1]) - 1, int(words[2]) - 1)
    if head in ("GenF", "GenE"):
        if len(words) not in (3, 4) or not words[1].isdecimal():
            raise ScriptError(f"usage: {head} N x [y]", line_no)
        x = words[2]
        y = words[3] if len(words) == 4 else x
        cls = ByGenF if head == "GenF" else ByGenE
        return cls(int(words[1]) - 1, x, y)
    if head == "Release":
        if len(words) != 2 or not words[1].isdecimal():
            raise ScriptError("usage: Release N", line_no)
        return ByRelease(int(words[1]) - 1)
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
    script = Script(env)
    next_hyp = 1
    next_step = 1
    in_steps = False
    # grant formulas may quote names defined later; parse them at the end
    pending_enables: list[tuple[str, Optional[str], int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("enable "):
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
                consts = tuple(
                    c.strip() for c in m.group(2).split(",") if c.strip())
                env.declare_domain(m.group(1), consts, m.group(3) is not None)
            elif line.startswith("const "):
                name = line[len("const "):].strip()
                if not re.fullmatch(_IDENT, name):
                    raise ScriptError(f"bad constant name: {name!r}", line_no)
                env.declare_constant(name)
            elif line.startswith("def "):
                m = re.fullmatch(
                    rf"def\s+({_IDENT})\s*"
                    rf"(?:/(\d+)|\(([^)]*)\))?\s*:=\s*(.*)",
                    line)
                if not m:
                    raise ScriptError("usage: def name[/N | (x, y)] := formula",
                                      line_no)
                name = m.group(1)
                body = fp.formula(m.group(4), self_name=name)
                if m.group(3) is not None:
                    params = tuple(
                        p.strip() for p in m.group(3).split(",") if p.strip())
                else:
                    params = first_occurrence_vars(body)
                    want = int(m.group(2)) if m.group(2) else 0
                    if len(params) != want:
                        raise ScriptError(
                            f"{name} declared with arity {want} but its body "
                            f"has {len(params)} free variables", line_no)
                env.define(name, params, body)
            elif line.startswith("hyp "):
                m = _STEP_RE.fullmatch(line[len("hyp "):].strip())
                if not m or int(m.group(1)) != next_hyp:
                    raise ScriptError(
                        f"expected 'hyp {next_hyp}: formula'", line_no)
                if in_steps:
                    raise ScriptError("hypotheses must precede steps", line_no)
                script.hypotheses.append(fp.formula(m.group(2)))
                next_hyp += 1
            else:
                m = _STEP_RE.fullmatch(line)
                if not m:
                    raise ScriptError(f"unrecognized line: {line!r}", line_no)
                if int(m.group(1)) != next_step:
                    raise ScriptError(
                        f"expected step {next_step}, found {m.group(1)}",
                        line_no)
                in_steps = True
                fml_text, by, just_text = f" {m.group(2)} ".rpartition(" by ")
                if not by:
                    raise ScriptError("a step needs 'formula by justification'",
                                      line_no)
                phi = fp.formula(fml_text.strip())
                script.steps.append(
                    Step(phi, _parse_just(fp, just_text.strip(), line_no)))
                next_step += 1
        except ScriptError:
            raise
        except (ParseError, DefinitionError, IllFormedError) as exc:
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


def _emit_param(kind: str, value) -> str:
    if kind.startswith("f"):
        return pformat(value)
    return str(value)  # terms and identifiers print as themselves


def emit_just(just: Justification) -> str:
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
        body = "; ".join(_emit_param(k, p) for k, p in zip(kinds, just.params))
        prefix = "Ext " if isinstance(just, ByExtension) else ""
        return f"{prefix}{just.scheme}[{body}]"
    raise TypeError(f"not a justification: {just!r}")


def emit_script(script: Script) -> str:
    """Render a script back to text; parsing the result reproduces it."""
    lines = [f"enable {g}" for g in script.enables]
    env = script.env
    for name, dom in env.domains.items():
        tail = " definite" if dom.definite else ""
        lines.append(f"domain {name} = {{{', '.join(dom.constants)}}}{tail}")
    listed = {c for dom in env.domains.values() for c in dom.constants}
    for c in sorted(env.constants - listed):
        lines.append(f"const {c}")
    for d in env.definitions.values():
        head = f"{d.name}({', '.join(d.params)})" if d.params else d.name
        lines.append(f"def {head} := {pformat(d.body)}")
    for i, h in enumerate(script.hypotheses, start=1):
        lines.append(f"hyp {i}: {pformat(h)}")
    for i, s in enumerate(script.steps, start=1):
        lines.append(f"{i}: {pformat(s.formula)} by {emit_just(s.just)}")
    return "\n".join(lines) + "\n"
