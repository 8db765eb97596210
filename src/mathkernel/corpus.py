"""The bundled corpus of checked proof scripts.

Each entry pairs a .pf script with the judgment it must produce: the
exact conclusion, hypotheses, and set of extension schemes used.  The
scripts are frozen text; running the corpus re-checks every one from
scratch, so nothing depends on the tools that produced them.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from pathlib import Path
from typing import Optional

from .kernel import Judgment, ProofCheckError, check_proof
from .parser import ParseError, parse_formula
from .script import ScriptError, parse_script, read_text
from .syntax import DefinitionError, IllFormedError, pformat, record


class CorpusError(Exception):
    """Missing script, malformed manifest, or an unexpected judgment."""


class CorpusEntry(metaclass=record):
    """One manifest entry: a script and the judgment it must prove."""
    script: str
    description: str
    hypotheses: tuple[str, ...]
    conclusion: str
    extensions: tuple[tuple[str, Optional[str]], ...]


class EntryResult(metaclass=record):
    """The outcome of checking one corpus entry."""
    entry: CorpusEntry
    passed: bool
    detail: str
    seconds: float


class CorpusReport(metaclass=record):
    """The outcomes of a corpus run and its wall time."""
    results: tuple[EntryResult, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def corpus_dir() -> Path:
    """The directory holding the shipped scripts and their manifest."""
    return Path(str(resources.files(__package__) / "corpus"))


def judgment_json(judgment: Judgment) -> dict:
    """A judgment as the manifest records it and `check --json` prints it."""
    return {
        "hypotheses": [pformat(h) for h in judgment.hypotheses],
        "conclusion": pformat(judgment.conclusion),
        "extensions": [
            {"scheme": g.scheme,
             "formula": None if g.formula is None else pformat(g.formula)}
            for g in judgment.extensions_used
        ],
    }


def _entry(i: int, item) -> CorpusEntry:
    """One manifest entry, or CorpusError naming what is malformed."""
    def bad(what: str) -> CorpusError:
        return CorpusError(f"malformed manifest: entry {i + 1}: {what}")

    if not isinstance(item, dict):
        raise bad("not an object")
    for key in ("script", "conclusion"):
        if not isinstance(item.get(key), str):
            raise bad(f"{key!r} must be a string")
    # a manifest is untrusted input: it names no file outside its directory
    script = Path(item["script"])
    if script.is_absolute() or ".." in script.parts:
        raise bad("'script' must name a file in the corpus directory")
    if not isinstance(item.get("description", ""), str):
        raise bad("'description' must be a string")
    hyps = item.get("hypotheses", [])
    if not (isinstance(hyps, list) and all(isinstance(h, str) for h in hyps)):
        raise bad("'hypotheses' must be a list of strings")
    exts = item.get("extensions")
    if not (isinstance(exts, list) and all(
            isinstance(e, dict) and isinstance(e.get("scheme"), str)
            and isinstance(e.get("formula"), (str, type(None)))
            for e in exts)):
        raise bad("'extensions' must be a list of objects with a string "
                  "'scheme' and an optional string 'formula'")
    return CorpusEntry(
        script=item["script"],
        description=item.get("description", ""),
        hypotheses=tuple(hyps),
        conclusion=item["conclusion"],
        extensions=tuple((e["scheme"], e.get("formula")) for e in exts),
    )


def load_manifest(directory: Optional[Path] = None) -> tuple[CorpusEntry, ...]:
    directory = directory or corpus_dir()
    manifest = directory / "manifest.json"
    if not manifest.is_file():
        raise CorpusError(f"no manifest at {manifest}")
    try:
        raw = json.loads(read_text(manifest))
    except (ScriptError, json.JSONDecodeError) as exc:
        raise CorpusError(f"malformed manifest: {exc}") from exc
    if not isinstance(raw, list):
        raise CorpusError("malformed manifest: expected a list of entries")
    return tuple(_entry(i, item) for i, item in enumerate(raw))


def check_entry(entry: CorpusEntry, directory: Optional[Path] = None
                ) -> EntryResult:
    directory = directory or corpus_dir()
    start = time.perf_counter()

    def done(passed: bool, detail: str) -> EntryResult:
        return EntryResult(entry, passed, detail, time.perf_counter() - start)

    path = directory / entry.script
    if not path.is_file():
        return done(False, f"missing script {path}")
    try:
        script, env = parse_script(read_text(path))
        judgment = check_proof(env, script.proof())
    except (ScriptError, ProofCheckError) as exc:
        return done(False, str(exc))
    try:
        want_conclusion = parse_formula(entry.conclusion, env)
        want_hyps = tuple(
            pformat(parse_formula(h, env)) for h in entry.hypotheses)
        # a scheme's blanket grant (None) sorts before its formula grants
        want_ext = tuple(sorted(
            ((scheme, None if f is None else pformat(parse_formula(f, env)))
             for scheme, f in entry.extensions),
            key=lambda g: (g[0], g[1] is not None, g[1] or "")))
    except (ParseError, DefinitionError, IllFormedError) as exc:
        return done(False, f"manifest: {exc}")
    if judgment.conclusion != want_conclusion:
        return done(False, f"concluded {pformat(judgment.conclusion)}, "
                           f"expected {entry.conclusion}")
    got_hyps = tuple(pformat(h) for h in judgment.hypotheses)
    if got_hyps != want_hyps:
        return done(False, f"hypotheses {list(got_hyps)}, "
                           f"expected {list(want_hyps)}")
    # the kernel records each grant it used with the formula it covered
    got_ext = tuple(sorted((g.scheme, pformat(g.formula))
                           for g in judgment.extensions_used))
    if got_ext != want_ext:
        return done(False, f"extensions {list(got_ext)}, "
                           f"expected {list(want_ext)}")
    return done(True, f"⊦ {pformat(judgment.conclusion)}")


def run_corpus(directory: Optional[Path] = None) -> CorpusReport:
    directory = directory or corpus_dir()
    start = time.perf_counter()
    results = tuple(check_entry(e, directory) for e in load_manifest(directory))
    return CorpusReport(results, time.perf_counter() - start)
