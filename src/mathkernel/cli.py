"""Command-line interface: check scripts, run the corpus, search for
countermodels, apply proof transformations, and walk through the gated
paradox derivation.

Exit codes: 0 on success, 1 on a failed check or a formula that is not
intuitionistically valid, 2 on usage errors (bad input files, unparsable
formulas, a world bound outside 1..5).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .corpus import (CorpusError, CorpusReport, corpus_dir, judgment_json,
                     run_corpus)
from .kernel import (
    EXTENSION_SCHEMES,
    ByExtension,
    ProofCheckError,
    Judgment,
    Proof,
    check_proof,
    extension_instance,
)
from .parser import ParseError, parse_formula
from .script import (ScriptError, emit_just, emit_script, parse_script,
                     read_text, script_of)
from .semantics import SemanticsError, find_countermodel, provable
from .syntax import Environment, IllFormedError, pformat
from .tactics import (NoHypothesisError, TacticError, deduction_theorem,
                      internalize, live_axioms, meaningfulness_closure)


_USAGE_ERROR = 2


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _USAGE_ERROR


def _render_judgment(judgment: Judgment) -> str:
    hyps = ", ".join(pformat(h) for h in judgment.hypotheses)
    line = f"{hyps} ⊦ {pformat(judgment.conclusion)}" if hyps \
        else f"⊦ {pformat(judgment.conclusion)}"
    if judgment.extensions_used:
        grants = ", ".join(map(str, judgment.extensions_used))
        line += f"   [extensions: {grants}]"
    return line


# ---------------------------------------------------------------------------
# check


def _cmd_check(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.is_file():
        return _fail_usage(f"no such file: {path}")
    try:
        script, env = parse_script(read_text(path))
    except ScriptError as exc:
        return _fail_usage(f"{path}: {exc}")
    bad = set(args.allow) - set(EXTENSION_SCHEMES)
    if bad:
        return _fail_usage(f"unknown extension scheme(s): {', '.join(sorted(bad))}")
    declared = {g.scheme for g in script.enables}
    undeclared = set(args.allow) - declared
    report: dict = {"script": str(path), "ok": False}
    if undeclared:
        msg = ("granted extension(s) not declared by the script header: "
               + ", ".join(sorted(undeclared)))
        if args.json:
            report["errors"] = [{"step": None, "message": msg}]
            print(json.dumps(report, indent=2))
        else:
            print(f"{path}: {msg}", file=sys.stderr)
        return 1
    try:
        judgment = check_proof(env, script.proof(), granted=set(args.allow))
    except ProofCheckError as exc:
        report["errors"] = [
            {"step": None if e.index is None else e.index + 1,
             "message": e.message} for e in exc.errors]
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            for err in exc.errors:
                print(f"{path}: {err}", file=sys.stderr)
        return 1
    report["ok"] = True
    report["judgment"] = judgment_json(judgment)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_judgment(judgment))
    return 0


# ---------------------------------------------------------------------------
# corpus


def _report_json(report: CorpusReport) -> dict:
    return {
        "ok": report.passed,
        "seconds": round(report.seconds, 4),
        "entries": [
            {"script": r.entry.script, "ok": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 4)}
            for r in report.results
        ],
    }


def _cmd_corpus(args: argparse.Namespace) -> int:
    try:
        report = run_corpus(Path(args.dir) if args.dir else None)
    except CorpusError as exc:
        return _fail_usage(str(exc))
    if args.json:
        print(json.dumps(_report_json(report), indent=2))
    else:
        for r in report.results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark}  {r.entry.script:45s} {r.detail}")
        print(f"{sum(r.passed for r in report.results)}/{len(report.results)} "
              f"entries passed in {report.seconds:.2f}s")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# countermodel


# enumerate_frames(5) alone takes about 1.5 s; 6 worlds would mean 3**15
# order choices, each canonicalised over 720 permutations
_MAX_WORLDS = 5


def _countermodel_json(formula: str, valid: bool, cm) -> dict:
    payload: dict = {"formula": formula, "valid": valid}
    if cm is not None:
        frame = cm.model.frame
        payload["countermodel"] = {
            "worlds": list(frame.worlds),
            "order": sorted([u, v] for u, v in frame.order if u != v),
            "valuation": {a: sorted(ws)
                          for a, ws in sorted(cm.model.valuation.items())},
            "world": cm.world,
            "subformulas": {n: pformat(phi)
                            for n, phi in sorted(cm.subformulas.items())},
        }
    return payload


def _cmd_countermodel(args: argparse.Namespace) -> int:
    if not 1 <= args.max_worlds <= _MAX_WORLDS:
        return _fail_usage(f"--max-worlds must be between 1 and {_MAX_WORLDS}")
    try:
        phi = parse_formula(args.formula, Environment())
        cm = find_countermodel(phi, max_worlds=args.max_worlds)
        valid = cm is None and provable(phi)
    except (ParseError, IllFormedError, SemanticsError) as exc:
        return _fail_usage(str(exc))
    if args.json:
        print(json.dumps(_countermodel_json(args.formula, valid, cm), indent=2))
    elif valid:
        print(f"no countermodel with up to {args.max_worlds} worlds: "
              f"({pformat(phi)}) holds everywhere")
    elif cm is None:
        print(f"no countermodel with up to {args.max_worlds} worlds, but "
              f"({pformat(phi)}) is not intuitionistically valid: it has no "
              "G4ip proof, so every countermodel has more worlds")
    else:
        print(f"countermodel for ({pformat(phi)}):")
        print(cm.describe())
    return 0 if valid else 1


# ---------------------------------------------------------------------------
# tactic


def _load_script(path_text: str):
    path = Path(path_text)
    if not path.is_file():
        raise ScriptError(f"no such file: {path}")
    return parse_script(read_text(path))


def _emit_result(env: Environment, proof: Proof, out: Optional[str]) -> None:
    check_proof(env, proof, granted={g.scheme for g in proof.enabled})
    text = emit_script(script_of(env, proof))
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_tactic(args: argparse.Namespace) -> int:
    try:
        script, env = _load_script(args.file)
        proof = script.proof()
        if args.transform != "mclosure":  # it reads only the declarations
            check_proof(env, proof, granted={g.scheme for g in proof.enabled})
        if args.transform == "deduction":
            hyp_index = None if args.hyp is None else args.hyp - 1
            result = deduction_theorem(env, proof, hyp_index)
        elif args.transform == "internalize":
            m_proofs = {phi: meaningfulness_closure(env, phi)
                        for phi in live_axioms(proof)}
            result = internalize(env, proof, m_proofs)
        else:  # mclosure
            phi = parse_formula(args.formula, env)
            result = meaningfulness_closure(env, phi)
        _emit_result(env, result, args.out)
    except (ScriptError, ParseError, IllFormedError, NoHypothesisError) as exc:
        return _fail_usage(str(exc))
    except (TacticError, ProofCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# demo


def _cmd_demo(args: argparse.Namespace) -> int:
    path = corpus_dir() / "release_paradox.pf"
    try:
        script, env = _load_script(str(path))
    except ScriptError as exc:
        return _fail_usage(str(exc))
    proof = script.proof()
    granted = {g.scheme for g in proof.enabled}
    try:
        judgment = check_proof(env, proof, granted=granted)
    except ProofCheckError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    print(f"script: {path}")
    print(f"granted extensions: {', '.join(sorted(granted))}")
    print()
    for i, step in enumerate(proof.steps):
        marker = "   "
        note = ""
        if isinstance(step.just, ByExtension):
            marker = ">>>"
            instance = extension_instance(env, step.just.scheme,
                                          step.just.params)
            note = (f"   <-- extension instance {pformat(instance)}, "
                    f"admitted only because {step.just.scheme} is granted")
        print(f"{marker} {i + 1:3d}: {pformat(step.formula)}"
              f"   by {emit_just(step.just)}{note}")
    print()
    print(_render_judgment(judgment))
    print("Without the grant (omit --allow on `check`), the same script "
          "is rejected: the collapse needs the release step.")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathkernel",
        description="Proof checker for an intuitionistic theory of "
                    "meaningfulness, assertibility, truth, and holding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check one proof script")
    p_check.add_argument("file")
    p_check.add_argument("--allow", action="append", default=[],
                         metavar="SCHEME",
                         help="grant an extension scheme named in the "
                              "script header (repeatable)")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_corpus = sub.add_parser("corpus", help="check every bundled script")
    p_corpus.add_argument("--dir", help="corpus directory override")
    p_corpus.add_argument("--json", action="store_true")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_cm = sub.add_parser("countermodel",
                          help="search finite ordered models for a "
                               "refutation of a formula")
    p_cm.add_argument("formula")
    p_cm.add_argument("--max-worlds", type=int, default=4,
                      help=f"largest model searched, 1..{_MAX_WORLDS} worlds "
                           "(default: 4); validity is decided by G4ip")
    p_cm.add_argument("--json", action="store_true")
    p_cm.set_defaults(func=_cmd_countermodel)

    p_tac = sub.add_parser("tactic",
                           help="transform a proof script; the result is "
                                "re-checked and emitted as a script")
    tac_sub = p_tac.add_subparsers(dest="transform", required=True)
    t_ded = tac_sub.add_parser("deduction",
                               help="discharge a hypothesis into an "
                                    "implication")
    t_ded.add_argument("file")
    t_ded.add_argument("--hyp", type=int, default=None,
                       help="1-based hypothesis to discharge (default: last)")
    t_ded.add_argument("-o", "--out", default=None)
    t_ded.set_defaults(func=_cmd_tactic)
    t_int = tac_sub.add_parser("internalize",
                               help="lift a purely logical proof to "
                                    "assertibility ascriptions")
    t_int.add_argument("file")
    t_int.add_argument("-o", "--out", default=None)
    t_int.set_defaults(func=_cmd_tactic)
    t_mc = tac_sub.add_parser("mclosure",
                              help="derive meaningfulness of a formula "
                                   "compositionally")
    t_mc.add_argument("file", help="script providing the declarations")
    t_mc.add_argument("formula")
    t_mc.add_argument("-o", "--out", default=None)
    t_mc.set_defaults(func=_cmd_tactic)

    p_demo = sub.add_parser("demo", help="annotated walkthrough")
    p_demo.add_argument("topic", choices=["paradox"])
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
