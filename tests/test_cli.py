"""The command-line interface: subcommands, exit codes, JSON output."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import mathkernel
from mathkernel import cli
from mathkernel.cli import main
from mathkernel.corpus import corpus_dir
from mathkernel.kernel import check_proof
from mathkernel.parser import MAX_DEPTH, parse_formula
from mathkernel.script import parse_script
from mathkernel.syntax import Environment, pformat
from test_parser import deep_texts
from test_syntax import record_classes


ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def schema(name):
    return json.loads((DOCS / name).read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(name):
    return str(corpus_dir() / name)


def run_python(*argv):
    """Run the interpreter in a fresh process with ``src`` importable."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


# -- check


def test_check_passing_script(capsys):
    code, out, _ = run(capsys, "check",
                       corpus_path("anomaly_assertible_liar.pf"))
    assert code == 0
    assert "~~A(`la`)" in out


def test_check_json_is_schema_valid(capsys):
    code, out, _ = run(capsys, "check",
                       corpus_path("anomaly_assertible_liar.pf"), "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("check_report.schema.json"))
    assert payload["ok"]
    assert payload["judgment"]["conclusion"] == "~~A(`la`)"


def test_check_gated_script_needs_both_keys(capsys):
    path = corpus_path("release_paradox.pf")
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert "ReleaseAxiom" in err
    code, out, _ = run(capsys, "check", path, "--allow", "ReleaseAxiom")
    assert code == 0
    assert "bot" in out


def test_check_failure_json_is_schema_valid(capsys):
    code, out, _ = run(capsys, "check", corpus_path("release_paradox.pf"),
                       "--json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("check_report.schema.json"))
    assert not payload["ok"]
    assert payload["errors"]


def test_check_rejects_undeclared_grant(capsys):
    path = corpus_path("anomaly_assertible_liar.pf")
    code, _, err = run(capsys, "check", path, "--allow", "ReleaseAxiom")
    assert code == 1
    assert "not declared" in err
    code, out, _ = run(capsys, "check", path, "--allow", "ReleaseAxiom",
                       "--json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("check_report.schema.json"))
    assert payload == {"script": path, "ok": False, "errors": [{
        "step": None, "message": "granted extension(s) not declared by the "
                                 "script header: ReleaseAxiom"}]}


def test_check_unknown_scheme_is_usage_error(capsys):
    code, _, err = run(capsys, "check",
                       corpus_path("anomaly_assertible_liar.pf"),
                       "--allow", "NoSuchScheme")
    assert code == 2


def test_check_missing_file_is_usage_error(capsys):
    code, _, _ = run(capsys, "check", "no_such_file.pf")
    assert code == 2


# -- corpus


def test_corpus_text(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_corpus_json_is_schema_valid(capsys):
    code, out, _ = run(capsys, "corpus", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("corpus_report.schema.json"))
    assert payload["ok"] and len(payload["entries"]) >= 12


def test_corpus_reports_failures(tmp_path, capsys):
    src = corpus_dir()
    for name in ("manifest.json", "anomaly_assertible_liar.pf"):
        (tmp_path / name).write_text((src / name).read_text())
    # the manifest still lists every entry; the scripts are missing
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("manifest", [
    [{"conclusion": "bot"}],
    {"a": 1},
    [{"script": "a.pf", "conclusion": "bot", "extensions": [1]}],
    [{"script": "a.pf", "conclusion": "bot", "extensions": [],
      "hypotheses": "p"}],
], ids=["no-script", "not-a-list", "bad-extension", "bad-hypotheses"])
def test_corpus_malformed_manifest_is_usage_error(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 2
    assert "malformed manifest" in err
    assert "Traceback" not in err


def test_corpus_unparsable_expected_formula_fails_the_entry(tmp_path, capsys):
    src = corpus_dir()
    entry = next(e for e in json.loads((src / "manifest.json").read_text())
                 if e["script"] == "anomaly_assertible_liar.pf")
    (tmp_path / entry["script"]).write_text((src / entry["script"]).read_text())
    (tmp_path / "manifest.json").write_text(
        json.dumps([{**entry, "conclusion": "(("}]))
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert "FAIL" in out and "manifest:" in out


def test_corpus_blanket_and_formula_grant_of_one_scheme_fail_the_entry(
        tmp_path, capsys):
    src = corpus_dir()
    entry = next(e for e in json.loads((src / "manifest.json").read_text())
                 if e["script"] == "release_paradox.pf")
    (tmp_path / entry["script"]).write_text((src / entry["script"]).read_text())
    grants = [{"scheme": "ReleaseAxiom", "formula": "bot"},
              {"scheme": "ReleaseAxiom", "formula": None}]
    (tmp_path / "manifest.json").write_text(
        json.dumps([{**entry, "extensions": grants}]))
    code, out, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1 and "Traceback" not in err
    assert ("extensions [('ReleaseAxiom', 'bot')], expected "
            "[('ReleaseAxiom', None), ('ReleaseAxiom', 'bot')]") in out


@pytest.mark.parametrize("line", [
    "1: bot by", "1: by hyp 1", "1: bot  by hyp \u00b2", "1: forall by hyp 1",
], ids=["no-justification", "no-formula", "superscript-index", "bare-quantifier"])
def test_check_malformed_step_is_usage_error(tmp_path, capsys, line):
    path = tmp_path / "bad.pf"
    path.write_text(line + "\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 1:" in err and "Traceback" not in err


LONG = "9" * 5000  # more digits than int() reads from a string


@pytest.mark.parametrize("text,line_no", [
    (f"{LONG}: bot by hyp 1\n", 1),
    (f"1: bot by MP 1 {LONG}\n", 1),
    (f"def w/{LONG} := p\n", 1),
    (f"hyp {LONG}: p\n", 1),
    (f"1: ~bot by L9[bot]\n2: p by GenF {LONG} x\n", 2),
], ids=["step", "mp-premise", "def-arity", "hyp", "genf-premise"])
def test_check_number_too_long_is_usage_error(tmp_path, capsys, text,
                                              line_no):
    path = tmp_path / "long.pf"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: {path}: line {line_no}: "
                   "number too long: 5000 digits\n")


def test_corpus_script_with_a_number_too_long_fails_the_entry(tmp_path,
                                                             capsys):
    entry = json.loads((corpus_dir() / "manifest.json").read_text())[0]
    (tmp_path / entry["script"]).write_text(f"{LONG}: bot by hyp 1\n")
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    code, out, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1 and err == ""
    assert "FAIL" in out and "line 1: number too long: 5000 digits" in out


TOO_DEEP = f"nested deeper than {MAX_DEPTH}"


@pytest.mark.parametrize("kind", ["neg", "parens", "and", "imp"])
def test_formula_past_the_depth_cap_is_usage_error(tmp_path, capsys, kind):
    text = deep_texts(3000)[kind]
    path = tmp_path / "deep.pf"
    path.write_text(f"1: {text} by hyp 1\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2 and TOO_DEEP in err and "line 1:" in err
    code, _, err = run(capsys, "countermodel", text)
    assert code == 2 and TOO_DEEP in err


NOT_UTF8 = b"\xff\xfe bad"


@pytest.mark.parametrize("command", [["check"], ["tactic", "deduction"]],
                         ids=["check", "tactic"])
def test_script_that_is_not_utf8_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.pf"
    path.write_bytes(NOT_UTF8)
    code, _, err = run(capsys, *command, str(path))
    assert code == 2
    assert "not UTF-8" in err and "Traceback" not in err


def test_corpus_script_that_is_not_utf8_fails_the_entry(tmp_path, capsys):
    entry = json.loads((corpus_dir() / "manifest.json").read_text())[0]
    (tmp_path / entry["script"]).write_bytes(NOT_UTF8)
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert "FAIL" in out and "not UTF-8" in out


def test_corpus_manifest_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(b"[" + NOT_UTF8 + b"]")
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 2
    assert "not UTF-8" in err and "Traceback" not in err


# -- countermodel


def test_countermodel_refutes_excluded_middle(capsys):
    code, out, _ = run(capsys, "countermodel", "p | ~p")
    assert code == 1
    assert "refuted at world" in out


def test_countermodel_validity(capsys):
    code, out, _ = run(capsys, "countermodel", "p -> p")
    assert code == 0
    assert "holds everywhere" in out


def test_countermodel_json_is_schema_valid(capsys):
    for formula, expect in (("~~p -> p", 1), ("p -> ~~p", 0)):
        code, out, _ = run(capsys, "countermodel", formula, "--json")
        assert code == expect
        payload = json.loads(out)
        jsonschema.validate(payload, schema("countermodel.schema.json"))
        assert payload["valid"] == (expect == 0)


def test_countermodel_abstraction_avoids_the_formulas_own_atoms(capsys):
    # the quantified antecedent must not be abstracted to the atom p1
    code, out, _ = run(capsys, "countermodel", "(forall x. q) -> p1")
    assert code == 1
    assert "holds everywhere" not in out


def test_countermodel_bad_formula_is_usage_error(capsys):
    code, _, _ = run(capsys, "countermodel", "p ->")
    assert code == 2


@pytest.mark.parametrize("word", ["hyp", "def", "by", "const", "domain",
                                  "enable"])
def test_countermodel_reserved_word_is_usage_error(capsys, word):
    code, _, err = run(capsys, "countermodel", f"{word} -> {word}")
    assert code == 2
    assert "reserved word used as predicate" in err


@pytest.mark.parametrize("kind", ["neg", "parens", "and", "imp"])
def test_countermodel_at_the_depth_cap(capsys, kind):
    code, _, _ = run(capsys, "countermodel", deep_texts(MAX_DEPTH)[kind])
    assert code in (0, 1)


def test_countermodel_provable_holds_at_any_bound(capsys):
    code, out, _ = run(capsys, "countermodel", "~~(p | ~p)",
                       "--max-worlds", "1")
    assert code == 0
    assert "holds everywhere" in out


def test_countermodel_bounded_search_does_not_claim_validity(capsys):
    code, out, _ = run(capsys, "countermodel", "p | ~p", "--max-worlds", "1")
    assert code == 1
    assert "holds everywhere" not in out
    assert "not intuitionistically valid" in out
    code, out, _ = run(capsys, "countermodel", "p | ~p", "--max-worlds", "1",
                       "--json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("countermodel.schema.json"))
    assert payload == {"formula": "p | ~p", "valid": False}


@pytest.mark.parametrize("formula", ["forall x. (P(x) -> P(x))",
                                     "(forall x. P(x)) -> P(a)"])
def test_countermodel_of_a_quantified_skeleton_leaves_validity_open(
        capsys, formula):
    # G4ip does not prove the skeleton p1 (p1 -> p2 for the second), yet
    # the kernel proves the first formula: a model of the skeleton is no
    # countermodel to it
    shown = f"({pformat(parse_formula(formula, Environment()))})"
    code, out, _ = run(capsys, "countermodel", formula)
    assert code == 1
    assert out.startswith(
        f"countermodel for the propositional skeleton of {shown}:\n")
    assert out.endswith(f"whether {shown} is valid is undecided: a "
                        "quantified subformula stands for an atom\n")
    code, out, _ = run(capsys, "countermodel", formula, "--json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("countermodel.schema.json"))
    assert payload["valid"] is None and "countermodel" in payload
    code, out, _ = run(capsys, "countermodel", formula, "--max-worlds", "1",
                       "--json")
    assert code == 1 and json.loads(out)["valid"] is None


def test_countermodel_without_a_model_of_a_quantified_skeleton(capsys):
    formula = "(forall x. P(x)) | ~(forall x. P(x))"
    code, out, _ = run(capsys, "countermodel", formula, "--max-worlds", "1")
    assert code == 1
    assert out.startswith("no countermodel with up to 1 worlds, but the "
                          "propositional skeleton of")
    assert "is valid is undecided" in out


def test_countermodel_of_quantifier_free_atoms_decides(capsys):
    # distinct atoms can be made false apart, so the skeleton decides
    code, out, _ = run(capsys, "countermodel", "P(x) -> P(y)", "--json")
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("bound", ["0", "6", "-1"])
def test_countermodel_world_bound_out_of_range_is_usage_error(capsys, bound):
    code, out, err = run(capsys, "countermodel", "p | ~p",
                         "--max-worlds", bound)
    assert code == 2
    assert out == ""
    assert "--max-worlds must be between 1 and 5" in err


def test_countermodel_past_the_step_bound_keeps_the_g4ip_verdict(
        capsys, monkeypatch):
    # G4ip finds no proof of the width formula before the sweep stops, so
    # the formula is not valid, though no countermodel was found
    monkeypatch.setattr("mathkernel.semantics._MAX_STEPS", 100)
    formula = "(p -> q | r) | (q -> p | r) | (r -> p | q)"
    shown = f"({pformat(parse_formula(formula, Environment()))})"
    code, out, err = run(capsys, "countermodel", formula)
    assert (code, err) == (1, "")
    assert out == (f"no countermodel within 100 evaluation steps, where the "
                   f"search stops, but {shown} is not intuitionistically "
                   "valid: it has no G4ip proof\n")
    code, out, err = run(capsys, "countermodel", formula, "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    jsonschema.validate(payload, schema("countermodel.schema.json"))
    assert payload == {"formula": formula, "valid": False}
    # with a quantified subformula abstracted the verdict stays open
    quantified = formula.replace("r", "(forall x. P(x))")
    code, out, err = run(capsys, "countermodel", quantified)
    assert (code, err) == (1, "")
    assert out.startswith("no countermodel within 100 evaluation steps, "
                          "where the search stops, but the propositional "
                          "skeleton of")
    assert "is valid is undecided" in out
    code, out, _ = run(capsys, "countermodel", quantified, "--json")
    assert code == 1
    assert json.loads(out) == {"formula": quantified, "valid": None}


@pytest.mark.parametrize("depth", [400, 900])
def test_countermodel_deep_formula_ends_without_traceback(depth):
    for formula in ("~" * depth + "p", "forall x. " + "~" * depth + "p"):
        done = run_python("-m", "mathkernel.cli", "countermodel", formula)
        assert done.returncode in (0, 1, 2), done.stderr[-500:]
        assert "Traceback" not in done.stderr, done.stderr[-500:]


def test_cli_import_does_not_load_numpy():
    done = run_python("-c", "import sys, mathkernel.cli; "
                            "print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    # and the semantics runs with numpy unimportable
    done = run_python("-c", "import sys; sys.modules['numpy'] = None; "
                            "from mathkernel.semantics import "
                            "holds_in_all_models as h; "
                            "from mathkernel.syntax import Atom, Implies; "
                            "p = Atom('p'); print(h(Implies(p, p), 4))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_an_exception_that_is_no_library_error_propagates(monkeypatch):
    def fail(args):
        raise ValueError("no library error")
    monkeypatch.setattr(cli, "_cmd_demo", fail)
    with pytest.raises(ValueError, match="no library error"):
        main(["demo", "paradox"])


def test_check_loads_neither_tactics_nor_semantics():
    largest = max(corpus_dir().glob("*.pf"), key=lambda p: p.stat().st_size)
    done = run_python("-c", "import sys; from mathkernel.cli import main; "
                            f"code = main(['check', {str(largest)!r}]); "
                            "print(code, sorted(m for m in sys.modules if "
                            "m in ('mathkernel.tactics', "
                            "'mathkernel.semantics', 'dataclasses')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_every_public_name_resolves_to_its_home_module():
    homes = [importlib.import_module(f"mathkernel.{name}") for name in
             ("kernel", "parser", "script", "semantics", "syntax", "tactics")]
    listed = dir(mathkernel)
    for name in mathkernel.__all__:
        value = getattr(mathkernel, name)
        defining = [m for m in homes if name in vars(m)]
        assert defining, name
        assert all(vars(m)[name] is value for m in defining), name
        assert name in listed, name
    with pytest.raises(AttributeError):
        mathkernel.no_such_name


def test_every_record_class_has_a_written_docstring():
    classes = record_classes()
    for cls in classes:
        assert (cls.__doc__ or "").strip(), cls.__qualname__
    assert len(classes) >= 40


# -- tactic


@pytest.mark.parametrize("argv", [["deduction"], ["internalize"],
                                  ["mclosure", "p"]])
def test_tactic_missing_file_is_usage_error(tmp_path, capsys, argv):
    path = str(tmp_path / "absent.pf")
    code, out, err = run(capsys, "tactic", argv[0], path, *argv[1:])
    assert (code, out, err) == (2, "", f"error: no such file: {path}\n")


def test_tactic_deduction_emits_checkable_script(tmp_path, capsys):
    src = tmp_path / "in.pf"
    src.write_text("hyp 1: p\nhyp 2: p -> q\n"
                   "1: p by hyp 1\n2: p -> q by hyp 2\n3: q by MP 1 2\n")
    out_path = tmp_path / "out.pf"
    code, _, _ = run(capsys, "tactic", "deduction", str(src),
                     "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0
    assert "(p -> q) -> q" in out


@pytest.mark.parametrize("hyp", ["0", "3", "-1"])
def test_tactic_deduction_hyp_out_of_range_is_a_usage_error(tmp_path, capsys,
                                                            hyp):
    src = tmp_path / "in.pf"
    src.write_text("hyp 1: p\nhyp 2: p -> q\n"
                   "1: p by hyp 1\n2: p -> q by hyp 2\n3: q by MP 1 2\n")
    code, out, err = run(capsys, "tactic", "deduction", str(src),
                         "--hyp", hyp)
    assert (code, out) == (2, "")
    assert err == f"error: no hypothesis {hyp} to discharge\n"


def test_tactic_internalize_names_a_theory_step_by_number_and_rule(capsys):
    code, out, err = run(capsys, "tactic", "internalize",
                         corpus_path("release_paradox.pf"))
    assert (code, out) == (1, "")
    assert err == ("error: step 1: only logical steps can be internalized, "
                   "found MofA[ala]\n")


def test_tactic_internalize(tmp_path, capsys):
    src = tmp_path / "in.pf"
    src.write_text("def s := bot\n"
                   "1: A(`s`) -> M(`s`) -> A(`s`) by L1[A(`s`); M(`s`)]\n")
    code, out, _ = run(capsys, "tactic", "internalize", str(src))
    assert code == 0
    assert "ALog" in out


def test_tactic_internalize_needs_no_m_proof_of_a_dead_axiom(tmp_path,
                                                              capsys):
    # no compositional scheme gives M of the dead step's atom p
    src = tmp_path / "in.pf"
    src.write_text("def s := bot\n"
                   "1: p -> q -> p by L1[p; q]\n"
                   "2: A(`s`) -> M(`s`) -> A(`s`) by L1[A(`s`); M(`s`)]\n")
    code, out, err = run(capsys, "tactic", "internalize", str(src))
    assert (code, err) == (0, "")
    script, env = parse_script(out)
    judgment = check_proof(env, script.proof())
    assert pformat(judgment.conclusion).startswith("A(`")


def test_tactic_mclosure(tmp_path, capsys):
    code, out, _ = run(capsys, "tactic", "mclosure",
                       corpus_path("anomaly_assertible_liar.pf"),
                       "~A(`la`)")
    assert code == 0
    assert "MofA" in out and "MComp3" in out


def test_tactic_mclosure_at_the_depth_cap(capsys):
    # the closure of a formula at the cap is emitted and re-checked
    code, out, _ = run(capsys, "tactic", "mclosure",
                       corpus_path("meaningfulness_of_meaningfulness.pf"),
                       deep_texts(MAX_DEPTH)["neg"])
    assert code in (0, 1)
    assert "MComp3" in out


@pytest.mark.parametrize("text", [
    pytest.param("def s := bot\n1: M(`s`) by MBot[s]\n",
                 id="nothing-to-discharge"),
    # proofs that do not check are rejected before any transformation
    pytest.param("hyp 1: P(x)\n1: P(x) by hyp 1\n"
                 "2: P(x) -> forall x. P(x) by GenF 1 x\n",
                 id="generalizing-a-non-implication"),
    pytest.param("hyp 1: p\n1: p by hyp 1\n2: q by MP 1 5\n",
                 id="citing-a-missing-step"),
])
def test_tactic_failure_exits_one(tmp_path, capsys, text):
    src = tmp_path / "in.pf"
    src.write_text(text)
    code, _, err = run(capsys, "tactic", "deduction", str(src))
    assert code == 1
    assert err.startswith("error: ")


def test_tactic_output_path_that_cannot_be_written_is_usage_error(tmp_path,
                                                                  capsys):
    out_path = tmp_path / "missing" / "out.pf"
    code, out, err = run(capsys, "tactic", "mclosure",
                         corpus_path("anomaly_assertible_liar.pf"), "bot",
                         "-o", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_path.parent.exists()


def test_tactic_mclosure_formula_after_double_dash_is_usage_error(capsys):
    code, out, err = run(capsys, "tactic", "mclosure",
                         corpus_path("anomaly_assertible_liar.pf"), "--", "--")
    assert (code, out) == (2, "")
    assert err == "error: expected a formula, found '-' (at position 0)\n"


# -- demo


def test_demo_paradox_names_the_extension_instance(capsys):
    code, out, _ = run(capsys, "demo", "paradox")
    assert code == 0
    assert "~A(`zero_eq_one`)" in out        # the exact release instance
    assert "ReleaseAxiom" in out
    assert ">>>" in out                      # the gated step is highlighted
