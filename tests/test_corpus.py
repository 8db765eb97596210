"""The bundled corpus: every entry checks, and corrupted variants do not."""

import contextlib
import copy
import importlib.util
import random
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest

from mutation import dead_steps, drop_step, mutations

from mathkernel.corpus import (
    CorpusEntry,
    CorpusError,
    check_entry,
    corpus_dir,
    load_manifest,
    run_corpus,
)
from mathkernel import kernel, syntax
from mathkernel.kernel import (
    ByExtension,
    ByRelease,
    ByTheory,
    Judgment,
    ProofCheckError,
    check_proof,
)
from mathkernel.script import emit_script, parse_script, script_of
from mathkernel.semantics import validity
from mathkernel.syntax import BOT, And, Implies


ENTRIES = load_manifest()


def _with(entry, **changes):
    """``entry`` with the fields ``changes`` names replaced."""
    fields = {name: getattr(entry, name) for name in CorpusEntry.__match_args__}
    return CorpusEntry(**{**fields, **changes})


def load(script_name):
    path = corpus_dir() / script_name
    return parse_script(path.read_text())


def test_manifest_covers_all_scripts():
    names = {e.script for e in ENTRIES}
    on_disk = {p.name for p in corpus_dir().glob("*.pf")}
    assert names == on_disk
    assert len(ENTRIES) >= 12


def test_every_entry_passes():
    report = run_corpus()
    failures = [f"{r.entry.script}: {r.detail}"
                for r in report.results if not r.passed]
    assert not failures, failures


def test_gated_entries_fail_without_caller_grants():
    for name in ("release_paradox.pf", "unrestricted_T_paradox.pf",
                 "liar_meaningful_collapse_released.pf",
                 "quantified_holding_law_released.pf"):
        script, env = load(name)
        with pytest.raises(ProofCheckError):
            check_proof(env, script.proof(), granted=set())


def test_ungated_entries_use_no_extensions():
    gated = {"release_paradox.pf", "unrestricted_T_paradox.pf",
             "liar_meaningful_collapse_released.pf",
             "quantified_holding_law_released.pf"}
    for entry in ENTRIES:
        if entry.script not in gated:
            assert entry.extensions == (), entry.script
            script, env = load(entry.script)
            judgment = check_proof(env, script.proof(), granted=set())
            assert judgment.extensions_used == ()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.script)
def test_every_step_is_live(entry):
    script, _ = load(entry.script)
    assert dead_steps(script.proof()) == []


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.script)
def test_script_text_round_trips(entry):
    text = (corpus_dir() / entry.script).read_text()
    parsed, env = parse_script(text)
    assert emit_script(script_of(env, parsed.proof())) == text


def test_missing_script_reported():
    result = check_entry(_with(ENTRIES[0], script="absent.pf"))
    assert not result.passed
    assert "absent.pf" in result.detail


@pytest.mark.parametrize("field,value,detail", [
    ("conclusion", "bot", "concluded ~~A(`la`), expected bot"),
    ("hypotheses", ("bot",), "hypotheses [], expected ['bot']")])
def test_judgment_mismatch_is_reported(field, value, detail):
    entry = ENTRIES[0]
    assert entry.script == "anomaly_assertible_liar.pf"
    result = check_entry(_with(entry, **{field: value}))
    assert (result.passed, result.detail) == (False, detail)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.script)
def test_twenty_mutations_rejected(entry):
    # and a rejection renders no formula unless its text is read; only an
    # accepted extension or release step renders one, its grant
    script, env = load(entry.script)
    proof = script.proof()
    rng = random.Random(entry.script)
    rendered, render = [], syntax._Node.__str__
    with mock.patch.object(syntax._Node, "__str__",
                           lambda phi: rendered.append(phi) or render(phi)):
        for mutated in mutations(rng, proof, count=20):
            with pytest.raises(ProofCheckError):
                check_proof(env, mutated)
    assert rendered == [] or entry.extensions


def verdict(env, proof):
    try:
        return check_proof(env, proof)
    except ProofCheckError as exc:
        return exc.errors


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.script)
def test_a_warm_environment_gives_the_verdicts_of_a_fresh_one(entry):
    # env has checked the proof's definitions and, one by one, the proof
    # and its mutants; a copy of env starts with an empty memo
    script, env = load(entry.script)
    proof = script.proof()
    cases = [proof, *mutations(random.Random(entry.script), proof, count=20)]
    warm = [verdict(env, p) for p in cases]
    assert isinstance(warm[0], Judgment)
    assert warm == [verdict(copy.copy(env), p) for p in cases]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.script)
def test_matched_theory_steps_get_the_verdicts_of_build_and_compare(entry):
    # with every matcher check_proof calls gone (L1..L9, theory and
    # extension), every scheme step is built and compared, as before the
    # matchers were generated: the proof and each of its mutants get the
    # same judgment or the same errors; ALog's is_log_instance keeps its own
    script, env = load(entry.script)
    proof = script.proof()
    cases = [proof, *mutations(random.Random(entry.script), proof, count=20)]
    matched = [verdict(env, p) for p in cases]
    with contextlib.ExitStack() as stack:
        for table in kernel._MATCHERS.values():
            stack.enter_context(mock.patch.dict(table, clear=True))
        assert [verdict(env, p) for p in cases] == matched


def test_deleting_the_capture_step_breaks_the_anomaly():
    script, env = load("anomaly_assertible_liar.pf")
    proof = script.proof()
    capture_steps = [i for i, st in enumerate(proof.steps)
                     if isinstance(st.just, ByTheory)
                     and st.just.scheme == "Capture"]
    assert capture_steps, "the anomaly derivation must use Capture"
    for i in capture_steps:
        with pytest.raises(ProofCheckError):
            check_proof(env, drop_step(proof, i))


# whether the cited instances of each entry alone prove bot: True for the
# three entries that derive a paradox through an extension, None where a
# quantified subformula was abstracted; a new entry comes with its verdict
_PROVES_BOT = {
    "anomaly_assertible_liar.pf": False, "assertible_liar_collapse.pf": False,
    "assertible_liar_meaningful.pf": False, "anomaly_liar_meaningful.pf": False,
    "liar_meaningful_collapse.pf": False,
    "liar_meaningful_collapse_released.pf": True,
    "truth_conjunction_distribution.pf": False,
    "quantified_holding_law.pf": False,
    "quantified_holding_law_released.pf": None,
    "anomaly_russell_meaningful.pf": False,
    "russell_meaningful_collapse.pf": False,
    "anomaly_assertible_russell.pf": False,
    "assertible_russell_collapse.pf": False, "release_paradox.pf": True,
    "unrestricted_T_paradox.pf": True,
    "meaningfulness_of_meaningfulness.pf": False,
    "meaningfulness_of_assertibility.pf": False,
}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.script)
def test_the_cited_instances_of_an_entry_prove_bot_only_where_pinned(entry):
    # an oracle from outside the kernel: gamma holds the distinct formulas
    # of the theory and extension steps, the hypotheses, and premise ->
    # conclusion of each release step, read off the parsed script; the
    # kernel is not asked whether any of them is an instance
    script, _ = load(entry.script)
    steps = script.steps
    gamma = dict.fromkeys(
        [st.formula for st in steps if type(st.just) in (ByTheory, ByExtension)]
        + script.hypotheses
        + [Implies(steps[st.just.premise].formula, st.formula)
           for st in steps if type(st.just) is ByRelease])
    valid, _ = validity(Implies(reduce(And, gamma), BOT))
    assert valid is _PROVES_BOT[entry.script]


def test_corpus_dir_override(tmp_path):
    # the directory `corpus --dir` passes; this one holds no manifest
    with pytest.raises(CorpusError) as exc:
        run_corpus(tmp_path)
    assert str(exc.value) == f"no manifest at {tmp_path / 'manifest.json'}"


def test_generator_reproduces_the_shipped_corpus(tmp_path, monkeypatch):
    tool = Path(__file__).resolve().parent.parent / "tools" / "generate_corpus.py"
    spec = importlib.util.spec_from_file_location("generate_corpus", tool)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "OUT", tmp_path)
    generator.main()
    shipped = sorted(p.name for p in corpus_dir().iterdir() if p.is_file())
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() \
            == (corpus_dir() / name).read_bytes(), name
