"""Untrusted input through the command line: every run ends in exit 0, 1
or 2, nothing escapes ``cli.main``, and each run stays under 2 s.  One test
draws ``check``, ``countermodel`` and ``corpus`` runs, another the
``tactic`` commands."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from mathkernel.cli import main
from mathkernel.corpus import corpus_dir

# the small scripts keep each check well under the time bound; the large
# ones differ from them only in length
SCRIPTS = sorted(p.name for p in corpus_dir().glob("*.pf")
                 if p.stat().st_size < 5000)
MANIFEST = [e for e in json.loads((corpus_dir() / "manifest.json").read_text())
            if e["script"] in SCRIPTS][:2]

CHARS = st.one_of(st.sampled_from("pq~&|-<>()`.,;:#[]{}=0123456789 \n\t"),
                  st.characters(blacklist_categories=("Cs",)))
TOKENS = ["p", "q", "r", "P", "x", "c", "`p`", "M", "A", "T", "H", "sim",
          "bot", "forall", "exists", "hyp", "by", "(", ")", ",", ".", "~",
          "&", "|", "->", "<->", "-", "`", "²"]
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                        st.sampled_from(["", "p", "((", "bot", "~~A(`la`)",
                                         "ReleaseRule", "nosuch.pf"]),
                        st.lists(st.sampled_from(["p", "bot", 1]), max_size=2),
                        # one scheme granted for one formula and for all
                        st.just([{"scheme": "ReleaseAxiom", "formula": "bot"},
                                 {"scheme": "ReleaseAxiom", "formula": None}]),
                        st.just({}))


WORK = "<work>"  # stands for the example's directory in an argument


@st.composite
def edits(draw, text):
    """text with one to four characters inserted, deleted or replaced."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        cut = i + 1 if edit != "insert" else i
        new = "" if edit == "delete" else draw(CHARS)
        text = text[:i] + new + text[cut:]
    return text


@st.composite
def edited_script(draw):
    name = draw(st.sampled_from(SCRIPTS))
    text = draw(edits((corpus_dir() / name).read_text()))
    return {"bad.pf": text}, ["check", f"{WORK}/bad.pf"]


@st.composite
def token_soup(draw):
    toks = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12))
    return draw(st.sampled_from([" ", ""])).join(toks)


@st.composite
def token_formula(draw):
    return {}, ["countermodel", "--", draw(token_soup())]


@st.composite
def edited_manifest(draw):
    manifest = json.loads(json.dumps(MANIFEST))
    for _ in range(draw(st.integers(1, 3))):
        entry = manifest[draw(st.integers(0, len(manifest) - 1))]
        key = draw(st.sampled_from(sorted(entry) + ["extra"]))
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        manifest = draw(JSON_VALUES)
    files = {e["script"]: (corpus_dir() / e["script"]).read_text()
             for e in MANIFEST}
    files["manifest.json"] = json.dumps(manifest)
    return files, ["corpus", "--dir", WORK]


@settings(max_examples=1000, deadline=2000)
@given(st.one_of(edited_script(), token_formula(), edited_manifest()))
def test_cli_ends_in_an_exit_code(tmp_path_factory, case):
    files, argv = case
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([a.replace(WORK, str(work)) if a.startswith(WORK) else a
                     for a in argv])
    assert code in (0, 1, 2)


CORPUS_TEXTS = [(corpus_dir() / name).read_text() for name in SCRIPTS]
# scripts with hypotheses and logical steps, which every tactic transforms,
# drawn as often as the corpus scripts
TACTIC_SCRIPTS = [
    "hyp 1: p\nhyp 2: p -> q\n"
    "1: p by hyp 1\n2: p -> q by hyp 2\n3: q by MP 1 2\n",
    "def s := bot\nhyp 1: A(`s`)\n"
    "1: A(`s`) -> M(`s`) -> A(`s`) by L1[A(`s`); M(`s`)]\n"
    "2: A(`s`) by hyp 1\n3: M(`s`) -> A(`s`) by MP 2 1\n",
]


@st.composite
def tactic_run(draw):
    text = draw(st.one_of(st.sampled_from(TACTIC_SCRIPTS),
                          st.sampled_from(CORPUS_TEXTS)))
    if draw(st.booleans()):
        text = draw(edits(text))
    transform = draw(st.sampled_from(["deduction", "internalize", "mclosure"]))
    argv = ["tactic", transform]
    if draw(st.booleans()):
        argv += ["-o", draw(st.sampled_from([f"{WORK}/out.pf",
                                             f"{WORK}/missing/out.pf"]))]
    if transform == "deduction" and draw(st.booleans()):
        argv += ["--hyp", str(draw(st.integers(-1, 3)))]
    argv.append(f"{WORK}/in.pf")
    if transform == "mclosure":
        argv += ["--", draw(st.one_of(st.sampled_from(["bot", "M(`s`)",
                                                       "~A(`la`)"]),
                                      token_soup()))]
    return {"in.pf": text}, argv


@settings(max_examples=300, deadline=2000)
@given(tactic_run())
def test_tactic_commands_end_in_an_exit_code(tmp_path_factory, case):
    files, argv = case
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([a.replace(WORK, str(work)) if a.startswith(WORK) else a
                     for a in argv])
    assert code in (0, 1, 2)
