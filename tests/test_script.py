"""Proof-script reading, writing, and the text round trip."""

import pytest

from mathkernel.kernel import (ByGenE, ByGenF, ByMP, ByTheory, ExtensionGrant,
                               Proof, ProofCheckError, Step, check_proof)
from mathkernel.script import (ScriptError, emit_just, emit_script,
                               parse_script, script_of)
from mathkernel.syntax import (BOT, Const, Environment, MApp, Var, neg,
                               pformat, quoted)
from mathkernel.tactics import ProofBuilder


GOOD = """\
# a tiny but representative script
def la := ~A(`la`)
def ala := A(`la`)
hyp 1: M(`la`)
1: M(`la`) by hyp 1
2: M(`la`) -> ~A(`la`) -> A(`la`) by Capture[la]
3: ~A(`la`) -> A(`la`) by MP 1 2
"""


def test_parse_basic_script():
    script, env = parse_script(GOOD)
    assert len(script.hypotheses) == 1
    assert len(script.steps) == 3
    assert isinstance(script.steps[1].just, ByTheory)
    assert isinstance(script.steps[2].just, ByMP)
    judgment = check_proof(env, script.proof())
    assert pformat(judgment.conclusion) == "~A(`la`) -> A(`la`)"


def test_emit_parse_round_trip():
    script, env = parse_script(GOOD)
    text = emit_script(script_of(env, script.proof()))
    script2, env2 = parse_script(text)
    assert script2.proof() == script.proof()
    assert emit_script(script_of(env2, script2.proof())) == text


def test_step_numbers_must_be_consecutive():
    bad = GOOD.replace("3: ~A(`la`)", "4: ~A(`la`)")
    with pytest.raises(ScriptError):
        parse_script(bad)


def test_errors_carry_line_numbers():
    bad = GOOD + "4: bot by MP 1\n"  # MP needs two premises
    with pytest.raises(ScriptError) as exc:
        parse_script(bad)
    assert exc.value.line_no == 8


def test_unknown_justification_rejected():
    bad = GOOD.replace("by Capture[la]", "by Seize[la]")
    with pytest.raises(ScriptError):
        parse_script(bad)


def test_enable_may_quote_later_definitions():
    text = """\
enable ReleaseRule(~A(`la`))
def la := ~A(`la`)
1: M(`la`) -> ~A(`la`) -> A(`la`) by Capture[la]
"""
    script, env = parse_script(text)
    (grant,) = script.enables
    assert grant.scheme == "ReleaseRule"
    assert grant.formula is not None


def test_enable_without_formula_grants_scheme_wholesale():
    text = """\
enable ReleaseRule
def s := bot
1: M(`s`) by MBot[s]
"""
    script, _ = parse_script(text)
    assert script.enables == [ExtensionGrant("ReleaseRule", None)]


def test_domain_and_const_declarations():
    text = """\
domain Sent = {s1, s2} definite
const c
def ws1 := A(s1)
1: Sent(s1) | ~Sent(s1) by DefiniteEM[Sent; s1]
"""
    script, env = parse_script(text)
    assert [(d.predicate, d.constants, d.definite)
            for d in env.domains.values()] == [("Sent", ("s1", "s2"), True)]
    assert "c" in env.constants
    check_proof(env, script.proof())


def test_every_kind_of_declaration_round_trips():
    text = """\
domain Sent = {s1, s2} definite
domain Obj = {o1}
const c
def la := ~A(`la`)
def w/1 := A(v0)
def g(x, y) := H(`w`, x) & H(`w`, y)
1: Sent(s1) | ~Sent(s1) by DefiniteEM[Sent; s1]
"""
    script, env = parse_script(text)
    # the writer names a definition's parameters instead of counting them
    emitted = text.replace("def w/1", "def w(v0)")
    assert emit_script(script_of(env, script.proof())) == emitted
    assert emit_script(script) == emitted
    script2, env2 = parse_script(emitted)
    assert script2.proof() == script.proof()
    assert env2.domains == env.domains and env2.constants == env.constants
    assert env2.definitions == env.definitions
    assert emit_script(script_of(env2, script2.proof())) == emitted


def test_generalizations_and_a_blanket_grant_round_trip():
    text = """\
enable ReleaseRule
1: bot -> A(x) by L9[A(x)]
2: bot -> (forall x. A(x)) by GenF 1 x
3: bot -> (forall y. A(y)) by GenF 1 x y
4: ~bot by L9[bot]
5: ~bot -> A(x) -> ~bot by L1[~bot; A(x)]
6: A(x) -> ~bot by MP 4 5
7: (exists x. A(x)) -> ~bot by GenE 6 x
8: (exists y. A(y)) -> ~bot by GenE 6 x y
"""
    script, env = parse_script(text)
    assert script.enables == [ExtensionGrant("ReleaseRule")]
    gens = [st.just for st in script.steps
            if isinstance(st.just, (ByGenF, ByGenE))]
    assert gens == [ByGenF(0, "x", "x"), ByGenF(0, "x", "y"),
                    ByGenE(5, "x", "x"), ByGenE(5, "x", "y")]
    check_proof(env, script.proof())
    assert emit_script(script_of(env, script.proof())) == text


def test_a_domain_may_be_declared_twice_alike():
    text = """\
domain Sent = {s1, s2}
domain Sent = {s1, s2}
1: Sent(s1) -> Sent(s1) | ~Sent(s1) by L6[Sent(s1); ~Sent(s1)]
"""
    script, env = parse_script(text)
    assert list(env.domains) == ["Sent"]
    assert emit_script(script) == text.replace("domain Sent = {s1, s2}\n", "", 1)


@pytest.mark.parametrize("line,message", [
    ("domain Sent = {s1}", "conflicting redeclaration of domain Sent"),
    ("def g(x, x) := bot", "repeated parameter in definition of g"),
    ("1: ~bot by L9[bot; bot]", "L9: expected 1 parameters, got 2"),
    ("1: ~bot by ForallCapture[Sent; w; u]",
     "ForallCapture: expected at least 4 parameters, got 3"),
], ids=["conflicting-domain", "repeated-parameter", "too-many-parameters",
        "too-few-parameters"])
def test_declaration_and_parameter_errors_name_the_line(line, message):
    text = f"domain Sent = {{s1, s2}}\n{line}\n"
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == f"line 2: {message}"


def test_parameterized_definition_forms():
    text = """\
def w/1 := A(v0)
def g(x, y) := H(`w`, x) & H(`w`, y)
def s := bot
1: M(`s`) by MBot[s]
"""
    script, env = parse_script(text)
    assert env.resolve("w") is not None
    assert env.resolve("g") is not None
    judgment = check_proof(env, script.proof())
    assert judgment.conclusion is not None


def test_hypothesis_numbering_is_one_based():
    bad = GOOD.replace("hyp 1:", "hyp 0:")
    with pytest.raises(ScriptError):
        parse_script(bad)


def test_equal_quotation_leaves_of_a_script_are_one_object():
    text = """\
def s := bot
hyp 1: A(`s`)
1: A(`s`) -> M(`s`) -> A(`s`) by L1[A(`s`); M(`s`)]
2: A(`s`) by hyp 1
3: M(`s`) -> A(`s`) by MP 2 1
"""
    script, env = parse_script(text)
    a_s = script.hypotheses[0]
    one, two, three = (st.formula for st in script.steps)
    assert one.left is a_s and one.right.right is a_s
    assert two is a_s and three.right is a_s
    assert three.left is one.right.left
    assert script.steps[0].just.params == (a_s, one.right.left)
    check_proof(env, script.proof())


def test_a_self_quoting_leaf_is_not_shared():
    # the body's A(`la`) is parsed before la is bound, so it is not checked
    # there and a later A(`la`) is built afresh
    script, env = parse_script(GOOD)
    self_leaf = env.resolve("la").left
    stated = script.steps[2].formula.right
    assert self_leaf == stated and self_leaf is not stated
    assert env.resolve("ala") is stated  # checked in ala's body, shared
    check_proof(env, script.proof())


def test_a_bare_identifier_follows_a_later_const_line():
    text = """\
hyp 1: M(c)
const c
hyp 2: M(c)
1: M(c) by hyp 2
"""
    script, env = parse_script(text)
    assert script.hypotheses == [MApp(Var("c")), MApp(Const("c"))]
    assert script.steps[0].formula == MApp(Const("c"))
    check_proof(env, script.proof())


def test_an_mp_step_states_the_consequent_of_its_major_premise():
    text = """\
def s := bot
hyp 1: A(`s`)
1: A(`s`) by hyp 1
2: A(`s`) -> ~M(`s`) -> A(`s`) by L1[A(`s`); ~M(`s`)]
3: ~M(`s`) -> A(`s`) by MP 1 2
"""
    script, env = parse_script(text)
    one, two, three = (st.formula for st in script.steps)
    assert three is two.right
    assert script.steps[1].just.params[1] is three.left
    check_proof(env, script.proof())


def test_both_implications_of_a_biconditional_are_shared():
    text = """\
def s := bot
hyp 1: p <-> M(`s`)
1: p <-> M(`s`) by hyp 1
2: (p -> M(`s`)) & (M(`s`) -> p) -> p -> M(`s`) by L4[p -> M(`s`); M(`s`) -> p]
3: p -> M(`s`) by MP 1 2
"""
    script, env = parse_script(text)
    bic = script.hypotheses[0]
    one, two, three = (st.formula for st in script.steps)
    assert one is bic and two.left is bic
    assert three is bic.left and two.right is bic.left
    assert script.steps[1].just.params == (bic.left, bic.right)
    check_proof(env, script.proof())


def test_a_compound_over_a_bare_identifier_follows_a_later_const_line():
    text = """\
hyp 1: ~M(c)
const c
hyp 2: ~M(c)
1: ~M(c) by hyp 2
"""
    script, env = parse_script(text)
    before, after = script.hypotheses
    assert before == neg(MApp(Var("c"))) and after == neg(MApp(Const("c")))
    assert before.left is not after.left
    # a leaf over a bare identifier is never shared, nor what lies above it
    assert script.steps[0].formula == after
    assert script.steps[0].formula is not after
    check_proof(env, script.proof())


@pytest.mark.parametrize("formula, error", [
    ("M(", "expected a term, found '' (at position 2)"),
    ("M(`s`", "expected ')', found '' (at position 5)"),
    ("A(`s` &", "expected ')', found '&' (at position 6)"),
    ("M(`s`) & M(`zz`)", "unbound quotation name `zz` (at position 11)"),
    ("~M(`s`) & ~M(`s`) & ~M(`zz`)",
     "unbound quotation name `zz` (at position 23)"),
    ("(M(`s`) <-> M(`s`)) <-> ~~",
     "expected a formula, found '' (at position 26)"),
    ("(~M(`s`) -> bot) & (~M(`s`) -> bot",
     "expected ')', found '' (at position 34)"),
])
def test_a_bad_leaf_after_shared_ones_names_its_line_and_position(formula,
                                                                 error):
    text = f"def s := bot\n1: M(`s`) by MBot[s]\n2: {formula} by MBot[s]\n"
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert exc.value.line_no == 3
    assert str(exc.value) == f"line 3: {error}"


def test_a_total_extension_survives_the_writer():
    env = Environment()
    env.declare_domain("Sent", ("s1", "s2"), definite=True)
    env.declare_total_extension("Tr0", "Sent")
    b = ProofBuilder(env)
    b.theory("TotalExtM", "Tr0", Const("s2"))
    proof = b.build(b.theory("TotalExtPos", "Tr0", Const("s1")))
    judgment = check_proof(env, proof)
    text = emit_script(script_of(env, proof))
    assert text.splitlines()[:3] == ["domain Sent = {s1, s2} definite",
                                     "extend Tr0 over Sent",
                                     "def Tr0_ext_s1 := Tr0_ext(s1)"]
    script, fresh = parse_script(text)
    assert fresh.extensions == env.extensions
    assert check_proof(fresh, script.proof()) == judgment
    assert emit_script(script_of(fresh, script.proof())) == text


def _extend_then_declare_a_constant(env):
    env.declare_domain("Sent", ("s1",), definite=True)
    env.declare_total_extension("Tr", "Sent")
    env.declare_constant("c")


def _extend_then_declare_a_domain(env):
    env.declare_domain("Sent", ("s1",), definite=True)
    env.declare_total_extension("Tr", "Sent")
    env.declare_domain("Obj", ("c",), definite=True)


def _define_then_extend(env):
    env.define("z", (), BOT)
    env.declare_domain("Sent", ("s1",), definite=True)
    env.declare_total_extension("Tr", "Sent")
    env.declare_constant("c")


def _define_then_declare_a_constant(env):
    env.declare_domain("Sent", ("s1",), definite=True)
    env.declare_total_extension("Tr", "Sent")
    env.define("w", ("c",), MApp(Var("c")))  # c a variable here
    env.declare_constant("c")


@pytest.mark.parametrize("declare", [
    _extend_then_declare_a_constant, _extend_then_declare_a_domain,
    _define_then_extend, _define_then_declare_a_constant,
], ids=lambda f: f.__name__.strip("_"))
def test_the_writer_keeps_the_order_of_declarations(declare):
    env = Environment()
    declare(env)
    b = ProofBuilder(env)
    proof = b.build(b.theory("TotalExtM", "Tr", Const("s1")))
    text = emit_script(script_of(env, proof))
    script, fresh = parse_script(text)
    assert fresh.declarations == env.declarations
    assert emit_script(script_of(fresh, script.proof())) == text
    # c was declared after the extension, which so has no name for it
    step = Step(quoted("M", "Tr_ext_c"),
                ByTheory("TotalExtM", ("Tr", Const("c"))))
    for e in (env, fresh):
        with pytest.raises(ProofCheckError) as exc:
            check_proof(e, Proof((), (step,)))
        assert str(exc.value) == "step 1: unbound quotation name: Tr_ext_c"


@pytest.mark.parametrize("line,message", [
    ("extend Tr over Nowhere", "Nowhere is not a declared domain"),
    ("extend Tr over Sent", "domain Sent is not declared definite; a "
                            "predicate can only be totalized over a definite "
                            "range"),
    ("extend Tr", "usage: extend P over Domain"),
    ("def over := bot", "reserved word used as name: over"),
], ids=["undeclared-domain", "indefinite-domain", "no-domain",
        "reserved-word"])
def test_extend_errors_name_the_line(line, message):
    text = f"domain Sent = {{s1, s2}}\n{line}\n1: ~bot by L9[bot]\n"
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == f"line 2: {message}"


ONE_STEP = "1: ~bot by L9[bot]\n"


@pytest.mark.parametrize("text,message", [
    ("1: bot -> bot by GenF 1\n", "line 1: usage: GenF N x [y]"),
    ("1: bot -> bot by Release 1 2\n", "line 1: usage: Release N"),
    ("const 9c\n" + ONE_STEP, "line 1: bad constant name: '9c'"),
    ("domain D = {a, b c} definite\nextend P over D\n" + ONE_STEP,
     "line 1: bad constant name: 'b c'"),
    ("domain D = {1x}\n" + ONE_STEP, "line 1: bad constant name: '1x'"),
    ("def w/2 := A(v0)\n" + ONE_STEP,
     "line 1: w declared with arity 2 but its body has 1 free variables"),
    (ONE_STEP + "hyp 1: bot\n", "line 2: hypotheses must precede steps"),
    ("def s := bot\n", "a proof script needs at least one step"),
    ("enable Nothing\n" + ONE_STEP, "line 1: unknown extension: 'Nothing'"),
    ("domain Sent = s1, s2\n" + ONE_STEP,
     "line 1: usage: domain Name = {c1, c2, ...} [definite]"),
    ("enable ReleaseAxiom(bot ->)\n" + ONE_STEP,
     "line 1: expected a formula, found '' (at position 6)"),
    ("1: ~bot by L9[]\n", "line 1: L9: expected 1 parameters, got 0"),
    ("12abc: p by hyp 1\n", "line 1: unrecognized line: '12abc: p by hyp 1'"),
    ("1 ~bot by L9[bot]\n", "line 1: unrecognized line: '1 ~bot by L9[bot]'"),
    ("²: ~bot by L9[bot]\n", "line 1: unrecognized line: '²: ~bot by L9[bot]'"),
    ("2: ~bot by L9[bot]\n", "line 1: expected step 1, found 2"),
    ("1: ~bot L9[bot]\n", "line 1: a step needs 'formula by justification'"),
    ("1:\tby L9[bot]\n", "line 1: expected a formula, found '' (at position 0)"),
    (ONE_STEP + "2: bot by MP 1 1 x\n", "line 2: usage: MP minor major"),
    (ONE_STEP + "2: bot by MP 1 x\n", "line 2: usage: MP minor major"),
    (ONE_STEP + "hyp 1:\n", "line 2: hypotheses must precede steps"),
    (ONE_STEP + "2: bot by GenF 1 3\n",
     "line 2: GenF: expected an identifier, got '3'"),
    (ONE_STEP + "2: bot by GenE 1 x 3y\n",
     "line 2: GenE: expected an identifier, got '3y'"),
    ("domain D = {a, b} definite\ndomain P_ext = {b} definite\n"
     "extend P over D\n" + ONE_STEP,
     "line 3: P_ext is already a predicate; the total extension of P needs "
     "a fresh one"),
    ("domain D = {a} definite\ndef s := P_ext(a)\nextend P over D\n"
     + ONE_STEP, "line 3: P_ext is already a predicate; the total extension "
     "of P needs a fresh one"),
], ids=["genf-usage", "release-usage", "bad-constant",
        "spaced-domain-constant", "digit-domain-constant", "arity-mismatch",
        "hypothesis-after-step", "no-steps", "unknown-extension",
        "malformed-domain", "unparsable-grant", "no-parameters",
        "digits-then-letters", "step-without-colon", "superscript-number",
        "first-step-not-1", "step-without-by", "formula-empty-after-tab",
        "mp-three-words", "mp-word-premise", "empty-hypothesis-after-step",
        "genf-variable-not-an-identifier", "gene-target-not-an-identifier",
        "extend-over-a-domain-predicate", "extend-over-a-used-predicate"])
def test_reader_errors_are_pinned(text, message):
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    "01: ~bot by L9[bot]\n", "1 : ~bot by L9[bot]\n", "1:~bot by L9[bot]\n",
    "１: ~bot by L9[bot]\n", "hyp 01 : bot\n1: ~bot by L9[bot]\n",
    "hyp １:bot\n1: ~bot by L9[bot]\n",
], ids=["leading-zero", "space-before-colon", "no-space-after-colon",
        "fullwidth-digit", "hyp-leading-zero", "hyp-fullwidth-digit"])
def test_a_step_or_hypothesis_number_is_any_decimal_digits(text):
    script, _ = parse_script(text)
    assert [pformat(s.formula) for s in script.steps] == ["~bot"]
    assert [pformat(h) for h in script.hypotheses] == ["bot"] * text.count("hyp")


def test_the_writer_rejects_what_is_no_justification():
    with pytest.raises(TypeError) as exc:
        emit_just("hyp 1")
    assert str(exc.value) == "not a justification: 'hyp 1'"
