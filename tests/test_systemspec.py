from __future__ import annotations

import pytest

from dialectic.consequence import BOT
from dialectic.engine import ReplacementCycleError, run
from dialectic.strings import ParseError
from dialectic.systemspec import (
    SystemSpec,
    VariantError,
    check_variant,
    load_system,
    parse_system,
    render_system,
)

SAMPLE = """\
# a small q-system
variant q
axioms 4

at 0 : a0 a1 |- BOT
at 2 : a3 |- CE
replace a5 -> a7
replace a3 -> a5
"""


def test_parse_sample():
    spec = parse_system(SAMPLE)
    assert spec.variant == "q"
    assert spec.axioms == 4
    rules = list(spec.table)
    assert len(rules) == 2
    assert rules[0].conclusion == BOT
    assert rules[1].premises == frozenset({3})
    assert spec.replacements == ((3, 5), (5, 7))


def test_render_is_canonical_and_a_fixpoint():
    spec = parse_system(SAMPLE)
    text = render_system(spec)
    assert text == (
        "variant q\n"
        "axioms 4\n"
        "at 0 : a0 a1 |- BOT\n"
        "at 2 : a3 |- CE\n"
        "replace a3 -> a5\n"
        "replace a5 -> a7\n"
    )
    assert render_system(parse_system(text)) == text


def test_render_empty_spec():
    assert render_system(SystemSpec()) == ""


def test_build_produces_a_runnable_system():
    spec = parse_system(SAMPLE)
    system = spec.build()
    tr = run(system, 6)
    # the a0/a1 clash excises immediately, the a3 counterexample replaces
    assert tr.final_sigma is not None
    assert system.replacement.get(3) == 5


def test_directives_are_optional():
    spec = parse_system("at 1 : a0 |- a2\n")
    assert spec.variant is None and spec.axioms is None
    assert spec.replacements == ()


def test_comments_may_follow_a_directive():
    # as in README's example: "variant q          # d, p, or q"
    commented = "".join(line + "   # note\n" for line in SAMPLE.splitlines())
    assert parse_system(commented) == parse_system(SAMPLE)


def test_save_and_load(tmp_path):
    spec = parse_system(SAMPLE)
    path = tmp_path / "system.dsys"
    path.write_text(render_system(spec), encoding="utf-8")
    again = load_system(path)
    assert render_system(again) == render_system(spec)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_unknown_directive_reports_the_line():
    with pytest.raises(ParseError) as info:
        parse_system("variant d\n\nfrobnicate a0\n")
    assert info.value.line_no == 3
    assert "frobnicate" in str(info.value)


def test_duplicate_directives_rejected():
    with pytest.raises(ParseError):
        parse_system("variant d\nvariant p\n")
    with pytest.raises(ParseError):
        parse_system("axioms 2\naxioms 3\n")


def test_bad_variant_and_axioms_values():
    with pytest.raises(ParseError):
        parse_system("variant x\n")
    with pytest.raises(ParseError):
        parse_system("axioms -1\n")
    with pytest.raises(ParseError):
        parse_system("axioms many\n")


def test_bad_rule_line_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_system("# ok\nat one : a0 |- BOT\n")
    assert info.value.line_no == 2
    # blank and indented comment lines count; a rule may carry a comment
    text = "# header\n\nat 0 : a0 |- CE  # note\n  # tail\nat 1 : a1 |- BOT\n"
    assert len(parse_system(text).table) == 2
    with pytest.raises(ParseError) as info:
        parse_system(text + "at x : a0 |- BOT\n")
    assert info.value.line_no == 6


def test_replace_line_errors():
    with pytest.raises(ParseError):
        parse_system("replace a0 a1\n")
    with pytest.raises(ParseError):
        parse_system("replace a0 -> b1\n")
    with pytest.raises(ParseError):
        parse_system("replace a0 -> a1\nreplace a0 -> a2\n")


LONG = "7" * 5000   # more digits than int() converts


@pytest.mark.parametrize("line", [
    "replace a\u00b2 -> a1",          # superscript two
    "replace a\u0663 -> a1",          # Arabic-Indic three
    "replace a1 -> a+2",
    "replace a%s -> a1" % LONG,
    "axioms \u00b2",
    "axioms 1_0",
    "axioms " + LONG,
    "at \u0663 : a0 |- BOT",
    "at +1 : a0 |- BOT",
    "at 1 : a\uff11 |- BOT",          # fullwidth one
    "at 1 : a0 |- a\u00b2",
    "at %s : a0 |- BOT" % LONG,
], ids=["replace-sup2", "replace-arabic3", "replace-plus", "replace-long",
        "axioms-sup2", "axioms-underscore", "axioms-long", "stage-arabic3",
        "stage-plus", "premise-fullwidth", "conclusion-sup2", "stage-long"])
def test_numbers_are_ascii_digits_only(line):
    with pytest.raises(ParseError) as info:
        parse_system("variant q\n" + line + "\n")
    assert info.value.line_no == 2
    assert str(info.value).startswith("line 2: ")


def test_replacement_fixed_point_surfaces_at_build():
    spec = parse_system("replace a4 -> a4\n")
    with pytest.raises(ReplacementCycleError):
        spec.build()


# ---------------------------------------------------------------------------
# variant discipline
# ---------------------------------------------------------------------------

def test_check_variant_accepts_matching_tags():
    check_variant(parse_system("variant d\nat 0 : a0 |- BOT\n"))
    check_variant(parse_system("variant p\nat 0 : a0 |- CE\nreplace a0 -> a1\n"))
    check_variant(parse_system("variant q\nat 0 : a0 |- BOT\nat 0 : a1 |- CE\n"))
    check_variant(parse_system("at 0 : a0 |- BOT\nat 0 : a1 |- CE\n"))  # untagged


def test_check_variant_rejects_mismatches():
    with pytest.raises(VariantError):
        check_variant(parse_system("variant d\nat 0 : a0 |- CE\n"))
    with pytest.raises(VariantError):
        check_variant(parse_system("variant p\nat 0 : a0 |- BOT\n"))
