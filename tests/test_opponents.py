"""Set coding, fueled programs, and opponent runs."""

import math
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dialectic import opponents
from dialectic.consequence import CE, RuleTable, rule
from dialectic.engine import ReplacementMap, RunEngine, QSystem, estimate_beliefs
from dialectic.opponents import (
    MAX_AXIOM, AxiomLimitError, Diverged, PartialPSystem, Progress,
    decode_index, default_family, p_system_from_table, parse_family,
    pi_decode, pi_encode, r_iterate,
)
from dialectic.randomgen import random_qsystem
from dialectic.strings import IDENTITY, ParseError, Tape
from dialectic.universe import (
    MAX_BLOCK, MAX_SEXPR_DEPTH, FueledFunction, ProgramError, ProgramUniverse,
    _Diverge, block_shape, closure, compile_sexpr, eval_sexpr, parse_sexpr,
    script, tokenize_sexpr,
)


# ---------------------------------------------------------------------------
# set coding
# ---------------------------------------------------------------------------

def test_code_examples():
    assert pi_encode([]) == 0
    assert pi_encode([CE]) == 1
    assert pi_encode([0]) == 2
    assert pi_encode([CE, 1]) == 5
    assert pi_decode(0) == frozenset()
    assert pi_decode(1) == frozenset({CE})
    assert pi_decode(2) == frozenset({0})
    assert pi_decode(5) == frozenset({CE, 1})


def test_code_round_trip_all_small():
    for m in range(2 ** 16):
        assert pi_encode(pi_decode(m)) == m


def test_code_round_trip_sets():
    rng = random.Random(11)
    pool = [CE] + list(range(15))
    for _ in range(300):
        s = frozenset(rng.sample(pool, rng.randrange(len(pool))))
        assert pi_decode(pi_encode(s)) == s


def test_code_rejects_garbage():
    with pytest.raises(ValueError):
        pi_encode([-7])
    with pytest.raises(ValueError):
        pi_decode(-1)


def test_decode_index_examples():
    assert decode_index(1) == (0, 0, 0)
    assert decode_index(168) == (3, 1, 0)
    assert decode_index(2250) == (1, 2, 3)
    with pytest.raises(ValueError):
        decode_index(0)


def test_decode_index_round_trip():
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for k in (1, 7, 11, 49):
                    m = 2 ** a * 3 ** b * 5 ** c * k
                    assert decode_index(m) == (a, b, c)


# ---------------------------------------------------------------------------
# the expression language
# ---------------------------------------------------------------------------

def test_script_parse_errors():
    for bad in ("", "(+ n", "(+ n 1))", "(frobnicate n 1)", "(+ n 1 2)",
                "(not)", "y", "(if n 1)", "(+ n +7)", "(+ n --1)", "(- n -)"):
        with pytest.raises(ProgramError):
            parse_sexpr(bad)


def _tokenize_by_chars(text):
    """The character loop tokenize_sexpr replaced: the oracle."""
    out = []
    buf = []
    for ch in text:
        if ch in "()":
            if buf:
                out.append("".join(buf))
                buf = []
            out.append(ch)
        elif ch.isspace():
            if buf:
                out.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        out.append("".join(buf))
    return out


# every character that str.isspace accepts, and three look-alikes that
# are not whitespace (zero-width space, BOM, an Arabic-Indic digit)
_SCRIPT_CHARS = ("()n-7x+\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
                 + "".join(map(chr, range(0x2000, 0x200b)))
                 + "\u2028\u2029\u202f\u205f\u3000\u200b\ufeff\u0663")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.text(alphabet=st.sampled_from(_SCRIPT_CHARS) | st.characters()))
def test_tokenize_matches_the_character_loop(text):
    assert tokenize_sexpr(text) == _tokenize_by_chars(text)


def test_regex_whitespace_is_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_script_nesting_is_capped():
    d = MAX_SEXPR_DEPTH
    deepest = parse_sexpr("(+ 1 " * d + "n" + ")" * d)
    assert FueledFunction("sexpr", deepest).call((0,), 10 ** 6) == d
    with pytest.raises(ProgramError, match="nested deeper than"):
        parse_sexpr("(+ 1 " * (d + 1) + "n" + ")" * (d + 1))


def _interpreted(ast, args, fuel):
    """What FueledFunction.call answers, by eval_sexpr alone."""
    if fuel < 1:
        return None
    env = {"n": args[0], "t": args[0]}
    if len(args) > 1:
        env["x"] = args[1]
    try:
        value = eval_sexpr(ast, env, [fuel])
    except _Diverge:
        return None
    except KeyError:
        return "unbound"
    return value if value >= 0 else "negative"


def _called(fn, args, fuel):
    try:
        return fn.call(args, fuel)
    except ProgramError as exc:
        return "unbound" if "unbound variable" in str(exc) else "negative"


def _nodes(ast):
    if isinstance(ast, tuple):
        return 1 + sum(_nodes(a) for a in ast[1:])
    return 1


_ARITY = {op: 2 for op in ("+", "-", "*", "band", "bor", "bxor", "eq", "lt",
                            "le", "ge", "gt", "div", "mod", "shl", "shr",
                            "and", "or")}
_ARITY.update({"not": 1, "if": 3, "diverge": 0})

# every operator equally often; literals around 0 and the shift range
# [0, 64], so division by zero and out-of-range shifts come up often
_script_asts = st.recursive(
    st.integers(-70, 70) | st.sampled_from((0, -1, 64, 65, "n", "t", "x",
                                            ("diverge",))),
    lambda sub: st.sampled_from(sorted(_ARITY)).flatmap(
        lambda op: st.tuples(st.just(op), *[sub] * _ARITY[op])),
    max_leaves=80)


@settings(derandomize=True, deadline=None, max_examples=400)
@example(ast=("and", 0, ("diverge",)), args=(1,))
@example(ast=("or", 7, ("div", "n", 0)), args=(1,))
@example(ast=("mod", "x", ("-", "n", "t")), args=(2, 5))
@example(ast=("+", ("shl", "n", 65), ("shr", "n", -1)), args=(3,))
@example(ast=("if", ("eq", "n", 0), 0, "x"), args=(0,))
@given(ast=_script_asts,
       args=st.lists(st.integers(0, 2 ** 40) | st.integers(0, 70),
                     min_size=1, max_size=2).map(tuple))
def test_compiled_script_agrees_with_interpreter_at_every_fuel(ast, args):
    size = _nodes(ast)
    assert compile_sexpr(ast)[1] == size
    fn = FueledFunction("sexpr", ast, name="p")
    for fuel in range(size + 2):
        assert _called(fn, args, fuel) == _interpreted(ast, args, fuel), fuel


def test_one_argument_call_fails_only_when_it_reaches_x():
    f = script("(if (eq n 0) 0 x)", name="guarded")
    assert f.call((0,), 4) is None
    for fuel in (5, 6, 7, 100):
        assert f.call((0,), fuel) == 0
    with pytest.raises(ProgramError, match="unbound variable 'x'"):
        f.call((1,), 100)
    assert f.call((1, 9), 100) == 9


@pytest.mark.parametrize("text", [
    "(+ 1 " * MAX_SEXPR_DEPTH + "n" + ")" * MAX_SEXPR_DEPTH,
    "(not " * MAX_SEXPR_DEPTH + "n" + ")" * MAX_SEXPR_DEPTH,
    "(if (lt n 1) " * (MAX_SEXPR_DEPTH - 1) + "n"
    + " 7)" * (MAX_SEXPR_DEPTH - 1),
], ids=["+", "not", "if"])
def test_scripts_at_the_nesting_cap_match_the_interpreter(text):
    ast = parse_sexpr(text)
    fn = FueledFunction("sexpr", ast)
    size = _nodes(ast)
    for args in ((0,), (1,), (5, 3)):
        for fuel in (1, size // 2, size - 1, size, size + 1, 10 ** 6):
            assert fn.call(args, fuel) == _interpreted(ast, args, fuel)


def test_script_that_compile_refuses_runs_on_the_interpreter():
    # deeper than the parser allows, so only a hand-built AST gets here;
    # Python's compiler refuses so many nested parentheses
    ast = "n"
    for _ in range(2 * MAX_SEXPR_DEPTH):
        ast = ("+", 1, ast)
    assert compile_sexpr(ast) is None
    fn = FueledFunction("sexpr", ast)
    assert fn.call((3,), 10 ** 6) == 3 + 2 * MAX_SEXPR_DEPTH
    assert fn.call((3,), 4 * MAX_SEXPR_DEPTH) is None


def test_script_values():
    f = script("(+ (* n 2) 1)")
    assert f.call((5,), 100) == 11
    g = script("(if (ge n 3) (- n 3) (diverge))")
    assert g.call((7,), 100) == 4
    assert g.call((1,), 100) is None
    two = script("(bor (band x 6) (bxor n n))")
    assert two.call((9, 7), 100) == 6
    assert script("(+ n -07)").call((9,), 100) == 2   # ASCII digits, a sign


def test_script_partial_operations_diverge():
    assert script("(div n 0)").call((4,), 100) is None
    assert script("(mod n 0)").call((4,), 100) is None
    assert script("(shl n 65)").call((1,), 100) is None
    assert script("(shr n 70)").call((1,), 100) is None
    assert script("(shl n 3)").call((1,), 100) == 8


def test_script_fuel_is_visited_nodes():
    # (+ n 1) visits three nodes
    f = script("(+ n 1)")
    assert f.call((4,), 2) is None
    assert f.call((4,), 3) == 5
    # short-circuit: the skipped arm costs nothing
    g = script("(and (lt n 0) (diverge))")
    assert g.call((5,), 4) == 0


def test_fuel_monotone_on_scripts():
    rng = random.Random(5)
    progs = [script(t) for t in (
        "(+ n 1)",
        "(if (ge t 40) (bor x 1) x)",
        "(mod (* n 7) 13)",
        "(or (eq n 3) (gt n 10))",
    )]
    for f in progs:
        for _ in range(200):
            args = (rng.randrange(100), rng.randrange(1 << 10))
            lo = rng.randrange(1, 12)
            a = f.call(args, lo)
            b = f.call(args, lo + rng.randrange(1, 50))
            if a is not None:
                assert a == b


def test_closure_and_table_kinds():
    c = closure(lambda n: n * n)
    assert c.call((6,), 1) == 36
    assert c.call((6,), 0) is None
    bad = closure(lambda n: -1, name="neg")
    with pytest.raises(ProgramError):
        bad.call((0,), 10)
    with pytest.raises(ProgramError):
        FueledFunction("weird", None)


def test_universe_registry():
    u = ProgramUniverse()
    i = u.register(closure(lambda n: n, name="ident"))
    assert u.index_of("ident") == i
    assert len(u) == 1
    with pytest.raises(ProgramError):
        u.register(closure(lambda n: n, name="ident"))
    with pytest.raises(KeyError):
        u.index_of("missing")


# ---------------------------------------------------------------------------
# opponent runs
# ---------------------------------------------------------------------------

def _mk(g, h, r, universe=None, **kw):
    u = universe or ProgramUniverse()
    return PartialPSystem(u, u.register(g), u.register(h), u.register(r), **kw)


def _listed(tape):
    """A tape's whole string: its stored tokens, then its count."""
    return tape.head(len(tape))


def test_pure_growth():
    th = _mk(closure(lambda n: n), closure(lambda t, x: x),
             closure(lambda x: x + 1))
    for s in range(1, 51):
        out = th.step(s)
        assert out == Progress(s, True)
    assert _listed(th.tape) == list(range(50))
    rep = th.stability_report(50, 10)
    assert rep.belief_estimate == frozenset(range(50))
    assert rep.loop_suspects == ()


def test_operator_stall_freezes_string():
    th = _mk(closure(lambda n: n), script("(diverge)"),
             closure(lambda x: x + 1))
    for s in range(1, 20):
        assert th.step(s) == Diverged("H")
    assert _listed(th.tape) == []
    assert th.stage == 19
    assert th.diverge_counts["H"] == 19


def test_enum_stall():
    th = _mk(script("(diverge)"), closure(lambda t, x: x),
             closure(lambda x: x + 1))
    for s in range(1, 10):
        assert th.step(s) == Diverged("g")
    assert _listed(th.tape) == []


def test_replacement_stall():
    # the operator marks any non-empty prefix, the replacement never answers
    th = _mk(closure(lambda n: n),
             closure(lambda t, x: x | 1 if x else 0),
             script("(diverge)"))
    assert th.step(1) == Progress(1, True)      # expansion while empty
    for s in range(2, 12):
        assert th.step(s) == Diverged("r")
    assert _listed(th.tape) == [0]


# h marks every nonempty code from stage 5 on, and stalls on the empty one
H_STALL = "(if (lt t 5) x (if (eq x 0) (diverge) (bor x 1)))"


def test_stall_inside_the_least_marked_prefix_search():
    # the search asks h about the empty prefix first, which stalls: the
    # stage is an H stall and σ stays put
    th = _mk(script("n"), script(H_STALL), script("(+ n 1)"))
    for s in range(5):
        assert th.step(100) == Progress(s + 1, True)
    for s in range(5, 40):
        assert th.step(100) == Diverged("H")
        assert _listed(th.tape) == [0, 1, 2, 3, 4]
        assert th.diverge_counts == {"g": 0, "H": s - 4, "r": 0}


def test_marker_from_empty_prefix_is_invalid():
    th = _mk(closure(lambda n: n), closure(lambda t, x: 1),
             closure(lambda x: x + 1))
    out = th.step(1)
    assert out == Progress(0, False)
    assert th.frozen
    assert "empty prefix" in th.invalid_reason
    # stays frozen, stage keeps counting
    assert th.step(2) == Progress(0, False)
    assert th.stage == 2


def test_inclusion_violation_recorded_not_fatal():
    th = _mk(closure(lambda n: n), closure(lambda t, x: 0),
             closure(lambda x: x + 1))
    for s in range(1, 6):
        th.step(s)
    assert not th.frozen
    assert "include its argument" in th.invalid_reason
    assert len(th.tape) == 5


# the two-threshold masked operator used across the diagonalizer tests:
# marks {a0,a1,a2,a3} from t=40 and {a0,a1,a2,a4} from t=60
def _masked(t, x):
    if t >= 40 and (x & 30) == 30:
        return x | 1
    if t >= 60 and (x & 46) == 46:
        return x | 1
    return x


def test_masked_operator_run_timeline():
    th = _mk(closure(lambda n: n), closure(_masked), closure(lambda x: x + 1))
    for s in range(1, 71):
        th.step(s)
        if s == 41:
            assert _listed(th.tape) == [0, 1, 2, 4]
        if s == 61:
            assert _listed(th.tape) == [0, 1, 2, 5]
        if s == 63:
            assert _listed(th.tape) == [0, 1, 2, 5, 5]
    assert _listed(th.tape)[:6] == [0, 1, 2, 5, 5, 5]
    # run further and estimate: the third and fourth axioms never settle back
    for s in range(71, 201):
        th.step(s)
    est = th.stability_report(200, 50).belief_estimate
    assert 3 not in est and 4 not in est
    assert {0, 1, 2, 5, 6}.issubset(est)


def test_monotone_shortcut_matches_full_scan():
    # over 300 stages the literal-union side keeps an accumulator for each
    # of nearly 300 queried codes
    a = _mk(closure(lambda n: n), closure(_masked), closure(lambda x: x + 1),
            monotone_h=True)
    b = _mk(closure(lambda n: n), closure(_masked), closure(lambda x: x + 1),
            monotone_h=False)
    for s in range(1, 301):
        a.step(s)
        b.step(s)
        assert _listed(a.tape) == _listed(b.tape)
        if s == 80:
            assert a.stability_report(80, 20) == b.stability_report(80, 20)
    assert a.stability_report(300, 50) == b.stability_report(300, 50)
    assert a._stamps.stamps == b._stamps.stamps


def test_axiom_limit_is_checked_where_values_resolve():
    # caching a value allocates nothing; only a set code holding it would
    huge = _mk(closure(lambda n: 10 ** 12), closure(lambda t, x: x),
               closure(lambda x: 10 ** 12))
    with pytest.raises(AxiomLimitError, match="g gave a1000000000000"):
        huge.g_value(0, 5)
    with pytest.raises(AxiomLimitError, match="r gave a1000000000000"):
        huge.r_value(3, 5)
    top = _mk(closure(lambda n: MAX_AXIOM), closure(lambda t, x: x),
              closure(lambda x: MAX_AXIOM))
    assert top.g_value(0, 5) == MAX_AXIOM
    assert top.r_value(3, 5) == MAX_AXIOM
    assert issubclass(AxiomLimitError, ValueError)


# ---------------------------------------------------------------------------
# the event form against step, its oracle
# ---------------------------------------------------------------------------

def test_masked_form_of_scripts():
    _, opps = default_family()
    hA, echo = opps[0].h, opps[3].h
    assert hA.masked == (30 | 46, (40, 41, 60, 61))
    assert echo.masked == (0, ())
    assert opps[0].g.masked is None           # x never read: not an operator
    for text in ("(bor x -1)", "(if (ge t -5) x x)", "(if (eq t t) x x)",
                 "(if (eq (band x (+ 1 1)) 2) x x)", "(+ x 1)", "(band x 3)",
                 "(if (ge (+ t 1) 5) x (bor x 1))"):
        assert script(text).masked is None, text
    assert script("(if (not (lt (band 7 x) (band x 9))) (bor 1 x) x)"
                  ).masked == (15, ())
    assert script("(if (or (gt t 3) (le n 9)) x (bor x 2))").masked == (
        0, (3, 4, 9, 10))


def test_block_shape_of_scripts():
    assert block_shape(parse_sexpr("n")) is IDENTITY
    assert block_shape(parse_sexpr("t")) is IDENTITY
    gdesc = script("(+ (* (div n 1000) 1000) (- 999 (mod n 1000)))")
    assert (gdesc.shape.S, gdesc.shape.B, gdesc.shape.pi[:3]) == (0, 1000, [999, 998, 997])
    # either operand order, t for n, and a partial E that answers on [0, B)
    for text in ("(+ (- 3 (mod n 4)) (* 4 (div t 4)))",
                 "(+ (* (div n 4) 4) (if (lt (mod n 4) 4) (- 3 (mod t 4)) (diverge)))"):
        assert script(text).shape.pi == [3, 2, 1, 0], text
    for text in ("(+ n 1)", "(* n 2)", "(div n 2)", "x", "(diverge)",
                 # E is no permutation of [0, 10)
                 "(+ (* (div n 10) 10) (mod n 5))",
                 # one block broken: E reads n outside (mod n 10)
                 "(+ (* (div n 10) 10) (if (eq (div n 10) 3) 0 (mod n 10)))",
                 "(+ (* (div n 10) 10) (- n (* (div n 10) 10)))",
                 # mismatched or unusable block sizes, and E reading x
                 "(+ (* (div n 10) 9) (mod n 10))",
                 "(+ (* (div n 10) 10) (mod n 9))",
                 "(+ (* (div n 0) 0) 0)", "(+ (* (div n -2) -2) (mod n -2))",
                 "(+ (* (div n %d) %d) (mod n %d))" % ((MAX_BLOCK + 1,) * 3),
                 "(+ (* (div n 4) 4) (mod x 4))",
                 # E diverges inside the block
                 "(+ (* (div n 4) 4) (if (lt (mod n 4) 3) (mod n 4) (diverge)))"):
        assert script(text).shape is None, text
    assert closure(lambda n: n).shape is None


_BLOCK_E = {
    "id": "{j}",
    "rev": "(- {B1} {j})",
    "rot": "(mod (+ {j} {c}) {B})",
    "mul": "(mod (* {a} {j}) {B})",            # a permutation iff gcd(a, B) = 1
    "flip": "(if (lt {j} {m}) (- {m1} {j}) {j})",   # reverses a prefix
    "half": "(div {j} 2)",                      # no permutation for B > 1
    "const": "{c}",
    "block": "(if (eq (div n {B}) {c}) (- {B1} {j}) {j})",   # block c differs
    "x": "(bxor {j} (band x 0))",              # reads x
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(B=st.integers(1, 40), kind=st.sampled_from(sorted(_BLOCK_E)),
       c=st.integers(0, 60), a=st.integers(1, 12), swap=st.booleans(),
       var=st.sampled_from("nt"),
       blocks=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=4))
def test_block_shape_agrees_with_its_script(B, kind, c, a, swap, var, blocks):
    E = _BLOCK_E[kind].format(j="(mod %s %d)" % (var, B), B=B, B1=B - 1, c=c,
                              a=a, m=c % B + 1, m1=c % B)
    base = "(* (div n %d) %d)" % (B, B)
    text = "(+ %s %s)" % ((E, base) if swap else (base, E))
    shape, fast = block_shape(parse_sexpr(text)), script(text).fast
    if kind in ("block", "x"):
        assert shape is None   # refused whatever E does on block 0
        return
    permutes = sorted(fast(j) for j in range(B)) == list(range(B))
    assert (shape is not None) == permutes
    if shape is not None:
        assert (shape.S, shape.B) == (0, B)
        # the shape is g on every block, sampled far out as well
        for k in blocks + [0, 1]:
            ps = range(k * B, (k + 1) * B)
            assert [shape(p) for p in ps] == [fast(p) for p in ps]
            assert [shape.index(fast(p)) for p in ps] == list(ps)


_HA = ("(if (and (ge t 40) (eq (band x 30) 30)) (bor x 1) "
       "(if (and (ge t 60) (eq (band x 46) 46)) (bor x 1) x))")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(B=st.integers(1, 40),
       kind=st.sampled_from(["ident", "id", "rev", "rot", "mul", "flip"]),
       c=st.integers(0, 60), a=st.integers(1, 12),
       values=st.lists(st.integers(0, 400), min_size=1, max_size=5),
       limit=st.sampled_from([MAX_AXIOM, 150]))
def test_listed_at_predicts_the_enumeration(B, kind, c, a, values, limit):
    E = _BLOCK_E.get(kind, "").format(j="(mod n %d)" % B, B=B, B1=B - 1, c=c,
                                      a=a, m=c % B + 1, m1=c % B)
    text = "n" if kind == "ident" else "(+ (* (div n %d) %d) %s)" % (B, B, E)
    assume(script(text).shape is not None)
    unshaped = script(text)
    unshaped.shape = None
    with mock.patch.object(opponents, "MAX_AXIOM", limit):
        th, low = (_mk(script(text), script(_HA), script("(+ n 1)"))
                   for _ in range(2))
        bare = _mk(unshaped, script(_HA), script("(+ n 1)"))
    fuel, over, shape = th.saturation, th._g_over, th.g.shape
    assert fuel < math.inf and shape(over) > limit
    # step raises at _g_over, so no value is listed there or past it
    wants = [p if p < over else None for p in map(shape.index, values)]
    for v, want in zip(values, wants):
        # below saturation, or without a shape, an unresolved value has no
        # position; a saturated shape places it, watched
        assert low.listed_at(v, fuel - 1) is None
        assert bare.listed_at(v, fuel) is None
        assert th.listed_at(v, fuel) == want and v in th._enum.watched
    with mock.patch.object(opponents, "MAX_AXIOM", limit):
        for p in [p for p in wants if p is not None]:
            th.g_value(p, fuel)
            bare.g_value(p, fuel)
    for v, want in zip(values, wants):
        if want is not None:   # listed past it: the prediction was right
            assert th.enum_position(v) == want == th.listed_at(v, fuel)
            assert bare.listed_at(v, fuel) == want


@st.composite
def _masked_scripts(draw):
    """Two marker conditions of the bundled hA shape, any t comparison."""
    conds = []
    for _ in range(2):
        bits = draw(st.sets(st.integers(1, 8), min_size=1, max_size=4))
        m = sum(1 << b for b in bits)
        conds.append("(and (%s t %d) (eq (band x %d) %d))" % (
            draw(st.sampled_from(("ge", "gt", "lt", "le", "eq"))),
            draw(st.integers(0, 150)), m, m))
    return "(if %s (bor x 1) (if %s (bor x 1) x))" % tuple(conds)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(h=_masked_scripts(),
       g=st.sampled_from(["n", "(+ (* (div n 7) 7) (- 6 (mod n 7)))",
                          "(+ n 3)", "(diverge)", "(if (lt n 45) n (diverge))",
                          "(if (eq (mod n 9) 4) (diverge) n)", "(div n 2)"]),
       k=st.integers(1, 11), cap=st.sampled_from([None, 10, 30]),
       seed=st.integers(0, 2 ** 16))
def test_advance_to_matches_step(h, g, k, cap, seed):
    rng = random.Random(seed)
    a, b = (_mk(script(g), script(h), script("(+ n %d)" % k))
            for _ in range(2))
    horizon = 300
    while a.stage < horizon:
        fuel = a.stage + 1 if cap is None else min(a.stage + 1, cap)
        if rng.random() < 0.1:                 # asked about mid-run
            v = rng.randrange(60)
            assert a.first_occurrence(v) == b.first_occurrence(v)
        if a.stage == 0 or rng.random() < 0.1:
            # before or after its enumeration; (div n 2) enumerates each
            # value twice in a row, mostly inside one stretch
            v = rng.randrange(60)
            want = _listed(a._enum).index(v) if v in _listed(a._enum) else None
            assert a.enum_position(v) == b.enum_position(v) == want
        stops = rng.sample(range(60), 2) if rng.random() < 0.3 else ()
        end = a.next_event(horizon, fuel, stops)
        if end == a.stage:
            assert a.step(fuel) == b.step(fuel)
            continue
        assert a.saturation <= fuel < math.inf
        target = rng.randint(a.stage + 1, end)   # a stretch may stop early
        L, first, M = len(a.tape), dict(a.tape.first), a.h.masked[0]
        masked = a._code & M
        a.skip_to(target)
        # inside a stretch the marker's inputs and the watched values'
        # first occurrences stay put, and no value in stops arrives
        assert a._code & M == masked and a.tape.first == first
        assert not set(_listed(a.tape)[L:]) & set(stops)
        while b.stage < target:
            b.step(b.stage + 1 if cap is None else min(b.stage + 1, cap))
        assert _run_state(a) == _run_state(b)
    assert _run_state(a) == _run_state(b)
    assert a.stability_report(horizon, 50) == b.stability_report(horizon, 50)


def _run_state(th):
    return (th.stage, _listed(th.tape), th._stamps.stamps, th._code, th.version,
            th.diverge_counts, _listed(th._enum), th._enum.first, th.tape.first,
            th.frozen, th.invalid_reason)


def test_opponent_event_form_engages():
    _, opps = default_family()
    for th in opps:
        while th.stage < 2000:
            end = th.next_event(2000, 100)
            if end == th.stage:
                th.step(100)
            else:
                th.skip_to(end)
        assert th.bulk_stages >= 1900 and th.bulk_stretches <= 10, th.name
    assert opps[5].diverge_counts["g"] == 2000      # stuck-enum, in bulk


# ---------------------------------------------------------------------------
# a shaped enumeration as a count, against a twin that stores it
# ---------------------------------------------------------------------------

# block scripts by block size: the identity, an odd block, randomgen's
# block of 100 and the bundled gdesc
BLOCK_SCRIPTS = {
    1: "n",
    7: "(+ (* (div n 7) 7) (mod (* 3 (mod n 7)) 7))",
    100: "(+ (* (div n 100) 100) (- 99 (mod n 100)))",
    1000: "(+ (* (div n 1000) 1000) (- 999 (mod n 1000)))",
}

def _random_masked_h(rng):
    """Two marker conditions of the bundled hA shape, any t comparison."""
    conds = []
    for _ in range(2):
        m = sum(1 << b for b in rng.sample(range(1, 9), rng.randint(1, 4)))
        conds.append("(and (%s t %d) (eq (band x %d) %d))" % (
            rng.choice(("ge", "gt", "lt", "le", "eq")), rng.randint(0, 150),
            m, m))
    return "(if %s (bor x 1) (if %s (bor x 1) x))" % tuple(conds)


def _either(call):
    """call's value, or the message of the AxiomLimitError it raises."""
    try:
        return call()
    except AxiomLimitError as exc:
        return str(exc)


class _StoredTape(Tape):
    """A tape that stores the listing tokens it is given: no count."""

    def extend_listing(self, n):
        self.extend(list(range(len(self), len(self) + n)))


def _identity_count_case(seed, B=1):
    """Drive an opponent whose g is the block script of BLOCK_SCRIPTS[B]
    through a random schedule of bulk advances, single steps and asks,
    against a twin whose g is the same script without its shape: it
    stores σ and every enumerated value, and only steps.  The fuel is
    sometimes below saturation, and the axiom limit sometimes low enough
    to be reached.  The values asked about are g's near σ's end.  After
    every move both states must agree, the set code and first occurrences
    must be σ's, and a bulk advance must keep next_event's promises.
    Returns what the schedule reached."""
    rng = random.Random(seed)
    g = script(BLOCK_SCRIPTS[B]).fast
    h, k = _random_masked_h(rng), rng.randrange(1, 12)
    limit = rng.choice([MAX_AXIOM, MAX_AXIOM, rng.randint(60, 250)])
    horizon = rng.randint(50, 400)
    seen = dict.fromkeys(("in_count", "stalls", "beyond", "watched_in_count",
                          "limit", "bulk", "whole_blocks"), 0)
    with mock.patch.object(opponents, "MAX_AXIOM", limit):
        a = _mk(script(BLOCK_SCRIPTS[B]), script(h), script("(+ n %d)" % k))
        unshaped = script(BLOCK_SCRIPTS[B])
        unshaped.shape = None
        b = _mk(unshaped, script(h), script("(+ n %d)" % k))
        b.tape = _StoredTape()
        assert a.g.shape.B == B and b.g.shape is None
        while a.stage < horizon:
            fuel = rng.choice([a.stage + 1] * 4 + [0, 1, 5, 12])
            roll, tape, L = rng.random(), a.tape, len(a.tape)
            if roll < 0.1:      # watched from here on, often inside the count
                i = rng.randint(max(0, L - 30), L + 30)
                v = g(i)
                seen["watched_in_count"] += len(tape.tokens) <= i < L
                assert a.first_occurrence(v) == b.first_occurrence(v)
            elif roll < 0.2:    # g asked beyond σ
                j = rng.randint(L, L + 30)
                got = _either(lambda: a.g_value(j, fuel))
                assert got == _either(lambda: b.g_value(j, fuel))
                seen["beyond"] += got is not None
                seen["stalls"] += got is None
                seen["limit"] += type(got) is str
            elif roll < 0.3:    # only the resolved prefix answers
                v = g(rng.randint(max(0, L - 10), L + 60))
                assert a.enum_position(v) == b.enum_position(v)
            else:
                stops = (list(map(g, rng.sample(range(max(0, L - 5), L + 40), 2)))
                         if roll < 0.5 else ())
                end = a.next_event(horizon, fuel, stops)
                if end == a.stage:
                    T = len(tape.tokens)
                    out = _either(lambda: a.step(fuel))
                    assert out == _either(lambda: b.step(fuel))
                    if type(out) is str:
                        seen["limit"] += 1
                        break
                    seen["in_count"] += (out == Progress(len(tape), True)
                                         and T < len(tape) - 1 < L)
                else:
                    target = end if rng.random() < 0.5 else rng.randint(
                        a.stage + 1, end)
                    first, M = dict(tape.first), a.h.masked[0]
                    masked = a._code & M
                    a.skip_to(target)
                    seen["bulk"] += 1
                    _, lo, hi = a.g.shape.image(L, len(tape))
                    seen["whole_blocks"] += B > 1 and lo < hi
                    # inside a stretch the marker's inputs and the watched
                    # values' first occurrences stay put, no value in stops
                    # arrives and every value is an admissible axiom
                    assert a._code & M == masked and tape.first == first
                    assert not set(_listed(tape)[L:]) & set(stops)
                    assert len(tape) <= limit + 1
                    while b.stage < target:
                        b.step(fuel)
            assert _run_state(a) == _run_state(b), (seed, a.stage)
            sigma = _listed(a.tape)
            assert a._code == pi_encode(sigma) and a.tape.first == {
                v: sigma.index(v) for v in a.tape.watched if v in sigma}
        assert b.tape.listing == 0
        window = min(50, a.stage)
        assert (a.stability_report(a.stage, window)
                == b.stability_report(b.stage, window))
    return seen


@settings(derandomize=True, deadline=None, max_examples=120)
@given(seed=st.integers(0, 2 ** 30), B=st.sampled_from(sorted(BLOCK_SCRIPTS)))
def test_identity_enumeration_count_matches_stepping_twin(seed, B):
    _identity_count_case(seed, B)


def test_identity_count_corpus_reaches_every_path():
    # the property's paths, exercised on a fixed corpus: seeds 0-39 make 44
    # cuts strictly inside σ's count, 94 asks about a value inside it, 431
    # g asks beyond σ, 21 g stalls below saturation, 7 axiom-limit errors
    # and 576 bulk advances
    cases = [_identity_count_case(seed) for seed in range(40)]
    totals = {key: sum(case[key] for case in cases) for key in cases[0]}
    assert totals["in_count"] > 30, totals
    assert totals["watched_in_count"] > 60, totals
    assert totals["beyond"] > 300 and totals["stalls"] > 10, totals
    assert totals["limit"] > 3 and totals["bulk"] > 400, totals
    # blocks of 7 and of 100, the same seeds: 39 and 18 cuts inside the
    # count, 106 and 108 asks inside it, 7 and 18 axiom-limit errors, and
    # 115 and 4 bulk advances over at least one whole block
    for B, cuts, wholes in ((7, 30, 60), (100, 10, 2)):
        cases = [_identity_count_case(seed, B) for seed in range(40)]
        totals = {key: sum(case[key] for case in cases) for key in cases[0]}
        assert totals["in_count"] > cuts and totals["whole_blocks"] > wholes, totals
        assert totals["watched_in_count"] > 60 and totals["limit"] > 3, totals


# ---------------------------------------------------------------------------
# iterated replacement
# ---------------------------------------------------------------------------

def test_r_iterate_examples():
    th = _mk(closure(lambda n: n), closure(lambda t, x: x),
             closure(lambda x: x + 1))
    assert r_iterate(th, 5, frozenset(), 10) == (5, 0)
    assert r_iterate(th, 3, {3}, 10) == (4, 1)
    assert r_iterate(th, 3, {3, 4, 5}, 10) == (6, 3)
    assert not th.r_cycle_found


def test_r_iterate_cycle_is_flagged():
    th = _mk(closure(lambda n: n), closure(lambda t, x: x),
             closure(lambda x: {3: 4, 4: 3}.get(x, x + 1)))
    assert r_iterate(th, 3, {3, 4}, 10) is None
    assert th.r_cycle_found


def test_r_iterate_stall_is_quiet():
    th = _mk(closure(lambda n: n), closure(lambda t, x: x),
             script("(diverge)"))
    assert r_iterate(th, 3, {3}, 10) is None
    assert not th.r_cycle_found


# ---------------------------------------------------------------------------
# table-backed opponents against the run engine
# ---------------------------------------------------------------------------

def _marker_only(table):
    return RuleTable(rule(r.stage, r.premises, CE) for r in table)


def test_table_backed_matches_engine():
    for seed in range(12):
        rng = random.Random(seed)
        sys0 = random_qsystem(rng, max_rules=6, pool=9, max_stage=30)
        table = _marker_only(sys0.table)
        system = QSystem(table, sys0.replacement)
        th = p_system_from_table(table, sys0.replacement)
        eng = RunEngine(system)
        for s in range(1, 151):
            th.step(s)
            eng.step_once()
            assert _listed(th.tape) == _listed(eng.tape), (
                "diverged at stage %d seed %d" % (s, seed))
        # the loop suspects at every threshold fix every nonzero stamp
        trace = eng.trace()
        for window in range(151):
            assert th.stability_report(150, window) == estimate_beliefs(
                trace, window), (seed, window)


def test_table_backed_code_and_first_occurrence_track_sigma():
    # many marker rules on one or two axioms of a small pool, spread over
    # the run, with a total replacement: the string is cut back again and again
    cuts = 0
    for seed in range(20):
        rng = random.Random(seed)
        table = RuleTable(
            rule(rng.randint(0, 200), frozenset(rng.sample(range(12), rng.randint(1, 2))),
                 CE)
            for _ in range(rng.randint(15, 30)))
        th = p_system_from_table(table,
                                 ReplacementMap(default_fn=lambda k: k + 1 + k % 3))
        asked = set()
        for s in range(1, 201):
            before = len(th.tape)
            outcome = th.step(s)
            cuts += (isinstance(outcome, Progress) and outcome.changed
                     and len(th.tape) <= before)
            if rng.random() < 0.2:
                asked.add(rng.randint(0, 20))  # watched from mid-run on
            assert th._code == pi_encode(_listed(th.tape))
            for v in asked:
                sigma = _listed(th.tape)
                want = sigma.index(v) if v in sigma else None
                assert th.first_occurrence(v) == want, (seed, s, v)
    assert cuts > 500


def test_table_backed_requires_marker_only():
    from dialectic.consequence import BOT
    from dialectic.systemspec import VariantError
    bad = RuleTable([rule(0, {0}, BOT)])
    with pytest.raises(VariantError):
        p_system_from_table(bad, ReplacementMap())


# ---------------------------------------------------------------------------
# family files
# ---------------------------------------------------------------------------

def test_default_family_loads():
    universe, opponents = default_family()
    assert [o.name for o in opponents] == [
        "caseA", "caseB", "caseC", "tailfirst", "stuck-rho", "stuck-enum"]
    assert all(o.monotone_h for o in opponents)
    assert len(universe) == 10


def test_family_packed_index_form():
    text = "\n".join([
        "prog ident = n",
        "prog echo = x",
        "prog bump = (+ n 1)",
        # 75 = 3 * 25 names programs (0, 1, 2)
        "opponent packed : m=75",
        "opponent named : g=ident h=echo r=bump scan=full",
    ])
    _, opps = parse_family(text)
    assert opps[0].indices == (0, 1, 2)
    assert opps[1].indices == (0, 1, 2)
    assert opps[0].monotone_h and not opps[1].monotone_h


def test_family_parse_errors():
    cases = [
        ("frob x = 1", 1),
        ("prog p1 = (wat n)", 1),
        ("prog p = n\nopponent a : g=p h=p", 2),
        ("prog p = n\nopponent a : m=0", 2),
        ("prog p = n\nopponent a : m=-1", 2),
        ("prog p = n\nopponent a : m=+1", 2),
        ("prog p = n\nopponent a : m=\u0661", 2),   # Arabic-Indic one
        ("prog p = n\nopponent a : m=" + "1" * 5000, 2),
        ("prog p = n\nopponent a : m=6", 2),      # names program 1, undefined
        ("prog p = n\nopponent a : g=p h=p r=q", 2),
        ("prog p = n\nopponent a : m=1\nopponent a : m=1", 3),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_family(text)
        assert err.value.line_no == line
    # scan= takes only full, in both forms
    for fields, bad in [("g=p h=p r=p scan=ful", "scan=ful"),
                        ("g=p h=p r=p scan=", "scan="),
                        ("m=1 scan=FULL", "scan=FULL")]:
        with pytest.raises(ParseError) as err:
            parse_family("prog p = n\nopponent a : " + fields)
        assert (err.value.line_no, err.value.message) == (
            2, "bad field '%s'" % bad)
    for fields in ("g=p h=p r=p scan=full", "m=1 scan=full"):
        (opp,) = parse_family("prog p = n\nopponent a : " + fields)[1]
        assert not opp.monotone_h


def test_a_script_parser_bug_is_not_a_bad_script():
    def broken(text):
        raise IndexError("parser bug")
    with mock.patch.object(opponents, "parse_sexpr", broken):
        with pytest.raises(IndexError):
            parse_family("prog p = n\n")
