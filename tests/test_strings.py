"""Primitive belief-string operations."""
from __future__ import annotations

import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import dialectic.strings
from dialectic.strings import (
    GAP,
    BeliefString,
    DialecticError,
    IntervalSet,
    OperationError,
    IDENTITY,
    ParseError,
    Shape,
    StoreLimitError,
    Tape,
    axiom_from_str,
    contraction,
    excision,
    expansion,
    natural_from_str,
    numbered_lines,
    replacement,
    token_from_str,
    token_to_str,
)


def bs(*toks):
    return BeliefString(toks)


def test_invalid_token_is_named_first_in_order():
    # the one min() test finds a bad token; the message names the first one
    with pytest.raises(OperationError, match=r"^invalid token value -5$"):
        bs(3, GAP, -5, 0, -9)
    with pytest.raises(OperationError, match=r"^invalid token value -2$"):
        bs(-2)
    assert bs(GAP, 0, GAP, 10**9).tokens == (GAP, 0, GAP, 10**9)
    assert BeliefString().tokens == ()


def test_range_ignores_gaps():
    assert bs(0, GAP, 2).range() == {0, 2}


def test_range_counts_duplicates_once():
    assert bs(1, 1, GAP).range() == {1}


def test_range_empty():
    assert BeliefString().range() == frozenset()


def test_contraction_prefix():
    assert contraction(bs(0, GAP, 2), 2) == bs(0, GAP)


def test_contraction_to_empty():
    assert contraction(bs(0), 0) == BeliefString()


def test_contraction_out_of_range():
    with pytest.raises(OperationError):
        contraction(bs(0, 1), 2)
    with pytest.raises(OperationError):
        contraction(bs(0, 1), 5)
    with pytest.raises(OperationError):
        contraction(BeliefString(), 0)


def test_expansion_appends_positional_axiom():
    assert expansion(bs(0, GAP)) == bs(0, GAP, 2)
    assert expansion(BeliefString()) == bs(0)


def test_expansion_can_duplicate():
    # a2 already occurs earlier; the appended axiom is still a2 at position 2
    assert expansion(bs(2, 1)) == bs(2, 1, 2)


def test_replacement_swaps_last_axiom():
    assert replacement(bs(0, 1), 3) == bs(0, 3)


def test_replacement_errors():
    with pytest.raises(OperationError):
        replacement(BeliefString(), 1)
    with pytest.raises(OperationError):
        replacement(bs(0, GAP), 1)
    with pytest.raises(OperationError):
        replacement(bs(0, 1), 1)  # identical axiom


def test_excision_marks_gap():
    assert excision(bs(0, 1)) == bs(0, GAP)


def test_excision_errors():
    with pytest.raises(OperationError):
        excision(BeliefString())
    with pytest.raises(OperationError):
        excision(bs(0, GAP))


def test_serialize_round_trip():
    s = bs(0, GAP, 2, 2)
    assert s.serialize() == "a0 * a2 a2"
    assert BeliefString.parse(s.serialize()) == s
    assert BeliefString.parse("") == BeliefString()


def test_token_grammar():
    assert token_to_str(GAP) == "*"
    assert token_from_str("a17") == 17
    with pytest.raises(OperationError):
        token_from_str("b2")
    with pytest.raises(OperationError):
        token_from_str("a")
    with pytest.raises(OperationError):
        token_from_str("a\u0663")


def test_input_layer():
    assert natural_from_str("0042", "bad") == 42
    assert axiom_from_str("a17", "bad") == 17
    for text in ["", "-1", "+1", "1_0", " 1", "\u0663", "\u00b2", "9" * 5000]:
        with pytest.raises(ValueError, match="^bad$"):
            natural_from_str(text, "bad")
        with pytest.raises(ValueError, match="^bad$"):
            axiom_from_str("a" + text, "bad")
    for text in ["a", "b2", "A3", "2"]:
        with pytest.raises(ValueError, match="^bad$"):
            axiom_from_str(text, "bad")
    text = "x\n\n  # only a comment\ny # z\r\n\tw\t\n#"
    assert list(numbered_lines(text)) == [(1, "x"), (4, "y"), (5, "w")]
    err = ParseError(3, "oops")
    assert isinstance(err, ValueError)
    assert (str(err), err.line_no, err.message) == ("line 3: oops", 3, "oops")


def _package_exceptions():
    """Every exception class that some module of the package defines."""
    found = []
    for info in pkgutil.iter_modules(dialectic.__path__):
        module = importlib.import_module("dialectic." + info.name)
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return found


def test_every_package_error_joins_the_base_and_pickles_whole():
    classes = _package_exceptions()
    names = {cls.__name__ for cls in classes}
    assert {"DialecticError", "ParseError", "OutputError",
            "MissingReplacementError", "ClaimFreshnessError"} <= names
    for cls in classes:
        if cls.__name__ == "_Diverge":
            # control flow inside the interpreter, never reported to a user
            continue
        assert issubclass(cls, DialecticError), cls
        err = cls(*range(1, len(cls.fields) + 1))
        if "axiom" in cls.fields:
            err.name = "'item'"
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert (back.args, str(back)) == (err.args, str(err)), cls
        for field in cls.fields + ("name",):
            assert getattr(back, field) == getattr(err, field), (cls, field)


tokens = st.lists(st.one_of(st.just(GAP), st.integers(0, 30)), max_size=12)


@given(tokens)
def test_serialize_parse_identity(toks):
    s = BeliefString(toks)
    assert BeliefString.parse(s.serialize()) == s


@given(tokens)
def test_contraction_range_shrinks(toks):
    s = BeliefString(toks)
    for k in range(len(s)):
        assert contraction(s, k).range() <= s.range()


@given(tokens)
def test_expansion_extends_by_one(toks):
    s = BeliefString(toks)
    e = expansion(s)
    assert len(e) == len(s) + 1
    assert e[len(s)] == len(s)
    assert e.tokens[: len(s)] == s.tokens


# ---------------------------------------------------------------------------
# Tape against a plain list
# ---------------------------------------------------------------------------

tape_ops = st.lists(st.one_of(
    st.tuples(st.just("watch"), st.integers(0, 12)),
    st.tuples(st.just("watch"), st.integers(0, 6)),
    st.tuples(st.just("push"), st.one_of(st.just(GAP), st.integers(0, 12))),
    st.tuples(st.just("extend"), st.integers(0, 6)),
    st.tuples(st.just("extend_values"),
              st.lists(st.one_of(st.just(GAP), st.integers(0, 12)), max_size=6)),
    st.tuples(st.just("cut"), st.integers(0, 20)),
    st.tuples(st.just("store"), st.just(None)),
), max_size=40)


def _model_first(model, watched):
    return {v: model.index(v) for v in watched if v in model}


def _model_cover(model, values):
    if any(v not in model for v in values):
        return None
    return 1 + max((model.index(v) for v in values), default=-1)


def _check_tape_ops(ops, f, shape=None):
    """Apply ops to a tape over the listing f (None for the tape's
    default, the identity) and to a plain list, and compare them after
    every op; ``first`` equal to the list's first positions also means
    that exactly the right watched values arrived and left.  With a shape
    (S, B) of f the tape lists f by its Shape, and each op also goes to a
    stored twin, a tape over f itself, whose arrivals it must report."""
    tape, model, watched = Tape() if f is None else Tape(f), [], set()
    twin = None
    if shape is not None:
        tape, twin = Tape(Shape(f, *shape)), tape
        assert tape.shape is not None and twin.shape is None
    listing = f or (lambda i: i)
    for op, arg in ops:
        if op == "watch":
            tape.watch(arg)
            watched.add(arg)
            if twin:
                twin.watch(arg)
        elif op == "push":
            tape.push(arg)
            model.append(arg)
            if twin:
                twin.push(arg)
        elif op == "extend":
            arrived = tape.extend_listing(arg)
            model.extend(map(listing, range(len(model), len(model) + arg)))
            if twin:
                assert sorted(arrived) == sorted(twin.extend_listing(arg))
        elif op == "extend_values":
            tape.extend(arg)
            model.extend(arg)
            if twin:
                twin.extend(arg)
        elif op == "cut":
            pos = arg % (len(model) + 1)
            tape.cut(pos)
            del model[pos:]
            if twin:
                twin.cut(pos)
        else:
            assert tape.store() is tape.tokens and tape.listing == 0
        # the stored tokens, then the listing count
        L = len(tape.tokens)
        assert tape.tokens + [listing(i) for i in range(L, len(tape))] == model
        assert [tape.at(i) for i in range(len(model))] == model
        assert tape.head(len(model) // 2) == model[:len(model) // 2]
        assert tape.first == _model_first(model, watched)
        if twin:
            assert twin.first == tape.first and len(twin) == len(tape)
        ordered = sorted(watched)
        for values in [ordered, ordered[::2], ordered[-1:], []]:
            assert tape.cover(values) == _model_cover(model, values)


@settings(max_examples=300, deadline=None)
@given(tape_ops)
def test_tape_matches_list_model(ops):
    _check_tape_ops(ops, None)


@settings(max_examples=300, deadline=None)
@given(tape_ops)
def test_tape_over_a_listing_function_matches_list_model(ops):
    # a listing that repeats the watched values 0..12 every 13 positions
    _check_tape_ops(ops, lambda i: (5 * i + 3) % 13)


# a listing with a shape (S, B): a permutation of [0, S), then blocks of B
# permuted alike, written out without the Shape class
@st.composite
def shaped_listings(draw):
    S, B = draw(st.integers(0, 8)), draw(st.integers(1, 9))
    head = draw(st.permutations(range(S)))
    pi = draw(st.permutations(range(B)))

    def f(p):
        if p < S:
            return head[p]
        k, j = divmod(p - S, B)
        return S + k * B + pi[j]

    return f, (S, B)


shaped_tape_ops = st.lists(st.one_of(
    st.tuples(st.just("watch"), st.integers(0, 60)),
    st.tuples(st.just("push"), st.one_of(st.just(GAP), st.integers(0, 60))),
    st.tuples(st.just("extend"), st.integers(0, 25)),
    st.tuples(st.just("extend_values"),
              st.lists(st.one_of(st.just(GAP), st.integers(0, 60)), max_size=6)),
    st.tuples(st.just("cut"), st.integers(0, 80)),
    st.tuples(st.just("store"), st.just(None)),
), max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shaped_listings(), shaped_tape_ops)
def test_shaped_tape_matches_a_stored_tape(listing, ops):
    # first positions, arrivals, cuts and heads, by arithmetic
    f, shape = listing
    _check_tape_ops(ops, f, shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shaped_listings(), st.integers(0, 70), st.integers(0, 70),
       st.integers(0, 70))
def test_shape_reads_its_listing_by_arithmetic(listing, lo, hi, limit):
    f, (S, B) = listing
    shape = Shape(f, S, B)
    assert [shape(p) for p in range(90)] == [f(p) for p in range(90)]
    assert list(shape.values(lo, hi)) == [f(p) for p in range(lo, hi)]
    assert [f(shape.index(v)) for v in range(90)] == list(range(90))
    assert shape.index(GAP) == -1
    assert shape.first_above(limit) == next(p for p in range(200) if f(p) > limit)
    # the whole cells are an interval, the partial ones lie at either end
    values, a, b = shape.image(lo, hi)
    assert sorted(values + list(range(a, b))) == sorted(map(f, range(lo, hi)))
    if a < b:   # whole cells: [0, S) or blocks, each listing itself
        assert lo <= a < b <= hi and shape._cell(a) == a and shape._cell(b) == b
        assert len(values) == (a - lo) + (hi - b)
        assert a - lo < max(S, B) and hi - b < max(S, B)
    else:
        assert len(values) == max(0, hi - lo)


def test_shape_checks_its_listing():
    assert (IDENTITY.S, IDENTITY.B) == (0, 1)
    assert Shape(lambda p: p, 3, 4)(10) == 10
    for f, S, B in [(lambda p: p + 1, 0, 1), (lambda p: [1, 2, 0][p % 3], 2, 1),
                    (lambda p: p // 2, 0, 2), (lambda p: p, 0, 0)]:
        with pytest.raises(ValueError, match="does not have the shape"):
            Shape(f, S, B)


def test_tape_reports_first_positions_only():
    tape = Tape()
    tape.watch(3)
    assert tape.extend_listing(5) == [3]      # a0 .. a4
    tape.push(3)                              # a second a3 arrives nowhere
    assert tape.first == {3: 3}
    tape.watch(1)
    assert tape.first == {3: 3, 1: 1}
    tape.cut(4)                               # the first a3 stays
    assert tape.first == {3: 3, 1: 1}
    tape.cut(1)
    assert tape.first == {}
    assert tape.cover([1]) is None and tape.cover([]) == 0
    tape.push(1)
    assert tape.first == {1: 1} and tape.cover([1]) == 2


@pytest.mark.parametrize("pos", range(6))
def test_tape_cut_reports_the_values_first_seen_in_the_tail(pos):
    # the repeated a2 at the end leaves only with its first occurrence
    tape = Tape()
    for v in range(5):
        tape.watch(v)
    tape.extend_listing(5)
    tape.push(2)
    tape.cut(pos)
    assert tape.first == {v: v for v in range(min(pos, 5))}


@pytest.mark.parametrize("extra", [(), (20, 21)])
def test_tape_listing_keeps_an_earlier_first_position(extra):
    # watched values beyond the listed range do not arrive
    tape = Tape()
    for v in (1, 2, 3) + extra:
        tape.watch(v)
    tape.push(2)
    assert sorted(tape.extend_listing(3)) == [1, 3]   # a1 a2 a3 after a2
    assert tape.first == {2: 0, 1: 1, 3: 3}


def test_tape_refuses_to_store_past_its_limit(monkeypatch):
    # the check comes before the list grows, so the tape is left as it was
    monkeypatch.setattr(dialectic.strings, "MAX_STORED", 5)
    tape = Tape()
    tape.extend_listing(5)
    assert tape.store() == [0, 1, 2, 3, 4]
    tape.extend_listing(1)
    with pytest.raises(StoreLimitError, match=r"^cannot store a string of 6 "
                       r"tokens \(the limit is 5\)$"):
        tape.push(GAP)
    assert (tape.tokens, tape.listing) == ([0, 1, 2, 3, 4], 1)
    tape.push(6)   # listed next: counted, so nothing is stored
    assert (tape.tokens, tape.listing) == ([0, 1, 2, 3, 4], 2)


# ---------------------------------------------------------------------------
# IntervalSet against frozenset
# ---------------------------------------------------------------------------

# a stored head (gaps, repeats, values above the listing's interval), its
# listing count and the stable prefix, which may end inside the head
heads = st.lists(st.one_of(st.just(GAP), st.integers(0, 40)), max_size=14)
estimates = st.tuples(heads, st.integers(0, 15), st.integers(0, 40)).map(
    lambda t: (t[0], t[1], t[2] % (len(t[0]) + t[1] + 1)))


def _estimate(head, listing, prefix):
    """The report's estimate and its frozenset oracle: the stable head's
    axioms plus the listing positions len(head) .. prefix-1."""
    est = IntervalSet.of(head[:prefix], len(head), prefix)
    oracle = frozenset(t for t in head[:prefix] if t != GAP)
    return est, oracle | frozenset(range(len(head), prefix))


def _check_against(est, oracle):
    b = est.bounds
    assert len(b) % 2 == 0 and all(x < y for x, y in zip(b, b[1:]))
    for v in range(-2, 60):
        assert (v in est) == (v in oracle)
        assert est.first_from(v) == min((x for x in oracle if x >= v),
                                        default=None)
        below = est.below(max(v, 0))
        assert below == frozenset(x for x in oracle if x < v)
        assert below.bounds == IntervalSet.of(below).bounds
    assert len(est) == len(oracle) and list(est) == sorted(oracle)
    assert est == oracle and oracle == est and not est != oracle
    assert est == IntervalSet.of(sorted(oracle)) and est != oracle | {99}
    if oracle:
        assert oracle - {min(oracle)} != est


@settings(max_examples=400, deadline=None, derandomize=True)
@given(estimates, estimates)
def test_interval_set_matches_frozenset(a, b):
    est_a, fa = _estimate(*a)
    est_b, fb = _estimate(*b)
    _check_against(est_a, fa)
    x = est_a ^ est_b
    assert isinstance(x, IntervalSet)
    assert x.bounds == IntervalSet.of(fa ^ fb).bounds
    _check_against(x, fa ^ fb)
    assert (est_a ^ fb) == (fa ^ est_b) == fa ^ fb
    assert (est_a == est_b) == (fa == fb)
    for left, right in [(est_a, fb), (fa, est_b), (est_a, est_b)]:
        assert (left <= right) == (fa <= fb) and (left < right) == (fa < fb)
        assert (left >= right) == (fa >= fb) and (left > right) == (fa > fb)
    assert fa.issubset(est_a) and est_a.isdisjoint(fb) == fa.isdisjoint(fb)
    assert (est_a & fb) == fa & fb and (est_a | fb) == fa | fb
    assert (est_a - fb) == fa - fb


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 30), max_size=12), st.integers(0, 32),
       st.integers(0, 32))
def test_interval_set_of_values_and_any_interval(values, lo, hi):
    # empty intervals (lo >= hi) add nothing; one that touches or overlaps
    # the values' runs joins them
    oracle = frozenset(v for v in values if v >= 0) | frozenset(range(lo, hi))
    _check_against(IntervalSet.of(values, lo, hi), oracle)


def test_interval_set_edges():
    assert IntervalSet.of([]).bounds == () and len(IntervalSet()) == 0
    assert IntervalSet.of([GAP, GAP]) == frozenset()
    assert IntervalSet.of([3, 4], 5, 9).bounds == (3, 9)       # touching
    assert IntervalSet.of([10, 2], 5, 10).bounds == (2, 3, 5, 11)
    assert IntervalSet.of([6, 7], 5, 9).bounds == (5, 9)       # inside
    assert IntervalSet.of([1], 4, 4).bounds == (1, 2)          # empty
    est = IntervalSet.of([], 0, 10**6)
    assert est.bounds == (0, 10**6) and len(est) == 10**6
    assert 999_999 in est and 10**6 not in est
    assert est.below(5).bounds == (0, 5) and est.first_from(10**6) is None
    assert repr(IntervalSet.of([0, 2])) == "IntervalSet((0, 1, 2, 3))"
