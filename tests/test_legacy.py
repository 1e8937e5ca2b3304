from __future__ import annotations

import contextlib
import dataclasses
import sys
from itertools import combinations
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import dialectic.cli
import dialectic.legacy
from dialectic.cli import _diff_one, _pair_legacy
from dialectic.consequence import BOT, CE, Rule, RuleTable, evaluate, rule
from dialectic.engine import (EXPANSION, QSystem, ReplacementMap, RunEngine,
                              StepRecord, run)
from dialectic.legacy import (
    AlignmentScopeError,
    EmptyNeighbourError,
    FastLegacyEngine,
    LegacyState,
    LegacySystem,
    PairApproximation,
    StateInvariantError,
    TableBackedApproximation,
    AlignmentReport,
    TranslationError,
    UndefinedPositionError,
    _entry_detail,
    _entry_matches,
    _select_clause,
    backward_translate,
    check_alignment,
    fast_legacy_run,
    forward_translate,
    legacy_run,
    legacy_step,
    marker_swap,
    audit_state,
    serialize_state,
    stream_alignment,
)
from dialectic.randomgen import MARKER_C, MARKER_CE, random_legacy, random_qsystem
from dialectic.strings import GAP, Tape, identity


def qsys(rules=(), repl=()):
    return QSystem(RuleTable(rules), ReplacementMap(repl))


def _revise_on_tie(z_c, z_ce):
    """The stack engines' clause choice with a clear-vs-revise tie going
    to the revision (clause 3), against the published precedence."""
    if z_c is not None and z_c == z_ce:
        return 3, z_ce
    return _select_clause(z_c, z_ce)


def tie_rule(swapped):
    """Leave both stack engines on the published tie rule, or make them
    break a tie the other way for the duration of the block."""
    if not swapped:
        return contextlib.nullcontext()
    return mock.patch.object(dialectic.legacy, "_select_clause",
                             _revise_on_tie)


def id_legacy(pairs=(), c=100, cm=101):
    """Identity listing, markers at 100/101, revision bumps codes by one."""
    return LegacySystem(PairApproximation(pairs), lambda i: i, lambda i: i,
                        marker_swap(c, cm, lambda y: y + 1), c, cm)


# ---------------------------------------------------------------------------
# the recursion itself
# ---------------------------------------------------------------------------

def test_empty_operator_grows_one_stack_per_stage():
    states = legacy_run(id_legacy(), 10)
    for s, st in enumerate(states):
        assert st.p == s
        assert st.stacks == tuple((x,) for x in range(s + 1))
        assert st.h == s
        assert st.A == frozenset()


def test_marker_from_nothing_hits_position_zero():
    bad = id_legacy([(1, 100, ())])
    with pytest.raises(UndefinedPositionError) as info:
        legacy_run(bad, 5)
    assert info.value.stage == 2
    assert info.value.clause == 2
    with pytest.raises(UndefinedPositionError):
        fast_legacy_run(bad, 5)


class _SecondQueryMarks:
    """A lawless operator: every query after the first derives the
    counterexample marker 101, although both see the same tips."""

    def __init__(self) -> None:
        self.calls = 0

    def query(self, s, Y):
        self.calls += 1
        return frozenset({101}) if self.calls > 1 else frozenset()


def test_revision_on_empty_neighbour_is_a_typed_error():
    system = id_legacy()
    system.approximation = _SecondQueryMarks()
    state = LegacyState(stacks=((), (1,)), h=0)
    with pytest.raises(EmptyNeighbourError) as info:
        legacy_step(system, state, 3)
    assert (info.value.stage, info.value.position) == (4, 1)


def test_fast_revision_on_empty_neighbour_is_a_typed_error():
    # the counterexample pair fires on tip 1 at position 1, i.e. at z = 2;
    # stack 1, a listing tip in the tape's count, is then stored and
    # emptied behind the engine's back
    eng = FastLegacyEngine(id_legacy([(1, 101, (1,))]))
    eng.step()
    eng.step()
    eng.tape.store()[1] = GAP
    with pytest.raises(EmptyNeighbourError) as info:
        eng.step()
    assert (info.value.stage, info.value.position) == (3, 2)


def test_audit_state_names_each_broken_invariant():
    legacy = id_legacy([(1, 100, (0,))])
    audit_state(legacy, LegacyState(((0,), (1,)), h=1, A=frozenset()), 4)
    for state, detail in [
        (LegacyState(((0,), ()), h=1), "frontier stack must be nonempty"),
        (LegacyState(((0,), (1,)), h=3), "h=3 is neither p=1 nor p-1"),
        (LegacyState(((0,), (1,)), h=1, A=frozenset({7})),
         "stored A differs from recomputation"),
    ]:
        with pytest.raises(StateInvariantError) as info:
            audit_state(legacy, state, 4)
        assert (info.value.stage, info.value.detail) == (4, detail)


def test_serialize_state():
    states = legacy_run(qsys_backward_sample(), 4)
    assert serialize_state(states[4]) == "0:\n1: 1 0\n2: 2\np=2, h=1, A={}\n"
    fast = fast_legacy_run(qsys_backward_sample(), 4)
    assert serialize_state(fast[4]) == "0:\n1: 1 0\n2: 2\np=2, h=1, A=-\n"


def qsys_backward_sample():
    return backward_translate(qsys([rule(0, {0}, BOT)], [(0, 1)]))


BOOTSTRAP_GOLDEN = [
    "0: 0\np=0, h=0, A={}\n",
    "0: 0\n1: 1\np=1, h=1, A={}\n",
    "0:\n1: 1\np=1, h=0, A={}\n",
    "0:\n1: 1\n2: 2\np=2, h=2, A={}\n",
    "0:\n1: 1 0\n2: 2\np=2, h=1, A={}\n",
    "0:\n1:\n2: 2\np=2, h=1, A={}\n",
]


@pytest.mark.parametrize("make", [
    lambda: qsys(),
    lambda: qsys([rule(0, {0}, BOT)], [(0, 1)]),
    lambda: random_qsystem(Random(7)),
])
def test_backward_bootstrap_reproduces_published_table(make):
    # the first six stages are forced by the marker codes alone, whatever
    # the table says
    states = legacy_run(backward_translate(make()), 5)
    assert [serialize_state(st) for st in states] == BOOTSTRAP_GOLDEN


def test_backward_empty_table_grows_from_code_two():
    states = fast_legacy_run(backward_translate(qsys()), 40)
    for t in range(5, 41):
        st = states[t]
        assert st.p == t - 3
        assert st.stacks[0] == () and st.stacks[1] == ()
        assert st.stacks[2:] == tuple((x,) for x in range(2, t - 2))


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------

PERM = [3, 0, 4, 1, 2]
INV = {code: i for i, code in enumerate(PERM)}


def perm_legacy():
    def f(i):
        return PERM[i] if 0 <= i < 5 else i

    def f_inv(code):
        return INV.get(code, code)

    def fm(y):
        if y == 100:
            return 101
        if y == 101:
            return 100
        return y + 1 + (y % 3)

    pairs = [(2, 100, {1}), (4, 101, {0, 4})]
    return LegacySystem(PairApproximation(pairs), f, f_inv, fm, 100, 101)


def test_forward_translation_rules():
    system = forward_translate(perm_legacy())
    rules = set(system.table)
    # ⟨marker, {code 1}⟩ at stage 2: code 1 is the 3rd argument
    assert Rule(2, frozenset({3}), BOT) in rules
    assert Rule(4, frozenset({1, 2}), CE) in rules


def test_forward_translation_operator_oracle():
    # independent oracle: decode the pair queries by hand and compare with
    # the translated table on every small argument set
    legacy = perm_legacy()
    system = forward_translate(legacy)
    universe = range(5)
    for s in range(6):
        for width in range(0, 4):
            for X in combinations(universe, width):
                codes = frozenset(PERM[i] for i in X)
                out = legacy.approximation.query(s, codes)
                expected = set(X)
                expected |= {INV.get(v, v) for v in out}
                if 100 in out:
                    expected.add(BOT)
                if 101 in out:
                    expected.add(CE)
                got = evaluate(system.table, s, frozenset(X))
                assert got == frozenset(expected), (s, X)


def test_forward_translation_replacement():
    system = forward_translate(perm_legacy())
    # argument 0 lists code 3; revision sends 3 to 4, the 2nd argument
    assert system.replacement.get(0) == 2
    # the sanctioned marker swap survives as a whitelisted pair
    assert system.replacement.get(100) == 101
    assert system.replacement.get(101) == 100


def test_forward_translation_empty():
    tr = run(forward_translate(id_legacy()), 12)
    assert tr.final_sigma.tokens == tuple(range(12))


def test_forward_translation_needs_invertible_listing():
    broken = perm_legacy()
    broken.f_inv = lambda code: 0
    with pytest.raises(TranslationError):
        forward_translate(broken)


def test_backward_pair_availability():
    legacy = backward_translate(qsys([rule(3, {0}, BOT)], [(0, 1)]))
    approx = legacy.approximation
    assert 0 in approx.query(8, frozenset({2}))
    assert approx.query(7, frozenset({2})) == frozenset({2})


def test_backward_bound_is_monotone_and_covers_chains():
    approx = TableBackedApproximation(RuleTable(), ReplacementMap([(0, 5)]))
    assert approx.bound(0) == 8  # 3 + chain top 5
    assert approx.bound(6) == 9  # 3 + the stage itself
    values = [approx.bound(s) for s in range(30)]
    assert values == sorted(values)


def test_backward_needs_finite_replacement():
    lazy = QSystem(RuleTable(), ReplacementMap(default_fn=lambda i: i + 1))
    with pytest.raises(TranslationError):
        backward_translate(lazy)


# ---------------------------------------------------------------------------
# fast runner vs the literal recursion
# ---------------------------------------------------------------------------

def test_fast_matches_duck_on_backward_systems():
    for seed in range(12):
        system = random_qsystem(Random(seed))
        legacy = backward_translate(system)
        slow = legacy_run(legacy, 120, compute_A=False)
        fast = fast_legacy_run(legacy, 120)
        assert slow == fast, "seed %d" % seed


def test_fast_matches_duck_on_pair_systems():
    for seed in range(12):
        legacy = random_legacy(Random(seed))
        slow = legacy_run(legacy, 100, compute_A=False)
        fast = fast_legacy_run(legacy, 100)
        assert slow == fast, "seed %d" % seed


def test_state_invariants_audit():
    for seed in (1, 5, 9):
        legacy = random_legacy(Random(seed), axiom_pairs=True)
        states = legacy_run(legacy, 60, compute_A=True)
        for s, st in enumerate(states):
            audit_state(legacy, st, s)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_alignment_forward_random():
    for seed in range(10):
        legacy = random_legacy(Random(seed))
        tr = run(forward_translate(legacy), 150)
        states = fast_legacy_run(legacy, 150)
        rep = check_alignment(tr, states, "forward", legacy)
        assert rep.ok, "seed %d: %s" % (seed, rep.render())


def test_alignment_backward_random():
    for seed in range(10):
        system = random_qsystem(Random(100 + seed))
        tr = run(system, 150)
        states = fast_legacy_run(backward_translate(system), 155)
        rep = check_alignment(tr, states, "backward")
        assert rep.ok, "seed %d: %s" % (seed, rep.render())


def test_stream_alignment_agrees_both_directions():
    system = random_qsystem(Random(42))
    assert stream_alignment("backward", qsys=system, horizon=200).ok
    legacy = random_legacy(Random(42))
    assert stream_alignment("forward", legacy=legacy, horizon=200).ok


def test_alignment_scope_error():
    system = qsys()
    tr = run(system, 30)
    short = fast_legacy_run(backward_translate(system), 20)
    with pytest.raises(AlignmentScopeError):
        check_alignment(tr, short, "backward")


def test_corrupted_clause_order_is_caught():
    # ⊥ and ce from the same premises: the published precedence excises,
    # the swapped one revises, and the runs part ways at the first firing
    system = qsys([rule(0, {0}, BOT), rule(0, {0}, CE)], [(0, 1)])
    assert stream_alignment("backward", qsys=system, horizon=20).ok
    with tie_rule(swapped=True):
        bad = stream_alignment("backward", qsys=system, horizon=20)
        states = fast_legacy_run(backward_translate(system), 25)
    assert not bad.ok
    assert bad.mismatch_stage == 2
    assert bad.mismatch_position == 0
    assert "tip 3" in bad.detail

    tr = run(system, 20)
    rep = check_alignment(tr, states, "backward")
    assert (rep.mismatch_stage, rep.mismatch_position) == (2, 0)


@pytest.mark.parametrize("other, stage, detail", [
    # a3 revised to a6, not a5: same kind and position, another image
    (qsys([rule(0, {3}, CE)], [(2, 6), (3, 6)]), 5, "a5 vs tip 8"),
    # a2 revised a stage early: the string expands, the stacks revise
    (qsys([rule(0, {2}, CE)], [(2, 6), (3, 5)]), 4, "length 4 vs 3"),
    # a0 revised to a5 as a3 is: same kind, stage and image, 3 positions down
    (qsys([rule(4, {0}, CE)], [(0, 5), (3, 5)]), 5, "length 4 vs 1"),
], ids=["image", "kind", "position"])
def test_stack_side_disagreement_is_named_at_its_stage(monkeypatch, other,
                                                       stage, detail):
    # the stack side runs the translation of another system
    system = qsys([rule(0, {3}, CE)], [(2, 6), (3, 5)])
    states = fast_legacy_run(backward_translate(other), 45)
    monkeypatch.setattr(dialectic.legacy, "backward_translate",
                        lambda _: backward_translate(other))
    bad = stream_alignment("backward", qsys=system, horizon=40)
    assert bad.render() == check_alignment(run(system, 40), states,
                                           "backward").render()
    assert (bad.mismatch_stage, bad.detail) == (stage, detail)


def test_a_short_quiet_stretch_is_named_where_it_ends(monkeypatch):
    # the stack side's first bulk stretch (to string stage 4) loses its
    # frontier stack; the event that follows would name stage 5
    skip = FastLegacyEngine.skip_to

    def short_once(self, t):
        skip(self, t)
        monkeypatch.setattr(FastLegacyEngine, "skip_to", skip)
        self.tape.cut(self.p)

    monkeypatch.setattr(FastLegacyEngine, "skip_to", short_once)
    bad = stream_alignment("backward", qsys=qsys([rule(0, {3}, CE)], [(3, 5)]),
                           horizon=40)
    assert (bad.mismatch_stage, bad.mismatch_position, bad.detail) == (
        4, None, "length 4 vs 3")


def test_lockstep_asks_each_engine_once_per_iteration(monkeypatch):
    # a quiet stretch is skipped with what the lockstep loop already asked;
    # re-entering an engine's own event loop asked again (5,371 asks each)
    asks = {RunEngine: 0, FastLegacyEngine: 0}
    for cls in asks:
        def counted(self, horizon, ask=cls.next_event, cls=cls):
            asks[cls] += 1
            return ask(self, horizon)
        monkeypatch.setattr(cls, "next_event", counted)
    for seed in range(200):
        _diff_one(seed, 1000)
    assert list(asks.values()) == [3474, 3474]


def test_forward_runs_list_f_by_its_shape(monkeypatch):
    # random_legacy declares its listing's shape (pool, 1), so _diff_one's
    # forward runs call f only where the stack engine and the translation
    # check it: 0.02 calls per σ position on seeds 0-199 (1.20 when every
    # quiet stretch made a pass over f)
    calls, made = [0], []

    def counted_legacy(rng, real=random_legacy):
        legacy = real(rng)
        made.append(legacy)

        def f(i, f=legacy.f):
            calls[0] += 1
            return f(i)

        return dataclasses.replace(legacy, f=f)

    monkeypatch.setattr(dialectic.cli, "random_legacy", counted_legacy)
    for seed in range(50):
        assert _diff_one(seed, 1000)[0], seed
    positions = 0
    for legacy in made:
        eng = RunEngine(forward_translate(legacy))
        eng.advance_to(1000)
        positions += len(eng.tape)
    assert positions > 45_000 and calls[0] < 0.1 * positions, calls


def test_a_declared_shape_is_checked_when_the_engine_is_built():
    # f swaps the codes of each pair: the shape (0, 2), not (0, 1)
    swapped = dataclasses.replace(id_legacy([(3, 100, {1, 4}), (9, 101, {6})]),
                                  f=lambda i: i ^ 1, f_inv=lambda c: c ^ 1)
    with pytest.raises(ValueError, match=r"does not have the shape \(0, 1\)"):
        FastLegacyEngine(dataclasses.replace(swapped, shape=(0, 1)))
    shaped = dataclasses.replace(swapped, shape=(0, 2))
    assert FastLegacyEngine(shaped).tape.shape.pi == [1, 0]
    want = legacy_run(swapped, 60, compute_A=False)
    assert fast_legacy_run(shaped, 60) == want == fast_legacy_run(swapped, 60)
    legacy = random_legacy(Random(0))
    assert legacy.shape == (10, 1)
    for shape in [(0, 1), (9, 1), (5, 1), (0, 3)]:
        with pytest.raises(ValueError, match="does not have the shape"):
            FastLegacyEngine(dataclasses.replace(legacy, shape=shape))


def test_alignment_empty_systems_long():
    assert stream_alignment("backward", qsys=qsys(), horizon=100).ok
    assert stream_alignment("forward", legacy=id_legacy(), horizon=100).ok


# ---------------------------------------------------------------------------
# the event form against per-stage stepping
# ---------------------------------------------------------------------------

def per_stage_alignment(direction, qsys=None, legacy=None, horizon=100):
    """The alignment as it ran before the event form: both engines take
    every stage, and the positions each stage touched are re-read."""
    if direction == "backward":
        legacy = backward_translate(qsys)
        off_stage, off_idx, f = 5, 2, None
    else:
        qsys = forward_translate(legacy)
        off_stage, off_idx, f = 0, 0, legacy.f
    eng = RunEngine(qsys)
    fast = FastLegacyEngine(legacy)
    for _ in range(off_stage):
        fast.step()

    def compare_from(lo, s):
        L = len(eng.tape.tokens)
        sigma = eng.tape.tokens + list(range(L, L + eng.tape.listing))
        if len(sigma) != fast.p - off_idx:
            return AlignmentReport(False, direction, s, s, None, "length %d vs %d"
                                   % (len(sigma), fast.p - off_idx))
        for n in range(max(lo, 0), len(sigma)):
            tip = fast.rho(n + off_idx)
            if not _entry_matches(sigma[n], tip, f, off_idx):
                return AlignmentReport(False, direction, s, s, n,
                                       _entry_detail(sigma[n], tip))
        return None

    bad = compare_from(0, 0)
    if bad is not None:
        return bad
    for s in range(horizon):
        rec = eng.step_once()
        clause, z = fast.step()
        length = len(eng.tape.tokens) + eng.tape.listing
        lo_eng = length - 1 if rec.kind == EXPANSION else rec.k - 1
        lo_leg = fast.p - 1 - off_idx if clause == 1 else z - 1 - off_idx
        bad = compare_from(min(lo_eng, lo_leg), s + 1)
        if bad is not None:
            return bad
    bad = compare_from(0, horizon)
    return bad if bad is not None else AlignmentReport(True, direction, horizon + 1)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).render()
    except Exception as exc:  # a typed engine error is an outcome too
        return "%s: %s" % (type(exc).__name__, exc)


def test_event_alignment_matches_per_stage_alignment():
    mismatches = 0
    for seed in range(300):
        rng = Random(seed)
        horizons = (0, 1, 4, 5, 6, rng.randrange(50, 401))
        cases = [("backward", {"qsys": random_qsystem(rng)}),
                 ("forward", {"legacy": random_legacy(rng)}),
                 ("forward", {"legacy": _pair_legacy(random_qsystem(rng))})]
        for direction, system in cases:
            for swapped in (False, True):
                for h in horizons:
                    with tie_rule(swapped):
                        old = _outcome(per_stage_alignment, direction,
                                       horizon=h, **system)
                        new = _outcome(stream_alignment, direction,
                                       horizon=h, **system)
                    assert new == old, (seed, direction, swapped, h)
                    mismatches += "MISMATCH" in old
    assert mismatches > 100


def _listing_variant(legacy, kind):
    """The same pairs over a listing whose f_inv does not carry codes back,
    or over a listing that repeats every code every ten positions."""
    if kind == "no-inverse":
        return LegacySystem(legacy.approximation, legacy.f, lambda y: -1 - y,
                            legacy.f_minus, legacy.c, legacy.c_minus)
    return LegacySystem(legacy.approximation, lambda i: legacy.f(i % 10),
                        legacy.f_inv, legacy.f_minus, legacy.c, legacy.c_minus)


def _kind_legacy(rng, kind):
    """A stack system of one of the listing kinds the engine must follow."""
    if kind == "backward":
        return backward_translate(random_qsystem(rng))
    if kind == "spec":
        return _pair_legacy(random_qsystem(rng))
    legacy = random_legacy(rng)
    return legacy if kind == "pairs" else _listing_variant(legacy, kind)


LISTING_KINDS = ["pairs", "backward", "spec", "no-inverse", "repeats"]


def _run_engine(legacy, horizon, bulk):
    eng = FastLegacyEngine(legacy)
    try:
        if bulk:
            eng.advance_to(horizon)
        else:
            for _ in range(horizon):
                eng.step()
    except (UndefinedPositionError, EmptyNeighbourError) as exc:
        return type(exc).__name__, str(exc)
    # the tips as stored tokens followed by the listing's count
    tape = eng.tape
    tips = tape.tokens + [legacy.f(x) for x in range(len(tape.tokens), eng.p + 1)]
    return eng.snapshot(), eng.stage, tape.first, tips


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6), horizon=st.integers(0, 300),
       kind=st.sampled_from(LISTING_KINDS), swapped=st.booleans())
def test_advance_to_matches_stepping(seed, horizon, kind, swapped):
    legacy = _kind_legacy(Random(seed), kind)
    # patched in the body: a function-scoped fixture trips hypothesis's
    # health check
    with tie_rule(swapped):
        assert (_run_engine(legacy, horizon, bulk=True)
                == _run_engine(legacy, horizon, bulk=False))


def _stack_count_case(seed, kind):
    """Drive a FastLegacyEngine through a random schedule of bulk advances
    and single steps, and compare after every move its snapshot with
    legacy_run's state at that stage, and ``tape.first`` with a
    first-occurrence scan of the snapshot's tips.  A typed error must be
    the oracle's, at the oracle's stage.  Returns how often a cut fell
    inside the tape's count at a clause-2 or clause-3 stage, and how often
    a bulk advance was cut early on a repeated watched code."""
    rng = Random(seed)
    legacy = _kind_legacy(rng, kind)
    horizon = rng.randint(0, 120)
    try:
        states, error = legacy_run(legacy, horizon, compute_A=False), None
    except (UndefinedPositionError, EmptyNeighbourError) as exc:
        states = legacy_run(legacy, exc.stage - 1, compute_A=False)
        error = "%s: %s" % (type(exc).__name__, exc)
    cuts, real_cut = {"in_count": 0, "early": 0}, Tape.cut

    def counting_cut(tape, pos):
        if sys._getframe(1).f_code.co_name == "step":
            cuts["in_count"] += pos > len(tape.tokens)
        else:
            cuts["early"] += 1
        return real_cut(tape, pos)

    eng = FastLegacyEngine(legacy)
    with mock.patch.object(Tape, "cut", counting_cut):
        while eng.stage < horizon:
            try:
                if rng.random() < 0.5:
                    eng.step()
                else:
                    eng.advance_to(min(horizon, eng.stage + rng.randint(1, 40)))
            except (UndefinedPositionError, EmptyNeighbourError) as exc:
                assert "%s: %s" % (type(exc).__name__, exc) == error
                assert eng.stage == len(states) - 1
                return cuts["in_count"], cuts["early"]
            state = eng.snapshot()
            assert state == states[eng.stage]
            tips = [st[-1] if st else GAP for st in state.stacks]
            assert eng.tape.first == {v: tips.index(v) for v in eng.tape.watched
                                      if v in tips}
    assert error is None
    return cuts["in_count"], cuts["early"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**30), st.sampled_from(LISTING_KINDS))
def test_stack_count_matches_legacy_run_property(seed, kind):
    _stack_count_case(seed, kind)


def test_stack_count_corpus_reaches_cuts_in_the_count_and_early_cuts():
    # the property's paths, exercised on a fixed corpus: cuts that land
    # inside the count on every kind of listing, and bulk advances cut
    # short where a repeating listing brings a watched code back before
    # f_inv says (the only kind that can)
    totals = {kind: [sum(t) for t in zip(*(_stack_count_case(seed, kind)
                                           for seed in range(30)))]
              for kind in LISTING_KINDS}
    assert all(in_count > 40 for in_count, _ in totals.values()), totals
    assert totals["repeats"][1] > 150, totals


@pytest.mark.parametrize("kind", LISTING_KINDS)
def test_fast_legacy_run_lists_each_position_once(kind):
    # the wrapper keeps the tips between its per-stage snapshots, so f is
    # called a few times per stage (at most 484 times in 150 stages here,
    # the engine's arrival checks included), not once per position per
    # stage (some 11,000 times)
    horizon, stages = 150, 0
    for seed in range(10):
        legacy = _kind_legacy(Random(seed), kind)
        calls = []
        counted = dataclasses.replace(
            legacy, f=lambda i, f=legacy.f: calls.append(i) or f(i))
        try:
            want, error = legacy_run(legacy, horizon, compute_A=False), None
        except (UndefinedPositionError, EmptyNeighbourError) as exc:
            want, error = None, str(exc)
        try:
            got = fast_legacy_run(counted, horizon)
        except (UndefinedPositionError, EmptyNeighbourError) as exc:
            assert str(exc) == error, (kind, seed)
            continue
        assert got == want, (kind, seed)
        assert len(calls) <= 5 * horizon, (kind, seed, len(calls))
        stages += horizon
    assert stages >= 5 * horizon


@pytest.mark.parametrize("shape", [(0, 1), None], ids=["identity", "lambda"])
def test_quiet_stack_run_of_a_million_stages_stores_no_tip(shape):
    # the tape lists a listing with a shape without calling it, and finds
    # the arrivals of any other listing with one pass over it
    def legacy(pairs=()):
        return dataclasses.replace(id_legacy(pairs), f=identity, f_inv=identity,
                                   shape=shape)

    eng = FastLegacyEngine(legacy())
    eng.advance_to(10**6)
    assert (eng.p, eng.tape.tokens, eng.tape.listing) == (10**6, [], 10**6 + 1)
    assert (eng.bulk_stretches, eng.bulk_stages) == (1, 10**6)
    # a pair whose premise left for good: the tape stores only what the
    # clearing stage wrote, the empty stack 0
    eng = FastLegacyEngine(legacy([(1, 100, {0}), (4, 101, {0, 5})]))
    eng.advance_to(10**6 + 1)
    assert (eng.p, eng.tape.tokens, eng.tape.listing) == (10**6, [GAP], 10**6)
    # stage 0 in bulk, the clearing stage 1 stepped, the rest in bulk
    assert (eng.bulk_stretches, eng.bulk_stages) == (2, 10**6)
    assert [eng.rho(x) for x in range(3)] == [None, 1, 2]
    assert eng.tape.first == {5: 5}


def test_next_event_bounds_from_the_listing():
    eng = FastLegacyEngine(id_legacy([(3, 100, {1}), (2, 101, {7})]))
    # a1 arrives at stage 1 and counts once it is off the frontier; a7
    # arrives at stage 7
    assert eng.next_event(1000) == 3
    assert eng.next_event(2) == 2             # capped by the horizon


def test_next_event_sees_a_code_that_left_for_good():
    eng = FastLegacyEngine(id_legacy([(1, 100, {0}), (4, 101, {0, 5})]))
    assert eng.next_event(1000) == 1          # a0 is the frontier tip at stage 0
    eng.step()
    assert eng.next_event(1000) == 1
    assert eng.step() == (2, 1)               # clears stack 0
    # the identity listing never brings code 0 back: both pairs are blocked
    assert eng.next_event(1000) == 1000
    eng.advance_to(1000)
    assert (eng.stage, eng.p, eng.h) == (1000, 999, 999)


# ---------------------------------------------------------------------------
# the marker swap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c, c_minus", [(0, 1), (MARKER_C, MARKER_CE)])
def test_marker_swap_swaps_the_markers_and_revises_the_rest(c, c_minus):
    asked = []

    def revise(code):
        asked.append(code)
        if code == 7:
            raise KeyError("no revision defined for code 7")
        return code + 10

    f_minus = marker_swap(c, c_minus, revise)
    assert (f_minus(c), f_minus(c_minus)) == (c_minus, c)
    assert asked == []
    others = [2, 3, 9, c_minus + 1]
    assert [f_minus(v) for v in others] == [v + 10 for v in others]
    assert asked == others
    with pytest.raises(KeyError, match="code 7"):
        f_minus(7)


def test_every_stack_system_swaps_its_markers():
    back = backward_translate(qsys(repl=[(3, 5)]))
    assert [back.f_minus(y) for y in (0, 1, 5)] == [1, 0, 7]
    with pytest.raises(KeyError, match="no revision defined for code 2"):
        back.f_minus(2)
    # unrevised codes are parked on spares above the markers, once each
    spec = _pair_legacy(qsys(repl=[(3, 5)]))
    assert [spec.f_minus(y) for y in (MARKER_C, MARKER_CE, 3, 9, 2, 9)] == [
        MARKER_CE, MARKER_C, 5, MARKER_CE + 1, MARKER_CE + 2, MARKER_CE + 1]
    rand = random_legacy(Random(0))
    assert [rand.f_minus(y) for y in (MARKER_C, MARKER_CE, 4)] == [
        MARKER_CE, MARKER_C, 6]


def test_spec_markers_sit_above_every_code_the_spec_names():
    # a1000000 is MARKER_C's code: with the markers there, the marker swap
    # replaced it by a1000001 on the stack side, not by the spec's a1000005
    spec = qsys([rule(0, {10 ** 6}, CE)], [(10 ** 6, 10 ** 6 + 5)])
    legacy = _pair_legacy(spec)
    assert (legacy.c, legacy.c_minus) == (10 ** 6 + 6, 10 ** 6 + 7)
    horizon = 10 ** 6 + 10
    assert run(forward_translate(legacy), horizon).event_records == \
        run(spec, horizon).event_records == [
            StepRecord(10 ** 6 + 1, "REP", 10 ** 6 + 1, 10 ** 6, 10 ** 6 + 5)]
    # a spec whose codes stay below MARKER_C keeps the markers there
    assert _pair_legacy(qsys(repl=[(3, 5)])).c == MARKER_C


def test_spec_pairs_come_from_marker_rules_only():
    # the stack runners read marker pairs only, so an axiom's rule adds none
    spec = _pair_legacy(qsys([rule(0, {0}, BOT), rule(3, {0}, 4),
                              rule(8, {0, 1}, CE)]))
    assert spec.approximation.pairs() == [
        (1, MARKER_C, frozenset({0})), (8, MARKER_CE, frozenset({0, 1}))]


# ---------------------------------------------------------------------------
# belief sets across the forward translation
# ---------------------------------------------------------------------------

def test_provisional_beliefs_match_translated_run():
    # inclusion pairs make the operator honest about its own arguments;
    # the one marker pair knocks out code 1 on both sides
    pairs = [(1, code, {code}) for code in range(5)]
    pairs.append((2, 100, {1}))
    legacy = id_legacy(pairs)
    # only codes 0..4 have inclusion pairs, and code 1 is knocked out
    states = legacy_run(legacy, 12)
    assert states[10].A == frozenset({0, 2, 3, 4})

    from dialectic.engine import estimate_beliefs
    tr = run(forward_translate(legacy), 40)
    est = estimate_beliefs(tr, 5).belief_estimate
    assert 1 not in est
    assert {0, 2, 3, 4} <= est
