"""Run recursion: stepping, traces, stability, variants.

The incremental engine is replayed against the definition-shaped reference
stepper throughout; the two paths must agree stage for stage.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

import dialectic.engine
from dialectic.consequence import BOT, CE, RuleTable, rule
from dialectic.engine import (
    EXCISION,
    EXPANSION,
    REPLACEMENT,
    DisturbanceStamps,
    GapSkipError,
    MissingReplacementError,
    QSystem,
    ReplacementCycleError,
    ReplacementMap,
    RunEngine,
    RunTrace,
    StabilityReport,
    StepRecord,
    classify_variant,
    estimate_beliefs,
    is_clean_window,
    least_marks,
    marker_rule,
    next_usable,
    run,
    step,
    variant_flags,
    write_trace,
)
from dialectic.strings import GAP, BeliefString, Shape, Tape, token_to_str


def qsys(rules=(), repl=(), default_fn=None):
    return QSystem(RuleTable(rules), ReplacementMap(repl, default_fn=default_fn))


def bs(*toks):
    return BeliefString(toks)


# ---------------------------------------------------------------------------
# ReplacementMap
# ---------------------------------------------------------------------------

def test_replacement_map_rejects_fixed_points_and_cycles():
    m = ReplacementMap()
    with pytest.raises(ReplacementCycleError):
        m.define(3, 3)
    m.define(0, 1)
    m.define(1, 2)
    with pytest.raises(ReplacementCycleError):
        m.define(2, 0)  # closes 0→1→2→0


def test_replacement_map_default_fn_cached_and_checked():
    calls = []

    def fn(k):
        calls.append(k)
        return k + 2

    m = ReplacementMap(default_fn=fn)
    assert m.get(4) == 6
    assert m.get(4) == 6
    assert calls.count(4) == 1


def test_replacement_map_default_cycle_detected():
    m = ReplacementMap(default_fn=lambda k: (k + 1) % 2)
    with pytest.raises(ReplacementCycleError):
        m.get(0)


def test_replacement_map_whitelisted_two_cycle():
    m = ReplacementMap(allow_pair=(0, 1))
    m.define(0, 1)
    m.define(1, 0)
    assert m.get(0) == 1 and m.get(1) == 0


def test_replacement_map_items_and_max_index():
    # the largest value is the image of a smaller source
    m = ReplacementMap({5: 6, 0: 100})
    assert m.explicit_items() == [(0, 100), (5, 6)]
    assert m.max_index() == 100
    m.define(200, 3)
    assert m.max_index() == 200
    assert m.explicit_items() == [(0, 100), (5, 6), (200, 3)]
    assert ReplacementMap().max_index() == -1
    assert ReplacementMap().explicit_items() == []


# ---------------------------------------------------------------------------
# step(): the four canonical situations
# ---------------------------------------------------------------------------

def test_step_expansion_when_quiet():
    sys0 = qsys()
    out, ev = step(sys0, bs(0, 1), 5)
    assert out == bs(0, 1, 2)
    assert ev.kind == EXPANSION and ev.k is None


def test_step_excision_least_prefix():
    sys0 = qsys([rule(0, {0}, BOT)])
    out, ev = step(sys0, bs(0, 1, 2), 0)
    assert out == bs(GAP)
    assert ev.kind == EXCISION and ev.k == 1


def test_step_replacement_uses_map():
    sys0 = qsys([rule(0, {0}, CE)], repl=[(0, 2)])
    out, ev = step(sys0, bs(0, 1, 2), 0)
    assert out == bs(2)
    assert ev.kind == REPLACEMENT and ev.k == 1 and ev.old == 0 and ev.new == 2


def test_step_bot_beats_ce_at_equal_prefix():
    sys0 = qsys([rule(0, {0}, BOT), rule(0, {0}, CE)], repl=[(0, 2)])
    out, ev = step(sys0, bs(0, 1), 0)
    assert ev.kind == EXCISION and ev.k == 1
    assert out == bs(GAP)


def test_step_ce_earlier_prefix_wins_over_bot():
    # ce reachable at prefix 1, ⊥ only at prefix 2: least prefix rules
    sys0 = qsys([rule(0, {0}, CE), rule(0, {0, 1}, BOT)], repl=[(0, 3)])
    out, ev = step(sys0, bs(0, 1), 0)
    assert ev.kind == REPLACEMENT and ev.k == 1


def test_step_missing_replacement_error():
    sys0 = qsys([rule(0, {0}, CE)])
    with pytest.raises(MissingReplacementError) as exc:
        step(sys0, bs(0), 0)
    assert exc.value.axiom == 0 and exc.value.position == 0


def test_step_gap_skip_error(monkeypatch):
    # the definition never marks a prefix ending in a gap (a gap adds nothing
    # to the range); force it with an operator that marks every prefix
    monkeypatch.setattr("dialectic.engine.evaluate", lambda *args: {BOT})
    with pytest.raises(GapSkipError) as exc:
        step(qsys(), bs(GAP, 1), 7)
    assert exc.value.stage == 7 and exc.value.position == 0


def test_engine_gap_skip_error_on_hand_built_state():
    # σ = a0 a1 a2 with the premise bookkeeping still placing a0 at 0,
    # then position 0 overwritten by a gap behind the engine's back
    eng = RunEngine(qsys([rule(5, {0}, BOT)]))
    eng.advance_to(3)
    eng.tape.store()[0] = GAP
    with pytest.raises(GapSkipError) as exc:
        eng.advance_to(6)
    assert exc.value.stage == 5 and exc.value.position == 0


def test_step_stage_gates_rules():
    sys0 = qsys([rule(4, {0}, BOT)])
    out, ev = step(sys0, bs(0), 3)
    assert ev.kind == EXPANSION
    out, ev = step(sys0, bs(0), 4)
    assert ev.kind == EXCISION


# ---------------------------------------------------------------------------
# run(): frozen small scenarios
# ---------------------------------------------------------------------------

def test_run_pure_expansion():
    tr = run(qsys(), 5)
    assert tr.final_sigma == bs(0, 1, 2, 3, 4)
    assert all(r.kind == EXPANSION for r in tr.records)


def test_run_excision_scenario():
    # stage-1 rule ⊥ on {a0}: expand, excise, then grow over the gap
    tr = run(qsys([rule(1, {0}, BOT)]), 4)
    assert [r.kind for r in tr.records] == [EXPANSION, EXCISION, EXPANSION, EXPANSION]
    assert tr.final_sigma == bs(GAP, 1, 2)


def test_run_replacement_scenario_duplicates():
    # three-axiom scenario: ce on {a0} at stage 3, r(a0)=a2; the string
    # develops a duplicate a2 in front
    tr = run(qsys([rule(3, {0}, CE)], repl=[(0, 2)]), 6)
    assert tr.final_sigma == bs(2, 1, 2)
    sigmas = list(tr.iter_sigmas())
    assert sigmas[3] == (0, 1, 2)
    assert sigmas[4] == (2,)
    assert sigmas[6] == (2, 1, 2)


def test_trace_event_prefix_bound_invariant():
    tr = run(qsys([rule(1, {0}, BOT), rule(5, {2}, CE)], repl=[(2, 4)]), 12)
    prev_len = 0
    for rec, sigma in zip(tr.records, islice(tr.iter_sigmas(), 1, None)):
        if rec.kind != EXPANSION:
            assert 1 <= rec.k <= prev_len
        prev_len = len(sigma)


# ---------------------------------------------------------------------------
# fast path against reference path
# ---------------------------------------------------------------------------

def _run_reference(system, horizon):
    sigma = BeliefString()
    events = []
    for s in range(horizon):
        sigma, ev = step(system, sigma, s)
        events.append(ev)
    return sigma, events


def _random_system(rng):
    n_ax = rng.randint(1, 8)
    rules = []
    for _ in range(rng.randint(0, 6)):
        prem = frozenset(rng.sample(range(n_ax), rng.randint(1, min(3, n_ax))))
        concl = rng.choice([BOT, CE])
        rules.append(rule(rng.randint(0, 12), prem, concl))
    return qsys(rules, default_fn=lambda k: k + 1 + (k % 3))


def test_fast_engine_matches_reference_on_random_corpus():
    rng = random.Random(1234)
    for _ in range(60):
        system = _random_system(rng)
        horizon = rng.randint(1, 80)
        ref_sigma, ref_events = _run_reference(system, horizon)
        tr = run(system, horizon)
        assert tr.final_sigma == ref_sigma
        assert list(tr.records) == ref_events


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 60))
def test_fast_engine_matches_reference_property(seed, horizon):
    system = _random_system(random.Random(seed))
    ref_sigma, _ = _run_reference(system, horizon)
    assert run(system, horizon).final_sigma == ref_sigma


def _check_view_against_reference(system, horizon):
    """The stored events, the per-stage views and the stability estimate of
    ``run`` agree with stage-by-stage stepping through the reference
    ``step`` and one stamp update per stage."""
    sigma = BeliefString()
    ref_records, ref_sigmas = [], [()]
    stamps = DisturbanceStamps()
    for s in range(horizon):
        old_len = len(sigma)
        sigma, ev = step(system, sigma, s)
        ref_records.append(tuple(ev))
        ref_sigmas.append(sigma.tokens)
        stamps.update(old_len if ev.k is None else ev.k - 1, old_len, s + 1)
    tr = run(system, horizon)
    assert len(tr) == len(tr.records) == horizon
    assert [tuple(r) for r in tr.records] == ref_records
    assert [tuple(r) for r in tr.event_records] == [
        r for r in ref_records if r[1] != EXPANSION]
    assert list(tr.iter_sigmas()) == ref_sigmas
    assert [tuple(rec) + (sig,) for rec, sig in
            zip(tr.records, islice(tr.iter_sigmas(), 1, None))] == [
        r + (sig,) for r, sig in zip(ref_records, ref_sigmas[1:])]
    assert tr.final_sigma.tokens == ref_sigmas[-1]
    # the loop suspects at every threshold fix every nonzero stamp
    for window in range(horizon + 1):
        assert estimate_beliefs(tr, window) == stamps.report(
            list(ref_sigmas[-1]), horizon, window)
    return tr


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 60))
@example(seed=0, horizon=0)
def test_event_trace_view_matches_stepping_property(seed, horizon):
    _check_view_against_reference(_random_system(random.Random(seed)), horizon)


def test_event_trace_view_edge_cases():
    excise_at_1 = qsys([rule(1, {0}, BOT)])
    assert len(_check_view_against_reference(excise_at_1, 0).event_records) == 0
    # the last stage is an event: no quiet stretch after it
    tr = _check_view_against_reference(excise_at_1, 2)
    assert [r.stage for r in tr.event_records] == [1]
    # a trailing quiet stretch after the event
    tr = _check_view_against_reference(excise_at_1, 9)
    assert [r.stage for r in tr.event_records] == [1]
    # back-to-back events, then quiet
    churn = qsys([rule(0, {2 * k + 1}, CE) for k in range(5)],
                 repl=[(2 * k + 1, 2 * k + 3) for k in range(5)])
    _check_view_against_reference(churn, 20)


def _scan_report(stamps, tokens, horizon, window):
    """``DisturbanceStamps.report`` as it was written first, kept as the
    oracle: the loop suspects come from a scan of every stamp."""
    threshold = horizon - window
    suspects = tuple(i for i, s in enumerate(stamps.stamps) if s > threshold)
    prefix = min(len(tokens), suspects[0]) if suspects else len(tokens)
    return StabilityReport(
        horizon=horizon, window=window, stable_prefix_length=prefix,
        belief_estimate=frozenset(t for t in tokens[:prefix] if t != GAP),
        loop_suspects=suspects)


def test_stamp_report_matches_scan_oracle_around_top():
    # random update/grow sequences, stages sometimes going backwards; the
    # report skips its scan when the tracked top is at most the threshold
    rng = random.Random(463)
    skipped = scanned = 0
    for _ in range(400):
        stamps, length, stage = DisturbanceStamps(), 0, rng.randint(0, 5)
        for _ in range(rng.randint(0, 25)):
            stage = max(0, stage + rng.randint(-8, 12))
            if length and rng.random() < 0.5:
                cut = rng.randint(0, length)
                stamps.update(cut, length, stage)
                length = cut + 1
            else:
                n = rng.randint(0, 6)
                stamps.grow(length, n, stage)
                length += n
                stage += max(n - 1, 0)
        assert max(stamps.stamps, default=0) <= stamps.top
        tokens = [rng.choice([GAP, *range(9)]) for _ in range(length)]
        top = stamps.top
        thresholds = {top - 2, top - 1, top, top + 1, top + 7,
                      *stamps.stamps[:4]}
        for threshold in sorted(t for t in thresholds if t >= 0):
            for window in (0, 1, 30):
                horizon = threshold + window
                assert stamps.report(tokens, horizon, window) == _scan_report(
                    stamps, tokens, horizon, window)
                if threshold >= top:
                    skipped += 1
                else:
                    scanned += 1
    assert skipped > 1000 and scanned > 1000


def _tape_sigma(tape):
    """σ read off a tape as its stored tokens followed by its count."""
    L = len(tape.tokens)
    return tape.tokens + list(range(L, L + tape.listing))


def _append_schedule_case(rng):
    """Drive a RunEngine with rules appended at its current stage; return
    the engine, the full rule list and how often a premise both sat in σ
    already and was new to the engine."""
    base = _random_system(rng)
    rules = list(base.table)
    eng = RunEngine(QSystem(RuleTable(list(rules)), base.replacement))
    horizon = rng.randint(5, 80)
    recounted = 0
    while eng.stage < horizon:
        if rng.random() < 0.5:
            eng.step_once()
        else:
            eng.advance_to(min(horizon, eng.stage + rng.randint(1, 15)))
        if eng.stage < horizon and rng.random() < 0.4:
            sigma = _tape_sigma(eng.tape)
            held = [v for v in sigma if v != GAP]
            prem = set(rng.sample(held, min(len(held), rng.randint(0, 2))))
            prem.add(len(sigma) + rng.randint(0, 6))  # an axiom not yet in σ
            if rng.random() < 0.3:
                prem.add(rng.randint(0, 12))
            recounted += sum(1 for p in prem
                             if p in sigma and p not in eng.tape.watched)
            r = rule(eng.stage + rng.randint(0, 3), frozenset(prem),
                     rng.choice([BOT, CE]))
            eng.append_rule(r)
            rules.append(r)
    return eng, rules, recounted


# ---------------------------------------------------------------------------
# the rule core both run engines share
# ---------------------------------------------------------------------------

core_values = st.integers(0, 24)
core_rules = st.lists(st.builds(marker_rule, st.integers(0, 6),
                                st.frozensets(core_values, min_size=1, max_size=3),
                                st.booleans()), max_size=5)
core_ops = st.lists(st.one_of(
    st.tuples(st.just("extend"), st.integers(0, 9)),
    st.tuples(st.just("push"), st.one_of(st.just(GAP), core_values)),
    st.tuples(st.just("cut"), st.integers(0, 60)),
), max_size=10)


def _scan_marks(rules, s, tokens, most):
    """[z_c, z_ce] by trying every prefix length up to most in turn."""
    marks, seen = [None, None], set()
    for k in range(min(most, len(tokens)) + 1):
        if k:
            seen.add(tokens[k - 1])
        for stage, premises, is_ce in rules:
            if marks[is_ce] is None and stage <= s and seen.issuperset(premises):
                marks[is_ce] = k
    return marks


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data(), core_rules, core_ops, st.booleans(), st.integers(0, 8),
       st.booleans())
def test_rule_core_matches_a_prefix_scan(data, rules, ops, early, s, frontier):
    # a tape over a random shape (S, B), its premises watched before or
    # after the pushes, cuts and listing counts, as an engine admits rules
    # at its start or mid-run; ``most`` is the string engine's length or
    # the stack engine's frontier, one below it
    S, B = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    head, pi = data.draw(st.permutations(range(S))), data.draw(st.permutations(range(B)))
    shape = Shape(lambda p: head[p] if p < S else p - (p - S) % B + pi[(p - S) % B],
                  S, B)
    tape, premises = Tape(shape), [y for _, prem, _ in rules for y in prem]
    for y in premises if early else ():
        tape.watch(y)
    for op, arg in ops:
        if op == "extend":
            tape.extend_listing(arg)
        elif op == "push":
            tape.push(arg)
        else:
            tape.cut(arg % (len(tape) + 1))
    for y in premises:
        tape.watch(y)
    most, horizon = len(tape) - frontier, s + 60
    t = next_usable(rules, s, horizon, tape, shape.index, most)
    # pure growth, one listing token a stage: every premise that can
    # arrive does so where the shape lists it, so the bound is the first
    # stage that marks a prefix, or the horizon
    for u in range(s, horizon + 1):
        marks = least_marks(rules, u, tape.cover, most + u - s)
        assert marks == _scan_marks(rules, u, tape.head(len(tape)), most + u - s)
        if marks != [None, None]:
            break
        tape.extend_listing(1)
    assert t == u


def test_rules_appended_mid_run_match_full_table_run():
    # a rule cannot fire before its stage, so admitting it at the current
    # stage must give the run of the full table from stage 0
    rng = random.Random(4321)
    recounted = 0
    for _ in range(150):
        eng, rules, hits = _append_schedule_case(rng)
        recounted += hits
        full_table = QSystem(RuleTable(rules), eng.system.replacement)
        full = run(full_table, eng.stage)
        got = eng.trace()
        assert got.event_records == full.event_records
        assert got.final_sigma == full.final_sigma
        assert got.final_sigma == _run_reference(full_table, eng.stage)[0]
    assert recounted > 20  # the count-from-σ path was exercised


def test_refused_rule_leaves_the_table_as_it_was():
    system = qsys([rule(2, {0}, BOT)])
    eng = RunEngine(system)
    eng.advance_to(1)
    with pytest.raises(ValueError, match="empty premises"):
        eng.append_rule(rule(3, set(), BOT))
    assert list(system.table) == [rule(2, {0}, BOT)]
    QSystem(system.table, system.replacement)   # still a runnable table
    eng.advance_to(6)
    assert eng.event_records == run(system, 6).event_records


def test_engine_stepwise_equals_bulk():
    system = qsys([rule(2, {0, 1}, BOT), rule(9, {3}, CE)], repl=[(3, 5)])
    eng = RunEngine(system)
    for _ in range(40):
        eng.step_once()
    bulk = run(system, 40)
    assert eng.trace().final_sigma == bulk.final_sigma
    assert eng.event_records == bulk.event_records
    assert eng.trace().records == bulk.records


BIG = 10**6   # premises from here on arrive only as replacement images


def _big_premises(rng, n_ax):
    prem = set(rng.sample(range(n_ax), rng.randint(0, min(3, n_ax))))
    if not prem or rng.random() < 0.25:
        prem.add(BIG + rng.randrange(n_ax))
    return frozenset(prem)


def _count_case(seed, read_sigma):
    """Drive a RunEngine through a random schedule of single stages, bulk
    stretches and rules appended mid-run, next to the reference ``step``,
    and compare σ, ``tape.first`` and the events after every move and the
    stability estimate at every window at the end.  σ is read from the
    tape's stored tokens and its listing count, and through
    ``tape.store()`` (which stores the count) only when ``read_sigma``.
    The stamps are kept as first written, one stored stamp for every
    position the string ever reached, and read by ``_scan_report``.
    Appended rules may have a stage that has already passed, and some are
    shaped like the diagonalizer's S ∪ {N}: tens of premises held in σ
    and one anchor N not yet reached.
    Returns how often a cut fell inside the count, an appended premise lay
    in it, an event removed a value of at least BIG, and an event's prefix
    covered a wide rule and a rule appended after its stage."""
    rng = random.Random(seed)
    n_ax = rng.randint(1, 8)
    rules = [rule(rng.randint(0, 12), _big_premises(rng, n_ax),
                  rng.choice([BOT, CE])) for _ in range(rng.randint(0, 6))]
    eng = RunEngine(qsys(rules, default_fn=lambda k: BIG + k if k < BIG
                         else k + 1))
    tape, horizon = eng.tape, rng.randint(0, 80)
    ref, ref_records, stamps = BeliefString(), [], DisturbanceStamps()
    explicit = stamps.stamps
    cuts_in_count = premises_in_count = 0
    wide, late = [], []    # appended S ∪ {N} rules; rules appended late
    covers_wide = covers_late = 0
    while eng.stage < horizon:
        stored = len(tape.tokens)
        if rng.random() < 0.5:
            rec = eng.step_once()
            cuts_in_count += rec.kind != EXPANSION and rec.k - 1 > stored
        else:
            eng.advance_to(min(horizon, eng.stage + rng.randint(1, 15)))
        for s in range(len(ref_records), eng.stage):   # one record a stage
            old_len, held = len(ref), ref.tokens
            ref, ev = step(eng.system, ref, s)
            if ev.k is not None:
                held = frozenset(held[:ev.k])
                covers_wide += any(r.stage <= s and r.premises <= held
                                   for r in wide)
                covers_late += any(r.stage <= s and r.premises <= held
                                   for r in late)
            cut = old_len if ev.k is None else ev.k - 1
            if cut < old_len:
                explicit[cut:old_len] = [s + 1] * (old_len - cut)
            elif cut < len(explicit):
                explicit[cut] = s + 1
            else:
                explicit.append(0)
            ref_records.append(ev)
        if read_sigma and rng.random() < 0.5:
            assert tape.store() == list(ref) and tape.listing == 0
        L = len(tape.tokens)
        assert _tape_sigma(tape) == list(ref)
        assert tape.first == {v: ref.tokens.index(v) for v in tape.watched
                              if v in ref.tokens}
        assert eng.event_records == [e for e in ref_records
                                     if e.kind != EXPANSION]
        if eng.stage < horizon and rng.random() < 0.4:
            held = [v for v in ref.tokens if v != GAP]
            if len(held) >= 10 and rng.random() < 0.3:
                # S ∪ {N}: S from σ's prefix, N at or just past its end
                prem = set(held[:rng.randint(10, len(held))])
                prem.add(len(ref) + rng.randint(0, 4))
            else:
                prem = set(_big_premises(rng, n_ax))
                if tape.listing:
                    prem.add(rng.randrange(L, L + tape.listing))
                    premises_in_count += 1
            if rng.random() < 0.3:
                stage = rng.randint(0, eng.stage)   # already passed, or now
            else:
                stage = eng.stage + rng.randint(0, 3)
            r = rule(stage, frozenset(prem), rng.choice([BOT, CE]))
            eng.append_rule(r)
            if len(prem) > 10:
                wide.append(r)
            if stage < eng.stage:
                late.append(r)
    trace = eng.trace()
    assert trace.final_sigma == ref
    for window in range(horizon + 1):
        rep = estimate_beliefs(trace, window)
        oracle = _scan_report(stamps, list(ref), horizon, window)
        assert rep == oracle and oracle == rep
        assert list(rep.belief_estimate) == sorted(oracle.belief_estimate)
    return (cuts_in_count, premises_in_count,
            sum(1 for e in ref_records if e.old is not None and e.old >= BIG),
            covers_wide, covers_late)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**30), st.booleans())
def test_listing_count_matches_reference_property(seed, read_sigma):
    _count_case(seed, read_sigma)


def test_listing_count_corpus_reaches_cuts_and_premises_in_the_count():
    # the property's paths, exercised on a fixed corpus: cuts that land
    # inside the count, appended premises found in it, σ read between
    # stretches as stream_alignment does, and events at prefixes that cover
    # a wide S ∪ {N} rule or a rule appended after its stage had passed
    totals = [sum(t) for t in zip(*(_count_case(seed, seed % 2 == 0)
                                    for seed in range(120)))]
    assert totals[0] > 10 and totals[1] > 100 and totals[2] > 10, totals
    assert totals[3] > 40 and totals[4] > 25, totals


def test_doctored_trace_prefix_or_count_raises():
    tr = run(qsys([rule(2, {0}, BOT), rule(5, {1}, CE)], repl=[(1, 9)]), 30)
    toks, n = tr.prefix.tokens, tr.listing
    assert (toks, n) == ((GAP, 9), 24)
    assert estimate_beliefs(RunTrace(tr.event_records, 30, bs(*toks), n),
                            5) == estimate_beliefs(tr, 5)
    # a prefix or a count off by one, a wrong token, and the right string
    # with a prefix that reaches past the last event
    for prefix, listing in [(toks[:-1], n), (toks + (2,), n), (toks, n + 1),
                            (toks, n - 1), ((GAP, 8), n), (toks + (2,), n - 1),
                            (tr.final_sigma.tokens, 0)]:
        doctored = RunTrace(tr.event_records, 30, bs(*prefix), listing)
        with pytest.raises(ValueError, match="do not reproduce"):
            estimate_beliefs(doctored, 5)


def test_quiet_run_of_a_million_stages_stores_no_token():
    eng = RunEngine(qsys())
    eng.advance_to(10**6)
    assert len(eng.tape.tokens) == 0 and eng.tape.listing == 10**6
    assert (eng.bulk_stretches, eng.bulk_stages) == (1, 10**6)
    rep = estimate_beliefs(eng.trace(), 100)
    assert rep.stable_prefix_length == 10**6 and rep.loop_suspects == ()
    assert len(rep.belief_estimate) == 10**6


# ---------------------------------------------------------------------------
# stability estimation
# ---------------------------------------------------------------------------

def test_estimate_pure_expansion_all_stable_with_zero_window():
    tr = run(qsys(), 10)
    rep = estimate_beliefs(tr, 0)
    assert rep.stable_prefix_length == 10
    assert rep.belief_estimate == frozenset(range(10))
    assert rep.loop_suspects == ()


def test_pure_growth_is_fully_stable():
    # frontier appends are not disturbances, so uneventful expansion is
    # stable all the way out regardless of the window
    tr = run(qsys(), 10)
    rep = estimate_beliefs(tr, 3)
    assert rep.stable_prefix_length == 10
    assert rep.belief_estimate == frozenset(range(10))
    assert rep.loop_suspects == ()


def test_estimate_excludes_recently_disturbed_positions():
    # a late excision hits position 7 inside the window; the stable prefix
    # stops there even though the frontier growth after it is untouched
    tr = run(qsys([rule(8, {7}, BOT)]), 12)
    rep = estimate_beliefs(tr, 4)
    assert rep.stable_prefix_length == 7
    assert rep.belief_estimate == frozenset(range(7))
    assert rep.loop_suspects == (7,)


def test_estimate_after_excision_drops_the_gap_axiom():
    tr = run(qsys([rule(1, {0}, BOT)]), 12)
    rep = estimate_beliefs(tr, 4)
    assert 0 not in rep.belief_estimate
    assert {1, 2, 3} <= rep.belief_estimate
    assert tr.final_sigma[0] == GAP


def test_loop_suspects_flag_churning_position():
    # position 1 climbs the odd ladder a1→a3→... until it escapes the rule
    # coverage at a1001 and settles; position 3 then picks up the same
    # ladder and is still climbing at the horizon, so only it is flagged
    rules = [rule(0, {2 * k + 1}, CE) for k in range(500)]
    repl = [(2 * k + 1, 2 * k + 3) for k in range(500)]
    system = qsys(rules, repl=repl)
    tr = run(system, 1000)
    rep = estimate_beliefs(tr, 50)
    assert rep.loop_suspects == (3,)
    assert rep.stable_prefix_length == 3
    assert rep.belief_estimate == {0, 1001, 2}


def test_clean_window_flag():
    settled = qsys([rule(1, {0}, BOT)])
    rep = estimate_beliefs(run(settled, 40), 5)
    assert is_clean_window(settled, rep)
    # an odd-position churner never has a clean window
    churn = qsys([rule(0, {2 * k + 1}, CE) for k in range(60)],
                 repl=[(2 * k + 1, 2 * k + 3) for k in range(60)])
    rep2 = estimate_beliefs(run(churn, 40), 5)
    assert not is_clean_window(churn, rep2)


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

def test_classify_variant():
    assert classify_variant(qsys([rule(0, {0}, BOT)])) == "d"
    assert classify_variant(qsys([rule(0, {0}, CE)], repl=[(0, 1)])) == "p"
    assert classify_variant(qsys([rule(0, {0}, BOT), rule(0, {1}, CE)], repl=[(1, 2)])) == "q"


def test_classify_empty_table_prefers_d():
    system = qsys()
    assert classify_variant(system) == "d"
    assert variant_flags(system) == (True, True)


def test_variant_discipline_in_traces():
    d_sys = qsys([rule(0, {0, 1}, BOT)])
    tr = run(d_sys, 30)
    assert all(r.kind != REPLACEMENT for r in tr.records)
    p_sys = qsys([rule(0, {0, 1}, CE)], default_fn=lambda k: k + 1)
    tr = run(p_sys, 30)
    assert all(r.kind != EXCISION for r in tr.records)


# ---------------------------------------------------------------------------
# trace formatting
# ---------------------------------------------------------------------------

def test_trace_format_golden(tmp_path):
    path = tmp_path / "steps.txt"
    write_trace(run(qsys([rule(1, {0}, BOT)]), 4), path)
    assert path.read_bytes() == (
        b"0\texpand\n"
        b"1\texcise\tk=1\told=a0\n"
        b"2\texpand\n"
        b"3\texpand\n"
        b"final\t* a1 a2\n"
    )


_OPTIMIZED_SCRIPT = """
import sys
from dialectic.consequence import BOT, CE, RuleTable, rule
from dialectic.engine import (GapSkipError, QSystem, ReplacementMap, RunEngine,
                              estimate_beliefs, run, write_trace)
from dialectic.legacy import LegacyState, StateInvariantError, audit_state
from dialectic.strings import GAP
try:
    audit_state(None, LegacyState(stacks=((0,), ()), h=1), 4)
except StateInvariantError as exc:
    print("StateInvariantError", exc.stage, exc.detail)
system = QSystem(RuleTable([rule(1, {0}, BOT), rule(6, {4}, CE),
                            rule(20, {30}, BOT)]),
                 ReplacementMap([(4, 9)]))
trace = run(system, 60)
write_trace(trace, sys.argv[1])
with open(sys.argv[1], encoding="utf-8") as fh:
    sys.stdout.write(fh.read())
rep = estimate_beliefs(trace, 10)
print(rep.stable_prefix_length, sorted(rep.belief_estimate), rep.loop_suspects)
eng = RunEngine(QSystem(RuleTable([rule(5, {0}, BOT)]), ReplacementMap()))
eng.advance_to(3)
eng.tape.store()[0] = GAP
try:
    eng.advance_to(6)
except GapSkipError as exc:
    print("GapSkipError", exc.stage, exc.position)
    sys.exit(3)
"""


def test_run_estimate_and_trace_same_under_python_O(tmp_path):
    # no fast path may rest on an assert, which python -O strips
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(dialectic.engine.__file__)))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _OPTIMIZED_SCRIPT,
             str(tmp_path / ("t%d.txt" % len(flags)))],
            capture_output=True, text=True, env=env, timeout=60)
        outs.append((proc.returncode, proc.stdout, proc.stderr))
    assert outs[0] == outs[1]
    assert outs[0][0] == 3 and outs[0][2] == ""
    assert outs[0][1].startswith(
        "StateInvariantError 4 frontier stack must be nonempty\n")
    assert "excise" in outs[0][1] and "replace" in outs[0][1]
    assert outs[0][1].endswith("GapSkipError 5 0\n")


def test_trace_format_replacement_line(tmp_path):
    path = tmp_path / "steps.txt"
    write_trace(run(qsys([rule(3, {0}, CE)], repl=[(0, 2)]), 4), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[3] == "3\treplace\tk=1\told=a0\tnew=a2"
    assert lines[4] == "final\ta2"


def _line_per_stage_write_trace(trace, path):
    """The trace writer as it was written first, kept as the oracle: one
    formatted line per stage and one token_to_str call per final token."""
    lines = []
    for start, end, rec in trace._stretches():
        lines.extend(map("%d\texpand".__mod__, range(start, end)))
        if rec is None:
            continue
        if rec.kind == EXCISION:
            lines.append("%d\texcise\tk=%d\told=%s"
                         % (rec.stage, rec.k, token_to_str(rec.old)))
        else:
            lines.append("%d\treplace\tk=%d\told=%s\tnew=%s"
                         % (rec.stage, rec.k, token_to_str(rec.old),
                            token_to_str(rec.new)))
    final = " ".join(token_to_str(t) for t in trace.final_sigma)
    lines.append("final\t%s" % final)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_trace_writer_matches_line_per_stage_writer(tmp_path, monkeypatch):
    # a low chunk makes the quiet stretches and final strings below cross
    # chunk boundaries, cheaply
    monkeypatch.setattr(dialectic.engine, "TRACE_CHUNK", 7)
    rng = random.Random(515)
    traces = [run(_random_system(rng), rng.choice([0, 1, 2, 9, 40, 200]))
              for _ in range(150)]
    # hand-built: events at stages 0 and 1 and back to back, a final
    # string of gaps and large indices, and an empty final string
    traces += [
        RunTrace([StepRecord(0, EXCISION, 1, 0, None),
                  StepRecord(1, REPLACEMENT, 1, 7, 12),
                  StepRecord(2, EXCISION, 1, 12, None),
                  StepRecord(6, REPLACEMENT, 3, 2, 10**6)],
                 9, bs(GAP, 10, GAP, GAP, 10**6, 0)),
        RunTrace([], 0, bs()),
        RunTrace([], 3, bs()),
        RunTrace([], 1, bs(GAP)),
        # quiet stretches of 10^4 stages and more, around one event
        run(qsys([rule(3, {0}, BOT)]), 10**4 + 3),
        RunTrace([StepRecord(12_345, EXCISION, 2, 1, None)], 30_000, bs()),
        # gaps at both ends and a token of 10^9, as a hand-built string and
        # as a run that replaces a0 by a1000000000, next to a rule whose
        # premise a1000000001 never arrives
        RunTrace([], 5, bs(GAP, 3, 10**9, 0, GAP)),
        run(qsys([rule(2, {0}, CE), rule(4, {10**9 + 1}, BOT)],
                 repl=[(0, 10**9)]), 50),
        # a stored string, a quiet stretch and a listing count, each longer
        # than two chunks of the patched writer
        RunTrace([StepRecord(40, REPLACEMENT, 3, 2, 30)], 80,
                 bs(0, GAP, *range(2, 20)), listing=23),
        RunTrace([], 20, bs(), listing=20),
    ]
    kinds = set()
    for i, trace in enumerate(traces):
        kinds.update(rec.kind for rec in trace.event_records)
        new, old = tmp_path / ("new%d" % i), tmp_path / ("old%d" % i)
        write_trace(trace, new)
        _line_per_stage_write_trace(trace, old)
        assert new.read_bytes() == old.read_bytes(), i
    assert kinds == {EXCISION, REPLACEMENT}
    assert any(GAP in t.final_sigma.tokens for t in traces[:150])
    assert any(t.horizon == 0 and not t.final_sigma for t in traces[:150])
    assert traces[-3].final_sigma.tokens[:2] == (10**9, 1)
    for toks in ((), (GAP,), (0,), (GAP, GAP), (5, GAP, 1, 10, 100, GAP),
                 (GAP, 10**9, GAP), (10**9,),
                 tuple(rng.choice([GAP, *range(12)]) for _ in range(500)),
                 tuple(rng.randrange(GAP, 10**6) for _ in range(10**5))):
        assert bs(*toks).serialize() == " ".join(map(token_to_str, toks))


def test_trace_writer_memory_stays_bounded(tmp_path):
    # a million quiet stages and a final string of a million tokens: the
    # writer holds a chunk of them at a time, not the file or the string
    trace = run(qsys([rule(3, {0}, BOT)]), 10**6)
    assert trace.listing > 10**6 - 10
    tracemalloc.start()
    try:
        write_trace(trace, tmp_path / "steps.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (tmp_path / "steps.txt").stat().st_size > 14 * 10**6
