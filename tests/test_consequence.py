"""Staged operator tables: evaluation, validation, compilation, revision."""
from __future__ import annotations

import itertools
from collections import Counter
from random import Random

import pytest

from dialectic import consequence
from dialectic.consequence import (
    BOT,
    CE,
    Rule,
    RuleTable,
    TableError,
    ValidationScopeError,
    check_no_empty_derivation,
    evaluate,
    from_horn,
    limit_closure,
    parse_rule_line,
    revision_operator,
    rule,
    stream_revision_operator,
    validate_aco,
)


def table(*rules):
    return RuleTable(rules)


# ---------------------------------------------------------------------------
# evaluate / limit_closure
# ---------------------------------------------------------------------------

def test_evaluate_is_single_pass():
    # a chain does not cascade within one evaluation
    t = table(rule(0, {0}, 1), rule(0, {1}, 2))
    assert evaluate(t, 0, {0}) == {0, 1}


def test_evaluate_respects_stages():
    t = table(rule(3, {0}, BOT))
    assert evaluate(t, 2, {0}) == {0}
    assert evaluate(t, 3, {0}) == {0, BOT}


def test_evaluate_requires_all_premises():
    t = table(rule(0, {0, 1}, CE))
    assert evaluate(t, 5, {0}) == {0}
    assert evaluate(t, 5, {0, 1}) == {0, 1, CE}


def test_limit_closure_uses_max_stage():
    t = table(rule(7, {0}, BOT), rule(2, {1}, 2))
    assert limit_closure(t, {0}) == {0, BOT}
    assert limit_closure(t, {1}) == {1, 2}
    assert limit_closure(RuleTable(), {4}) == {4}


def test_inclusion_and_monotony_exhaustive_small():
    t = table(rule(1, {0}, 2), rule(2, {1, 2}, BOT), rule(0, {2}, CE))
    universe = [0, 1, 2, 3]
    sets = [frozenset(c) for n in range(4) for c in itertools.combinations(universe, n)]
    for F in sets:
        prev = None
        for n in range(4):
            out = evaluate(t, n, F)
            assert F <= out
            if prev is not None:
                assert prev <= out
            prev = out
        for G in sets:
            if F <= G:
                # fired conclusions persist under premise growth
                assert evaluate(t, 3, F) <= evaluate(t, 3, G)


def _copying_evaluate(t, n, F):
    """``evaluate`` as it was written first, kept as the oracle: it copies
    F into a new set on every call."""
    fset = frozenset(F)
    out = set(fset)
    for r in t:
        if r.stage <= n and r.premises <= fset:
            out.add(r.conclusion)
    return frozenset(out)


def test_evaluate_matches_copying_oracle_on_random_tables():
    rnd = Random(77)
    fired = quiet = 0
    for _ in range(300):
        bound = rnd.randint(0, 6)
        t = _random_table(rnd, bound)
        for _ in range(6):
            n = rnd.randint(0, 5)
            F = rnd.sample(range(bound + 2), rnd.randint(0, bound + 2))
            want = _copying_evaluate(t, n, F)
            for given in (set(F), list(F), frozenset(F)):
                got = evaluate(t, n, given)
                assert type(got) is frozenset
                assert got == want, (t.rules, n, F)
            # a frozenset is returned as it is when no rule fires
            frozen = frozenset(F)
            if any(r.stage <= n and r.premises <= frozen for r in t):
                fired += 1
            else:
                quiet += 1
                assert evaluate(t, n, frozen) is frozen
    assert fired > 300 and quiet > 300


# ---------------------------------------------------------------------------
# empty-set derivations are rejected at load time
# ---------------------------------------------------------------------------

def test_empty_derivation_rejected():
    bad = table(rule(0, set(), BOT))
    with pytest.raises(TableError):
        check_no_empty_derivation(bad)
    ok = table(rule(0, set(), 3))  # axiom conclusions from ∅ are fine
    check_no_empty_derivation(ok)


# ---------------------------------------------------------------------------
# validate_aco
# ---------------------------------------------------------------------------

def test_validate_passes_closed_table():
    t = table(rule(1, {0}, 1), rule(1, {1}, 2), rule(2, {0}, 2))
    rep = validate_aco(t, bound=4)
    assert rep.ok
    assert not rep.structural_iteration


def test_validate_iteration_violation_witness():
    # chain without its materialized composition: closure of closure grows
    t = table(rule(1, {0}, 1), rule(1, {1}, 2))
    rep = validate_aco(t, bound=4)
    assert not rep.ok
    assert any("iteration" in f for f in rep.failures)


def test_validate_structural_certificate():
    t = table(rule(0, {0, 1}, BOT), rule(4, {2}, CE))
    rep = validate_aco(t, bound=5)
    assert rep.ok
    assert rep.structural_iteration


def test_validate_scope_error():
    t = table(rule(0, {9}, BOT))
    with pytest.raises(ValidationScopeError):
        validate_aco(t, bound=8)


def test_validation_size_limits_are_exact(monkeypatch):
    # the set count the check computes is the count validate_aco enumerates
    for bound, width in ((-1, 4), (3, 0), (4, 2), (4, 4), (3, 9), (16, 4)):
        monkeypatch.undo()
        sets = validate_aco(RuleTable(), bound, width).checked_sets
        monkeypatch.setattr(consequence, "MAX_VALIDATION_SETS", sets)
        consequence.check_validation_size(bound, width, 0)
        monkeypatch.setattr(consequence, "MAX_VALIDATION_SETS", sets - 1)
        with pytest.raises(ValidationScopeError):
            consequence.check_validation_size(bound, width, 0)
    monkeypatch.undo()
    # 3214 sets at bound 16; stages 0..42 make 43 evaluations of each
    monkeypatch.setattr(consequence, "MAX_VALIDATION_STEPS", 3214 * 43)
    consequence.check_validation_size(16, 4, 42)
    with pytest.raises(ValidationScopeError):
        consequence.check_validation_size(16, 4, 43)
    with pytest.raises(ValidationScopeError):
        validate_aco(table(rule(43, {0}, BOT)), 16)


def _all_pairs_validate(t, bound, width=4):
    """The validator as it was written first, kept as the oracle: the set
    monotony part scans every pair of sampled sets and re-evaluates the
    larger one each time.  ``consequence.evaluate`` is looked up at call
    time, so a monkeypatched operator reaches both validators."""
    universe = list(range(bound + 1))
    top_stage = t.max_stage()
    failures = []
    checked = 0
    axiom_producing = any(r.conclusion >= 0 for r in t)
    subsets = [frozenset(s) for size in range(0, width + 1)
               for s in itertools.combinations(universe, size)]
    for F in subsets:
        checked += 1
        prev = None
        for n in range(top_stage + 1):
            out = consequence.evaluate(t, n, F)
            if not F <= out:
                failures.append("inclusion fails at n=%d F=%s" % (n, sorted(F)))
            if prev is not None and not prev <= out:
                failures.append("stage monotony fails at n=%d F=%s" % (n, sorted(F)))
            prev = out
        full = consequence.evaluate(t, top_stage, F)
        for G in subsets:
            if F < G and not full <= consequence.evaluate(t, top_stage, G):
                failures.append(
                    "set monotony fails for F=%s G=%s" % (sorted(F), sorted(G)))
        if axiom_producing:
            core = frozenset(x for x in full if x >= 0)
            if consequence.evaluate(t, top_stage, core) != full:
                failures.append(
                    "iteration fails for F=%s: closure of closure differs"
                    % sorted(F))
    return consequence.ValidationReport(
        ok=not failures, bound=bound, width=width, checked_sets=checked,
        failures=failures[:20], structural_iteration=not axiom_producing)


def _random_table(rnd, bound):
    rules = []
    for _ in range(rnd.randint(0, 5)):
        premises = rnd.sample(range(bound + 1), rnd.randint(0, min(3, bound + 1)))
        # axiom conclusions without their compositions break the iteration law
        conclusion = rnd.choice([BOT, CE, rnd.randint(0, bound)])
        rules.append(rule(rnd.randint(0, 4), premises, conclusion))
    return RuleTable(rules)


def _assert_same_reports(t, bound, width):
    new = validate_aco(t, bound, width)
    old = _all_pairs_validate(t, bound, width)
    assert new.render() == old.render(), (t.rules, bound, width)
    assert new == old
    return new


def test_validate_matches_all_pairs_oracle_on_random_tables():
    rnd = Random(2024)
    failing = iteration_failing = 0
    for _ in range(240):
        bound = rnd.randint(0, 5)
        for width in (0, 2, 4, bound + 2):
            rep = _assert_same_reports(_random_table(rnd, bound), bound, width)
            failing += not rep.ok
            iteration_failing += any("iteration" in f for f in rep.failures)
    assert iteration_failing > 50 and failing == iteration_failing


def test_validate_matches_all_pairs_oracle_on_edge_cases():
    rep = _assert_same_reports(RuleTable(), -1, 4)
    assert rep.ok and rep.checked_sets == 1
    assert _assert_same_reports(RuleTable(), -1, 0).checked_sets == 1
    assert _assert_same_reports(RuleTable(), 3, -1).checked_sets == 0
    chain = table(rule(1, {0}, 1), rule(1, {1}, 2))
    for width in (0, 2, 4, 9):
        _assert_same_reports(chain, 4, width)


def _non_monotone(t, n, F):
    """A deliberately lawless operator: a set holding a0 but not a3 derives
    ⊥ (so adding a3 loses it), and CE is derived at stage 1 only."""
    out = set(evaluate(t, n, F))
    if 0 in F and 3 not in F:
        out.add(BOT)
    if n == 1:
        out.add(CE)
    return frozenset(out)


def _loses_bot_on_a3(t, n, F):
    return frozenset(F) | ({BOT} if 0 in F and 3 not in F else frozenset())


def test_validate_set_monotony_failures_match_oracle(monkeypatch):
    monkeypatch.setattr(consequence, "evaluate", _non_monotone)
    t = table(rule(2, {1}, 2), rule(0, {2}, BOT))
    for bound, width in ((3, 2), (4, 3), (5, 4), (5, 7)):
        _assert_same_reports(t, bound, width)
    rep = _assert_same_reports(t, 4, 3)
    # every set loses CE at stage 2, and a set with a0 but not a3 loses ⊥
    # against each superset that adds a3
    assert not rep.ok and len(rep.failures) == 20
    assert rep.failures[:7] == [
        "stage monotony fails at n=2 F=[]",
        "stage monotony fails at n=2 F=[0]",
        "set monotony fails for F=[0] G=[0, 3]",
        "set monotony fails for F=[0] G=[0, 1, 3]",
        "set monotony fails for F=[0] G=[0, 3, 4]",
        "stage monotony fails at n=2 F=[1]",
        "iteration fails for F=[1]: closure of closure differs",
    ]
    # without axiom conclusions the set monotony failures alone fill the
    # report, cut at 20 in the oracle's order
    monkeypatch.setattr(consequence, "evaluate", _loses_bot_on_a3)
    rep = _assert_same_reports(table(rule(0, {1}, CE)), 5, 4)
    assert rep.structural_iteration and len(rep.failures) == 20
    assert all(f.startswith("set monotony fails for F=[0] G=[0, ")
               for f in rep.failures[:11])
    assert rep.failures[11] == "set monotony fails for F=[0, 1] G=[0, 1, 3]"
    assert rep.failures[19] == "set monotony fails for F=[0, 4] G=[0, 3, 4]"


def _sample(bound, width):
    return [frozenset(c) for k in range(width + 1)
            for c in itertools.combinations(range(bound + 1), k)]


def test_validate_evaluates_every_sampled_set_at_every_stage(monkeypatch):
    # no stage is skipped: a validator that looked only at the rule stages
    # would miss an operator such as _non_monotone, whose CE comes at stage
    # 1 and goes at stage 2 whatever the table; and none is done twice: the
    # top-stage evaluation is the set's closure
    calls = Counter()

    def recording(t, n, F):
        calls[n, frozenset(F)] += 1
        return evaluate(t, n, F)

    monkeypatch.setattr(consequence, "evaluate", recording)
    spec_table = table(rule(8, {0, 1, 2, 3}, CE), rule(42, {0, 1, 2, 4, 5}, BOT))
    for t, bound, width in ((spec_table, 6, 3), (table(rule(3, {1}, 2)), 3, 2),
                            (table(rule(0, {1}, BOT)), 4, 4), (RuleTable(), 2, 2)):
        calls.clear()
        sets = _sample(bound, width)
        assert validate_aco(t, bound, width).checked_sets == len(sets)
        pairs = [(n, F) for F in sets for n in range(t.max_stage() + 1)]
        assert [calls[pair] for pair in pairs] == [1] * len(pairs)


def _edited_chain(edit):
    """The table's own evaluation, so a set that no rule fires on is
    returned as itself, with ``edit(n, F, out)`` applied on top."""
    def op(t, n, F):
        return edit(n, frozenset(F), evaluate(t, n, F))
    return op


def test_validate_chain_gate_matches_all_pairs_oracle(monkeypatch):
    # inclusion and stage monotony are checked as one chain
    # F ⊆ out_0 ⊆ … ⊆ out_top; its shortcut for a chain of equal entries
    # must not hide a stage that breaks it, nor an out_0 that lacks part of F
    never = table(rule(4, {0, 1, 2, 3, 4, 5}, CE))     # top 4; never fires
    spec_table = table(rule(8, {0, 1, 2, 3}, CE), rule(42, {0, 1, 2, 4, 5}, BOT))
    # one middle stage drops a2 from every F holding it
    monkeypatch.setattr(consequence, "evaluate", _edited_chain(
        lambda n, F, out: out - {2} if n == 2 else out))
    rep = _assert_same_reports(never, 5, 3)
    assert rep.failures[:3] == ["inclusion fails at n=2 F=[2]",
                                "stage monotony fails at n=2 F=[2]",
                                "inclusion fails at n=2 F=[0, 2]"]
    _assert_same_reports(spec_table, 5, 4)
    # out_0 lacks a1, and every later stage holds it: a monotone chain
    monkeypatch.setattr(consequence, "evaluate", _edited_chain(
        lambda n, F, out: out - {1} if n == 0 else out))
    rep = _assert_same_reports(never, 5, 2)
    assert rep.failures[:2] == ["inclusion fails at n=0 F=[1]",
                                "inclusion fails at n=0 F=[0, 1]"]
    _assert_same_reports(spec_table, 5, 4)
    # a single stage: the chain is out_0 alone
    rep = _assert_same_reports(table(rule(0, {5}, BOT)), 5, 2)
    assert rep.failures[0] == "inclusion fails at n=0 F=[1]"
    # every stage lacks a1: a chain of equal entries
    monkeypatch.setattr(consequence, "evaluate", _edited_chain(
        lambda n, F, out: out - {1}))
    rep = _assert_same_reports(never, 5, 2)
    assert rep.failures[:2] == ["inclusion fails at n=0 F=[1]",
                                "inclusion fails at n=1 F=[1]"]
    # a chain that changes but stays monotone passes
    monkeypatch.setattr(consequence, "evaluate", _edited_chain(
        lambda n, F, out: out | {CE} if n >= 1 else out))
    assert _assert_same_reports(never, 5, 4).ok
    assert _assert_same_reports(spec_table, 5, 4).ok
    monkeypatch.setattr(consequence, "evaluate", _edited_chain(
        lambda n, F, out: out | {BOT} | ({CE} if n >= 3 else set())
        if n >= 2 and 0 in F else out))
    assert _assert_same_reports(never, 5, 4).ok


def _lawless(rnd, bound, width, top):
    """A seeded random operator: the table's own evaluation, with a few
    (n, F) gaining or losing a marker or an axiom.  Half of the edits fall
    on the top stage, where they can break monotony in F and iteration."""
    edits = {}
    sets = _sample(bound, width)
    for _ in range(rnd.randint(0, 6)):
        n = top if rnd.random() < 0.5 else rnd.randint(0, top)
        sym = rnd.choice([BOT, CE, rnd.randint(0, bound)])
        edits[n, rnd.choice(sets)] = (rnd.random() < 0.5, sym)

    def op(t, n, F):
        out = set(evaluate(t, n, F))
        gain, sym = edits.get((n, frozenset(F)), (None, None))
        if gain is True:
            out.add(sym)
        elif gain is False:
            out.discard(sym)
        return frozenset(out)
    return op


def _loses_bot_at(hole):
    """⊥ from every set holding a0 but ``hole``: each subset of ``hole``
    holding a0 fails against it, two or more axioms apart too."""
    def op(t, n, F):
        F = frozenset(F)
        out = evaluate(t, n, F)
        return out | {BOT} if 0 in F and F != hole else out
    return op


def test_validate_matches_all_pairs_oracle_on_lawless_operators(monkeypatch):
    rnd = Random(4041)
    kinds = {"inclusion": 0, "stage monotony": 0, "set monotony": 0,
             "iteration": 0}
    passed = 0
    for _ in range(300):
        bound = rnd.randint(0, 5)
        width = rnd.choice([1, 2, 3, 4, bound + 1])
        t = _random_table(rnd, bound)
        monkeypatch.setattr(consequence, "evaluate",
                            _lawless(rnd, bound, width, t.max_stage()))
        rep = _assert_same_reports(t, bound, width)
        passed += rep.ok
        for kind in kinds:
            kinds[kind] += any(f.startswith(kind) for f in rep.failures)
    assert passed > 50 and min(kinds.values()) > 20, (passed, kinds)
    # the lost ⊥ at a set two axioms above {a0} is reported against {a0}
    two_apart = 0
    for _ in range(40):
        bound = rnd.randint(2, 5)
        width = rnd.randint(3, bound + 1)
        hole = frozenset([0, *rnd.sample(range(1, bound + 1),
                                         rnd.randint(2, width - 1))])
        monkeypatch.setattr(consequence, "evaluate", _loses_bot_at(hole))
        rep = _assert_same_reports(_random_table(rnd, bound), bound, width)
        message = "set monotony fails for F=[0] G=%s" % sorted(hole)
        two_apart += message in rep.failures
    assert two_apart > 10
    monkeypatch.setattr(consequence, "evaluate", _loses_bot_at({0, 1, 2}))
    rep = _assert_same_reports(RuleTable(), 3, 3)
    assert rep.failures == [
        "set monotony fails for F=[0] G=[0, 1, 2]",
        "set monotony fails for F=[0, 1] G=[0, 1, 2]",
        "set monotony fails for F=[0, 2] G=[0, 1, 2]",
    ]


# ---------------------------------------------------------------------------
# from_horn
# ---------------------------------------------------------------------------

def test_from_horn_single_conflict():
    t = from_horn([0, 1, 2], [], [{1, 2}])
    assert len(t) == 1
    r = t.rules[0]
    assert r.stage == 0 and r.premises == {1, 2} and r.conclusion == BOT


def test_from_horn_materializes_chains():
    t = from_horn([0, 1, 2], [({0}, 1), ({1}, 2)], [])
    entries = {(r.premises, r.conclusion): r.stage for r in t}
    assert entries[(frozenset({0}), 1)] == 1
    assert entries[(frozenset({1}), 2)] == 1
    assert entries[(frozenset({0}), 2)] == 2  # derived at depth 2
    # single-pass evaluation now reaches the end of the chain immediately
    assert 2 in evaluate(t, 2, {0})


def test_from_horn_conflict_through_derivation():
    # k0 derives k2; k2 conflicts with k1  =>  {k0, k1} is jointly bad
    t = from_horn([0, 1, 2], [({0}, 2)], [{2, 1}])
    entries = {(r.premises, r.conclusion): r.stage for r in t}
    assert (frozenset({0, 1}), BOT) in entries
    assert entries[(frozenset({0, 1}), BOT)] == 1  # depth 1 + depth 0
    assert BOT in limit_closure(t, {0, 1})


def test_from_horn_validates_iteration():
    t = from_horn([0, 1, 2, 3], [({0}, 1), ({1}, 2), ({2}, 3)], [{3, 0}])
    rep = validate_aco(t, bound=4)
    assert rep.ok


def test_from_horn_rejects_unknown_items():
    with pytest.raises(TableError):
        from_horn([0, 1], [({0}, 5)], [])
    with pytest.raises(TableError):
        from_horn([0, 1], [], [{0, 7}])


# ---------------------------------------------------------------------------
# revision operators
# ---------------------------------------------------------------------------

def test_revision_operator_drops_b_from_premises():
    base = table(rule(0, {0, 5}, BOT), rule(1, {1}, CE), rule(0, {2}, 1))
    K = {0, 1, 2}
    revised = revision_operator(base, K, 5)
    entries = {(r.premises, r.conclusion) for r in revised}
    assert (frozenset({0}), BOT) in entries  # b removed from premises
    assert all(c == BOT or c in K for _, c in entries)
    assert not any(c == CE for _, c in entries)  # ce filtered out


def test_revision_operator_identity():
    base = table(
        rule(0, {0, 9}, BOT),
        rule(1, {1, 9}, 2),
        rule(2, {0, 1}, BOT),
        rule(0, {9}, 0),
        rule(1, {2}, CE),
    )
    K = frozenset({0, 1, 2})
    b = 9
    revised = revision_operator(base, K, b)
    filt = K | {BOT}
    for n in range(4):
        for size in range(len(K) + 1):
            for F in itertools.combinations(sorted(K), size):
                want = evaluate(base, n, frozenset(F) | {b}) & filt
                got = evaluate(revised, n, F) & filt
                assert got == want, (n, F)


def test_revision_operator_is_the_one_item_stream():
    rng = Random(17)
    for _ in range(200):
        base = table(*(rule(rng.randint(0, 3),
                            set(rng.sample(range(6), rng.randint(1, 3))),
                            rng.choice([BOT, CE, 0, 1, 2, 5]))
                       for _ in range(rng.randint(0, 8))))
        K = frozenset(rng.sample(range(5), rng.randint(0, 5)))
        b = rng.choice([v for v in range(6) if v not in K])
        revised = revision_operator(base, K, b)
        assert revised.rules == stream_revision_operator(base, K, (b,)).rules
        for F in [frozenset(), K]:
            assert (evaluate(revised, 3, F) & (K | {BOT})
                    == evaluate(base, 3, F | {b}) & (K | {BOT}))


def test_revision_operator_requires_fresh_b():
    base = table(rule(0, {0}, BOT))
    with pytest.raises(TableError):
        revision_operator(base, {0, 1}, 0)


def test_stream_revision_shifts_stages():
    # conflict {b1, k0} fires only once b1 has arrived (stream index 1)
    base = table(rule(0, {11, 0}, BOT))
    revised = stream_revision_operator(base, {0}, [10, 11])
    assert len(revised) == 1
    r = revised.rules[0]
    assert r.premises == {0}
    assert r.conclusion == BOT
    assert r.stage == 1
    assert BOT not in evaluate(revised, 0, {0})
    assert BOT in evaluate(revised, 1, {0})


def test_stream_revision_empty_stream_matches_plain_filter():
    base = table(rule(0, {0, 1}, BOT), rule(2, {1}, 2), rule(0, {0}, CE))
    a = stream_revision_operator(base, {0, 1, 2}, [])
    filt = frozenset({0, 1, 2, BOT})
    for n in range(3):
        for F in [set(), {0}, {1}, {0, 1}, {1, 2}]:
            assert evaluate(a, n, F) & filt == evaluate(base, n, F) & filt


def test_stream_items_disjoint_from_background():
    base = table(rule(0, {0}, BOT))
    with pytest.raises(TableError):
        stream_revision_operator(base, {0, 1}, [1])


# ---------------------------------------------------------------------------
# rule-line grammar
# ---------------------------------------------------------------------------

def test_parse_rule_line():
    r = parse_rule_line("at 3 : a0 a1 |- BOT")
    assert r == Rule(3, frozenset({0, 1}), BOT)
    r2 = parse_rule_line("at 0 : a5 |- CE")
    assert r2.conclusion == CE
    r3 = parse_rule_line("at 1 : a2 |- a7")
    assert r3.conclusion == 7


def test_rule_render_round_trip():
    r = Rule(4, frozenset({3, 1}), BOT)
    assert parse_rule_line(r.render()) == r


def test_parse_rule_line_errors():
    for bad in ["at x : a0 |- BOT", "a0 |- BOT", "at 1 : b0 |- BOT", "at 1 : a0 |- XX"]:
        with pytest.raises(ValueError):
            parse_rule_line(bad)
