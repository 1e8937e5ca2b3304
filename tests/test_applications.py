"""Knowledge-base repair and revision workflows."""

import random
from importlib import resources

import pytest

from dialectic.applications import (
    Additions, KnowledgeBase, parse_additions, parse_kb, render_result,
    repair, revise, revise_stream,
)
from dialectic.consequence import BOT, from_horn, limit_closure
from dialectic.engine import EXCISION, REPLACEMENT
from dialectic.strings import GAP, ParseError


def _kb4():
    return KnowledgeBase((0, 1, 2, 3), ((frozenset({0, 1}), 3),),
                         (frozenset({1, 2}),))


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_conflict_drops_less_entrenched():
    res = repair(_kb4(), 200)
    assert res.kept == frozenset({0, 1, 3})
    assert res.removed == frozenset({2})
    assert not res.partial and res.mode == "d"
    kinds = [r.kind for r in res.trace.records if r.kind != "EXP"]
    assert kinds == [EXCISION]


def test_repair_consistent_base_is_identity():
    kb = KnowledgeBase((0, 1, 2), ((frozenset({0}), 2),), ())
    res = repair(kb, 100)
    assert res.kept == frozenset({0, 1, 2})
    assert res.removed == frozenset()
    assert not res.partial


def test_repair_self_refuting_items_vanish():
    kb = KnowledgeBase((0, 1), (), (frozenset({0}), frozenset({1})))
    res = repair(kb, 100)
    assert res.kept == frozenset()
    assert res.removed == frozenset({0, 1})


def test_repair_short_horizon_is_partial():
    res = repair(_kb4(), 4, window=2)
    assert res.partial


def test_repair_argument_checks():
    with pytest.raises(ValueError):
        repair(_kb4(), 3)                      # cannot even list the items
    with pytest.raises(ValueError):
        repair(_kb4(), 100, mode="x")
    with pytest.raises(ValueError):
        repair(_kb4(), 100, window=101)


def test_repair_determinism():
    a = repair(_kb4(), 200)
    b = repair(_kb4(), 200)
    assert a.kept == b.kept
    assert a.trace.records == b.trace.records
    assert a.stability == b.stability


def test_repair_q_mode_substitutes_instead_of_excising():
    kb = KnowledgeBase((0, 1, 2, 3), (), (frozenset({1, 2}),),
                       replacements={2: 3})
    res = repair(kb, 200, mode="q")
    assert res.kept == frozenset({0, 1, 3})
    kinds = {r.kind for r in res.trace.records if r.kind != "EXP"}
    assert kinds == {REPLACEMENT}
    # without a hint covering the conflict, q-mode falls back to excision
    bare = KnowledgeBase((0, 1, 2, 3), (), (frozenset({1, 2}),))
    res2 = repair(bare, 200, mode="q")
    assert res2.kept == frozenset({0, 1, 3})
    assert {r.kind for r in res2.trace.records if r.kind != "EXP"} == {EXCISION}


# ---------------------------------------------------------------------------
# repair against the entrenchment-greedy oracle
# ---------------------------------------------------------------------------

def _random_kb(rng, n_max=6):
    n = rng.randrange(1, n_max + 1)
    items = tuple(range(n))
    rules = []
    for _ in range(rng.randrange(0, 4)):
        prem = frozenset(rng.sample(items, min(rng.randrange(1, 3), n)))
        concl = rng.randrange(n)
        if concl not in prem:
            rules.append((prem, concl))
    confl = [frozenset(rng.sample(items, rng.randrange(1, min(4, n + 1))))
             for _ in range(rng.randrange(0, 4))]
    return KnowledgeBase(items, tuple(rules), tuple(confl))


def _greedy_kept(kb):
    table = from_horn(range(len(kb.items)), kb.horn_rules, kb.conflicts)
    kept = []
    for item in kb.items:
        if BOT not in limit_closure(table, kept + [item]):
            kept.append(item)
    return frozenset(kept)


def _check_estimate(kb, res):
    """The estimate against the frozenset built from the final string's
    stable prefix, and the kept items against one membership test each."""
    rep = res.stability
    stable = res.trace.final_sigma[:rep.stable_prefix_length]
    oracle = frozenset(t for t in stable if t != GAP)
    assert rep.belief_estimate == oracle and oracle == rep.belief_estimate
    assert list(rep.belief_estimate) == sorted(oracle)
    assert res.kept == frozenset(item for r, item in enumerate(kb.items)
                                 if r in oracle)


def test_repair_matches_greedy_oracle():
    for seed in range(200):
        kb = _random_kb(random.Random(seed))
        res = repair(kb, 200, window=20)
        assert res.kept == _greedy_kept(kb), "seed %d" % seed
        _check_estimate(kb, res)
        # and the kept set really is conflict-free
        table = from_horn(range(len(kb.items)), kb.horn_rules, kb.conflicts)
        assert BOT not in limit_closure(table, res.kept)


# ---------------------------------------------------------------------------
# revision
# ---------------------------------------------------------------------------

def test_revise_conflicting_input_charges_the_base():
    kb = KnowledgeBase((0, 1), (), ())
    res = revise(kb, Additions((7,), (), (frozenset({7, 1}),)), 100)
    assert res.kept == frozenset({0})
    assert res.removed == frozenset({1})
    assert res.accepted == (7,) and not res.rejected


def test_revise_overrides_entrenchment():
    kb = KnowledgeBase((0, 1), (), ())
    res = revise(kb, Additions((7,), (), (frozenset({7, 0}),)), 100)
    assert res.kept == frozenset({1})
    assert res.removed == frozenset({0})


def test_revise_consistent_input_is_vacuous():
    kb = KnowledgeBase((0, 1), (), ())
    res = revise(kb, Additions((7,), ((frozenset({7}), 1),), ()), 100)
    assert res.kept == frozenset({0, 1})
    assert res.removed == frozenset()


def test_revise_rejects_self_refuting_input():
    kb = KnowledgeBase((0, 1), (), ())
    res = revise(kb, Additions((7,), (), (frozenset({7}),)), 100)
    assert res.rejected
    assert res.kept == frozenset({0, 1})
    assert res.stability is None and res.trace is None
    # indirect self-refutation through the base rules is caught too
    kb2 = KnowledgeBase((0,), (), ())
    add = Additions((7,), ((frozenset({7}), 0),), (frozenset({7, 0}),))
    assert revise(kb2, add, 100).rejected


def test_revise_argument_checks():
    kb = KnowledgeBase((0, 1), (), ())
    with pytest.raises(ValueError):
        revise(kb, Additions((7, 8), (), ()), 100)
    with pytest.raises(ValueError):
        revise(kb, Additions((1,), (), ()), 100)   # already in the base
    with pytest.raises(ValueError):
        revise(kb, Additions((7,), (), (frozenset({9}),)), 100)


def test_revise_keeps_a_subset_consistent_with_the_input():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        kb = _random_kb(rng, n_max=5)
        n = len(kb.items)
        b = n + 5
        confl = tuple(frozenset(rng.sample(kb.items, rng.randrange(1, n + 1)))
                      | {b} for _ in range(rng.randrange(0, 3)))
        res = revise(kb, Additions((b,), (), confl), 150)
        assert res.kept <= frozenset(kb.items)
        if not res.rejected:
            _check_estimate(kb, res)
            # rebuild the joint table over ranks and check ⊥ is not back
            rank = {item: pos for pos, item in enumerate(kb.items)}
            rank[b] = n
            table = from_horn(
                range(n + 1),
                [(frozenset(rank[p] for p in prem), rank[c])
                 for prem, c in kb.horn_rules],
                [frozenset(rank[p] for p in grp)
                 for grp in kb.conflicts + confl])
            held = {rank[i] for i in res.kept} | {n}
            assert BOT not in limit_closure(table, held), "seed %d" % seed


def test_revise_is_the_one_item_stream():
    # one item arriving: both entry points run the same revision, except
    # that a lone item refuting itself is rejected by revise, unrun, and
    # flagged by revise_stream, which runs the rest of the table
    rejected = agreed = 0
    for seed in range(200):
        rng = random.Random(3000 + seed)
        kb = _random_kb(rng, n_max=5)
        b = len(kb.items) + 5
        pool = kb.items + (b,)
        rules = []
        for _ in range(rng.randrange(0, 3)):
            prem = frozenset(rng.sample(pool, rng.randrange(1, 3)))
            concl = rng.choice(pool)
            if concl not in prem:
                rules.append((prem, concl))
        confl = [frozenset(rng.sample(pool, rng.randrange(1, 3)))
                 for _ in range(rng.randrange(0, 3))]
        add = Additions((b,), tuple(rules), tuple(confl))
        one = revise(kb, add, 150, window=30)
        stream = revise_stream(kb, add, 150, window=30)
        assert not stream.rejected, "seed %d" % seed
        if one.rejected:
            rejected += 1
            assert (one.kept, one.removed, one.trace, one.accepted) == (
                frozenset(kb.items), frozenset(), None, ())
            assert stream.inconsistent_input and stream.trace is not None
            assert stream.accepted == (b,)
        else:
            agreed += 1
            assert not one.inconsistent_input
            assert not stream.inconsistent_input, "seed %d" % seed
            assert ((one.kept, one.removed, one.partial, one.accepted,
                     one.trace)
                    == (stream.kept, stream.removed, stream.partial,
                        stream.accepted, stream.trace)), "seed %d" % seed
    assert rejected >= 10 and agreed >= 100


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_empty_stream_equals_repair():
    kb = _kb4()
    plain = repair(kb, 200)
    res = revise_stream(kb, Additions((), (), ()), 200)
    assert res.kept == plain.kept and res.removed == plain.removed
    assert not res.inconsistent_input


def test_stream_arrivals_delay_their_conflicts():
    kb = KnowledgeBase((0, 1), (), ())
    st = Additions((10, 11, 12), (), (frozenset({12, 0}),))
    res = revise_stream(kb, st, 100)
    assert res.kept == frozenset({1})
    hits = [r for r in res.trace.records if r.kind == EXCISION]
    # the conflict travels with the third arrival and cannot fire earlier
    assert [(r.stage, r.old) for r in hits] == [(2, 0)]


def test_stream_of_jointly_inconsistent_inputs_is_flagged():
    kb = KnowledgeBase((0, 1), (), ())
    st = Additions((10, 11), (), (frozenset({10, 11}),))
    res = revise_stream(kb, st, 100)
    assert res.inconsistent_input
    assert res.kept == frozenset({0, 1})


# ---------------------------------------------------------------------------
# files and rendering
# ---------------------------------------------------------------------------

SAMPLE = """
item k0
item k1
item k2
item k3
rule k0 k1 -> k3
conflict k1 k2
replace k2 -> k3
"""


def test_parse_kb_round_trip():
    kb = parse_kb(SAMPLE)
    assert kb.items == (0, 1, 2, 3)
    assert kb.labels == {0: "k0", 1: "k1", 2: "k2", 3: "k3"}
    assert kb.horn_rules == ((frozenset({0, 1}), 3),)
    assert kb.conflicts == (frozenset({1, 2}),)
    assert kb.replacements == {2: 3}


def test_parse_kb_errors_carry_line_numbers():
    cases = [
        ("item a\nitem a", 2),
        ("frob a", 1),
        ("item a\nrule a -> b", 2),
        ("item a\nrule -> a", 2),
        ("conflict", 1),
        ("item a\nitem b\nreplace a b", 3),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert err.value.line_no == line


def test_parse_additions_sees_base_labels():
    kb = parse_kb(SAMPLE)
    add = parse_additions("item b\nconflict b k1\n", kb)
    assert add.items == (4,)
    assert add.conflicts == (frozenset({1, 4}),)
    with pytest.raises(ParseError):
        parse_additions("item b\nreplace k2 -> k3\n", kb)
    with pytest.raises(ParseError):
        parse_additions("item k0\n", kb)   # shadows a base item


def test_render_result_golden():
    # one result type serves repair and revision; these texts were taken
    # when repair and revision still had result classes of their own
    kb = parse_kb(SAMPLE)
    ok = parse_additions("item k4\nrule k4 -> k0\n", kb)
    bad = parse_additions("item k9\nconflict k9\n", kb)
    pair = parse_additions("item b1\nitem b2\nconflict b1 b2\n", kb)
    ran = "horizon 200 window 50\nkept: k0 k1 k3\nremoved: k2\n"
    cases = [
        (repair(kb, 200), {}, "mode d\n" + ran),
        (repair(kb, 200, mode="q"), {}, "mode q\n" + ran),
        (revise(kb, ok, 200), ok.labels, "mode d\n" + ran + "accepted: k4\n"),
        (revise(kb, bad, 200), bad.labels,
         "mode d\nkept: k0 k1 k2 k3\nremoved: (nothing)\n"
         "rejected: the added item refutes itself\n"),
        (revise_stream(kb, pair, 200), pair.labels,
         "mode d\n" + ran + "accepted: b1 b2\n"
         "warning: the added items are jointly inconsistent\n"),
    ]
    for result, labels, head in cases:
        text = render_result(kb, result, extra_labels=labels)
        assert text == head + "partial: no\n"


def test_bundled_sample_kb():
    path = resources.files("dialectic") / "data" / "sample.kb"
    kb = parse_kb(path.read_text(encoding="utf-8"))
    res = repair(kb, 200)
    assert {kb.label(i) for i in res.kept} == {"k0", "k1", "k3"}
    resq = repair(kb, 200, mode="q")
    assert resq.kept == res.kept


def test_knowledge_base_validation():
    with pytest.raises(ValueError):
        KnowledgeBase((0, 0), (), ())
    with pytest.raises(ValueError):
        KnowledgeBase((0,), ((frozenset({1}), 0),), ())
    with pytest.raises(ValueError):
        KnowledgeBase((0,), (), (frozenset(),))
    with pytest.raises(ValueError):
        KnowledgeBase((0,), (), (), replacements={0: 9})
