"""Priority construction against families of opponent runs."""

import dataclasses
import hashlib
import random
from importlib import resources
from unittest import mock

import pytest

from dialectic import diagonalizer
from dialectic.consequence import BOT, CE, Rule, RuleTable
from dialectic.diagonalizer import (
    ClaimFreshnessError, Diagonalizer, audit_ce_discipline, audit_e_sets,
    audit_finite_injury, audit_freshness, audit_hands_off, audit_replay,
    diagonalize, report_of, run_all_audits,
)
from dialectic.engine import ReplacementMap
from dialectic.opponents import (
    MAX_AXIOM, AxiomLimitError, PartialPSystem, default_family,
    p_system_from_table, parse_family,
)
from dialectic.randomgen import random_family
from dialectic.strings import GAP, Tape
from dialectic.universe import ProgramUniverse, closure, script


def _solo(g, h, r, name="solo"):
    u = ProgramUniverse()
    return PartialPSystem(u, u.register(g), u.register(h), u.register(r),
                          name=name)


def _of_kind(rep, kind):
    """The events of one kind, without their kind."""
    return [e[1:] for e in rep.events if e[0] == kind]


def _masked(t, x):
    if t >= 40 and (x & 30) == 30:
        return x | 1
    if t >= 60 and (x & 46) == 46:
        return x | 1
    return x


# ---------------------------------------------------------------------------
# one opponent, anchor enumerated before its decoys
# ---------------------------------------------------------------------------

def test_lone_opponent_full_chain():
    th = _solo(closure(lambda n: n), closure(_masked),
               closure(lambda x: x + 1))
    rep = diagonalize([th], horizon=200, window=50)
    assert rep.timeline == (
        "1\tactivate R0 N=3",
        "7\tact R0 S2 anchor-first l=3 m=4 n=5",
        "8\tact R0 S4 case=1 aI=a4 aJ=a5 |rho|=4",
        "42\tact R0 S6 aI=a4 aJ=a5 |rho|=4",
        "60\tact R0 S8 aJ=a5",
    )
    assert [r.render() for r in rep.rules] == [
        "at 8 : a0 a1 a2 a3 |- CE",
        "at 42 : a0 a1 a2 a4 a5 |- BOT",
        "at 60 : a0 a1 a2 a5 |- BOT",
    ]
    assert rep.statuses == ("S8done",)
    assert rep.Ns == (3,)
    assert rep.Zs == (frozenset({3, 5}),)
    assert rep.verdict_lines() == ["opponent 0: S8done witness=a4"]
    assert rep.injuries == ()
    assert rep.act_records == (
        {"stage": 7, "strategy": 0, "label": "S2", "mode": "anchor-first",
         "E": frozenset({3})},
        {"stage": 8, "strategy": 0, "label": "S4", "case": 1,
         "rho": (0, 1, 2, 4)},
        {"stage": 42, "strategy": 0, "label": "S6", "rho": (0, 1, 2, 4)},
        {"stage": 60, "strategy": 0, "label": "S8"},
    )
    # (stage, strategy, N, S, cut); the entry also empties Z
    assert _of_kind(rep, "activate") == [(1, 0, 3, frozenset({0, 1, 2}), 0)]
    assert _of_kind(rep, "claim") == [
        (8, 0, frozenset({3})), (42, 0, frozenset({3, 4})),
        (60, 0, frozenset({3, 5})),
    ]
    assert [e[:4] for e in rep.events] == [
        ("activate", 1, 0, 3), ("act", 7, 0, "S2"),
        ("rule", 8, 0, "S4"), ("claim", 8, 0, frozenset({3})),
        ("act", 8, 0, "S4"), ("rule", 42, 0, "S6"),
        ("claim", 42, 0, frozenset({3, 4})), ("act", 42, 0, "S6"),
        ("rule", 60, 0, "S8"), ("claim", 60, 0, frozenset({3, 5})),
        ("act", 60, 0, "S8"),
    ]
    # the home map holds the one claim; 196 idle stages fill the other keys
    assert (rep.claims, rep.idle) == (((3, 5),), 196)
    assert rep.replacement_items(5) == [(0, 1), (1, 2), (2, 3), (3, 5), (4, 5)]
    # both limits discard the excised values and keep the witness split
    home, away = rep.gamma.belief_estimate, rep.thetas[0].belief_estimate
    assert 4 in home and 3 not in home and 5 not in home
    assert 5 in away and 3 not in away and 4 not in away
    assert all(v == [] for v in run_all_audits(rep).values())


def test_lone_opponent_decoy_first():
    order = [1, 0, 2, 5, 3, 4]
    th = _solo(closure(lambda j: order[j] if j < len(order) else j),
               closure(lambda t, x: x | 1 if t >= 30 and (x & 78) == 78 else x),
               closure(lambda x: x + 1))
    rep = diagonalize([th], horizon=200, window=50)
    assert rep.timeline == (
        "1\tactivate R0 N=3",
        "7\tact R0 S2 decoy-first l=3 m=4 n=5",
        "8\tact R0 S6 aI=a5 aJ=a4 |rho|=4",
        "30\tact R0 S8 aJ=a4",
    )
    assert [r.render() for r in rep.rules] == [
        "at 8 : a0 a1 a2 a4 a5 |- BOT",
        "at 30 : a0 a1 a2 a4 |- BOT",
    ]
    assert rep.Zs == (frozenset({4}),)
    assert rep.act_records == (
        {"stage": 7, "strategy": 0, "label": "S2", "mode": "decoy-first",
         "E": None},
        {"stage": 8, "strategy": 0, "label": "S6", "rho": (1, 0, 2, 5)},
        {"stage": 30, "strategy": 0, "label": "S8"},
    )
    assert _of_kind(rep, "activate") == [(1, 0, 3, frozenset({0, 1, 2}), 0)]
    assert _of_kind(rep, "claim") == [
        (8, 0, frozenset({5})), (30, 0, frozenset({4})),
    ]
    assert rep.verdict_lines() == ["opponent 0: S8done witness=a4"]
    home, away = rep.gamma.belief_estimate, rep.thetas[0].belief_estimate
    assert 5 in home and 4 not in home
    assert 4 in away and 5 not in away
    assert all(v == [] for v in run_all_audits(rep).values())


# ---------------------------------------------------------------------------
# opponents that never finish the walk
# ---------------------------------------------------------------------------

def test_lone_opponent_replacement_cycle():
    th = _solo(closure(lambda n: n), closure(lambda t, x: x),
               closure(lambda x: x))
    rep = diagonalize([th], horizon=300, window=50)
    assert rep.statuses == ("PO2wait",)
    assert rep.notes == (
        "opponent 0: replacement cycle detected; not a counterexample system",)
    assert th.r_cycle_found
    # without rules both runs grow in lockstep, so there is no witness
    assert rep.verdict_lines() == ["opponent 0: PO2wait witness=-"]
    assert rep.rules == ()
    assert all(v == [] for v in run_all_audits(rep).values())


def test_lone_opponent_enumeration_stall():
    th = _solo(script("(diverge)"), closure(lambda t, x: x),
               closure(lambda x: x + 1))
    rep = diagonalize([th], horizon=300, window=50)
    assert rep.statuses == ("S2wait",)
    assert rep.timeline == ("1\tactivate R0 N=3",)
    # the opponent believes nothing, so the fresh block itself splits them
    assert rep.verdict_lines() == ["opponent 0: S2wait witness=a3"]
    assert rep.notes == ("opponent 0: stalled steps g=300 H=0 r=0",)
    assert all(v == [] for v in run_all_audits(rep).values())


# ---------------------------------------------------------------------------
# the bundled family
# ---------------------------------------------------------------------------

def _family_report(horizon=4000, window=200):
    _, opps = default_family()
    return diagonalize(opps, horizon=horizon, window=window)


def test_family_outcomes():
    rep = _family_report()
    assert rep.statuses == (
        "S8done", "S5wait", "S5wait", "S7wait", "PO2wait", "S2wait")
    assert rep.Ns == (3, 83, 164, 245, 1002, 1028)
    # each strategy's last S2 act: only R3 found a decoy first; R5 never acted
    assert {r["strategy"]: r["mode"] for r in rep.act_records
            if r["label"] == "S2"} == {
        0: "anchor-first", 1: "anchor-first", 2: "anchor-first",
        3: "decoy-first", 4: "anchor-first"}
    assert [sorted(z) for z in rep.Zs] == [
        [3, 5], [83], [164], [247], [], []]
    # excisions sit inside each strategy's own fresh block
    for n, z in zip(rep.Ns, rep.Zs):
        assert all(n <= v <= n + 2 for v in z)
    assert rep.verdict_lines() == [
        "opponent 0: S8done witness=a4",
        "opponent 1: S5wait witness=a83",
        "opponent 2: S5wait witness=a164",
        "opponent 3: S7wait witness=a247",
        "opponent 4: PO2wait witness=a3480",
        "opponent 5: S2wait witness=a1028",
    ]
    assert ("opponent 4: replacement cycle detected; "
            "not a counterexample system") in rep.notes


def test_family_rules_and_cases():
    rep = _family_report()
    labels = [(i, label) for _, i, label, _ in _of_kind(rep, "rule")]
    assert labels == [(0, "S4"), (0, "S6"), (0, "S8"),
                      (1, "S4"), (2, "S4"), (3, "S6")]
    concls = [r.conclusion for r in rep.rules]
    # opponent 1 hits the contradiction branch, opponent 2 the marker branch
    assert concls == [CE, BOT, BOT, BOT, CE, BOT]
    assert [len(r.premises) for r in rep.rules] == [4, 5, 4, 82, 162, 243]
    # the rules are read off the events, so an edited report stays consistent
    second = [k for k, e in enumerate(rep.events) if e[0] == "rule"][1]
    cut = dataclasses.replace(rep, events=rep.events[:second + 1])
    assert cut.rules == rep.rules[:2]


def test_family_injuries_are_finite_and_downward():
    rep = _family_report()
    assert len(rep.injuries) > 0
    assert all(hurt > by for _, hurt, by in rep.injuries)
    # every re-entry picks a strictly larger fresh block
    per = {}
    for _, i, N, _, _ in _of_kind(rep, "activate"):
        per.setdefault(i, []).append(N)
    assert len(per[1]) > 1
    for ns in per.values():
        assert ns == sorted(ns) and len(set(ns)) == len(ns)
    # and the last activation of an injured strategy postdates the abuse
    last_hit = max(stage for stage, hurt, _ in rep.injuries if hurt == 1)
    last_entry = max(stage for stage, i, *_ in _of_kind(rep, "activate")
                     if i == 1)
    assert last_entry > last_hit


def test_family_audits_pass():
    rep = _family_report()
    assert all(v == [] for v in run_all_audits(rep).values())


def test_audits_catch_tampering(monkeypatch):
    rep = _family_report()
    # a doctored excision set claims a4, which the home beliefs hold below
    # later blocks
    bad_zs = (rep.Zs[0] | {4},) + rep.Zs[1:]
    assert audit_hands_off(dataclasses.replace(rep, Zs=bad_zs)) == [
        "below a%d the home beliefs differ from the claim at [4]" % N
        for N in rep.Ns[1:]]
    # a doctored kept set holds a3, which R0's claim removed
    k = next(k for k, e in enumerate(rep.events)
             if e[0] == "activate" and e[2] == 1 and e[3] == rep.Ns[1])
    kind, stage, i, N, S, cut = rep.events[k]
    assert audit_hands_off(_doctored(rep, k, (kind, stage, i, N, S | {3}, cut))) == [
        "below a%d the home beliefs differ from the claim at [3]" % N]
    # a marker rule whose premises are not the kept set plus the anchor
    k = next(k for k, e in enumerate(rep.events)
             if e[0] == "rule" and e[4].conclusion == CE)
    r = rep.events[k][4]
    assert audit_ce_discipline(_doctored(
        rep, k, rep.events[k][:4] + (Rule(r.stage, r.premises | {9}, CE),)))
    # an entry on a block at (not only below) an axiom already mentioned
    k = next(k for k, e in enumerate(rep.events)
             if e[0] == "activate" and e[5] > 0)
    kind, stage, i, _, S, cut = rep.events[k]
    stale = max(rep.mentions[:cut])
    assert audit_freshness(_doctored(rep, k, (kind, stage, i, stale, S, cut)))
    # a throw-back of R0, which no strategy outranks
    k = next(k for k, e in enumerate(rep.events) if e[0] == "injure")
    extra = ("injure", rep.events[k][1], 0, 0)
    assert audit_finite_injury(dataclasses.replace(
        rep, events=rep.events[:k] + (extra,) + rep.events[k:]))
    # an escape set frozen with an axiom no higher claim holds
    k = next(k for k, e in enumerate(rep.events)
             if e[0] == "act" and e[5].get("E") is not None)
    *head, fields = rep.events[k]
    assert audit_e_sets(_doctored(
        rep, k, (*head, {**fields, "E": fields["E"] | {9}})))
    # a rule that excises a0, below its strategy's block; the replay runs
    # each of the K + 1 rule prefixes once
    k = next(k for k, e in enumerate(rep.events) if e[0] == "rule")
    bad = _doctored(rep, k, rep.events[k][:4] + (Rule(1, {0}, BOT),))
    runs = []
    real_run = diagonalizer.run
    monkeypatch.setattr(diagonalizer, "run",
                        lambda *a: runs.append(a) or real_run(*a))
    assert audit_replay(bad) == [
        "rule 0 (stage 1) moved beliefs below a3: [0]"]
    assert len(runs) == len(rep.rules) + 1


def _doctored(rep, k, event):
    """The report with its k-th event replaced."""
    return dataclasses.replace(
        rep, events=rep.events[:k] + (event,) + rep.events[k + 1:])


def test_witnesses_stable_across_horizons():
    a = _family_report(horizon=4000)
    b = _family_report(horizon=6000)
    # the cyclic opponent never settles; everyone else's witness is final
    for i in (0, 1, 2, 3, 5):
        assert a.witnesses[i] == b.witnesses[i]
    assert a.statuses == b.statuses and a.Ns == b.Ns


def test_report_rendering_is_reproducible():
    a = _family_report().render()
    b = _family_report().render()
    assert a == b
    for section in ("diagonalization report", "[timeline]", "[rules]",
                    "[replacement]", "[injuries]", "[verdicts]", "[notes]"):
        assert section in a


def test_family_report_bytes_are_pinned():
    _, opps = default_family()
    text = diagonalize(opps, 3000, window=100).render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "94f7d9eaa7cfb77f6f55f4a05dcf33c5ecf0ffd16906f963796e1b91b869cdea")


@pytest.mark.parametrize("horizon, fuel_cap, digest", [
    # past every event: one long quiet stretch
    (100_000, None,
     "ab4ad49300a8fbe7e704c83cebd62c44d13a9d604fd6f6d1457d70e705c4f2d8"),
    # the capped fuel never saturates hA: stage by stage throughout
    (3000, 10,
     "fc586f6fe34d43dfc1edd760430937b706bf3a99d63da46a3a8e3112fc6d3aba"),
], ids=["long", "capped"])
def test_family_report_bytes_are_pinned_long_and_capped(horizon, fuel_cap,
                                                        digest):
    _, opps = default_family()
    text = diagonalize(opps, horizon, window=100, fuel_cap=fuel_cap).render()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_claim_on_mapped_axiom_is_a_typed_error():
    # the first strategy enters at stage 1 on N = 3; map a3 beforehand
    th = _solo(closure(lambda n: n), closure(_masked), closure(lambda x: x + 1))
    dz = Diagonalizer([th])
    dz.replacement.define(3, 7)
    with pytest.raises(ClaimFreshnessError) as info:
        dz.run_to(5)
    assert (info.value.stage, info.value.axiom) == (1, 3)


# ---------------------------------------------------------------------------
# the event form against run_to, its oracle
# ---------------------------------------------------------------------------

def _reports(make, horizons, drive, fuel_cap=None):
    """The report at each horizon of one run, driven there by drive."""
    diag = Diagonalizer(make(), fuel_cap=fuel_cap)
    out = []
    for h in horizons:
        drive(diag, h)
        out.append(report_of(diag, min(100, h)))
    return out, diag


def _same_runs(make, horizons, fuel_cap=None):
    """Check advance_to against run_to; return the event-form Diagonalizer."""
    mine, diag = _reports(make, horizons, Diagonalizer.advance_to, fuel_cap)
    oracle, _ = _reports(make, horizons, Diagonalizer.run_to, fuel_cap)
    for h, a, b in zip(horizons, mine, oracle):
        assert a.events == b.events, h
        assert a.mentions == b.mentions, h
        assert (a.claims, a.idle) == (b.claims, b.idle), h
        assert a == b, h
        assert a.render() == b.render(), h
    return diag


def _frozen_estimate(tokens, listing, prefix, f=None):
    """The estimate as a frozenset, the oracle: the axioms among the first
    prefix positions of tokens followed by the listing f(L), f(L+1), ...,
    by default a_L, a_L+1, ...."""
    sigma = list(tokens) + list(map(f or (lambda p: p),
                                    range(len(tokens), len(tokens) + listing)))
    return frozenset(t for t in sigma[:prefix] if t != GAP)


def _frozen_hands_off(report, B):
    """audit_hands_off over frozensets, element by element: each last
    entry's kept set S lies in B, and B below its block N holds no higher
    claim."""
    problems = []
    entries = {e[2]: e[3:5] for e in report.events if e[0] == "activate"}
    for i, (N, S) in sorted(entries.items()):
        actual = frozenset(v for v in B if v < N)
        bad = (S - actual) | (actual & frozenset().union(*report.Zs[:i]))
        if bad:
            problems.append(
                "below a%d the home beliefs differ from the claim at %s"
                % (N, sorted(bad)))
    return problems


def _check_against_frozensets(diag, rep):
    """Every estimate, witness and hands-off line of rep against the
    frozensets built from the final strings."""
    tr = diag.engine.trace()
    sets = [_frozen_estimate(tr.prefix.tokens, tr.listing,
                             rep.gamma.stable_prefix_length)]
    # an opponent's count lists its g, the script itself
    sets += [_frozen_estimate(st.theta.tape.tokens, st.theta.tape.listing,
                              th.stable_prefix_length,
                              st.theta.g.shape and st.theta.g.fast)
             for st, th in zip(diag.strategies, rep.thetas)]
    for got, want in zip((rep.gamma,) + rep.thetas, sets):
        assert got.belief_estimate == want and want == got.belief_estimate
        assert list(got.belief_estimate) == sorted(want)
    for st, theta, w in zip(diag.strategies, sets[1:], rep.witnesses):
        diff, floor = sets[0] ^ theta, max(st.N, 0)
        high = [v for v in diff if v >= floor]
        assert w == min(high or diff, default=None)
    assert audit_hands_off(rep) == _frozen_hands_off(rep, sets[0])


@pytest.mark.parametrize("fuel_cap", [None, 10, 30])
def test_event_form_matches_run_to_on_the_bundled_family(fuel_cap):
    diag = _same_runs(lambda: default_family()[1],
                      (0, 1, 2, 27, 100, 3000, 10_000), fuel_cap)
    _check_against_frozensets(diag, report_of(diag, 100))


def test_event_form_matches_run_to_on_random_families():
    hands_off = []
    for seed in range(60):
        text = random_family(random.Random(seed))
        diag = _same_runs(lambda: parse_family(text)[1], (600,))
        rep = report_of(diag, 100)
        _check_against_frozensets(diag, rep)
        if audit_hands_off(rep):
            hands_off.append(seed)
    # seeds 5, 47 and 59 fail here, in both forms alike, when an entry's
    # kept set holds an axiom that an abandoned entry removed for good
    assert hands_off == []


# ninety consecutive families, and the rest of the thirteen below 400 whose
# kept sets hold an axiom that an abandoned entry removed when S does not
# leave such axioms out
GATE_SEEDS = [*range(90), 125, 143, 158, 199, 251, 272, 285, 311, 365, 394]


def test_random_families_pass_the_audits_and_place_their_witnesses():
    # every audit holds, and a strategy that made an S2 act ends with its
    # witness in its block {N, N+1, N+2}, unless it waits on an opponent
    # that already lacks an axiom of its kept set S: the home beliefs hold
    # all of S (hands-off), so the two limits differ below N whatever the
    # strategy does next, and the witness is the least difference from N
    far = []
    for seed in GATE_SEEDS:
        rep = diagonalize(parse_family(random_family(random.Random(seed)))[1],
                          3000, 100)
        problems = {k: v for k, v in run_all_audits(rep).items() if v}
        assert not problems, (seed, problems)
        kept = {e[2]: e[4] for e in rep.events if e[0] == "activate"}
        for i in sorted({e[2] for e in rep.events if e[0] == "act" and e[3] == "S2"}):
            N, w = rep.Ns[i], rep.witnesses[i]
            if w is None or not N <= w <= N + 2:
                lacks = kept[i] - rep.thetas[i].belief_estimate
                assert rep.statuses[i].endswith("wait") and lacks, (seed, i, w)
                far.append((seed, i, N, w, sorted(lacks)))
    # seed 143's R0, never injured, waits in S5wait on a1, which its
    # opponent replaced
    assert far == [(143, 0, 3, 21, [1])]


_BUNDLED = (resources.files("dialectic") / "data" / "default.family"
            ).read_text(encoding="utf-8")


def _expensive(depth):
    """n + 1, written with 2^depth copies: its fuel grows with them."""
    return "(+ n 1)" if depth == 0 else "(+ %s (* 0 %s))" % (
        _expensive(depth - 1), _expensive(depth - 1))


@pytest.mark.parametrize("roster", [
    ["caseA : g=ident h=hA r=bump1"],
    # at stage 41 h1 replaces a3 by a13, cutting σ below the predicted
    # ρ = (a0, a1, a2, a13, a4), and the next stage appends a4 outside
    # h1's mask: S6 acts at stage 43
    ["caseC : g=ident h=h1 r=bump10"],
    ["tailfirst : g=gdesc h=echo r=bump1"],
    ["stuck : g=ident h=echo r=identr"],
    # r needs fuel 772 below a8, so R1's PO2wait test stalls on a3 and a5
    # (R0's claim) from stage 63 and acts at stage 769
    ["caseA : g=ident h=hA r=bump1", "slow : g=ident h=echo r=slow"],
    # g without a shape: the scheduler cannot place R1's re-entered blocks
    # by arithmetic, so it stops each opponent before their values arrive
    # (shift takes S2 at stages 34, 56 and 72, half at 134)
    ["caseA : g=ident h=hA r=bump1", "shift : g=bump1 h=hA r=bump10"],
    ["caseB : g=ident h=hB r=bump2", "half : g=half h=echo r=bump1"],
])
def test_event_form_matches_run_to_on_small_rosters(roster):
    head = _BUNDLED[:_BUNDLED.index("\nopponent ") + 1]
    text = head + "prog slow = (if (lt n 8) %s (+ n 1))\n" % _expensive(7)
    text += "prog h1 = (if (and (ge t 40) (eq (band x 30) 30)) (bor x 1) x)\n"
    text += "prog half = (div n 2)\n"
    text += "".join("opponent %s\n" % line for line in roster)
    _same_runs(lambda: parse_family(text)[1], (25, 60, 1500))


def test_event_form_matches_run_to_with_an_h_stall_in_the_prefix_search():
    # from stage 5 on, stall's h marks σ but stalls on the empty prefix,
    # as in test_opponents.py::test_stall_inside_the_least_marked_prefix_search
    head = _BUNDLED[:_BUNDLED.index("\nopponent ") + 1]
    text = head + (
        "prog hs = (if (lt t 5) x (if (eq x 0) (diverge) (bor x 1)))\n"
        "opponent caseA : g=ident h=hA r=bump1\n"
        "opponent stall : g=ident h=hs r=bump1\n")
    diag = _same_runs(lambda: parse_family(text)[1], (3, 40, 1000))
    # stage s has fuel s, too little for hs before stage 5: σ keeps a0,
    # and every later stage stalls on h
    stall = diag.strategies[1].theta
    assert (stall.diverge_counts, len(stall.tape)) == (
        {"g": 0, "H": 999, "r": 0}, 1)


def test_an_r_stall_keeps_the_claim_waiting():
    # r never answers, so S2 waits on r(g(l)) at every stage from the one
    # at which the block's three values are enumerated
    text = ("prog ident = n\nprog echo = x\nprog loop = (diverge)\n"
            "opponent rstall : g=ident h=echo r=loop\n")
    rep = report_of(_same_runs(lambda: parse_family(text)[1], (300,)), 100)
    assert rep.verdict_lines() == ["opponent 0: S2wait witness=-"]
    assert rep.notes == ("opponent 0: stalled steps g=0 H=0 r=294",)


def test_an_operator_that_drops_its_argument_is_noted():
    text = ("prog ident = n\nprog zero = 0\nprog bump1 = (+ n 1)\n"
            "opponent z : g=ident h=zero r=bump1\n")
    rep = report_of(_same_runs(lambda: parse_family(text)[1], (200,)), 100)
    assert rep.verdict_lines() == ["opponent 0: S5wait witness=a3"]
    assert rep.notes == ("opponent 0: operator output at stage 1 does not "
                         "include its argument",)


def test_event_form_falls_back_for_unanalysed_opponents():
    full_scan = _BUNDLED.replace("h=hB r=bump2", "h=hB r=bump2 scan=full")
    assert full_scan != _BUNDLED
    diag = _same_runs(lambda: parse_family(full_scan)[1], (100, 400))
    assert diag.bulk_stages == 0

    def with_table():
        table = RuleTable([Rule(30, frozenset({1, 2}), CE),
                           Rule(90, frozenset({0, 4}), CE)])
        return parse_family(_BUNDLED)[1][:3] + [p_system_from_table(
            table, ReplacementMap(default_fn=lambda k: k + 1), name="tab")]
    diag = _same_runs(with_table, (100, 400))
    assert diag.bulk_stages == 0


def test_event_form_engages_on_the_bundled_family():
    # counted per stretch: a silent per-stage fall-back would show here
    # the arrival of an S2wait block in a shaped enumeration is placed by
    # the shape, so its stages go in bulk: 63 stepped stages, not 84
    _, opps = default_family()
    diag = Diagonalizer(opps)
    steps, real_step = [], PartialPSystem.step

    def counting_step(th, fuel):
        steps.append(th)
        return real_step(th, fuel)

    with mock.patch.object(PartialPSystem, "step", counting_step):
        diag.advance_to(10_000)
    assert (diag.bulk_stretches, diag.bulk_stages) == (10, 9_937)
    assert len(steps) <= 6 * (10_000 - 9_937)
    for th in opps:
        assert th.bulk_stages >= 9_500
        assert th.bulk_stretches <= diag.bulk_stretches


def test_identity_opponents_store_only_up_to_their_last_cut():
    # σ is a count past its last cut, and a shaped enumeration (the
    # identity, and tailfirst's blocks of 1000) is only a count
    _, opps = default_family()
    last_cut, real_cut = {}, Tape.cut

    def recording_cut(tape, pos):
        last_cut[id(tape)] = pos
        return real_cut(tape, pos)

    with mock.patch.object(Tape, "cut", recording_cut):
        Diagonalizer(opps).advance_to(10**5)
    shaped = [th for th in opps if th.g.shape]
    assert [(th.name, th.g.shape.B) for th in shaped] == [
        ("caseA", 1), ("caseB", 1), ("caseC", 1), ("tailfirst", 1000),
        ("stuck-rho", 1)]
    for th in shaped:
        cut = last_cut.get(id(th.tape))
        assert len(th.tape.tokens) == (0 if cut is None else cut + 1), th.name
        assert len(th.tape) > 99_900, th.name
        assert th._enum.tokens == [] and len(th._enum) >= len(th.tape), th.name
        assert th.g_evals == 0, th.name
    assert [len(th.tape.tokens) for th in shaped] == [5, 6, 5, 0, 0]
    # tailfirst's g is evaluated at most once per 100 σ positions (it was
    # once per position when its enumeration was stored)
    assert opps[3].g_evals <= 0.01 * len(opps[3].tape)


def test_axiom_limit_raises_at_the_same_stage_in_both_forms():
    # g crosses the limit at position 201, inside the stretch after hA's
    # last t boundary at stage 61
    head = _BUNDLED[:_BUNDLED.index("\nopponent ") + 1]
    text = head + ("prog big = (+ n %d)\nopponent big : g=big h=hA r=bump1\n"
                   % (MAX_AXIOM - 200))
    seen, bulk = [], []
    for drive in (Diagonalizer.advance_to, Diagonalizer.run_to):
        diag = Diagonalizer(parse_family(text)[1])
        with pytest.raises(AxiomLimitError) as info:
            drive(diag, 1000)
        seen.append((str(info.value), diag.stage,
                     [(st.theta.stage, len(st.theta.tape))
                      for st in diag.strategies]))
        bulk.append(diag.bulk_stages)
    assert seen[0] == seen[1]
    assert bulk[0] > 0 and bulk[1] == 0   # the bulk path stopped before it
    assert seen[0][0] == ("opponent big: g gave a%d, above the limit a%d"
                          % (MAX_AXIOM + 1, MAX_AXIOM))
    assert 200 < seen[0][1] < 300


# ---------------------------------------------------------------------------
# the idle chain: counted, not stored
# ---------------------------------------------------------------------------

def _extend_replacement(repl, k):
    """One stage of the idle branch's former loop: a fresh entry a_k -> a_k+1
    on the least key from k that is not yet defined; returns the next k."""
    while repl.get(k) is not None:
        k += 1
    repl.define(k, k + 1)
    return k + 1


def _stored_chain(rep, hand=()):
    """The home map as the idle branch once stored it, replayed from the
    events, and the chain's end before each entry."""
    repl = ReplacementMap(hand)
    acts = {e[1] for e in rep.events if e[0] == "act"}
    entries = {e[1]: e[3] for e in rep.events if e[0] == "activate"}
    k, ends = 0, []
    for s in range(1, rep.horizon + 1):
        if s in entries:
            ends.append(k)
            repl.define(entries[s], entries[s] + 2)
        if s not in acts:
            k = _extend_replacement(repl, k)
    return repl.explicit_items(), ends


def _check_idle_chain(rep, hand=()):
    items, ends = _stored_chain(rep, hand)
    assert len(items) == rep.idle + len(rep.claims)
    assert rep.replacement_items(len(items) + 1) == items
    lines = rep.render().splitlines()
    section = lines[lines.index("[replacement]") + 1:lines.index("[injuries]")]
    shown = ["a%d -> a%d" % pair for pair in items[:64]]
    if len(items) > 64:
        shown.append("... %d more entries" % (len(items) - 64))
    assert section == shown
    # an entry's block lies above the chain, whose mentions reach its end
    activations = [e for e in rep.events if e[0] == "activate"]
    assert len(activations) == len(ends)
    for (_, _, _, N, _, cut), end in zip(activations, ends):
        ceiling = max(rep.mentions[:cut], default=0)
        assert N == 3 + ceiling and ceiling >= end


@pytest.mark.parametrize("horizon", [0, 1, 2, 27, 63, 64, 65, 100, 3000])
def test_idle_chain_matches_its_stored_form(horizon):
    window = min(100, horizon)
    _check_idle_chain(diagonalize(default_family()[1], horizon, window))
    for seed in range(20):
        opps = parse_family(random_family(random.Random(seed)))[1]
        _check_idle_chain(diagonalize(opps, horizon, window))


def test_idle_chain_skips_a_hand_defined_entry():
    th = _solo(closure(lambda n: n), closure(_masked),
               closure(lambda x: x + 1))
    hand = [(1, 9), (40, 45)]
    dz = Diagonalizer([th])
    for i, j in hand:
        dz.replacement.define(i, j)
    dz.advance_to(200)
    rep = report_of(dz, 50)
    assert rep.claims == ((1, 9), (3, 5), (40, 45))
    assert rep.replacement_items(4) == [(0, 1), (1, 9), (2, 3), (3, 5)]
    _check_idle_chain(rep, hand)


def _replaced_only_claims(diag):
    anchors = {e[3] for e in diag.events if e[0] == "activate"}
    reps = [r.old for r in diag.engine.event_records if r.kind == "REP"]
    assert set(reps) <= anchors
    return len(reps)


def test_the_home_run_replaces_only_claimed_anchors():
    # a marker rule's least prefix ends at its anchor N, so the home map
    # needs only the claims
    seen = 0
    for cap in (None, 10, 30):
        diag = Diagonalizer(default_family()[1], fuel_cap=cap)
        diag.advance_to(10_000)
        seen += _replaced_only_claims(diag)
    table = RuleTable([Rule(30, frozenset({1, 2}), CE),
                       Rule(90, frozenset({0, 4}), CE)])
    diag = Diagonalizer(default_family()[1] + [p_system_from_table(
        table, ReplacementMap(default_fn=lambda k: k + 1), name="tab")])
    diag.advance_to(20_000)
    seen += _replaced_only_claims(diag)
    for seed in range(60):
        text = random_family(random.Random(seed))
        diag = Diagonalizer(parse_family(text)[1])
        diag.advance_to(3000)
        seen += _replaced_only_claims(diag)
    assert seen > 0


def test_idle_stages_keep_no_state():
    diag = Diagonalizer(default_family()[1])
    assert not hasattr(diag, "_r_next")
    assert not hasattr(diag, "_extend_replacement")
    diag.advance_to(10_000)
    entries = [e[3] for e in diag.events if e[0] == "activate"]
    assert diag.replacement.explicit_items() == sorted(
        (N, N + 2) for N in entries)
    # the next 10^4 stages are one bulk stretch without an event
    mentions, stretches = list(diag.mentions), diag.bulk_stretches
    diag.advance_to(20_000)
    assert diag.bulk_stretches == stretches + 1
    assert diag.mentions == mentions
