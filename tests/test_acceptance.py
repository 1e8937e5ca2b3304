"""Acceptance gate: eleven desk-scale checks, one test per criterion.

Each test prints a single verdict line ("criterion NN <label>: PASS/FAIL")
before asserting, so a plain readthrough of the captured output gives the
per-criterion outcome.  Checks that replay or re-derive engine output do
so with their own independent bookkeeping, not the engine's.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from random import Random

import pytest

from dialectic.applications import KnowledgeBase, repair
from dialectic.cli import main
from dialectic.consequence import BOT, CE, RuleTable, from_horn, limit_closure, rule
from dialectic.diagonalizer import (
    audit_finite_injury, audit_hands_off, diagonalize, run_all_audits,
)
from dialectic.engine import (
    EXCISION, EXPANSION, REPLACEMENT, QSystem, ReplacementMap,
    estimate_beliefs, is_clean_window, run, variant_flags,
)
from dialectic.legacy import (
    backward_translate, check_alignment, fast_legacy_run, forward_translate,
    legacy_run, serialize_state, stream_alignment,
)
from dialectic.opponents import decode_index, default_family, pi_decode, pi_encode
from dialectic.randomgen import random_legacy, random_qsystem
from dialectic.strings import GAP

CORPUS_SIZE = 1000
CORPUS_STAGES = 1000
CORPUS_WINDOW = 100


def _verdict(num: int, label: str, problems, note: str = "",
             elapsed: float | None = None, bound: float | None = None) -> None:
    """Print the criterion's verdict line, then assert that it is clean.

    A time-bounded criterion passes its ``elapsed`` time and its ``bound``.
    Taking the bound or longer counts as a problem, so the line reads FAIL
    whenever the test's own time assertion would fail.
    """
    problems = list(problems)
    parts = [note] if note else []
    if bound is not None:
        if elapsed >= bound:
            problems.append("took %.2fs, bound %.1fs" % (elapsed, bound))
        parts.append("bound %.1fs" % bound)
    status = "PASS" if not problems else "FAIL"
    tail = " (%s)" % ", ".join(parts) if parts else ""
    print("criterion %02d %s: %s%s" % (num, label, status, tail))
    assert not problems, "criterion %d %s: %d violation(s): %s" % (
        num, label, len(problems), problems[:5])


# ---------------------------------------------------------------------------
# shared corpora (built once per module)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    """1000 seeded systems (12 axioms, up to 10 rules) run for 10^3 stages."""
    t0 = time.perf_counter()
    out = []
    for seed in range(CORPUS_SIZE):
        system = random_qsystem(Random(seed), max_rules=10)
        out.append((seed, system, run(system, CORPUS_STAGES)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def family_report():
    """The bundled opponent family diagonalized at the full desk horizon."""
    _, opponents = default_family()
    t0 = time.perf_counter()
    report = diagonalize(opponents, 100000, window=100)
    return report, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1: the stack engine's forced opening, exactly as printed
# ---------------------------------------------------------------------------

BOOTSTRAP_GOLDEN = [
    "0: 0\np=0, h=0, A={}\n",
    "0: 0\n1: 1\np=1, h=1, A={}\n",
    "0:\n1: 1\np=1, h=0, A={}\n",
    "0:\n1: 1\n2: 2\np=2, h=2, A={}\n",
    "0:\n1: 1 0\n2: 2\np=2, h=1, A={}\n",
    "0:\n1:\n2: 2\np=2, h=1, A={}\n",
]


def test_criterion_01_golden_bootstrap_table():
    t0 = time.perf_counter()
    problems = []
    makers = [
        lambda: QSystem(RuleTable(()), ReplacementMap()),
        lambda: QSystem(RuleTable([rule(0, {0}, BOT)]), ReplacementMap([(0, 1)])),
        lambda: random_qsystem(Random(7)),
        lambda: random_qsystem(Random(40)),
    ]
    for i, make in enumerate(makers):
        states = legacy_run(backward_translate(make()), 5)
        got = [serialize_state(st) for st in states]
        if got != BOOTSTRAP_GOLDEN:
            problems.append("system %d deviates: %r" % (i, got))
    elapsed = time.perf_counter() - t0
    _verdict(1, "golden bootstrap table", problems, "%.2fs" % elapsed,
             elapsed, 1.0)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2: pure expansion
# ---------------------------------------------------------------------------

def _expansion_law_problems(sigmas, horizon: int) -> list:
    """Check that ``sigmas`` is σ_0 .. σ_horizon with σ_s = a_0..a_{s-1}.

    The check is by induction over consecutive strings: σ_0 is empty, and
    each σ_s for s ≥ 1 has length s, ends in a_{s-1} and has σ_{s-1} as the
    rest.  That fixes every σ_s exactly, and the prefix comparison takes the
    identity path wherever the two strings share their entries as the same
    objects.  Reports the first stage that breaks the law, or a count of
    strings other than horizon + 1.
    """
    it = iter(sigmas)
    prev = next(it, None)
    if prev != ():
        return ["stage 0 is not empty"]
    s = 0
    for s, sigma in enumerate(it, 1):
        if len(sigma) != s or sigma[-1] != s - 1 or sigma[:-1] != prev:
            return ["stage %d is not a_0..a_%d" % (s, s - 1)]
        prev = sigma
    if s != horizon:
        return ["%d strings, not %d" % (s + 1, horizon + 1)]
    return []


def _broken_expansions():
    """Hand-made σ_0 .. σ_8, each with one bad stage: (stage, sequence)."""
    def good():
        return [tuple(range(s)) for s in range(9)]
    wrong_middle, one_short, wrong_last = good(), good(), good()
    wrong_middle[5] = (0, 1, 7, 3, 4)
    one_short[3] = (0, 2)
    wrong_last[6] = (0, 1, 2, 3, 4, 6)
    return [(5, wrong_middle), (3, one_short), (6, wrong_last)]


def test_criterion_02_pure_expansion_law():
    t0 = time.perf_counter()
    horizon = 10 ** 4
    trace = run(QSystem(RuleTable(()), ReplacementMap()), horizon)
    problems = _expansion_law_problems(trace.iter_sigmas(), horizon)
    report = estimate_beliefs(trace, CORPUS_WINDOW)
    if report.belief_estimate != set(range(horizon)):
        problems.append("estimate is not the full prefix")
    if report.stable_prefix_length != horizon:
        problems.append("stable prefix %d" % report.stable_prefix_length)
    elapsed = time.perf_counter() - t0
    # untimed: on hand-made strings with one bad stage, the check must
    # report that stage, as a comparison with a_0..a_{s-1} at each stage does
    for stage, sigmas in _broken_expansions():
        got = _expansion_law_problems(sigmas, len(sigmas) - 1)
        if got != ["stage %d is not a_0..a_%d" % (stage, stage - 1)]:
            problems.append("checker missed stage %d: %s" % (stage, got))
    _verdict(2, "pure expansion law", problems, "%.2fs" % elapsed,
             elapsed, 1.0)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3: least-k and gap-skip, audited by independent trace replay
# ---------------------------------------------------------------------------

def _replay_audit(system, trace, stride: int = 97) -> list:
    """Recompute every step decision from the rule table alone.

    Keeps its own string and first-occurrence map (gaps never enter it);
    every ``stride`` stages the map is rebuilt from scratch and compared,
    so the incremental bookkeeping is itself audited.
    """
    table = [r for r in system.table if r.conclusion in (BOT, CE)]
    sigma: list[int] = []
    first: dict[int, int] = {}
    problems = []
    for s, rec in enumerate(trace.records):
        if s % stride == 0:
            fresh: dict[int, int] = {}
            for pos, v in enumerate(sigma):
                if v != GAP and v not in fresh:
                    fresh[v] = pos
            if fresh != first:
                problems.append((s, "occurrence map drift"))
                first = fresh
        k_bot = k_ce = None
        for r in table:
            if r.stage > s:
                continue
            k = -1
            for p in r.premises:
                pos = first.get(p)
                if pos is None:
                    k = None
                    break
                if pos > k:
                    k = pos
            if k is None:
                continue
            k += 1
            if r.conclusion == BOT:
                if k_bot is None or k < k_bot:
                    k_bot = k
            else:
                if k_ce is None or k < k_ce:
                    k_ce = k
        if k_bot is not None and (k_ce is None or k_bot <= k_ce):
            kind, k = EXCISION, k_bot
        elif k_ce is not None:
            kind, k = REPLACEMENT, k_ce
        else:
            kind, k = EXPANSION, None
        if kind != rec.kind:
            problems.append((s, "kind %s, replay wants %s" % (rec.kind, kind)))
            return problems
        if kind == EXPANSION:
            v = len(sigma)
            sigma.append(v)
            if v not in first:
                first[v] = len(sigma) - 1
        else:
            if k != rec.k or sigma[k - 1] != rec.old:
                problems.append((s, "k/old disagree"))
                return problems
            del sigma[k - 1:]
            for v in [v for v, pos in first.items() if pos >= k - 1]:
                del first[v]
            if kind == EXCISION:
                sigma.append(GAP)
            else:
                new = system.replacement.get(rec.old)
                if new != rec.new:
                    problems.append((s, "replacement image disagrees"))
                    return problems
                sigma.append(new)
                if new not in first:
                    first[new] = len(sigma) - 1
    if tuple(sigma) != trace.final_sigma.tokens:
        problems.append(("final", "strings diverge"))
    return problems


def test_criterion_03_least_k_and_gap_skip(corpus):
    systems, run_elapsed = corpus
    t0 = time.perf_counter()
    problems = []
    for seed, system, trace in systems:
        bad = _replay_audit(system, trace)
        if bad:
            problems.append((seed, bad[0]))
    elapsed = run_elapsed + (time.perf_counter() - t0)
    _verdict(3, "least-k and gap-skip replay", problems,
             "%d systems, %.1fs" % (len(systems), elapsed), elapsed, 30.0)
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4: translation equivalence, both directions
# ---------------------------------------------------------------------------

def test_criterion_04_translation_equivalence():
    t0 = time.perf_counter()
    horizon = 1000
    problems = []
    for seed in range(100):
        rng = Random(seed)
        qsys = random_qsystem(rng)
        back = stream_alignment("backward", qsys=qsys, horizon=horizon)
        if not back.ok:
            problems.append((seed, back.render()))
        legacy = random_legacy(rng)
        fwd = stream_alignment("forward", legacy=legacy, horizon=horizon)
        if not fwd.ok:
            problems.append((seed, fwd.render()))
    # a slice re-checked position-by-position at every stage, which in the
    # backward direction means the stage-offset-5 / index-shift-2 equation
    for seed in range(10):
        rng = Random(seed)
        qsys = random_qsystem(rng)
        full = check_alignment(run(qsys, horizon),
                               fast_legacy_run(backward_translate(qsys),
                                               horizon + 5),
                               "backward")
        if not full.ok:
            problems.append((seed, full.render()))
        legacy = random_legacy(rng)
        full = check_alignment(run(forward_translate(legacy), horizon),
                               fast_legacy_run(legacy, horizon),
                               "forward", system=legacy)
        if not full.ok:
            problems.append((seed, full.render()))
    elapsed = time.perf_counter() - t0
    _verdict(4, "translation equivalence", problems, "%.1fs" % elapsed,
             elapsed, 60.0)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5: the limit set is closed under its own consequences
# ---------------------------------------------------------------------------

def test_criterion_05_limit_set_closure(corpus):
    systems, _ = corpus
    problems = []
    clean = 0
    for seed, system, trace in systems:
        report = estimate_beliefs(trace, CORPUS_WINDOW)
        if not is_clean_window(system, report):
            continue
        clean += 1
        est = frozenset(report.belief_estimate)
        closed = limit_closure(system.table, est)
        if {v for v in closed if v >= 0} != est:
            problems.append(seed)
    assert clean >= CORPUS_SIZE // 2, "closure check would be vacuous"
    _verdict(5, "limit set closure", problems, "%d clean runs" % clean)


# ---------------------------------------------------------------------------
# 6: variant discipline
# ---------------------------------------------------------------------------

def test_criterion_06_variant_discipline(corpus):
    systems, _ = corpus
    problems = []
    d_tables = p_tables = 0
    for seed, system, trace in systems:
        d_ok, p_ok = variant_flags(system)
        kinds = {rec.kind for rec in trace.records}
        if p_ok:
            p_tables += 1
            if EXCISION in kinds:
                problems.append((seed, "excision in a p-table run"))
        if d_ok:
            d_tables += 1
            if REPLACEMENT in kinds:
                problems.append((seed, "replacement in a d-table run"))
    assert d_tables >= 50 and p_tables >= 50, "restrictions too thin"
    _verdict(6, "variant discipline", problems,
             "%d d-tables, %d p-tables" % (d_tables, p_tables))


# ---------------------------------------------------------------------------
# 7: diagonalization at the full desk horizon
# ---------------------------------------------------------------------------

def test_criterion_07_diagonalization_desk_scale(family_report):
    report, elapsed = family_report
    problems = []
    genuine = range(4)
    for i in genuine:
        w = report.witnesses[i]
        if w is None:
            problems.append((i, "no witness"))
            continue
        if report.gamma.loop_suspects or report.thetas[i].loop_suspects:
            problems.append((i, "estimate not window-stable"))
        home = w in report.gamma.belief_estimate
        away = w in report.thetas[i].belief_estimate
        if home == away:
            problems.append((i, "witness a%d does not separate" % w))
    if report.statuses[4] != "PO2wait":
        problems.append((4, "diverging-revision opponent: %s"
                         % report.statuses[4]))
    if report.statuses[5] != "S2wait":
        problems.append((5, "never-enumerating opponent: %s"
                         % report.statuses[5]))
    _verdict(7, "diagonalization desk scale", problems,
             "%.1fs, witnesses %s" % (elapsed, report.witnesses[:4]),
             elapsed, 300.0)
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8: finite injury and hands-off in the construction log
# ---------------------------------------------------------------------------

def test_criterion_08_finite_injury_and_hands_off(family_report):
    report, _ = family_report
    problems = []
    acts: dict[int, list[int]] = {}
    for rec in report.act_records:
        acts.setdefault(rec["strategy"], []).append(rec["stage"])
    for stage, hurt, by in report.injuries:
        if not by < hurt:
            problems.append(("upward injury", stage, hurt, by))
        last_higher = max((s for j in range(hurt) for s in acts.get(j, [])),
                          default=-1)
        if stage > last_higher:
            problems.append(("injury after higher strategies settled",
                             stage, hurt))
    problems.extend(audit_finite_injury(report))
    problems.extend(audit_hands_off(report))
    problems.extend(msg for msgs in run_all_audits(report).values()
                    for msg in msgs)
    _verdict(8, "finite injury and hands-off", problems,
             "%d injuries" % len(report.injuries))


# ---------------------------------------------------------------------------
# 9: set coding and index arithmetic
# ---------------------------------------------------------------------------

def test_criterion_09_set_codes_and_indices():
    t0 = time.perf_counter()
    problems = []
    for m in range(1 << 16):
        if pi_encode(pi_decode(m)) != m:
            problems.append(("code", m))
            break
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for k in (1, 7, 11, 49):
                    m = (2 ** a) * (3 ** b) * (5 ** c) * k
                    if decode_index(m) != (a, b, c):
                        problems.append(("index", m))
    elapsed = time.perf_counter() - t0
    _verdict(9, "set codes and indices", problems, "%.2fs" % elapsed,
             elapsed, 1.0)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 10: repair against a brute-force entrenchment-greedy oracle
# ---------------------------------------------------------------------------

def _random_kb(rng: Random) -> KnowledgeBase:
    n = rng.randrange(2, 7)
    items = list(range(n))
    rules = []
    for _ in range(rng.randrange(0, 5)):
        prem = rng.sample(items, rng.randrange(1, 3))
        concl = rng.choice(items)
        if concl not in prem:
            rules.append((frozenset(prem), concl))
    conflicts = []
    for _ in range(rng.randrange(1, 4)):
        width = min(rng.randrange(2, 4), n)
        conflicts.append(frozenset(rng.sample(items, width)))
    return KnowledgeBase(tuple(items), tuple(rules), tuple(conflicts))


def _chain(members, horn_rules):
    out = set(members)
    changed = True
    while changed:
        changed = False
        for prem, concl in horn_rules:
            if concl not in out and prem <= out:
                out.add(concl)
                changed = True
    return out


def _greedy_keep(kb: KnowledgeBase) -> list:
    kept: list = []
    for item in kb.items:
        closed = _chain(set(kept) | {item}, kb.horn_rules)
        if not any(c <= closed for c in kb.conflicts):
            kept.append(item)
    return kept


def test_criterion_10_repair_oracle():
    t0 = time.perf_counter()
    problems = []
    cases = 3000
    for case in range(cases):
        rng = Random(900000 + case)
        kb = _random_kb(rng)
        result = repair(kb, 400, window=50)
        if list(result.kept) != _greedy_keep(kb):
            problems.append((case, "kept set diverges from the oracle"))
            continue
        rep = result.stability   # the estimate against its frozenset oracle
        stable = result.trace.final_sigma[:rep.stable_prefix_length]
        if rep.belief_estimate != frozenset(t for t in stable if t != GAP):
            problems.append((case, "estimate differs from the frozenset"))
        table = from_horn(kb.items, kb.horn_rules, kb.conflicts)
        if BOT in limit_closure(table, frozenset(result.kept)):
            problems.append((case, "kept set still inconsistent"))
    elapsed = time.perf_counter() - t0
    _verdict(10, "repair oracle", problems,
             "%d cases, %.1fs" % (cases, elapsed), elapsed, 120.0)
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 11: rerun determinism, byte for byte
# ---------------------------------------------------------------------------

SPEC_TEXT = """\
variant q
axioms 6
at 8 : a0 a1 a2 a3 |- CE
at 42 : a0 a1 a2 a4 a5 |- BOT
replace a3 -> a5
"""

KB_TEXT = """\
item k0
item k1
item k2
item k3
rule k0 k1 -> k3
conflict k1 k2
replace k2 -> k3
"""

ADD_TEXT = """\
item k4
rule k4 -> k0
"""


def test_criterion_11_rerun_determinism(tmp_path):
    spec = tmp_path / "s.spec"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    kb = tmp_path / "b.kb"
    kb.write_text(KB_TEXT, encoding="utf-8")
    adds = tmp_path / "a.kb"
    adds.write_text(ADD_TEXT, encoding="utf-8")

    commands = [
        ("validate", ["validate", str(spec)], None),
        ("run", ["run", str(spec), "--horizon", "300", "--window", "50",
                 "--trace", "OUT"], "trace.txt"),
        ("diff-spec", ["diff", str(spec), "--horizon", "300"], None),
        ("diff-fuzz", ["diff", "--fuzz", "4", "--horizon", "200"], None),
        ("diagonalize", ["diagonalize", "--horizon", "400", "--window", "50",
                         "--report", "OUT"], "report.txt"),
        ("repair", ["repair", str(kb), "--horizon", "200", "--window", "50",
                    "--trace", "OUT"], "rtrace.txt"),
        ("revise", ["revise", str(kb), str(adds), "--horizon", "200",
                    "--window", "50", "--trace", "OUT"], "vtrace.txt"),
    ]
    problems = []
    for name, argv, outfile in commands:
        outputs = []
        for attempt in (1, 2):
            files = dict()
            argv_now = list(argv)
            if outfile:
                target = tmp_path / ("%d_%s" % (attempt, outfile))
                argv_now[argv_now.index("OUT")] = str(target)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv_now)
            body = buf.getvalue().encode()
            if outfile:
                body += target.read_bytes()
            outputs.append((code, body))
        if outputs[0] != outputs[1]:
            problems.append((name, "reruns differ"))
    _verdict(11, "rerun determinism", problems,
             "%d commands" % len(commands))
