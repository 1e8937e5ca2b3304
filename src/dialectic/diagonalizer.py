"""Priority construction separating one run from a roster of opponents.

Against each opponent we field one strategy.  A strategy claims a fresh
block of three axioms, watches the opponent's run for that block, and
forces our own run (the "home" run) to treat the block in exactly the
order the opponent cannot follow -- appending at most three rules to the
home system along the way.  Strategies are ranked; whenever one of them
acts, every lower-ranked strategy is thrown back to the start and must
later re-enter on an untouched block.  Because each strategy acts at most
four times per entry, every strategy is thrown back only finitely often,
and each ends up either completed or permanently parked on a condition
its opponent never satisfies.

The verdict for an opponent is a witness axiom on which the two limiting
belief estimates disagree: the least such axiom at or above the block of
the strategy's last entry, or else the least such axiom overall.

The scheduler logs what it does as one list of plain tuples
``(kind, stage, strategy, *payload)``, read by the report's views and the
audits: ``activate`` (block N, kept set S, and cut, the number of axioms
mentioned before; an entry also empties Z), ``act`` (label, timeline
detail, a dict of fields), ``claim`` (the new Z), ``rule`` (label, rule)
and ``injure`` (the index of the injuring strategy).  Mentioned axioms
are one flat list of their own.

Every stage without an act gives the home system one idle replacement
entry a_k -> a_k+1 on the least key not yet defined, so that its
replacement is total in the limit.  Each claim N -> N+2 lies above that
chain when it is made, so the chain is arithmetic and is not stored: after
i idle stages its keys are [0, k) minus the claims, where k is i plus the
number of claims below k.  The home run only ever replaces a claimed
anchor (a marker rule's least prefix ends at its anchor N), so the home
map holds only the claims.  The chain mentions axioms up to k; an entry
mentions k before it claims its block.

diagonalize moves from event to event (Diagonalizer.advance_to, through
engine.drive); the stage-by-stage run_to is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Optional

from .consequence import BOT, CE, Rule, RuleTable
from .engine import (QSystem, ReplacementMap, RunEngine, StabilityReport,
                     drive, estimate_beliefs, run)
from .opponents import PartialPSystem, pi_encode, r_iterate
from .strings import DialecticError, IntervalSet

__all__ = [
    "ClaimFreshnessError", "Strategy", "Diagonalizer", "DiagonalizationReport",
    "diagonalize", "report_of", "audit_freshness", "audit_finite_injury",
    "audit_hands_off", "audit_e_sets", "audit_ce_discipline", "audit_replay",
    "run_all_audits",
]


class ClaimFreshnessError(DialecticError, RuntimeError):
    """A strategy entered on a claimed axiom that already has a replacement."""

    fields = ("stage", "axiom")
    text = "claimed axiom %(axiom)s already mapped (stage %(stage)d)"


# strategy statuses; the waits name the condition being watched
DEACTIVATED = "deactivated"
S2WAIT = "S2wait"    # claimed block not yet enumerated by the opponent
PO2WAIT = "PO2wait"  # replacement-iterates of the enumerated prefix pending
S5WAIT = "S5wait"    # opponent has not yet shown the predicted prefix
S7WAIT = "S7wait"    # opponent has not yet marked the predicted prefix
S8DONE = "S8done"    # nothing left to do


class Strategy:
    """Mutable per-opponent state; one rank in the priority list."""

    def __init__(self, index: int, theta: PartialPSystem) -> None:
        self.index = index
        self.theta = theta
        self.status = DEACTIVATED
        self.N = -1
        self.reset_for_entry()

    def reset_for_entry(self) -> None:
        self.S: frozenset[int] = frozenset()
        self.Z: frozenset[int] = frozenset()
        self.E: Optional[frozenset[int]] = None
        self.a_I: Optional[int] = None
        self.a_J: Optional[int] = None
        self.rho: Optional[tuple[int, ...]] = None
        self.rho_code = 0
        self.skip = False
        self.n = 0            # last enumeration position of the claimed block
        self.tau: list[int] = []
        self._s5_version = -1
        self.parked = False   # PO2wait: the test met a cycle; it fails for good


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------

class Diagonalizer:
    """Drives the home run, the opponents, and the strategies, stage by
    stage (run_to) or from event to event (advance_to).

    Stage s does, in order: one strategy act (the highest-ranked whose
    watched condition holds), else the idle work (re-entry of the
    highest-ranked thrown-back strategy; the stage's idle replacement
    entry is counted, not stored); then one home-run step; then one
    budgeted step of every opponent with fuel s.
    """

    def __init__(self, opponents, fuel_cap: int = None) -> None:
        self.table = RuleTable()
        self.replacement = ReplacementMap()
        self.engine = RunEngine(QSystem(self.table, self.replacement))
        self.fuel_cap = fuel_cap
        self.strategies = [Strategy(i, th) for i, th in enumerate(opponents)]
        self.mentions: list[int] = []
        self.events: list[tuple] = []   # see the module docstring
        self.stage = self.bulk_stretches = self.bulk_stages = 0
        self.acts = self.top_mention = 0   # the "act" events; max(mentions)

    def _fuel(self, s: int) -> int:
        """Budget for opponent programs at stage s (capped if asked)."""
        return s if self.fuel_cap is None else min(s, self.fuel_cap)

    # -- bookkeeping --------------------------------------------------------

    def _mention(self, *values: int) -> None:
        self.mentions += values
        self.top_mention = max(self.top_mention, *values)

    def _set_z(self, strat: Strategy, z: frozenset, stage: int) -> None:
        strat.Z = z
        self.events.append(("claim", stage, strat.index, z))

    def _add_rule(self, stage: int, premises: frozenset, conclusion: int,
                  strat: Strategy, label: str) -> None:
        r = Rule(stage, premises, conclusion)
        self.engine.append_rule(r)
        self.events.append(("rule", stage, strat.index, label, r))
        self._mention(*premises)

    def _log_act(self, stage: int, strat: Strategy, label: str, detail: str,
                 **fields) -> None:
        self.events.append(("act", stage, strat.index, label, detail, fields))
        self.acts += 1

    def _deactivate_below(self, index: int, stage: int) -> None:
        for strat in self.strategies[index + 1:]:
            if strat.status != DEACTIVATED:
                self.events.append(("injure", stage, strat.index, index))
                strat.status = DEACTIVATED

    # -- entries ------------------------------------------------------------

    def _enter(self, strat: Strategy, stage: int) -> None:
        # the idle chain's end k: one key per idle stage so far, skipping
        # the claims below it (explicit_items is ascending)
        k = self.stage - self.acts
        for claim, _ in self.replacement.explicit_items():
            k += claim < k
        if k > self.top_mention:   # the chain mentions up to k
            self._mention(k)
        cut = len(self.mentions)
        N = 3 + self.top_mention
        strat.reset_for_entry()
        strat.N = N
        strat.S = frozenset(range(N)) - frozenset().union(
            *(st.Z for st in self.strategies[:strat.index]))
        if self.replacement.get(N) is not None:
            raise ClaimFreshnessError(stage, N)
        self.replacement.define(N, N + 2)
        self._mention(N, N + 1, N + 2)
        strat.status = S2WAIT
        self.events.append(("activate", stage, strat.index, N, strat.S, cut))

    # -- one move per waiting status ----------------------------------------
    #
    # Each move tests its status's condition at stage s; when it holds, the
    # move takes the act and returns True.

    def _claim_found(self, strat: Strategy, s: int) -> bool:
        """S2wait: the opponent has enumerated the block; S2 fixes the mode."""
        th = strat.theta
        N = strat.N
        pos = [th.enum_position(v) for v in (N, N + 1, N + 2)]
        if None in pos:
            return False
        l, m, n = sorted(pos)
        if len(th.tape) <= n:
            return False
        g_l = th.g_value(l, self._fuel(s))
        if th.r_value(g_l, self._fuel(s)) is None:
            return False
        strat.n = n
        self._mention(th.top(), n)
        if g_l == N:
            strat.E = frozenset({N}).union(
                *(st.Z for st in self.strategies[:strat.index]))
            strat.status = PO2WAIT
            mode = "anchor-first"
        else:
            strat.skip, strat.a_I, strat.a_J = True, N + 2, N + 1
            strat.status = S5WAIT
            mode = "decoy-first"
        self._log_act(s, strat, "S2", "%s l=%d m=%d n=%d" % (mode, l, m, n),
                      mode=mode, E=strat.E)
        return True

    def _order_predicted(self, strat: Strategy, s: int) -> bool:
        """PO2wait: every replacement-iterate below n is known; S4 predicts.

        An iteration that fails without an r stall has met a cycle.  The r
        values on it never change, so it fails alike at every later stage:
        the strategy is parked."""
        th = strat.theta
        tau = strat.tau
        while len(tau) < strat.n:
            stalls = th.diverge_counts["r"]
            res = r_iterate(th, th.g_value(len(tau), self._fuel(s)), strat.E,
                            self._fuel(s))
            if res is None:
                strat.parked = stalls == th.diverge_counts["r"]
                return False
            tau.append(res[0])
        N = strat.N
        self._mention(*tau)
        idx = next(i for i, v in enumerate(tau) if v in (N + 1, N + 2))
        rho = strat.rho = tuple(tau[:idx + 1])
        if rho[-1] == N + 1:
            case, strat.a_I, strat.a_J, conclusion = 1, N + 1, N + 2, CE
        else:
            case, strat.a_I, strat.a_J, conclusion = 2, N + 2, N + 1, BOT
        self._add_rule(s, strat.S | {N}, conclusion, strat, "S4")
        self._set_z(strat, frozenset({N}), s)
        strat.status = S5WAIT
        self._log_act(s, strat, "S4", "case=%d aI=a%d aJ=a%d |rho|=%d"
                      % (case, strat.a_I, strat.a_J, len(rho)),
                      case=case, rho=rho)
        return True

    def _pair_split(self, strat: Strategy, s: int) -> bool:
        """S5wait: the opponent shows the prefix; S6 splits the pair."""
        th = strat.theta
        if th.version == strat._s5_version:
            return False
        strat._s5_version = th.version
        if strat.skip:
            fo_i = th.first_occurrence(strat.a_I)
            fo_j = th.first_occurrence(strat.a_J)
            if fo_i is None or fo_j is None or fo_i >= fo_j:
                return False
            strat.rho = tuple(th.tape.head(fo_i + 1))
            self._mention(*strat.rho)
        elif not _shows(th, strat.rho):
            return False
        strat.rho_code = pi_encode(strat.rho)
        self._add_rule(s, strat.S | {strat.a_I, strat.a_J}, BOT,
                       strat, "S6")
        self._set_z(strat, frozenset({strat.a_I} if strat.skip
                                     else {strat.N, strat.a_I}), s)
        strat.status = S7WAIT
        self._log_act(s, strat, "S6", "aI=a%d aJ=a%d |rho|=%d"
                      % (strat.a_I, strat.a_J, len(strat.rho)),
                      rho=strat.rho)
        return True

    def _finish(self, strat: Strategy, s: int) -> bool:
        """S7wait: the opponent marks the predicted prefix; S8 finishes."""
        if not strat.theta.ce_upto(strat.rho_code, s, self._fuel(s)):
            return False
        self._add_rule(s, strat.S | {strat.a_J}, BOT, strat, "S8")
        self._set_z(strat, (strat.Z - {strat.a_I}) | {strat.a_J}, s)
        strat.status = S8DONE
        self._log_act(s, strat, "S8", "aJ=a%d" % strat.a_J)
        return True

    _MOVES = {S2WAIT: _claim_found, PO2WAIT: _order_predicted,
              S5WAIT: _pair_split, S7WAIT: _finish}

    # -- the drive loop -----------------------------------------------------

    def run_to(self, horizon: int) -> None:
        while self.stage < horizon:
            s = self.stage + 1
            for strat in self.strategies:
                move = self._MOVES.get(strat.status)
                if move is not None and move(self, strat, s):
                    self._deactivate_below(strat.index, s)
                    break
            else:   # idle: the highest-ranked thrown-back strategy enters
                for strat in self.strategies:
                    if strat.status == DEACTIVATED:
                        self._enter(strat, s)
                        break
            self.engine.step_once()
            for strat in self.strategies:
                strat.theta.step(self._fuel(s))
            self.stage = s

    # -- the event form -----------------------------------------------------

    def advance_to(self, horizon: int) -> None:
        """run_to(horizon), from event to event.  If this run's fuel
        never saturates some opponent, all stages are events."""
        if any(st.theta.saturation > self._fuel(horizon)
               for st in self.strategies):
            return self.run_to(horizon)
        drive(self, horizon, lambda: self.run_to(self.stage + 1))

    def skip_to(self, end: int) -> None:
        """Take the quiet stages up to end: each is idle (no move acts, no
        strategy enters), so every layer takes the stretch in bulk."""
        self.engine.skip_to(end)
        for strat in self.strategies:
            strat.theta.skip_to(end)
        self.stage = end

    def next_event(self, horizon: int) -> int:
        """The last stage up to which the stages after this one are quiet:
        this stage itself when the next one is an event.

        An opponent reads its enumeration ahead up to the bound it is
        given, so the opponents are asked about ever longer stretches."""
        s = self.stage + 1
        end = min([horizon] + [self._earliest_act(st, s) - 1
                               for st in self.strategies])
        if end < s:
            return s - 1
        end = self.engine.next_event(end)
        stops = [[v for v in range(st.N, st.N + 3)
                  if st.theta.listed_at(v, self._fuel(s)) is None]
                 if st.status == S2WAIT else () for st in self.strategies]
        reach = 64
        while True:
            cap = quiet = min(end, s + reach)
            for strat, values in zip(self.strategies, stops):
                quiet = strat.theta.next_event(quiet, self._fuel(s), values)
            if quiet < cap or cap == end:
                return quiet
            reach *= 4

    def _earliest_act(self, strat: Strategy, s: int):
        """The first stage from s at which strat's move may act or count a
        stall, while each opponent only extends its string or stalls, and
        stops before enumerating a value of an S2wait block that it cannot
        place yet (listed_at) and before a watched value arrives."""
        th, status = strat.theta, strat.status
        if status == S2WAIT:
            pos = [th.listed_at(v, self._fuel(s))
                   for v in range(strat.N, strat.N + 3)]
            if None in pos:
                return math.inf
            return s + max(0, max(pos) + 1 - len(th.tape))
        if status == S5WAIT and not strat.skip:   # σ[:|ρ|] moves by a cut
            ready = len(th.tape) < len(strat.rho) or _shows(th, strat.rho)
        elif status == S5WAIT:
            fo = [th.first_occurrence(v) for v in (strat.a_I, strat.a_J)]
            ready = None not in fo and fo[0] < fo[1]
        elif status == S7WAIT and self._fuel(s) >= th.saturation:
            return th.first_mark(s, strat.rho_code)
        else:
            parked = status == PO2WAIT and strat.parked
            return math.inf if parked or status == S8DONE else s
        # the move tests again only once σ has changed
        return s if ready and th.version != strat._s5_version else math.inf


def _shows(th: PartialPSystem, rho: tuple) -> bool:
    """Whether the opponent's σ starts with rho."""
    return len(th.tape) >= len(rho) and tuple(th.tape.head(len(rho))) == rho


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@dataclass
class DiagonalizationReport:
    horizon: int
    window: int
    opponent_names: tuple[str, ...]
    statuses: tuple[str, ...]
    Ns: tuple[int, ...]
    Zs: tuple[frozenset, ...]
    witnesses: tuple[Optional[int], ...]
    gamma: StabilityReport
    thetas: tuple[StabilityReport, ...]
    claims: tuple[tuple[int, int], ...]   # the home map, ascending
    mentions: tuple[int, ...]
    events: tuple[tuple, ...]
    notes: tuple[str, ...]

    # views of the event list: they store nothing, so they follow an edit

    @property
    def timeline(self) -> tuple[str, ...]:
        lines = []
        for kind, stage, i, *payload in self.events:
            if kind == "activate":
                lines.append("%d\tactivate R%d N=%d" % (stage, i, payload[0]))
            elif kind == "act":
                lines.append("%d\tact R%d %s %s" % (stage, i, *payload[:2]))
            elif kind == "injure":
                lines.append("%d\tinjure R%d by R%d" % (stage, i, payload[0]))
        return tuple(lines)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(e[4] for e in self.events if e[0] == "rule")

    @property
    def injuries(self) -> tuple[tuple[int, int, int], ...]:
        """(stage, hurt, by) for every throw-back."""
        return tuple(e[1:] for e in self.events if e[0] == "injure")

    @property
    def act_records(self) -> tuple[dict, ...]:
        return tuple({"stage": e[1], "strategy": e[2], "label": e[3], **e[5]}
                     for e in self.events if e[0] == "act")

    @property
    def idle(self) -> int:
        """The stages without an act: each defined one idle entry."""
        return self.horizon - sum(e[0] == "act" for e in self.events)

    def replacement_items(self, limit: int) -> list[tuple[int, int]]:
        """The first `limit` entries of the home replacement: the claims
        and, on the least keys no claim holds, one a_k -> a_k+1 per idle
        stage."""
        claimed = dict(self.claims)
        chain = (k for k in count() if k not in claimed)
        idle = [(k, k + 1) for k in islice(chain, min(self.idle, limit))]
        return sorted([*self.claims, *idle])[:limit]

    def witness_token(self, i: int) -> str:
        w = self.witnesses[i]
        return "-" if w is None else "a%d" % w

    def verdict_lines(self) -> list[str]:
        return ["opponent %d: %s witness=%s"
                % (i, self.statuses[i], self.witness_token(i))
                for i in range(len(self.statuses))]

    def render(self) -> str:
        out = ["diagonalization report",
               "horizon %d window %d" % (self.horizon, self.window),
               "opponents:"]
        out.extend("  %d %s" % pair for pair in enumerate(self.opponent_names))
        out.append("[timeline]")
        out.extend(self.timeline)
        out.append("[rules]")
        rules = (e for e in self.events if e[0] == "rule")
        for idx, (_, _, i, _, rule) in enumerate(rules):
            out.append("%d\tR%d\t%s" % (idx, i, rule.render()))
        out.append("[replacement]")
        shown = self.replacement_items(64)
        out.extend("a%d -> a%d" % pair for pair in shown)
        rest = self.idle + len(self.claims) - len(shown)
        if rest > 0:
            out.append("... %d more entries" % rest)
        out.append("[injuries]")
        per: dict[int, list[int]] = {}
        for stage, hurt, _by in self.injuries:
            per.setdefault(hurt, []).append(stage)
        out.extend(["R%d injured %d times, last at stage %d"
                    % (hurt, len(stages), stages[-1])
                    for hurt, stages in sorted(per.items())] or ["none"])
        out.append("[verdicts]")
        out.extend(self.verdict_lines())
        out.append("[notes]")
        out.extend(self.notes or ["none"])
        return "\n".join(out) + "\n"


def _witness(diff: IntervalSet, floor: int) -> Optional[int]:
    """The least axiom of diff at or above floor, else its least, if any."""
    w = diff.first_from(floor)
    return diff.first_from(0) if w is None else w


def diagonalize(opponents, horizon: int, window: int = 100,
                fuel_cap: int = None) -> DiagonalizationReport:
    """Run the whole construction and assemble its report."""
    diag = Diagonalizer(opponents, fuel_cap=fuel_cap)
    diag.advance_to(horizon)
    return report_of(diag, window)


def report_of(diag: Diagonalizer, window: int) -> DiagonalizationReport:
    """The report on diag's run so far: its stage is the horizon."""
    horizon = diag.stage
    gamma = estimate_beliefs(diag.engine.trace(), window)
    thetas = tuple(st.theta.stability_report(horizon, window)
                   for st in diag.strategies)
    witnesses = []
    notes = []
    for strat, threp in zip(diag.strategies, thetas):
        diff = gamma.belief_estimate ^ threp.belief_estimate
        witnesses.append(_witness(diff, strat.N if strat.N >= 0 else 0))
        th = strat.theta
        if th.invalid_reason:
            notes.append("opponent %d: %s" % (strat.index, th.invalid_reason))
        if th.r_cycle_found:
            notes.append("opponent %d: replacement cycle detected; not a "
                         "counterexample system" % strat.index)
        stalls = th.diverge_counts
        if any(stalls.values()):
            notes.append("opponent %d: stalled steps g=%d H=%d r=%d"
                         % (strat.index, stalls["g"], stalls["H"],
                            stalls["r"]))
        if threp.loop_suspects:
            notes.append("opponent %d: %d positions still moving inside "
                         "the window" % (strat.index, len(threp.loop_suspects)))
    if gamma.loop_suspects:
        notes.append("home run: %d positions still moving inside the window"
                     % len(gamma.loop_suspects))
    return DiagonalizationReport(
        horizon=horizon,
        window=window,
        opponent_names=tuple(st.theta.name for st in diag.strategies),
        statuses=tuple(st.status for st in diag.strategies),
        Ns=tuple(st.N for st in diag.strategies),
        Zs=tuple(st.Z for st in diag.strategies),
        witnesses=tuple(witnesses),
        gamma=gamma,
        thetas=thetas,
        claims=tuple(diag.replacement.explicit_items()),
        mentions=tuple(diag.mentions),
        events=tuple(diag.events),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------
#
# Every audit recomputes its property from the report's event list in one
# forward pass and returns a list of problem descriptions; empty means the
# property held on this run.

def _claimed_rules(events):
    """Each rule as (rule, N, S), with N and S from its strategy's entry."""
    entry = {}
    for kind, _stage, i, *payload in events:
        if kind == "activate":
            entry[i] = payload[:2]
        elif kind == "rule":
            yield (payload[1], *entry[i])


def audit_freshness(report: DiagonalizationReport) -> list[str]:
    """Each entry's claimed block lies above everything mentioned before."""
    problems = []
    ceiling = seen = 0   # the largest of the first `seen` mentions
    for kind, stage, i, *payload in report.events:
        if kind == "activate":
            N, _, cut = payload
            ceiling = max([ceiling, *report.mentions[seen:cut]])
            seen = cut
            if N <= ceiling:
                problems.append(
                    "entry of R%d at stage %d claimed a%d, but a%d was "
                    "already mentioned" % (i, stage, N, ceiling))
    return problems


def audit_finite_injury(report: DiagonalizationReport) -> list[str]:
    """Throw-backs are bounded by higher-ranked activity and settle."""
    n = len(report.statuses)
    stages = {kind: [[] for _ in range(n)]
              for kind in ("act", "injure", "activate")}
    for kind, stage, i, *_ in report.events:
        if kind in stages:
            stages[kind][i].append(stage)
    acts, hurt, entries = stages["act"], stages["injure"], stages["activate"]
    problems = []
    for i in range(n):
        higher = [stage for j in range(i) for stage in acts[j]]
        if len(hurt[i]) > len(higher):
            problems.append("R%d thrown back %d times but higher strategies "
                            "acted only %d times" % (i, len(hurt[i]),
                                                     len(higher)))
        last_higher = max(higher, default=0)
        if entries[i] and entries[i][-1] <= last_higher:
            problems.append("R%d never re-entered after the last "
                            "higher-ranked act at stage %d" % (i, last_higher))
        if not entries[i] and report.statuses[i] != DEACTIVATED:
            problems.append("R%d has status %s without any entry"
                            % (i, report.statuses[i]))
    return problems


def audit_hands_off(report: DiagonalizationReport) -> list[str]:
    """Below each strategy's block, the home beliefs equal the default
    listing minus exactly the removals claimed by higher strategies."""
    problems = []
    B = report.gamma.belief_estimate
    for i, N in enumerate(report.Ns):
        if N < 0:
            continue
        removed = IntervalSet.of(frozenset().union(*report.Zs[:i])).below(N)
        expected = IntervalSet.of((), 0, N) ^ removed
        actual = B.below(N)
        if actual != expected:
            problems.append(
                "below a%d the home beliefs differ from the claim at %s"
                % (N, list(actual ^ expected)))
    return problems


def audit_e_sets(report: DiagonalizationReport) -> list[str]:
    """Frozen iteration-escape sets match the claims current at freezing."""
    problems = []
    block, claim = {}, {}   # each strategy's current N and Z
    for kind, stage, i, *payload in report.events:
        if kind == "activate":
            block[i], claim[i] = payload[0], frozenset()
        elif kind == "claim":
            claim[i] = payload[0]
        elif kind == "act" and payload[2].get("E") is not None:
            E = payload[2]["E"]   # frozen by S2 in the anchor-first mode
            expected = frozenset({block[i]}).union(
                *(z for j, z in claim.items() if j < i))
            if E != expected:
                problems.append(
                    "R%d froze escape set %s at stage %d; expected %s"
                    % (i, sorted(E), stage, sorted(expected)))
    return problems


def audit_ce_discipline(report: DiagonalizationReport) -> list[str]:
    """Marker rules carry exactly the appender's kept set plus its anchor."""
    problems = []
    for r, N, S in _claimed_rules(report.events):
        if r.conclusion == CE and r.premises != S | {N}:
            problems.append("marker rule at stage %d has premises %s; "
                            "expected %s" % (r.stage, sorted(r.premises),
                                             sorted(S | {N})))
    return problems


def audit_replay(report: DiagonalizationReport) -> list[str]:
    """Each appended rule only moves beliefs at or above its block."""
    problems = []
    repl = ReplacementMap(report.claims)
    rules = report.rules

    def estimate(k):   # the beliefs of the home run with the first k rules
        return estimate_beliefs(
            run(QSystem(RuleTable(rules[:k]), repl), report.horizon),
            report.window).belief_estimate

    before = estimate(0)
    for k, (r, cut, _) in enumerate(_claimed_rules(report.events)):
        after = estimate(k + 1)
        low_a, low_b = after.below(cut), before.below(cut)
        if low_a != low_b:
            problems.append(
                "rule %d (stage %d) moved beliefs below a%d: %s"
                % (k, r.stage, cut, list(low_a ^ low_b)))
        before = after
    return problems


def run_all_audits(report: DiagonalizationReport) -> dict[str, list[str]]:
    return {
        "freshness": audit_freshness(report),
        "finite-injury": audit_finite_injury(report),
        "hands-off": audit_hands_off(report),
        "escape-sets": audit_e_sets(report),
        "marker-discipline": audit_ce_discipline(report),
        "replay": audit_replay(report),
    }
