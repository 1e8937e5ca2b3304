"""The run recursion: belief strings evolving under a staged operator.

At stage ``s`` the agent inspects its current string σ.  If some prefix of σ
already supports the inconsistency marker or the counterexample marker under
the operator at stage ``s``, the least such prefix is cut back: ⊥ excises the
offending last axiom, ce replaces it via the replacement map (⊥ wins a tie at
the same prefix).  Otherwise the string expands with the next axiom of the
canonical listing.

Two implementations are provided on purpose: :func:`step` is a direct,
definition-shaped reference, while :class:`RunEngine` keeps incremental
state (first-occurrence positions of the premises) and skips the quiet
stages between events in bulk (:func:`drive`), so that long horizons stay
cheap.  The test-suite replays one against the other.  RunEngine and the
stack engine share one rule core: rule form, scan, tie rule, arrival bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .consequence import BOT, CE, Rule, RuleTable, check_no_empty_derivation, evaluate
from .strings import (GAP, IDENTITY, BeliefString, DialecticError, IntervalSet, Shape,
                      Tape, contraction, excision, expansion, replacement, token_to_str)

EXPANSION = "EXP"
EXCISION = "EXC"
REPLACEMENT = "REP"


class ReplacementCycleError(DialecticError, ValueError):
    """An inserted replacement edge closes a cycle within ``depth`` steps."""

    fields = ("axiom", "depth")
    text = "replacement cycle through %(axiom)s within depth %(depth)d"


class ReplacementFixedPointError(ReplacementCycleError):
    """A replacement entry maps an axiom to itself: a cycle of one step."""

    fields = ("axiom",)
    text = "replacement fixed point at %(axiom)s"


class GapSkipError(DialecticError, RuntimeError):
    """The least marked prefix ends in a gap, which the run recursion excludes."""

    fields = ("stage", "position")
    text = ("gap-skip violated: least prefix ends in a gap"
            " (stage %(stage)d, position %(position)d)")


class MissingReplacementError(DialecticError, RuntimeError):
    """A replacement was demanded for an axiom the map does not cover."""

    fields = ("stage", "position", "axiom")
    text = "no replacement for %(axiom)s (stage %(stage)d, position %(position)d)"


class ReplacementMap:
    """Partial map axiom → axiom with no fixed points and no short cycles.

    Entries may be given explicitly or supplied lazily by ``default_fn``;
    lazily produced values are cached and checked exactly like explicit ones.
    ``allow_pair`` whitelists one specific 2-cycle (used by the legacy
    translation, whose printed back-map swaps the two marker images).
    """

    CHECK_DEPTH = 64

    def __init__(
        self,
        entries: Iterable[tuple[int, int]] | dict[int, int] = (),
        default_fn: Optional[Callable[[int], int]] = None,
        allow_pair: Optional[tuple[int, int]] = None,
    ) -> None:
        self._map: dict[int, int] = {}
        self._default = default_fn
        self._allow = frozenset(allow_pair) if allow_pair else frozenset()
        items = entries.items() if isinstance(entries, dict) else entries
        for i, j in items:
            self.define(i, j)

    def define(self, i: int, j: int) -> None:
        if i < 0 or j < 0:
            raise ValueError("replacement entries must be axioms")
        if i == j:
            raise ReplacementFixedPointError(i)
        if not (self._allow and i in self._allow and j in self._allow):
            v = j
            for _ in range(self.CHECK_DEPTH):
                if v == i:
                    raise ReplacementCycleError(i, self.CHECK_DEPTH)
                nxt = self._map.get(v)
                if nxt is None:
                    break
                v = nxt
        self._map[i] = j

    def get(self, i: int) -> Optional[int]:
        if i in self._map:
            return self._map[i]
        if self._default is None:
            return None
        # materialize the default chain from i, bounded by the check depth
        v = i
        for _ in range(self.CHECK_DEPTH):
            if v in self._map:
                break
            j = self._default(v)
            self.define(v, j)
            v = j
        return self._map[i]

    @property
    def has_default(self) -> bool:
        return self._default is not None

    # Without a default_fn, _map holds exactly the explicit entries; the
    # three readers below are only asked about such maps.

    def explicit_items(self) -> list[tuple[int, int]]:
        return sorted(self._map.items())

    def max_index(self) -> int:
        return max(map(max, self._map.items()), default=-1)

    def __repr__(self) -> str:
        return "ReplacementMap(%d explicit)" % len(self._map)


@dataclass
class QSystem:
    """A dialectical system: staged operator table plus replacement map.

    The axiom universe is the identity listing a0, a1, ...; the string's
    expansion step always appends ``a_len``.
    """

    table: RuleTable
    replacement: ReplacementMap

    def __post_init__(self) -> None:
        check_no_empty_derivation(self.table)


# ---------------------------------------------------------------------------
# trace containers
# ---------------------------------------------------------------------------

class StepRecord(NamedTuple):
    stage: int
    kind: str           # EXP | EXC | REP
    k: Optional[int]    # 1-based prefix length for EXC/REP
    old: Optional[int]  # axiom leaving the string (EXC/REP)
    new: Optional[int]  # replacement image (REP only)


@dataclass
class RunTrace:
    """Compact run history: the events, the horizon and the final string.

    Only excisions and replacements are stored (``event_records``, in stage
    order); every other stage below ``horizon`` expands σ with a_len.
    ``records`` is a lazy per-stage view, and ``iter_sigmas`` and
    :func:`write_trace` walk the events and the quiet stretches between
    them.  The final string is ``prefix``, σ right after the last event
    (empty when there is none), followed by ``listing`` listing tokens
    a_L, a_L+1, ... (L = len(prefix)), one per stage since;
    ``final_sigma`` builds it on demand.  So a stored run costs memory in
    proportion to its events.
    """

    event_records: list[StepRecord]
    horizon: int
    prefix: BeliefString
    listing: int = 0

    @property
    def final_sigma(self) -> BeliefString:
        toks = self.prefix.tokens
        return BeliefString(toks + tuple(range(len(toks), len(toks) + self.listing)))

    @property
    def records(self) -> "StageRecords":
        return StageRecords(self)

    def _stretches(self) -> Iterator[tuple[int, int, Optional[StepRecord]]]:
        """Yield (start, end, event): expansions at stages start..end-1, then
        the event at stage end, or None for the quiet tail to the horizon."""
        start = 0
        for rec in self.event_records:
            yield start, rec.stage, rec
            start = rec.stage + 1
        yield start, self.horizon, None

    def iter_sigmas(self) -> Iterator[tuple[int, ...]]:
        """Yield σ_0 .. σ_horizon as plain tuples.

        Every σ_s is materialised as a fresh tuple, so a full pass costs
        O(Σ_s |σ_s|): quadratic in the horizon for a run that mostly
        expands.  Consecutive yields share their unchanged entries as the
        same objects, so comparing one string with the next takes the
        identity path on those entries.
        """
        sigma: list[int] = []
        yield ()
        for start, end, rec in self._stretches():
            for _ in range(start, end):
                sigma.append(len(sigma))
                yield tuple(sigma)
            if rec is not None:
                _apply_record(sigma, rec)
                yield tuple(sigma)

    def __len__(self) -> int:
        return self.horizon


@dataclass(eq=False)
class StageRecords:
    """Per-stage view of a :class:`RunTrace`: its event records, with an
    EXP record made on the fly for every stage between them."""

    trace: RunTrace

    def __len__(self) -> int:
        return self.trace.horizon

    def __iter__(self) -> Iterator[StepRecord]:
        for start, end, rec in self.trace._stretches():
            for s in range(start, end):
                yield StepRecord(s, EXPANSION, None, None, None)
            if rec is not None:
                yield rec

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


def _apply_record(sigma: list[int], rec: StepRecord) -> None:
    """Apply one event (EXC or REP) to σ in place."""
    del sigma[rec.k - 1:]
    sigma.append(GAP if rec.kind == EXCISION else rec.new)


# ---------------------------------------------------------------------------
# reference stepper (definition-shaped; used as an oracle by the tests)
# ---------------------------------------------------------------------------

def step(system: QSystem, sigma: BeliefString, s: int) -> tuple[BeliefString, StepRecord]:
    """One stage of the run recursion, computed directly from the definition:
    contract σ to the least marked prefix, then excise or replace its last
    axiom; with no marked prefix, expand."""
    toks = sigma.tokens
    prefix_range: set[int] = set()
    for k in range(1, len(toks) + 1):
        tok = toks[k - 1]
        if tok != GAP:
            prefix_range.add(tok)
        syms = evaluate(system.table, s, prefix_range)
        if BOT not in syms and CE not in syms:
            continue
        if tok == GAP:
            raise GapSkipError(s, k - 1)
        prefix = contraction(sigma, k) if k < len(toks) else sigma
        if BOT in syms:
            return excision(prefix), StepRecord(s, EXCISION, k, tok, None)
        image = system.replacement.get(tok)
        if image is None:
            raise MissingReplacementError(s, k - 1, tok)
        return (replacement(prefix, image),
                StepRecord(s, REPLACEMENT, k, tok, image))
    return expansion(sigma), StepRecord(s, EXPANSION, None, None, None)


# ---------------------------------------------------------------------------
# incremental engine
# ---------------------------------------------------------------------------

def marker_rule(stage: int, premises: Iterable[int],
                is_ce: bool) -> tuple[int, tuple[int, ...], bool]:
    """(stage, premises highest first, is_ce), the one rule form: the
    premise a cut removed or growth has yet to reach is most often the
    highest (the diagonalizer's anchor N), and scans stop at it."""
    return stage, tuple(sorted(premises, reverse=True)), is_ce


def least_marks(rules, s: int, cover: Callable[[Iterable[int]], Optional[int]],
                most: int) -> list[Optional[int]]:
    """[z_c, z_ce]: per marker, the least prefix length at most ``most``
    that ``cover`` gives a rule of its kind whose stage has come, or None."""
    least = [most + 1, most + 1]
    for stage, premises, is_ce in rules:
        if stage <= s:
            k = cover(premises)
            if k is not None and k < least[is_ce]:
                least[is_ce] = k
    return [k if k <= most else None for k in least]


def select_clause(z_c: Optional[int],
                  z_ce: Optional[int]) -> tuple[int, Optional[int]]:
    """The clause that fires and its position: 1 (expand), 2 (⊥ at z_c)
    or 3 (ce at z_ce).  The least marked level decides, and at a tie the
    inconsistency wins, as in the published recursion.  One rule serves
    both machines; the stack engines look it up at call time as
    ``legacy._select_clause``, so a test can patch their side alone."""
    if z_c is None and z_ce is None:
        return 1, None
    if z_ce is None or (z_c is not None and z_c <= z_ce):
        return 2, z_c
    return 3, z_ce


def next_usable(rules, s: int, horizon: int, tape: Tape,
                index: Callable[[int], int], most: int) -> int:
    """The first stage from ``s`` (at most ``horizon``) at which a rule's
    premises can all lie below ``most`` while ``tape`` grows by one listing
    token a stage: a premise at q needs q - most + 1 more stages, and an
    absent one arrives where ``index`` places it (-1: never, so it bounds
    nothing), unless that is below the tape's length."""
    first, L, best = tape.first, len(tape), horizon
    for stage, premises, _ in rules:
        need = 0
        for y in premises:
            q = first.get(y)
            if q is None:
                q = index(y)
                if 0 <= q < L:
                    break  # cannot return without an event
            if q - most >= need:   # no max(): most premises are present
                need = q - most + 1
        else:
            best = min(best, max(stage, s + need))
    return best


def drive(runner, horizon: int, step: Callable[[], object]) -> None:
    """Take ``runner`` to stage ``horizon``: ``step`` where its
    ``next_event`` is the current stage, else ``skip_to`` that stage in
    bulk (it may stop short), counted in ``bulk_stretches`` and
    ``bulk_stages``.  Every run engine and the diagonalizer share it."""
    while runner.stage < horizon:
        t, s = runner.next_event(horizon), runner.stage
        if t <= s:
            step()
            continue
        runner.skip_to(t)
        runner.bulk_stretches += 1
        runner.bulk_stages += runner.stage - s


class RunEngine:
    """Stateful run driver whose cost follows the events, not the stages.

    σ lives on a :class:`Tape` that watches every axiom some event rule
    mentions, and the rule core shared with the stack engine decides each
    stage and bounds the next event.  Expansions add to the tape's listing
    count, quiescent stretches (no rule can fire) in bulk, so σ stores only
    the tokens up to its last cut; only the events are recorded.  Rules
    may be appended mid-run (the diagonalizer does); a rule whose stage
    has passed acts at once, and a new premise is found in σ once.
    """

    def __init__(self, system: QSystem) -> None:
        self.system = system
        self.tape = Tape()
        self.stage = self.bulk_stretches = self.bulk_stages = 0
        self.event_records: list[StepRecord] = []
        self._rules: list[tuple[int, tuple[int, ...], bool]] = []
        for r in system.table:
            self._admit(r)

    def _admit(self, r: Rule) -> None:
        if r.conclusion not in (BOT, CE):
            return  # axiom-producing rules never trigger events
        if not r.premises:
            raise ValueError("event rule with empty premises")
        rule = marker_rule(r.stage, r.premises, r.conclusion == CE)
        for p in rule[1]:
            self.tape.watch(p)
        self._rules.append(rule)

    def append_rule(self, r: Rule) -> None:
        """Admit a rule mid-run and add it to the system's table; it
        participates from its stage onward, at once if that has passed."""
        self._admit(r)
        self.system.table.append(r)

    # -- stages -------------------------------------------------------------

    def step_once(self) -> StepRecord:
        """Advance exactly one stage and return its record."""
        s, tape = self.stage, self.tape
        clause, k = select_clause(*least_marks(self._rules, s, tape.cover,
                                               len(tape)))
        if clause == 1:
            tape.extend_listing(1)
            self.stage = s + 1
            return StepRecord(s, EXPANSION, None, None, None)
        old, new = tape.at(k - 1), None
        if old == GAP:
            raise GapSkipError(s, k - 1)
        if clause == 3:
            new = self.system.replacement.get(old)
            if new is None:
                raise MissingReplacementError(s, k - 1, old)
        tape.cut(k - 1)
        tape.push(GAP if new is None else new)
        rec = StepRecord(s, EXCISION if new is None else REPLACEMENT, k, old, new)
        self.event_records.append(rec)
        self.stage = s + 1
        return rec

    def next_event(self, horizon: int) -> int:
        """:func:`next_usable` for the rules below σ's length."""
        tape = self.tape
        return next_usable(self._rules, self.stage, horizon, tape,
                           tape.shape.index, len(tape))

    def skip_to(self, t: int) -> None:
        """Expand σ over the quiet stages up to t, as a listing count."""
        self.tape.extend_listing(t - self.stage)
        self.stage = t

    def advance_to(self, horizon: int) -> None:
        drive(self, horizon, self.step_once)

    # -- views --------------------------------------------------------------

    def trace(self) -> RunTrace:
        events, tape = self.event_records, self.tape
        k = events[-1].k if events else 0   # σ's length after the last event
        return RunTrace(list(events), self.stage, BeliefString(tape.head(k)),
                        len(tape) - k)


def run(system: QSystem, horizon: int) -> RunTrace:
    """Run from the empty string for ``horizon`` stages."""
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    eng = RunEngine(system)
    eng.advance_to(horizon)
    return eng.trace()


# ---------------------------------------------------------------------------
# stability estimation
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """A window estimate of a run's limiting beliefs at ``horizon``.

    ``belief_estimate`` is the axiom range of the longest stable prefix,
    an :class:`IntervalSet`: the stable stored head's axioms plus the one
    interval its listing tail a_L .. a_P−1 adds, so a report costs the
    run's events, not its horizon.  ``loop_suspects`` are the positions
    disturbed inside the final ``window`` stages.
    """

    horizon: int
    window: int
    stable_prefix_length: int
    belief_estimate: IntervalSet
    loop_suspects: tuple[int, ...]


class DisturbanceStamps:
    """The stage at which each position of a belief string was last disturbed.

    Vacating a position and refilling one that was occupied before are
    disturbances, stamped with the stage at which they happen.  A frontier
    append (a position occupied for the first time) stamps 0, so uneventful
    growth is stable.  The stamps span the furthest position ever vacated;
    every position past them stamps 0 and is not stored, so a quiet
    stretch at the frontier costs nothing.
    """

    __slots__ = ("stamps", "top")

    def __init__(self) -> None:
        self.stamps: list[int] = []
        self.top = 0        # no stamp, past or present, exceeds it

    def update(self, cut: int, old_len: int, stage: int) -> None:
        """Positions cut..old_len-1 were dropped and one token appended at cut."""
        stamps = self.stamps
        if cut >= old_len and cut >= len(stamps):
            return   # a first fill: its stamp 0 is not stored
        end = max(old_len, cut + 1)   # the vacated positions and the refill
        stamps.extend([0] * (cut - len(stamps)))
        stamps[cut:end] = [stage] * (end - cut)
        if stage > self.top:
            self.top = stage

    def grow(self, pos: int, n: int, stage: int) -> None:
        """n tokens appended at pos.. on the consecutive stages from
        ``stage``: refilled positions stamp their stage, new ones 0."""
        stamps = self.stamps
        m = min(n, len(stamps) - pos)
        stamps[pos:pos + m] = range(stage, stage + m)
        if m > 0 and stage + m - 1 > self.top:
            self.top = stage + m - 1

    def report(self, tokens: list[int], horizon: int, window: int,
               listing: int = 0, shape: Shape = IDENTITY) -> StabilityReport:
        """Window-based limiting-belief estimate for the string ``tokens``
        followed by ``listing`` listing tokens f(L), f(L+1), ..., f the
        listing of ``shape`` (by default a_L, a_L+1, ...).

        A position is stable when it was last disturbed no later than
        horizon − window; the belief estimate is the axiom range of the
        longest stable prefix, and positions disturbed inside the final
        window are flagged as loop suspects.  Positions past the stamps
        were never disturbed.  The estimate is read off the stable stored
        head and the partial blocks at either end of the listing's
        positions L .. prefix-1 in one sort, gaps dropped, and the whole
        blocks between join it as one interval, so the count is never
        listed.
        """
        if window < 0 or window > horizon:
            raise ValueError("window must satisfy 0 <= window <= horizon")
        threshold = horizon - window
        stamps = self.stamps
        suspects = () if self.top <= threshold else tuple(
            compress(range(len(stamps)), map(gt, stamps, repeat(threshold))))
        # the first suspect, if there is one, ends the stable prefix
        prefix = min(suspects[:1] + (len(tokens) + listing,))
        values, a, b = shape.image(len(tokens), prefix)
        head = tokens[:prefix]
        estimate = IntervalSet.of([*head, *values] if values else head, a, b)
        return StabilityReport(
            horizon=horizon,
            window=window,
            stable_prefix_length=prefix,
            belief_estimate=estimate,
            loop_suspects=suspects,
        )


def estimate_beliefs(trace: RunTrace, window: int) -> StabilityReport:
    """Window-based limiting-belief estimate, recomputed from the trace alone.

    The events and the quiet stretches between them are replayed into a
    fresh string and its disturbance stamps (see :class:`DisturbanceStamps`),
    independently of the engine that wrote them; the final quiet stretch
    stays a count, as in the trace.  The replay must give the trace's
    prefix and count.  This is a heuristic: a slow stabilizer can be
    flagged even when the true run is loopless.
    """
    sigma: list[int] = []
    stamps = DisturbanceStamps()
    for start, end, rec in trace._stretches():
        stamps.grow(len(sigma), end - start, start + 1)
        if rec is None:
            break
        sigma.extend(range(len(sigma), len(sigma) + end - start))
        stamps.update(rec.k - 1, len(sigma), rec.stage + 1)
        _apply_record(sigma, rec)
    if tuple(sigma) != trace.prefix.tokens or end - start != trace.listing:
        raise ValueError("trace records do not reproduce the recorded final string")
    return stamps.report(trace.prefix.tokens, trace.horizon, window, trace.listing)


def is_clean_window(system: QSystem, report: StabilityReport) -> bool:
    """No loop suspects and every rule's stage has comfortably arrived."""
    return (not report.loop_suspects
            and system.table.max_stage() <= report.horizon - report.window)


# ---------------------------------------------------------------------------
# variant classification
# ---------------------------------------------------------------------------

def classify_variant(system: QSystem) -> str:
    """'d' (no counterexamples), 'p' (no inconsistency), or 'q' (both).

    An operator producing neither marker is classed 'd' by convention.
    """
    kinds = system.table.conclusion_kinds()
    if BOT in kinds and CE in kinds:
        return "q"
    if CE in kinds:
        return "p"
    return "d"


def variant_flags(system: QSystem) -> tuple[bool, bool]:
    """(satisfies d-constraints, satisfies p-constraints)."""
    kinds = system.table.conclusion_kinds()
    return (CE not in kinds, BOT not in kinds)


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

TRACE_CHUNK = 1 << 15   # stages or final tokens write_trace formats at once


def write_trace(trace: RunTrace, path) -> None:
    """One tab-separated line per stage, then ``final`` and the last string,
    written as the run is read: TRACE_CHUNK stages or tokens at a time."""
    toks = trace.prefix.tokens
    sigma = chain(toks, range(len(toks), len(toks) + trace.listing))
    with open(path, "w", encoding="utf-8") as fh:
        for start, end, rec in trace._stretches():
            for lo in range(start, end, TRACE_CHUNK):
                hi = min(end, lo + TRACE_CHUNK)
                fh.write("%d\texpand\n" * (hi - lo) % tuple(range(lo, hi)))
            if rec is None:
                continue
            if rec.kind == EXCISION:
                fh.write("%d\texcise\tk=%d\told=%s\n"
                         % (rec.stage, rec.k, token_to_str(rec.old)))
            else:
                fh.write("%d\treplace\tk=%d\told=%s\tnew=%s\n"
                         % (rec.stage, rec.k, token_to_str(rec.old),
                            token_to_str(rec.new)))
        fh.write("final\t")
        sep = ""
        while chunk := BeliefString(islice(sigma, TRACE_CHUNK)):
            fh.write(sep + chunk.serialize())
            sep = " "
        fh.write("\n")
