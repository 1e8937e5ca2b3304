"""The older stack-based run formalism and translations to and from it.

Here a run does not act on a single string with gaps but on an array of
vertical stacks r_s(x), one per position.  A stage either opens a fresh
stack at the frontier (clause 1), clears a stack and resets its right
neighbour on an inconsistency (clause 2), or pushes a revised value on a
counterexample (clause 3); the provisional belief set A_s is read off the
stacks through the staged operator.  The translation constructions identify
this picture with the string-based one: stack tips line up with string
entries, directly in one direction and shifted by two indices and five
stages in the other, and the alignment checkers verify that correspondence
stage by stage on concrete runs.

Operators appear in two guises: explicit growing sets of pairs ⟨x, F⟩
(meaning x is derivable from F), or a query-only adapter backed by a rule
table.  Both answer H_s(Y); only the pair-backed form can be translated
into a rule table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .consequence import BOT, CE, Rule, RuleTable, evaluate
from .engine import (EXPANSION, QSystem, ReplacementMap, RunEngine, RunTrace, drive,
                     least_marks, marker_rule, next_usable,
                     select_clause as _select_clause)  # patchable: see its docstring
from .strings import GAP, IDENTITY, DialecticError, Shape, Tape

class UndefinedPositionError(DialecticError, RuntimeError):
    """A revision clause selected position zero, which has no neighbour."""

    fields = ("stage", "clause")
    text = "clause %(clause)d fired at position 0 (stage %(stage)d)"


class EmptyNeighbourError(DialecticError, RuntimeError):
    """The revision clause selected a position whose left neighbour stack
    is empty, which the least-position rule excludes."""

    fields = ("stage", "position")
    text = ("revision clause selected an empty neighbour stack"
            " (stage %(stage)d, position %(position)d)")


class StateInvariantError(DialecticError, RuntimeError):
    """A stack state breaks a structural invariant of the recursion."""

    fields = ("stage", "detail")
    text = "%(detail)s (stage %(stage)d)"


class TranslationError(DialecticError, ValueError):
    """A system cannot be carried across to the other formalism."""


class AlignmentScopeError(DialecticError, ValueError):
    """The two runs do not cover the stage range being compared."""


# ---------------------------------------------------------------------------
# operator approximations
# ---------------------------------------------------------------------------

class PairApproximation:
    """Growing finite sets of derivation pairs ⟨x, F⟩.

    Entries are (stage, x, F) triples: the pair becomes available at that
    stage and stays forever.  Stage 0 is always the empty set.
    """

    def __init__(self, entries: Iterable[tuple[int, int, Iterable[int]]] = ()) -> None:
        self._pairs: list[tuple[int, int, frozenset[int]]] = []
        for stage, x, F in entries:
            if stage < 1:
                raise ValueError("pairs may enter at stage 1 or later")
            self._pairs.append((stage, x, frozenset(F)))
        self._pairs.sort(key=lambda e: (e[0], e[1], sorted(e[2])))

    def pairs(self) -> list[tuple[int, int, frozenset[int]]]:
        return list(self._pairs)

    def query(self, s: int, Y: frozenset[int]) -> frozenset[int]:
        out = set()
        for stage, x, F in self._pairs:
            if stage <= s and F <= Y:
                out.add(x)
        return frozenset(out)

    def marker_pairs(self, c: int, c_minus: int) -> list[tuple[int, tuple[int, ...], bool]]:
        """The pairs that drive revision, as marker rules."""
        return [marker_rule(stage, F, x == c_minus)
                for stage, x, F in self._pairs if x == c or x == c_minus]


class TableBackedApproximation:
    """Query-only operator built from a rule table under the index shift.

    Code 0 stands for the inconsistency marker, 1 for the counterexample
    marker and n+2 for axiom n.  Stage t answers with the table evaluated at
    stage t−5 over the decoded axioms, capped by a computable bound M(t−5)
    exceeding every index the string run can have touched; stages 1–4
    supply only the two seed pairs ⟨0,{0}⟩ and ⟨1,{1}⟩ that make the marker
    codes self-deriving, and stage 0 is empty.
    """

    def __init__(self, table: RuleTable, replacement: ReplacementMap) -> None:
        if replacement.has_default:
            raise TranslationError(
                "the stack-side operator needs a finite replacement scheme")
        self._table = table
        self._repl = replacement
        self._base = max(table.max_axiom(), replacement.max_index(), 0)
        self._chain_max: dict[int, int] = {}
        self._m: list[int] = []
        self._run_max = 0

    def _chain_top(self, x: int) -> int:
        """Largest value on the replacement chain out of x."""
        seen: list[int] = []
        v = x
        best = x
        while v not in self._chain_max:
            if v in seen:
                raise TranslationError("replacement chain loops at a%d" % v)
            seen.append(v)
            nxt = self._repl.get(v)
            if nxt is None:
                break
            best = max(best, nxt)
            v = nxt
        if v in self._chain_max:
            best = max(best, self._chain_max[v])
        for u in seen:
            self._chain_max[u] = best
        return best

    def bound(self, s: int) -> int:
        """M(s): exceeds every index either run can mention by stage s."""
        while len(self._m) <= s:
            x = len(self._m)
            self._run_max = max(self._run_max, self._chain_top(x))
            self._m.append(3 + max(x, self._base, self._run_max))
        return self._m[s]

    def query(self, t: int, Y: frozenset[int]) -> frozenset[int]:
        if t == 0:
            return frozenset()
        out = {y for y in (0, 1) if y in Y}
        if t >= 5:
            s = t - 5
            m = self.bound(s)
            X = frozenset(y - 2 for y in Y if 2 <= y <= m)
            for v in evaluate(self._table, s, X):
                if v == BOT:
                    out.add(0)
                elif v == CE:
                    out.add(1)
                else:
                    out.add(v + 2)
        return frozenset(out)

    def marker_pairs(self, c: int, c_minus: int) -> list[tuple[int, tuple[int, ...], bool]]:
        # premise codes never exceed the bound, so table pairs enter at
        # exactly their rule stage plus the five-stage offset
        if (c, c_minus) != (0, 1):
            raise TranslationError("table-backed operators use marker codes 0 and 1")
        return [marker_rule(1, (0,), False), marker_rule(1, (1,), True)] + [
            marker_rule(r.stage + 5, [p + 2 for p in r.premises], r.conclusion == CE)
            for r in self._table if r.conclusion in (BOT, CE)]


# ---------------------------------------------------------------------------
# systems and states
# ---------------------------------------------------------------------------

class Listing:
    """An argument listing without a shape: f lists, and ``index`` places a
    code at f_inv's position where f agrees, else at -1 (none)."""

    __slots__ = ("f", "f_inv")

    def __init__(self, f: Callable[[int], int], f_inv: Callable[[int], int]) -> None:
        self.f, self.f_inv = f, f_inv

    def __call__(self, i: int) -> int:
        return self.f(i)

    def index(self, code: int) -> int:
        i = self.f_inv(code)
        return i if i >= 0 and self.f(i) == code else -1


@dataclass
class LegacySystem:
    """Quintuple presentation: operator, argument listing, revision map.

    ``approximation`` answers ``query(s, Y)``; ``f`` lists the arguments
    (f(i) is the i-th argument in consideration) and places them
    (``f.index``): a :class:`~dialectic.strings.Shape`, checked when it is
    built and read by arithmetic, or a :class:`Listing`; ``f_minus``
    revises argument values; ``c`` flags an inconsistency and ``c_minus``
    a counterexample.
    """

    approximation: object
    f: Union[Shape, Listing]
    f_minus: Callable[[int], int]
    c: int
    c_minus: int


def marker_swap(c: int, c_minus: int,
                revise: Callable[[int], int]) -> Callable[[int], int]:
    """A revision map f_minus: the two marker codes swap, and every other
    code goes through ``revise``."""
    swap = {c: c_minus, c_minus: c}
    return lambda code: swap[code] if code in swap else revise(code)


@dataclass
class LegacyState:
    """Stacks for positions 0..p; the frontier stack is never empty."""

    stacks: tuple[tuple[int, ...], ...]
    h: int
    A: Optional[frozenset[int]] = None

    @property
    def p(self) -> int:
        return len(self.stacks) - 1

    def rho(self, x: int) -> Optional[int]:
        """Top of stack x, None when x is empty or beyond the frontier."""
        if 0 <= x < len(self.stacks) and self.stacks[x]:
            return self.stacks[x][-1]
        return None


def initial_state(system: LegacySystem, compute_A: bool = True) -> LegacyState:
    return LegacyState(stacks=((system.f(0),),), h=0,
                       A=frozenset() if compute_A else None)


def serialize_state(state: LegacyState) -> str:
    lines = []
    for x, st in enumerate(state.stacks):
        lines.append(("%d: %s" % (x, " ".join(str(v) for v in st))).rstrip())
    a = "-" if state.A is None else "{%s}" % ", ".join(str(v) for v in sorted(state.A))
    lines.append("p=%d, h=%d, A=%s" % (state.p, state.h, a))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the three-clause recursion
# ---------------------------------------------------------------------------

def _queries(system: LegacySystem, stacks, s: int, n: int) -> Iterable[frozenset[int]]:
    """The operator's output at stage s over the tips below i, for i < n."""
    tips: set[int] = set()
    for i in range(n):
        yield system.approximation.query(s, frozenset(tips))
        if stacks[i]:
            tips.add(stacks[i][-1])


def _provisional(system: LegacySystem, stacks, h: int, s: int) -> frozenset[int]:
    """A_s: union of the operator's output strictly below the settled height."""
    return frozenset().union(*_queries(system, stacks, s, h))


def legacy_step(
    system: LegacySystem,
    state: LegacyState,
    s: int,
    compute_A: bool = True,
) -> LegacyState:
    """One stage of the stack recursion: the stage-s state to stage s+1."""
    m = state.p
    chis = list(_queries(system, state.stacks, s, m + 1))
    z_c = next((z for z in range(m + 1) if system.c in chis[z]), None)
    z_ce = next((z for z in range(m + 1) if system.c_minus in chis[z]), None)
    clause, z = _select_clause(z_c, z_ce)

    if clause == 1:
        stacks = state.stacks + ((system.f(m + 1),),)
        h = m + 1
    elif clause == 2:
        if z == 0:
            raise UndefinedPositionError(s + 1, 2)
        stacks = state.stacks[:z - 1] + ((), (system.f(z),))
        h = z - 1
    else:
        if z == 0:
            raise UndefinedPositionError(s + 1, 3)
        below = state.stacks[z - 1]
        if not below:
            raise EmptyNeighbourError(s + 1, z)
        stacks = state.stacks[:z - 1] + (below + (system.f_minus(below[-1]),),
                                         (system.f(z),))
        h = z - 1

    A = None
    if compute_A:
        A = _provisional(system, stacks, h, s + 1)
    return LegacyState(stacks=stacks, h=h, A=A)


def legacy_run(
    system: LegacySystem,
    horizon: int,
    compute_A: bool = True,
) -> list[LegacyState]:
    """States 0..horizon of the recursion (horizon+1 entries)."""
    states = [initial_state(system, compute_A)]
    for s in range(horizon):
        states.append(legacy_step(system, states[-1], s, compute_A))
    return states


def audit_state(system: LegacySystem, state: LegacyState, s: int) -> None:
    """Recheck the structural invariants of a stage-s state from scratch."""
    if not state.stacks[-1]:
        raise StateInvariantError(s, "frontier stack must be nonempty")
    if state.h not in (state.p, state.p - 1):
        raise StateInvariantError(s, "h=%d is neither p=%d nor p-1"
                                  % (state.h, state.p))
    if (state.A is not None
            and state.A != _provisional(system, state.stacks, state.h, s)):
        raise StateInvariantError(s, "stored A differs from recomputation")


# ---------------------------------------------------------------------------
# fast pair-driven runner
# ---------------------------------------------------------------------------

class FastLegacyEngine:
    """Incremental stack runner that skips whole-board operator queries.

    Only the marker pairs can change the course of a run, so each stage
    asks merely: which pairs have all premises among the current tips, and
    how deep is the shallowest prefix containing them?  Everything else is
    frontier growth.  The string engine's rule core decides the stage, with
    the frontier p as the deepest usable prefix.  The tips ρ(0..p) live on
    a :class:`Tape` over the system's listing f, by arithmetic when f is a
    :class:`~dialectic.strings.Shape`, that watches the pair premises, with
    GAP for an empty stack.  The tape stores the tips only below the last
    clause-2 or clause-3 stage; past them they are a count of listing tips
    f(L), f(L+1), ..., since such a stage at z leaves the positions from z
    on as listing again.  Most stacks are the singleton of their tip;
    ``_revised`` holds the others, the cleared and revised positions below
    the last cut, so a stack is stored once.  Provisional belief sets are
    not computed.
    """

    def __init__(self, system: LegacySystem) -> None:
        self.system = system
        self._pairs = system.approximation.marker_pairs(system.c, system.c_minus)
        self.tape = Tape(system.f)
        self._index = system.f.index
        for _, prem, _ in self._pairs:
            for code in prem:
                self.tape.watch(code)
        self.tape.extend_listing(1)
        # a key is set just after the cut that drops every key at or above
        # it, so the keys ascend in insertion order
        self._revised: dict[int, tuple[int, ...]] = {}
        self.stage = self.h = self.bulk_stretches = self.bulk_stages = 0

    # -- stages ------------------------------------------------------------

    def step(self) -> tuple[int, Optional[int]]:
        """Advance one stage; return the clause applied and its position."""
        s, tape, m = self.stage, self.tape, self.p
        clause, z = _select_clause(*least_marks(self._pairs, s, tape.cover, m))
        if clause == 1:
            self.h = m + 1
        else:
            if z == 0:
                raise UndefinedPositionError(s + 1, clause)
            tip, revised = tape.at(z - 1), self._revised
            if clause == 2:
                below = ()
            elif tip == GAP:
                raise EmptyNeighbourError(s + 1, z)
            else:
                below = (revised.get(z - 1, (tip,))
                         + (self.system.f_minus(tip),))
            while revised and next(reversed(revised)) >= z - 1:
                revised.popitem()
            revised[z - 1] = below
            tape.cut(z - 1)
            tape.push(below[-1] if below else GAP)
            self.h = z - 1
        tape.extend_listing(1)
        self.stage = s + 1
        return clause, z

    def next_event(self, horizon: int) -> int:
        """:func:`~dialectic.engine.next_usable` for the pairs below the
        frontier p under clause-1 growth, which lists f(p+1), f(p+2), ...."""
        return next_usable(self._pairs, self.stage, horizon, self.tape,
                           self._index, self.p)

    def skip_to(self, t: int) -> None:
        """Clause-1 growth to stage t: the tips f(p+1..) join the count.  It
        stops short where a listing without a shape repeats a code before
        its index says."""
        tape, p, index = self.tape, self.p, self._index
        first = tape.first
        early = [first[y] + 1 for y in tape.extend_listing(t - self.stage)
                 if index(y) not in (first[y], -1)]
        if early:
            tape.cut(min(early))
        self.h = self.p
        self.stage += self.h - p

    def advance_to(self, horizon: int) -> None:
        drive(self, horizon, self.step)

    @property
    def p(self) -> int:
        return len(self.tape) - 1

    def rho(self, x: int) -> Optional[int]:
        tip = self.tape.at(x) if 0 <= x <= self.p else GAP
        return None if tip == GAP else tip

    def snapshot(self, tips: Optional[list[int]] = None) -> LegacyState:
        """The state; tips, if given, are ρ(0..p), listed by the caller."""
        tips = enumerate(self.tape.head(self.p + 1) if tips is None else tips)
        return LegacyState(stacks=tuple(self._revised.get(x, (v,)) for x, v in tips),
                           h=self.h, A=None)


def fast_legacy_run(system: LegacySystem, horizon: int) -> list[LegacyState]:
    """Same states as legacy_run with compute_A=False, stepped one stage at
    a time on the pair-driven engine.  The tips are kept from stage to
    stage, so f lists each position once: a clause-2 or clause-3 stage at
    z rewrites the tips from z-1 on."""
    eng = FastLegacyEngine(system)
    states = [initial_state(system, compute_A=False)]
    tips: list[int] = []
    for _ in range(horizon):
        clause, z = eng.step()
        if clause != 1:
            del tips[z - 1:]
        tips += map(eng.tape.at, range(len(tips), eng.p + 1))
        states.append(eng.snapshot(tips))
    return states


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------

def forward_translate(legacy: LegacySystem) -> QSystem:
    """Carry a pair-backed system over to the string formalism.

    Each pair ⟨x, F⟩ entering at stage s becomes the rule s : F ⊢ x under
    the argument listing (codes pulled back through f); when x is a marker
    the matching logical symbol is derived alongside the raw code.  The
    replacement map pulls the revision function back through the listing,
    with the sanctioned marker pair allowed to swap.
    """
    if not hasattr(legacy.approximation, "pairs"):
        raise TranslationError("forward translation needs an explicit pair set")

    f = legacy.f

    def pull(code: int) -> int:
        i = f.index(code)
        if i < 0:
            raise TranslationError("argument listing is not invertible at %d" % code)
        return i

    rules = []
    for stage, x, F in legacy.approximation.pairs():
        prem = frozenset(pull(y) for y in F)
        rules.append(Rule(stage, prem, pull(x)))
        if x == legacy.c:
            rules.append(Rule(stage, prem, BOT))
        elif x == legacy.c_minus:
            rules.append(Rule(stage, prem, CE))

    def revise(i: int) -> int:
        return pull(legacy.f_minus(f(i)))

    pair = (pull(legacy.c), pull(legacy.c_minus))
    repl = ReplacementMap(default_fn=revise, allow_pair=pair)
    return QSystem(RuleTable(rules), repl)


def backward_translate(qsys: QSystem) -> LegacySystem:
    """Carry a finitely presented string system over to the stack formalism.

    Indices shift by two so codes 0 and 1 can stand for the two logical
    symbols; the argument listing is the identity and the revision map
    swaps the marker codes and follows the replacement map above them.
    """
    repl = qsys.replacement

    def revise(y: int) -> int:
        k = repl.get(y - 2)
        if k is None:
            raise KeyError("no revision defined for code %d" % y)
        return k + 2

    return LegacySystem(
        approximation=TableBackedApproximation(qsys.table, repl),
        f=IDENTITY,
        f_minus=marker_swap(0, 1, revise),
        c=0,
        c_minus=1,
    )


# ---------------------------------------------------------------------------
# alignment checking
# ---------------------------------------------------------------------------

@dataclass
class AlignmentReport:
    ok: bool
    direction: str
    stages_checked: int
    mismatch_stage: Optional[int] = None
    mismatch_position: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        if self.ok:
            return "alignment ok (%s, %d stages)" % (self.direction, self.stages_checked)
        return "alignment MISMATCH (%s) at stage %d, position %s: %s" % (
            self.direction, self.mismatch_stage,
            "-" if self.mismatch_position is None else str(self.mismatch_position),
            self.detail)


def _entry_matches(v: int, tip: Optional[int], f: Callable[[int], int],
                   shift: int) -> bool:
    if v == GAP:
        return tip is None
    if tip is None:
        return False
    return tip == (v + shift if shift else f(v))


def _entry_detail(v: int, tip: Optional[int]) -> str:
    left = "gap" if v == GAP else "a%d" % v
    right = "empty stack" if tip is None else "tip %d" % tip
    return "%s vs %s" % (left, right)


def check_alignment(
    qtrace: RunTrace,
    legacy_states: Sequence[LegacyState],
    direction: str,
    system: Optional[LegacySystem] = None,
) -> AlignmentReport:
    """Compare a string run against a stack run, every position, every stage.

    forward: same stage, |σ_s| = p(s), entries match tips under the
    argument listing, gaps match empty stacks.  backward: stage offset 5
    and index offset 2, per the second translation.
    """
    if direction == "forward":
        if system is None:
            raise ValueError("forward alignment needs the stack system's listing")
        off_stage, off_idx, f = 0, 0, system.f
    elif direction == "backward":
        off_stage, off_idx, f = 5, 2, None
    else:
        raise ValueError("direction must be 'forward' or 'backward'")

    stages = len(qtrace) + 1
    if len(legacy_states) < stages + off_stage:
        raise AlignmentScopeError(
            "stack run covers %d stages, need %d"
            % (len(legacy_states) - 1, stages - 1 + off_stage))
    for s, sigma in enumerate(qtrace.iter_sigmas()):
        st = legacy_states[s + off_stage]
        if len(sigma) != st.p - off_idx:
            return AlignmentReport(False, direction, s, s, None,
                                   "length %d vs %d" % (len(sigma), st.p - off_idx))
        for n, v in enumerate(sigma):
            tip = st.rho(n + off_idx)
            if not _entry_matches(v, tip, f, off_idx):
                return AlignmentReport(False, direction, s, s, n,
                                       _entry_detail(v, tip))
    return AlignmentReport(True, direction, stages)


def stream_alignment(system: Union[QSystem, LegacySystem],
                     horizon: int = 100) -> AlignmentReport:
    """Advance both engines event to event and compare what they did.

    A string system is aligned backward (the stack side is derived), a
    pair-backed stack system forward (the string side is derived).  Both
    engines skip to the earlier of their next possible events, appending
    the listing over aligned indices, or take one stage together.  The
    lengths, which also tell the kinds and positions of the stage apart,
    are compared after each advance, and the one rewritten entry after an
    event.  At stage 0, at the horizon and where those checks fail, every
    position that either engine stores is compared, as in
    check_alignment; past both stored prefixes each engine holds a count
    of listing entries over aligned indices, so equal lengths settle the
    rest.
    """
    if isinstance(system, QSystem):
        direction, qsys, legacy = "backward", system, backward_translate(system)
        off_stage, off_idx, f = 5, 2, None
    else:
        direction, qsys, legacy = "forward", forward_translate(system), system
        off_stage, off_idx, f = 0, 0, system.f

    eng = RunEngine(qsys)
    fast = FastLegacyEngine(legacy)
    for _ in range(off_stage):
        fast.step()

    def compare(s: int) -> Optional[AlignmentReport]:
        if len(eng.tape) != fast.p - off_idx:
            return AlignmentReport(False, direction, s, s, None, "length %d vs %d"
                                   % (len(eng.tape), fast.p - off_idx))
        # past what either side stores, both list a_n over aligned indices:
        # a_n as tip n+2 under the translator's identity listing, or as f(n)
        k = max(len(eng.tape.tokens), len(fast.tape.tokens) - off_idx)
        sigma = eng.tape.head(k)
        image = [v if v == GAP else v + off_idx if f is None else f(v) for v in sigma]
        tips = fast.tape.head(k + off_idx)[off_idx:]
        if image == tips:
            return None
        n = next(n for n, (v, tip) in enumerate(zip(image, tips)) if v != tip)
        return AlignmentReport(False, direction, s, s, n,
                               _entry_detail(sigma[n], fast.rho(n + off_idx)))

    bad = compare(0)
    while bad is None and eng.stage < horizon:
        t = min(eng.next_event(horizon),
                fast.next_event(horizon + off_stage) - off_stage)
        if t > eng.stage:   # neither engine has an event before t
            eng.skip_to(t)
            fast.skip_to(t + off_stage)
            same = True
        else:
            rec, _ = eng.step_once(), fast.step()
            t += 1
            # an event rewrote the entry just below the stack side's frontier
            same = rec.kind == EXPANSION or _entry_matches(
                GAP if rec.new is None else rec.new, fast.rho(fast.p - 1), f, off_idx)
        if not same or len(eng.tape) != fast.p - off_idx:
            bad = compare(t)
    if bad is None:
        bad = compare(horizon)
    return bad if bad is not None else AlignmentReport(True, direction, horizon + 1)
