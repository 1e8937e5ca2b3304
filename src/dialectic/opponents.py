"""Opponent belief systems driven by budgeted programs.

An opponent is a counterexample-style revision system whose three moving
parts -- the axiom enumeration g, the staged operator h, and the
replacement function r -- are fueled programs (see universe).  Because the
programs are partial, the opponent's run may stall: a step either makes
progress or reports which component failed to answer.  Stalled steps are
retried with the larger budgets of later stages, so a merely-slow
component only delays the run, while a truly divergent one freezes it.

Sets of axioms (and the counterexample marker) travel through programs as
single naturals under a fixed bit-coding, and a whole opponent can be
named by one integer relative to a program registry.

step takes one stage and is the reference.  Beside it, an opponent whose
operator script is masked (see universe.masked_form) and whose
enumeration is compiled has an event form: once the fuel saturates both,
no marker is derived until h's next t boundary or until an appended
value hits the mask, so next_event finds where the quiet stretch ends
and skip_to appends the enumeration over it in bulk.  An enumeration
script with a block shape (universe.block_shape) is not evaluated there
at all: its values are read off the shape, and whole blocks of them are
an interval.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional

from .consequence import CE, RuleTable
from .engine import (DisturbanceStamps, QSystem, ReplacementMap,
                     StabilityReport, variant_flags)
from .strings import (IDENTITY, DialecticError, ParseError, Shape, Tape,
                      natural_from_str, numbered_lines, quoted, read_input)
from .systemspec import VariantError
from .universe import (FueledFunction, ProgramError, ProgramUniverse, _Diverge,
                       closure, parse_sexpr)

__all__ = [
    "pi_encode", "pi_decode", "decode_index",
    "Progress", "Diverged", "PartialPSystem",
    "r_iterate", "p_system_from_table",
    "MAX_AXIOM", "AxiomLimitError",
    "parse_family", "load_family", "default_family",
]


# ---------------------------------------------------------------------------
# set coding
# ---------------------------------------------------------------------------
#
# Bit 0 carries the counterexample marker; bit i+1 carries axiom i.  So
# {} <-> 0, {ce} <-> 1, {a0} <-> 2, {ce, a1} <-> 5, and so on.

def pi_encode(items) -> int:
    code = 0
    for v in items:
        if v == CE:
            code |= 1
        elif isinstance(v, int) and v >= 0:
            code |= 1 << (v + 1)
        else:
            raise ValueError("cannot encode %r" % (v,))
    return code


def pi_decode(code: int) -> frozenset[int]:
    if code < 0:
        raise ValueError("codes are naturals")
    out = []
    if code & 1:
        out.append(CE)
    code >>= 1
    i = 0
    while code:
        if code & 1:
            out.append(i)
        code >>= 1
        i += 1
    return frozenset(out)


def decode_index(m: int) -> tuple[int, int, int]:
    """Split an opponent index into its three program indices.

    The packing is by prime powers: m = 2^a * 3^b * 5^c * rest, and the
    exponents (a, b, c) name the enumeration, operator and replacement
    programs.  Zero has no such reading and is rejected.
    """
    if m < 1:
        raise ValueError("opponent index must be positive")
    out = []
    for p in (2, 3, 5):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append(e)
    return tuple(out)


# ---------------------------------------------------------------------------
# step outcomes
# ---------------------------------------------------------------------------

class Progress(NamedTuple):
    length: int
    changed: bool


class Diverged(NamedTuple):
    component: str  # "g", "H", or "r"


# Axiom v is bit v+1 of an opponent's set code, an int copied on every
# stage: a2**24 makes a 2 MB code, a10**12 one of 125 GB.
MAX_AXIOM = 2 ** 24


class AxiomLimitError(DialecticError, ValueError):
    """An opponent's g or r named an axiom above ``limit``, MAX_AXIOM."""

    fields = ("opponent", "part", "value", "limit")
    text = "opponent %(opponent)s: %(part)s gave a%(value)d, above the limit a%(limit)d"


# ---------------------------------------------------------------------------
# the opponent proper
# ---------------------------------------------------------------------------

class PartialPSystem:
    """A counterexample revision run whose parts are fueled programs.

    The operator of the run is H(s, X) = union over t <= s of the decoded
    values of h(t, code(X)).  With ``monotone_h`` set (the default for
    curated families) each union is read off at t = s alone, which is
    exact whenever h's counterexample verdicts and outputs only grow with
    t; the opt-out keeps the literal union at desk scales.

    The string, the disturbance stamps and the stability estimate follow
    the same conventions as the run engine, so the two sides of a
    diagonalization argument can be compared like for like.  σ is a
    :class:`Tape` over g's shape, when g has one: an appended g(p) at
    position p joins its count, so σ stores only the tokens up to its last
    cut.  The enumeration g(0), g(1), ... resolved so far is a tape over
    the shape too, which saturated fuel resolves as a count, without
    calling g.  A g without a shape stores each value it gives.
    """

    def __init__(self, universe: ProgramUniverse, i0: int, i1: int, i2: int,
                 name: str = "", monotone_h: bool = True) -> None:
        self.universe = universe
        self.g = universe[i0]
        self.h = universe[i1]
        self.r = universe[i2]
        self.indices = (i0, i1, i2)
        self.name = name or "opponent(%d,%d,%d)" % (i0, i1, i2)
        self.monotone_h = monotone_h
        self.stage = 0
        listing = self.g.shape or IDENTITY
        # where a shaped g first gives no admissible axiom: step raises
        # there, so neither tape below gets past it
        self._g_over = listing.first_above(MAX_AXIOM)
        self.tape = Tape(listing)         # σ; watches the values asked about
        self.version = 0
        self.invalid_reason: Optional[str] = None
        self.frozen = False
        self.r_cycle_found = False
        self.diverge_counts = {"g": 0, "H": 0, "r": 0}
        # enumeration cache: g resolved on an initial segment of positions,
        # a tape that watches the values asked about (enum_position)
        self._enum = Tape(listing)
        self._g_ahead: list[int] = []     # a g without a shape past _enum
        self._r_memo: dict[int, int] = {}
        self._code = 0                    # bit code of set(sigma)
        self._stamps = DisturbanceStamps()
        # per-code operator accumulators for the literal-union mode:
        # code -> [next unvisited t, or-accumulated value]
        self._h_acc: dict[int, list[int]] = {}
        # the event form needs a masked h, a g compiled for one argument
        # and the monotone mode; it counts per stretch
        g, h = self.g, self.h
        self.saturation = math.inf
        if monotone_h and h.masked and g.fast and g.arity == 1:
            self.saturation = max(g.saturation, h.saturation)
            M = h.masked[0]   # the axioms whose bits lie in h's mask:
            self._mask_values = {b - 1 for b in range(1, M.bit_length())
                                 if M >> b & 1}
        # g's evaluations in next_event, added once per call
        self.bulk_stretches = self.bulk_stages = self.g_evals = 0

    # -- component access ---------------------------------------------------

    def g_value(self, j: int, fuel: int) -> Optional[int]:
        """The j-th enumerated axiom, resolving the prefix as needed."""
        enum, g = self._enum, self.g
        if g.shape and fuel >= g.saturation and len(enum) <= j:
            over = self._g_over
            enum.extend_listing(min(j + 1, over) - len(enum))
            if over <= j:
                raise AxiomLimitError(self.name, "g", g.shape(over), MAX_AXIOM)
        while len(enum) <= j:
            v = g.call((len(enum),), fuel)
            if v is None:
                self.diverge_counts["g"] += 1
                return None
            if v > MAX_AXIOM:
                raise AxiomLimitError(self.name, "g", v, MAX_AXIOM)
            enum.push(v)
            del self._g_ahead[:1]
        return enum.at(j)

    def enum_position(self, value: int) -> Optional[int]:
        """Least resolved enumeration index of value, if seen so far;
        watched from the first ask."""
        self._enum.watch(value)
        return self._enum.first.get(value)

    def listed_at(self, value: int, fuel: int) -> Optional[int]:
        """enum_position(value), or else, once fuel saturates a g with a
        shape, the position at which g lists value: None at or past
        _g_over, where step raises."""
        p = self.enum_position(value)
        if p is None and self.g.shape and fuel >= self.saturation:
            p = self.g.shape.index(value)
            return p if p < self._g_over else None
        return p

    def r_value(self, x: int, fuel: int) -> Optional[int]:
        if x in self._r_memo:
            return self._r_memo[x]
        v = self.r.call((x,), fuel)
        if v is None:
            self.diverge_counts["r"] += 1
            return None
        if v > MAX_AXIOM:
            raise AxiomLimitError(self.name, "r", v, MAX_AXIOM)
        self._r_memo[x] = v
        return v

    def h_value_upto(self, code: int, cap: int, fuel: int) -> Optional[int]:
        """Or of h(t, code) over t <= cap, or None when fuel runs short.

        In monotone mode this is the single value at t = cap.  Otherwise
        an accumulator per code walks t upward across calls, so repeated
        polling (the diagonalizer does a lot of it) costs one evaluation
        per stage, not a fresh scan.
        """
        if self.monotone_h:
            return self.h.call((cap, code), fuel)
        acc = self._h_acc.get(code)
        if acc is None:
            acc = [0, 0]
            self._h_acc[code] = acc
        while acc[0] <= cap:
            v = self.h.call((acc[0], code), fuel)
            if v is None:
                return None
            acc[1] |= v
            acc[0] += 1
        return acc[1]

    def ce_upto(self, code: int, cap: int, fuel: int) -> Optional[bool]:
        v = self.h_value_upto(code, cap, fuel)
        if v is None:
            return None
        return bool(v & 1)

    # -- string bookkeeping -------------------------------------------------

    def _rewrite(self, cut: int, val: int, stage: int) -> None:
        """Drop positions cut.. of σ and append val, keeping the set code
        and the disturbance stamps in step.  Cuts are rare, so the set code
        is rebuilt on a cut; a listed val joins σ's count."""
        tape = self.tape
        self._stamps.update(cut, len(tape), stage)
        if cut < len(tape):
            tape.cut(cut)
            self._code = _bits(tape.tokens) | _listing_code(tape.shape,
                                                            len(tape.tokens), cut)
        tape.push(val)
        self._code |= 1 << (val + 1)
        self.version += 1

    def first_occurrence(self, value: int) -> Optional[int]:
        """Least position of value in σ, or None; watched from the first ask."""
        self.tape.watch(value)
        return self.tape.first.get(value)

    # -- the run ------------------------------------------------------------

    def step(self, fuel: int):
        """Advance one stage; returns Progress or Diverged.

        The stage counter advances either way -- a stalled component is
        retried at the next stage's budget against the same string.  A
        run that derives the marker from the empty prefix is invalid and
        freezes; a run whose operator fails the inclusion law is flagged
        but carries on mechanically.
        """
        s, tape = self.stage, self.tape
        self.stage = s + 1
        if self.frozen:
            return Progress(len(tape), False)
        full = self.h_value_upto(self._code, s, fuel)
        if full is None:
            self.diverge_counts["H"] += 1
            return Diverged("H")
        if self.invalid_reason is None and (full & self._code) != self._code:
            self.invalid_reason = ("operator output at stage %d does not "
                                   "include its argument" % s)
        if full & 1:
            k = self._least_marked_prefix(s, fuel)
            if k is None:
                self.diverge_counts["H"] += 1
                return Diverged("H")
            if k == 0:
                self.invalid_reason = ("marker derived from the empty "
                                       "prefix at stage %d" % s)
                self.frozen = True
                return Progress(len(tape), False)
            old = tape.at(k - 1)
            new = self.r_value(old, fuel)
            if new is None:
                return Diverged("r")
            self._rewrite(k - 1, new, s + 1)
            return Progress(len(tape), True)
        val = self.g_value(len(tape), fuel)
        if val is None:
            return Diverged("g")
        self._rewrite(len(tape), val, s + 1)
        return Progress(len(tape), True)

    def _least_marked_prefix(self, s: int, fuel: int) -> Optional[int]:
        code, tape = 0, self.tape
        for k in range(len(tape) + 1):
            flag = self.ce_upto(code, s, fuel)
            if flag is None:
                return None
            if flag:
                return k
            if k < len(tape):
                code |= 1 << (tape.at(k) + 1)
        # unreachable: the final iteration queries the full-range code,
        # which is exactly what the caller saw the marker on
        return None

    # -- the event form -----------------------------------------------------

    def first_mark(self, t: int, code: int):
        """With saturated fuel, the first stage from t at which h may mark
        code: t, h's next t boundary after it, or math.inf."""
        M, bounds = self.h.masked
        if self.h.fast(t, code & M) & 1:
            return t
        i = bisect_right(bounds, t)
        return bounds[i] if i < len(bounds) else math.inf

    def next_event(self, horizon: int, fuel: int, stops=()) -> int:
        """The first stage up to horizon that step must take, given the
        fuel of the steps; skip_to takes the stages before it in bulk.

        Each bulk stage appends the next enumerated value, or counts a g
        stall if g stalls already, until h may mark the string.  Appending
        stops before a g stall and before a value that hits h's mask,
        arrives watched, is in stops or is no admissible axiom (step
        raises there).  A g with a shape appends g(L), g(L+1), ..., so the
        first such value is placed by the shape among the few that can stop
        it.
        """
        t = self.stage
        if self.frozen or fuel < self.saturation:
            return t
        end = min(horizon, self.first_mark(t, self._code))
        tape, L = self.tape, len(self.tape)
        bad = self._mask_values.union(stops, tape.watched.difference(tape.first))
        shape = self.g.shape
        if shape:
            at = [p for p in map(shape.index, bad) if L <= p < L + end - t]
            return min([end, t + self._g_over - L]
                       + [t + p - L for p in at])
        vals, ahead = self._enum.store(), self._g_ahead
        seg = vals[L:L + end - t]
        want = end - t - len(seg)
        lo = len(vals) + len(ahead)
        try:
            ahead.extend(map(self.g.fast, range(lo, len(vals) + want)))
        except _Diverge:   # ahead keeps the values before the stall
            self.g_evals += 1
            if not seg and not ahead:
                return end
        self.g_evals += len(vals) + len(ahead) - lo
        seg += ahead[:want]
        k = min([len(seg)] + [seg.index(v) for v in bad.intersection(seg)])
        if seg and not 0 <= min(seg) <= max(seg) <= MAX_AXIOM:
            k = min(k, next(j for j, v in enumerate(seg)
                            if not 0 <= v <= MAX_AXIOM))
        return t + k

    def skip_to(self, stage: int) -> None:
        """Take the run to stage in bulk, at most to the last next_event."""
        n = stage - self.stage
        if n <= 0:
            return
        self.bulk_stretches += 1
        self.bulk_stages += n
        self.stage = stage
        tape, enum = self.tape, self._enum
        L = len(tape)
        if self.g.shape:   # both tapes grow by a count
            enum.extend_listing(max(0, L + n - len(enum)))
            tape.extend_listing(n)
            self._code |= _listing_code(tape.shape, L, L + n)
        else:
            vals, ahead = enum.store(), self._g_ahead
            if L == len(vals) and not ahead:   # g stalls at every stage
                self.diverge_counts["g"] += n
                return
            fresh = ahead[:max(0, L + n - len(vals))]
            del ahead[:len(fresh)]
            enum.extend(fresh)
            new = vals[L:L + n]
            tape.extend(new)
            self._code |= _bits(new)
        self._stamps.grow(L, n, stage - n + 1)
        self.version += n

    # -- stability ----------------------------------------------------------

    def stability_report(self, horizon: int, window: int) -> StabilityReport:
        tape = self.tape
        return self._stamps.report(tape.tokens, horizon, window, tape.listing,
                                   tape.shape)

    def top(self) -> int:
        """The largest axiom in σ, which is not empty, off the set code."""
        return self._code.bit_length() - 2

    def __repr__(self) -> str:
        return "<PartialPSystem %s stage=%d |sigma|=%d>" % (
            self.name, self.stage, len(self.tape))


def _bits(values: list[int]) -> int:
    """pi_encode(values), in time linear in len(values) and their span."""
    if not values:
        return 0
    low = min(values)
    digits = bytearray(b"0") * (max(values) - low + 1)
    for v in values:
        digits[v - low] = 49   # "1"
    return int(digits[::-1], 2) << low + 1


def _span(lo: int, hi: int) -> int:
    """pi_encode(range(lo, hi))."""
    return (1 << hi + 1) - (1 << lo + 1)


def _listing_code(shape: Shape, lo: int, hi: int) -> int:
    """pi_encode of the values that shape lists at positions lo .. hi-1:
    one span for the whole blocks, the bits of the partial ones."""
    values, a, b = shape.image(lo, hi)
    return _bits(values) | _span(a, b)


# ---------------------------------------------------------------------------
# iterated replacement
# ---------------------------------------------------------------------------

def r_iterate(theta: PartialPSystem, start: int, E, fuel: int):
    """Push start through theta's replacement until it leaves E.

    Returns (value, exponent) -- the first iterate outside E and how many
    applications it took (zero when start is already outside).  Returns
    None when the replacement stalls, and also when the iteration revisits
    a value, which can never leave E; the latter additionally marks the
    opponent as replacement-cyclic, since a genuine counterexample system
    needs acyclic replacement.
    """
    E = frozenset(E)
    value = start
    e = 0
    seen = {start}
    while value in E:
        nxt = theta.r_value(value, fuel)
        if nxt is None:
            return None
        value = nxt
        e += 1
        if value in seen:
            theta.r_cycle_found = True
            return None
        seen.add(value)
    return (value, e)


# ---------------------------------------------------------------------------
# table-backed opponents
# ---------------------------------------------------------------------------

def p_system_from_table(table: RuleTable, replacement: ReplacementMap,
                        universe: Optional[ProgramUniverse] = None,
                        name: str = "") -> PartialPSystem:
    """Wrap a counterexample-only rule table as an opponent.

    The enumeration is the identity, the operator evaluates the table on
    the argument's bits (a rule fires at stage t when its stage is at most
    t and the argument holds its premises), and the replacement defers to
    the given map (stalling where the map is undefined).  Staged evaluation
    only grows with the stage, so the monotone shortcut is sound here.
    """
    _, p_ok = variant_flags(QSystem(table, ReplacementMap()))
    if not p_ok:
        raise VariantError("table derives inconsistency; opponents are "
                           "counterexample-only")
    if universe is None:
        universe = ProgramUniverse()

    rules = [(r.stage, pi_encode(r.premises), pi_encode([r.conclusion]))
             for r in table]

    def op(t: int, x: int) -> int:
        out = x & ~1
        for stage, premises, conclusion in rules:
            if stage <= t and x & premises == premises:
                out |= conclusion
        return out

    def rep(x: int) -> Optional[int]:
        return replacement.get(x)

    i0 = universe.register(closure(lambda n: n, name="%s.enum" % (name or "table")))
    i1 = universe.register(closure(op, name="%s.op" % (name or "table")))
    i2 = universe.register(closure(rep, name="%s.rep" % (name or "table")))
    return PartialPSystem(universe, i0, i1, i2,
                          name=name or "table-opponent", monotone_h=True)


# ---------------------------------------------------------------------------
# family files
# ---------------------------------------------------------------------------

def parse_family(text: str) -> tuple[ProgramUniverse, list[PartialPSystem]]:
    """Read a family file: program definitions, then opponent rosters.

    Grammar, one declaration per line::

        prog <name> = <script>
        opponent <name> : g=<prog> h=<prog> r=<prog> [scan=full]
        opponent <name> : m=<number> [scan=full]

    Programs are scripts in the small expression language; opponents name
    their parts either directly or through a packed index (see
    decode_index).  ``scan=full`` opts an opponent out of the monotone
    operator shortcut.  '#' starts a comment.
    """
    universe = ProgramUniverse()
    opponents: list[PartialPSystem] = []
    names: set[str] = set()
    for line_no, line in numbered_lines(text):
        head, _, rest = line.partition(" ")
        try:
            if head == "prog":
                lhs, eq, script_text = rest.partition("=")
                prog_name = lhs.strip()
                if not eq or not prog_name:
                    raise ValueError("expected 'prog <name> = <script>'")
                try:
                    ast = parse_sexpr(script_text.strip())
                except ProgramError as exc:
                    raise ValueError("bad script: %s" % exc) from None
                universe.register(FueledFunction("sexpr", ast, name=prog_name))
            elif head == "opponent":
                opp_name, colon, spec = rest.partition(":")
                opp_name = opp_name.strip()
                if not colon or not opp_name:
                    raise ValueError("expected 'opponent <name> : ...'")
                if opp_name in names:
                    raise ValueError("duplicate opponent %s" % quoted(opp_name))
                fields = {}
                for part in spec.split():
                    key, eq, value = part.partition("=")
                    if not eq or key in fields:
                        raise ValueError("bad field %s" % quoted(part))
                    fields[key] = value
                scan = fields.pop("scan", None)
                if scan not in (None, "full"):
                    raise ValueError("bad field %s" % quoted("scan=" + scan))
                if "m" in fields:
                    if set(fields) != {"m"}:
                        raise ValueError("m= excludes g=/h=/r=")
                    m = natural_from_str(fields["m"],
                                         "bad field %s" % quoted("m=" + fields["m"]))
                    trio = decode_index(m)
                    if max(trio) >= len(universe):
                        raise ValueError(
                            "index %d names program %d but only %d are "
                            "defined" % (m, max(trio), len(universe)))
                    i0, i1, i2 = trio
                elif set(fields) == {"g", "h", "r"}:
                    try:
                        i0 = universe.index_of(fields["g"])
                        i1 = universe.index_of(fields["h"])
                        i2 = universe.index_of(fields["r"])
                    except KeyError as exc:
                        raise ValueError(exc.args[0]) from None
                else:
                    raise ValueError(
                        "opponent needs either m= or all of g=, h=, r=")
                names.add(opp_name)
                opponents.append(PartialPSystem(universe, i0, i1, i2,
                                                name=opp_name,
                                                monotone_h=scan is None))
            else:
                raise ValueError("unknown declaration %s" % quoted(head))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return universe, opponents


def load_family(path) -> tuple[ProgramUniverse, list[PartialPSystem]]:
    return parse_family(read_input(path))


def default_family() -> tuple[ProgramUniverse, list[PartialPSystem]]:
    """The family bundled with the package."""
    from importlib import resources
    text = (resources.files("dialectic") / "data" / "default.family").read_text(
        encoding="utf-8")
    return parse_family(text)
