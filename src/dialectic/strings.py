"""Belief strings over the axiom universe plus the gap marker.

A belief string is the whole epistemic state of an agent at one stage: a
finite sequence whose entries are either axiom indices (``a0, a1, ...``) or
``*``, a position whose former occupant was rejected outright.  Duplicate
axioms are permitted; positions are 0-based.  The four primitive mutations
used by the run recursion (contraction, expansion, replacement, excision)
live here as pure functions; :class:`Tape` is the mutable string that the
run engine, the stack runner and the opponents keep incrementally, and the
list an opponent's enumeration grows into; :class:`IntervalSet` is the set
of axioms a belief estimate reads off such a string.  The input layer
that every file parser reads through is here too.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Set
from itertools import chain
from operator import indexOf
from typing import Callable, Iterable, Iterator, Optional

# Axioms are identified by their index in the canonical listing a0, a1, ...
AxiomId = int

# Token value standing in for the gap marker.
GAP: int = -1

MAX_ECHO = 40   # characters of a rejected token or flag value an error quotes
MAX_STORED = 2 ** 24   # tokens a tape stores, its listing count aside


class DialecticError(Exception):
    """The base of every package error.  A subclass declares its
    constructor's ``fields``, kept as ``args`` so that it pickles whole, a
    ``%(field)s`` format ``text`` and, unless 1 and ``error``, the
    ``exit_code`` and ``label`` the command line prints it with."""

    fields: tuple[str, ...] = ("detail",)
    text = "%(detail)s"
    exit_code = 1
    label = "error"
    name: Optional[str] = None   # an ``axiom`` field prints as this, or aN

    def __init__(self, *values) -> None:
        super().__init__(*values)
        self.__dict__.update(zip(self.fields, values))

    def __str__(self) -> str:
        values = dict(zip(self.fields, self.args))
        if "axiom" in values:
            values["axiom"] = self.name or "a%d" % values["axiom"]
        return self.text % values


class OperationError(DialecticError, ValueError):
    """A primitive string operation was applied outside its precondition."""


class StoreLimitError(DialecticError, ValueError):
    """A tape was asked to store more than MAX_STORED tokens."""


# ---------------------------------------------------------------------------
# input layer (spec, knowledge-base, additions and family files)
# ---------------------------------------------------------------------------

class ParseError(DialecticError, ValueError):
    """Line ``line_no`` of an input file could not be understood."""

    fields = ("line_no", "message")
    text = "line %(line_no)d: %(message)s"
    exit_code = 2
    label = "parse error"


def read_input(path) -> str:
    """An input file's text, decoded as UTF-8 whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line_no, stripped line)`` for each line left with content once
    its ``#`` comment, which may start anywhere, is dropped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def quoted(text: str) -> str:
    """text quoted as %r does, cut to MAX_ECHO characters and then
    followed by its length."""
    more = "... (%d characters)" % len(text) if len(text) > MAX_ECHO else ""
    return "%r%s" % (text[:MAX_ECHO], more)


def natural_from_str(text: str, error: str) -> int:
    """The value of a numeral of ASCII digits, else ValueError(error): signs,
    ``_``, other scripts' digits and numerals too long for ``int`` fail."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise ValueError(error)


def axiom_from_str(text: str, error: str) -> int:
    """The index i of an axiom token ``a<i>``, else ValueError(error)."""
    return natural_from_str(text[1:] if text[:1] == "a" else "", error)


def identity(i: int) -> int:
    """The canonical listing a0, a1, ...: position i lists a_i."""
    return i


def token_to_str(tok: int) -> str:
    return "*" if tok == GAP else "a%d" % tok


def token_from_str(text: str) -> int:
    if text == "*":
        return GAP
    try:
        return axiom_from_str(text, "malformed token %s" % quoted(text))
    except ValueError as exc:
        raise OperationError(*exc.args) from None


class BeliefString:
    """Immutable finite sequence of axiom indices and gap markers."""

    __slots__ = ("_toks",)

    def __init__(self, tokens: Iterable[int] = ()) -> None:
        toks = tuple(tokens)
        if toks and min(toks) < GAP:
            # name the first bad token, as a per-token check would
            for t in toks:
                if t < GAP:
                    raise OperationError("invalid token value %d" % t)
        object.__setattr__(self, "_toks", toks)

    # -- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._toks)

    def __getitem__(self, idx):
        return self._toks[idx]

    def __iter__(self) -> Iterator[int]:
        return iter(self._toks)

    def __eq__(self, other) -> bool:
        if isinstance(other, BeliefString):
            return self._toks == other._toks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._toks)

    def __repr__(self) -> str:
        return "BeliefString(<%s>)" % self.serialize()

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        """Space-separated token text, e.g. ``'a0 * a2'``; empty string for ⟨⟩."""
        toks = self._toks
        # tokens are natural numbers or GAP, so "a-1" can only be a gap
        return ("a%d " * len(toks) % toks)[:-1].replace("a%d" % GAP, "*")

    @classmethod
    def parse(cls, text: str) -> "BeliefString":
        return cls(token_from_str(part) for part in text.split())

    # -- derived data -------------------------------------------------------

    def range(self) -> frozenset[int]:
        """Set of axioms present anywhere in the string; gaps contribute nothing."""
        return frozenset(t for t in self._toks if t != GAP)

    @property
    def tokens(self) -> tuple[int, ...]:
        return self._toks


class Shape:
    """A listing f with a known shape (S, B): f permutes [0, S), and it
    permutes every block [S + kB, S + (k+1)B) alike, as
    f(S + kB + j) = S + kB + pi[j].  The identity is (0, 1).

    Built from f, it checks f on [0, S) and on the first block, keeps those
    values and reads every other one by arithmetic: called, a shape is f.
    From ``fixed`` on (S when B = 1, else never) each position lists
    itself.
    ``index(v)`` is the position that lists v, ``first_above`` the first
    position whose value exceeds a limit, and ``image`` splits a range of
    positions into whole cells ([0, S) and the blocks), each listing its
    own positions, and the parts of cells at either end.
    """

    __slots__ = ("S", "B", "head", "pi", "fixed", "_head_at", "_pi_at")

    def __init__(self, f: Callable[[int], int], S: int, B: int) -> None:
        head = [f(i) for i in range(S)]
        pi = [f(S + j) - S for j in range(B)]
        if B < 1 or sorted(head) != list(range(S)) or sorted(pi) != list(range(B)):
            raise ValueError("the listing does not have the shape (%d, %d)" % (S, B))
        self.S, self.B, self.head, self.pi = S, B, head, pi
        self.fixed = S if B == 1 else math.inf
        # the inverse permutations: where each value lies
        self._head_at = sorted(range(S), key=head.__getitem__)
        self._pi_at = sorted(range(B), key=pi.__getitem__)

    def __call__(self, p: int) -> int:
        if p >= self.fixed:
            return p
        S = self.S
        if p < S:
            return self.head[p]
        j = (p - S) % self.B
        return p - j + self.pi[j]

    def index(self, v: int) -> int:
        """The position that lists v; -1 for a negative v."""
        if v >= self.fixed:
            return v
        S = self.S
        if v < S:
            return self._head_at[v] if v >= 0 else -1
        j = (v - S) % self.B
        return v - j + self._pi_at[j]

    def _cell(self, p: int) -> int:
        """The start of the cell that holds position p."""
        return 0 if p < self.S else p - (p - self.S) % self.B

    def values(self, lo: int, hi: int) -> Iterable[int]:
        """The values at positions lo .. hi-1, a cell at a time."""
        S, B = self.S, self.B
        if lo >= self.fixed:
            return range(lo, hi)
        out = self.head[lo:hi]
        for base in range(self._cell(max(lo, S)), hi, B):
            out += [base + j for j in self.pi[max(lo - base, 0):hi - base]]
        return out

    def first_above(self, limit: int) -> int:
        """The first position whose value exceeds limit, a natural.  Every
        cell lists its own positions, so it lies in the cell that holds
        limit + 1 or starts the next one."""
        a = self._cell(limit + 1)
        b = self.S if a < self.S else a + self.B
        return next((p for p in range(a, b) if self(p) > limit), b)

    def image(self, lo: int, hi: int) -> tuple[list[int], int, int]:
        """(values, a, b): positions lo .. hi-1 list the interval [a, b),
        their whole cells, and the values at the rest, which lie in the
        cells at either end."""
        if lo >= self.fixed:   # every cell is whole
            return [], lo, max(lo, hi)
        a, b = self._cell(lo), self._cell(hi)
        if a < lo:   # the next cell's start
            a = self.S if a < self.S else a + self.B
        if a > b:    # inside one cell
            return list(self.values(lo, hi)), lo, lo
        return [*self.values(lo, a), *self.values(b, hi)], a, b


IDENTITY = Shape(identity, 0, 1)


class Tape:
    """A mutable token list with the first position of each watched value.

    The run engine's string, the stack runner's tips ρ(0..p) and an
    opponent's string all change by appending and by cutting back, and
    their consumers only ask where a value first occurs and whether it
    occurs at all: a cut at c keeps v exactly when ``first[v] < c``.  An
    opponent's enumeration is a tape that is never cut, asked where a
    value was first enumerated.
    The string is ``tokens`` followed by a count, ``listing``, of listing
    tokens f(L), f(L+1), ... (f(p) at position p), where f is the listing
    the tape was made with, by default the identity (a_L, a_L+1, ...):
    ``extend_listing`` only adds to the count, a cut into it shortens it,
    ``push``, the one append, counts a value the shape lists next, and
    otherwise it and ``extend`` store a pending count first (at most
    MAX_STORED tokens).  So a run's quiet stretches cost no memory.  A
    listing that is a :class:`Shape` (``shape``) is listed and searched by
    arithmetic, without calling f; any other f is called over the count,
    and ``watch`` stores it.  ``first`` holds the watched values that are
    present; ``extend_listing`` reports the watched values that arrived.
    """

    __slots__ = ("tokens", "listing", "first", "watched", "f", "shape")

    def __init__(self, f: Callable[[int], int] = IDENTITY) -> None:
        self.tokens: list[int] = []
        self.listing = 0
        self.first: dict[int, int] = {}
        self.watched: set[int] = set()
        self.f = f
        self.shape: Optional[Shape] = f if isinstance(f, Shape) else None

    def __len__(self) -> int:
        return len(self.tokens) + self.listing

    def _listed(self, lo: int, hi: int) -> Iterable[int]:
        """The listing's tokens for positions lo .. hi-1."""
        shape = self.shape
        return shape.values(lo, hi) if shape else map(self.f, range(lo, hi))

    def at(self, i: int) -> int:
        """The token at position i, which is below the length."""
        return self.tokens[i] if i < len(self.tokens) else self.f(i)

    def head(self, k: int) -> list[int]:
        """The first k tokens (k at most the length), without storing the
        count."""
        return self.tokens[:k] + list(self._listed(len(self.tokens), k))

    def store(self) -> list[int]:
        """The whole string as ``tokens``, refused before anything grows
        past MAX_STORED; the count is stored from now on."""
        tokens, n = self.tokens, len(self)
        if n > MAX_STORED:
            raise StoreLimitError("cannot store a string of %d tokens (the limit"
                                  " is %d)" % (n, MAX_STORED))
        tokens.extend(self._listed(len(tokens), n))
        self.listing = 0
        return tokens

    def watch(self, v: int) -> None:
        """Find v once (if it is new to the tape) and track it from now on;
        a count over a listing without a shape is stored first."""
        if v not in self.watched:
            self.watched.add(v)
            shape = self.shape
            tokens = self.tokens if shape else self.store()
            if v in tokens:
                self.first[v] = tokens.index(v)
            elif shape:
                p = v if v >= shape.fixed else shape.index(v)
                if 0 <= p - len(tokens) < self.listing:
                    self.first[v] = p

    def push(self, v: int) -> None:
        """Append v, to the count when the shape lists v next."""
        if self.shape and v == self.shape(len(self)):
            self.extend_listing(1)
            return
        tokens = self.store() if self.listing else self.tokens
        tokens.append(v)
        if v in self.watched and v not in self.first:
            self.first[v] = len(tokens) - 1

    def extend(self, values: list[int]) -> None:
        """Append values."""
        tokens, first = self.store() if self.listing else self.tokens, self.first
        L = len(tokens)
        tokens.extend(values)
        for v in self.watched.intersection(values).difference(first):
            first[v] = L + values.index(v)

    def extend_listing(self, n: int) -> list[int]:
        """Append the listing's next n tokens as a count; return the watched
        values that arrived."""
        L = len(self.tokens) + self.listing
        self.listing += n
        first, new, shape = self.first, range(L, L + n), self.shape
        if shape:
            # a shape places each watched value, from ``fixed`` on at
            # itself; a short stretch is listed
            watched, index, plain = self.watched, shape.index, L >= shape.fixed
            if n < len(watched):
                watched = watched.intersection(new if plain else shape.values(L, L + n))
            if plain:
                arrived = [v for v in watched if v in new and v not in first]
                for v in arrived:
                    first[v] = v
            else:
                arrived = [v for v in watched if v not in first and index(v) in new]
                for v in arrived:
                    first[v] = index(v)
        else:
            # one pass over f finds the arrivals, and one pass per arrival,
            # stopping at its first position, places it; nothing is stored
            f = self.f
            arrived = [v for v in self.watched.intersection(map(f, new)) if v not in first]
            for v in arrived:
                first[v] = L + indexOf(map(f, new), v)
        return arrived

    def cut(self, pos: int) -> None:
        """Drop positions pos.. (at most the length).  A cut into the count
        shortens it."""
        first, tokens = self.first, self.tokens
        for v in [v for v, i in first.items() if i >= pos]:
            del first[v]
        del tokens[pos:]
        self.listing = pos - len(tokens)

    def cover(self, values: Iterable[int]) -> Optional[int]:
        """Length of the least prefix holding every value (all watched),
        or None when one of them is absent."""
        first, k = self.first, 0
        for v in values:
            i = first.get(v)
            if i is None:
                return None
            if i >= k:
                k = i + 1
        return k


class IntervalSet(Set):
    """An immutable set of naturals held as sorted, disjoint, non-touching
    half-open intervals [b0, b1), [b2, b3), ...; ``bounds`` is the flat,
    strictly increasing tuple b0, b1, b2, ....

    A belief estimate is a short stored head plus the interval the
    listing keeps adding, so it costs the string's events, not its
    length.  As a :class:`collections.abc.Set` it compares with ``set``
    and ``frozenset`` as they compare with each other; membership,
    length, in-order iteration, equality with another IntervalSet, ``^``,
    :meth:`first_from` and :meth:`below` read the bounds alone.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds: Iterable[int] = ()) -> None:
        self.bounds = tuple(bounds)

    @classmethod
    def of(cls, values: Iterable[int], lo: int = 0, hi: int = 0) -> "IntervalSet":
        """The naturals among values (negatives such as GAP are dropped),
        with [lo, hi) for 0 <= lo.  One sort of the distinct values; a
        stretch of them is one run when its ends lie as far apart as its
        positions, else it is halved, so few runs cost few steps."""
        s = sorted(set(values))
        bounds: list[int] = []
        todo = [(bisect_left(s, 0), len(s))]
        while todo:
            i, j = todo.pop()
            if i == j:
                continue
            a, b = s[i], s[j - 1]
            if b - a == j - 1 - i:
                if bounds and bounds[-1] == a:
                    bounds[-1] = b + 1   # touches the run before it
                else:
                    bounds += (a, b + 1)
            else:
                m = (i + j) // 2
                todo += ((m, j), (i, m))   # the left half comes off first
        if lo < hi:
            # an even count of bounds before lo (after hi) puts lo (hi) in
            # a gap, where it bounds the union; otherwise a run absorbs it
            i, j = bisect_left(bounds, lo), bisect_right(bounds, hi)
            bounds[i:j] = (lo, hi)[i % 2:2 - j % 2]
        return cls(bounds)

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> "IntervalSet":
        return cls.of(it)

    def __contains__(self, v) -> bool:
        return bisect_right(self.bounds, v) % 2 == 1

    def __len__(self) -> int:
        b = self.bounds
        return sum(b[1::2]) - sum(b[::2])

    def __iter__(self) -> Iterator[int]:
        b = self.bounds
        return chain.from_iterable(map(range, b[::2], b[1::2]))

    def __eq__(self, other) -> bool:
        if isinstance(other, IntervalSet):
            return self.bounds == other.bounds
        return Set.__eq__(self, other)

    def __xor__(self, other):
        if isinstance(other, IntervalSet):
            # every bound toggles membership, and a bound both sets hold
            # toggles it twice
            return IntervalSet(sorted(set(self.bounds).symmetric_difference(
                other.bounds)))
        return Set.__xor__(self, other)

    __rxor__ = __xor__

    def first_from(self, v: int) -> Optional[int]:
        """The least member at or above v, or None."""
        b = self.bounds
        i = bisect_right(b, v)
        if i % 2:
            return v
        return b[i] if i < len(b) else None

    def below(self, n: int) -> "IntervalSet":
        """The members below n."""
        b = self.bounds
        i = bisect_left(b, n)
        return IntervalSet(b[:i] + (n,) if i % 2 else b[:i])

    def __repr__(self) -> str:
        return "IntervalSet(%r)" % (self.bounds,)


# ---------------------------------------------------------------------------
# the four primitive operations
# ---------------------------------------------------------------------------

def contraction(sigma: BeliefString, k: int) -> BeliefString:
    """Initial segment of length ``k``.

    Requires ``0 <= k < len(sigma)``: contracting to the full length or
    beyond is out of range by convention.
    """
    if not 0 <= k < len(sigma):
        raise OperationError(
            "contraction index %d out of range for length %d" % (k, len(sigma))
        )
    return BeliefString(sigma.tokens[:k])


def expansion(sigma: BeliefString) -> BeliefString:
    """Append the next axiom in the canonical listing: a_{len(sigma)}."""
    return BeliefString(sigma.tokens + (len(sigma),))


def replacement(sigma: BeliefString, new_axiom: AxiomId) -> BeliefString:
    """Swap the last token, which must be an axiom, for a different axiom."""
    if len(sigma) == 0:
        raise OperationError("replacement on the empty string")
    last = sigma.tokens[-1]
    if last == GAP:
        raise OperationError("replacement on a gap-terminated string")
    if new_axiom == last:
        raise OperationError("replacement with the identical axiom a%d" % last)
    if new_axiom < 0:
        raise OperationError("replacement target must be an axiom")
    return BeliefString(sigma.tokens[:-1] + (new_axiom,))


def excision(sigma: BeliefString) -> BeliefString:
    """Turn the last token, which must be an axiom, into a gap."""
    if len(sigma) == 0:
        raise OperationError("excision on the empty string")
    if sigma.tokens[-1] == GAP:
        raise OperationError("excision on a gap-terminated string")
    return BeliefString(sigma.tokens[:-1] + (GAP,))
