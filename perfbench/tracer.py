"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the package, by rebinding the public
functions and methods of each module for the length of one traced
iteration; nothing under ``src/`` knows about them.

Two kinds of wrapper share one stack of open frames:

* a *span* (an entry point such as ``engine.run``) is kept in memory as
  ``(name, t0, t1, parent, leaf_time, calls, passes, te, tx)``; its self
  time is derived afterwards from the span list;
* a *leaf* (a hot call such as one opponent step, ~10^5 per
  ``diagonalize`` iteration) is not kept; its count, inclusive and self
  time, a duration histogram and outcome counts are aggregated instead,
  so memory stays bounded however long the run.  A leaf call that raises
  is not recorded.

Each wrapper reads the clock four times: on entry (``te``), just before
and just after the wrapped call (``t0``, ``t1``), and after its own
bookkeeping (``tx``).  A call's duration is ``t1 - t0``.  Its caller is
charged ``tx - te`` as child time, so the wrapper's bookkeeping is not
billed to the caller's self time.  What still falls outside ``te..tx``
(entering and leaving the wrapper function) is measured once per run on
a no-op (``calibrate``) and taken off the caller per wrapped call it
made; so is the part of ``t0..t1`` that is clock reading, taken off each
leaf call.  Everything taken off goes to ``wrapper_time``, which no
layer's self time includes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

_HIST_SCALE = 1e8        # leaf histogram bins are 10 ns wide
_CALIBRATE_CALLS = 2000
_FAILED = object()       # a span's result when the wrapped call raised


class Leaf:
    """Aggregate of one hot call site."""

    __slots__ = ("count", "total", "outer", "self_total", "calls", "passes",
                 "hist", "outcomes", "marks")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0          # sum of t1 - t0
        self.outer = 0.0          # sum of tx - te
        self.self_total = 0.0     # sum of t1 - t0 minus the children's tx - te
        self.calls = 0            # wrapped calls made directly inside
        self.passes = 0           # same-layer polls passed through inside
        self.hist: dict[int, int] = defaultdict(int)
        self.outcomes: dict[str, int] = defaultdict(int)
        self.marks: list[tuple[float, int]] = []   # (time, enclosing span)

    def percentile_us(self, q: float) -> float:
        """Nearest-rank percentile of the call durations, in microseconds."""
        rank = _rank(q, self.count)
        seen = 0
        for key in sorted(self.hist):
            seen += self.hist[key]
            if seen >= rank:
                return (key + 0.5) / _HIST_SCALE * 1e6
        return 0.0


class Recorder:
    """Open frames, finished spans and leaf aggregates of one traced run.

    A frame is ``[child_time, leaf_time, span_id, layer, calls, passes]``:
    the ``tx - te`` of its wrapped children, the part of that spent in
    leaves, the enclosing span, the layer, and the number of wrapped
    calls and passed-through polls made directly inside it.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list = []
        self.leaves: dict[str, Leaf] = defaultdict(Leaf)
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._residuals: tuple[float, float, float] | None = None

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        layer = name.split(".", 1)[0]
        stack, spans, counters = self.stack, self.spans, self.counters

        def wrapper(*args, **kwargs):
            te = perf_counter()
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [0.0, 0.0, sid, layer, 0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                result = _FAILED
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if on_result is not None and result is not _FAILED:
                    on_result(result, counters)
                tx = perf_counter()
                spans[sid] = (name, t0, t1, parent[2] if parent else -1,
                              frame[1], frame[4], frame[5], te, tx)
                if parent is not None:
                    parent[0] += tx - te
                    parent[4] += 1
            return result

        return wrapper

    def leaf(self, name: str, fn, classify=None, mark_every: int = 0,
             poll: bool = False):
        """A hot call, aggregated.  With ``poll`` it is only recorded when
        called from outside its layer: opponent queries made inside an
        opponent step are part of that step, while the same queries made
        by the diagonalizer's strategy checks are polls; likewise a
        home-engine stage taken inside ``engine.run`` is already counted
        by that span."""
        layer = name.split(".", 1)[0]
        agg = self.leaves[name]
        stack = self.stack
        hist, outcomes, marks = agg.hist, agg.outcomes, agg.marks

        def wrapper(*args, **kwargs):
            te = perf_counter()
            if poll and stack and stack[-1][3] == layer:
                stack[-1][5] += 1
                return fn(*args, **kwargs)
            frame = [0.0, 0.0, stack[-1][2] if stack else -1, layer, 0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            d = t1 - t0
            agg.count += 1
            agg.total += d
            agg.self_total += d - frame[0]
            agg.calls += frame[4]
            agg.passes += frame[5]
            hist[int(d * _HIST_SCALE)] += 1
            if mark_every and agg.count % mark_every == 0:
                marks.append((t1, frame[2]))
            if classify is not None:
                label = classify(result)
                if label:
                    outcomes[label] += 1
            tx = perf_counter()
            agg.outer += tx - te
            if stack:
                parent = stack[-1]
                parent[0] += tx - te
                parent[1] += tx - te
                parent[4] += 1
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Rebind ``owner.attr`` to ``make(original)`` until ``uninstall``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_function(self, modules, home, attr: str, make) -> None:
        """Rebind a module function everywhere it was imported by name."""
        original = getattr(home, attr)
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived figures ----------------------------------------------------

    def calibrate(self) -> tuple[float, float, float]:
        """What a wrapper adds per call, measured on a no-op: the time its
        caller pays outside ``te..tx`` for a recorded call and for a
        passed-through poll, and the time inside ``t0..t1`` that is not
        the wrapped call's own.  Each is the fastest of five timings."""
        if self._residuals is None:
            def noop(a, b):     # hot calls take a receiver and an argument
                return None

            probe = Recorder()
            timed = probe.leaf("probe.leaf", noop)
            passed = probe.leaf("probe.poll", noop, poll=True)
            agg = probe.leaves["probe.leaf"]
            n = _CALIBRATE_CALLS
            calls = range(n)
            empty = direct = outside = through = inside = math.inf
            for _ in range(5):
                t0 = perf_counter()
                for _ in calls:
                    pass
                empty = min(empty, (perf_counter() - t0) / n)
                t0 = perf_counter()
                for _ in calls:
                    noop(1, 2)
                direct = min(direct, (perf_counter() - t0) / n)
                probe.stack[:] = [[0.0, 0.0, -1, "probe", 0, 0]]
                agg.total = 0.0
                t0 = perf_counter()
                for _ in calls:
                    timed(1, 2)
                elapsed = perf_counter() - t0 - probe.stack[0][0]
                outside = min(outside, elapsed / n)
                inside = min(inside, agg.total / n)
                t0 = perf_counter()
                for _ in calls:
                    passed(1, 2)
                through = min(through, (perf_counter() - t0) / n)
            self._residuals = (max(outside - direct, 0.0),
                               max(through - direct, 0.0),
                               max(inside - (direct - empty), 0.0))
        return self._residuals

    def leaf_self(self, name: str) -> float:
        """A leaf's self time: its durations less the ``tx - te`` of the
        wrapped calls made inside it, less the calibrated wrapper costs."""
        per_call, per_pass, bias = self.calibrate()
        agg = self.leaves[name]
        return (agg.self_total - agg.count * bias - agg.calls * per_call
                - agg.passes * per_pass)

    def span_self_times(self) -> list[float]:
        """Self time of each span: its duration minus the ``tx - te`` of its
        child spans and leaves, minus the calibrated cost of each wrapped
        call and passed-through poll it made."""
        per_call, per_pass, _ = self.calibrate()
        spans = self.spans
        child = [0.0] * len(spans)
        for _n, _t0, _t1, parent, _l, _c, _p, te, tx in spans:
            if parent >= 0:
                child[parent] += tx - te
        return [t1 - t0 - child[i] - leaf - calls * per_call - passes * per_pass
                for i, (_n, t0, t1, _p, leaf, calls, passes, _te, _tx)
                in enumerate(spans)]

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.span_self_times()):
            out[name] += own
        for name in self.leaves:
            out[name] += self.leaf_self(name)
        return out

    def busy_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, own in self.self_by_name().items():
            out[name.split(".", 1)[0]] += own
        return out

    def wrapper_time(self) -> float:
        """Time the wrappers cost, which no layer's self time includes."""
        per_call, per_pass, bias = self.calibrate()
        total = 0.0
        calls = passes = 0
        for _n, t0, t1, _p, _l, c, p, te, tx in self.spans:
            total += (tx - te) - (t1 - t0)
            calls += c
            passes += p
        for agg in self.leaves.values():
            total += agg.outer - agg.total + agg.count * bias
            calls += agg.calls
            passes += agg.passes
        return total + calls * per_call + passes * per_pass

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        if name in self.leaves:
            agg = self.leaves[name]
            return agg.total - agg.count * self.calibrate()[2]
        return sum(self.durations(name))

    def percentile_us(self, leaf: str, q: float) -> float:
        """A leaf's duration percentile, less the calibrated clock reads."""
        agg = self.leaves[leaf]
        if not agg.count:
            return 0.0
        return agg.percentile_us(q) - self.calibrate()[2] * 1e6

    def calls(self, name: str) -> int:
        if name in self.leaves:
            return self.leaves[name].count
        return len(self.durations(name))

    def chunk_durations(self, leaf: str, span: str) -> list[float]:
        """Time between consecutive marks of ``leaf`` inside each ``span``."""
        out = []
        last: dict[int, float] = {}
        for t, sid in self.leaves[leaf].marks:
            rec = self.spans[sid] if sid >= 0 else None
            if rec is None or rec[0] != span:
                continue
            out.append(t - last.get(sid, rec[1]))
            last[sid] = t
        return out


def _rank(q: float, n: int) -> int:
    # round first so that 0.9 * 100 is rank 90, not 91
    return max(1, math.ceil(round(q * n, 9)))


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    return sorted(values)[_rank(q, len(values)) - 1]


def tail_quantile(q: float, n: int) -> float:
    """``q``, lowered until at least ten of ``n`` inputs lie above it, but
    not below the median: a tail percentile with fewer inputs beyond it
    would be set by one or two of them, however often each is timed."""
    return max(0.5, min(q, 1 - 10 / n)) if n else q
