"""Knowledge-base repair and revision on top of the run engine.

A knowledge base is a listing of items -- earlier entries are better
entrenched -- plus definite rules and conflict sets over them.  Repair
compiles the base into a staged rule table, runs it, and reads the
surviving items off the stable part of the string: when a conflict
fires, the engine excises the latest-arrived culprit, which under the
listing order is the least entrenched one.

Revision accepts externally given items as true: their rules are folded
into the table with the new items erased from the premises, so the base
items bear all consequences of accepting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .consequence import (
    BOT, CE, Rule, RuleTable, from_horn, stream_revision_operator,
)
from .engine import (
    MissingReplacementError, QSystem, ReplacementCycleError, ReplacementMap,
    RunTrace, StabilityReport, estimate_beliefs, is_clean_window, run,
)
from .strings import ParseError, numbered_lines, quoted, read_input


# ---------------------------------------------------------------------------
# knowledge bases
# ---------------------------------------------------------------------------

@dataclass
class _ItemSet:
    """Items with definite rules, as (premises, conclusion) pairs, and
    conflicts, sets that cannot jointly stand."""

    items: tuple[int, ...]
    horn_rules: tuple[tuple[frozenset[int], int], ...] = ()
    conflicts: tuple[frozenset[int], ...] = ()
    labels: dict[int, str] = field(default_factory=dict)

    _where = "the items"      # names the set in the duplicate-item error

    def __post_init__(self) -> None:
        self.items = tuple(self.items)
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate items in %s" % self._where)
        self.horn_rules = tuple(
            (frozenset(p), c) for p, c in self.horn_rules)
        self.conflicts = tuple(frozenset(g) for g in self.conflicts)


@dataclass
class KnowledgeBase(_ItemSet):
    """Items in entrenchment order with rules and conflicts over them;
    ``replacements`` are per-item hints, only read by q-mode repair."""

    replacements: dict[int, int] = field(default_factory=dict)

    _where = "the listing"

    def __post_init__(self) -> None:
        super().__post_init__()
        known = set(self.items)
        for prem, concl in self.horn_rules:
            if not prem <= known or concl not in known:
                raise ValueError("rule mentions an undeclared item")
        for grp in self.conflicts:
            if not grp or not grp <= known:
                raise ValueError("conflict must name declared items")
        for a, b in self.replacements.items():
            if a not in known or b not in known:
                raise ValueError("replacement hint mentions an undeclared item")

    def label(self, item: int) -> str:
        return self.labels.get(item, "item%d" % item)

    def rank(self) -> dict[int, int]:
        """Item -> position in the entrenchment listing."""
        return {item: pos for pos, item in enumerate(self.items)}


@dataclass
class Additions(_ItemSet):
    """Externally given items, in arrival order, with their rules.

    Rules and conflicts may mention base items as well; validation
    happens against the base at use time.
    """

    _where = "the additions"


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class RepairResult:
    """What a repair or a revision kept; stability and trace are None
    only for a rejected addition, which is not run."""

    kept: frozenset[int]
    removed: frozenset[int]
    stability: Optional[StabilityReport]
    trace: Optional[RunTrace]
    partial: bool          # horizon ended inside an unsettled window
    mode: str
    accepted: tuple[int, ...] = ()     # injected items, arrival order
    rejected: bool = False         # a lone input refuted itself; no run
    inconsistent_input: bool = False  # the injected set alone yields ⊥


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _ranked_table(kb: KnowledgeBase, adds: Optional[Additions] = None):
    """Re-index items by entrenchment rank and compile the full table.

    Base items take ranks 0..n-1 in listing order; added items follow in
    arrival order.  Returns (n, m, table) with the table over ranks.
    """
    rank = kb.rank()
    n = len(kb.items)
    add_rules: tuple = ()
    add_conflicts: tuple = ()
    if adds is not None:
        for i, item in enumerate(adds.items):
            if item in rank:
                raise ValueError("added item %s is already in the base"
                                 % quoted(kb.label(item)))
            rank[item] = n + i
        add_rules = adds.horn_rules
        add_conflicts = adds.conflicts
        for prem, concl in add_rules:
            if not prem <= rank.keys() or concl not in rank:
                raise ValueError("added rule mentions an unknown item")
        for grp in add_conflicts:
            if not grp or not grp <= rank.keys():
                raise ValueError("added conflict mentions an unknown item")
    m = len(rank) - n
    rules = [(frozenset(rank[p] for p in prem), rank[c])
             for prem, c in kb.horn_rules + add_rules]
    conflicts = [frozenset(rank[p] for p in grp)
                 for grp in kb.conflicts + add_conflicts]
    table = from_horn(range(n + m), rules, conflicts)
    return n, m, table


def _window_default(kb: KnowledgeBase, horizon: int,
                    window: Optional[int]) -> int:
    """The window to use, once the horizon is known to list every item."""
    if horizon < len(kb.items):
        raise ValueError("horizon %d cannot list all %d items"
                         % (horizon, len(kb.items)))
    if window is not None:
        if not 0 <= window <= horizon:
            raise ValueError("window must satisfy 0 <= window <= horizon")
        return window
    return min(100, max(1, horizon // 4))


def _finish(kb: KnowledgeBase, system: QSystem, horizon: int, window: int,
            *, mode: str = "d", accepted: tuple[int, ...] = (),
            inconsistent_input: bool = False) -> RepairResult:
    """Run the system and read the base items that stand at the horizon."""
    tr = run(system, horizon)
    rep = estimate_beliefs(tr, window)
    items = kb.items
    kept = frozenset(map(items.__getitem__,
                         rep.belief_estimate.below(len(items))))
    return RepairResult(kept, frozenset(items) - kept, rep, tr,
                        not is_clean_window(system, rep), mode,
                        accepted=accepted,
                        inconsistent_input=inconsistent_input)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def repair(kb: KnowledgeBase, horizon: int,
           window: Optional[int] = None, mode: str = "d") -> RepairResult:
    """Run the compiled base and keep what stands at the horizon.

    The default mode excises conflicted items outright.  Mode "q"
    substitutes the base's replacement hints instead, where present: a
    conflict whose least entrenched member carries a hint becomes a
    replacement event rather than an excision.  Hints with a fixed point
    or a cycle, and a hint chain that fails to cover a value the run ends
    up replacing, surface as errors naming the item by its label.
    """
    if mode not in ("d", "q"):
        raise ValueError("mode must be 'd' or 'q'")
    window = _window_default(kb, horizon, window)
    _, _, table = _ranked_table(kb)
    hints: dict[int, int] = {}
    if mode == "q":
        rank = kb.rank()
        hints = {rank[a]: rank[b] for a, b in kb.replacements.items()}
        table = RuleTable(
            Rule(r.stage, r.premises, CE)
            if r.conclusion == BOT and max(r.premises) in hints else r
            for r in table)
    try:
        system = QSystem(table, ReplacementMap(sorted(hints.items())))
        return _finish(kb, system, horizon, window, mode=mode)
    except (ReplacementCycleError, MissingReplacementError) as exc:
        # the map and the run speak of ranks; name the item the user wrote
        exc.name = quoted(kb.label(kb.items[exc.axiom]))
        raise


# ---------------------------------------------------------------------------
# revision
# ---------------------------------------------------------------------------

def _revision(kb: KnowledgeBase, additions: Additions, horizon: int,
              window: Optional[int], lone: bool) -> RepairResult:
    """Run the base with ``additions`` held true, item i arriving at stage
    i.  If they refute themselves (a premise-free marker rule), a ``lone``
    item is rejected unrun; otherwise the rest of the table runs, flagged."""
    window = _window_default(kb, horizon, window)
    n, m, table = _ranked_table(kb, additions)
    revised = stream_revision_operator(table, range(n), range(n, n + m))
    runnable = RuleTable(r for r in revised
                         if r.premises or r.conclusion not in (BOT, CE))
    refuted = len(runnable) < len(revised)
    if refuted and lone:
        return RepairResult(
            kept=frozenset(kb.items), removed=frozenset(),
            stability=None, trace=None, partial=False, mode="d",
            rejected=True)
    return _finish(kb, QSystem(runnable, ReplacementMap()), horizon, window,
                   accepted=additions.items, inconsistent_input=refuted)


def revise(kb: KnowledgeBase, addition: Additions, horizon: int,
           window: Optional[int] = None) -> RepairResult:
    """Accept one externally given item and rerun the base.

    The new item is held true: its rules survive with the item erased
    from the premises, so conflicts with it charge the base items
    involved -- entrenchment does not protect them.  An addition that
    refutes itself against the base table is rejected without a run.
    """
    if len(addition.items) != 1:
        raise ValueError("revise takes exactly one added item")
    return _revision(kb, addition, horizon, window, lone=True)


def revise_stream(kb: KnowledgeBase, additions: Additions, horizon: int,
                  window: Optional[int] = None) -> RepairResult:
    """Accept a finite arrival sequence of externally given items.

    Item i becomes available at stage i: every rewritten rule's stage is
    raised to the largest arrival index it consumed, so consequences of
    late arrivals cannot fire early.  If the injected set alone yields
    the inconsistency marker the result is flagged and the salvageable
    rules still run.
    """
    return _revision(kb, additions, horizon, window, lone=False)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#   item <name>                    one per line, entrenchment order
#   rule <name> ... -> <name>      definite rule over declared items
#   conflict <name> ...            a set that cannot jointly stand
#   replace <name> -> <name>       hint for q-mode repair


def _parse_lines(text: str, names: dict[str, int], next_id: int,
                 allow_replace: bool):
    labels: dict[int, str] = {}    # new items in file order
    rules: list[tuple[frozenset[int], int]] = []
    conflicts: list[frozenset[int]] = []
    replacements: dict[int, int] = {}

    def resolve(token: str) -> int:
        if token not in names:
            raise ValueError("unknown item %s" % quoted(token))
        return names[token]

    for line_no, line in numbered_lines(text):
        verb, *rest = line.split()
        try:
            if verb == "item":
                if len(rest) != 1:
                    raise ValueError("item takes exactly one name")
                name = rest[0]
                if name in names:
                    raise ValueError("duplicate item %s" % quoted(name))
                names[name] = next_id
                labels[next_id] = name
                next_id += 1
            elif verb == "rule":
                if "->" not in rest:
                    raise ValueError("rule needs '->'")
                cut = rest.index("->")
                prem, concl = rest[:cut], rest[cut + 1:]
                if not prem or len(concl) != 1:
                    raise ValueError("rule needs premises and one conclusion")
                rules.append((frozenset(resolve(p) for p in prem),
                              resolve(concl[0])))
            elif verb == "conflict":
                if not rest:
                    raise ValueError("conflict needs at least one item")
                conflicts.append(frozenset(resolve(p) for p in rest))
            elif verb == "replace":
                if not allow_replace:
                    raise ValueError("replace hints belong to the base file")
                if len(rest) != 3 or rest[1] != "->":
                    raise ValueError("replace takes 'old -> new'")
                replacements[resolve(rest[0])] = resolve(rest[2])
            else:
                raise ValueError("unknown declaration %s" % quoted(verb))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return list(labels), labels, rules, conflicts, replacements


def parse_kb(text: str) -> KnowledgeBase:
    names: dict[str, int] = {}
    items, labels, rules, conflicts, repl = _parse_lines(
        text, names, 0, allow_replace=True)
    return KnowledgeBase(tuple(items), tuple(rules), tuple(conflicts),
                         labels, repl)


def parse_additions(text: str, kb: KnowledgeBase) -> Additions:
    """Additions may reference base items by their labels."""
    names = {name: item for item, name in kb.labels.items()}
    next_id = max(kb.items, default=-1) + 1
    items, labels, rules, conflicts, _ = _parse_lines(
        text, names, next_id, allow_replace=False)
    return Additions(tuple(items), tuple(rules), tuple(conflicts), labels)


def load_kb(path: str) -> KnowledgeBase:
    return parse_kb(read_input(path))


def load_additions(path: str, kb: KnowledgeBase) -> Additions:
    return parse_additions(read_input(path), kb)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def render_result(kb: KnowledgeBase, res: RepairResult,
                  extra_labels: Optional[dict[int, str]] = None) -> str:
    """Human-readable summary shared by the repair and revise commands."""
    extra = extra_labels or {}

    def tag(item: int) -> str:
        return extra.get(item) or kb.label(item)

    lines = ["mode %s" % res.mode]
    if res.stability is not None:
        lines.append("horizon %d window %d"
                     % (res.stability.horizon, res.stability.window))
    lines.append("kept: %s" % (" ".join(tag(i) for i in sorted(res.kept))
                               or "(nothing)"))
    lines.append("removed: %s" % (" ".join(tag(i) for i in sorted(res.removed))
                                  or "(nothing)"))
    if res.accepted:
        lines.append("accepted: %s" % " ".join(tag(i) for i in res.accepted))
    if res.rejected:
        lines.append("rejected: the added item refutes itself")
    if res.inconsistent_input:
        lines.append("warning: the added items are jointly inconsistent")
    lines.append("partial: %s" % ("yes" if res.partial else "no"))
    return "\n".join(lines) + "\n"
