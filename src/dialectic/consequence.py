"""Finitely presented staged consequence operators.

An operator is given by a finite table of rules ``(stage, premises, conclusion)``
where the conclusion is an axiom, the inconsistency marker, or the
counterexample marker.  Evaluation at stage ``n`` over a finite axiom set
``F`` returns ``F`` itself plus the conclusion of every rule whose stage has
arrived and whose premises are contained in ``F`` — a single pass, not a
closure.  Inclusion and monotony (in both arguments) hold by construction;
the independent validator re-checks them together with the iteration law
on a bounded fragment.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import le
from typing import Iterable, Sequence

from .strings import AxiomId, DialecticError, axiom_from_str, natural_from_str, quoted

# Conclusion sentinels.  Axioms are their own (non-negative) codes.
BOT: int = -2   # inconsistency marker
CE: int = -3    # counterexample marker


def symbol_to_str(sym: int) -> str:
    if sym == BOT:
        return "BOT"
    if sym == CE:
        return "CE"
    return "a%d" % sym


def symbol_from_str(text: str) -> int:
    if text == "BOT":
        return BOT
    if text == "CE":
        return CE
    return axiom_from_str(text, "malformed conclusion symbol %s" % quoted(text))


class TableError(DialecticError, ValueError):
    """A rule table violates a structural requirement."""


@dataclass(frozen=True)
class Rule:
    """One line of a finite operator presentation."""

    stage: int
    premises: frozenset[AxiomId]
    conclusion: int

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise TableError("rule stage must be a natural number")
        for p in self.premises:
            if p < 0:
                raise TableError("rule premises must be axioms")
        if self.conclusion < 0 and self.conclusion not in (BOT, CE):
            raise TableError("bad conclusion code %d" % self.conclusion)

    def render(self) -> str:
        prem = " ".join("a%d" % p for p in sorted(self.premises))
        return "at %d : %s |- %s" % (self.stage, prem, symbol_to_str(self.conclusion))


def rule(stage: int, premises: Iterable[AxiomId], conclusion: int) -> Rule:
    return Rule(stage, frozenset(premises), conclusion)


class RuleTable:
    """Append-only list of rules presenting a staged operator."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: list[Rule] = list(rules)

    def append(self, r: Rule) -> None:
        self._rules.append(r)

    @property
    def rules(self) -> Sequence[Rule]:
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __eq__(self, other) -> bool:
        if isinstance(other, RuleTable):
            return self._rules == other._rules
        return NotImplemented

    def __repr__(self) -> str:
        return "RuleTable(%d rules)" % len(self._rules)

    def max_stage(self) -> int:
        return max((r.stage for r in self._rules), default=0)

    def max_axiom(self) -> int:
        """Largest axiom index mentioned anywhere in the table, -1 if none."""
        m = -1
        for r in self._rules:
            if r.premises:
                m = max(m, max(r.premises))
            if r.conclusion >= 0:
                m = max(m, r.conclusion)
        return m

    def conclusion_kinds(self) -> frozenset[int]:
        return frozenset(r.conclusion for r in self._rules if r.conclusion in (BOT, CE))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(table: RuleTable, n: int, F: Iterable[AxiomId]) -> frozenset[int]:
    """Single-pass staged evaluation: ``F`` plus conclusions of fired rules.

    Conclusions are not fed back; derived axioms do not enable further rules
    within one evaluation.  When no rule fires the result is
    ``frozenset(F)``, which for a frozenset is ``F`` itself.
    """
    fset = frozenset(F)
    out = None
    for r in table._rules:
        if r.stage <= n and r.premises <= fset:
            if out is None:
                out = set(fset)
            out.add(r.conclusion)
    return fset if out is None else frozenset(out)


def limit_closure(table: RuleTable, F: Iterable[AxiomId]) -> frozenset[int]:
    """Evaluation with every stage admitted (the table's maximal stage)."""
    return evaluate(table, table.max_stage(), F)


def check_no_empty_derivation(table: RuleTable) -> None:
    """Reject tables from which ⊥ or ce is derivable from the empty set."""
    for r in table:
        if r.conclusion in (BOT, CE) and not r.premises:
            raise TableError(
                "table derives %s from the empty set (rule at stage %d)"
                % (symbol_to_str(r.conclusion), r.stage)
            )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class ValidationScopeError(DialecticError, ValueError):
    """The requested validation bound does not cover the table, or the
    validation would do more work than the limits below allow."""


# limits on one validation: the sets it enumerates, and the sets times the
# stages 0..top it evaluates each of them at
MAX_VALIDATION_SETS = 200_000
MAX_VALIDATION_STEPS = 5_000_000
# the most rules from_horn's saturation may hold
MAX_SATURATED_RULES = 20_000


def check_validation_size(bound: int, width: int, top_stage: int) -> None:
    """Refuse, before any enumeration, a validation over the limits."""
    n = max(bound + 1, 0)
    sets = sum(math.comb(n, k) for k in range(min(width, n) + 1))
    steps = sets * (top_stage + 1)
    if sets > MAX_VALIDATION_SETS:
        raise ValidationScopeError(
            "bound %d would enumerate %d sets; the limit is %d"
            % (bound, sets, MAX_VALIDATION_SETS))
    if steps > MAX_VALIDATION_STEPS:
        raise ValidationScopeError(
            "%d sets at each of %d stages make %d evaluations; the limit "
            "is %d" % (sets, top_stage + 1, steps, MAX_VALIDATION_STEPS))


@dataclass
class ValidationReport:
    ok: bool
    bound: int
    width: int
    checked_sets: int
    failures: list[str] = field(default_factory=list)
    structural_iteration: bool = False

    def render(self) -> str:
        lines = ["validation %s (bound=%d, width=%d, sets=%d)"
                 % ("passed" if self.ok else "FAILED", self.bound, self.width,
                    self.checked_sets)]
        if self.structural_iteration:
            lines.append("iteration law certified structurally "
                         "(no axiom-producing rules)")
        lines.extend(self.failures)
        return "\n".join(lines)


def _subsets_up_to(universe: Sequence[int], width: int):
    for size in range(0, width + 1):
        yield from itertools.combinations(universe, size)


def validate_aco(table: RuleTable, bound: int, width: int = 4) -> ValidationReport:
    """Re-check inclusion, monotony (both arguments) and the iteration law.

    All finite sets of at most ``width`` axioms drawn from ``{a0..a_bound}``
    are enumerated, and each is evaluated at every stage 0..top.  ``bound``
    must cover every axiom the table mentions, and the work must lie within
    the limits of ``check_validation_size``.
    """
    if bound < table.max_axiom():
        raise ValidationScopeError(
            "bound %d below largest mentioned axiom index %d"
            % (bound, table.max_axiom())
        )
    top_stage = table.max_stage()
    check_validation_size(bound, width, top_stage)
    universe = list(range(bound + 1))
    failures: list[str] = []
    checked = 0

    axiom_producing = any(r.conclusion >= 0 for r in table)

    subsets = [frozenset(s) for s in _subsets_up_to(universe, width)]
    closures = {F: evaluate(table, top_stage, F) for F in subsets}
    # monotony in F along the one-axiom extensions F ⊂ F ∪ {a}: every
    # superset in the sample is reached by such steps, so if every link
    # holds, every pair does; if one fails, each set is scanned against all
    # of its supersets below, which gives the failures in the sample's order
    links_hold = all(closures[F] <= closures[F.union((a,))]
                     for F in subsets if len(F) < width
                     for a in universe if a not in F)
    below_top = range(top_stage)
    for F in subsets:
        checked += 1
        full = closures[F]
        outs = [evaluate(table, n, F) for n in below_top]
        outs.append(full)
        # inclusion and stage monotony as one chain F ⊆ out_0 ⊆ … ⊆ out_top;
        # evaluate returns F itself when no rule fires, and list.count
        # matches that by identity
        out0 = outs[0]
        if not (F.issubset(out0) and (outs.count(out0) == len(outs)
                                       or all(map(le, outs, outs[1:])))):
            prev: frozenset[int] | None = None
            for n, out in enumerate(outs):
                if not F <= out:
                    failures.append("inclusion fails at n=%d F=%s" % (n, sorted(F)))
                if prev is not None and not prev <= out:
                    failures.append("stage monotony fails at n=%d F=%s"
                                    % (n, sorted(F)))
                prev = out
        if not links_hold:
            # adding the extras in size-then-lexicographic order visits the
            # supersets in the sample's own order
            rest = [a for a in universe if a not in F]
            for extra in itertools.islice(_subsets_up_to(rest, width - len(F)),
                                          1, None):
                G = F.union(extra)
                if not full <= closures[G]:
                    failures.append(
                        "set monotony fails for F=%s G=%s" % (sorted(F), sorted(G))
                    )
        if axiom_producing:
            # iteration: closing the axiom part of the closure reproduces it
            core = frozenset(x for x in full if x >= 0)
            again = (closures[core] if core in closures
                     else evaluate(table, top_stage, core))
            if again != full:
                failures.append(
                    "iteration fails for F=%s: closure of closure differs"
                    % sorted(F)
                )
    report = ValidationReport(
        ok=not failures,
        bound=bound,
        width=width,
        checked_sets=checked,
        failures=failures[:20],
        structural_iteration=not axiom_producing,
    )
    return report


# ---------------------------------------------------------------------------
# knowledge-base compilation
# ---------------------------------------------------------------------------

def from_horn(
    items: Sequence[AxiomId],
    horn_rules: Iterable[tuple[Iterable[AxiomId], AxiomId]],
    conflicts: Iterable[Iterable[AxiomId]],
) -> RuleTable:
    """Compile definite rules plus conflict sets into a staged table.

    Direct horn rules sit at stage 1, conflicts at stage 0, and every
    composition at the sum of its component stages (derivation depth).  The
    transitive closure is materialized because evaluation is single-pass:
    a chain k0→k1→k2 yields the derived rule {k0} ⊢ k2 at stage 2.
    """
    item_set = set(items)
    best: dict[tuple[frozenset[int], int], int] = {}

    def note(premises: frozenset[int], concl: int, stage: int) -> bool:
        key = (premises, concl)
        old = best.get(key)
        if old is None or stage < old:
            best[key] = stage
            return True
        return False

    for prem, concl in horn_rules:
        pf = frozenset(prem)
        if not pf <= item_set or concl not in item_set:
            raise TableError("horn rule mentions unknown item")
        if concl in pf:
            continue  # trivially true; inert
        note(pf, concl, 1)
    for grp in conflicts:
        gf = frozenset(grp)
        if not gf <= item_set:
            raise TableError("conflict mentions unknown item")
        if not gf:
            raise TableError("empty conflict set")
        note(gf, BOT, 0)

    # saturate compositions: (P ⊢ c) + (Q ∋ c ⊢ d)  ⇒  (P ∪ Q∖{c} ⊢ d)
    changed = True
    while changed:
        changed = False
        snapshot = list(best.items())
        for (p1, c1), s1 in snapshot:
            if c1 < 0:
                continue
            for (p2, c2), s2 in snapshot:
                if c1 not in p2:
                    continue
                newp = p1 | (p2 - {c1})
                if c2 >= 0 and c2 in newp:
                    continue
                if note(newp, c2, s1 + s2):
                    changed = True
        if len(best) > MAX_SATURATED_RULES:
            raise TableError("saturation exceeded cap of %d rules"
                             % MAX_SATURATED_RULES)

    rules = [Rule(stage, prem, concl)
             for (prem, concl), stage in sorted(
                 best.items(),
                 key=lambda kv: (kv[1], sorted(kv[0][0]), kv[0][1]))]
    return RuleTable(rules)


# ---------------------------------------------------------------------------
# revision operators
# ---------------------------------------------------------------------------

def revision_operator(base: RuleTable, K: Iterable[AxiomId], b: AxiomId) -> RuleTable:
    """Operator for revising by ``b``: ``b`` held true, output filtered to K ∪ {⊥}.

    Satisfies ``evaluate(result, n, F) == evaluate(base, n, F ∪ {b}) ∩ (K ∪ {⊥})``
    for every F ⊆ K.
    """
    kset = frozenset(K)
    if b in kset:
        raise TableError("revision input a%d is already a background item" % b)
    return _revise(base, kset, {b: 0})


def stream_revision_operator(
    base: RuleTable, K: Iterable[AxiomId], stream: Sequence[AxiomId]
) -> RuleTable:
    """Iterated revision: stream item ``b_i`` becomes available at stage ``i``.

    Each rewritten rule's stage is raised to the largest stream index it
    consumed, so no rule fires before its inputs have arrived.
    """
    kset = frozenset(K)
    spos = {b: i for i, b in enumerate(stream)}
    if kset & spos.keys():
        raise TableError("stream items must be disjoint from the background set")
    return _revise(base, kset, spos)


def _revise(base: RuleTable, kset: frozenset[int], spos: dict[int, int]) -> RuleTable:
    """Drop the premises in ``spos`` (item -> arrival stage) from every rule
    whose other premises lie in K and whose conclusion is in K ∪ {⊥},
    raising its stage to the latest arrival it consumed; first of each
    (premises, conclusion, stage) kept."""
    out: list[Rule] = []
    seen: set[tuple[frozenset[int], int, int]] = set()
    for r in base:
        prem = r.premises.difference(spos)
        if not prem <= kset:
            continue
        if r.conclusion != BOT and (r.conclusion < 0 or r.conclusion not in kset):
            continue
        stage = r.stage
        if len(prem) < len(r.premises):
            stage = max(stage, max(spos[p] for p in r.premises - prem))
        key = (prem, r.conclusion, stage)
        if key in seen:
            continue
        seen.add(key)
        out.append(Rule(stage, prem, r.conclusion))
    return RuleTable(out)


# ---------------------------------------------------------------------------
# rule-line grammar:  at <stage> : <premise tokens> |- <symbol>
# ---------------------------------------------------------------------------

def parse_rule_line(text: str) -> Rule:
    body = text.strip()
    if not body.startswith("at "):
        raise ValueError("rule line must start with 'at '")
    rest = body[3:]
    if ":" not in rest or "|-" not in rest:
        raise ValueError("rule line needs ': ... |- ...'")
    stage_part, tail = rest.split(":", 1)
    prem_part, concl_part = tail.split("|-", 1)
    stage_part = stage_part.strip()
    stage = natural_from_str(stage_part, "bad stage %s" % quoted(stage_part))
    premises = [axiom_from_str(tok, "bad premise token %s" % quoted(tok))
                for tok in prem_part.split()]
    conclusion = symbol_from_str(concl_part.strip())
    return Rule(stage, frozenset(premises), conclusion)
