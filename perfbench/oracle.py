"""Knowledge-base cases for the kb-repair workload, and their oracle.

The KB generator mirrors the acceptance gate's repair criterion: case
``index`` is drawn from ``Random(900000 + index)``, so index 0..2999 are
that criterion's 3000 cases.  The same generator then draws a small set
of arriving items for ``revise_stream``.

``greedy_keep`` is the entrenchment-greedy oracle: walk the items from
most to least entrenched and keep each one whose Horn closure with the
items kept so far contains no conflict set.  It is written here, apart
from the package, so that it stays an independent check.
"""

from __future__ import annotations

from random import Random


def kb_case(applications, index: int):
    """(knowledge base, additions) of pool case ``index``."""
    rng = Random(900000 + index)
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
    kb = applications.KnowledgeBase(tuple(items), tuple(rules),
                                    tuple(conflicts))

    # one or two arriving items; each may imply a base item and may
    # conflict with one
    new = list(range(n, n + rng.randrange(1, 3)))
    add_rules = []
    add_conflicts = []
    for item in new:
        if rng.random() < 0.6:
            add_rules.append((frozenset({item}), rng.choice(items)))
        if rng.random() < 0.5:
            add_conflicts.append(frozenset({item, rng.choice(items)}))
    adds = applications.Additions(tuple(new), tuple(add_rules),
                                  tuple(add_conflicts))
    return kb, adds


def _chain(members, horn_rules) -> set:
    out = set(members)
    changed = True
    while changed:
        changed = False
        for prem, concl in horn_rules:
            if concl not in out and prem <= out:
                out.add(concl)
                changed = True
    return out


def greedy_keep(kb) -> list:
    kept: list = []
    for item in kb.items:
        closed = _chain(set(kept) | {item}, kb.horn_rules)
        if not any(c <= closed for c in kb.conflicts):
            kept.append(item)
    return kept
