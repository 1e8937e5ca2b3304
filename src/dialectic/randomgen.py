"""Seeded generators for test corpora.

All generators take a ``random.Random`` so corpora are reproducible from a
seed.  The shape is tuned for eventful runs: rule premises come from a
small pool of low axioms that keep re-entering the string by expansion,
and replacement images sit above the pool so replaced values never need a
second image.
"""
from __future__ import annotations

from random import Random

from .consequence import BOT, CE, Rule, RuleTable
from .engine import QSystem, ReplacementMap
from .legacy import LegacySystem, PairApproximation, marker_swap
from .strings import Shape

# marker codes for generated stack systems sit far above any code a run
# of reasonable horizon can reach by frontier growth
MARKER_C = 10 ** 6
MARKER_CE = MARKER_C + 1


def random_rules(
    rng: Random,
    max_rules: int = 8,
    pool: int = 12,
    max_stage: int = 40,
) -> list[Rule]:
    """Rules with premises drawn from the pool [0, pool), concluding ⊥ or ce."""
    rules = []
    for _ in range(rng.randrange(max_rules + 1)):
        width = rng.randrange(1, 4)
        prem = frozenset(rng.sample(range(pool), width))
        concl = BOT if rng.random() < 0.7 else CE
        rules.append(Rule(rng.randrange(max_stage), prem, concl))
    return rules


def random_qsystem(
    rng: Random,
    max_rules: int = 8,
    pool: int = 12,
    max_stage: int = 40,
) -> QSystem:
    """Finitely presented system whose replacement covers the premise pool.

    Images lie in [pool, 2*pool), above every premise, so the map is
    acyclic and no replaced value ever needs replacing again.
    """
    table = RuleTable(random_rules(rng, max_rules, pool, max_stage))
    entries = [(i, pool + rng.randrange(pool)) for i in range(pool)]
    return QSystem(table, ReplacementMap(entries))


def random_legacy(
    rng: Random,
    max_pairs: int = 6,
    pool: int = 10,
    max_stage: int = 25,
    axiom_pairs: bool = False,
) -> LegacySystem:
    """Pair-backed stack system over a shuffled argument listing.

    The listing permutes [0, pool) and is the identity beyond, the
    :class:`~dialectic.strings.Shape` (pool, 1); pair premises are codes
    below the pool.  With ``axiom_pairs`` the operator also derives plain
    codes (including the pool's inclusion pairs), which matters for belief
    sets but never for the course of a run.
    """
    perm = list(range(pool))
    rng.shuffle(perm)
    entries = []
    if axiom_pairs:
        for code in range(pool):
            entries.append((1, code, frozenset({code})))
    for _ in range(rng.randrange(1, max_pairs + 1)):
        stage = rng.randrange(1, max_stage)
        width = rng.randrange(1, 4)
        F = frozenset(rng.sample(range(pool), width))
        roll = rng.random()
        if axiom_pairs and roll < 0.3:
            x = rng.randrange(pool)
        elif roll < 0.65:
            x = MARKER_C
        else:
            x = MARKER_CE
        entries.append((stage, x, F))
    return LegacySystem(
        approximation=PairApproximation(entries),
        f=Shape(lambda i: perm[i] if i < pool else i, pool, 1),
        f_minus=marker_swap(MARKER_C, MARKER_CE, lambda code: code + 1 + code % 3),
        c=MARKER_C,
        c_minus=MARKER_CE,
    )


def random_family(rng: Random) -> str:
    """A family file of 2-4 scripted opponents in the bundled family's shape.

    Each h marks a prefix holding mask M1 from stage T1 or mask M2 from
    stage T2 (each mask 2-4 distinct bits among bits 1-8, so axioms a0-a7;
    T1 < 80, T2 < 120), each r adds k in [1, 12), and each g is the
    identity or, one time in four, counts down within blocks of 100.
    """
    lines = ["prog ident = n",
             "prog gdesc = (+ (* (div n 100) 100) (- 99 (mod n 100)))"]
    for i in range(rng.randint(2, 4)):
        m1, m2 = _mask(rng), _mask(rng)
        t1, t2 = rng.randrange(80), rng.randrange(120)
        k = rng.randrange(1, 12)
        g = "gdesc" if rng.random() < 0.25 else "ident"
        lines += [
            "prog h%d = (if (and (ge t %d) (eq (band x %d) %d)) (bor x 1) "
            "(if (and (ge t %d) (eq (band x %d) %d)) (bor x 1) x))"
            % (i, t1, m1, m1, t2, m2, m2),
            "prog r%d = (+ n %d)" % (i, k),
            "opponent o%d : g=%s h=h%d r=r%d" % (i, g, i, i)]
    return "\n".join(lines) + "\n"


def _mask(rng: Random) -> int:
    return sum(1 << b for b in rng.sample(range(1, 9), rng.randint(2, 4)))
