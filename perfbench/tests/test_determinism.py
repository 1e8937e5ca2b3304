"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q

Takes about a minute.  Except for the held-out seed, the seed-dependent
workloads (fuzz-diff and kb-repair) run on fewer items than the
benchmark does; their frozen digests are per item, so the checks still
apply.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 7919   # never used while the benchmark was tuned

# figures that are exact counts of work, so two runs must agree exactly
EXACT = {
    "diagonalize": ("diagonalizer.acts", "diagonalizer.injuries",
                    "diagonalizer.rules", "engine.stages", "engine.event_frac",
                    "universe.calls", "opponents.steps"),
    "spec-run": ("engine.stages", "engine.event_frac",
                 "consequence.validate_sets", "cli.trace_bytes"),
    "fuzz-diff": ("legacy.step.calls", "engine.stages", "engine.event_frac",
                  "legacy.align.calls"),
    "kb-repair": ("consequence.rules_out", "engine.stages", "engine.event_frac",
                  "consequence.from_horn.calls"),
}


@pytest.fixture
def small_seeded_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "FUZZ_SEEDS", 10)
    monkeypatch.setattr(workloads, "KB_CASES", 300)


@pytest.fixture
def work_dir():
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    return run.WORK_DIR


def _traced(name: str) -> tuple[dict, dict, workloads.Tally]:
    tally = workloads.Tally()
    metrics, _, accounts = run.per_layer(name, 0, 0, tally)
    return metrics, accounts, tally


@pytest.mark.usefixtures("small_seeded_workloads", "work_dir")
@pytest.mark.parametrize("name", sorted(EXACT))
def test_traced_counts_repeat_exactly(name):
    first, _, tally_a = _traced(name)
    second, _, tally_b = _traced(name)
    assert tally_a.failed == tally_b.failed == 0, tally_a.problems
    for metric in EXACT[name]:
        assert first[metric] == second[metric], metric
        assert first[metric] > 0, metric


@pytest.mark.usefixtures("work_dir")
def test_diagonalize_self_time_is_mostly_opponents():
    """Opponents and universe take most of an untraced iteration, even if
    all the self time the layers report beyond the untraced iteration's
    length were instrumentation landing in those two layers."""
    metrics, accounts, _ = _traced("diagonalize")
    plain = accounts["plain_iteration_s"]
    excess = max(accounts["layers_busy_s"] - plain, 0.0)
    share = (metrics["universe.busy_s"] + metrics["opponents.busy_s"]
             - excess) / plain
    assert share > 0.5, (metrics, accounts)


def _inputs(name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed, run.WORK_DIR)
    run.set_up(wl)
    if name == "fuzz-diff":
        return list(wl.seeds)
    return [(index, repr(kb), repr(adds), want)
            for index, kb, adds, want in wl.cases]


@pytest.mark.usefixtures("small_seeded_workloads", "work_dir")
@pytest.mark.parametrize("name", ["fuzz-diff", "kb-repair"])
def test_inputs_depend_only_on_the_seed(name):
    assert _inputs(name, 3) == _inputs(name, 3)
    assert _inputs(name, 3) != _inputs(name, 4)


@pytest.mark.usefixtures("work_dir")
@pytest.mark.parametrize("name", sorted(EXACT))
def test_held_out_seed_has_no_failures(name):
    """At full size: two iterations of the program, one of the reference."""
    tally = workloads.Tally()
    run.end_to_end(name, HELD_OUT_SEED, 0, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems
