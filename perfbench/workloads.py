"""The four benchmark workloads.

Each workload builds its inputs from the seed argument, and then runs
identical *iterations*: a fixed unit of work whose outputs are checked
against digests frozen from the seed commit (``golden.json``).  An
iteration is a sequence of *items*; only the program calls of an item
are timed, the checks between items are not.

A workload object is bound to one package: the program under ``src/``
or the seed commit's copy of it in ``dialectic_seed/``, which the
end-to-end run interleaves with the program item by item (see run.py).

Sizes are the ROADMAP's, shrunk so that one run of the benchmark holds
several iterations; see NOTES.md.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from types import SimpleNamespace
from time import perf_counter

import oracle
from layers import MODULES, install
from tracer import Recorder

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

DIAG_HORIZON = 10_000
SPEC_HORIZON = 100_000
SPEC_BOUND = 16
FUZZ_SEEDS = 200
FUZZ_HORIZON = 1_000
KB_CASES = 1_000
KB_POOL = 12_000          # case indices with a frozen output digest
KB_HORIZON = 400
KB_WINDOW = 50

# criterion 11's q-spec: one counterexample rule, one contradiction rule,
# one replacement
SPEC_TEXT = """\
variant q
axioms 6
at 8 : a0 a1 a2 a3 |- CE
at 42 : a0 a1 a2 a4 a5 |- BOT
replace a3 -> a5
"""


@functools.cache
def golden() -> dict:
    """Output digests frozen from the seed commit by freeze.py."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


PROGRAM = "dialectic"          # the package under src/
REFERENCE = "dialectic_seed"   # the seed commit's copy, next to this file


def load_program(package: str = PROGRAM):
    """Import ``package`` afresh (dropping any earlier import of it)."""
    for name in [m for m in sys.modules
                 if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(package + "." + name)
            for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def call_cli(prog, argv) -> tuple[int, str]:
    """``dialectic <argv>`` in-process; returns (exit code, stdout+stderr)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = prog.cli.main(argv)
    return code, out.getvalue()


class Tally:
    """Items attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problem: str = "") -> None:
        """Count one item; a non-empty ``problem`` marks it failed."""
        self.attempted += 1
        if problem:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


class Workload:
    name = ""
    stages = 0            # run stages driven per iteration
    # The reference's set-up time, iteration time and item-time
    # percentiles (p50, p90, p99) at the box's nominal speed, which the
    # end-to-end timings are scaled to (see run.py): about its medians on
    # a 2-vCPU Xeon VM while the benchmark was tuned.
    nominal_setup_s: float
    nominal_iteration_s: float
    nominal_item_ms: tuple[float, float, float]

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.extra: dict = {}       # traced-run figures read off outputs
        self.iterations = 0

    def setup(self, prog) -> None:
        """Build the inputs; part of ``setup_s``."""
        self.prog = prog

    def warm(self) -> None:
        """A small untimed run, so that lazy set-up is paid here."""

    def items(self) -> list:
        """The items of one iteration, in the same order every time."""
        raise NotImplementedError

    def run_item(self, item):
        """The timed program calls of one item; returns their output."""
        raise NotImplementedError

    def check(self, item, output, tally: Tally) -> None:
        """Check one item's output (untimed) and count it."""
        raise NotImplementedError

    def iteration(self, tally: Tally) -> list[float]:
        """Run and check one iteration; return each item's program time."""
        times = []
        for item in self.items():
            t0 = perf_counter()
            output = self.run_item(item)
            times.append(perf_counter() - t0)
            self.check(item, output, tally)
        self.iterations += 1
        return times

    def after_traced(self, tally: Tally) -> None:
        """Checks that only the traced run makes."""

    def close(self) -> None:
        pass


class Diagonalize(Workload):
    name = "diagonalize"
    stages = DIAG_HORIZON
    nominal_setup_s = 0.10
    nominal_iteration_s = 0.80
    nominal_item_ms = (800,) * 3   # an item is the iteration

    def _once(self, horizon: int):
        p = self.prog
        _, family = p.opponents.default_family()
        report = p.diagonalizer.diagonalize(family, horizon, window=100)
        return report, report.render()

    def warm(self) -> None:
        self._once(200)

    def items(self) -> list:
        return [DIAG_HORIZON]

    def run_item(self, horizon):
        return self._once(horizon)

    def check(self, horizon, output, tally: Tally) -> None:
        report, text = output
        ok = digest(text) == golden()["diagonalize"]["sha256"]
        tally.check("" if ok else "report differs from the seed commit")
        self.report = report
        self.extra.update({
            "diagonalizer.acts": len(report.act_records),
            "diagonalizer.injuries": len(report.injuries),
            "diagonalizer.rules": len(report.rules),
        })

    def after_traced(self, tally: Tally) -> None:
        rec = Recorder()
        install(rec, self.prog)
        try:
            problems = self.prog.diagonalizer.run_all_audits(self.report)
        finally:
            rec.uninstall()
        for audit, found in problems.items():
            for text in found:
                tally.fail("audit %s: %s" % (audit, text))
        self.extra["diagonalizer.audit_s"] = rec.total("diagonalizer.audit")
        self.extra["diagonalizer.audit_replay_s"] = rec.total(
            "diagonalizer.audit_replay")


class SpecRun(Workload):
    name = "spec-run"
    stages = SPEC_HORIZON
    nominal_setup_s = 0.10
    nominal_iteration_s = 1.10
    nominal_item_ms = (1100,) * 3   # an item is the iteration

    def setup(self, prog) -> None:
        super().setup(prog)
        tag = "%s-%d" % (prog.package, os.getpid())
        self.spec = self.work_dir / ("q-%s.spec" % tag)
        self.trace = self.work_dir / ("trace-%s.txt" % tag)
        self.spec.write_text(SPEC_TEXT, encoding="utf-8")

    def _once(self, horizon: int, bound: int):
        spec, trace = str(self.spec), str(self.trace)
        v = call_cli(self.prog, ["validate", spec, "--bound", str(bound)])
        r = call_cli(self.prog, ["run", spec, "--horizon", str(horizon),
                                 "--window", "100", "--trace", trace])
        return v, r

    def warm(self) -> None:
        self._once(1000, 8)

    def items(self) -> list:
        return [SPEC_HORIZON]

    def run_item(self, horizon):
        return self._once(horizon, SPEC_BOUND)

    def check(self, horizon, output, tally: Tally) -> None:
        v, r = output
        body = self.trace.read_bytes()
        ok = digest(*v, *r, body) == golden()["spec-run"]["sha256"]
        tally.check("" if ok else "output differs from the seed commit")
        self.extra["cli.trace_bytes"] = len(body)

    def close(self) -> None:
        for path in (self.spec, self.trace):
            if path.exists():
                path.unlink()


class FuzzDiff(Workload):
    name = "fuzz-diff"
    stages = FUZZ_SEEDS * 2 * FUZZ_HORIZON
    nominal_setup_s = 0.06
    nominal_iteration_s = 2.70
    nominal_item_ms = (13.5, 16, 17)

    def setup(self, prog) -> None:
        super().setup(prog)
        rng = Random("fuzz-diff %d" % self.seed)
        self.seeds = [rng.randrange(2 ** 31) for _ in range(FUZZ_SEEDS)]

    def _one(self, seed: int, horizon: int):
        return call_cli(self.prog, ["diff", "--fuzz", "1", "--seed", str(seed),
                                    "--horizon", str(horizon), "--jobs", "1"])

    def warm(self) -> None:
        self._one(self.seeds[0], 100)

    def items(self) -> list:
        return self.seeds

    def run_item(self, seed):
        return self._one(seed, FUZZ_HORIZON)

    def check(self, seed, output, tally: Tally) -> None:
        ok = digest(*output) == golden()["fuzz-diff"]["sha256"]
        tally.check("" if ok else "seed %d: %r" % (seed, output))


def kb_indices(seed: int) -> list[int]:
    """The seed's cases: KB_CASES pool indices drawn without replacement."""
    return Random("kb-repair %d" % seed).sample(range(KB_POOL), KB_CASES)


class KbRepair(Workload):
    name = "kb-repair"
    stages = KB_CASES * 2 * KB_HORIZON   # one repair and one revision run
    nominal_setup_s = 0.12
    nominal_iteration_s = 3.30
    nominal_item_ms = (3.2, 4.2, 5.3)

    def setup(self, prog) -> None:
        super().setup(prog)
        gold = golden()["kb-repair"]
        self.cases = []
        self.mismatches = 0
        for index in kb_indices(self.seed):
            kb, adds = oracle.kb_case(prog.applications, index)
            want = gold["digests"][gold["cases"][index]]
            self.cases.append((index, kb, adds, want))

    def _one(self, kb, adds):
        a = self.prog.applications
        fixed = a.repair(kb, KB_HORIZON, window=KB_WINDOW)
        revised = a.revise_stream(kb, adds, KB_HORIZON, window=KB_WINDOW)
        return fixed, a.render_result(kb, fixed) + a.render_result(kb, revised)

    def warm(self) -> None:
        for _, kb, adds, _ in self.cases[:5]:
            self._one(kb, adds)

    def items(self) -> list:
        return self.cases

    def run_item(self, case):
        _, kb, adds, _ = case
        return self._one(kb, adds)

    def check(self, case, output, tally: Tally) -> None:
        index, kb, _, want = case
        fixed, text = output
        problem = ""
        if sorted(fixed.kept) != oracle.greedy_keep(kb):
            self.mismatches += 1
            problem = "case %d: kept set diverges from the oracle" % index
        elif digest(text)[:16] != want:
            problem = "case %d: output differs from the seed commit" % index
        tally.check(problem)

    def after_traced(self, tally: Tally) -> None:
        # per iteration, over every iteration of the run
        self.extra["applications.oracle_mismatches"] = (
            self.mismatches / max(self.iterations, 1))


WORKLOADS = {w.name: w for w in (Diagonalize, SpecRun, FuzzDiff, KbRepair)}
