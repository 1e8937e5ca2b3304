"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from ``src/``;
nothing is installed.  Workloads: diagonalize, spec-run, fuzz-diff,
kb-repair (see NOTES.md for what each does and why it is in the set).

``--trace 0`` measures the end-to-end metrics with no instrumentation,
pairing every item of the program with the same item run by the seed
commit's copy of the package (``dialectic_seed/``); each timing is the
copy's nominal figure times the program's ratio to the copy (see
``end_to_end``).  ``--trace 1`` alternates plain and instrumented
iterations and reports the per-layer metrics.  Either way every output is checked against the
seed commit's digests, every metric is printed by name with its unit,
and the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files go to ``.bench_build/perfbench/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from layers import PER_LAYER, install, layer_metrics
from tracer import Recorder, nearest_rank, tail_quantile
from workloads import PROGRAM, REFERENCE, WORKLOADS, Tally, load_program

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUPS_PER_ROUND = 3     # set-ups are short and noisy, so take more

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "stages_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "item_ms.p99": "ms",
    "peak_rss_mb": "MB",
}


def git_commit() -> str | None:
    """HEAD's commit id, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dialectic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, package: str = PROGRAM) -> float:
    """Import ``package`` afresh, build the inputs and warm up; returns
    the time taken."""
    t0 = perf_counter()
    workload.setup(load_program(package))
    workload.warm()
    return perf_counter() - t0


def settle() -> None:
    """Collect, then exempt everything alive from later collections: the
    inputs, the frozen digests and both packages stay alive all run, and
    would otherwise make every full collection inside a timed item scan
    them.  What an earlier call exempted is let go first, so that the
    packages and inputs a new set-up replaced are collected."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _timed(workload, item, collect: bool = False):
    if collect:
        gc.collect()
    t0 = perf_counter()
    output = workload.run_item(item)
    return perf_counter() - t0, output


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Whether another round of ``last`` seconds still ends in time."""
    return perf_counter() - start + last <= seconds


def end_to_end(name: str, seed: int, seconds: float,
               tally: Tally) -> tuple[dict, dict, dict]:
    """Paired rounds of set-up and iteration until ``seconds`` have passed.

    The box this was tuned on drifts between speeds up to 2x apart over
    seconds to minutes, and different code slows by different factors
    (NOTES.md).  So each round sets up and runs the program and the
    reference (the seed commit's copy of the package) on the same inputs,
    alternating item by item and swapping which goes first.  Every timing
    is then the reference's nominal figure for it (the workload's
    ``nominal_*``) times the program's ratio to the reference:

    * ``wall_s``: the median over rounds of the two iterations' ratio;
    * ``setup_s``: likewise for the two set-ups, made several times a
      round;
    * ``item_ms.pN``: the ratio of the two sides' N-th percentile item
      time, each pooled over every round (where an iteration is a single
      item, as ``wall_s``).

    At the seed commit the two sides are the same code, so the figures
    sit near the nominal ones; a program twice as fast reads half.  Where
    an iteration is a single item, a garbage collection before each run
    of it stops one side's leftovers from being collected in the other's
    timing.

    The first set-up and iteration of the program are untimed: they pay
    for compiling the sources, and the peak memory is read after them,
    before the reference is ever imported.
    """
    prog = WORKLOADS[name](seed, WORK_DIR)
    ref = WORKLOADS[name](seed, WORK_DIR)
    try:
        set_up(prog)
        prog.iteration(tally)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        set_up(ref, REFERENCE)

        raw = {"program_setup_s": [], "reference_setup_s": [],
               "program_wall_s": [], "reference_wall_s": []}
        prog_items, ref_items = [], []
        start = perf_counter()
        last = 0.0
        while not prog_items or _time_left(start, seconds, last):
            round_start = perf_counter()
            swap = len(raw["program_wall_s"]) % 2
            for j in range(SETUPS_PER_ROUND):
                if (j + swap) % 2:
                    ref_setup, prog_setup = set_up(ref, REFERENCE), set_up(prog)
                else:
                    prog_setup, ref_setup = set_up(prog), set_up(ref, REFERENCE)
                raw["program_setup_s"].append(prog_setup)
                raw["reference_setup_s"].append(ref_setup)
            settle()
            pairs = list(zip(prog.items(), ref.items()))
            collect = len(pairs) == 1
            prog_times, ref_times = [], []
            for i, (p_item, r_item) in enumerate(pairs):
                if (i + swap) % 2:
                    r_time, _ = _timed(ref, r_item, collect)
                    p_time, output = _timed(prog, p_item, collect)
                else:
                    p_time, output = _timed(prog, p_item, collect)
                    r_time, _ = _timed(ref, r_item, collect)
                prog.check(p_item, output, tally)
                prog_times.append(p_time)
                ref_times.append(r_time)
            prog_items.extend(prog_times)
            ref_items.extend(ref_times)
            raw["program_wall_s"].append(sum(prog_times))
            raw["reference_wall_s"].append(sum(ref_times))
            last = perf_counter() - round_start
    finally:
        gc.unfreeze()
        prog.close()
        ref.close()

    def ratio(side: str, other: str) -> float:
        return statistics.median(a / b for a, b in zip(raw[side], raw[other]))

    wall = prog.nominal_iteration_s * ratio("program_wall_s",
                                            "reference_wall_s")
    metrics = {
        "setup_s": prog.nominal_setup_s * ratio("program_setup_s",
                                                "reference_setup_s"),
        "wall_s": wall,
        "stages_per_s": prog.stages / wall,
        "peak_rss_mb": peak_mb,
    }
    rounds = len(raw["program_wall_s"])
    per_round = len(pairs)
    used = []
    for q, nominal in zip((0.5, 0.9, 0.99), prog.nominal_item_ms):
        q_used = tail_quantile(q, per_round)
        if per_round == 1:   # the item is the iteration: pair it by round
            scale = ratio("program_wall_s", "reference_wall_s")
        else:
            scale = (nearest_rank(prog_items, q_used)
                     / nearest_rank(ref_items, q_used))
        metrics["item_ms.p%d" % round(q * 100)] = nominal * scale
        used.append("p%g as p%g" % (q * 100, q_used * 100))
    samples = {"rounds": "%d, each with %d paired set-ups and one paired "
               "iteration" % (rounds, SETUPS_PER_ROUND),
               "items": "%d per side, %d inputs per iteration; %s"
               % (len(prog_items), per_round, ", ".join(used))}
    return metrics, samples, {k: statistics.median(v) for k, v in raw.items()}


def per_layer(name: str, seed: int, seconds: float,
              tally: Tally) -> tuple[dict, dict, dict]:
    """Plain and traced iterations in alternating order until time is up."""
    workload = WORKLOADS[name](seed, WORK_DIR)
    try:
        set_up(workload)
        settle()
        rec = Recorder()
        plain, traced = [], []
        start = perf_counter()
        last = 0.0
        while not traced or _time_left(start, seconds, last):
            round_start = perf_counter()
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if not with_trace:
                    plain.append(sum(workload.iteration(tally)))
                    continue
                install(rec, workload.prog)
                try:
                    traced.append(sum(workload.iteration(tally)))
                finally:
                    rec.uninstall()
            last = perf_counter() - round_start
        workload.after_traced(tally)
    finally:
        gc.unfreeze()
        workload.close()
    extra = dict(workload.extra)
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    extra["trace.overhead_frac"] = traced_s / plain_s - 1
    samples = {"repeats": "%d traced and %d plain iterations"
               % (len(traced), len(plain))}
    metrics = layer_metrics(rec, len(traced), extra)
    accounts = {"plain_iteration_s": plain_s, "traced_iteration_s": traced_s,
                "layers_busy_s": sum(rec.busy_by_layer().values())
                / len(traced),
                "wrapper_s": rec.wrapper_time() / len(traced)}
    return metrics, samples, accounts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dialectic" / "cli.py").is_file():
        print("perfbench: no package source under %s" % SRC, file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    if args.trace:
        metrics, samples, raw = per_layer(args.workload, args.seed,
                                          args.seconds, tally)
        units = PER_LAYER
    else:
        metrics, samples, raw = end_to_end(args.workload, args.seed,
                                           args.seconds, tally)
        units = END_TO_END

    print("perfbench %s" % args.workload)
    print("env %s" % json.dumps(environment(args), sort_keys=True))
    for name, what in samples.items():
        print("samples %s: %s" % (name, what))
    for name, value in raw.items():
        print("aside %-26s %16.6g s" % (name, value))
    for name, unit in units.items():
        print("%-32s %16.6g %s" % (name, metrics[name], unit))
    print("%-32s %16.6g ratio  (%d of %d items)"
          % ("failed_frac", tally.failed / tally.attempted, tally.failed,
             tally.attempted))
    for problem in tally.problems:
        print("problem: %s" % problem)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
