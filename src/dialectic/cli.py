"""Command-line front end.

One binary, subcommand style:

    dialectic validate SPEC [--bound 8]
    dialectic run SPEC [--horizon 10000] [--window 100] [--trace OUT]
    dialectic diff [SPEC] [--horizon ...] [--fuzz N] [--seed S] [--jobs J]
    dialectic diagonalize [FAMILY] [--horizon ...] [--report OUT]
    dialectic repair KB [--mode d|q] [--trace OUT]
    dialectic revise KB ADDITIONS [--trace OUT]

Exit codes: 0 success, 1 domain failure (failed validation, mismatch,
refused input, a broken invariant) or unwritable output, 2 usage or
unparsable input.  A package error carries its exit code and label, and
prints one ``label: message`` line, a ``--jobs`` worker's as well.  All
output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from itertools import islice
from random import Random

from .applications import (
    load_additions, load_kb, render_result, repair, revise, revise_stream,
)
from .consequence import BOT, CE, validate_aco
from .engine import classify_variant, estimate_beliefs, run, write_trace
from .legacy import LegacySystem, PairApproximation, marker_swap, stream_alignment
from .opponents import default_family, load_family
from .diagonalizer import diagonalize
from .randomgen import MARKER_C, random_legacy, random_qsystem
from .strings import IDENTITY, DialecticError, natural_from_str, quoted, token_to_str
from .systemspec import check_variant, load_system

DEFAULT_HORIZON = 10000
DEFAULT_WINDOW = 100
DEFAULT_BOUND = 8
MAX_JOBS = 64
MAX_HORIZON = 10 ** 18   # a stage count fits an index-sized integer


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

class OutputError(DialecticError):
    """An output file could not be written (exit 1, not an input error)."""

    text = "cannot write output: %(detail)s"


@contextlib.contextmanager
def _writing():
    """Report an OSError raised inside as an :class:`OutputError`."""
    try:
        yield
    except OSError as exc:
        raise OutputError(exc) from exc


def _load_spec(path: str):
    """(spec, system) for the spec file at path; every command that reads
    a spec refuses what `run` refuses, a table or map it cannot run."""
    spec = load_system(path)
    check_variant(spec)
    return spec, spec.build()


def cmd_validate(args) -> int:
    spec, _ = _load_spec(args.spec)
    report = validate_aco(spec.table, bound=args.bound)
    print(report.render())
    return 0 if report.ok else 1


def cmd_run(args) -> int:
    _, system = _load_spec(args.spec)
    trace = run(system, args.horizon)
    report = estimate_beliefs(trace, args.window)
    beliefs = report.belief_estimate
    shown = " ".join(map(token_to_str, islice(beliefs, 20)))
    if len(beliefs) > 20:
        shown += " ..."
    print("variant: %s" % classify_variant(system))
    print("horizon: %d" % report.horizon)
    print("window: %d" % report.window)
    print("stable prefix: %d" % report.stable_prefix_length)
    print("beliefs (%d): %s" % (len(beliefs), shown))
    print("loop suspects: %s"
          % (" ".join("p%d" % p for p in report.loop_suspects) or "none"))
    if args.trace:
        with _writing():
            write_trace(trace, args.trace)
    return 0


def _pair_legacy(system) -> LegacySystem:
    """Read the spec's marker rules as an explicit pair set for the stack side.

    Pairs enter at stage 1 at the earliest.  A rule that concludes an axiom
    adds no pair: neither stack runner nor the string run that
    forward_translate makes of the pairs reads one.  The revision map
    swaps the marker codes and follows the spec's replacement entries
    above them.  It must be total (acyclicity probes walk revision
    chains), so codes the spec never revises are parked on fresh spares
    above the marker range; a run that genuinely revises such a code dies
    on the plain-table side first, so the spares never reach a comparison.
    The markers sit at MARKER_C and up, and above every code the spec names.
    """
    repl = system.replacement
    c = max(MARKER_C, system.table.max_axiom() + 1, repl.max_index() + 1)
    marker = {BOT: c, CE: c + 1}
    entries = [(max(1, r.stage), marker[r.conclusion], r.premises)
               for r in system.table if r.conclusion in marker]
    spares: dict[int, int] = {}

    def revise(code: int) -> int:
        nxt = repl.get(code)
        if nxt is not None:
            return nxt
        if code not in spares:
            spares[code] = c + 2 + len(spares)
        return spares[code]

    return LegacySystem(
        approximation=PairApproximation(entries),
        f=IDENTITY,
        f_minus=marker_swap(c, c + 1, revise),
        c=c,
        c_minus=c + 1,
    )


def _diff_one(seed: int, horizon: int) -> tuple[bool, str]:
    """Both translation directions on seeded random systems."""
    rng = Random(seed)
    qsys = random_qsystem(rng)
    back = stream_alignment(qsys, horizon)
    fwd = stream_alignment(random_legacy(rng), horizon)
    ok = back.ok and fwd.ok
    text = "seed %d: %s | %s" % (seed, back.render(), fwd.render())
    return ok, text


def cmd_diff(args) -> int:
    if args.spec and args.fuzz is not None:
        print("diff takes a spec file or --fuzz, not both", file=sys.stderr)
        return 2
    if args.fuzz is not None:
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            workers = min(args.jobs, args.fuzz)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futs = [pool.submit(_diff_one, args.seed + i, args.horizon)
                        for i in range(args.fuzz)]
                results = [f.result() for f in futs]
        else:
            results = [_diff_one(args.seed + i, args.horizon)
                       for i in range(args.fuzz)]
        bad = [text for ok, text in results if not ok]
        for text in bad[:10]:
            print(text)
        print("fuzz: %d of %d seeds agree" % (len(results) - len(bad),
                                              len(results)))
        return 0 if not bad else 1
    if not args.spec:
        print("diff needs a spec file or --fuzz", file=sys.stderr)
        return 2
    _, system = _load_spec(args.spec)
    back = stream_alignment(system, args.horizon)
    print(back.render())
    fwd = stream_alignment(_pair_legacy(system), args.horizon)
    print(fwd.render())
    return 0 if back.ok and fwd.ok else 1


def cmd_diagonalize(args) -> int:
    if args.family:
        _, opponents = load_family(args.family)
    else:
        _, opponents = default_family()
    report = diagonalize(opponents, args.horizon, args.window,
                         fuel_cap=args.fuel_cap)
    text = report.render()
    if args.report:
        with _writing(), open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
        for line in report.verdict_lines():
            print(line)
    else:
        print(text, end="")
    return 0


def cmd_repair(args) -> int:
    kb = load_kb(args.kb)
    result = repair(kb, args.horizon, window=args.window, mode=args.mode)
    print(render_result(kb, result), end="")
    if args.trace:
        with _writing():
            write_trace(result.trace, args.trace)
    return 0


def cmd_revise(args) -> int:
    kb = load_kb(args.kb)
    additions = load_additions(args.additions, kb)
    if len(additions.items) == 1:
        result = revise(kb, additions, args.horizon, window=args.window)
    else:
        result = revise_stream(kb, additions, args.horizon,
                               window=args.window)
    print(render_result(kb, result, extra_labels=additions.labels), end="")
    if result.trace is not None and args.trace:
        with _writing():
            write_trace(result.trace, args.trace)
    return 0 if not result.rejected else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _natural(text: str, least: int = 0, most: int | None = None) -> int:
    try:
        value = natural_from_str(text, "")
    except ValueError:
        value = least - 1
    if value < least or (most is not None and value > most):
        what = "a positive integer" if least else "a natural number"
        if most is not None:
            what += " at most %d" % most
        raise _flag_error("expected %s, got" % what, text)
    return value


def _integer(text: str) -> int:
    """ASCII digits with at most one leading ``-``, as the files write them."""
    sign = -1 if text[:1] == "-" else 1
    try:
        return sign * natural_from_str(text[1:] if sign < 0 else text, "")
    except ValueError:
        raise _flag_error("invalid int value:", text) from None


def _flag_error(msg: str, text: str) -> argparse.ArgumentTypeError:
    """msg and the rejected value, quoted to at most MAX_ECHO characters."""
    return argparse.ArgumentTypeError("%s %s" % (msg, quoted(text)))


def _positive(text: str) -> int:
    return _natural(text, 1)


def _jobs(text: str) -> int:
    return _natural(text, most=MAX_JOBS)


def _horizon(text: str) -> int:
    return _natural(text, most=MAX_HORIZON)


def _add_horizon_window(sub) -> None:
    sub.add_argument("--horizon", type=_horizon, default=DEFAULT_HORIZON,
                     help="stages to run (default %d, at most 10^18)"
                     % DEFAULT_HORIZON)
    sub.add_argument("--window", type=_natural, default=None,
                     help="quiet tail needed for stability (default %d, or"
                     " the horizon when that is shorter)" % DEFAULT_WINDOW)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process and shared by calls."""
    parser = argparse.ArgumentParser(
        prog="dialectic",
        description="belief-revision runs, translations and constructions")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the operator laws of a spec")
    p.add_argument("spec")
    p.add_argument("--bound", type=_natural, default=DEFAULT_BOUND,
                   help="largest axiom index enumerated (default %d)"
                   % DEFAULT_BOUND)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("run", help="run a spec and report stability")
    p.add_argument("spec")
    _add_horizon_window(p)
    p.add_argument("--trace", help="write the step trace to this file")
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("diff",
                        help="compare string and stack engines in lockstep")
    p.add_argument("spec", nargs="?")
    _add_horizon_window(p)
    p.add_argument("--fuzz", type=_positive, default=None,
                   help="check this many random seeded systems instead")
    p.add_argument("--seed", type=_integer, default=0,
                   help="base seed for --fuzz")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="parallel workers for --fuzz (at most %d)" % MAX_JOBS)
    p.set_defaults(func=cmd_diff)

    p = subs.add_parser("diagonalize",
                        help="run the construction against an opponent family")
    p.add_argument("family", nargs="?",
                   help="family file (default: the bundled one)")
    _add_horizon_window(p)
    p.add_argument("--fuel-cap", type=_positive, default=None,
                   help="cap the per-stage opponent budget (default: stage)")
    p.add_argument("--report", help="write the full report to this file")
    p.set_defaults(func=cmd_diagonalize)

    p = subs.add_parser("repair", help="repair an inconsistent knowledge base")
    p.add_argument("kb")
    _add_horizon_window(p)
    p.add_argument("--mode", choices=("d", "q"), default="d",
                   help="excise (d) or follow replacement hints (q)")
    p.add_argument("--trace", help="write the step trace to this file")
    p.set_defaults(func=cmd_repair)

    p = subs.add_parser("revise",
                        help="accept externally given items into a base")
    p.add_argument("kb")
    p.add_argument("additions", help="file of arriving items and their rules")
    _add_horizon_window(p)
    p.add_argument("--trace", help="write the step trace to this file")
    p.set_defaults(func=cmd_revise)
    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper):
            # input is UTF-8 whatever the locale, and so is output
            stream.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "window"):
        if args.window is None:
            args.window = min(DEFAULT_WINDOW, args.horizon)
        elif args.window > args.horizon and args.func is not cmd_diff:
            # refused before any work starts; diff ignores the window
            parser.error("argument --window: %d exceeds --horizon %d"
                         % (args.window, args.horizon))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader of stdout went away: send what is still buffered to the
        # null device, or the flush at interpreter exit fails once more
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # stdout is an in-process stream without a descriptor
        err = OutputError(exc)
    except (OSError, UnicodeDecodeError) as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return 2
    except (DialecticError, ValueError) as exc:
        err = exc if isinstance(exc, DialecticError) else DialecticError(exc)
    print("%s: %s" % (err.label, err), file=sys.stderr)
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
