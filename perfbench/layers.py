"""Where the traced run wraps the program, and the per-layer figures.

Layers are the package's modules.  Each figure is per traced iteration
(totals divided by the number of traced iterations) unless it is a ratio
or a percentile; a layer that a workload never calls reads 0.
"""

from __future__ import annotations

from tracer import Recorder, nearest_rank

CHUNK_STAGES = 1000      # diagonalizer.chunk_ms: home stages per chunk

MODULES = ("strings", "consequence", "engine", "legacy", "universe",
           "opponents", "diagonalizer", "applications", "systemspec",
           "randomgen", "cli")

OPPONENT_POLLS = ("g_value", "r_value", "h_value_upto", "ce_upto",
                  "first_occurrence")

# name -> unit, in the order they are printed
PER_LAYER = {
    "universe.calls": "count",
    "universe.busy_s": "s",
    "universe.call_us.p50": "us",
    "universe.call_us.p90": "us",
    "universe.none_frac": "ratio",
    "opponents.steps": "count",
    "opponents.busy_s": "s",
    "opponents.step_us.p50": "us",
    "opponents.step_us.p90": "us",
    "opponents.stall_frac": "ratio",
    "opponents.progress_frac": "ratio",
    "opponents.polls": "count",
    "opponents.stability_s": "s",
    "opponents.parse_family_s": "s",
    "diagonalizer.busy_s": "s",
    "diagonalizer.chunk_ms.p50": "ms",
    "diagonalizer.chunk_ms.p90": "ms",
    "diagonalizer.acts": "count",
    "diagonalizer.injuries": "count",
    "diagonalizer.rules": "count",
    "diagonalizer.audit_s": "s",
    "diagonalizer.audit_replay_s": "s",
    "engine.run.calls": "count",
    "engine.run_s": "s",
    "engine.run_ns_per_stage": "ns",
    "engine.estimate.calls": "count",
    "engine.estimate_s": "s",
    "engine.stages": "count",
    "engine.event_frac": "ratio",
    "engine.step_once.calls": "count",
    "engine.step_once_us.p50": "us",
    "engine.step_once_us.p90": "us",
    "legacy.align.calls": "count",
    "legacy.align_ms.p50": "ms",
    "legacy.align_ms.p90": "ms",
    "legacy.step.calls": "count",
    "legacy.step_s": "s",
    "legacy.step_us.p90": "us",
    "legacy.busy_s": "s",
    "legacy.translate_s": "s",
    "legacy.mismatches": "count",
    "consequence.from_horn.calls": "count",
    "consequence.from_horn_s": "s",
    "consequence.rules_out": "count",
    "consequence.revision_s": "s",
    "consequence.validate_s": "s",
    "consequence.validate_sets": "count",
    "applications.repair.calls": "count",
    "applications.revise.calls": "count",
    "applications.busy_s": "s",
    "applications.partial_frac": "ratio",
    "applications.oracle_mismatches": "count",
    "cli.busy_s": "s",
    "cli.trace_bytes": "bytes",
    "systemspec.parse_s": "s",
    "randomgen.gen_s": "s",
    "trace.overhead_frac": "ratio",
}


# -- result hooks: exact counts read off return values -----------------------

def _count_run(trace, counters) -> None:
    records = trace.records
    counters["engine.run_stages"] += len(records)
    counters["engine.events"] += sum(1 for r in records if r.kind != "EXP")


def _count_validate(report, counters) -> None:
    counters["consequence.validate_sets"] += report.checked_sets


def _count_align(report, counters) -> None:
    counters["legacy.mismatches"] += not report.ok


def _count_rules(table, counters) -> None:
    counters["consequence.rules_out"] += len(table)


def _count_partial(result, counters) -> None:
    counters["applications.results"] += 1
    counters["applications.partial"] += bool(result.partial)


def install(rec: Recorder, prog) -> None:
    """Wrap every public entry point the workloads reach; undo with
    ``rec.uninstall()``."""
    mods = [getattr(prog, m) for m in MODULES]

    def span(home, attr, name, hook=None):
        rec.patch_function(mods, home, attr,
                           lambda fn: rec.span(name, fn, hook))

    span(prog.cli, "main", "cli.main")
    span(prog.systemspec, "parse_system", "systemspec.parse")
    span(prog.randomgen, "random_qsystem", "randomgen.gen")
    span(prog.randomgen, "random_legacy", "randomgen.gen")
    span(prog.consequence, "validate_aco", "consequence.validate",
         _count_validate)
    span(prog.consequence, "from_horn", "consequence.from_horn", _count_rules)
    span(prog.consequence, "revision_operator", "consequence.revision")
    span(prog.consequence, "stream_revision_operator", "consequence.revision")
    span(prog.engine, "run", "engine.run", _count_run)
    span(prog.engine, "estimate_beliefs", "engine.estimate")
    span(prog.legacy, "stream_alignment", "legacy.align", _count_align)
    span(prog.legacy, "forward_translate", "legacy.translate")
    span(prog.legacy, "backward_translate", "legacy.translate")
    span(prog.applications, "repair", "applications.repair", _count_partial)
    span(prog.applications, "revise", "applications.revise", _count_partial)
    span(prog.applications, "revise_stream", "applications.revise",
         _count_partial)
    span(prog.opponents, "parse_family", "opponents.parse_family")
    span(prog.diagonalizer, "diagonalize", "diagonalizer.diagonalize")
    span(prog.diagonalizer, "run_all_audits", "diagonalizer.audit")
    span(prog.diagonalizer, "audit_replay", "diagonalizer.audit_replay")

    opp = prog.opponents.PartialPSystem
    diverged = prog.opponents.Diverged

    def step_outcome(result):
        if isinstance(result, diverged):
            return "stall"
        return "progress" if result.changed else None

    rec.patch(opp, "stability_report",
              lambda fn: rec.span("opponents.stability", fn))
    rec.patch(opp, "step",
              lambda fn: rec.leaf("opponents.step", fn, step_outcome))
    for attr in OPPONENT_POLLS:
        rec.patch(opp, attr,
                  lambda fn: rec.leaf("opponents.poll", fn, poll=True))
    rec.patch(prog.universe.FueledFunction, "call",
              lambda fn: rec.leaf("universe.call", fn,
                                  lambda v: "none" if v is None else None))
    rec.patch(prog.engine.RunEngine, "step_once",
              lambda fn: rec.leaf("engine.step_once", fn,
                                  classify=lambda r: r.kind != "EXP" and "event",
                                  mark_every=CHUNK_STAGES, poll=True))
    rec.patch(prog.legacy.FastLegacyEngine, "step",
              lambda fn: rec.leaf("legacy.step", fn))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, iterations: int, extra: dict) -> dict:
    """Every PER_LAYER figure from one recorder; ``extra`` supplies the
    figures read outside the recorder (report counts, audits, overhead)."""
    n = iterations
    busy = rec.busy_by_layer()
    own = rec.self_by_name()
    c = rec.counters
    leaf = rec.leaves
    uni, opp, step1, legstep = (leaf["universe.call"], leaf["opponents.step"],
                                leaf["engine.step_once"], leaf["legacy.step"])
    stages = c["engine.run_stages"] + step1.count
    events = c["engine.events"] + step1.outcomes["event"]
    align_ms = [d * 1e3 for d in rec.durations("legacy.align")]
    chunk_ms = [d * 1e3 for d in rec.chunk_durations(
        "engine.step_once", "diagonalizer.diagonalize")]
    out = {
        "universe.calls": uni.count / n,
        "universe.busy_s": busy["universe"] / n,
        "universe.call_us.p50": rec.percentile_us("universe.call", 0.5),
        "universe.call_us.p90": rec.percentile_us("universe.call", 0.9),
        "universe.none_frac": _ratio(uni.outcomes["none"], uni.count),
        "opponents.steps": opp.count / n,
        "opponents.busy_s": busy["opponents"] / n,
        "opponents.step_us.p50": rec.percentile_us("opponents.step", 0.5),
        "opponents.step_us.p90": rec.percentile_us("opponents.step", 0.9),
        "opponents.stall_frac": _ratio(opp.outcomes["stall"], opp.count),
        "opponents.progress_frac": _ratio(opp.outcomes["progress"], opp.count),
        "opponents.polls": leaf["opponents.poll"].count / n,
        "opponents.stability_s": rec.total("opponents.stability") / n,
        "opponents.parse_family_s": rec.total("opponents.parse_family") / n,
        "diagonalizer.busy_s": busy["diagonalizer"] / n,
        "diagonalizer.chunk_ms.p50": nearest_rank(chunk_ms, 0.5),
        "diagonalizer.chunk_ms.p90": nearest_rank(chunk_ms, 0.9),
        "engine.run.calls": rec.calls("engine.run") / n,
        "engine.run_s": rec.total("engine.run") / n,
        "engine.run_ns_per_stage": _ratio(rec.total("engine.run") * 1e9,
                                          c["engine.run_stages"]),
        "engine.estimate.calls": rec.calls("engine.estimate") / n,
        "engine.estimate_s": rec.total("engine.estimate") / n,
        "engine.stages": stages / n,
        "engine.event_frac": _ratio(events, stages),
        "engine.step_once.calls": step1.count / n,
        "engine.step_once_us.p50": rec.percentile_us("engine.step_once", 0.5),
        "engine.step_once_us.p90": rec.percentile_us("engine.step_once", 0.9),
        "legacy.align.calls": len(align_ms) / n,
        "legacy.align_ms.p50": nearest_rank(align_ms, 0.5),
        "legacy.align_ms.p90": nearest_rank(align_ms, 0.9),
        "legacy.step.calls": legstep.count / n,
        "legacy.step_s": rec.total("legacy.step") / n,
        "legacy.step_us.p90": rec.percentile_us("legacy.step", 0.9),
        "legacy.busy_s": own["legacy.align"] / n,
        "legacy.translate_s": rec.total("legacy.translate") / n,
        "legacy.mismatches": c["legacy.mismatches"] / n,
        "consequence.from_horn.calls": rec.calls("consequence.from_horn") / n,
        "consequence.from_horn_s": rec.total("consequence.from_horn") / n,
        "consequence.rules_out": c["consequence.rules_out"] / n,
        "consequence.revision_s": rec.total("consequence.revision") / n,
        "consequence.validate_s": rec.total("consequence.validate") / n,
        "consequence.validate_sets": c["consequence.validate_sets"] / n,
        "applications.repair.calls": rec.calls("applications.repair") / n,
        "applications.revise.calls": rec.calls("applications.revise") / n,
        "applications.busy_s": busy["applications"] / n,
        "applications.partial_frac": _ratio(c["applications.partial"],
                                            c["applications.results"]),
        "cli.busy_s": busy["cli"] / n,
        "systemspec.parse_s": rec.total("systemspec.parse") / n,
        "randomgen.gen_s": rec.total("randomgen.gen") / n,
    }
    for name in ("diagonalizer.acts", "diagonalizer.injuries",
                 "diagonalizer.rules", "diagonalizer.audit_s",
                 "diagonalizer.audit_replay_s",
                 "applications.oracle_mismatches", "cli.trace_bytes",
                 "trace.overhead_frac"):
        out[name] = extra.get(name, 0)
    return {name: out[name] for name in PER_LAYER}
