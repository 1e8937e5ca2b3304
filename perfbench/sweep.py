"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--seeds 0-9] [--trace] [--out FILE]

Each run is a fresh ``run.py`` process, one at a time, with the workloads
interleaved within each seed; every run has BENCHMARK.json's length.
A seed may be repeated (``--seeds 3,3,3``) to see the run-to-run noise
on fixed inputs.  For every end-to-end metric the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median, next to the metric's bound in BENCHMARK.json;
with ``--trace`` it also makes one traced run per workload and prints
the per-layer figures.  The summary, with the environment of the first
run, is written as JSON to ``--out`` (default
``.bench_build/perfbench/sweep.json``); perfbench/baseline.json is such
a file, made at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd),
                                                   done.returncode,
                                                   done.stderr[-2000:]))
    result = json.loads(lines[-1])
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    result["env"] = env[0] if env else {}
    result["aside"] = {line.split()[1]: float(line.split()[2])
                       for line in lines if line.startswith("aside ")}
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "perfbench" / "sweep.json"))
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    names = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            res = run_once(name, seed, seconds, 0)
            runs[name].append(res)
            print("%-12s seed %-4d correct=%s failed=%d/%d  %s" % (
                name, seed, res["correct"], res["failed"], res["attempted"],
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in res["metrics"].items())), flush=True)

    summary: dict = {"env": runs[names[0]][0]["env"], "seeds": seeds,
                     "seconds": seconds, "workloads": {}}
    for name in names:
        entry = {"all_correct": all(r["correct"] for r in runs[name]),
                 "failed": sum(r["failed"] for r in runs[name]),
                 "attempted": sum(r["attempted"] for r in runs[name]),
                 "end_to_end": {}}
        print("\n%s: failed %d of %d items" % (name, entry["failed"],
                                               entry["attempted"]))
        for metric, spec in bounds.items():
            stats = summarise([r["metrics"][metric]["value"]
                               for r in runs[name]])
            stats["unit"] = spec["unit"]
            entry["end_to_end"][metric] = stats
            print("  %-14s median %12.6g %-5s q1 %12.6g q3 %12.6g "
                  "spread %.3f (bound %.2f)" % (
                      metric, stats["median"], spec["unit"], stats["q1"],
                      stats["q3"], stats["spread"], spec["bound"]))
        if args.trace:
            traced = run_once(name, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            entry["traced_aside"] = traced["aside"]
            for k, v in traced["metrics"].items():
                if v["value"]:
                    print("    %-32s %14.6g %s" % (k, v["value"], v["unit"]))
        summary["workloads"][name] = entry

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("\nwrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
