"""Write golden.json: digests of the program's outputs on every workload.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are known good (it was run at the
seed commit of the benchmark); the benchmark counts every later output
that differs from these digests as a failed item.  Takes about a minute.

The fuzz-diff digest is one line, "fuzz: 1 of 1 seeds agree", that every
seed must print; freezing checks it over the seeds of benchmark seeds
0..FUZZ_CHECK_SEEDS-1.  The kb-repair digests cover the whole case pool,
so that every benchmark seed is covered.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as w

ROOT = Path(__file__).resolve().parent.parent
FUZZ_CHECK_SEEDS = 10


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = ROOT / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)
    prog = w.load_program()
    out: dict = {}

    diag = w.Diagonalize(0, work_dir)
    diag.setup(prog)
    _, text = diag._once(w.DIAG_HORIZON)
    out["diagonalize"] = {"horizon": w.DIAG_HORIZON, "sha256": w.digest(text)}

    spec = w.SpecRun(0, work_dir)
    spec.setup(prog)
    try:
        v, r = spec._once(w.SPEC_HORIZON, w.SPEC_BOUND)
        body = spec.trace.read_bytes()
    finally:
        spec.close()
    out["spec-run"] = {"horizon": w.SPEC_HORIZON, "bound": w.SPEC_BOUND,
                       "sha256": w.digest(*v, *r, body)}

    lines = set()
    for seed in range(FUZZ_CHECK_SEEDS):
        fuzz = w.FuzzDiff(seed, work_dir)
        fuzz.setup(prog)
        lines.update(fuzz._one(s, w.FUZZ_HORIZON) for s in fuzz.seeds)
    if len(lines) != 1:
        print("fuzz seeds disagree: %r" % sorted(lines)[:5], file=sys.stderr)
        return 1
    out["fuzz-diff"] = {"horizon": w.FUZZ_HORIZON,
                        "sha256": w.digest(*lines.pop())}

    kb = w.KbRepair(0, work_dir)
    kb.prog = prog
    digests: dict[str, int] = {}
    cases = []
    for index in range(w.KB_POOL):
        base, adds = w.oracle.kb_case(prog.applications, index)
        fixed, text = kb._one(base, adds)
        if sorted(fixed.kept) != w.oracle.greedy_keep(base):
            print("kb case %d disagrees with the oracle" % index,
                  file=sys.stderr)
            return 1
        cases.append(digests.setdefault(w.digest(text)[:16], len(digests)))
    out["kb-repair"] = {"pool": w.KB_POOL, "horizon": w.KB_HORIZON,
                        "window": w.KB_WINDOW, "digests": list(digests),
                        "cases": cases}

    w.GOLDEN_PATH.write_text(json.dumps(out) + "\n", encoding="utf-8")
    print("wrote %s" % w.GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
