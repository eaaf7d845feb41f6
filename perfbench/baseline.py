"""Runs every workload over several seeds and writes the committed baseline.

    python3 perfbench/baseline.py --runs 10 --write perfbench/baseline.json
    python3 perfbench/baseline.py --runs 10 --compare perfbench/baseline.json

Run from the repository root.  For each workload: ``--runs`` untraced runs,
seeds 1..runs, then two traced runs on seed 1 (the counters must repeat
exactly).  Per end-to-end metric it reports the median, quartiles, spread
(quartile distance over median, as ``statistics.quantiles(n=4)`` gives them)
and sample count, and flags a spread above a third of the metric's bound.
``--compare`` checks each median against an earlier baseline's by the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from workloads import WORKLOADS

# Counters that must repeat exactly for a fixed seed.
EXACT = ("montecarlo.stopped_frac", "montecarlo.verdict_fail", "montecarlo.survival_frac",
         "montecarlo.err_over_bound", "montecarlo.nonfinite", "loewner.nonfinite_tips",
         "loewner.radial_incomplete", "loewner.radial_ref_err", "cli.numpy_repr_fields")

# Which end-to-end metric each layer should move, on which workload.
PREDICTIONS = {
    "driving": "moves wall_per_ref and wall_w1_per_ref on ensembles (about half "
               "of its martingale part, a small share of its reversal part); stays flat "
               "on curves",
    "montecarlo": "moves ensembles (about 40 % of the martingale part, most of the "
                  "reversal part); stays flat on curves",
    "loewner": "moves curves wall_per_ref and the ensembles time spent in slit_sqrt_vec "
               "(its reversal part; the martingale kernel makes no loewner calls)",
    "cli": "argument parsing, run directories, CSV/JSON and manifest: a small share of "
           "every pass",
    "observables": "curves only; stays flat everywhere",
    "cft": "curves only; stays flat everywhere",
    "virasoro": "curves only; stays flat everywhere",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def worse_by(metric: dict, new: float, old: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", type=Path, help="write the baseline JSON here")
    ap.add_argument("--compare", type=Path, help="an earlier baseline to compare medians with")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    old = json.loads(args.compare.read_text()) if args.compare else None
    out = {
        "env": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "machine": platform.machine(),
                "workers": {"end_to_end": [2, 1], "per_layer": [1]}},
        "run_seconds": seconds,
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    problems = []
    for name in WORKLOADS:
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        traced = [run_once(name, 1, seconds, 1) for _ in range(2)]
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        rec = {"why": WORKLOADS[name].why, "fail_frac": failed / attempted,
               "attempted": attempted, "end_to_end": {}, "per_layer": {}}
        if failed:
            problems.append(f"{name}: {failed} of {attempted} checks failed")
        print(f"{name}: fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            rec["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **s}
            flag = ""
            if m["name"] != "setup_s" and s["spread"] > m["bound"] / 3:
                flag = "  SPREAD > bound/3"
                problems.append(f"{name}.{m['name']}: spread {s['spread']:.3f} > bound/3")
            if old is not None:
                ref = old["workloads"][name]["end_to_end"][m["name"]]["median"]
                w = worse_by(m, s["median"], ref)
                flag += f"  vs earlier {ref:.6g} ({w:+.1%} worse)"
                if w > m["bound"]:
                    problems.append(f"{name}.{m['name']}: {w:+.1%} worse than the earlier median")
            print(f"  {m['name']:<20} median {s['median']:<12.6g} {m['unit']:<5} "
                  f"spread {s['spread']:.3f} (bound {m['bound']}, n={s['n']}){flag}")
        for m in spec["per_layer"]:
            a, b = (t["metrics"][m["name"]]["value"] for t in traced)
            rec["per_layer"][m["name"]] = {"unit": m["unit"], "value": a}
            if m["name"] in EXACT and a != b:
                problems.append(f"{name}.{m['name']}: counter {a} then {b} for one seed")
            print(f"  {m['name']:<30} {a:<12.6g} {m['unit']}")
        pl = {k: v["value"] for k, v in rec["per_layer"].items()}
        if pl["montecarlo.calls"]:
            # every driving and loewner call sits inside a montecarlo engine here
            engine = pl["montecarlo.self_s"] + pl["driving.self_s"] + pl["loewner.self_s"]
            rec["driving_share_of_engine"] = pl["driving.self_s"] / engine
        out["workloads"][name] = rec
    if args.write:
        args.write.write_text(json.dumps(out, indent=2) + "\n")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
