"""revsle benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload ensembles --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src``).  A run
measures set-up time in fresh processes, then repeats passes of the workload
for about ``--seconds`` (at least ``MIN_PAIRS`` pairs of passes):

* ``--trace 0`` alternates passes at ``--workers 1`` and ``--workers 2``, each
  after one call of the workload's reference kernel, and reports the
  ``end_to_end`` metrics of BENCHMARK.json: pass times as the median pass
  over the median kernel time (``*_per_ref``), the median w1/w2 ratio, and
  ``peak_rss_mb``, the process's high-water mark after its first pass;
* ``--trace 1`` alternates untraced and traced ``--workers 1`` passes and
  reports the ``per_layer`` metrics.  Spans nest on one thread at one worker,
  so the layer self times add up to at most the traced wall time.

Every output is checked; each check is one attempted operation, and the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.  A summary
with ``fail_frac`` goes to stderr.  Outputs and spans are left in
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer, layer_times
from workloads import WORKLOADS, Api, Checks, run_dir, same_bytes

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_RUNS = 5
MIN_PAIRS = 3
PROBE_TIMEOUT_S = 120


@dataclass
class Pass:
    wall: float
    codes: list[int]
    outs: list[Path]
    lib: object


def timed_pass(wl, api, workers: int, out: Path) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    calls = wl.calls(workers)
    outs = [out / f"c{i}" for i in range(len(calls))]
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [api.main(argv + ["--out", str(o)]) for argv, o in zip(calls, outs)]
        lib = wl.library(api)
    return Pass(perf_counter() - t0, codes, outs, lib)


def check_pass(wl, p: Pass, checks: Checks):
    """Exit codes and outputs of one pass; the run directories, or None."""
    try:
        dirs = [run_dir(o) for o in p.outs]
        for argv, code, d in zip(wl.calls(1), p.codes, dirs):
            checks(wl.exit_ok(code, d), f"{argv[0]} exited {code}")
        wl.check_pass(dirs, p.lib, checks)
        return dirs
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        checks(False, f"{wl.name}: unreadable output ({exc!r})")
        return None


def setup_times(wl, seed: int, root: Path, out: Path, runs: int, checks: Checks) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for i in range(runs):
        probe_out = out / "setup" / str(i)
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), wl.name, str(seed),
                               str(probe_out)], cwd=root, env=env, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if checks(proc.returncode == 0, f"setup probe exited {proc.returncode}: "
                                        f"{proc.stderr.strip()[-300:]}"):
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def pairs(seconds: float, min_pairs: int):
    """Pair indices: at least ``min_pairs``, then more while another pair as
    long as the last one still ends within ``seconds`` of the start."""
    t0 = perf_counter()
    last, i = 0.0, 0
    while i < min_pairs or perf_counter() + last - t0 <= seconds:
        start = perf_counter()
        yield i
        last = perf_counter() - start
        i += 1


def _log_walls(**series) -> None:
    for name, values in series.items():
        print(f"perfbench: {name} " + " ".join(f"{v:.4f}" for v in values), file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else float("nan")


def warm_up(wl, out: Path) -> Api:
    api = Api()
    with contextlib.redirect_stdout(io.StringIO()):
        wl.run_smallest(api, out / "warmup")
    return api


def measure_end_to_end(wl, seed, seconds, root, out, checks, smoke) -> dict:
    setup = setup_times(wl, seed, root, out, 1 if smoke else SETUP_RUNS, checks)
    api = warm_up(wl, out)
    walls, ref = {2: [], 1: []}, []
    for i in pairs(seconds, 1 if smoke else MIN_PAIRS):
        dirs = {}
        for w in ((1, 2) if i % 2 == 0 else (2, 1)):
            ref.append(wl.ref_kernel())
            p = timed_pass(wl, api, w, out / f"w{w}")
            walls[w].append(p.wall)
            dirs[w] = check_pass(wl, p, checks)
            if i == 0 and w == 1:
                # the high-water mark after one --workers 1 pass: at two workers
                # it would depend on how the threads' batches happen to overlap
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if dirs[1] is not None and dirs[2] is not None:
            for d1, d2 in zip(dirs[1], dirs[2]):
                checks(same_bytes(d1, d2), f"{d1.parent.name}: outputs differ between "
                                           f"--workers 1 and --workers 2")
    _log_walls(setup=setup, ref=ref, w2=walls[2], w1=walls[1])
    ref_s = _median(ref)
    return {
        "wall_per_ref": _median(walls[2]) / ref_s,
        "wall_w1_per_ref": _median(walls[1]) / ref_s,
        # w1/w2 within each pair: both passes run back to back, so a slow
        # spell of the machine cancels out of the ratio
        "speedup_w2": _median([a / b for a, b in zip(walls[1], walls[2])]),
        "setup_s": _median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def measure_per_layer(wl, seconds, out, checks, smoke) -> dict:
    api = warm_up(wl, out)
    plain, traced, layers, written, spans = [], [], [], [], []
    for _ in pairs(seconds, 1 if smoke else MIN_PAIRS):
        p = timed_pass(wl, api, 1, out / "w1")
        plain.append(p.wall)
        check_pass(wl, p, checks)
        tracer = Tracer()
        tracer.install()
        try:
            p = timed_pass(wl, Api(tracer), 1, out / "w1")
        finally:
            tracer.uninstall()
        traced.append(p.wall)
        check_pass(wl, p, checks)
        written.append(_bytes_under(out / "w1"))
        per = layer_times(tracer.spans)
        total_self = sum(rec["self_s"] for rec in per.values())
        checks(total_self <= p.wall, f"layer self times {total_self:.6f} s exceed "
                                     f"the traced wall time {p.wall:.6f} s")
        layers.append(per)
        spans += [[len(traced) - 1] + s for s in tracer.spans]
    _log_walls(untraced=plain, traced=traced)
    with open(out / "spans.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")

    def med(layer, key):
        return _median([per[layer][key] for per in layers])

    ps = wl.point_steps
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = med(layer, "self_s")
        metrics[f"{layer}.calls"] = layers[-1][layer]["calls"]
    driving_s, engine_s, loewner_s = (med("driving", "self_s"),
                                      med("montecarlo", "excl_driving_s"),
                                      med("loewner", "self_s"))
    metrics.update({
        "cli.bytes_written": _median(written),
        "driving.normals_per_s": wl.normals / driving_s if driving_s else 0.0,
        "montecarlo.point_steps_per_s": ps["montecarlo"] / engine_s if ps["montecarlo"] else 0.0,
        "loewner.point_steps_per_s": ps["loewner"] / loewner_s if ps["loewner"] else 0.0,
        "untraced_wall_s": _median(plain),
        "traced_wall_s": _median(traced),
        "trace_overhead_frac": _median(traced) / _median(plain) - 1.0,
    })
    metrics.update(wl.reference(p.lib))
    return metrics


# counters of layers a workload does not run read 0 there
COUNTER_DEFAULTS = {
    "montecarlo.stopped_frac": 0.0, "montecarlo.verdict_fail": 0,
    "montecarlo.survival_frac": 0.0, "montecarlo.err_over_bound": 0.0,
    "montecarlo.nonfinite": 0, "loewner.nonfinite_tips": 0,
    "loewner.radial_incomplete": 0, "loewner.radial_ref_err": 0.0,
    "cli.numpy_repr_fields": 0,
}


def bench(name: str, seed: int, seconds: float, trace: bool, root: Path,
          smoke: bool = False) -> dict:
    """Runs one workload; returns the result object printed on stdout."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wl = WORKLOADS[name](seed, smoke)
    out = root / OUT_DIR / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    checks = Checks()
    wl.check_once(checks)
    if trace:
        values = {**COUNTER_DEFAULTS,
                  **measure_per_layer(wl, seconds, out, checks, smoke), **wl.counters}
        declared = spec["per_layer"]
    else:
        values = measure_end_to_end(wl, seed, seconds, root, out, checks, smoke)
        declared = spec["end_to_end"]
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "messages": checks.messages,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "revsle" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/revsle and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace), root)
    messages = result.pop("messages")
    for msg in messages[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"fail_frac={result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
