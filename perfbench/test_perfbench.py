"""Tests of the benchmark itself, at smoke sizes through the same code path.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import revsle.cli  # noqa: E402
import revsle.montecarlo  # noqa: E402
from run import bench  # noqa: E402
from spans import LAYERS, Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, reference_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name, trace=False):
    return bench(name, seed=3, seconds=0, trace=trace, root=ROOT, smoke=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(name, trace):
    result = smoke(name, trace)
    assert result["messages"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        assert 0.0 < self_total <= metrics["traced_wall_s"]
        assert metrics["cli.calls"] == len(WORKLOADS[name](3).calls(1))


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tracer_wraps_cross_module_bindings_only():
    import revsle.loewner
    original = revsle.montecarlo.raw_normals
    tracer = Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched)
        assert {"montecarlo:raw_normals", "montecarlo:slit_sqrt_vec",
                "observables:apply_map", "observables:apply_derivative",
                "virasoro:params_from_kappa", "cli:run_martingale_test",
                "cli:trace", "cli:sample_brownian"} <= patched
        assert all(not p.startswith("loewner:") for p in patched)
        assert revsle.loewner.slit_sqrt_vec is not revsle.montecarlo.slit_sqrt_vec
        revsle.montecarlo.run_inverse_consistency(4.0, 1.0, 4, 2)
    finally:
        tracer.uninstall()
    assert revsle.montecarlo.raw_normals is original
    per = layer_times(tracer.spans)
    assert per["driving"]["calls"] == 2 and per["loewner"]["calls"] == 8
    assert per["montecarlo"]["calls"] == 0   # called directly, not through a binding


def test_layer_times_subtract_children():
    spans = [["cli", "cli.main", 0.0, 10.0, -1],
             ["montecarlo", "m", 1.0, 9.0, 0],
             ["driving", "d", 2.0, 5.0, 1],
             ["loewner", "l", 6.0, 7.0, 1]]
    per = layer_times(spans)
    assert per["cli"]["self_s"] == 2.0
    assert per["montecarlo"]["self_s"] == 4.0
    assert per["montecarlo"]["excl_driving_s"] == 5.0
    assert per["driving"]["self_s"] == 3.0 and per["loewner"]["self_s"] == 1.0


def test_reference_trace_matches_zero_driving_closed_form():
    n = 64
    tips = reference_trace(np.zeros(n + 1), 1.0 / n)
    assert np.max(np.abs(tips - 2j * np.sqrt(np.arange(n + 1) / n))) <= 1e-12


def test_injected_nonfinite_value_fails(monkeypatch):
    # a NaN in sample 1 (not first): the engine's max() drops it and the CLI
    # still exits 0, so only the value-by-value scan sees it
    original = revsle.montecarlo.slit_sqrt_vec

    def poisoned(u, re_hint):
        out = original(u, re_hint)
        if out.ndim == 2 and out.shape[0] > 1:
            out[1, 0] = complex(math.nan, math.nan)
        return out

    monkeypatch.setattr(revsle.montecarlo, "slit_sqrt_vec", poisoned)
    result = smoke("ensembles")
    assert result["failed"] > 0 and not result["correct"]
    assert any("non-finite" in m for m in result["messages"])


def test_worker_count_byte_mismatch_fails(monkeypatch):
    original = revsle.cli.run_inverse_consistency

    def drifting(*args, workers=1, **kwargs):
        report = original(*args, workers=workers, **kwargs)
        if workers == 1:
            errors = list(report.sample_errors)
            errors[-1] = math.nextafter(errors[-1], math.inf)
            report = dataclasses.replace(report, sample_errors=tuple(errors))
        return report

    monkeypatch.setattr(revsle.cli, "run_inverse_consistency", drifting)
    result = smoke("ensembles")
    assert result["failed"] > 0 and not result["correct"]
    assert any("differ between" in m for m in result["messages"])


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "curves", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
