import argparse
import cmath
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

import revsle
import revsle.cli
import revsle.loewner
from revsle.cli import main
from revsle.driving import TimeGrid, sample_brownian
from revsle.montecarlo import MIN_SPAN


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def only_run_dir(tmp_path, prefix):
    dirs = [d for d in tmp_path.iterdir() if d.name.startswith(prefix)]
    assert len(dirs) == 1
    return dirs[0]


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run(tmp_path, "cft-table", "--config", str(bad)) == 2


def test_cft_table_sum_column(tmp_path, capsys):
    assert run(tmp_path, "cft-table", "--kappa", "4,6") == 0
    d = only_run_dir(tmp_path, "cft-table-")
    lines = (d / "table.csv").read_text().strip().split("\n")
    assert lines[0] == "kappa,c_L,c_M,sum,h12_L,h12_M,h13_L"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[3] == "26"
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["subcommand"] == "cft-table"
    assert d.name.endswith(manifest["config_digest"][:12])


def test_cft_table_rerun_is_byte_identical(tmp_path, capsys):
    assert run(tmp_path, "cft-table", "--kappa", "2,8/3,3") == 0
    d = only_run_dir(tmp_path, "cft-table-")
    first = (d / "table.csv").read_bytes()
    assert run(tmp_path, "cft-table", "--kappa", "2,8/3,3") == 0
    assert (d / "table.csv").read_bytes() == first


def test_virasoro_check_kappa_2(tmp_path, capsys):
    assert run(tmp_path, "virasoro-check", "--kappa", "2") == 0
    d = only_run_dir(tmp_path, "virasoro-check-")
    report = json.loads((d / "report.json").read_text())
    assert report["all_pass"]
    liou = [r for r in report["records"] if r["sector"] == "liouville"][0]
    assert liou["singular_12"] and liou["singular_21"]
    assert liou["w_eigenvalue_num"] == -2
    assert liou["w_eigenvalue_den"] == 1
    assert liou["matches_formula"]


def test_exponents_reports_proposed_pair_violation(tmp_path, capsys):
    assert run(tmp_path, "exponents", "--kappa", "4") == 0
    d = only_run_dir(tmp_path, "exponents-")
    report = json.loads((d / "report.json").read_text())
    assert report["proposed_pair_ok"] is False
    assert all(c["satisfies"] for c in report["derived_pairs"])
    roots = sorted(r[0] for r in report["roots"])
    assert roots == pytest.approx([-1.0, 3.0])


def test_martingale_subcommand_pass_and_fail(tmp_path, capsys):
    code = run(tmp_path, "martingale-test", "--kappa", "4", "--horizon", "0.05",
               "--steps", "50", "--samples", "2000", "--seed", "11",
               "--y", "1.0", "--exponent-a", "-3", "--exponent-b", "3")
    assert code == 0
    d = only_run_dir(tmp_path, "martingale-test-")
    assert (d / "report.csv").exists()
    assert json.loads((d / "report.json").read_text())["verdict"] is True

    code = run(tmp_path, "martingale-test", "--kappa", "4", "--horizon", "0.05",
               "--steps", "50", "--samples", "20000", "--seed", "11",
               "--y", "1.0", "--exponent-a", "-3", "--exponent-b", "2")
    assert code == 1


def test_martingale_config_file(tmp_path, capsys):
    cfg = {"kappa": 4.0, "horizon": 0.05, "steps": 50, "samples": 500,
           "seed": 3, "y": 1.0, "exponent-a": 0.0, "exponent-b": 0.0}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    assert run(tmp_path, "martingale-test", "--config", str(path)) == 0


def test_inverse_check_subcommand(tmp_path, capsys):
    code = run(tmp_path, "inverse-check", "--kappa", "4", "--horizon", "1.0",
               "--steps", "100", "--samples", "20", "--seed", "7")
    assert code == 0
    d = only_run_dir(tmp_path, "inverse-check-")
    report = json.loads((d / "report.json").read_text())
    assert report["passed"]
    assert (d / "samples.csv").read_text().startswith("sample,max_error")


def test_composed_subcommand(tmp_path, capsys):
    code = run(tmp_path, "composed", "--kappa", "4", "--horizon", "0.1",
               "--steps", "50", "--samples", "100", "--seed", "5")
    assert code == 0
    d = only_run_dir(tmp_path, "composed-")
    report = json.loads((d / "report.json").read_text())
    assert report["containment_violations"] == 0


# The sorted keys of each report.json with a dataclass behind it: the field
# names are the file's keys.
REPORT_KEYS = {
    "martingale-test": (["--samples", "200", "--steps", "10"],
                        "checkpoints eps_stop f0 horizon kappa master_seed n_nonfinite "
                        "n_samples n_steps verdict"),
    "inverse-check": (["--samples", "3", "--steps", "10"],
                      "bound horizon kappa master_seed max_error mean_error n_samples "
                      "n_steps passed test_points"),
    "composed": (["--samples", "3", "--steps", "10"],
                 "containment_violations horizon im_spread kappa master_seed mean_image "
                 "n_points n_samples n_steps shared_driving survival_fraction"),
    "exponents": (["--kappa", "4"],
                  "complex_roots derived_pairs h kappa proposed_pair_ok roots"),
}


@pytest.mark.parametrize("sub", REPORT_KEYS)
def test_report_json_keys(sub, tmp_path, capsys):
    flags, keys = REPORT_KEYS[sub]
    assert run(tmp_path, sub, *flags, "--workers", "1") == 0
    report = json.loads((only_run_dir(tmp_path, sub + "-") / "report.json").read_text())
    assert sorted(report) == keys.split()
    if sub == "martingale-test":
        assert len(report["checkpoints"]) == 5
        assert sorted(report["checkpoints"][0]) == ["mean", "n_alive", "n_stopped",
                                                    "stderr", "t", "z"]
    if sub == "inverse-check":   # complex numbers are [re, im] pairs
        assert report["test_points"] == [[0.0, 1.0], [1.0, 1.0], [-1.0, 2.0]]
    if sub == "composed":
        assert len(report["mean_image"]) == 2
    if sub == "exponents":
        assert sorted(report["derived_pairs"][0]) == ["a", "b", "residual", "satisfies"]


def test_json_hook_rejects_what_it_cannot_encode():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        revsle.cli._jsonable({1})


CSV_HEADERS = [
    ("martingale-test", ["--samples", "200", "--steps", "10"], "report.csv",
     "t,mean,stderr,z,n_alive,n_stopped", 5),
    ("inverse-check", ["--samples", "3", "--steps", "10"], "samples.csv",
     "sample,max_error", 3),
    ("driving", ["--steps", "10"], "path.csv", "t,xi", 11),
    ("trace", ["--steps", "10"], "trace.csv", "t,re_gamma,im_gamma", 11),
    ("radial", ["--steps", "10"], "radial.csv", "t,re_g,im_g", 11),
    ("cft-table", ["--kappa", "2,8/3"], "table.csv", "kappa,c_L,c_M,sum,h12_L,h12_M,h13_L", 2),
]


@pytest.mark.parametrize("sub,flags,name,header,n_rows", CSV_HEADERS,
                         ids=[case[0] for case in CSV_HEADERS])
def test_csv_header_and_rows(sub, flags, name, header, n_rows, tmp_path, capsys):
    assert run(tmp_path, sub, *flags) == 0
    lines = (only_run_dir(tmp_path, sub + "-") / name).read_text().split("\n")
    assert lines[0] == header and lines[-1] == ""
    assert len(lines) == n_rows + 2
    assert all(line.count(",") == header.count(",") for line in lines[1:-1])


def test_path_csv_reads_back_bitwise(tmp_path, capsys):
    assert run(tmp_path, "driving", "--kappa", "2", "--steps", "40",
               "--horizon", "0.5", "--seed", "77") == 0
    lines = (only_run_dir(tmp_path, "driving-") / "path.csv").read_text().split("\n")
    path = sample_brownian(TimeGrid(0.5, 40), 2.0, 77)
    rows = [line.split(",") for line in lines[1:-1]]
    assert [float(t) for t, _ in rows] == path.grid.times().tolist()
    assert [float(x) for _, x in rows] == path.values.tolist()


def test_simulate_and_trace_and_radial(tmp_path, capsys):
    assert run(tmp_path, "driving", "--kappa", "2", "--steps", "20",
               "--horizon", "0.5", "--seed", "1") == 0
    d = only_run_dir(tmp_path, "driving-")
    assert (d / "path.csv").read_text().startswith("t,xi")
    assert json.loads((d / "manifest.json").read_text())["outputs"] == ["path.csv"]

    assert run(tmp_path, "trace", "--kappa", "2", "--steps", "30",
               "--horizon", "0.5", "--seed", "1") == 0
    d = only_run_dir(tmp_path, "trace-")
    lines = (d / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "t,re_gamma,im_gamma"
    assert len(lines) == 32

    assert run(tmp_path, "radial", "--kappa", "2", "--steps", "30",
               "--horizon", "0.5", "--seed", "1", "--z0", "0.0,1.0") == 0
    d = only_run_dir(tmp_path, "radial-")
    assert len((d / "radial.csv").read_text().strip().split("\n")) == 32
    assert json.loads((d / "manifest.json").read_text())["outputs"] == ["radial.csv"]


def test_radial_nonfinite_state_flips_exit_code(tmp_path, monkeypatch, capsys):
    argv = ["radial", "--kappa", "2", "--steps", "30", "--horizon", "0.5", "--seed", "1"]
    assert run(tmp_path / "clean", *argv) == 0
    calls = itertools.count()

    def poisoned(u):   # a NaN root at step 10
        return complex(math.nan, math.nan) if next(calls) == 10 else cmath.sqrt(u)

    monkeypatch.setattr(revsle.loewner, "cmath", types.SimpleNamespace(sqrt=poisoned))
    assert run(tmp_path / "nan", *argv) == 1
    assert "non-finite" in capsys.readouterr().err


def test_trace_nonfinite_tip_flips_exit_code(tmp_path, monkeypatch, capsys):
    argv = ["trace", "--steps", "20"]
    assert run(tmp_path / "clean", *argv) == 0
    original = revsle.loewner.slit_sqrt_vec
    calls = itertools.count()

    def poisoned(u, re_hint):   # NaN roots at the fourth zipper step
        s = original(u, re_hint)
        return s * math.nan if next(calls) == 3 else s

    monkeypatch.setattr(revsle.loewner, "slit_sqrt_vec", poisoned)
    assert run(tmp_path / "nan", *argv) == 1
    assert "trace: non-finite tip in the curve" in capsys.readouterr().err
    assert "nan" in (only_run_dir(tmp_path / "nan", "trace-") / "trace.csv").read_text()


def test_driving_nonfinite_value_flips_exit_code(tmp_path, capsys):
    # sqrt(kappa dt) overflows: the increments are +-inf and their sum NaN
    argv = ["driving", "--kappa", "1e308", "--horizon", "1e10", "--steps", "2"]
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.splitlines() == ["driving: non-finite value in the path"]
    rows = (only_run_dir(tmp_path, "driving-") / "path.csv").read_text().split("\n")
    assert rows[0:2] == ["t,xi", "0.0,0.0"] and rows[3:] == ["10000000000.0,nan", ""]
    assert rows[2] in ("5000000000.0,inf", "5000000000.0,-inf")


GRID_SUBCOMMANDS = {"driving": [], "trace": [], "radial": [],
                    "martingale-test": ["--samples", "200", "--workers", "1", "--y", "1e6"],
                    "inverse-check": ["--samples", "200", "--workers", "1"],
                    "composed": ["--samples", "200", "--workers", "1"]}

OVERFLOW_MESSAGES = {
    "driving": "driving: non-finite value in the path",
    "trace": "trace: non-finite tip in the curve",
    "radial": "radial: non-finite state in the trajectory",
    "martingale-test": "martingale-test: 200 samples with a non-finite driving value",
    "inverse-check": "inverse-check: non-finite error in the ensemble",
    "composed": "composed: 2400 images non-finite or below the real axis",
}


@pytest.mark.parametrize("sub", GRID_SUBCOMMANDS)
def test_overflowing_config_fails_with_its_own_line(sub, tmp_path, capsys):
    # sqrt(kappa dt) overflows, so the driving holds inf and NaN: each run
    # fails with one stderr line of its own and no numpy warning (which the
    # suite's warning filter would raise)
    argv = [sub, "--kappa", "1e308", "--horizon", "1e10", "--steps", "2",
            *GRID_SUBCOMMANDS[sub]]
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.splitlines() == [OVERFLOW_MESSAGES[sub]]
    only_run_dir(tmp_path, sub + "-")


# A huge but finite driving: composed's images hold both +inf and -inf, whose
# sum math.fsum cannot take; the walk's values overflow at 50 steps, while at
# 2 steps y^2 = 2 T/n leaves the walk no first step, a usage error (it once
# froze every sample at step 0 and passed).  And 100^154 is
# finite while the sum of 200 such values is not; 100^100 sums, but its
# squared deviations do not, and an infinite standard error gives z = 0.
# Each run ends with its verdict and at most one stderr line of its own: no
# usage error, traceback or numpy warning (which the suite's warning filter
# would raise).
HUGE = ["--kappa", "1e308", "--horizon", "1", "--samples", "200", "--workers", "1"]
CHECKPOINT_LINE = r"martingale-test: \d+ checkpoints with a non-finite mean or standard error"
IMAGE_LINE = r"composed: \d+ images non-finite or below the real axis"
EXPONENTS_LINE = r"exponents: non-finite value in the report"
OVERFLOWING_SUMS = {
    "composed-2": (["composed", *HUGE, "--steps", "2"], 1, IMAGE_LINE),
    "composed-50": (["composed", *HUGE, "--steps", "50"], 1, IMAGE_LINE),
    "martingale-test-2": (["martingale-test", *HUGE, "--steps", "2"], 2,
                          r"error: need y\^2 > 2 T/n for a first step, got y=1\.0, T/n=0\.5"),
    "martingale-test-50": (["martingale-test", *HUGE, "--steps", "50"], 1, CHECKPOINT_LINE),
    "martingale-test-y100": (["martingale-test", "--y", "100", "--exponent-a", "0",
                              "--exponent-b", "154", "--samples", "200", "--steps", "10",
                              "--workers", "1"], 1, CHECKPOINT_LINE),
    "martingale-test-y100-b100": (["martingale-test", "--y", "100", "--exponent-a", "0",
                                   "--exponent-b", "100", "--samples", "200", "--steps", "10",
                                   "--workers", "1"], 1, CHECKPOINT_LINE),
    # finite inputs whose exponents overflow: b at kappa 1e300, the proposed
    # pair's 8/kappa^2 at kappa 1e-300, the discriminant at h 1e308, and at a
    # subnormal kappa the (1,3) weight itself (kappa/4 is 0 at 5e-324)
    "exponents-kappa-1e300": (["exponents", "--kappa", "1e300"], 1, EXPONENTS_LINE),
    "exponents-kappa-1e-300": (["exponents", "--kappa", "1e-300"], 1, EXPONENTS_LINE),
    "exponents-kappa-1e-310": (["exponents", "--kappa", "1e-310"], 1, EXPONENTS_LINE),
    "exponents-kappa-5e-324": (["exponents", "--kappa", "5e-324"], 1, EXPONENTS_LINE),
    "exponents-h-1e308": (["exponents", "--kappa", "4", "--h", "1e308"], 1, EXPONENTS_LINE),
}


@pytest.mark.parametrize("argv,code,line", OVERFLOWING_SUMS.values(), ids=OVERFLOWING_SUMS)
def test_overflowing_sum_fails_with_its_own_line(argv, code, line, tmp_path, capsys):
    assert run(tmp_path, *argv) == code
    err = capsys.readouterr().err.splitlines()
    if line is None:
        assert err == []
    else:
        assert len(err) == 1 and re.fullmatch(line, err[0]), err
    if code == 2:   # a usage error writes no run directory
        assert list(tmp_path.iterdir()) == []
    elif argv[0] == "martingale-test":
        report = json.loads((only_run_dir(tmp_path, argv[0] + "-") / "report.json").read_text())
        assert report["verdict"] is False


def test_trace_and_radial_fields_are_plain_floats(tmp_path, capsys):
    for sub, name in (("trace", "trace.csv"), ("radial", "radial.csv")):
        assert run(tmp_path, sub, "--kappa", "2", "--steps", "20", "--horizon", "0.5",
                   "--seed", "1") == 0
        lines = (only_run_dir(tmp_path, sub + "-") / name).read_text().split("\n")
        assert lines[-1] == "" and len(lines) == 23
        for line in lines[1:-1]:
            for field in line.split(","):
                float(field)   # a numpy repr such as np.float64(0.5) raises


@pytest.mark.parametrize("sub", ["inverse-check", "composed"])
def test_nonfinite_sample_flips_exit_code(sub, tmp_path, nan_in_sample_1, capsys):
    argv = [sub, "--kappa", "4", "--horizon", "0.1", "--steps", "20",
            "--samples", "50", "--seed", "3"]
    assert run(tmp_path / "clean", *argv) == 0
    nan_in_sample_1()
    assert run(tmp_path / "nan", *argv) == 1


def test_nonfinite_driving_flips_the_martingale_exit_code(tmp_path, nonfinite_driving,
                                                          capsys):
    argv = ["martingale-test", "--steps", "100", "--samples", "2000", "--seed", "11"]
    assert run(tmp_path / "clean", *argv) == 0
    capsys.readouterr()
    nonfinite_driving()
    assert run(tmp_path / "inf", *argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "martingale-test: 2 samples with a non-finite driving value"]
    report = json.loads((only_run_dir(tmp_path / "inf", "martingale-test-")
                         / "report.json").read_text())
    assert report["n_nonfinite"] == 2 and report["verdict"] is False


def test_manifest_records_the_environment(tmp_path, capsys):
    # the driving stream is numpy's Generator, which NEP 19 does not fix
    # across numpy versions; the environment stays out of the data files
    argv = ["driving", "--steps", "10"]
    assert run(tmp_path / "a", *argv) == 0
    assert run(tmp_path / "b", *argv) == 0
    a, b = (only_run_dir(tmp_path / r, "driving-") for r in "ab")
    env = json.loads((a / "manifest.json").read_text())["env"]
    assert env == {"numpy": np.__version__, "python": platform.python_version(),
                   "cpu_count": os.cpu_count()}
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


NO_SCIPY = """
import sys
sys.modules["scipy"] = None   # from here on, importing scipy raises
from revsle.cli import main
out = sys.argv[1]
assert main(["martingale-test", "--samples", "200", "--steps", "10", "--out", out]) == 0
assert main(["trace", "--steps", "10", "--out", out]) == 0
assert [m for m in sys.modules if m.partition(".")[0] == "scipy"] == ["scipy"]
"""


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test dependency only; importing it would cost a fresh
    # process most of its set-up time
    src = os.path.dirname(os.path.dirname(revsle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


NO_POOL = """
import sys
def pool_modules():
    return [m for m in sys.modules if m.partition(".")[0] in ("multiprocessing", "concurrent")]
from revsle.cli import main
assert pool_modules() == [], pool_modules()
out = sys.argv[1]
assert main(["martingale-test", "--samples", "9000", "--steps", "10", "--workers", "1",
             "--out", out]) == 0
assert main(["trace", "--steps", "10", "--out", out]) == 0
assert pool_modules() == [], pool_modules()
"""


def test_inline_runs_load_no_pool_modules(tmp_path):
    # multiprocessing and concurrent.futures are imported only where a run
    # forks a pool; an inline run does not pay for them
    src = os.path.dirname(os.path.dirname(revsle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", NO_POOL, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("sub,files", [
    ("martingale-test", ["report.csv", "report.json"]),
    ("inverse-check", ["samples.csv", "report.json"]),
    ("composed", ["report.json"]),
])
def test_manifest_records_workers_outside_the_digest(sub, files, tmp_path, capsys):
    # 4100 samples make two chunks, so the workers really split the work;
    # the manifest records the processes that ran, at most one per core
    argv = [sub, "--kappa", "4", "--horizon", "0.05", "--steps", "5",
            "--samples", "4100", "--seed", "2"]
    forks = "fork" in multiprocessing.get_all_start_methods()
    dirs = {}
    for workers in (1, 3):
        run(tmp_path / str(workers), *argv, "--workers", str(workers))
        dirs[workers] = only_run_dir(tmp_path / str(workers), sub + "-")
        manifest = json.loads((dirs[workers] / "manifest.json").read_text())
        assert manifest["workers"] == (min(workers, os.cpu_count() or 1) if forks else 1)
        assert manifest["config"]["workers"] is None
    assert dirs[1].name == dirs[3].name
    for name in files:
        assert (dirs[1] / name).read_bytes() == (dirs[3] / name).read_bytes()


def test_manifest_duration_survives_a_wall_clock_step(tmp_path, monkeypatch, capsys):
    # the wall clock steps back an hour after its first reading
    readings = iter([2.0e9, 2.0e9 - 3600.0])
    clock = types.SimpleNamespace(time=lambda: next(readings, 2.0e9 - 3600.0),
                                  perf_counter=time.perf_counter)
    monkeypatch.setattr(revsle.cli, "time", clock)
    assert run(tmp_path, "cft-table") == 0
    manifest = json.loads((only_run_dir(tmp_path, "cft-table-") / "manifest.json").read_text())
    assert manifest["duration_seconds"] >= 0.0
    assert manifest["created_unix"] == 2.0e9


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or (os.cpu_count() or 1) < 2,
    reason="the worker pool needs fork and two cores")
@pytest.mark.parametrize("argv,recorded", [
    (["inverse-check", "--samples", str(8 * MIN_SPAN), "--steps", "20", "--workers", "8"],
     min(8, os.cpu_count() or 1)),
    # two spans would hold fewer than MIN_SPAN samples each
    (["inverse-check", "--samples", str(2 * MIN_SPAN - 1), "--steps", "20", "--workers", "8"],
     1),
    (["inverse-check", "--samples", "1", "--steps", "20", "--workers", "2"], 1),   # one span
    (["trace", "--steps", "20", "--workers", "2"], 1),   # serial
], ids=["pooled", "narrow", "one-sample", "serial"])
def test_manifest_records_the_processes_that_ran(argv, recorded, tmp_path, capsys):
    assert run(tmp_path, *argv) == 0
    manifest = json.loads((only_run_dir(tmp_path, argv[0] + "-") / "manifest.json").read_text())
    assert manifest["workers"] == recorded


@pytest.mark.parametrize("source", ["flag", "config"])
def test_radial_z0_needs_two_values(source, tmp_path, capsys):
    if source == "flag":
        argv = ["radial", "--z0", "1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"z0": [1]}))
        argv = ["radial", "--config", str(cfg)]
    assert run(tmp_path / "out", *argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and "z0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("z0", [[True, 1], ["0", "1"], "0,x", 1, None],
                         ids=["bools", "strings", "bad-text", "number", "null"])
def test_radial_z0_file_value_must_be_a_point(z0, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"z0": z0}))
    assert run(tmp_path / "out", "radial", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and "z0" in err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("sub", ["cft-table", "virasoro-check"])
@pytest.mark.parametrize("source,kappa", [("flag", ","), ("flag", " "), ("config", ","),
                                          ("config", "")],
                         ids=["flag-comma", "flag-blank", "config-comma", "config-empty"])
def test_empty_kappa_list_is_usage_error(sub, source, kappa, tmp_path, capsys):
    # no kappa means no table rows and no records: a verdict over nothing
    if source == "flag":
        argv = [sub, "--kappa", kappa]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": kappa}))
        argv = [sub, "--config", str(cfg)]
    assert run(tmp_path / "out", *argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and "kappa" in err
    assert not (tmp_path / "out").exists()

USAGE_ERRORS = {
    "radial": ["radial", "--z0", "0,-1"],
    # NaN fails no comparison with 0, so the start point is also checked finite
    "radial-z0-nan": ["radial", "--z0", "nan,1"],
    "martingale-test": ["martingale-test", "--samples", "5"],
    "inverse-check": ["inverse-check", "--steps", "0"],
    "composed": ["composed", "--steps", "0"],
    "inverse-check-kappa": ["inverse-check", "--kappa", "-1"],
    "composed-kappa": ["composed", "--kappa", "-1"],
    # an infinite horizon makes 4dt = inf, which freezes every sample at t=0,
    # so the mean equals F0 exactly and the verdict would pass
    "martingale-test-horizon-inf": ["martingale-test", "--samples", "200", "--steps", "5",
                                    "--horizon", "inf"],
    "trace-horizon-inf": ["trace", "--steps", "5", "--horizon", "inf"],
    # a NaN threshold freezes every sample at t=0 (a silent pass); a negative
    # one lets samples step past the seed into NaN means
    "martingale-test-eps-stop-nan": ["martingale-test", "--samples", "2000", "--steps", "50",
                                     "--eps-stop", "nan"],
    "martingale-test-eps-stop-negative": ["martingale-test", "--samples", "2000",
                                          "--steps", "50", "--eps-stop", "-1"],
    # b = -inf makes every value and F0 zero (a silent pass); an infinite or
    # NaN point or exponent would fail the run and still write a directory
    "martingale-test-exponent-b-neg-inf": ["martingale-test", "--samples", "200",
                                           "--steps", "20", "--horizon", "0.01", "--y", "2",
                                           "--exponent-a", "0", "--exponent-b=-inf"],
    # F_0 = y^b must be a positive normal float: 100^155 is past the floats,
    # and 0.01^200 underflows to 0 with every frozen value (a silent pass)
    "martingale-test-y100-b155": ["martingale-test", "--y", "100", "--exponent-a", "0",
                                  "--exponent-b", "155", "--samples", "200", "--steps", "10",
                                  "--workers", "1"],
    "martingale-test-y0.01-b200": ["martingale-test", "--y", "0.01", "--exponent-a", "0",
                                   "--exponent-b", "200", "--samples", "200", "--steps", "10",
                                   "--workers", "1"],
    # y^2 <= 2 T/n: the walk's first half step is not real, so every sample
    # would stop at step 0; at y = 0.1 that run passed with z = 0, at 0.3 and
    # 0.7 it failed on a last-bit difference between y^b and the walk's value
    **{f"martingale-test-no-first-step-y{y}": [
        "martingale-test", "--y", y, "--horizon", "1", "--steps", "2", "--samples", "200",
        "--exponent-a", "0", "--exponent-b", "1.5"] for y in ("0.1", "0.3", "0.7")},
    "martingale-test-y-inf": ["martingale-test", "--samples", "200", "--steps", "5",
                              "--y", "inf"],
    "martingale-test-y-nan": ["martingale-test", "--samples", "200", "--steps", "5",
                              "--y", "nan"],
    "martingale-test-exponent-a-nan": ["martingale-test", "--samples", "200", "--steps", "5",
                                       "--exponent-a", "nan"],
    "martingale-test-kappa-inf": ["martingale-test", "--samples", "200", "--steps", "5",
                                  "--kappa", "inf"],
    "inverse-check-kappa-inf": ["inverse-check", "--samples", "2", "--steps", "5",
                                "--kappa", "inf"],
    "trace-kappa-inf": ["trace", "--steps", "5", "--kappa", "inf"],
    # each of these divides by zero unless kappa is checked first
    "exponents-kappa-0": ["exponents", "--kappa", "0"],
    # a NaN h gives NaN roots; 1e400 is past the floats
    "exponents-h-nan": ["exponents", "--kappa", "4", "--h", "nan"],
    "exponents-kappa-1e400": ["exponents", "--kappa", "1e400"],
    "cft-table-zero-denominator": ["cft-table", "--kappa", "2,1/0"],
    "virasoro-check-zero-denominator": ["virasoro-check", "--kappa", "1/0"],
    # a worker count must be at least 1: 0 does not mean all cores
    "inverse-check-workers-0": ["inverse-check", "--samples", "2", "--steps", "5",
                                "--workers", "0"],
    "inverse-check-workers-negative": ["inverse-check", "--samples", "2", "--steps", "5",
                                       "--workers", "-3"],
    "trace-workers-0": ["trace", "--steps", "5", "--workers", "0"],
    # 5e-324 / 2 is 0.0: a grid of zero steps would pass inverse-check
    # vacuously and write t = 0 rows
    **{f"{sub}-step-underflow": [sub, "--horizon", "5e-324", "--steps", "2", *extra]
       for sub, extra in GRID_SUBCOMMANDS.items()},
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_leaves_no_run_directory(argv, tmp_path, capsys):
    assert run(tmp_path, *argv) == 2
    assert list(tmp_path.iterdir()) == []
    assert len(capsys.readouterr().err.strip().split("\n")) == 1


@pytest.mark.parametrize("payload", [[1], "abc", None], ids=["list", "string", "null"])
def test_config_must_be_a_json_object(payload, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert run(tmp_path / "out", "cft-table", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and "JSON object" in err
    assert not (tmp_path / "out").exists()


# Config-file values that their key's type would change, "workers" too; a key
# the subcommand does not take, and "workers" for a serial subcommand.
BAD_FILE_VALUES = {
    "int-key-fraction": ("inverse-check", {"samples": 100.7}),
    "int-key-string": ("inverse-check", {"samples": "100"}),
    "int-key-null": ("inverse-check", {"samples": None}),
    "float-key-bool": ("inverse-check", {"kappa": True}),
    "int-key-bool": ("martingale-test", {"steps": True}),
    "float-key-list": ("inverse-check", {"horizon": [1]}),
    "switch-string": ("composed", {"shared-driving": "yes"}),
    "switch-int": ("composed", {"shared-driving": 1}),
    "workers-fraction": ("inverse-check", {"workers": 2.5}),
    "workers-bool": ("inverse-check", {"workers": True}),
    "unknown-key": ("inverse-check", {"bogus": 1}),
    "workers-serial": ("trace", {"workers": 2}),
}


@pytest.mark.parametrize("sub,file_cfg", BAD_FILE_VALUES.values(), ids=BAD_FILE_VALUES.keys())
def test_config_value_its_type_changes_is_usage_error(sub, file_cfg, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # only keys the subcommand takes, so that file_cfg's key is the one at fault
    keys = revsle.cli._COMMANDS[sub][1]
    base = {k: v for k, v in {"samples": 2, "steps": 5}.items() if k in keys}
    cfg.write_text(json.dumps({**base, **file_cfg}))
    assert run(tmp_path / "out", sub, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and next(iter(file_cfg)) in err
    assert not (tmp_path / "out").exists()


# A config file and the flags (subcommand first) that give the same config.
@pytest.mark.parametrize("file_cfg,flags", [
    ({"steps": 5, "samples": 100}, ["inverse-check", "--steps", "5", "--samples", "100"]),
    # an integral float is the int
    ({"steps": 5, "samples": 100.0}, ["inverse-check", "--steps", "5", "--samples", "100"]),
    ({"steps": 5, "kappa": 4}, ["inverse-check", "--steps", "5", "--kappa", "4"]),
    # a kappa list digests in one spelling: a number, or spaces after commas
    ({"kappa": 2}, ["cft-table", "--kappa", "2"]),
    ({"kappa": 2}, ["virasoro-check", "--kappa", "2"]),
    ({"kappa": "2, 8/3"}, ["cft-table", "--kappa", "2,8/3"]),
    ({"kappa": "2, 8/3"}, ["virasoro-check", "--kappa", "2,8/3"]),
    # a point is a list of two numbers or the flag's own spelling
    ({"z0": [0, 1], "steps": 10}, ["radial", "--z0", "0,1", "--steps", "10"]),
    ({"z0": "0,1", "steps": 10}, ["radial", "--z0", "0,1", "--steps", "10"]),
    ({"z0": [0.5, 2.0], "steps": 10}, ["radial", "--z0", "0.5,2", "--steps", "10"]),
    # a value that starts with "-" and is not a plain decimal follows "="
    ({"z0": [-0.5, 1]}, ["radial", "--z0=-0.5,1"]),
])
def test_config_file_and_flags_share_the_run_directory(file_cfg, flags, tmp_path, capsys):
    sub = flags[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    assert run(tmp_path / "file", sub, "--config", str(cfg)) == 0
    assert run(tmp_path / "flags", *flags) == 0
    d = only_run_dir(tmp_path / "file", sub + "-")
    assert d.name == only_run_dir(tmp_path / "flags", sub + "-").name
    assert json.loads((d / "manifest.json").read_text())["config"] == json.loads(
        (tmp_path / "flags" / d.name / "manifest.json").read_text())["config"]


# One small config per subcommand, given by flags and by a --config file,
# with its digest.  Run directories of earlier runs are found by this digest,
# so it must not drift.  The manifest's config must hash to the pinned
# digest, so it is pinned too (config-file values enter it parsed by their
# key's type: the int 4 for a float key enters as 4.0).
PINNED = [
    ("driving", ["--kappa", "2", "--steps", "10"], {"seed": 9, "steps": 5},
     "5cf4769cee3401d53d4644c77a2cecb9e42afbd588340af06aea31561d2b795e",
     "edda639a5d4e675d25cc27a59416ba5c04b7151f8f185ed615f22131f31e06c9"),
    ("trace", ["--steps", "10", "--seed", "3"], {"kappa": 4, "horizon": 0.5, "steps": 12},
     "9182671a3a70dc5ffaded7878bb7e51593027720ce1f832c02c6b6c7de88cc60",
     "139eedc19ccae5208f45a85df11ffba3cb1e50cb4481a7d103a7f95a158b4932"),
    ("radial", ["--steps", "10", "--z0", "0.5,2"], {"z0": [1, 1], "steps": 8},
     "faf15c4a974dbb576d07589bbe3ead5894cc5ed54f9513895a469cfed8185934",
     "561f7343290fef5114054bc0da30af634bf3db8d08778fe557192bcce0583ca6"),
    ("cft-table", ["--kappa", "2,8/3"], {"kappa": "6"},
     "a48cc128b2008728afd33185d80daa3276be8b58809cca55869851d7257335f8",
     "28e6631ee53c87eb0d1f0b563f51f2161583c9578e686f8e198bbc3d7d8d00bd"),
    ("virasoro-check", ["--kappa", "3"], {"kappa": "2,4"},
     "d1c894b8ef413fa016a7df45f42f77b4b43f1abe6f4ce414ce333d836223cfa8",
     "5cd3fb79bca6550cf6e5412e8f999913e017c2227c8a3267596054803ea8fdf1"),
    ("exponents", ["--kappa", "8/3"], {"kappa": 6, "h": 0.5},
     "f580f8801be0a58c3cf4b8eac2254e332343d841f218bd3c2016e98abeb399cb",
     "8beca848f0180898de06b5146fcb618ab30f7a5f2d6df3c20cceaed6c69ead01"),
    ("martingale-test", ["--samples", "200", "--steps", "5", "--horizon", "0.01"],
     {"samples": 100, "steps": 4, "workers": 2},
     "bd0fc766cb06e297d94baf55539c42204a6a8aa58ae6f663caa5d2171a2f8242",
     "5858cdb57fdbf70cee4fa8123e1ac8890d91c8e9f02fb5b6e25fd8b867c30270"),
    ("inverse-check", ["--samples", "3", "--steps", "10"],
     {"kappa": 2, "steps": 8, "samples": 2, "seed": 4},
     "3dd212148fe2e3703788db4b44373a7227bf068a45f6cd7a10b832f28fa15052",
     "537ef89acdeeccf10eb20fa176f2823e967aa60680ac1ef93eee26778c3c2908"),
    ("composed", ["--samples", "3", "--steps", "10", "--shared-driving"],
     {"horizon": 0.1, "steps": 6, "samples": 2, "shared-driving": True},
     "b5927a53395620da77950299419decf8c7466cd78e195c7946d5665c764451e1",
     "6a7f573f62fcbae606ada0cab220ba6aff2fabd5f1ce14f1bb0cf4034835687c"),
]


# sha256 of data files of the flags runs above.  Their values come from
# exact rationals or correctly rounded float operations only, so the bytes
# hold on any CPU; engine outputs, which go through libm and SIMD
# exp/log/sqrt, are left out.
PINNED_DATA = {
    "cft-table": {
        "table.csv": "7d0b1439df19ecc55d85b0ace6dc8570eeb1089872d8003cca3284965a691028"},
    "virasoro-check": {
        "report.json": "51213febaab04e33d89ef2cfe2e97b8b431b73cecfb1b3b556851267066258eb"},
    "exponents": {
        "report.json": "84ce01fc339b62f73ed7d54e23fca0d33f6d058497ba16d2d7dd7a1316b1fef2"},
}


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("sub,flags,file_cfg,flags_digest,config_digest", PINNED,
                         ids=[case[0] for case in PINNED])
def test_run_directory_and_digest_are_pinned(sub, flags, file_cfg, flags_digest,
                                             config_digest, source, tmp_path, capsys):
    argv, digest = [sub] + flags, flags_digest
    if source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps(file_cfg))
        argv, digest = [sub, "--config", str(tmp_path / "cfg.json")], config_digest
    assert run(tmp_path / "out", *argv, "--workers", "1") == 0
    d = only_run_dir(tmp_path / "out", sub + "-")
    assert d.name == f"{sub}-{digest[:12]}"
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["config_digest"] == digest
    canonical = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest
    if source == "flags":
        for name, sha in PINNED_DATA.get(sub, {}).items():
            assert hashlib.sha256((d / name).read_bytes()).hexdigest() == sha, name


# The config keys of each subcommand; each is a flag of the same name.
KEYS = {
    "driving": "kappa seed steps horizon",
    "trace": "kappa seed steps horizon",
    "radial": "kappa seed steps horizon z0",
    "cft-table": "kappa",
    "virasoro-check": "kappa",
    "exponents": "kappa h",
    "martingale-test": "kappa horizon steps samples seed y exponent-a exponent-b eps-stop",
    "inverse-check": "kappa horizon steps samples seed",
    "composed": "kappa horizon steps samples seed shared-driving",
}


def test_each_subcommand_has_its_table_keys_as_flags():
    subparsers = next(a for a in revsle.cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(KEYS) == list(revsle.cli._COMMANDS)
    for name, sp in subparsers.choices.items():
        flags = {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        expected = {"--" + key for key in KEYS[name].split()}
        assert flags == expected | {"--config", "--out", "--workers"}, name
        assert list(revsle.cli._COMMANDS[name][1]) == KEYS[name].split()


def test_each_key_default_is_none_or_of_its_key_type():
    for name, (_, keys) in revsle.cli._COMMANDS.items():
        for key, spec in keys.items():
            kind = list if spec.type is revsle.cli._point else spec.type
            assert spec.default is None or type(spec.default) is kind, (name, key, spec)


def test_exponents_default_kappa_digests_as_its_flag(tmp_path, capsys):
    # the digest of the default run, pinned when the default was the float 4.0
    assert run(tmp_path / "default", "exponents") == 0
    assert run(tmp_path / "flag", "exponents", "--kappa", "4") == 0
    for source in ("default", "flag"):
        d = only_run_dir(tmp_path / source, "exponents-")
        assert json.loads((d / "manifest.json").read_text())["config_digest"] == (
            "28353261541162b7aad54156b0a4dad0c3ba4c1a35e76f530fa609d8b0fc82f6")


def test_parser_is_built_once_per_process():
    assert revsle.cli._build_parser() is revsle.cli._build_parser()


def test_reused_parser_keeps_calls_independent(tmp_path, capsys):
    # a flag of one call must not become the default of the next
    assert run(tmp_path / "seeded", "trace", "--seed", "5") == 0
    assert run(tmp_path / "default", "trace") == 0
    default = {"kappa": 2.0, "seed": 0, "steps": 200, "horizon": 1.0}
    digest = hashlib.sha256(json.dumps(default, sort_keys=True,
                                       separators=(",", ":")).encode()).hexdigest()
    d = only_run_dir(tmp_path / "default", "trace-")
    assert d.name == f"trace-{digest[:12]}"
    assert json.loads((d / "manifest.json").read_text())["config"] == default
    assert only_run_dir(tmp_path / "seeded", "trace-").name != d.name


def test_reused_parser_still_reports_usage_and_help(tmp_path, capsys):
    revsle.cli._build_parser()
    assert run(tmp_path, "trace", "--steps", "x") == 2
    assert run(tmp_path, "trace", "--no-such-flag") == 2
    assert main(["trace", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out
    assert run(tmp_path, "trace", "--steps", "5") == 0
    assert list(tmp_path.iterdir()) == [only_run_dir(tmp_path, "trace-")]


def test_seed_flag_only_where_there_is_a_seed(tmp_path, capsys):
    # the algebra subcommands draw no samples, so a seed would be ignored
    assert run(tmp_path, "cft-table", "--seed", "3") == 2
    assert list(tmp_path.iterdir()) == []


def test_workers_leave_no_thread_or_process(tmp_path, capsys):
    before = threading.active_count()
    assert run(tmp_path, "inverse-check", "--kappa", "4", "--horizon", "0.05",
               "--steps", "3", "--samples", "4100", "--seed", "2", "--workers", "2") == 0
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_output_root_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REVSLE_OUT", str(tmp_path / "envroot"))
    assert main(["cft-table", "--kappa", "4"]) == 0
    assert (tmp_path / "envroot").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
