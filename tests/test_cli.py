import cmath
import itertools
import json
import math
import multiprocessing
import threading
import types

import pytest

import revsle.loewner
from revsle.cli import main


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


def test_simulate_and_trace_and_radial(tmp_path, capsys):
    assert run(tmp_path, "simulate-forward", "--kappa", "2", "--steps", "20",
               "--horizon", "0.5", "--seed", "1") == 0
    d = only_run_dir(tmp_path, "simulate-forward-")
    assert (d / "path.csv").read_text().startswith("t,xi")
    meta = json.loads((d / "evolution.json").read_text())
    assert meta["direction"] == "forward" and meta["n_steps"] == 20

    assert run(tmp_path, "simulate-backward", "--kappa", "2", "--steps", "20",
               "--horizon", "0.5", "--seed", "1") == 0

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


@pytest.mark.parametrize("sub,files", [
    ("martingale-test", ["report.csv", "report.json"]),
    ("inverse-check", ["samples.csv", "report.json"]),
    ("composed", ["report.json"]),
])
def test_manifest_records_workers_outside_the_digest(sub, files, tmp_path, capsys):
    # 4100 samples make two batches, so the workers really split the work
    argv = [sub, "--kappa", "4", "--horizon", "0.05", "--steps", "5",
            "--samples", "4100", "--seed", "2"]
    dirs = {}
    for workers in (1, 3):
        run(tmp_path / str(workers), *argv, "--workers", str(workers))
        dirs[workers] = only_run_dir(tmp_path / str(workers), sub + "-")
        manifest = json.loads((dirs[workers] / "manifest.json").read_text())
        assert manifest["workers"] == workers
        assert manifest["config"]["workers"] is None
    assert dirs[1].name == dirs[3].name
    for name in files:
        assert (dirs[1] / name).read_bytes() == (dirs[3] / name).read_bytes()


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


@pytest.mark.parametrize("argv", [
    ["radial", "--z0", "0,-1"],
    ["martingale-test", "--samples", "5"],
    ["inverse-check", "--steps", "0"],
    ["composed", "--steps", "0"],
    ["inverse-check", "--kappa", "-1"],
    ["composed", "--kappa", "-1"],
], ids=["radial", "martingale-test", "inverse-check", "composed",
        "inverse-check-kappa", "composed-kappa"])
def test_usage_error_leaves_no_run_directory(argv, tmp_path, capsys):
    assert run(tmp_path, *argv) == 2
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
