import argparse
import cmath
import hashlib
import itertools
import json
import math
import multiprocessing
import threading
import types

import pytest

import revsle.cli
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


USAGE_ERRORS = {
    "radial": ["radial", "--z0", "0,-1"],
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
    "martingale-test-kappa-inf": ["martingale-test", "--samples", "200", "--steps", "5",
                                  "--kappa", "inf"],
    "inverse-check-kappa-inf": ["inverse-check", "--samples", "2", "--steps", "5",
                                "--kappa", "inf"],
    "trace-kappa-inf": ["trace", "--steps", "5", "--kappa", "inf"],
    # each of these divides by zero unless kappa is checked first
    "exponents-kappa-0": ["exponents", "--kappa", "0"],
    "cft-table-zero-denominator": ["cft-table", "--kappa", "2,1/0"],
    "virasoro-check-zero-denominator": ["virasoro-check", "--kappa", "1/0"],
    # a worker count must be at least 1: 0 does not mean all cores
    "inverse-check-workers-0": ["inverse-check", "--samples", "2", "--steps", "5",
                                "--workers", "0"],
    "inverse-check-workers-negative": ["inverse-check", "--samples", "2", "--steps", "5",
                                       "--workers", "-3"],
    "trace-workers-0": ["trace", "--steps", "5", "--workers", "0"],
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


# One small config per subcommand, given by flags and by a --config file,
# with its digest.  Run directories of earlier runs are found by this digest,
# so it must not drift.  The manifest's config must hash to the pinned
# digest, so it is pinned too (config-file values enter it verbatim, ints
# stay ints).
PINNED = [
    ("simulate-forward", ["--kappa", "2", "--steps", "10"], {"seed": 9, "steps": 5},
     "5cf4769cee3401d53d4644c77a2cecb9e42afbd588340af06aea31561d2b795e",
     "edda639a5d4e675d25cc27a59416ba5c04b7151f8f185ed615f22131f31e06c9"),
    ("simulate-backward", ["--kappa", "2", "--steps", "10"], {"seed": 9, "steps": 5},
     "5cf4769cee3401d53d4644c77a2cecb9e42afbd588340af06aea31561d2b795e",
     "edda639a5d4e675d25cc27a59416ba5c04b7151f8f185ed615f22131f31e06c9"),
    ("trace", ["--steps", "10", "--seed", "3"], {"kappa": 4, "horizon": 0.5, "steps": 12},
     "9182671a3a70dc5ffaded7878bb7e51593027720ce1f832c02c6b6c7de88cc60",
     "9fb66b0bfeabe762225e29dbb9f71ad8a475729deff13f69426cdae5c61110b2"),
    ("radial", ["--steps", "10", "--z0", "0.5,2"], {"z0": [1, 1], "steps": 8},
     "faf15c4a974dbb576d07589bbe3ead5894cc5ed54f9513895a469cfed8185934",
     "fa20a032a085c902ba1a60d5d86af018f4e542e43b9c2a51f953f676bbf86ac5"),
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
     "d0d3a242e3a12b9196f57dbc4b9f4391d2ac674dacf38b4e2b9c06f8d0e9d093"),
    ("composed", ["--samples", "3", "--steps", "10", "--shared-driving"],
     {"horizon": 0.1, "steps": 6, "samples": 2, "shared-driving": True},
     "b5927a53395620da77950299419decf8c7466cd78e195c7946d5665c764451e1",
     "6a7f573f62fcbae606ada0cab220ba6aff2fabd5f1ce14f1bb0cf4034835687c"),
]


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


# The config keys of each subcommand; each is a flag of the same name.
KEYS = {
    "simulate-forward": "kappa seed steps horizon",
    "simulate-backward": "kappa seed steps horizon",
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
