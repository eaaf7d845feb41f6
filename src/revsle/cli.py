"""Command-line entry point: every experiment is a subcommand.

Configs come from flags or a JSON file (--config; explicit flags win).
Each run writes its data files plus a manifest into one directory named by
the subcommand and a digest of the canonical config, so identical configs
land in the same place with byte-identical data; timestamps live only in
the manifest.  The directory is made only after the inputs are validated and
the results computed, so a usage error leaves none.  Exit codes: 0 pass,
1 verdict failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cft import coupling_check, kac_dimension, params_from_kappa
from .driving import TimeGrid, path_to_csv, sample_brownian
from .loewner import (evolution_to_json, evolve_backward, evolve_forward,
                      evolve_wholeplane, trace)
from .montecarlo import (McConfig, run_composed_stats, run_inverse_consistency,
                         run_martingale_test)
from .observables import (ObservableSpec, audit_one_point_exponents,
                          one_point_exponents)
from .virasoro import null_vector_12, null_vector_21, w_eigenvalue

SUBCOMMANDS = ("simulate-forward", "simulate-backward", "trace", "radial",
               "cft-table", "virasoro-check", "exponents", "martingale-test",
               "inverse-check", "composed")

_ENV_OUT = "REVSLE_OUT"


def _digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _run_dir(args, subcommand: str, config: dict) -> tuple[Path, str]:
    root = Path(args.out or os.environ.get(_ENV_OUT, "runs"))
    digest = _digest(config)
    d = root / f"{subcommand}-{digest[:12]}"
    d.mkdir(parents=True, exist_ok=True)
    return d, digest


def _write_manifest(run_dir: Path, subcommand: str, config: dict, digest: str,
                    outputs: list[str], t_start: float, workers: int = 1) -> None:
    # the worker count stays out of config and digest: it never changes the data
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_digest": digest,
        "workers": workers,
        "version": __version__,
        "master_seed": config.get("seed"),
        "outputs": outputs,
        "duration_seconds": time.time() - t_start,
        "created_unix": t_start,
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_floats(*values) -> str:
    """One CSV line of floats; float() first, since numpy >= 2 scalars
    repr() as ``np.float64(x)``."""
    return ",".join(repr(float(v)) for v in values) + "\n"


def _merged(args, keys: dict) -> dict:
    """Resolve config values: explicit flag > config file > default."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    out = {}
    for key, default in keys.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = file_cfg[key]
        else:
            out[key] = default
    unknown = set(file_cfg) - set(keys)
    if unknown:
        raise SystemExit(f"unknown config keys: {', '.join(sorted(unknown))}")
    return out


def _parse_kappa_list(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",") if part.strip()]


# --- subcommand bodies -----------------------------------------------------

def _cmd_simulate(args, direction: str) -> int:
    cfg = _merged(args, {"kappa": 4.0, "seed": 0, "steps": 500, "horizon": 1.0})
    t0 = time.time()
    grid = TimeGrid(float(cfg["horizon"]), int(cfg["steps"]))
    path = sample_brownian(grid, float(cfg["kappa"]), int(cfg["seed"]))
    evo = evolve_forward(path) if direction == "forward" else evolve_backward(path)
    run_dir, digest = _run_dir(args, f"simulate-{direction}", cfg)
    path_to_csv(path, run_dir / "path.csv")
    _write_json(run_dir / "evolution.json", evolution_to_json(evo))
    _write_manifest(run_dir, f"simulate-{direction}", cfg, digest,
                    ["path.csv", "evolution.json"], t0)
    print(run_dir)
    return 0


def _cmd_trace(args) -> int:
    cfg = _merged(args, {"kappa": 2.0, "seed": 0, "steps": 200, "horizon": 1.0})
    t0 = time.time()
    grid = TimeGrid(float(cfg["horizon"]), int(cfg["steps"]))
    path = sample_brownian(grid, float(cfg["kappa"]), int(cfg["seed"]))
    evo = evolve_forward(path)
    gamma = trace(evo)
    times = grid.times()
    run_dir, digest = _run_dir(args, "trace", cfg)
    with open(run_dir / "trace.csv", "w", newline="") as fh:
        fh.write("t,re_gamma,im_gamma\n")
        for t, g in zip(times, gamma):
            fh.write(_csv_floats(t, g.real, g.imag))
    _write_manifest(run_dir, "trace", cfg, digest, ["trace.csv"], t0)
    print(run_dir)
    return 0


def _cmd_radial(args) -> int:
    cfg = _merged(args, {"kappa": 2.0, "seed": 0, "steps": 200, "horizon": 1.0,
                         "z0": [0.0, 1.0]})
    t0 = time.time()
    z0 = cfg["z0"]
    if not isinstance(z0, list) or len(z0) != 2:
        raise SystemExit(f"radial: z0 needs two values RE,IM, got {z0!r}")
    grid = TimeGrid(float(cfg["horizon"]), int(cfg["steps"]))
    path = sample_brownian(grid, float(cfg["kappa"]), int(cfg["seed"]))
    evo = evolve_wholeplane(path, z0=complex(float(z0[0]), float(z0[1])))
    times = grid.times()
    run_dir, digest = _run_dir(args, "radial", cfg)
    with open(run_dir / "radial.csv", "w", newline="") as fh:
        fh.write("t,re_g,im_g\n")
        for t, g in zip(times, evo.states):
            fh.write(_csv_floats(t, g.real, g.imag))
    _write_manifest(run_dir, "radial", cfg, digest, ["radial.csv"], t0)
    print(run_dir)
    if not evo.completed:
        print("radial: non-finite state in the trajectory", file=sys.stderr)
        return 1
    return 0


def _cmd_cft_table(args) -> int:
    cfg = _merged(args, {"kappa": "2,8/3,3,4,6,8"})
    t0 = time.time()
    rows = []
    for k in _parse_kappa_list(str(cfg["kappa"])):
        c_l, c_m, total = coupling_check(k)
        liou = params_from_kappa(k, "liouville")
        matt = params_from_kappa(k, "matter")
        rows.append((k, c_l, c_m, total,
                     kac_dimension(liou, 1, 2), kac_dimension(matt, 1, 2),
                     kac_dimension(liou, 1, 3)))
    run_dir, digest = _run_dir(args, "cft-table", cfg)
    with open(run_dir / "table.csv", "w", newline="") as fh:
        fh.write("kappa,c_L,c_M,sum,h12_L,h12_M,h13_L\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    _write_manifest(run_dir, "cft-table", cfg, digest, ["table.csv"], t0)
    print(run_dir)
    return 0


def _cmd_virasoro_check(args) -> int:
    cfg = _merged(args, {"kappa": "2"})
    t0 = time.time()
    records = []
    ok = True
    for k in _parse_kappa_list(str(cfg["kappa"])):
        w = w_eigenvalue(k)
        for sector in ("liouville", "matter"):
            _, s12 = null_vector_12(k, sector)
            _, s21 = null_vector_21(k, sector)
            rec = {"kappa": str(k), "sector": sector,
                   "singular_12": s12, "singular_21": s21}
            if sector == "liouville":
                rec.update({
                    "w_eigenvalue_num": w.eigenvalue.numerator,
                    "w_eigenvalue_den": w.eigenvalue.denominator,
                    "matches_formula": w.matches_formula,
                })
                ok = ok and w.matches_formula
            ok = ok and s12 and s21
            records.append(rec)
    run_dir, digest = _run_dir(args, "virasoro-check", cfg)
    _write_json(run_dir / "report.json", {"records": records, "all_pass": ok})
    print(json.dumps(records, indent=2))
    _write_manifest(run_dir, "virasoro-check", cfg, digest, ["report.json"], t0)
    return 0 if ok else 1


def _cmd_exponents(args) -> int:
    cfg = _merged(args, {"kappa": 4.0, "h": None})
    kappa = float(Fraction(str(cfg["kappa"])))
    h = cfg["h"]
    if h is None:
        h = -1.0 - 8.0 / kappa   # the (1,3) weight at b^2 = kappa/4
    h = float(h)
    cfg["h"] = h
    cfg["kappa"] = kappa
    t0 = time.time()
    roots = one_point_exponents(kappa, h)
    audit = audit_one_point_exponents(kappa)
    payload = {
        "kappa": kappa,
        "h": h,
        "roots": [[roots.b_plus.real, roots.b_plus.imag],
                  [roots.b_minus.real, roots.b_minus.imag]],
        "complex_roots": roots.complex_roots,
        "proposed_pair_ok": audit.proposed.satisfies,
        "derived_pairs": audit.to_json()["derived_pairs"],
    }
    run_dir, digest = _run_dir(args, "exponents", cfg)
    _write_json(run_dir / "report.json", payload)
    print(json.dumps(payload, indent=2))
    _write_manifest(run_dir, "exponents", cfg, digest, ["report.json"], t0)
    return 0


def _cmd_martingale(args) -> int:
    cfg = _merged(args, {"kappa": 4.0, "horizon": 0.05, "steps": 500,
                         "samples": 50000, "seed": 0, "y": 1.0,
                         "exponent-a": -3.0, "exponent-b": 3.0,
                         "eps-stop": 1e-3, "workers": None})
    workers = int(cfg["workers"] or os.cpu_count() or 1)
    cfg["workers"] = None  # worker count must not enter the digest
    t0 = time.time()
    obs = ObservableSpec(points=(float(cfg["y"]),),
                         weights=(float(cfg["exponent-a"]),),
                         exponents=(float(cfg["exponent-a"]), float(cfg["exponent-b"])))
    mc = McConfig(kappa=float(cfg["kappa"]), horizon=float(cfg["horizon"]),
                  n_steps=int(cfg["steps"]), n_samples=int(cfg["samples"]),
                  master_seed=int(cfg["seed"]), observable=obs,
                  eps_stop=float(cfg["eps-stop"]))
    report = run_martingale_test(mc, workers=workers)
    run_dir, digest = _run_dir(args, "martingale-test", cfg)
    (run_dir / "report.csv").write_bytes(report.csv_bytes())
    _write_json(run_dir / "report.json", report.to_json())
    _write_manifest(run_dir, "martingale-test", cfg, digest,
                    ["report.csv", "report.json"], t0, workers)
    for row in report.rows:
        print(f"t={row.t:.6g} mean={row.mean:.8g} z={row.z:+.3f} "
              f"alive={row.n_alive} stopped={row.n_stopped}")
    print(f"verdict: {'pass' if report.verdict else 'FAIL'}")
    return 0 if report.verdict else 1


def _cmd_inverse_check(args) -> int:
    cfg = _merged(args, {"kappa": 4.0, "horizon": 1.0, "steps": 500,
                         "samples": 100, "seed": 0, "workers": None})
    workers = int(cfg["workers"] or os.cpu_count() or 1)
    cfg["workers"] = None
    t0 = time.time()
    report = run_inverse_consistency(float(cfg["kappa"]), float(cfg["horizon"]),
                                     int(cfg["steps"]), int(cfg["samples"]),
                                     master_seed=int(cfg["seed"]),
                                     workers=workers)
    run_dir, digest = _run_dir(args, "inverse-check", cfg)
    (run_dir / "samples.csv").write_bytes(report.csv_bytes())
    _write_json(run_dir / "report.json", report.to_json())
    _write_manifest(run_dir, "inverse-check", cfg, digest,
                    ["samples.csv", "report.json"], t0, workers)
    print(f"max_error={report.max_error:.6g} mean_error={report.mean_error:.6g} "
          f"bound={report.bound:.6g} -> {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_composed(args) -> int:
    cfg = _merged(args, {"kappa": 4.0, "horizon": 0.25, "steps": 250,
                         "samples": 200, "seed": 0, "shared-driving": False,
                         "workers": None})
    workers = int(cfg["workers"] or os.cpu_count() or 1)
    cfg["workers"] = None
    t0 = time.time()
    report = run_composed_stats(float(cfg["kappa"]), float(cfg["horizon"]),
                                int(cfg["steps"]), int(cfg["samples"]),
                                shared_driving=bool(cfg["shared-driving"]),
                                master_seed=int(cfg["seed"]), workers=workers)
    run_dir, digest = _run_dir(args, "composed", cfg)
    _write_json(run_dir / "report.json", report.to_json())
    _write_manifest(run_dir, "composed", cfg, digest, ["report.json"], t0, workers)
    print(f"survival={report.survival_fraction:.4f} "
          f"violations={report.containment_violations}")
    return 0 if report.containment_violations == 0 else 1


# --- argument parsing -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revsle",
        description="Forward/backward Loewner flows, CFT parameter tables, "
                    "exact null-vector checks, and Monte Carlo martingale tests.")
    p.add_argument("--version", action="version", version=f"revsle {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default=None,
                        help=f"output root (default ${_ENV_OUT} or ./runs)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None,
                        help="worker threads; only martingale-test, inverse-check "
                             "and composed use them")

    for name in ("simulate-forward", "simulate-backward", "trace"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--horizon", type=float, default=None)

    sp = sub.add_parser("radial")
    common(sp)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--z0", type=lambda s: [float(v) for v in s.split(",")],
                    default=None, help="initial point RE,IM")

    sp = sub.add_parser("cft-table")
    common(sp)
    sp.add_argument("--kappa", type=str, default=None,
                    help="comma-separated list; fractions like 8/3 stay exact")

    sp = sub.add_parser("virasoro-check")
    common(sp)
    sp.add_argument("--kappa", type=str, default=None,
                    help="comma-separated rationals")

    sp = sub.add_parser("exponents")
    common(sp)
    sp.add_argument("--kappa", type=str, default=None)
    sp.add_argument("--h", type=float, default=None)

    sp = sub.add_parser("martingale-test")
    common(sp)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--exponent-a", type=float, default=None)
    sp.add_argument("--exponent-b", type=float, default=None)
    sp.add_argument("--eps-stop", type=float, default=None)

    sp = sub.add_parser("inverse-check")
    common(sp)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)

    sp = sub.add_parser("composed")
    common(sp)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--shared-driving", action="store_true", default=None)

    return p


_DISPATCH = {
    "simulate-forward": lambda a: _cmd_simulate(a, "forward"),
    "simulate-backward": lambda a: _cmd_simulate(a, "backward"),
    "trace": _cmd_trace,
    "radial": _cmd_radial,
    "cft-table": _cmd_cft_table,
    "virasoro-check": _cmd_virasoro_check,
    "exponents": _cmd_exponents,
    "martingale-test": _cmd_martingale,
    "inverse-check": _cmd_inverse_check,
    "composed": _cmd_composed,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.subcommand](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
