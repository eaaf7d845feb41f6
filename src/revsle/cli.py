"""Command-line entry point: every experiment is a subcommand.

Configs come from flags or a JSON file (--config; explicit flags win).
Each run writes its data files plus a manifest into one directory named by
the subcommand and a digest of the canonical config, so identical configs
land in the same place with byte-identical data; timestamps live only in
the manifest.  The directory is made only after the inputs are validated and
the results computed, so a usage error leaves none.  Exit codes: 0 pass,
1 verdict failure, 2 usage error.

Each subcommand is declared once, in ``_COMMANDS``: its config keys, each
with a flag type and a default, and a body that turns the merged config into
data files.  The parser, the config merge and the run writer all read that
table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

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

_ENV_OUT = "REVSLE_OUT"

# Subcommands that run on worker threads.  Their digested config carries
# "workers": null, because the worker count never changes the data.
_THREADED = ("martingale-test", "inverse-check", "composed")


class _Key(NamedTuple):
    """One config key: the type its flag parses to (``bool`` makes a
    store-true switch), its default and the flag's help text."""
    type: Callable
    default: Any
    help: Optional[str] = None


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _csv_floats(header: str, rows) -> bytes:
    """CSV of float rows; float() first, since numpy >= 2 scalars repr() as
    ``np.float64(x)``."""
    lines = [header + "\n"]
    lines += [",".join(repr(float(v)) for v in row) + "\n" for row in rows]
    return "".join(lines).encode()


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"kappa {text!r} has a zero denominator") from None


def _kappa_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part.strip()]


# --- subcommand bodies -----------------------------------------------------
# A body takes the merged config and the worker count and returns (data
# files: name -> bytes, exit code, stdout text or None for the run
# directory).  It may normalise values in the config before it is digested.

def _sampled_path(cfg: dict):
    grid = TimeGrid(float(cfg["horizon"]), int(cfg["steps"]))
    return grid, sample_brownian(grid, float(cfg["kappa"]), int(cfg["seed"]))


def _simulate(evolve, cfg, workers):
    _, path = _sampled_path(cfg)
    evo = evolve(path)
    return ({"path.csv": path_to_csv(path),
             "evolution.json": _json_bytes(evolution_to_json(evo))}, 0, None)


def _trace(cfg, workers):
    grid, path = _sampled_path(cfg)
    gamma = trace(evolve_forward(path))
    rows = zip(grid.times(), gamma.real, gamma.imag)
    return {"trace.csv": _csv_floats("t,re_gamma,im_gamma", rows)}, 0, None


def _radial(cfg, workers):
    z0 = cfg["z0"]
    if not isinstance(z0, list) or len(z0) != 2:
        raise SystemExit(f"radial: z0 needs two values RE,IM, got {z0!r}")
    grid, path = _sampled_path(cfg)
    evo = evolve_wholeplane(path, z0=complex(float(z0[0]), float(z0[1])))
    rows = zip(grid.times(), evo.states.real, evo.states.imag)
    files = {"radial.csv": _csv_floats("t,re_g,im_g", rows)}
    if not evo.completed:
        print("radial: non-finite state in the trajectory", file=sys.stderr)
    return files, 0 if evo.completed else 1, None


def _cft_table(cfg, workers):
    lines = ["kappa,c_L,c_M,sum,h12_L,h12_M,h13_L\n"]
    for k in _kappa_list(str(cfg["kappa"])):
        c_l, c_m, total = coupling_check(k)
        liou = params_from_kappa(k, "liouville")
        matt = params_from_kappa(k, "matter")
        row = (k, c_l, c_m, total, kac_dimension(liou, 1, 2),
               kac_dimension(matt, 1, 2), kac_dimension(liou, 1, 3))
        lines.append(",".join(str(v) for v in row) + "\n")
    return {"table.csv": "".join(lines).encode()}, 0, None


def _virasoro_check(cfg, workers):
    records = []
    ok = True
    for k in _kappa_list(str(cfg["kappa"])):
        w = w_eigenvalue(k)
        for sector in ("liouville", "matter"):
            _, s12 = null_vector_12(k, sector)
            _, s21 = null_vector_21(k, sector)
            rec = {"kappa": str(k), "sector": sector,
                   "singular_12": s12, "singular_21": s21}
            if sector == "liouville":
                rec.update(w_eigenvalue_num=w.eigenvalue.numerator,
                           w_eigenvalue_den=w.eigenvalue.denominator,
                           matches_formula=w.matches_formula)
                ok = ok and w.matches_formula
            ok = ok and s12 and s21
            records.append(rec)
    report = {"records": records, "all_pass": ok}
    return {"report.json": _json_bytes(report)}, 0 if ok else 1, json.dumps(records, indent=2)


def _exponents(cfg, workers):
    kappa = float(_fraction(str(cfg["kappa"])))
    audit = audit_one_point_exponents(kappa)   # rejects kappa <= 0 before 8/kappa
    # an unset h is the (1,3) weight at b^2 = kappa/4
    h = -1.0 - 8.0 / kappa if cfg["h"] is None else float(cfg["h"])
    cfg.update(kappa=kappa, h=h)
    roots = one_point_exponents(kappa, h)
    payload = {
        "kappa": kappa,
        "h": h,
        "roots": [[roots.b_plus.real, roots.b_plus.imag],
                  [roots.b_minus.real, roots.b_minus.imag]],
        "complex_roots": roots.complex_roots,
        "proposed_pair_ok": audit.proposed.satisfies,
        "derived_pairs": audit.to_json()["derived_pairs"],
    }
    return {"report.json": _json_bytes(payload)}, 0, json.dumps(payload, indent=2)


def _martingale(cfg, workers):
    obs = ObservableSpec(points=(float(cfg["y"]),),
                         weights=(float(cfg["exponent-a"]),),
                         exponents=(float(cfg["exponent-a"]), float(cfg["exponent-b"])))
    mc = McConfig(kappa=float(cfg["kappa"]), horizon=float(cfg["horizon"]),
                  n_steps=int(cfg["steps"]), n_samples=int(cfg["samples"]),
                  master_seed=int(cfg["seed"]), observable=obs,
                  eps_stop=float(cfg["eps-stop"]))
    report = run_martingale_test(mc, workers=workers)
    lines = [f"t={row.t:.6g} mean={row.mean:.8g} z={row.z:+.3f} "
             f"alive={row.n_alive} stopped={row.n_stopped}" for row in report.rows]
    lines.append(f"verdict: {'pass' if report.verdict else 'FAIL'}")
    files = {"report.csv": report.csv_bytes(), "report.json": _json_bytes(report.to_json())}
    return files, 0 if report.verdict else 1, "\n".join(lines)


def _inverse_check(cfg, workers):
    report = run_inverse_consistency(float(cfg["kappa"]), float(cfg["horizon"]),
                                     int(cfg["steps"]), int(cfg["samples"]),
                                     master_seed=int(cfg["seed"]),
                                     workers=workers)
    files = {"samples.csv": report.csv_bytes(), "report.json": _json_bytes(report.to_json())}
    text = (f"max_error={report.max_error:.6g} mean_error={report.mean_error:.6g} "
            f"bound={report.bound:.6g} -> {'pass' if report.passed else 'FAIL'}")
    return files, 0 if report.passed else 1, text


def _composed(cfg, workers):
    report = run_composed_stats(float(cfg["kappa"]), float(cfg["horizon"]),
                                int(cfg["steps"]), int(cfg["samples"]),
                                shared_driving=bool(cfg["shared-driving"]),
                                master_seed=int(cfg["seed"]), workers=workers)
    text = (f"survival={report.survival_fraction:.4f} "
            f"violations={report.containment_violations}")
    code = 0 if report.containment_violations == 0 else 1
    return {"report.json": _json_bytes(report.to_json())}, code, text


# --- the table --------------------------------------------------------------
# Key order is the order of the manifest's config.

def _flow_keys(kappa: float, steps: int) -> dict[str, _Key]:
    return {"kappa": _Key(float, kappa), "seed": _Key(int, 0),
            "steps": _Key(int, steps), "horizon": _Key(float, 1.0)}


_COMMANDS: dict[str, tuple[Callable, dict[str, _Key]]] = {
    "simulate-forward": (partial(_simulate, evolve_forward), _flow_keys(4.0, 500)),
    "simulate-backward": (partial(_simulate, evolve_backward), _flow_keys(4.0, 500)),
    "trace": (_trace, _flow_keys(2.0, 200)),
    "radial": (_radial, {**_flow_keys(2.0, 200),
                         "z0": _Key(lambda s: [float(v) for v in s.split(",")], [0.0, 1.0],
                                    "initial point RE,IM")}),
    "cft-table": (_cft_table, {
        "kappa": _Key(str, "2,8/3,3,4,6,8",
                      "comma-separated list; fractions like 8/3 stay exact")}),
    "virasoro-check": (_virasoro_check, {
        "kappa": _Key(str, "2", "comma-separated rationals")}),
    "exponents": (_exponents, {"kappa": _Key(str, 4.0), "h": _Key(float, None)}),
    "martingale-test": (_martingale, {
        "kappa": _Key(float, 4.0), "horizon": _Key(float, 0.05),
        "steps": _Key(int, 500), "samples": _Key(int, 50000), "seed": _Key(int, 0),
        "y": _Key(float, 1.0), "exponent-a": _Key(float, -3.0),
        "exponent-b": _Key(float, 3.0), "eps-stop": _Key(float, 1e-3)}),
    "inverse-check": (_inverse_check, {
        "kappa": _Key(float, 4.0), "horizon": _Key(float, 1.0),
        "steps": _Key(int, 500), "samples": _Key(int, 100), "seed": _Key(int, 0)}),
    "composed": (_composed, {
        "kappa": _Key(float, 4.0), "horizon": _Key(float, 0.25),
        "steps": _Key(int, 250), "samples": _Key(int, 200), "seed": _Key(int, 0),
        "shared-driving": _Key(bool, False)}),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revsle",
        description="Forward/backward Loewner flows, CFT parameter tables, "
                    "exact null-vector checks, and Monte Carlo martingale tests.")
    p.add_argument("--version", action="version", version=f"revsle {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, keys) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default=None,
                        help=f"output root (default ${_ENV_OUT} or ./runs)")
        sp.add_argument("--workers", type=int, default=None,
                        help=f"worker threads, >= 1; only {', '.join(_THREADED)} use them")
        for key, spec in keys.items():
            kind = {"action": "store_true"} if spec.type is bool else {"type": spec.type}
            sp.add_argument("--" + key, default=None, help=spec.help, **kind)
    return p


# --- the run ---------------------------------------------------------------

def _merged(args, keys: dict[str, _Key]) -> tuple[dict, int]:
    """Resolve config values (explicit flag > config file > default) and the
    worker count (flag > config file > all cores; 1 for serial subcommands)."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise SystemExit(f"config {args.config} must hold a JSON object, "
                             f"got {type(file_cfg).__name__}")
    threaded = args.subcommand in _THREADED
    unknown = set(file_cfg) - set(keys) - ({"workers"} if threaded else set())
    if unknown:
        raise SystemExit(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {}
    for key, spec in keys.items():
        flag = getattr(args, key.replace("-", "_"))
        cfg[key] = flag if flag is not None else file_cfg.get(key, spec.default)
    workers = args.workers if args.workers is not None else file_cfg.get("workers")
    if workers is not None and int(workers) < 1:
        raise SystemExit(f"workers must be >= 1, got {workers}")
    if not threaded:
        return cfg, 1
    cfg["workers"] = None
    return cfg, int(workers) if workers is not None else os.cpu_count() or 1


def _run(args) -> int:
    """Merge, run the body, then make the run directory and write the data
    files, the manifest last, and print."""
    body, keys = _COMMANDS[args.subcommand]
    cfg, workers = _merged(args, keys)
    t0 = time.time()
    files, code, text = body(cfg, workers)
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).hexdigest()
    root = Path(args.out or os.environ.get(_ENV_OUT, "runs"))
    run_dir = root / f"{args.subcommand}-{digest[:12]}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (run_dir / name).write_bytes(data)
    # the worker count stays out of config and digest: it never changes the data
    manifest = {
        "subcommand": args.subcommand,
        "config": cfg,
        "config_digest": digest,
        "workers": workers,
        "version": __version__,
        "master_seed": cfg.get("seed"),
        "outputs": list(files),
        "duration_seconds": time.time() - t0,
        "created_unix": t0,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(run_dir if text is None else text)
    return code


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse prints its usage errors and exits 2 (0 on --help); the
        # run's own usage errors carry their one-line message
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return int(exc.code or 0)
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
