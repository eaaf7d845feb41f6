"""Command-line entry point: every experiment is a subcommand.

This is the one module that knows file formats.  The library returns plain
data (dataclasses, floats, arrays); every CSV goes through ``_csv`` and
every JSON file through ``_json_bytes``.

Configs come from flags or a JSON file (--config; explicit flags win); a
file value is parsed by its key's flag type, and a kappa list is written
back in one spelling, so both digest alike.  Each run writes its data files
plus a manifest into one directory named by the subcommand and a digest of
the canonical config, so identical configs land in the same place with
byte-identical data; timestamps and the environment (the numpy and Python
versions, which the driving stream depends on, and the core count) live only
in the manifest.  The directory is made only after the inputs are validated
and the results computed, so a usage error leaves none.  Exit codes: 0 pass,
1 verdict failure (a non-finite value for ``driving``, a non-finite point
for ``trace`` and ``radial``, a non-finite driving value for
``martingale-test``), 2 usage error.

``driving`` writes the sampled driving path alone; ``trace`` and ``radial``
run a flow on the same path.

Each subcommand is declared once, in ``_COMMANDS``: its config keys, each
with a flag type and a default, and a body that turns the merged config into
data files.  The parser, the config merge and the run writer all read that
table.  The parser is built once per process and reused by every ``main``
call; parsing does not change it, so in-process calls stay independent.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .cft import coupling_check, kac_dimension, params_from_kappa
from .driving import TimeGrid, sample_brownian
from .loewner import evolve_forward, evolve_wholeplane, trace
from .montecarlo import (McConfig, _pool_size, run_composed_stats,
                         run_inverse_consistency, run_martingale_test)
from .observables import (ObservableSpec, audit_one_point_exponents,
                          one_point_exponents)
from .virasoro import null_vector_12, null_vector_21, w_eigenvalue

_ENV_OUT = "REVSLE_OUT"

# Subcommands that spread their ensemble over worker processes.  Their
# digested config carries "workers": null, because the worker count never
# changes the data.
_POOLED = ("martingale-test", "inverse-check", "composed")


class _Key(NamedTuple):
    """One config key: the type its flag parses to (``bool`` makes a
    store-true switch), its default and the flag's help text."""
    type: Callable
    default: Any
    help: Optional[str] = None


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _jsonable(obj):
    """json's default= hook: a dataclass is the dict of its fields, a complex
    number the pair [re, im]."""
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n").encode()


def _csv(header: str, rows) -> bytes:
    """The header line, then one line per row with each field str(v): the
    shortest round-trip repr of a Python or numpy float, exact for a
    Fraction."""
    lines = [header] + [",".join(map(str, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"kappa {text!r} has a zero denominator") from None


def _point(value) -> list[float]:
    """A point RE,IM as a list of floats: a flag's text ``"RE,IM"``, or a
    config file's string of that form or list of numbers (not bools).  The
    body checks that there are two."""
    if isinstance(value, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                       for v in value):
        return [float(v) for v in value]
    if isinstance(value, str):
        return [float(v) for v in value.split(",")]
    raise TypeError(f"{value!r} is neither RE,IM nor a list of numbers")


def _kappa_list(cfg: dict) -> list[Fraction]:
    """The config's comma-separated kappas, written back in one spelling
    (``2, 8/3`` and a file's number 2 become ``2,8/3`` and ``2``), so that
    equal lists digest alike."""
    kappas = [_fraction(part) for part in str(cfg["kappa"]).split(",") if part.strip()]
    if not kappas:   # an empty table or record list would pass vacuously
        raise SystemExit(f"kappa needs at least one value, got {cfg['kappa']!r}")
    cfg["kappa"] = ",".join(map(str, kappas))
    return kappas


# --- subcommand bodies -----------------------------------------------------
# A body takes the merged config and the worker count and returns (data
# files: name -> bytes, exit code, stdout text or None for the run
# directory).  It may normalise values in the config before it is digested.

def _sampled_path(cfg: dict):
    grid = TimeGrid(float(cfg["horizon"]), int(cfg["steps"]))
    return grid, sample_brownian(grid, float(cfg["kappa"]), int(cfg["seed"]))


def _finite_code(values, message: str) -> int:
    """Exit code 0 when every value is finite; else 1, after ``message`` on
    stderr."""
    if np.isfinite(values).all():
        return 0
    print(message, file=sys.stderr)
    return 1


def _driving(cfg, workers):
    grid, path = _sampled_path(cfg)
    files = {"path.csv": _csv("t,xi", zip(grid.times(), path.values))}
    return files, _finite_code(path.values, "driving: non-finite value in the path"), None


def _trace(cfg, workers):
    grid, path = _sampled_path(cfg)
    gamma = trace(evolve_forward(path))
    rows = zip(grid.times(), gamma.real, gamma.imag)
    files = {"trace.csv": _csv("t,re_gamma,im_gamma", rows)}
    return files, _finite_code(gamma, "trace: non-finite tip in the curve"), None


def _radial(cfg, workers):
    z0 = cfg["z0"]
    if len(z0) != 2:
        raise SystemExit(f"radial: z0 needs two values RE,IM, got {z0!r}")
    grid, path = _sampled_path(cfg)
    evo = evolve_wholeplane(path, z0=complex(*z0))
    rows = zip(grid.times(), evo.states.real, evo.states.imag)
    files = {"radial.csv": _csv("t,re_g,im_g", rows)}
    return files, _finite_code(evo.states, "radial: non-finite state in the trajectory"), None


def _cft_table(cfg, workers):
    rows = []
    for k in _kappa_list(cfg):
        liou = params_from_kappa(k, "liouville")
        matt = params_from_kappa(k, "matter")
        rows.append((k, *coupling_check(k), kac_dimension(liou, 1, 2),
                     kac_dimension(matt, 1, 2), kac_dimension(liou, 1, 3)))
    return {"table.csv": _csv("kappa,c_L,c_M,sum,h12_L,h12_M,h13_L", rows)}, 0, None


def _virasoro_check(cfg, workers):
    records = []
    ok = True
    for k in _kappa_list(cfg):
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
        "roots": [roots.b_plus, roots.b_minus],
        "complex_roots": roots.complex_roots,
        "proposed_pair_ok": audit.proposed.satisfies,
        "derived_pairs": audit.derived,
    }
    text = json.dumps(payload, indent=2, default=_jsonable)
    return {"report.json": _json_bytes(payload)}, 0, text


def _martingale(cfg, workers):
    obs = ObservableSpec(points=(float(cfg["y"]),),
                         weights=(float(cfg["exponent-a"]),),
                         exponents=(float(cfg["exponent-a"]), float(cfg["exponent-b"])))
    mc = McConfig(kappa=float(cfg["kappa"]), horizon=float(cfg["horizon"]),
                  n_steps=int(cfg["steps"]), n_samples=int(cfg["samples"]),
                  master_seed=int(cfg["seed"]), observable=obs,
                  eps_stop=float(cfg["eps-stop"]))
    report = run_martingale_test(mc, workers=workers)
    if report.n_nonfinite:
        print(f"martingale-test: {report.n_nonfinite} samples with a non-finite "
              f"driving value", file=sys.stderr)
    lines = [f"t={row.t:.6g} mean={row.mean:.8g} z={row.z:+.3f} "
             f"alive={row.n_alive} stopped={row.n_stopped}" for row in report.checkpoints]
    lines.append(f"verdict: {'pass' if report.verdict else 'FAIL'}")
    files = {"report.csv": _csv("t,mean,stderr,z,n_alive,n_stopped",
                                map(dataclasses.astuple, report.checkpoints)),
             "report.json": _json_bytes(report)}
    return files, 0 if report.verdict else 1, "\n".join(lines)


def _inverse_check(cfg, workers):
    report = run_inverse_consistency(float(cfg["kappa"]), float(cfg["horizon"]),
                                     int(cfg["steps"]), int(cfg["samples"]),
                                     master_seed=int(cfg["seed"]),
                                     workers=workers)
    fields = _fields(report)
    errors = fields.pop("sample_errors")
    files = {"samples.csv": _csv("sample,max_error", enumerate(errors)),
             "report.json": _json_bytes(fields)}
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
    return {"report.json": _json_bytes(report)}, code, text


# --- the table --------------------------------------------------------------
# Key order is the order of the manifest's config.

def _flow_keys(kappa: float, steps: int) -> dict[str, _Key]:
    return {"kappa": _Key(float, kappa), "seed": _Key(int, 0),
            "steps": _Key(int, steps), "horizon": _Key(float, 1.0)}


_COMMANDS: dict[str, tuple[Callable, dict[str, _Key]]] = {
    "driving": (_driving, _flow_keys(4.0, 500)),
    "trace": (_trace, _flow_keys(2.0, 200)),
    "radial": (_radial, {**_flow_keys(2.0, 200),
                         "z0": _Key(_point, [0.0, 1.0], "initial point RE,IM")}),
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


@functools.cache
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
                        help=f"worker processes, >= 1, at most one per core; "
                             f"only {', '.join(_POOLED)} use them")
        for key, spec in keys.items():
            kind = {"action": "store_true"} if spec.type is bool else {"type": spec.type}
            sp.add_argument("--" + key, default=None, help=spec.help, **kind)
    return p


# --- the run ---------------------------------------------------------------

def _file_value(key: str, spec: _Key, value):
    """A config-file value parsed by its key's type, as its flag would be.
    An int, float or bool key takes only a JSON value of that kind that the
    type leaves unchanged (4 for a float key becomes 4.0; 100.7 for an int
    key, true for a numeric key and "yes" for a switch are usage errors),
    and null only where the default is null.  A point takes its flag's
    string or a list of numbers ("0,1" and [0, 1] become [0.0, 1.0]).  A
    string key takes the value as it is."""
    if spec.type is str or (value is None and spec.default is None):
        return value
    if spec.type is _point:
        try:
            return _point(value)
        except (TypeError, ValueError, OverflowError):
            raise SystemExit(f"config key {key!r} must be a string RE,IM or a list "
                             f"of numbers, got {value!r}") from None
    try:
        parsed = spec.type(value)
    except (TypeError, ValueError, OverflowError):
        same = False
    else:
        same = parsed == value or (parsed != parsed and value != value)   # NaN stays NaN
    if not same or isinstance(value, bool) != (spec.type is bool):
        raise SystemExit(f"config key {key!r} must be of type {spec.type.__name__}, "
                         f"got {value!r}")
    return parsed


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
    pooled = args.subcommand in _POOLED
    unknown = set(file_cfg) - set(keys) - ({"workers"} if pooled else set())
    if unknown:
        raise SystemExit(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {}
    for key, spec in keys.items():
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            cfg[key] = flag
        elif key in file_cfg:
            cfg[key] = _file_value(key, spec, file_cfg[key])
        else:
            cfg[key] = spec.default
    workers = args.workers
    if workers is None and "workers" in file_cfg:
        workers = _file_value("workers", _Key(int, None), file_cfg["workers"])
    if workers is not None and workers < 1:
        raise SystemExit(f"workers must be >= 1, got {workers}")
    if not pooled:
        return cfg, 1
    cfg["workers"] = None
    return cfg, workers if workers is not None else os.cpu_count() or 1


def _run(args) -> int:
    """Merge, run the body, then make the run directory and write the data
    files, the manifest last, and print."""
    body, keys = _COMMANDS[args.subcommand]
    cfg, workers = _merged(args, keys)
    created, t0 = time.time(), time.perf_counter()   # the wall clock may step
    files, code, text = body(cfg, workers)
    if args.subcommand in _POOLED:   # record the processes that ran
        workers = _pool_size(int(cfg["samples"]), workers)
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
        "duration_seconds": time.perf_counter() - t0,
        "created_unix": created,
        "env": {"numpy": np.__version__, "python": platform.python_version(),
                "cpu_count": os.cpu_count()},
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
