"""The two benchmark workloads: their CLI calls, sizes and output checks.

Each workload is a closed loop in one process: a pass issues its revsle
calls one after another, at ``--workers 2`` or ``--workers 1``.  ``ensembles``
is made of two parts, ``Martingale`` and ``Reversal``, run in one pass.  Inputs
(driving seeds) come from the benchmark seed only.  ``smoke`` sizes run the
same code path in well under a second for the benchmark's own tests.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

ACCEPTANCE_KAPPAS = ("2", "8/3", "3", "4", "6", "8")
TRACE_TOL = 1e-8         # trace tips vs the vectorised reference zipper
FIXED_POINT_TOL = 1e-9   # zero-driving radial flow stays at g = i
RATIO_MIN = 1.7          # inverse mean error, n -> 4n
RADIAL_POINTS = tuple(complex(re, im) for re in (-1.5, -0.5, 0.5, 1.5)
                      for im in (0.25, 0.5, 1.0, 2.0, 3.0))


def derived_seed(workload: str, seed: int) -> int:
    """48-bit input seed; distinct benchmark seeds give disjoint sample streams."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "little")


class Checks:
    """Counts attempted and failed output checks (``fail_frac``)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok, what: str) -> bool:
        ok = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


# --- output readers ---------------------------------------------------------

def run_dir(call_out: Path) -> Path:
    """The single ``<subcommand>-<digest>`` directory under a call's --out."""
    dirs = [d for d in call_out.iterdir() if d.is_dir()]
    if len(dirs) != 1:
        raise FileNotFoundError(f"expected one run directory in {call_out}, found {len(dirs)}")
    return dirs[0]


def data_files(rdir: Path) -> list[Path]:
    manifest = json.loads((rdir / "manifest.json").read_text())
    return [rdir / name for name in manifest["outputs"]]


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


NUMPY_REPR = "np.float64("


def csv_number(field: str) -> float:
    """One CSV field as a float.  ``revsle trace`` writes numpy scalars with
    repr(), which numpy >= 2 renders as ``np.float64(x)``: x is read, and the
    trace check counts such fields in ``cli.numpy_repr_fields``."""
    if field.startswith(NUMPY_REPR) and field.endswith(")"):
        field = field[len(NUMPY_REPR):-1]
    try:
        return float(field)
    except ValueError:
        return float(Fraction(field))   # exact rationals such as 8/3


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _csv_numbers(path: Path):
    return (csv_number(field) for row in _csv_rows(path) for field in row)


def nonfinite(rdir: Path) -> int:
    """Non-finite numbers in a run's data files, scanned value by value."""
    count = 0
    for path in data_files(rdir):
        values = (_numbers(json.loads(path.read_text())) if path.suffix == ".json"
                  else _csv_numbers(path))
        count += sum(1 for v in values if not math.isfinite(v))
    return count


def same_bytes(a: Path, b: Path) -> bool:
    files_a, files_b = data_files(a), data_files(b)
    return ([p.name for p in files_a] == [p.name for p in files_b]
            and all(x.read_bytes() == y.read_bytes() for x, y in zip(files_a, files_b)))


def _read_json(rdir: Path, name: str) -> dict:
    return json.loads((rdir / name).read_text())


# --- reference kernels ------------------------------------------------------
# A fixed piece of work, independent of revsle, timed next to every pass.  A
# shared host's speed can drift by tens of percent over minutes; a pass time
# divided by the kernel time of the same run cancels that drift.  Each workload uses the
# kernel of its own kind of work: a pure-Python kernel does not follow the
# numpy workload's drift, nor the other way round.

def scalar_kernel() -> float:
    """Seconds for 600k scalar complex steps in pure Python, like the zipper."""
    t0 = perf_counter()
    z = 0j
    for _ in range(600_000):
        z = cmath.sqrt(z * z + (0.25j - 0.1)) + 1e-3
    return perf_counter() - t0


def vector_kernel() -> float:
    """Seconds for 30 rounds of normals and elementwise numpy work on a
    4096 x 64 array, like driving generation and a batched flow step."""
    rng = np.random.default_rng(1)
    t0 = perf_counter()
    for _ in range(30):
        a = rng.standard_normal((4096, 64))
        np.sqrt(a * a + 1.0).cumsum(axis=1)
    return perf_counter() - t0


# --- workloads --------------------------------------------------------------

class Api:
    """The public revsle entry points the benchmark calls itself; wrapped in
    spans (layers ``cli``, ``driving``, ``loewner``) when a tracer is given."""

    def __init__(self, tracer=None):
        from revsle import cli, driving, loewner
        wrap = tracer.wrap if tracer is not None else (lambda fn: fn)
        self.main = wrap(cli.main)
        self.sample_brownian = wrap(driving.sample_brownian)
        self.evolve_wholeplane = wrap(loewner.evolve_wholeplane)


class Workload:
    """One workload: ``calls(workers)`` are CLI argv lists run in order,
    ``library(api)`` is extra work through the public library API."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = derived_seed(self.name, seed)
        self.counters: dict[str, float] = {}

    def calls(self, workers: int) -> list[list[str]]:
        raise NotImplementedError

    def smallest_calls(self) -> list[list[str]]:
        raise NotImplementedError

    def library(self, api):
        return None

    def smallest_library(self, api) -> None:
        pass

    def run_smallest(self, api, out: Path) -> list[int]:
        """One smallest-size call of everything a pass uses; the exit codes."""
        codes = [api.main(argv + ["--out", str(out / f"c{i}")])
                 for i, argv in enumerate(self.smallest_calls())]
        self.smallest_library(api)
        return codes

    @property
    def point_steps(self) -> dict:
        """``{"montecarlo": n, "loewner": n}`` per pass."""
        raise NotImplementedError

    @staticmethod
    def ref_kernel() -> float:
        """Seconds for one call of this workload's reference kernel."""
        raise NotImplementedError

    @property
    def normals(self) -> int:
        raise NotImplementedError

    def exit_ok(self, code: int, rdir: Path) -> bool:
        return code == 0

    def check_pass(self, dirs: list[Path], lib, checks: Checks) -> None:
        """Checks one pass's outputs and updates ``self.counters``."""

    def check_once(self, checks: Checks) -> None:
        """Checks that need no pass output, run once per benchmark run."""

    def reference(self, lib) -> dict:
        """Accuracy counters against an independent reference (traced runs)."""
        return {}


def _argv(sub: str, **flags) -> list[str]:
    out = [sub]
    for key, val in flags.items():
        out += ["--" + key.replace("_", "-"), str(val)]
    return out


class Martingale(Workload):
    name = "martingale"
    why = ("the paper's headline stopped-martingale ensemble (criterion 5): 13 wide "
           "batches on the real axis, about half of it driving generation")

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.samples, self.steps = (300, 20) if smoke else (50_000, 500)

    def _call(self, samples, steps, workers):
        return _argv("martingale-test", kappa=4, y=1, exponent_a=-3, exponent_b=3,
                     horizon=0.05, steps=steps, samples=samples, seed=self.seed,
                     workers=workers)

    def calls(self, workers):
        return [self._call(self.samples, self.steps, workers)]

    def smallest_calls(self):
        return [self._call(100, 1, 2)]

    @property
    def point_steps(self):
        n = self.samples * self.steps
        return {"montecarlo": n, "loewner": 0}

    @property
    def normals(self):
        return self.samples * self.steps

    def exit_ok(self, code, rdir):
        # the |z| <= 3 verdict is a statistical test that a correct program
        # fails on about 1 % of seeds: exit 1 is fine when the report says so
        # (other subcommands' reports have no verdict)
        return code == 0 or (code == 1 and _read_json(rdir, "report.json").get("verdict") is False)

    def check_pass(self, dirs, lib, checks):
        (rdir,) = dirs
        report = _read_json(rdir, "report.json")
        bad = nonfinite(rdir)
        checks(bad == 0, f"martingale: {bad} non-finite values")
        checks(len(report["checkpoints"]) >= 1, "martingale: no checkpoints")
        last = report["checkpoints"][-1]
        checks(last["n_alive"] + last["n_stopped"] == self.samples,
               "martingale: alive + stopped != samples")
        self.counters.update({
            "montecarlo.stopped_frac": last["n_stopped"] / self.samples,
            "montecarlo.verdict_fail": 0 if report["verdict"] else 1,
            "montecarlo.nonfinite": bad,
        })


class Reversal(Workload):
    name = "reversal"
    why = ("time-reversal inverse check at n=500 and n=2000 plus composed flow: one "
           "narrow batch of complex points per call, through loewner.slit_sqrt_vec")

    INVERSE_POINTS = 3     # montecarlo._DEFAULT_TEST_POINTS
    COMPOSED_POINTS = 12   # montecarlo._DEFAULT_Z_GRID

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        if smoke:
            self.inv_samples, self.inv_steps, self.comp_samples, self.comp_steps = 50, (125, 500), 50, 25
        else:
            self.inv_samples, self.inv_steps, self.comp_samples, self.comp_steps = 1000, (500, 2000), 2000, 250

    def calls(self, workers):
        inv = [_argv("inverse-check", kappa=4, horizon=1, steps=n,
                     samples=self.inv_samples, seed=self.seed, workers=workers)
               for n in self.inv_steps]
        return inv + [_argv("composed", kappa=4, horizon=0.25, steps=self.comp_steps,
                            samples=self.comp_samples, seed=self.seed, workers=workers)]

    def smallest_calls(self):
        return [_argv("inverse-check", kappa=4, horizon=1, steps=1, samples=1,
                      seed=self.seed, workers=2),
                _argv("composed", kappa=4, horizon=0.25, steps=1, samples=1,
                      seed=self.seed, workers=2)]

    @property
    def point_steps(self):
        n = (sum(self.inv_samples * self.INVERSE_POINTS * 2 * s for s in self.inv_steps)
             + self.comp_samples * self.COMPOSED_POINTS * 2 * self.comp_steps)
        return {"montecarlo": n, "loewner": n}

    @property
    def normals(self):
        return (sum(self.inv_samples * s for s in self.inv_steps)
                + 2 * self.comp_samples * self.comp_steps)

    def check_pass(self, dirs, lib, checks):
        *inv_dirs, comp_dir = dirs
        bad = sum(nonfinite(d) for d in dirs)
        checks(bad == 0, f"reversal: {bad} non-finite values")
        means, ratios = [], []
        for d in inv_dirs:
            report = _read_json(d, "report.json")
            with open(d / "samples.csv", newline="") as fh:
                errors = [float(row["max_error"]) for row in csv.DictReader(fh)]
            checks(len(errors) == self.inv_samples, f"inverse n={report['n_steps']}: sample count")
            # an explicit all(): max() would drop a NaN that is not first
            checks(all(e <= report["bound"] for e in errors),
                   f"inverse n={report['n_steps']}: an error exceeds the bound")
            means.append(report["mean_error"])
            ratios.append(max(errors) / report["bound"])
        ratio = means[0] / means[1]
        checks(ratio >= RATIO_MIN, f"inverse: mean-error ratio {ratio:.3f} < {RATIO_MIN}")
        comp = _read_json(comp_dir, "report.json")
        checks(comp["containment_violations"] == 0,
               f"composed: {comp['containment_violations']} containment violations")
        self.counters.update({
            "montecarlo.err_over_bound": max(ratios),
            "montecarlo.survival_frac": comp["survival_fraction"],
            "montecarlo.nonfinite": bad,
        })


class Ensembles(Workload):
    """Both montecarlo parts in one pass: the wide martingale batches and the
    narrow reversal batches, each with its own inputs and checks."""

    name = "ensembles"
    why = ("criterion-5 martingale ensemble (wide real batches, half driving) plus "
           "inverse n=500/2000 and composed (narrow complex batches via slit_sqrt_vec)")

    ref_kernel = staticmethod(vector_kernel)

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.parts = (Martingale(seed, smoke), Reversal(seed, smoke))

    def calls(self, workers):
        return [argv for part in self.parts for argv in part.calls(workers)]

    def smallest_calls(self):
        return [argv for part in self.parts for argv in part.smallest_calls()]

    @property
    def point_steps(self):
        return {key: sum(part.point_steps[key] for part in self.parts)
                for key in ("montecarlo", "loewner")}

    @property
    def normals(self):
        return sum(part.normals for part in self.parts)

    def exit_ok(self, code, rdir):
        return self.parts[0].exit_ok(code, rdir)

    def check_pass(self, dirs, lib, checks):
        start = 0
        for part in self.parts:
            end = start + len(part.calls(1))
            part.check_pass(dirs[start:end], lib, checks)
            start = end
        self.counters = {**self.parts[0].counters, **self.parts[1].counters,
                         "montecarlo.nonfinite": sum(part.counters["montecarlo.nonfinite"]
                                                     for part in self.parts)}


class Curves(Workload):
    name = "curves"
    why = ("single-path scalar loewner work: trace zipper n=1000, radial sweep "
           "100 drivers x 20 points, and the cft/virasoro/exponents algebra")

    ref_kernel = staticmethod(scalar_kernel)

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        self.trace_steps = 50 if smoke else 1000
        self.drivers, self.radial_steps = (5, 20) if smoke else (100, 100)
        self.ref_drivers = 2 if smoke else 3
        self.radial_seeds = [self.seed + i for i in range(self.drivers)]
        self._ref_tips = None

    def calls(self, workers):
        kappas = ",".join(ACCEPTANCE_KAPPAS)
        return ([_argv("trace", kappa=2, steps=self.trace_steps, horizon=1,
                       seed=self.seed, workers=workers),
                 _argv("cft-table", kappa=kappas, workers=workers),
                 _argv("virasoro-check", kappa=kappas, workers=workers)]
                + [_argv("exponents", kappa=k, workers=workers) for k in ACCEPTANCE_KAPPAS])

    def smallest_calls(self):
        return [_argv("trace", kappa=2, steps=1, horizon=1, seed=self.seed, workers=2),
                _argv("cft-table", kappa="2", workers=2),
                _argv("virasoro-check", kappa="2", workers=2),
                _argv("exponents", kappa="2", workers=2)]

    def _radial(self, api, seeds, steps, points):
        from revsle.driving import TimeGrid
        grid = TimeGrid(1.0, steps)
        out = []
        for s in seeds:
            path = api.sample_brownian(grid, 2.0, s)
            out.append([api.evolve_wholeplane(path, z0=z) for z in points])
        return out

    def library(self, api):
        return self._radial(api, self.radial_seeds, self.radial_steps, RADIAL_POINTS)

    def smallest_library(self, api):
        self._radial(api, self.radial_seeds[:1], 1, RADIAL_POINTS[:1])

    @property
    def point_steps(self):
        n = self.trace_steps
        lo = n * (n + 1) // 2 + self.drivers * len(RADIAL_POINTS) * self.radial_steps
        return {"montecarlo": 0, "loewner": lo}

    @property
    def normals(self):
        return self.trace_steps + self.drivers * self.radial_steps

    def _reference_tips(self):
        from revsle.driving import TimeGrid, sample_brownian
        path = sample_brownian(TimeGrid(1.0, self.trace_steps), 2.0, self.seed)
        return reference_trace(path.values, path.grid.dt)

    def check_pass(self, dirs, lib, checks):
        trace_dir, table_dir, vir_dir, *exp_dirs = dirs
        bad = sum(nonfinite(d) for d in dirs[1:])
        checks(bad == 0, f"curves: {bad} non-finite values in algebra reports")
        trace_rows = _csv_rows(trace_dir / "trace.csv")
        tips = np.array([complex(csv_number(re), csv_number(im)) for _, re, im in trace_rows])
        finite = np.isfinite(tips.real) & np.isfinite(tips.imag)
        checks(tips.size == self.trace_steps + 1, "trace: tip count")
        checks(finite.all() and np.all(tips.imag >= 0.0), "trace: tip non-finite or below the axis")
        if self._ref_tips is None:
            self._ref_tips = self._reference_tips()
        ref = self._ref_tips
        dev = float(np.max(np.abs(tips - ref))) if tips.size == ref.size else math.inf
        checks(dev <= TRACE_TOL, f"trace: {dev:.3e} from the reference zipper")
        with open(table_dir / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks(len(rows) == len(ACCEPTANCE_KAPPAS) and all(r["sum"] == "26" for r in rows),
               "cft-table: c_L + c_M != 26")
        checks(_read_json(vir_dir, "report.json")["all_pass"], "virasoro-check: not all_pass")
        for d in exp_dirs:
            rep = _read_json(d, "report.json")
            checks(all(p["satisfies"] for p in rep["derived_pairs"]),
                   f"exponents kappa={rep['kappa']}: a derived pair fails the drift condition")
        incomplete = sum(not e.completed for evos in lib for e in evos)
        below = sum(not np.all(e.states.imag >= 0.0) for evos in lib for e in evos)
        checks(incomplete == 0, f"radial: {incomplete} trajectories did not complete")
        checks(below == 0, f"radial: {below} trajectories left the upper half-plane")
        self.counters.update({
            "cli.numpy_repr_fields": sum(f.startswith(NUMPY_REPR)
                                         for row in trace_rows for f in row),
            "loewner.nonfinite_tips": int((~finite).sum()),
            "loewner.radial_incomplete": incomplete,
        })

    def check_once(self, checks):
        from revsle.driving import TimeGrid, explicit_path
        from revsle.loewner import evolve_wholeplane
        zero = explicit_path(TimeGrid(1.0, 100), 2.0, np.zeros(101))
        fixed = evolve_wholeplane(zero, z0=1j)
        dev = float(np.max(np.abs(fixed.states - 1j)))
        checks(fixed.completed and dev <= FIXED_POINT_TOL,
               f"radial: zero-driving fixed point off by {dev:.3e}")

    def reference(self, lib):
        worst = 0.0
        for evos in lib[:self.ref_drivers]:
            path = evos[0].path
            ref = reference_radial(path.values, path.grid.dt, np.array(RADIAL_POINTS))
            states = np.array([e.states for e in evos]).T
            worst = max(worst, float(np.max(np.abs(states - ref))))
        return {"loewner.radial_ref_err": worst}


WORKLOADS = {cls.name: cls for cls in (Ensembles, Curves)}


# --- independent references ---------------------------------------------------

def reference_trace(xi: np.ndarray, dt: float) -> np.ndarray:
    """Tips gamma_k = g_k^{-1}(xi_k), vectorised across k with numpy's
    principal complex sqrt (the library uses scalar real/imag formulas).

    Step j, applied to every tip k > j in descending j, is
    w -> xi_j + s with s^2 = (w - xi_j)^2 - 4 dt, Im s >= 0, and on the real
    axis the sign of Re s following Re(w - xi_j)."""
    w = xi.astype(np.complex128)
    for j in range(len(xi) - 2, -1, -1):
        v = w[j + 1:] - xi[j]
        s = np.sqrt(v * v - 4.0 * dt)
        s = np.where(s.imag < 0.0, -s, s)
        s = np.where((s.imag == 0.0) & (v.real < 0.0), -s, s)
        w[j + 1:] = xi[j] + s
    return w


def reference_radial(xi: np.ndarray, dt: float, z0: np.ndarray) -> np.ndarray:
    """States (n+1, points) of dg = -(1+g^2)/2 (1+eta g)/(g-eta) dt with
    eta = tan(xi_k) on step k, by a DOP853 solve per step at rtol 1e-12."""
    from scipy.integrate import solve_ivp
    m = z0.size
    g = z0.astype(np.complex128)
    out = [g]
    for x in xi[:-1]:
        eta = math.tan(float(x))

        def rhs(_t, y, eta=eta):
            z = y[:m] + 1j * y[m:]
            d = -0.5 * (1.0 + z * z) * (1.0 + eta * z) / (z - eta)
            return np.concatenate([d.real, d.imag])

        sol = solve_ivp(rhs, (0.0, dt), np.concatenate([g.real, g.imag]),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        g = sol.y[:m, -1] + 1j * sol.y[m:, -1]
        out.append(g)
    return np.array(out)
