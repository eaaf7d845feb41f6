"""Ensemble engine for martingale and consistency checks of the flows.

Samples are keyed by (master_seed + index) through the counter-based driving
generator, split into fixed-size batches, and reduced with math.fsum in
batch order.  The batch layout never depends on the worker count, so a run
is bitwise reproducible for any parallelism (workers only change which
thread evaluates a batch, not what it computes).

Driving blocks are step-major, shape (n_steps+1, batch), so each step of a
flow loop reads one contiguous row.

The martingale test evolves a boundary point under the backward flow in
log space and applies optional stopping: a sample freezes at the last step
where X = g(y) - xi both exceeds eps_stop and can take another real step
(X^2 > 4 dt; the discrete scheme would otherwise leave the real axis).
Frozen samples keep contributing their stopped value, so the ensemble mean
of a drift-free observable stays at its t=0 value.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .driving import TimeGrid, raw_normals
from .loewner import slit_sqrt_vec, swallowed
from .observables import ObservableSpec

__all__ = [
    "BATCH_SIZE",
    "McConfig",
    "CheckpointRow",
    "McReport",
    "run_martingale_test",
    "InverseConsistencyReport",
    "run_inverse_consistency",
    "ComposedReport",
    "run_composed_stats",
]

BATCH_SIZE = 4096   # fixed: part of the reproducibility contract
Z_THRESHOLD = 3.0   # per-checkpoint |z| limit for the verdict


@dataclass(frozen=True)
class McConfig:
    """Martingale-test configuration.  ``checkpoints`` must lie on the grid;
    unset, five evenly spaced times up to the horizon are used."""

    kappa: float
    horizon: float
    n_steps: int
    n_samples: int
    master_seed: int
    observable: ObservableSpec
    checkpoints: Optional[tuple[float, ...]] = None
    eps_stop: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if self.n_samples < 100:
            raise ValueError("need n_samples >= 100")
        TimeGrid(self.horizon, self.n_steps)   # checks horizon and n_steps
        self.checkpoint_indices()   # checkpoints must sit on the grid

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)

    def checkpoint_indices(self) -> list[int]:
        dt = self.horizon / self.n_steps
        if self.checkpoints is None:
            stride = max(1, self.n_steps // 5)
            idx = list(range(stride, self.n_steps + 1, stride))[:5]
            if idx[-1] != self.n_steps:
                idx.append(self.n_steps)
            return idx
        out = []
        for t in self.checkpoints:
            k = round(t / dt)
            if not 0 <= k <= self.n_steps or abs(k * dt - t) > 1e-9 * max(1.0, self.horizon):
                raise ValueError(f"checkpoint {t} is not a grid time")
            out.append(k)
        if sorted(set(out)) != out:
            raise ValueError("checkpoints must be strictly increasing grid times")
        return out


@dataclass(frozen=True)
class CheckpointRow:
    t: float
    mean: float
    stderr: float
    z: float
    n_alive: int
    n_stopped: int


@dataclass(frozen=True)
class McReport:
    kappa: float
    horizon: float
    n_steps: int
    n_samples: int
    master_seed: int
    eps_stop: float
    f0: float
    rows: tuple[CheckpointRow, ...]
    verdict: bool

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "eps_stop": self.eps_stop,
            "f0": self.f0,
            "checkpoints": [
                {"t": r.t, "mean": r.mean, "stderr": r.stderr, "z": r.z,
                 "n_alive": r.n_alive, "n_stopped": r.n_stopped}
                for r in self.rows
            ],
            "verdict": self.verdict,
        }

    def csv_bytes(self) -> bytes:
        return _csv_bytes(["t", "mean", "stderr", "z", "n_alive", "n_stopped"],
                          ([repr(r.t), repr(r.mean), repr(r.stderr), repr(r.z),
                            r.n_alive, r.n_stopped] for r in self.rows))


def _csv_bytes(header: list[str], rows: Iterable[list]) -> bytes:
    """A report's CSV file: the header, then one line per row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def _batches(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BATCH_SIZE, n)) for lo in range(0, n, BATCH_SIZE)]


def _run_batched(task: Callable, n_samples: int, workers: int) -> list:
    spans = _batches(n_samples)
    if workers <= 1:
        return [task(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(lambda s: task(*s), spans))


def _xi_block(master_seed: int, lo: int, hi: int, kappa: float,
              dt: float, n_steps: int) -> np.ndarray:
    """Driving values for samples lo..hi-1, shape (n_steps+1, hi-lo).
    Column i reproduces sample_brownian(grid, kappa, master_seed + lo + i)."""
    b = hi - lo
    rows = np.empty((b, n_steps + 1))
    rows[:, 0] = 0.0
    z = rows[:, 1:]
    for i in range(b):
        z[i] = raw_normals(master_seed + lo + i, n_steps)
    z *= np.sqrt(kappa * dt)
    # per-sample cumsum in place, as in sample_brownian, then one
    # contiguous transpose
    np.cumsum(z, axis=1, out=z)
    return np.ascontiguousarray(rows.T)


def _ensemble_dt(kappa: float, horizon: float, n_steps: int, n_samples: int) -> float:
    """Step of the ensemble's grid, after checking the run's parameters."""
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    return TimeGrid(horizon, n_steps).dt   # validates horizon and n_steps


def run_martingale_test(config: McConfig, workers: int = 1) -> McReport:
    """Backward-flow ensemble test that E[M_t] stays at M_0.

    Per checkpoint: mean, standard error, and z = (mean - F_0)/stderr over
    all samples (stopped samples contribute their frozen value).  Verdict is
    True when every |z| <= 3.
    """
    obs = config.observable
    check_idx = config.checkpoint_indices()
    dt = config.horizon / config.n_steps
    four_dt = 4.0 * dt
    one_point = obs.form == "one_point_power"
    if one_point:
        y = obs.points[0]
        a, b = obs.exponents
        if y <= config.eps_stop:
            raise ValueError("one-point test expects the point right of the seed, "
                             "outside the stopping band")
        f0 = y ** b
    else:
        y = obs.points[0]
        f0 = float(obs.func(np.array([1.0]), np.array([y]), np.array([0.0]))[0])

    def batch(lo: int, hi: int):
        xi = _xi_block(config.master_seed, lo, hi, config.kappa, dt, config.n_steps)
        m = hi - lo
        w = np.full(m, float(y))
        log_gp = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        frozen = np.full(m, float(f0))
        stats = []
        pending = list(check_idx)
        for k in range(config.n_steps + 1):
            x = w - xi[k]
            # below eps_stop the sample froze at its previous value; above it
            # the state is evaluable even when no further real step exists
            above = alive & (x > config.eps_stop)
            xs = np.where(above, x, 1.0)
            log_x = np.log(xs)
            if one_point:
                vals = np.exp(a * log_gp + b * log_x)
            else:
                vals = obs.func(np.exp(log_gp), w, xi[k])
            frozen = np.where(above, vals, frozen)
            x2 = x * x
            alive = above & (x2 > four_dt)
            if pending and k == pending[0]:
                pending.pop(0)
                stats.append((math.fsum(frozen), math.fsum(frozen * frozen),
                              int(alive.sum())))
            if k < config.n_steps:
                root = np.sqrt(np.where(alive, x2 - four_dt, 1.0))
                w = np.where(alive, xi[k] + root, w)
                log_gp = np.where(alive, log_gp + log_x - np.log(root), log_gp)
        return stats

    parts = _run_batched(batch, config.n_samples, workers)
    n = config.n_samples
    rows = []
    all_ok = True
    for i, k in enumerate(check_idx):
        total = math.fsum(p[i][0] for p in parts)
        total_sq = math.fsum(p[i][1] for p in parts)
        n_alive = sum(p[i][2] for p in parts)
        mean = total / n
        var = max((total_sq - n * mean * mean) / (n - 1), 0.0)
        stderr = math.sqrt(var / n)
        if mean == f0:
            z = 0.0
        elif stderr == 0.0:
            z = math.inf if mean > f0 else -math.inf
        else:
            z = (mean - f0) / stderr
        all_ok = all_ok and abs(z) <= Z_THRESHOLD
        rows.append(CheckpointRow(k * dt, mean, stderr, z, n_alive, n - n_alive))
    return McReport(config.kappa, config.horizon, config.n_steps, n,
                    config.master_seed, config.eps_stop, float(f0),
                    tuple(rows), all_ok)


@dataclass(frozen=True)
class InverseConsistencyReport:
    kappa: float
    horizon: float
    n_steps: int
    n_samples: int
    master_seed: int
    test_points: tuple[complex, ...]
    max_error: float
    mean_error: float     # mean over samples of the per-sample max
    bound: float          # 10 * sqrt(T / n_steps)
    passed: bool
    sample_errors: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "test_points": [[z.real, z.imag] for z in self.test_points],
            "max_error": self.max_error,
            "mean_error": self.mean_error,
            "bound": self.bound,
            "passed": self.passed,
        }

    def csv_bytes(self) -> bytes:
        return _csv_bytes(["sample", "max_error"],
                          ([i, repr(e)] for i, e in enumerate(self.sample_errors)))


_DEFAULT_TEST_POINTS = (1j, 1.0 + 1.0j, -1.0 + 2.0j)


def run_inverse_consistency(kappa: float, horizon: float, n_steps: int,
                            n_samples: int, test_points: Sequence[complex] = _DEFAULT_TEST_POINTS,
                            master_seed: int = 0, workers: int = 1,
                            bound_constant: float = 10.0) -> InverseConsistencyReport:
    """Checks that the backward flow driven by the reversed path inverts the
    forward map: for each sample, max_z |g_T(backward(z)) - z| over the test
    points.  Passes when the ensemble max stays below C sqrt(T/n)."""
    pts = np.array([complex(z) for z in test_points])
    if np.any(pts.imag < 1.0):
        raise ValueError("test points must have Im z >= 1")
    dt = _ensemble_dt(kappa, horizon, n_steps, n_samples)
    four_dt = 4.0 * dt

    def batch(lo: int, hi: int):
        xi = _xi_block(master_seed, lo, hi, kappa, dt, n_steps)
        w = np.broadcast_to(pts, (hi - lo, pts.size)).astype(np.complex128).copy()
        for k in range(n_steps, 0, -1):    # backward chain, reversed driving
            x = xi[k][:, None]
            v = w - x
            w = x + slit_sqrt_vec(v * v - four_dt, v.real)
        for k in range(n_steps):           # forward chain, original driving
            x = xi[k][:, None]
            v = w - x
            w = x + slit_sqrt_vec(v * v + four_dt, v.real)
        return np.max(np.abs(w - pts), axis=1)

    parts = _run_batched(batch, n_samples, workers)
    sample_errors = tuple(float(e) for p in parts for e in p)
    max_error = float(np.max(sample_errors))   # NaN-propagating, unlike max()
    mean_error = math.fsum(sample_errors) / n_samples
    bound = bound_constant * math.sqrt(horizon / n_steps)
    return InverseConsistencyReport(kappa, horizon, n_steps, n_samples,
                                    master_seed, tuple(complex(z) for z in pts),
                                    max_error, mean_error, bound,
                                    max_error <= bound, sample_errors)


@dataclass(frozen=True)
class ComposedReport:
    """Exploratory statistics of the composed backward-after-forward flow."""

    kappa: float
    horizon: float
    n_steps: int
    n_samples: int
    master_seed: int
    shared_driving: bool
    n_points: int
    survival_fraction: float
    containment_violations: int
    mean_image: complex
    im_spread: float

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "shared_driving": self.shared_driving,
            "n_points": self.n_points,
            "survival_fraction": self.survival_fraction,
            "containment_violations": self.containment_violations,
            "mean_image": [self.mean_image.real, self.mean_image.imag],
            "im_spread": self.im_spread,
        }


_DEFAULT_Z_GRID = tuple(x + 1j * v for v in (0.5, 1.0, 2.0) for x in (-1.5, -0.5, 0.5, 1.5))


def run_composed_stats(kappa: float, horizon: float, n_steps: int, n_samples: int,
                       z_grid: Sequence[complex] = _DEFAULT_Z_GRID,
                       shared_driving: bool = False, master_seed: int = 0,
                       workers: int = 1) -> ComposedReport:
    """Simulate backward(path1) o forward(path2) on a point grid; the two
    drivings are independent unless shared_driving reuses one path.  Reports
    survival through the forward leg and half-plane containment (violations
    should be zero)."""
    pts = np.array([complex(z) for z in z_grid])
    if np.any(pts.imag <= 0.0):
        raise ValueError("grid points must be in the open upper half-plane")
    dt = _ensemble_dt(kappa, horizon, n_steps, n_samples)
    four_dt = 4.0 * dt

    def batch(lo: int, hi: int):
        m = hi - lo
        if shared_driving:
            xi_f = _xi_block(master_seed, lo, hi, kappa, dt, n_steps)
            xi_b = xi_f
        else:
            # sample i draws seeds 2*master_seed + 2i (forward) and + 2i+1 (backward)
            xi_all = _xi_block(2 * master_seed, 2 * lo, 2 * hi, kappa, dt, n_steps)
            xi_f = xi_all[:, 0::2]
            xi_b = xi_all[:, 1::2]
        w = np.broadcast_to(pts, (m, pts.size)).astype(np.complex128).copy()
        alive = np.ones(w.shape, dtype=bool)
        for k in range(n_steps):           # forward leg (may swallow)
            x = xi_f[k][:, None]
            v = w - x
            alive &= ~swallowed(v, four_dt)
            step = x + slit_sqrt_vec(v * v + four_dt, v.real)
            w = np.where(alive, step, w)
        for k in range(n_steps):           # backward leg
            x = xi_b[k][:, None]
            v = w - x
            step = x + slit_sqrt_vec(v * v - four_dt, v.real)
            w = np.where(alive, step, w)
        im = w.imag[alive]
        re = w.real[alive]
        # a non-finite image is a violation: it is not known to lie in H
        bad = ~np.isfinite(w[alive]) | (im < -1e-12)
        return (int(alive.sum()), int(np.count_nonzero(bad)),
                math.fsum(re), math.fsum(im), math.fsum(im * im))

    parts = _run_batched(batch, n_samples, workers)
    n_alive = sum(p[0] for p in parts)
    violations = sum(p[1] for p in parts)
    total = n_samples * pts.size
    if n_alive:
        mean_re = math.fsum(p[2] for p in parts) / n_alive
        mean_im = math.fsum(p[3] for p in parts) / n_alive
        sq = math.fsum(p[4] for p in parts)
        spread = math.sqrt(max(sq / n_alive - mean_im * mean_im, 0.0))
    else:
        mean_re = mean_im = spread = float("nan")
    return ComposedReport(kappa, horizon, n_steps, n_samples, master_seed,
                          shared_driving, pts.size, n_alive / total, violations,
                          complex(mean_re, mean_im), spread)
