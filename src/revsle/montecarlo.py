"""Ensemble engine for martingale and consistency checks of the flows.

Samples are keyed by (master_seed + index) through the counter-based driving
generator and split into fixed-size batches.  A batch task returns
per-sample arrays; the calling process reduces each batch with math.fsum
and counts, in batch order.  The batch is the unit of reduction and its
layout never depends on the worker count, so a run is bitwise reproducible
for any parallelism.

Workers are processes forked for one engine call.  When there are fewer
batches than workers, each batch is cut into near-equal sub-spans whose
arrays are joined back before the reduction; a sample's values do not
depend on which span computed them.

Driving blocks are step-major, shape (n_steps+1, batch), so each step of a
flow loop reads one contiguous row.

The martingale test runs the one-point walk of ``observables`` on each
batch's driving block; that module states the stopping rule.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .driving import TimeGrid, raw_normals
from .loewner import slit_sqrt_vec, swallowed
from .observables import ObservableSpec, _check_one_point, _one_point_walk

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
    """Martingale-test configuration: one point with an (a, b) pair, checked
    at five evenly spaced grid times up to the horizon."""

    kappa: float
    horizon: float
    n_steps: int
    n_samples: int
    master_seed: int
    observable: ObservableSpec
    eps_stop: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if self.n_samples < 100:
            raise ValueError("need n_samples >= 100")
        obs = self.observable
        if len(obs.points) != 1 or obs.exponents is None:
            raise ValueError("the martingale test takes one point plus an (a, b) pair")
        _check_one_point(obs.points[0], *obs.exponents, self.eps_stop)
        TimeGrid(self.horizon, self.n_steps)   # checks horizon and n_steps

    def checkpoint_indices(self) -> list[int]:
        stride = max(1, self.n_steps // 5)
        idx = list(range(stride, self.n_steps + 1, stride))[:5]
        if idx[-1] != self.n_steps:
            idx.append(self.n_steps)
        return idx


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
    checkpoints: tuple[CheckpointRow, ...]
    verdict: bool


def _batches(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BATCH_SIZE, n)) for lo in range(0, n, BATCH_SIZE)]


def _sub_spans(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """lo..hi cut into at most k near-equal non-empty spans."""
    cuts = [lo + (hi - lo) * j // k for j in range(k + 1)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


_task: Optional[Callable] = None   # the engine's batch task, in a forked worker


def _set_task(task: Callable) -> None:
    global _task
    _task = task


def _run_task(span: tuple[int, int]) -> tuple:
    return _task(*span)


def _run_batched(task: Callable, n_samples: int, workers: int) -> list[tuple]:
    """Per batch, in batch order, the tuple of per-sample arrays (samples on
    axis 0) that task(lo, hi) returns for it.

    With more than one worker, the spans go to a pool of forked processes
    that lives for this call only.  Under fork the task reaches the children
    through the initializer without pickling; only (lo, hi) pairs and the
    result arrays cross.  The work stays inline for one worker, one span or
    one core, where fork is unavailable, and in a process with other
    threads, whose locks a forked child could inherit held."""
    workers = min(workers, os.cpu_count() or 1)   # more would only queue spans
    batches = _batches(n_samples)
    units = [_sub_spans(lo, hi, -(-workers // len(batches))) for lo, hi in batches]
    spans = [s for unit in units for s in unit]
    procs = min(workers, len(spans))
    if (procs <= 1 or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return [task(lo, hi) for lo, hi in batches]
    with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_task, initargs=(task,)) as ex:
        results = ex.map(_run_task, spans)
        per_unit = [[next(results) for _ in unit] for unit in units]
    return [tuple(np.concatenate(arrays) for arrays in zip(*parts)) for parts in per_unit]


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
    y = config.observable.points[0]
    a, b = config.observable.exponents
    check_idx = config.checkpoint_indices()
    dt = config.horizon / config.n_steps
    f0 = y ** b

    def batch(lo: int, hi: int):
        xi = _xi_block(config.master_seed, lo, hi, config.kappa, dt, config.n_steps)
        return _one_point_walk(xi, 4.0 * dt, y, a, b, config.eps_stop, check_idx)

    # per batch and checkpoint: sum, sum of squares and alive count
    stats = [[(math.fsum(f), math.fsum(f * f), int(np.count_nonzero(live)))
              for f, live in zip(frozen_at.T, alive_at.T)]
             for frozen_at, alive_at in _run_batched(batch, config.n_samples, workers)]
    n = config.n_samples
    checkpoints = []
    all_ok = True
    for i, k in enumerate(check_idx):
        total = math.fsum(p[i][0] for p in stats)
        total_sq = math.fsum(p[i][1] for p in stats)
        n_alive = sum(p[i][2] for p in stats)
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
        checkpoints.append(CheckpointRow(k * dt, mean, stderr, z, n_alive, n - n_alive))
    return McReport(config.kappa, config.horizon, config.n_steps, n,
                    config.master_seed, config.eps_stop, float(f0),
                    tuple(checkpoints), all_ok)


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


_DEFAULT_TEST_POINTS = (1j, 1.0 + 1.0j, -1.0 + 2.0j)   # each with Im z >= 1
_BOUND_CONSTANT = 10.0


def run_inverse_consistency(kappa: float, horizon: float, n_steps: int,
                            n_samples: int, master_seed: int = 0,
                            workers: int = 1) -> InverseConsistencyReport:
    """Checks that the backward flow driven by the reversed path inverts the
    forward map: for each sample, max_z |g_T(backward(z)) - z| over the test
    points.  Passes when the ensemble max stays below C sqrt(T/n), C = 10."""
    pts = np.array(_DEFAULT_TEST_POINTS)
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
        return (np.max(np.abs(w - pts), axis=1),)

    parts = _run_batched(batch, n_samples, workers)
    sample_errors = tuple(float(e) for (errors,) in parts for e in errors)
    max_error = float(np.max(sample_errors))   # NaN-propagating, unlike max()
    mean_error = math.fsum(sample_errors) / n_samples
    bound = _BOUND_CONSTANT * math.sqrt(horizon / n_steps)
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


_DEFAULT_Z_GRID = tuple(x + 1j * v for v in (0.5, 1.0, 2.0) for x in (-1.5, -0.5, 0.5, 1.5))


def run_composed_stats(kappa: float, horizon: float, n_steps: int, n_samples: int,
                       shared_driving: bool = False, master_seed: int = 0,
                       workers: int = 1) -> ComposedReport:
    """Simulate backward(path1) o forward(path2) on a point grid in the upper
    half-plane; the two drivings are independent unless shared_driving reuses
    one path.  Reports survival through the forward leg and half-plane
    containment (violations should be zero)."""
    pts = np.array(_DEFAULT_Z_GRID)
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
        return w, alive

    def batch_stats(w, alive):
        im = w.imag[alive]
        re = w.real[alive]
        # a non-finite image is a violation: it is not known to lie in H
        bad = ~np.isfinite(w[alive]) | (im < -1e-12)
        return (int(alive.sum()), int(np.count_nonzero(bad)),
                math.fsum(re), math.fsum(im), math.fsum(im * im))

    parts = [batch_stats(*p) for p in _run_batched(batch, n_samples, workers)]
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
