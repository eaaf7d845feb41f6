"""Ensemble engine for martingale and consistency checks of the flows.

Sample i of a run draws the driving stream (master_seed, index=i) of the
counter-based generator, so a sample's values do not depend on which span
computed them.
Span tasks return per-sample arrays, which the calling process joins in
sample order and reduces at once: counts, and math.fsum, whose exact
rounding makes a sum independent of order.  A run is bitwise reproducible
for any worker count and any span layout.  Every such sum goes through
``_fsum``, which reports NaN where fsum raises, so a sum that overflows
fails the run that holds it.

Spans are chunks of at most BATCH_SIZE samples, each cut into near-equal
parts when there are fewer chunks than workers; workers are processes forked
for one engine call.  A run too small to give each worker MIN_SPAN samples
uses fewer workers, or none: it stays in the calling process.  Driving
blocks are step-major, shape (n_steps+1, span), so each step of a flow loop
reads one contiguous row; each is filled through a small sample-major
stage, a few samples at a time, and is the only (n_steps+1, span) array of
its span.

The martingale test runs the one-point walk, ``_one_point_walk``, on each
span's driving block.  A sample whose driving block holds a non-finite
value fails the verdict.  The inverse and composed engines run each leg
through one slit-step loop, ``_flow``.  Neither loop masks an update: a
stopped sample or a swallowed point steps on with the rest, and the engine
freezes what it reads of it at the step it stops (the walk) or skips it
when it reduces (``composed``).

The one-point walk evolves a boundary point y right of the driving's start
under the backward flow in log space with optional stopping, and records
(g'(y))^a (g(y) - xi)^b.  It holds each driving value xi_k over the half
steps on either side of grid time k (the midpoint rule): a step from k to
k+1 is a slit step of capacity dt/2 at xi_k, the jump to xi_{k+1}, and a
slit step of capacity dt/2 at xi_{k+1}.  This symmetric (Strang) splitting
has a weak error of second order in dt away from the stopping band; holding
xi_k over the whole step is first order, and at 20 steps it biased the mean
of a drift-free observable low by about two standard errors of a
9000-sample mean.  A sample stops at the last step where it lies above the
band, X = g(y) - xi > eps_stop, and keeps that step's values; it reaches
the next step only when it can move on: X^2 > 2 dt and, after the jump, the
point still lies more than sqrt(2 dt) right of the driving (the discrete
scheme would otherwise leave the real axis).  Frozen samples keep
contributing their stopped value, so the ensemble mean of a drift-free
observable stays at its t=0 value.  Across a step, g' gains the factors X/H
and P/X' of its two half steps, where
H = sqrt(X^2 - 2 dt) and P = H - (xi_{k+1} - xi_k) are the states before
and after the jump and X' = sqrt(P^2 - 2 dt).  Their product telescopes, so
the walk keeps log g'(y) = log(X_0 / X_k) plus a running sum of
log(P / H) = log1p(-(xi_{k+1} - xi_k) / H), and takes logs and
exponentials of X only at the steps it records.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .driving import TimeGrid, raw_normals
from .loewner import slit_sqrt_vec, swallowed

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

BATCH_SIZE = 4096   # samples per task at most: bounds one driving block
_STAGE = 32         # samples per sample-major stage of a driving block
# Samples per worker process at least: a smaller span does not pay for the
# fork (an inverse check at 500 steps breaks even near 128 per span, 2 cores)
MIN_SPAN = 128
Z_THRESHOLD = 3.0   # per-checkpoint |z| limit for the verdict


@dataclass(frozen=True)
class McConfig:
    """Martingale-test configuration: the product (g'(y))^a (g(y) - xi)^b at
    one point y, checked at grid steps s, 2s, ..., 5s with
    s = max(1, n_steps // 5), and at n_steps too when 5s falls short of it:
    six checkpoints when n_steps % 5 != 0 and n_steps > 5 (at n_steps = 12,
    steps 2, 4, 6, 8, 10 and 12), every step when n_steps <= 5."""

    kappa: float
    horizon: float
    n_steps: int
    n_samples: int
    master_seed: int
    y: float
    a: float
    b: float
    eps_stop: float = 1e-3

    def __post_init__(self):
        """Reject what the walk cannot fail closed on: a non-finite y, a, b
        or eps_stop (a NaN eps_stop stops every sample or none), not
        0 <= eps_stop < y, an F_0 = y^b that is not a positive normal float
        (one that underflows makes every frozen value zero with it, a silent
        pass; one past the floats no mean can match), or y^2 <= 2 dt, where
        the first half step is not real and every sample stops at step 0,
        a vacuous run.  Here y is the point's distance right of the
        driving's start."""
        dt = _ensemble_dt(self.kappa, self.horizon, self.n_steps, self.n_samples)
        if self.n_samples < 100:
            raise ValueError("need n_samples >= 100")
        y, b, eps_stop = self.y, self.b, self.eps_stop
        for name, v in (("y", y), ("a", self.a), ("b", b), ("eps_stop", eps_stop)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not 0.0 <= eps_stop < y:
            raise ValueError(f"need 0 <= eps_stop < y: the point starts right of the seed, "
                             f"outside the stopping band; got y={y}, eps_stop={eps_stop}")
        try:
            normal = float(y ** b) >= 2.0 ** -1022   # the least positive normal float
        except OverflowError:
            normal = False
        if not normal:
            raise ValueError(f"F_0 = y^b must be a positive normal float, got y={y}, b={b}")
        if not y * y - 0.5 * (4.0 * dt) > 0.0:   # q_0, as the walk computes it
            raise ValueError(f"need y^2 > 2 T/n for a first step, got y={y}, T/n={dt}")

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
    n_nonfinite: int   # samples whose driving holds a non-finite value
    verdict: bool


def _spans(n_samples: int, workers: int) -> list[tuple[int, int]]:
    """0..n_samples in chunks of BATCH_SIZE, each cut into
    ceil(workers / chunks) near-equal non-empty spans."""
    chunks = [(lo, min(lo + BATCH_SIZE, n_samples)) for lo in range(0, n_samples, BATCH_SIZE)]
    k = -(-workers // len(chunks))
    cuts = [[lo + (hi - lo) * j // k for j in range(k + 1)] for lo, hi in chunks]
    return [(a, b) for c in cuts for a, b in zip(c, c[1:]) if a < b]


def _pool_size(n_samples: int, workers: int) -> int:
    """Processes that run n_samples at the requested worker count: at most
    one per core (more would only queue spans) and one per MIN_SPAN
    samples, and 1 (inline) where fork is unavailable or this process runs
    other threads, whose locks a child could inherit held.  _spans cuts the
    run into at least that many spans.  multiprocessing is imported only
    when a pool is possible, so an inline run never loads it."""
    workers = min(workers, os.cpu_count() or 1, n_samples // MIN_SPAN)
    if workers <= 1 or threading.active_count() > 1:
        return 1
    import multiprocessing
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


_task: Optional[Callable] = None   # the engine's span task, in a forked worker


def _set_task(task: Callable) -> None:
    global _task
    _task = task


def _run_task(span: tuple[int, int]) -> tuple:
    return _task(*span)


def _run_batched(task: Callable, n_samples: int, workers: int) -> tuple:
    """The per-sample arrays (samples on axis 0) that task(lo, hi) returns,
    joined over all spans in sample order.

    With more than one process, the spans go to a pool of forked processes
    that lives for this call only.  The task reaches the children through
    the initializer without pickling; only (lo, hi) pairs and the result
    arrays cross."""
    procs = _pool_size(n_samples, workers)
    spans = _spans(n_samples, procs)
    if procs == 1:
        parts = [task(lo, hi) for lo, hi in spans]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_task, initargs=(task,)) as ex:
            parts = list(ex.map(_run_task, spans))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _one_point_walk(xi: np.ndarray, four_dt: float, y: float, a: float, b: float,
                    eps_stop: float, record: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(g'(y))^a (g(y)-xi)^b for each column of the step-major driving block
    xi, shape (n+1, m), stepped and stopped as the module docstring says.

    Returns the frozen values and the alive masks (True: the sample can
    take the next step; at the last step, which no jump follows, its first
    half step) at the steps in ``record``, each of shape (m, len(record)).
    y - xi[0] and the rest must pass the checks of :class:`McConfig`, except
    that a sample may start inside the band: it stops at step 0."""
    half = 0.5 * four_dt   # 2 dt: four times a half step's capacity
    root_half = math.sqrt(half)
    band = eps_stop * eps_stop - half   # q <= band: X <= eps_stop
    x2_0 = (float(y) - xi[0]) ** 2
    # q = H^2 = X^2 - 2 dt at the current grid step
    q = q_0 = x2_0 - half
    shift = np.zeros_like(q)   # q - (q_0 - 4 t): the jumps' share of q
    # alive: the sample lies above the band at this step, having moved at
    # every earlier one; the running sum of log(P / H) and the next step's
    # term; the sum and q of each stopped sample at the step it froze at (a
    # sample inside the band at step 0 freezes there).  The running arrays
    # go on for stopped samples (unused, often NaN): copying those that
    # stop each step is cheaper than masking every update.
    alive = q > band
    log_sum = np.zeros_like(q)
    term = 0.0
    frozen_sum = np.zeros_like(q)
    frozen_q = q_0.copy()
    exponent_at, alive_at = [], []
    # a huge driving overflows the running arrays and the recorded values;
    # the reduction fails such a run
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(xi.shape[0]):
            log_sum += term
            moves = q > 0.0   # a new array: alive_at keeps it
            moves &= alive
            q_next = q   # no jump follows the last step: there still = moves
            if k + 1 < xi.shape[0]:
                # H: half a step at xi[k]; P: then the jump to xi[k+1]
                h = np.sqrt(q)
                u = xi[k] - xi[k + 1]
                p = h + u
                moves &= p > root_half   # the second half step is real
                term = np.log1p(u / h)   # log(P / H)
                # P^2 - 4 dt = q - 4 dt + u (H + P); summing the u (H + P)
                # apart keeps X^2 free of a rounding per step where u = 0
                h += p
                h *= u
                shift += h
                q_next = q_0 - (k + 1) * four_dt + shift
            still = moves & (q_next > band)
            stops = alive ^ still   # stopped here: this step's values
            np.copyto(frozen_sum, log_sum, where=stops)
            np.copyto(frozen_q, q, where=stops)
            if k in record:
                sums = np.where(moves, log_sum, frozen_sum)
                x2 = np.where(moves, q, frozen_q) + half
                exponent_at.append((0.5 * a) * np.log(x2_0) + (0.5 * (b - a)) * np.log(x2)
                                   + a * sums)
                alive_at.append(moves)
            alive, q = still, q_next
        return np.exp(np.stack(exponent_at, axis=1)), np.stack(alive_at, axis=1)


def _flow(w: np.ndarray, rows, c: float, alive: Optional[np.ndarray] = None) -> np.ndarray:
    """One slit step w -> x + sqrt((w - x)^2 + c) per driving row x (c = 4 dt
    forward, -4 dt backward).  A forward leg's mask, if given, is cleared
    at the points each step swallows; those points step on with the rest.
    The caller's w is never written.

    Each step makes fresh arrays; the root takes x in place and becomes the
    next w."""
    # a non-finite driving value gives NaN or inf points, which the engines
    # check, not warnings
    with np.errstate(invalid="ignore", over="ignore"):
        for x in rows:
            x = x[:, None]
            v = w - x   # x is real: Im(w - x) is Im w, bit for bit
            u = v * v
            u += c
            if alive is not None:
                alive &= ~swallowed(v, c)
            w = slit_sqrt_vec(u, v.real)
            w += x
    return w


def _fsum(values) -> float:
    """math.fsum of the values, or NaN where it raises: on inf - inf, or on
    finite values whose partial sums overflow."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def _xi_block(master_seed: int, lo: int, hi: int, kappa: float,
              dt: float, n_steps: int, leg: int = 0) -> np.ndarray:
    """Driving values for samples lo..hi-1, shape (n_steps+1, hi-lo).
    Column i is the scaled running sum of the stream (master_seed, lo + i,
    leg); for leg 0 it reproduces sample_brownian(grid, kappa, master_seed,
    index=lo + i).

    Groups of at most _STAGE samples are drawn, scaled and summed in one
    small sample-major stage, with the operations of sample_brownian in the
    same order, and the stage's transpose is copied into the block's
    columns.  The block is the only (n_steps+1, span) array of the span."""
    b = hi - lo
    xi = np.empty((n_steps + 1, b))
    xi[0] = 0.0
    stage = np.empty((min(b, _STAGE), n_steps))
    scale = np.sqrt(kappa * dt)
    for s in range(0, b, _STAGE):
        group = stage[:min(_STAGE, b - s)]
        for j, row in enumerate(group):
            row[:] = raw_normals(master_seed, n_steps, lo + s + j, leg)
        group *= scale
        with np.errstate(invalid="ignore"):   # inf - inf: a NaN the engines check
            np.cumsum(group, axis=1, out=group)
        xi[1:, s:s + len(group)] = group.T
    return xi


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
    all samples (stopped samples contribute their frozen value), with
    F_0 = y^b a positive normal float (the config checks it).  Verdict is
    True when every mean and standard error and every driving value is
    finite and every |z| <= 3.
    """
    check_idx = config.checkpoint_indices()
    dt = config.horizon / config.n_steps
    f0 = config.y ** config.b

    def batch(lo: int, hi: int):
        xi = _xi_block(config.master_seed, lo, hi, config.kappa, dt, config.n_steps)
        # the walk would freeze a sample at a non-finite X as if it stopped;
        # a running sum keeps a non-finite term, so the last row shows them all
        nonfinite = ~np.isfinite(xi[-1])
        return (*_one_point_walk(xi, 4.0 * dt, config.y, config.a, config.b,
                                 config.eps_stop, check_idx), nonfinite)

    frozen_at, alive_at, nonfinite = _run_batched(batch, config.n_samples, workers)
    n_nonfinite = int(np.count_nonzero(nonfinite))
    n = config.n_samples
    checkpoints = []
    all_ok = True
    for k, f, live in zip(check_idx, frozen_at.T, alive_at.T):
        n_alive = int(np.count_nonzero(live))
        mean = _fsum(f) / n
        with np.errstate(invalid="ignore", over="ignore"):   # an inf value or mean
            dev = f - mean
            var = _fsum(dev * dev) / (n - 1)
        stderr = math.sqrt(var / n)
        if mean == f0:
            z = 0.0
        elif stderr == 0.0:
            z = math.inf if mean > f0 else -math.inf
        else:
            z = (mean - f0) / stderr
        all_ok = all_ok and abs(z) <= Z_THRESHOLD and math.isfinite(mean) and math.isfinite(stderr)
        checkpoints.append(CheckpointRow(k * dt, mean, stderr, z, n_alive, n - n_alive))
    return McReport(config.kappa, config.horizon, config.n_steps, n,
                    config.master_seed, config.eps_stop, float(f0),
                    tuple(checkpoints), n_nonfinite,
                    all_ok and n_nonfinite == 0)


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
        w = np.tile(pts, (hi - lo, 1))
        w = _flow(w, xi[n_steps:0:-1], -four_dt)   # backward chain, reversed driving
        w = _flow(w, xi[:n_steps], four_dt)        # forward chain, original driving
        return (np.max(np.abs(w - pts), axis=1),)

    (errors,) = _run_batched(batch, n_samples, workers)
    sample_errors = tuple(errors.tolist())
    max_error = float(np.max(errors))   # NaN-propagating, unlike max()
    mean_error = _fsum(sample_errors) / n_samples
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
        xi_f = _xi_block(master_seed, lo, hi, kappa, dt, n_steps)
        # sample i drives its backward leg with leg 1 of its stream
        xi_b = xi_f if shared_driving else _xi_block(master_seed, lo, hi, kappa, dt,
                                                      n_steps, leg=1)
        w = np.tile(pts, (hi - lo, 1))
        alive = np.ones(w.shape, dtype=bool)
        w = _flow(w, xi_f[:n_steps], four_dt, alive)   # forward leg (may swallow)
        w = _flow(w, xi_b[:n_steps], -four_dt)         # backward leg
        return w, alive

    w, alive = _run_batched(batch, n_samples, workers)
    image = w[alive]
    n_alive = image.size
    # a non-finite image is a violation: it is not known to lie in H
    violations = int(np.count_nonzero(~np.isfinite(image) | (image.imag < -1e-12)))
    if n_alive:
        mean_re = _fsum(image.real) / n_alive
        mean_im = _fsum(image.imag) / n_alive
        with np.errstate(over="ignore"):   # a huge Im w squares to inf
            mean_sq = _fsum(image.imag * image.imag) / n_alive
        spread = math.sqrt(max(mean_sq - mean_im * mean_im, 0.0))
    else:
        mean_re = mean_im = spread = float("nan")
    return ComposedReport(kappa, horizon, n_steps, n_samples, master_seed, shared_driving,
                          pts.size, n_alive / (n_samples * pts.size), violations,
                          complex(mean_re, mean_im), spread)
