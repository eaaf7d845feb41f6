"""Covariant boundary observables along Loewner flows and their drift.

The observables are products of covariantly transformed boundary primaries
evaluated along the flow.  Under the backward evolution with driving
xi_t = sqrt(kappa) B_t, write X_t = g_t(y) - xi_t for a boundary point y.
Ito calculus on

    dX = -2 dt / X - dxi,     d log g'(y) = +2 dt / X^2

gives, for M = (g'(y))^a * X^b,

    dM / M = [2a - 2b + kappa b(b-1)/2] X^{-2} dt - b sqrt(kappa) X^{-1} dB,

so M is drift-free exactly when  a = b - kappa b (b-1) / 4.  The same
exponent set comes out of the second-order generator acting on the flat
frame (t = 0, g = id):

    G = (kappa/2) d^2/dxi^2 - 2 sum_a [ d/dy_a / (y_a - xi)
                                        - h_a / (y_a - xi)^2 ],

which is twice the level-2 degenerate differential operator

    D = b^2 d^2/dz^2 + sum_a [ h_a / (y_a - z)^2 - d/dy_a / (y_a - z) ]

once b^2 = kappa/4.  Both operator forms are implemented (finite
differences) so the algebraic identity can be checked numerically.

The one-point walk evolves y under the backward flow in log space with
optional stopping.  It holds each driving value xi_k over the half steps on
either side of grid time k (the midpoint rule): a step from k to k+1 is a
slit step of capacity dt/2 at xi_k, the jump to xi_{k+1}, and a slit step of
capacity dt/2 at xi_{k+1}.  This symmetric (Strang) splitting has a weak
error of second order in dt away from the stopping band; holding xi_k over
the whole step is first order, and at 20 steps it biased the mean of a
drift-free observable low by about two standard errors of a 9000-sample
mean.  A sample freezes at the last grid step where X = g(y) - xi exceeds
eps_stop and from which the next step is real: X^2 > 2 dt, and after the
jump the point still lies more than sqrt(2 dt) right of the driving (the
discrete scheme would otherwise leave the real axis).  Frozen samples keep
contributing their stopped value, so the ensemble mean of a drift-free
observable stays at its t=0 value.  Across a step, g' gains the factors
X/H and P/X' of its two half steps, where H = sqrt(X^2 - 2 dt) and
P = H - (xi_{k+1} - xi_k) are the states before and after the jump and
X' = sqrt(P^2 - 2 dt).  Their product telescopes, so the walk keeps
log g'(y) = log(X_0 / X_k) plus a running sum of
log(P / H) = log1p(-(xi_{k+1} - xi_k) / H), and takes logs and
exponentials of X only at the steps it records.  The martingale engine
runs the walk on a block of drivings; :func:`eval_one_point` is its
single-sample case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

# apply_map and apply_derivative are not called here: perfbench's tracer test
# pins these two bindings in this module.
from .loewner import LoewnerEvolution, apply_derivative, apply_map  # noqa: F401

__all__ = [
    "PointsTooCloseError",
    "ObservableSpec",
    "bpz_generator",
    "bpz_operator_level2",
    "drift_residual",
    "one_point_exponents",
    "ExponentRoots",
    "OnePointValue",
    "eval_one_point",
    "audit_one_point_exponents",
    "OnePointExponentAudit",
    "PairResidual",
]

DELTA_MIN = 1e-6   # minimum |y - xi| for generator evaluation
_H1_REL = 1e-5     # relative step, first derivatives
# Second derivatives use a larger step: at 1e-5 the float64 cancellation
# noise 4*eps/h^2 ~ 2e-6 would exceed the 1e-6 residual budget, while 1e-4
# balances truncation and roundoff near 1e-7.
_H2_REL = 1e-4


class PointsTooCloseError(Exception):
    """An observable point sits within DELTA_MIN of the driving value."""


@dataclass(frozen=True)
class ObservableSpec:
    """Boundary observable: points y_a with weights h_a.  ``exponents`` is
    the pair (a, b) of the one-point product (g'(y))^a * (g(y)-xi)^b that
    the martingale engine runs; specs for the generator checks leave it None.
    """

    points: tuple[float, ...]
    weights: tuple[float, ...]
    exponents: Optional[tuple[float, float]] = None

    def __post_init__(self):
        pts = tuple(float(y) for y in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(float(h) for h in self.weights))
        if len(pts) != len(self.weights):
            raise ValueError("points and weights must pair up")
        if len(set(pts)) != len(pts) or any(y == 0.0 for y in pts):
            raise ValueError("points must be pairwise distinct and nonzero")


def _d1(f: Callable[[float], float], x: float) -> float:
    h = _H1_REL * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _d2(f: Callable[[float], float], x: float) -> float:
    h = _H2_REL * max(1.0, abs(x))
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def bpz_generator(obs: ObservableSpec, f: Callable, kappa: float,
                  xi: float = 0.0) -> float:
    """Drift generator of the backward flow acting on F(xi, ys) in the flat
    frame: (kappa/2) F_xixi - 2 sum_a [ F_{y_a}/(y_a-xi) - h_a F/(y_a-xi)^2 ].

    ``f(xi, ys)`` must accept the driving value and the tuple of boundary
    points.  Derivatives are central finite differences.
    """
    ys = obs.points
    hs = obs.weights
    for y in ys:
        if abs(y - xi) <= DELTA_MIN:
            raise PointsTooCloseError(f"|{y} - {xi}| <= {DELTA_MIN}")
    f0 = f(xi, ys)
    out = 0.5 * kappa * _d2(lambda x: f(x, ys), xi)
    for i, (y, h_w) in enumerate(zip(ys, hs)):
        def f_yi(v, i=i):
            pts = list(ys)
            pts[i] = v
            return f(xi, tuple(pts))
        d = y - xi
        out -= 2.0 * (_d1(f_yi, y) / d - h_w * f0 / (d * d))
    return out


def bpz_operator_level2(obs: ObservableSpec, f: Callable, b_squared: float,
                        z: float = 0.0) -> float:
    """Level-2 degenerate differential operator at the insertion z:
    b^2 F_zz + sum_a [ h_a F/(y_a-z)^2 - F_{y_a}/(y_a-z) ].

    With b^2 = kappa/4 this is exactly half of :func:`bpz_generator`.
    """
    ys = obs.points
    hs = obs.weights
    for y in ys:
        if abs(y - z) <= DELTA_MIN:
            raise PointsTooCloseError(f"|{y} - {z}| <= {DELTA_MIN}")
    f0 = f(z, ys)
    out = b_squared * _d2(lambda x: f(x, ys), z)
    for i, (y, h_w) in enumerate(zip(ys, hs)):
        def f_yi(v, i=i):
            pts = list(ys)
            pts[i] = v
            return f(z, tuple(pts))
        d = y - z
        out += h_w * f0 / (d * d) - _d1(f_yi, y) / d
    return out


def drift_residual(kappa: float, a: float, b: float) -> float:
    """Ito drift coefficient of (g')^a (g(y)-xi)^b under the backward flow:
    2a - 2b + kappa b (b-1) / 2.  Zero means the observable is drift-free."""
    return 2.0 * a - 2.0 * b + 0.5 * kappa * b * (b - 1.0)


class ExponentRoots(NamedTuple):
    b_plus: complex
    b_minus: complex
    complex_roots: bool


def one_point_exponents(kappa: float, h: float) -> ExponentRoots:
    """Solve h = b - kappa b (b-1)/4, i.e. (kappa/4) b^2 - (1+kappa/4) b + h = 0,
    for the power exponent b of a drift-free one-point observable whose
    derivative exponent is h.  Both roots are returned; complex_roots flags a
    negative discriminant (roots then form a conjugate pair)."""
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    qa = 0.25 * kappa
    qb = -(1.0 + 0.25 * kappa)
    disc = qb * qb - 4.0 * qa * h
    if disc < 0.0:
        s = math.sqrt(-disc)
        re = -qb / (2.0 * qa)
        im = s / (2.0 * qa)
        return ExponentRoots(complex(re, im), complex(re, -im), True)
    s = math.sqrt(disc)
    q = -(qb - s) / 2.0   # qb < 0 always, so this avoids cancellation
    r1 = q / qa
    r2 = h / q
    hi, lo = (r1, r2) if r1 >= r2 else (r2, r1)
    return ExponentRoots(complex(hi, 0.0), complex(lo, 0.0), False)


class OnePointValue(NamedTuple):
    value: float
    stopped: bool
    stop_step: Optional[int]


def _check_one_point(y: float, a: float, b: float, eps_stop: float) -> None:
    """Reject inputs the one-point walk cannot fail closed on: a non-finite
    y, a, b or eps_stop (b = -inf makes every value and F_0 zero, a NaN
    eps_stop stops every sample or none), or not 0 <= eps_stop < y.  Here
    y is the point's distance right of the driving's start."""
    for name, v in (("y", y), ("a", a), ("b", b), ("eps_stop", eps_stop)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if not 0.0 <= eps_stop < y:
        raise ValueError(f"need 0 <= eps_stop < y: the point starts right of the seed, "
                         f"outside the stopping band; got y={y}, eps_stop={eps_stop}")


def _one_point_walk(xi: np.ndarray, four_dt: float, y: float, a: float, b: float,
                    eps_stop: float, record: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(g'(y))^a (g(y)-xi)^b for each column of the step-major driving block
    xi, shape (n+1, m), stepped and stopped as the module docstring says.

    Returns the frozen values and the alive masks (True: the sample can
    take the next step; at the last step, which no jump follows, its first
    half step) at the steps in ``record``, each of shape (m, len(record)).
    y - xi[0] and the rest must pass :func:`_check_one_point`."""
    m = xi.shape[1]
    half = 0.5 * four_dt   # 2 dt: four times a half step's capacity
    root_half = math.sqrt(half)
    x2_0 = (float(y) - xi[0]) ** 2
    q_0 = x2_0 - half
    q = q_0.copy()         # H^2 = X^2 - 2 dt at the current grid step
    q_prev = np.empty(m)   # at the previous one
    shift = np.zeros(m)    # q - (q_0 - 4 t): the jumps' share of q
    h = np.empty(m)
    p = np.empty(m)
    u = np.empty(m)
    alive = np.ones(m, dtype=bool)
    above = np.empty(m, dtype=bool)
    # the running sum of log(P / H) and the next step's term; the sum and
    # q of each stopped sample at the step it froze at.  The running arrays
    # go on for stopped samples (unused, often NaN): copying the few that
    # stop each step is cheaper than masking every update.
    log_sum = np.zeros(m)
    term = np.zeros(m)
    frozen_sum = np.empty(m)
    frozen_q = np.empty(m)
    exponent_at, alive_at = [], []

    def freeze(stopped, sums, qs):
        if stopped.any():
            idx = np.flatnonzero(stopped)
            frozen_sum[idx] = sums[idx]
            frozen_q[idx] = qs[idx]

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(xi.shape[0]):
            np.greater(q, eps_stop * eps_stop - half, out=above)   # X > eps_stop
            above &= alive
            freeze(alive ^ above, log_sum, q_prev)
            log_sum += term
            alive = np.greater(q, 0.0)   # a new array: alive_at keeps it
            alive &= above
            if k + 1 < xi.shape[0]:
                # H: half a step at xi[k]; P: then the jump to xi[k+1]
                np.sqrt(q, out=h)
                np.subtract(xi[k], xi[k + 1], out=u)
                np.add(h, u, out=p)
                alive &= p > root_half   # the second half step is real
            freeze(above ^ alive, log_sum, q)   # no real next step
            if k in record:
                sums = np.where(alive, log_sum, frozen_sum)
                x2 = np.where(alive, q, frozen_q) + half
                exponent_at.append((0.5 * a) * np.log(x2_0) + (0.5 * (b - a)) * np.log(x2)
                                   + a * sums)
                alive_at.append(alive)
            if k + 1 < xi.shape[0]:
                np.divide(u, h, out=term)
                np.log1p(term, out=term)   # log(P / H)
                # P^2 - 4 dt = q - 4 dt + u (H + P); summing the u (H + P)
                # apart keeps X^2 free of a rounding per step where u = 0
                h += p
                h *= u
                shift += h
                np.subtract(q_0, (k + 1) * four_dt, out=q_prev)
                q_prev += shift
                q, q_prev = q_prev, q
    return np.exp(np.stack(exponent_at, axis=1)), np.stack(alive_at, axis=1)


def eval_one_point(evo: LoewnerEvolution, y: float, a: float, b: float,
                   up_to: Optional[int] = None,
                   eps_stop: float = 1e-3) -> OnePointValue:
    """(g'(y))^a (g(y)-xi)^b up to step ``up_to`` (default: the last) of
    the one-point walk on a backward evolution's driving values, with the
    midpoint rule and the stopping of the module docstring.  (``evo`` itself
    holds each value over the following step; the walk does not use its
    maps.)  ``stop_step`` is the first step from which the walk can take
    no further step; the martingale engine counts such a sample as
    stopped."""
    if evo.direction != "backward":
        raise ValueError("one-point observables evolve under the backward flow")
    n = evo.n_steps if up_to is None else up_to
    if not 0 <= n <= evo.n_steps:
        raise ValueError(f"step must be in [0, {evo.n_steps}]")
    xi = evo.driving_values[:n + 1, None]
    _check_one_point(y - xi[0, 0], a, b, eps_stop)
    frozen, alive = _one_point_walk(xi, 4.0 * evo.dt, y, a, b, eps_stop, range(n + 1))
    stop = next((k for k, live in enumerate(alive[0]) if not live), None)
    return OnePointValue(float(frozen[0, -1]), stop is not None, stop)


@dataclass(frozen=True)
class PairResidual:
    a: float
    b: float
    residual: float
    satisfies: bool


@dataclass(frozen=True)
class OnePointExponentAudit:
    """Drift audit of two readings of the one-point exponent.

    ``proposed`` is the pair a = b = -1 - 8/kappa^2; ``derived`` carries
    a = -1 - 8/kappa (the (1,3) weight at b^2 = kappa/4) with b solving the
    drift-zero quadratic.  Each entry records its Ito drift residual, so the
    report documents which normalization is actually drift-free.
    """

    kappa: float
    proposed: PairResidual
    derived: tuple[PairResidual, ...]
    tolerance: float


def audit_one_point_exponents(kappa: float,
                              tolerance: float = 1e-10) -> OnePointExponentAudit:
    """Check the proposed exponent pair a = b = -1 - 8/kappa^2 for the
    one-point observable against the drift-zero condition, alongside the
    reading a = -1 - 8/kappa with b from :func:`one_point_exponents`."""
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")

    def check(a: float, b: float) -> PairResidual:
        r = drift_residual(kappa, a, b)
        return PairResidual(a, b, r, abs(r) <= tolerance)

    sq_exponent = -1.0 - 8.0 / (kappa * kappa)
    proposed = check(sq_exponent, sq_exponent)
    a_13 = -1.0 - 8.0 / kappa
    roots = one_point_exponents(kappa, a_13)
    derived = tuple(check(a_13, r.real) for r in (roots.b_plus, roots.b_minus))
    return OnePointExponentAudit(kappa, proposed, derived, tolerance)
