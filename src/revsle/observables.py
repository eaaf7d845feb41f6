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

once b^2 = kappa/4, and :func:`bpz_generator` computes it as exactly that.
Scaling by 2 and by 1/4 is exact in binary floating point (short of
overflow or underflow), so this is the generator's own finite-difference
formula, bit for bit.  The operator takes central finite differences.

This module holds the algebra only: specs, the generator, exponent pairs
and their audit.  The one-point walk that runs an (a, b) pair by Monte
Carlo, with its stopping rule, is in ``montecarlo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .cft import kac_dimension, params_from_kappa
# apply_map and apply_derivative are not called here: perfbench's tracer test
# pins these two bindings in this module.
from .loewner import apply_derivative, apply_map  # noqa: F401

__all__ = [
    "PointsTooCloseError",
    "ObservableSpec",
    "bpz_generator",
    "bpz_operator_level2",
    "drift_residual",
    "one_point_exponents",
    "ExponentRoots",
    "audit_one_point_exponents",
    "OnePointExponentAudit",
    "PairResidual",
]

DELTA_MIN = 1e-6   # minimum |y - xi| for generator evaluation
# |drift residual| of a pair the audit calls drift-free, relative to its
# largest term (and to 1)
AUDIT_TOLERANCE = 1e-10
_H1_REL = 1e-5     # relative step, first derivatives
# Second derivatives use a larger step: at 1e-5 the float64 cancellation
# noise 4*eps/h^2 ~ 2e-6 would exceed the 1e-6 residual budget, while 1e-4
# balances truncation and roundoff near 1e-7.
_H2_REL = 1e-4


class PointsTooCloseError(Exception):
    """An observable point sits within DELTA_MIN of the driving value."""


@dataclass(frozen=True)
class ObservableSpec:
    """Boundary observable of the generator checks: points y_a with weights
    h_a."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

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
    frame: (kappa/2) F_xixi - 2 sum_a [ F_{y_a}/(y_a-xi) - h_a F/(y_a-xi)^2 ],
    which is twice the level-2 operator at b^2 = kappa/4.

    ``f(xi, ys)`` must accept the driving value and the tuple of boundary
    points.  Derivatives are central finite differences.
    """
    return 2.0 * bpz_operator_level2(obs, f, 0.25 * kappa, xi)


def bpz_operator_level2(obs: ObservableSpec, f: Callable, b_squared: float,
                        z: float = 0.0) -> float:
    """Level-2 degenerate differential operator at the insertion z:
    b^2 F_zz + sum_a [ h_a F/(y_a-z)^2 - F_{y_a}/(y_a-z) ].

    With b^2 = kappa/4 this is half of :func:`bpz_generator`, which calls it.
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
    negative discriminant (roots then form a conjugate pair).  kappa must be
    positive and finite; a non-finite h, such as a weight that overflowed,
    gives non-finite roots."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    # dividing by the leading coefficient kappa/4 is multiplying by 4 and
    # dividing by kappa (exact scalings), since kappa/4 underflows to 0 at the
    # least subnormal kappas
    qb = -(1.0 + 0.25 * kappa)
    disc = qb * qb - kappa * h
    if disc < 0.0:
        s = math.sqrt(-disc)
        re = -2.0 * qb / kappa
        im = 2.0 * s / kappa
        return ExponentRoots(complex(re, im), complex(re, -im), True)
    s = math.sqrt(disc)
    q = -(qb - s) / 2.0   # qb < 0 always, so this avoids cancellation
    r1 = 4.0 * q / kappa
    r2 = h / q
    hi, lo = (r1, r2) if r1 >= r2 else (r2, r1)
    return ExponentRoots(complex(hi, 0.0), complex(lo, 0.0), False)


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

    proposed: PairResidual
    derived: tuple[PairResidual, ...]


def audit_one_point_exponents(kappa: float) -> OnePointExponentAudit:
    """Check the proposed exponent pair a = b = -1 - 8/kappa^2 for the
    one-point observable against the drift-zero condition, alongside the
    reading a = -1 - 8/kappa with b from :func:`one_point_exponents`."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")

    def check(a: float, b: float) -> PairResidual:
        # relative to the largest term of 2a - 2b + kappa b^2 / 2 - kappa b / 2,
        # not to b (b - 1), which cancels near b = 1; an inf residual over an
        # inf term is NaN and fails
        r = drift_residual(kappa, a, b)
        scale = max(1.0, abs(2.0 * a), abs(2.0 * b), 0.5 * kappa * b * b, 0.5 * kappa * abs(b))
        return PairResidual(a, b, r, abs(r) / scale <= AUDIT_TOLERANCE)

    sq_exponent = -1.0 - 8.0 / kappa / kappa   # kappa^2 may underflow to 0
    proposed = check(sq_exponent, sq_exponent)
    try:
        a_13 = kac_dimension(params_from_kappa(kappa, "liouville"), 1, 3)
    except ValueError:   # b^2 = kappa/4 underflows, or Q^2 or c overflows
        a_13 = -math.inf
    roots = one_point_exponents(kappa, a_13)
    derived = tuple(check(a_13, r.real) for r in (roots.b_plus, roots.b_minus))
    return OnePointExponentAudit(proposed, derived)
