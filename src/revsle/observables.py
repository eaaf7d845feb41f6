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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .cft import KacLabel
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
    """Boundary observable: points y_a with weights h_a, plus the label of
    the boundary-condition-changing insertion (default (1,2)).

    ``one_point_power`` means a single point carrying the exponent pair
    (a, b) for (g')^a * (g(y)-xi)^b; ``generic_callable`` supplies
    ``func(g_prime, g_value, xi) -> value`` operating on arrays.
    """

    points: tuple[float, ...]
    weights: tuple[float, ...]
    form: str = "one_point_power"
    exponents: Optional[tuple[float, float]] = None
    func: Optional[Callable] = None
    bcc: KacLabel = field(default_factory=lambda: KacLabel(1, 2))

    def __post_init__(self):
        pts = tuple(float(y) for y in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(float(h) for h in self.weights))
        if len(pts) != len(self.weights):
            raise ValueError("points and weights must pair up")
        if len(set(pts)) != len(pts) or any(y == 0.0 for y in pts):
            raise ValueError("points must be pairwise distinct and nonzero")
        if self.form == "one_point_power":
            if len(pts) != 1 or self.exponents is None:
                raise ValueError("one_point_power takes one point and an (a, b) pair")
        elif self.form == "generic_callable":
            if self.func is None:
                raise ValueError("generic_callable needs func")
        else:
            raise ValueError(f"unknown form {self.form!r}")


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


def eval_one_point(evo: LoewnerEvolution, y: float, a: float, b: float,
                   up_to: Optional[int] = None,
                   eps_stop: float = 1e-3) -> OnePointValue:
    """(g'(y))^a (g(y)-xi)^b along a backward evolution, with optional
    stopping: the walk freezes at the last step where X = g(y)-xi both
    exceeds eps_stop and can take another real step (X^2 > 4 dt).  The
    frozen value is returned with the stopped marker and step."""
    if evo.direction != "backward":
        raise ValueError("one-point observables evolve under the backward flow")
    y = float(y)
    if y <= 0.0:
        raise ValueError("boundary point must be positive (place it right of the seed)")
    n = evo.n_steps if up_to is None else up_to
    if not 0 <= n <= evo.n_steps:
        raise ValueError(f"step must be in [0, {evo.n_steps}]")
    vals = evo.driving_values
    dt = evo.dt
    four_dt = 4.0 * dt
    w = y
    log_gp = 0.0
    last = None
    for k in range(n + 1):
        x = w - float(vals[k])
        if x <= eps_stop:
            if last is None:
                raise ValueError(f"point {y} is inside the stopping band at t=0")
            return OnePointValue(last, True, k)
        last = math.exp(a * log_gp + b * math.log(x))
        if k == n:
            return OnePointValue(last, False, None)
        if x * x <= four_dt:
            return OnePointValue(last, True, k)
        root = math.sqrt(x * x - four_dt)
        log_gp += math.log(x) - math.log(root)
        w = float(vals[k]) + root
    raise AssertionError("unreachable")


class PairResidual(NamedTuple):
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

    def to_json(self) -> dict:
        def pack(p: PairResidual) -> dict:
            return {"a": p.a, "b": p.b, "residual": p.residual,
                    "satisfies": p.satisfies}

        return {
            "kappa": self.kappa,
            "proposed_pair": pack(self.proposed),
            "derived_pairs": [pack(c) for c in self.derived],
            "tolerance": self.tolerance,
        }


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
