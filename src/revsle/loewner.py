"""Forward and backward chordal Loewner evolutions from exact slit maps.

With the driving held constant on each grid step, the chordal Loewner ODE
    dg = +2 dt / (g - xi)     (forward,  H minus growing hull -> H)
    dg = -2 dt / (g - xi)     (backward, H -> H minus growing slit)
integrates in closed form over one step of length dt:

    forward   w -> xi + sqrt((w - xi)^2 + 4 dt)
    backward  w -> xi + sqrt((w - xi)^2 - 4 dt)

A forward step is inverted by a backward step with the same xi and vice
versa, so there is one step kernel, ``w -> xi + sqrt((w - xi)^2 + c)`` with
c = +-4 dt.  Maps, derivatives, inverses and the zipper :func:`trace` are
loops over it.  Points may be a single complex number (a complex comes back)
or an array of any shape, whose points are evaluated together.  Only the
c = +4 dt step can hit the driving singularity; :func:`swallowed` is the
test for it.

The square root branch is fixed by two conditions: the image has
non-negative imaginary part, and the map is asymptotic to the identity at
infinity (the real part of the root carries the sign of Re(w - xi)).
:func:`slit_sqrt_vec` takes numpy's principal root and negates it where it
breaks either condition, so both root components keep full relative
accuracy, also when |Im u| << |Re u|.

A whole-plane-type radial flow on the upper half-plane,

    dg = -(1 + g^2)/2 * (1 + eta*g)/(g - eta) dt,   eta = tan(xi),

is solved exactly as well (:func:`evolve_wholeplane`).  The automorphism
w = (g cos xi - sin xi)/(g sin xi + cos xi) of the upper half-plane fixes i
and sends eta to 0; in w the flow reads dw = -(1 + w^2)/(2w) dt, so
d(1 + w^2) = -(1 + w^2) dt and 1 + w^2 decays exactly as e^{-t}.  One step
of constant driving is therefore w -> i sqrt((1 - e^{-dt}) - e^{-dt} w^2),
a scaled backward chordal slit step, followed by the inverse rotation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .driving import DrivingPath

__all__ = [
    "SwallowedPointError",
    "BranchViolationError",
    "slit_sqrt_vec",
    "swallowed",
    "LoewnerEvolution",
    "evolve_forward",
    "evolve_backward",
    "apply_map",
    "apply_derivative",
    "invert_map",
    "trace",
    "RadialEvolution",
    "evolve_wholeplane",
    "evolution_to_json",
]

# Points whose slit-map discriminant (w-xi)^2 +- 4dt falls within this of the
# degenerate configuration are treated as absorbed / invalid.
EPS_SWALLOW = 1e-12


class SwallowedPointError(Exception):
    """A forward orbit hit the driving singularity (point absorbed by the hull)."""

    def __init__(self, step: int, point: complex):
        self.step = step
        self.point = point
        super().__init__(f"point {point} swallowed at step {step}")


class BranchViolationError(Exception):
    """An inverse orbit left the domain where the branch is defined."""

    def __init__(self, step: int, point: complex):
        self.step = step
        self.point = point
        super().__init__(f"branch violation at step {step}, point {point}")


def slit_sqrt_vec(u: np.ndarray, re_hint: np.ndarray) -> np.ndarray:
    """Elementwise square root of u with Im >= 0 (complex128 arrays); for
    real u >= 0 the sign of the real part follows ``re_hint`` (the sign of
    Re(w - xi), identity at infinity).

    When Im(u) != 0 there is exactly one root with positive imaginary part,
    so the hint only breaks the tie on the real axis.
    """
    s = np.sqrt(u)
    return np.where((s.imag < 0.0) | ((s.imag == 0.0) & (re_hint < 0.0)), -s, s)


def swallowed(v: np.ndarray, four_dt: float) -> np.ndarray:
    """Mask of the offsets v = w - xi whose forward (+4dt) step hits the
    driving singularity: v is purely imaginary with |v|^2 <= 4dt (the point
    sits on the closed slit); the tip itself has discriminant v^2 + 4dt = 0."""
    return ((np.abs(v) <= EPS_SWALLOW)
            | ((np.abs(v.real) <= EPS_SWALLOW) & (v.imag ** 2 <= four_dt))
            | (np.abs(v * v + four_dt) <= EPS_SWALLOW))


def _slit_step(w: np.ndarray, x: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """One exact chordal step w -> x + s, s = sqrt((w - x)^2 + c), with
    c = +4dt (forward) or -4dt (backward); returns the image and s."""
    v = w - x
    s = slit_sqrt_vec(v * v + c, v.real)
    return x + s, s


@dataclass(frozen=True, eq=False)
class LoewnerEvolution:
    """Composition of exact slit maps, one per grid step.

    ``driving_values`` are the n+1 grid values of the driving; step k holds
    the value at its left endpoint.  An empty chain is the identity.
    Instances are immutable; evaluation at distinct points is freely
    concurrent.
    """

    direction: str
    driving_values: np.ndarray
    dt: float
    kappa: float
    source: Optional[DrivingPath] = None

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        vals = np.asarray(self.driving_values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "driving_values", vals)

    @property
    def n_steps(self) -> int:
        return len(self.driving_values) - 1


def evolve_forward(path: DrivingPath) -> LoewnerEvolution:
    """Forward chain for the given driving (one exact slit map per step)."""
    return LoewnerEvolution("forward", path.values, path.grid.dt, path.kappa, path)


def evolve_backward(path: DrivingPath) -> LoewnerEvolution:
    """Backward chain: maps H into H minus a growing slit."""
    return LoewnerEvolution("backward", path.values, path.grid.dt, path.kappa, path)


def _resolve_steps(evo: LoewnerEvolution, up_to: Optional[int]) -> int:
    n = evo.n_steps
    if up_to is None:
        return n
    if not 0 <= up_to <= n:
        raise ValueError(f"up_to must be in [0, {n}], got {up_to}")
    return up_to


def _step_constant(evo: LoewnerEvolution) -> float:
    """c of the chain's own steps: +4dt forward, -4dt backward."""
    return 4.0 * evo.dt if evo.direction == "forward" else -4.0 * evo.dt


def _upper(z):
    if np.any(np.imag(z) < 0.0):
        raise ValueError(f"point {z} is below the real axis")
    return z


def _raise_where(mask: np.ndarray, error: type, step: int, w: np.ndarray) -> None:
    if mask.any():
        raise error(step, complex(w[mask][0]))


def _orbit(evo: LoewnerEvolution, z, steps: range, c: float, error: type,
           derivative: bool = False):
    """Runs z through ``steps`` of the evolution, each the slit step with
    constant c, and returns the image (or, with ``derivative``, the
    derivative of the composition).  Before every +4dt step the orbit is
    tested with :func:`swallowed`; a hit raises ``error`` with the step index
    and the current point."""
    w = np.array(z, dtype=np.complex128, ndmin=1)
    d = np.ones_like(w)
    xi = evo.driving_values
    for k in steps:
        x = xi[k]
        if c > 0.0:
            _raise_where(swallowed(w - x, c), error, k, w)
        image, s = _slit_step(w, x, c)
        if derivative:
            _raise_where(s == 0.0, BranchViolationError, k, w)
            d = d * ((w - x) / s)
        w = image
    out = d if derivative else w
    return complex(out[0]) if np.ndim(z) == 0 else out


def apply_map(evo: LoewnerEvolution, z, up_to: Optional[int] = None):
    """Image of z (a point or an array of points) under the first ``up_to``
    steps (default: all).

    Forward direction raises :class:`SwallowedPointError` when an orbit hits
    the driving singularity.
    """
    return _orbit(evo, _upper(z), range(_resolve_steps(evo, up_to)),
                  _step_constant(evo), SwallowedPointError)


def apply_derivative(evo: LoewnerEvolution, z, up_to: Optional[int] = None):
    """Derivative of the composed map at z (chain rule over the orbit)."""
    return _orbit(evo, _upper(z), range(_resolve_steps(evo, up_to)),
                  _step_constant(evo), SwallowedPointError, derivative=True)


def invert_map(evo: LoewnerEvolution, w, down_from: Optional[int] = None):
    """Preimage of w under the first ``down_from`` steps (default: all).

    Step inverses are applied in reverse order; inverting a backward
    chain raises :class:`BranchViolationError` when an intermediate point
    falls outside the image domain (on a step's slit).
    """
    k_max = _resolve_steps(evo, down_from)
    return _orbit(evo, w, range(k_max - 1, -1, -1), -_step_constant(evo),
                  BranchViolationError)


def trace(evo: LoewnerEvolution) -> np.ndarray:
    """Curve tip samples gamma_k = g_k^{-1}(xi_k) for a forward evolution
    (zipper evaluation): the inverse of step j, for j from last to first,
    moves every tip k > j.  Unresolved tips are reported as nan+nan*1j."""
    if evo.direction != "forward":
        raise ValueError("trace is defined for forward evolutions")
    vals = evo.driving_values
    w = vals.astype(np.complex128)
    for j in range(evo.n_steps - 1, -1, -1):
        w[j + 1:] = _slit_step(w[j + 1:], vals[j], -4.0 * evo.dt)[0]
    w[~np.isfinite(w)] = complex(math.nan, math.nan)
    return w


@dataclass(frozen=True, eq=False)
class RadialEvolution:
    """States of the radial flow at grid times: ``states[k]`` is g at grid
    time k, with Im g >= 0."""

    states: np.ndarray
    path: DrivingPath

    @property
    def completed(self) -> bool:
        """True when every state is finite."""
        return bool(np.all(np.isfinite(self.states)))


def evolve_wholeplane(path: DrivingPath, z0: complex = 1j) -> RadialEvolution:
    """Flow z0 by dg = -(1+g^2)/2 * (1+eta*g)/(g-eta) dt, eta = tan(xi),
    with the exact one-step map of the module docstring: rotate the step's
    driving to 0, take the slit step, rotate back.  The principal root puts
    the image in the closed upper half-plane."""
    z0 = complex(z0)
    if not z0.imag > 0.0:
        raise ValueError(f"initial point {z0} must be in the open upper half-plane")
    p, q = -math.expm1(-path.grid.dt), math.exp(-path.grid.dt)
    xi = path.values[:-1]
    g = z0
    states = [g]
    for c, s in zip(np.cos(xi).tolist(), np.sin(xi).tolist()):
        w = (g * c - s) / (g * s + c)
        w = 1j * cmath.sqrt(p - q * w * w)
        g = (w * c + s) / (c - w * s)
        states.append(g)
    return RadialEvolution(np.array(states, dtype=np.complex128), path)


def evolution_to_json(evo: LoewnerEvolution) -> dict:
    horizon = (evo.source.grid.horizon if evo.source is not None
               else evo.dt * evo.n_steps)
    return {
        "kappa": evo.kappa,
        "direction": evo.direction,
        "T": horizon,
        "n_steps": evo.n_steps,
        "seed": evo.source.seed if evo.source is not None else None,
    }
