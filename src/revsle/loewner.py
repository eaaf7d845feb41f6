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
:func:`slit_sqrt_vec` computes that root in numpy vector passes with
glibc csqrt's half-angle formula, t = sqrt(0.5*(|u| + |Re u|)) and
q = 0.5*(|Im u| / t), whose components keep full relative accuracy, also
when |Im u| << |Re u|; |u| is numpy's SIMD complex modulus, a vector pass
in place of one libm csqrt call per element.  A root on the real axis is a tie
that only the hint breaks; such ties, zeros, moduli near underflow or
overflow, infs and NaNs take numpy's principal root instead, negated where
it breaks either condition.  Each element is selected by its own value, so
its bits never depend on the rest of the call.

A whole-plane-type radial flow on the upper half-plane,

    dg = -(1 + g^2)/2 * (1 + eta*g)/(g - eta) dt,   eta = tan(xi),

is solved exactly as well (:func:`evolve_wholeplane`).  The automorphism
R_a(g) = (g cos a - sin a)/(g sin a + cos a) of the upper half-plane fixes i
and sends eta = tan(a) to 0; in w = R_xi(g) the flow reads
dw = -(1 + w^2)/(2w) dt, so d(1 + w^2) = -(1 + w^2) dt and 1 + w^2 decays
exactly as e^{-t}.  One step of constant driving is therefore
w -> i sqrt((1 - e^{-dt}) - e^{-dt} w^2), a scaled backward chordal slit
step.  The rotations compose as angles, R_a o R_b = R_{a+b}, so the loop
never rotates back: it carries the state in the frame of the current
driving value, v_k = e^{-dt/2} R_{xi_k}(g_k), and the step's root
r_k = sqrt((1 - e^{-dt}) - v_k^2) moves on to the next frame by one Mobius
map, v_{k+1} = e^{-dt/2} R_{xi_{k+1} - xi_k}(i r_k).  After the loop one
numpy pass rotates every root back, g_{k+1} = R_{-xi_k}(i r_k).  A table
built once per path (:func:`_rotations`) holds the four coefficients of
each step's map as Python complex numbers and the cosines and sines of the
back-rotation as arrays.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
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
]

# Points whose slit-map discriminant (w-xi)^2 +- 4dt falls within this of the
# degenerate configuration are treated as absorbed / invalid.
EPS_SWALLOW = 1e-12

# Moduli for which slit_sqrt_vec takes the half-angle formula, and its
# constants; as 0-d arrays, since numpy 2 promotes a Python float operand
# anew on every ufunc call, a fixed cost the short calls of trace feel
_HALF_ANGLE_MIN = np.array(2.0 ** -1000)
_HALF_ANGLE_MAX = np.array(2.0 ** 1000)
_HALF = np.array(0.5)
_ZERO = np.array(0.0)


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
    """Elementwise square root of u with Im >= 0 (a complex128 array of at
    least one dimension); for real u >= 0 the sign of the real part follows
    ``re_hint`` (the sign of Re(w - xi), identity at infinity), an array of
    u's shape.  Returns a new array.

    When Im(u) != 0 there is exactly one root with positive imaginary part,
    so the hint only breaks the tie on the real axis.  An element with
    Im u != 0 and modulus d in [2^-1000, 2^1000] takes glibc csqrt's
    half-angle formula, in csqrt's operation order:
    t = sqrt(0.5*(d + |Re u|)) and q = 0.5*(|Im u| / t), and the root is
    (sign(Im u) t, q) when Re u > 0, else (sign(Im u) q, t).  d is numpy's
    complex modulus, not libm's hypot: a SIMD pass, far cheaper than a
    csqrt call per element, whose bits do not depend on the array's length
    or layout (a negatively strided u is read through a contiguous copy,
    as numpy takes hypot there).  It may differ from hypot in the
    last bit, and so may the root.  Below 2^-1000 the modulus is inexact
    for subnormal d, and above 2^1000 d + |Re u| nears overflow.  A tie on
    the negative half-axis takes the formula too, as there d = |Re u|
    exactly and q = +0 give the principal rule's bits.

    Every other element (a tie with Re u >= 0, a zero, a modulus out of
    that range, an inf or a NaN) keeps numpy's principal root (csqrt),
    negated where its Im < 0, or at a tie where the hint is negative; on
    those elements the formula's add and divide are masked, so they raise
    no flag.  Each element is selected by its own u, so its bits depend
    only on its own u and hint, never on the rest of the call; a call whose
    elements all take the formula only skips the masks.
    """
    re, im = u.real, u.imag
    d = np.abs(np.ascontiguousarray(u))   # a negative stride would take libm's hypot
    ok = (d >= _HALF_ANGLE_MIN) & (d <= _HALF_ANGLE_MAX)
    ok &= np.logical_or(im, re < _ZERO)   # Im u != 0 or Re u < 0
    all_ok = np.count_nonzero(ok) == ok.size
    where = True if all_ok else ok   # no flag from an element replaced below
    t = np.abs(re)
    np.add(t, d, out=t, where=where)
    t *= _HALF
    np.sqrt(t, out=t)
    q = np.abs(im, out=d)   # d is spent
    np.divide(q, t, out=q, where=where)
    q *= _HALF
    pos = re > _ZERO
    s = np.empty(u.shape, np.complex128)
    np.copysign(np.where(pos, t, q), im, out=s.real)
    s.imag = np.where(pos, q, t)
    if not all_ok:
        bad = ~ok
        p = np.sqrt(u[bad])
        pi = p.imag
        np.negative(p, out=p, where=(pi < _ZERO) | ((pi == _ZERO) & (re_hint[bad] < _ZERO)))
        s[bad] = p
    return s


def swallowed(v: np.ndarray, four_dt: float, disc: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the offsets v = w - xi whose forward (+4dt) step hits the
    driving singularity: v is purely imaginary with |v|^2 <= 4dt (the point
    sits on the closed slit); the tip itself has discriminant v^2 + 4dt = 0.
    ``disc``, if given, is that discriminant v*v + four_dt, already made.
    For four_dt >= 0 an offset with |v| <= EPS_SWALLOW is in the mask: the
    slit clause holds when four_dt >= EPS_SWALLOW^2, the discriminant
    clause below that."""
    if disc is None:
        disc = v * v + four_dt
    return (((np.abs(v.real) <= EPS_SWALLOW) & (v.imag ** 2 <= four_dt))
            | (np.abs(disc) <= EPS_SWALLOW))


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
    the value at its left endpoint; ``dt``, the capacity of a step, is
    positive and finite.  An empty chain is the identity.
    Instances are immutable (the driving values are copied into a private
    read-only array); evaluation at distinct points is freely concurrent.
    """

    direction: str
    driving_values: np.ndarray
    dt: float

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        vals = np.array(self.driving_values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "driving_values", vals)

    @property
    def n_steps(self) -> int:
        return len(self.driving_values) - 1


def evolve_forward(path: DrivingPath) -> LoewnerEvolution:
    """Forward chain for the given driving (one exact slit map per step)."""
    return LoewnerEvolution("forward", path.values, path.grid.dt)


def evolve_backward(path: DrivingPath) -> LoewnerEvolution:
    """Backward chain: maps H into H minus a growing slit."""
    return LoewnerEvolution("backward", path.values, path.grid.dt)


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


def apply_map(evo: LoewnerEvolution, z):
    """Image of z (a point or an array of points) under the whole chain.

    Forward direction raises :class:`SwallowedPointError` when an orbit hits
    the driving singularity.
    """
    return _orbit(evo, _upper(z), range(evo.n_steps), _step_constant(evo),
                  SwallowedPointError)


def apply_derivative(evo: LoewnerEvolution, z):
    """Derivative of the composed map at z (chain rule over the orbit)."""
    return _orbit(evo, _upper(z), range(evo.n_steps), _step_constant(evo),
                  SwallowedPointError, derivative=True)


def invert_map(evo: LoewnerEvolution, w):
    """Preimage of w under the whole chain.

    Step inverses are applied in reverse order; inverting a backward
    chain raises :class:`BranchViolationError` when an intermediate point
    falls outside the image domain (on a step's slit).
    """
    return _orbit(evo, w, range(evo.n_steps - 1, -1, -1), -_step_constant(evo),
                  BranchViolationError)


def trace(evo: LoewnerEvolution) -> np.ndarray:
    """Curve tip samples gamma_k = g_k^{-1}(xi_k) for a forward evolution
    (zipper evaluation): the inverse of step j, for j from last to first,
    moves every tip k > j, by :func:`_slit_step` with c = -4dt.  Unresolved
    tips are reported as nan+nan*1j."""
    if evo.direction != "forward":
        raise ValueError("trace is defined for forward evolutions")
    vals = evo.driving_values
    w = vals.astype(np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):   # a tip off the floats is NaN below
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


def _times_i(x: np.ndarray) -> np.ndarray:
    """i*x as complex128, with real part +0.0."""
    out = np.zeros(x.shape, np.complex128)
    out.imag = x
    return out


@functools.lru_cache(maxsize=1)
def _rotations(path: DrivingPath) -> tuple[tuple[list[complex], ...], tuple[np.ndarray, ...]]:
    """The path's radial table, built once for the most recent path.  The
    cache keys on the path's identity (DrivingPath compares by identity) and
    holds that one path alive, so no later path can take its address.

    With s = e^{-dt/2} and d_k = xi_{k+1} - xi_k, the first part holds the
    coefficients of v -> (r*A - B)/(r*C + D) = s R_{d_k}(i r) as Python
    complex lists: A = i s cos d, B = s sin d, C = i sin d, D = cos d (the
    last map, into the frame of the final grid value, feeds no state).  The
    second holds the complex128 arrays i cos xi_k, i sin xi_k, cos xi_k and
    sin xi_k of the steps, which rotate the roots back.  Every entry is i*x
    or x for a real x, with a +0.0 real or imaginary part."""
    s = math.exp(-0.5 * path.grid.dt)
    xi = path.values[:-1]
    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite xi gives NaN states
        d = np.diff(path.values)
        cd, sd = np.cos(d), np.sin(d)
        cos, sin = np.cos(xi), np.sin(xi)
    step = (_times_i(s * cd), (s * sd).astype(np.complex128), _times_i(sd),
            cd.astype(np.complex128))
    back = (_times_i(cos), _times_i(sin), cos.astype(np.complex128),
            sin.astype(np.complex128))
    return tuple(a.tolist() for a in step), back


def evolve_wholeplane(path: DrivingPath, z0: complex = 1j) -> RadialEvolution:
    """Flow z0 by dg = -(1+g^2)/2 * (1+eta*g)/(g-eta) dt, eta = tan(xi),
    with the exact one-step map of the module docstring.  The principal
    root puts every state in the closed upper half-plane.

    Since R_a o R_b = R_{a+b}, the loop carries v_k = e^{-dt/2}
    R_{xi_k}(g_k), starting from the rotation of z0 by xi_0, and costs one
    square root and one Mobius map per step, with Python complex operands
    from :func:`_rotations` (hit by repeated calls on one path).  The roots
    r_k are written into the states and rotated back in place to
    g_{k+1} = R_{-xi_k}(i r_k) by a few numpy passes."""
    z0 = complex(z0)
    if not (math.isfinite(z0.real) and math.isfinite(z0.imag) and z0.imag > 0.0):
        raise ValueError(f"initial point {z0} must be finite, in the open upper half-plane")
    dt = path.grid.dt
    p = complex(-math.expm1(-dt))
    (a, b, c, d), (icos, isin, cos, sin) = _rotations(path)
    c0, s0 = float(cos[0].real), float(sin[0].real)
    v = math.exp(-0.5 * dt) * (z0 * c0 - s0) / (z0 * s0 + c0)
    sqrt = cmath.sqrt   # looked up per call, so a patched cmath takes effect
    roots = []
    append = roots.append
    for ak, bk, ck, dk in zip(a, b, c, d):
        r = sqrt(p - v * v)
        append(r)
        v = (r * ak - bk) / (r * ck + dk)
    states = np.empty(len(roots) + 1, dtype=np.complex128)
    states[0] = z0
    r = states[1:]
    r[:] = roots
    # a NaN or inf root makes every later v NaN, the last one too, so a
    # finite v means finite roots, whose rotation raises no flag
    finite = math.isfinite(v.real) and math.isfinite(v.imag)
    with contextlib.nullcontext() if finite else np.errstate(invalid="ignore"):
        num = r * icos
        num += sin
        den = r * isin
        np.subtract(cos, den, out=den)
        np.divide(num, den, out=r)
    return RadialEvolution(states, path)
