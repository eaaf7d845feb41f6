"""Parameter dictionary between SLE and the generalized Liouville family.

The coupling constant b enters every formula only through b^2, so both
sectors are handled with real (or exact rational) arithmetic:

    liouville:  b^2 = +kappa/4        (real b, c >= 25 territory)
    matter:     b^2 = -kappa/4        (b -> i*b, the dual sector)

    Q^2 = b^2 + 2 + 1/b^2
    c   = 1 + 6 Q^2
    h_{(r,s)} = [ (1 - r^2) b^2 + 2(1 - r s) + (1 - s^2)/b^2 ] / 4

The last line is the fully expanded form of alpha (Q - alpha) with
alpha = Q/2 - (b r + s/b)/2.  Since Q_L^2 + Q_M^2 = 4 identically, the two
central charges always satisfy c_L + c_M = 26.

Exact mode: pass kappa as int or fractions.Fraction and every derived
quantity is an exact rational; pass a float and everything is float, and
a float kappa whose b^2 underflows to 0 or whose Q^2 or c overflows raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

__all__ = [
    "CftParams",
    "params_from_kappa",
    "kac_dimension",
    "kac_alpha",
    "coupling_check",
]

Number = Union[int, float, Fraction]

_SECTORS = ("liouville", "matter")


@dataclass(frozen=True)
class CftParams:
    """Sector data derived from kappa.  Values are Fraction in exact mode."""

    sector: str
    b_squared: Number
    q_squared: Number
    c: Number

    def __post_init__(self):
        if self.sector == "liouville" and not self.b_squared > 0:
            raise ValueError("liouville sector requires b^2 > 0")
        if self.sector == "matter" and not self.b_squared < 0:
            raise ValueError("matter sector requires b^2 < 0")


def _coerce(kappa: Number) -> Number:
    """int / Fraction -> Fraction (exact mode), float -> float."""
    if isinstance(kappa, bool):
        raise TypeError("kappa must be a number")
    if isinstance(kappa, (int, Fraction)):
        return Fraction(kappa)
    return float(kappa)


def params_from_kappa(kappa: Number, sector: str) -> CftParams:
    """Fill (b^2, Q^2, c) for the given sector; b^2 = +-kappa/4."""
    if sector not in _SECTORS:
        raise ValueError(f"sector must be one of {_SECTORS}, got {sector!r}")
    k = _coerce(kappa)
    if not k > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    b2 = k / 4 if sector == "liouville" else -k / 4
    if b2 == 0:   # kappa/4 underflows at the least subnormal kappas
        raise ValueError(f"kappa/4 underflows to 0 at kappa={kappa}")
    q2 = b2 + 2 + 1 / b2
    c = 1 + 6 * q2
    # floats only: an exact c is never inf, and math.isfinite overflows on a
    # huge Fraction; 1/b^2 overflows at a subnormal kappa/4, 6 Q^2 below
    # kappa ~ 1.3e-307 and above kappa ~ 1.2e308
    if isinstance(c, float) and not math.isfinite(c):
        raise ValueError(f"Q^2 or c overflows at kappa={kappa}")
    return CftParams(sector, b2, q2, c)


def kac_dimension(params: CftParams, r: int, s: int) -> Number:
    """Degenerate weight h_{(r,s)}, evaluated through b^2 only."""
    if r < 1 or s < 1:
        raise ValueError(f"Kac labels are positive integers, got {(r, s)}")
    b2 = params.b_squared
    num = (1 - r * r) * b2 + 2 * (1 - r * s) + (1 - s * s) / b2
    return num / 4


def kac_alpha(params: CftParams, r: int, s: int):
    """Charge alpha_{(r,s)} = Q/2 - (b r + s/b)/2.

    Real in the liouville sector; purely imaginary b makes it complex in the
    matter sector (only h, which is even in the relevant combination, stays
    real there).
    """
    if r < 1 or s < 1:
        raise ValueError(f"Kac labels are positive integers, got {(r, s)}")
    b2 = float(params.b_squared)
    b = complex(b2, 0.0) ** 0.5
    q = b + 1 / b
    alpha = q / 2 - (b * r + s / b) / 2
    if abs(alpha.imag) < 1e-15:
        return alpha.real
    return alpha


class CouplingCheck(NamedTuple):
    c_liouville: Number
    c_matter: Number
    total: Number


def coupling_check(kappa: Number) -> CouplingCheck:
    """Central charges of both sectors at the same kappa; total is 26
    identically (Q_L^2 + Q_M^2 = 4)."""
    c_l = params_from_kappa(kappa, "liouville").c
    c_m = params_from_kappa(kappa, "matter").c
    return CouplingCheck(c_l, c_m, c_l + c_m)
