"""Exact Verma-module calculator for the level-2 degenerate representation.

Vectors live in the PBW basis L_{-lam_1} ... L_{-lam_k} |h>, indexed by the
partition (lam_1 >= ... >= lam_k >= 1), with exact rational coefficients.
Applying a mode L_n straightens the result back into the basis with the
Virasoro bracket

    [L_m, L_n] = (m - n) L_{m+n} + c/12 * m (m^2 - 1) delta_{m+n,0}

and the highest-weight rules L_n |h> = 0 (n >= 1), L_0 |h> = h |h>.

Everything here is exact: kappa must be rational, and no floats appear in
any computation.  Levels are capped at 4, enough for the level-2 null
vectors and the mixed-level images of (L_{-1}+L_1)^2 / 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from .cft import CftParams, kac_dimension, params_from_kappa

__all__ = [
    "MAX_LEVEL",
    "DecompositionError",
    "VermaVector",
    "vacuum",
    "l_action",
    "level2_candidate",
    "is_level2_singular",
    "null_vector_12",
    "null_vector_21",
    "w_eigenvalue",
    "WEigenvalue",
]

MAX_LEVEL = 4

Partition = Tuple[int, ...]
Rational = Union[int, Fraction]


class DecompositionError(Exception):
    """A vector expected in span{|h>, null vector} was not."""


def _check_partition(p: Partition) -> None:
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition must be non-increasing: {p}")
    if sum(p) > MAX_LEVEL:
        raise ValueError(f"level {sum(p)} exceeds cap {MAX_LEVEL}")


class VermaVector:
    """Exact-rational element of the Verma module with highest weight h,
    central charge c.  Mixed-level combinations are allowed (the raising
    part of W-type operators produces them)."""

    __slots__ = ("coeffs", "h", "c")

    def __init__(self, coeffs: Dict[Partition, Rational], h: Rational, c: Rational):
        self.h = Fraction(h)
        self.c = Fraction(c)
        clean: Dict[Partition, Fraction] = {}
        for part, co in coeffs.items():
            part = tuple(part)
            _check_partition(part)
            co = Fraction(co)
            if co:
                clean[part] = co
        self.coeffs = clean

    # -- structural queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def levels(self) -> set[int]:
        return {sum(p) for p in self.coeffs}

    def coefficient(self, partition: Partition) -> Fraction:
        return self.coeffs.get(tuple(partition), Fraction(0))

    # -- linear algebra -----------------------------------------------------
    def _compatible(self, other: "VermaVector") -> None:
        if self.h != other.h or self.c != other.c:
            raise ValueError("vectors live in different modules")

    def __add__(self, other: "VermaVector") -> "VermaVector":
        self._compatible(other)
        out = dict(self.coeffs)
        for p, co in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + co
        return VermaVector(out, self.h, self.c)

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + other.scale(-1)

    def scale(self, factor: Rational) -> "VermaVector":
        f = Fraction(factor)
        return VermaVector({p: co * f for p, co in self.coeffs.items()}, self.h, self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.h == other.h and self.c == other.c and self.coeffs == other.coeffs


def vacuum(h: Rational, c: Rational) -> VermaVector:
    """The highest-weight vector |h>."""
    return VermaVector({(): Fraction(1)}, h, c)


def _add_to(acc: Dict[Partition, Fraction], part: Partition, co: Fraction) -> None:
    if co:
        acc[part] = acc.get(part, Fraction(0)) + co


def _act(n: int, part: Partition, h: Fraction, c: Fraction) -> Dict[Partition, Fraction]:
    """L_n applied to the basis monomial indexed by ``part``."""
    if not part:
        if n > 0:
            return {}
        if n == 0:
            return {(): h} if h else {}
        return {(-n,): Fraction(1)}
    lam, rest = part[0], part[1:]
    if n < 0 and -n >= lam:
        return {(-n,) + part: Fraction(1)}
    # straighten: L_n L_{-lam} = L_{-lam} L_n + (n+lam) L_{n-lam}
    #                            + delta_{n,lam} c/12 n(n^2-1)
    out: Dict[Partition, Fraction] = {}
    for p, co in _act(n, rest, h, c).items():
        for q, co2 in _prefix(lam, p, h, c).items():
            _add_to(out, q, co * co2)
    factor = Fraction(n + lam)
    if factor:
        for p, co in _act(n - lam, rest, h, c).items():
            _add_to(out, p, co * factor)
    if n == lam:
        central = c * Fraction(n * (n * n - 1), 12)
        if central:
            _add_to(out, rest, central)
    return out


def _prefix(lam: int, part: Partition, h: Fraction, c: Fraction) -> Dict[Partition, Fraction]:
    # multiply by L_{-lam} on the left, restoring PBW order
    if not part or lam >= part[0]:
        return {(lam,) + part: Fraction(1)}
    return _act(-lam, part, h, c)


def l_action(n: int, v: VermaVector) -> VermaVector:
    """Apply the Virasoro mode L_n to v (exact)."""
    out: Dict[Partition, Fraction] = {}
    for part, co in v.coeffs.items():
        for p, co2 in _act(n, part, v.h, v.c).items():
            _add_to(out, p, co * co2)
    return VermaVector(out, v.h, v.c)


def level2_candidate(b_squared: Rational, h: Rational, c: Rational) -> VermaVector:
    """(b^2 L_{-1}^2 + L_{-2}) |h> for arbitrary weight (used to probe
    genericity: only the degenerate weight makes it singular)."""
    v = vacuum(h, c)
    l1sq = l_action(-1, l_action(-1, v))
    return l1sq.scale(b_squared) + l_action(-2, v)


def is_level2_singular(n: VermaVector) -> bool:
    """A level-2 descendant is singular iff L_1 and L_2 kill it."""
    return l_action(1, n).is_zero() and l_action(2, n).is_zero()


def _exact_params(kappa: Rational, sector: str) -> CftParams:
    if isinstance(kappa, float):
        raise TypeError("exact module: kappa must be int or Fraction, not float")
    return params_from_kappa(Fraction(kappa), sector)


def null_vector_12(kappa: Rational, sector: str) -> tuple[VermaVector, bool]:
    """(b^2 L_{-1}^2 + L_{-2}) |h_{(1,2)}> and whether it is singular."""
    p = _exact_params(kappa, sector)
    n = level2_candidate(p.b_squared, kac_dimension(p, 1, 2), p.c)
    return n, is_level2_singular(n)


def null_vector_21(kappa: Rational, sector: str) -> tuple[VermaVector, bool]:
    """((1/b^2) L_{-1}^2 + L_{-2}) |h_{(2,1)}> and whether it is singular."""
    p = _exact_params(kappa, sector)
    n = level2_candidate(1 / p.b_squared, kac_dimension(p, 2, 1), p.c)
    return n, is_level2_singular(n)


@dataclass(frozen=True)
class WEigenvalue:
    eigenvalue: Fraction
    mu: Fraction          # coefficient of the (1,2) null vector in the image
    matches_formula: bool  # eigenvalue == -(2+kappa)(6+kappa)/(8 kappa)


def w_eigenvalue(kappa: Rational) -> WEigenvalue:
    """Eigenvalue of 2 W_{-2} + (kappa/2) W_{-1}^2 on |h_{(1,2)}>, modulo the
    null vector, with W_{-1} = (L_{-1}+L_1)/2 and W_{-2} = (L_0+L_{-2})/4.

    The image decomposes exactly as lambda |h> + mu N with mu = 1/2; lambda
    is returned.  Raises DecompositionError if the image is not in
    span{|h>, N} (which would indicate an algebra bug).
    """
    null, singular = null_vector_12(kappa, "liouville")   # checks kappa
    if not singular:
        raise DecompositionError(f"(1,2) vector not singular at kappa={kappa}")
    k, h, c = Fraction(kappa), null.h, null.c
    v0 = vacuum(h, c)

    def w_minus1(u: VermaVector) -> VermaVector:
        return (l_action(-1, u) + l_action(1, u)).scale(Fraction(1, 2))

    def w_minus2(u: VermaVector) -> VermaVector:
        return (l_action(0, u) + l_action(-2, u)).scale(Fraction(1, 4))

    image = w_minus2(v0).scale(2) + w_minus1(w_minus1(v0)).scale(k / 2)

    mu = image.coefficient((2,)) / null.coefficient((2,))
    remainder = image - null.scale(mu)
    lam = remainder.coefficient(())
    if not (remainder - v0.scale(lam)).is_zero():
        raise DecompositionError(
            f"image not in span of highest-weight vector and null vector at kappa={k}")
    return WEigenvalue(lam, mu, lam == -(2 + k) * (6 + k) / (8 * k))
