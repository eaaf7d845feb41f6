import math

import numpy as np
import pytest

import revsle.montecarlo


@pytest.fixture
def nan_in_sample_1(monkeypatch):
    """Call it to make every batched slit-map root of sample 1, point 0 a NaN
    in the ensemble engines (sample 1, not 0: a NaN in first place survives
    even a max() that skips NaNs)."""
    original = revsle.montecarlo.slit_sqrt_vec

    def poisoned(u, re_hint):
        out = original(u, re_hint)
        out[1, 0] = complex(math.nan, math.nan)
        return out

    return lambda: monkeypatch.setattr(revsle.montecarlo, "slit_sqrt_vec", poisoned)


@pytest.fixture
def nonfinite_driving(monkeypatch):
    """Call it to make normal 50 of sample 5 +inf and of sample 9 NaN in the
    ensemble engines' driving streams."""
    original = revsle.montecarlo.raw_normals

    def poisoned(seed, n, index=0, leg=0):
        z = original(seed, n, index, leg)
        if index in (5, 9):
            z[50] = math.inf if index == 5 else math.nan
        return z

    return lambda: monkeypatch.setattr(revsle.montecarlo, "raw_normals", poisoned)


def _written_out_root(u, re_hint):
    """The slit root written out on fresh arrays.  Where Im u != 0 and
    2^-1000 <= |u| <= 2^1000: glibc csqrt's half-angle formula on numpy's
    modulus, t = sqrt(0.5*(|u| + |Re u|)) and q = 0.5*(|Im u| / t), the
    root being (sign(Im u) t, q) for Re u > 0 and (sign(Im u) q, t)
    otherwise.  Elsewhere: numpy's principal root, negated where Im < 0, or
    where Im = +-0 and the hint is negative."""
    u = np.array(u, dtype=np.complex128)
    re, im, d = u.real.copy(), u.imag.copy(), np.abs(u)
    with np.errstate(all="ignore"):   # the formula meets zeros, infs and NaNs it does not take
        t = np.sqrt(0.5 * (d + np.abs(re)))
        q = 0.5 * (np.abs(im) / t)
        p = np.sqrt(u)
    formula = np.empty(u.shape, np.complex128)
    formula.real = np.copysign(np.where(re > 0.0, t, q), im)
    formula.imag = np.where(re > 0.0, q, t)
    rule = np.where((p.imag < 0.0) | ((p.imag == 0.0) & (re_hint < 0.0)), -p, p)
    takes_formula = (im != 0.0) & (d >= 2.0 ** -1000) & (d <= 2.0 ** 1000)
    return np.where(takes_formula, formula, rule)


@pytest.fixture
def written_out_root():
    """The reference :func:`revsle.loewner.slit_sqrt_vec` must match bit for
    bit, as a function of (u, re_hint)."""
    return _written_out_root
