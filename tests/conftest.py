import math

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
