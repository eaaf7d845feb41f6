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
