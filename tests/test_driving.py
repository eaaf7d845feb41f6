import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from revsle.driving import (DrivingPath, TimeGrid, explicit_path, raw_normals,
                            sample_brownian)


def quadratic_variation(path):
    """Sum of squared increments; estimates kappa*T for Brownian driving."""
    return float(np.sum(np.square(np.diff(path.values))))


def test_grid_times_are_k_T_over_n():
    g = TimeGrid(0.7, 7)
    ts = g.times()
    assert ts[0] == 0.0
    for k in range(8):
        assert ts[k] == k * 0.7 / 7
    assert g.times()[-1] == 0.7
    assert g.dt == 0.7 / 7


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError):
            TimeGrid(horizon, 10)


@pytest.mark.parametrize("horizon,n_steps", [(5e-324, 2), (5e-324, 3), (1e-320, 10**6)])
def test_grid_rejects_a_step_that_underflows_to_zero(horizon, n_steps):
    assert horizon / n_steps == 0.0
    with pytest.raises(ValueError, match=f"^horizon / n_steps = {horizon} / {n_steps} is 0$"):
        TimeGrid(horizon, n_steps)


def test_grid_keeps_the_smallest_steps():
    # a subnormal step is still a step
    for horizon, n_steps in ((5e-324, 1), (1e-320, 1000)):
        assert TimeGrid(horizon, n_steps).dt > 0.0


def test_sample_starts_at_zero_and_has_right_length():
    p = sample_brownian(TimeGrid(1.0, 50), 3.0, 123)
    assert p.values[0] == 0.0
    assert len(p.values) == 51


def test_sample_is_deterministic_bitwise():
    g = TimeGrid(2.0, 100)
    p1 = sample_brownian(g, 2.5, 987654321)
    p2 = sample_brownian(g, 2.5, 987654321)
    assert np.array_equal(p1.values, p2.values)


def test_sample_rejects_bad_kappa():
    with pytest.raises(ValueError):
        sample_brownian(TimeGrid(1.0, 10), 0.0, 1)
    with pytest.raises(ValueError):
        sample_brownian(TimeGrid(1.0, 10), -2.0, 1)
    with pytest.raises(ValueError):
        sample_brownian(TimeGrid(1.0, 10), math.inf, 1)
    with pytest.raises(ValueError):
        explicit_path(TimeGrid(1.0, 2), math.inf, [0.0, 0.0, 0.0])


def test_single_step_increment_variance():
    # one step of T=1: increment variance is kappa*dt = 4
    g = TimeGrid(1.0, 1)
    m = 100_000
    finals = np.array([sample_brownian(g, 4.0, s).values[-1] for s in range(m)])
    var = finals.var(ddof=1)
    se = 4.0 * math.sqrt(2.0 / (m - 1))
    assert abs(var - 4.0) <= 3.0 * se


def test_terminal_variance_kappa_2():
    # Var xi_T = kappa*T = 2; sample variance concentrates within 3 SE
    g = TimeGrid(1.0, 1)
    m = 100_000
    finals = np.array([sample_brownian(g, 2.0, s + 7_000_000).values[-1]
                       for s in range(m)])
    var = finals.var(ddof=1)
    se = 2.0 * math.sqrt(2.0 / (m - 1))
    assert abs(var - 2.0) <= 3.0 * se


def test_scaling_in_sqrt_kappa():
    # raw normals do not depend on kappa, so path(c^2) = c * path(1);
    # exact for power-of-two c (scaling commutes with rounding), 1 ulp else
    g = TimeGrid(1.0, 64)
    base = sample_brownian(g, 1.0, 42)
    assert np.array_equal(sample_brownian(g, 4.0, 42).values, 2.0 * base.values)
    by3 = sample_brownian(g, 9.0, 42).values
    np.testing.assert_allclose(by3, 3.0 * base.values, rtol=0.0, atol=1e-13)


def reference_normals(seed, n, index=0, leg=0):
    """The module docstring's recipe on a fresh generator for every call."""
    counter = index * 2**128 + leg * 2**192
    return Generator(Philox(key=seed % 2**128, counter=counter)).standard_normal(n)


STREAM_SEEDS = [0, 1, 2**64 - 1, 2**64, 2**127 + 5, 2**128 + 3, -7]
# (index, leg) pairs: the first stream, a composed backward leg, and the
# largest index and leg, each alone in its counter word
STREAMS = [(0, 0), (3, 1), (2**64 - 1, 0), (5, 2**64 - 1)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_raw_normals_match_fresh_philox(seed):
    assert np.array_equal(raw_normals(seed, 500), reference_normals(seed, 500))
    for index, leg in STREAMS:
        assert np.array_equal(raw_normals(seed, 500, index, leg),
                              reference_normals(seed, 500, index, leg))


def test_raw_normals_leave_no_state_after_odd_lengths():
    # 13 and 7 normals leave a part-used block of four words in the generator
    for n in (13, 7, 13, 1, 6):
        for seed in STREAM_SEEDS:
            for index, leg in STREAMS:
                assert np.array_equal(raw_normals(seed, n, index, leg),
                                      reference_normals(seed, n, index, leg))


def test_raw_normals_match_under_interleaving_threads():
    streams = [(s * 2**61 + s, s % 7, s % 2) for s in range(64)]
    expected = [reference_normals(s, 13 + s % 5, i, leg) for s, i, leg in streams]
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(lambda st: raw_normals(st[0], 13 + st[0] % 5, st[1], st[2]),
                          streams))
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_raw_normals_prefix_does_not_depend_on_length():
    # the ziggurat may take more than one word for a normal, but the first m
    # normals of a stream are the same however many more are drawn
    for seed, index, leg in ((31415, 0, 0), (2**64 + 9, 17, 1), (-7, 2**64 - 1, 0)):
        zs = raw_normals(seed, 2000, index, leg)
        for m in (0, 1, 3, 4, 5, 13, 1999):
            assert np.array_equal(raw_normals(seed, m, index, leg), zs[:m])


def test_sample_brownian_index_selects_the_stream():
    g = TimeGrid(0.5, 30)
    for seed, index in ((0, 0), (7, 1), (2**64, 4099)):
        z = reference_normals(seed, 30, index)
        expected = np.concatenate([[0.0], np.cumsum(np.sqrt(2.0 * g.dt) * z)])
        assert np.array_equal(sample_brownian(g, 2.0, seed, index=index).values, expected)


def test_quadratic_variation_explicit():
    p = explicit_path(TimeGrid(1.0, 2), 7.0, [0.0, 1.0, 0.0])
    assert quadratic_variation(p) == 2.0


@pytest.mark.parametrize("kappa", [1.0, 4.0])
def test_quadratic_variation_concentrates(kappa):
    # QV of sqrt(kappa) B over [0,1] ~ kappa with chi-square sd sqrt(2/n)*kappa
    n = 10_000
    p = sample_brownian(TimeGrid(1.0, n), kappa, 2024)
    qv = quadratic_variation(p)
    assert abs(qv - kappa) <= 5.0 * math.sqrt(2.0 / n) * kappa


def test_mean_qv_over_ensemble():
    m, n, kappa, horizon = 200, 400, 3.0, 2.0
    ratios = [quadratic_variation(sample_brownian(TimeGrid(horizon, n), kappa, s))
              / (kappa * horizon) for s in range(m)]
    assert abs(np.mean(ratios) - 1.0) <= 5.0 / math.sqrt(m * n)


def test_sampling_is_order_independent_across_threads():
    g = TimeGrid(1.0, 40)
    seeds = list(range(64))
    serial = [sample_brownian(g, 2.0, s).values for s in seeds]
    with ThreadPoolExecutor(max_workers=8) as ex:
        threaded = list(ex.map(lambda s: sample_brownian(g, 2.0, s).values, seeds))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_values_are_read_only():
    p = sample_brownian(TimeGrid(1.0, 10), 1.0, 0)
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_explicit_path_copies_the_callers_array():
    v = np.zeros(3)
    p = explicit_path(TimeGrid(1.0, 2), 1.0, v)
    assert p.values is not v and v.flags.writeable
    v[0] = 1.0   # the caller's array stays theirs to write
    assert p.values.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_explicit_path_of_a_view_does_not_follow_its_base():
    b = np.arange(3.0)
    p = explicit_path(TimeGrid(1.0, 2), 1.0, b[::-1])
    assert not np.shares_memory(p.values, b)
    b[0] = 9.0
    assert p.values.tolist() == [2.0, 1.0, 0.0]


def test_path_length_validation():
    with pytest.raises(ValueError):
        DrivingPath(TimeGrid(1.0, 3), 1.0, np.zeros(3))
