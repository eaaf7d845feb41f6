import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from revsle.driving import (DrivingPath, TimeGrid, explicit_path,
                            normal_increment, path_to_csv, quadratic_variation,
                            raw_normals, reverse_driving, sample_brownian)


def test_grid_times_are_k_T_over_n():
    g = TimeGrid(0.7, 7)
    ts = g.times()
    assert ts[0] == 0.0
    for k in range(8):
        assert ts[k] == k * 0.7 / 7
    assert g.time(7) == pytest.approx(0.7, abs=0.0)
    assert g.dt == 0.7 / 7


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError):
            TimeGrid(horizon, 10)


def test_sample_starts_at_zero_and_has_right_length():
    p = sample_brownian(TimeGrid(1.0, 50), 3.0, 123)
    assert p.values[0] == 0.0
    assert len(p.values) == 51
    assert p.origin == "sampled"


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


def reference_normals(seed, n):
    """The module docstring's recipe on a fresh generator for every call."""
    raw = Philox(key=seed % 2**128).random_raw(n)
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


STREAM_SEEDS = [0, 1, 2**64 - 1, 2**64, 2**127 + 5, 2**128 + 3, -7]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_raw_normals_match_fresh_philox(seed):
    assert np.array_equal(raw_normals(seed, 500), reference_normals(seed, 500))


def test_raw_normals_leave_no_state_after_odd_lengths():
    # 13 and 7 words leave a part-used block of four in the generator
    for n in (13, 7, 13, 1, 6):
        for seed in STREAM_SEEDS:
            assert np.array_equal(raw_normals(seed, n), reference_normals(seed, n))


def test_raw_normals_match_under_interleaving_threads():
    seeds = [s * 2**61 + s for s in range(64)]
    expected = [reference_normals(s, 13 + s % 5) for s in seeds]
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(lambda s: raw_normals(s, 13 + s % 5), seeds))
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_normal_increment_matches_stream():
    for seed in (31415, 2**64 + 9, -7):
        zs = reference_normals(seed, 14)
        for k in range(14):
            assert normal_increment(seed, k) == zs[k]


def test_reverse_explicit_values():
    g = TimeGrid(1.0, 2)
    p = explicit_path(g, 1.0, [0.0, 1.0, 3.0])
    r = reverse_driving(p)
    assert list(r.values) == [3.0, 1.0, 0.0]
    assert r.origin == "reversed"


def test_reverse_is_involution():
    p = sample_brownian(TimeGrid(1.0, 33), 2.0, 5)
    rr = reverse_driving(reverse_driving(p))
    assert np.array_equal(rr.values, p.values)


def test_reverse_starts_at_terminal_value():
    p = sample_brownian(TimeGrid(1.0, 20), 3.0, 9)
    r = reverse_driving(p)
    assert r.values[0] == p.values[-1]


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


def test_path_length_validation():
    with pytest.raises(ValueError):
        DrivingPath(TimeGrid(1.0, 3), 1.0, np.zeros(3), 0, "explicit")


def test_csv_round_shape():
    p = sample_brownian(TimeGrid(0.5, 4), 2.0, 77)
    lines = path_to_csv(p).decode().split("\n")
    assert lines[0] == "t,xi"
    assert len(lines) == 7 and lines[-1] == ""
    t0, x0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(x0) == 0.0
    # every value comes back bitwise: fields are repr() of Python floats
    assert [float(line.split(",")[1]) for line in lines[1:-1]] == p.values.tolist()
