import cmath
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from revsle import loewner
from revsle.driving import TimeGrid, explicit_path, sample_brownian
from revsle.loewner import (EPS_SWALLOW, BranchViolationError, LoewnerEvolution,
                            SwallowedPointError,
                            apply_derivative, apply_map,
                            evolve_backward,
                            evolve_forward, evolve_wholeplane, invert_map,
                            slit_sqrt_vec, swallowed, trace)


def zero_path(horizon, n, kappa=4.0):
    return explicit_path(TimeGrid(horizon, n), kappa, np.zeros(n + 1))


def empty_chains():
    """Chains of no steps, one per direction: one driving value, which no
    map reads."""
    return [LoewnerEvolution(direction, [0.7], 0.25) for direction in ("forward", "backward")]


# --- branch of the square root ----------------------------------------------

def test_slit_sqrt_picks_upper_half_plane_root():
    u = np.array([1 + 2j, -3 + 0.5j, 2 - 1j, -1 - 1j])
    s = slit_sqrt_vec(u, np.ones(u.size))
    assert np.all(s.imag >= 0.0)
    assert np.all(np.abs(s * s - u) < 1e-14 * np.abs(u))


def test_slit_sqrt_real_positive_uses_hint():
    s = slit_sqrt_vec(np.array([4.0 + 0j, 4.0 + 0j]), np.array([1.0, -1.0]))
    assert s[0] == 2.0 and s[1] == -2.0


def test_slit_sqrt_real_negative_is_upper_imaginary():
    s = slit_sqrt_vec(np.array([-4.0 + 0j, -4.0 + 0j]), np.array([1.0, -1.0]))
    assert s[0] == 2j and s[1] == 2j


def test_slit_sqrt_small_component_is_accurate():
    u = np.array([1 + 1e-10j, -1 + 1e-10j])
    s = slit_sqrt_vec(u, np.ones(2))
    assert np.all(np.abs(s - np.sqrt(u)) <= 1e-15)


def negate_where_broken(u, re_hint):
    """The sign rule as one numpy expression: negate the principal root where
    Im < 0, or where Im = +-0 and the hint is negative."""
    s = np.sqrt(u)
    return np.where((s.imag < 0.0) | ((s.imag == 0.0) & (re_hint < 0.0)), -s, s)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.complex128
    assert np.array_equal(np.atleast_1d(a).view(np.uint64), np.atleast_1d(b).view(np.uint64))


def complex_grid(values):
    """Every (re, im) pair of the values, set component by component, so a
    -0.0 or a negative NaN keeps its sign bit."""
    re, im = np.meshgrid(values, values, indexing="ij")
    u = np.empty(re.size, np.complex128)
    u.real, u.imag = re.ravel(), im.ravel()
    return u


SPECIAL = [0.0, -0.0, 1e-310, -1e-310, 1.0, -1.0, 2.5, -2.5, 1e308, -1e308,
           math.inf, -math.inf, math.nan, -math.nan]


@pytest.mark.parametrize("hint", [1.0, -1.0, 0.0, -0.0])
def test_slit_sqrt_bits_equal_the_negation_rule_on_special_values(hint):
    u = complex_grid(SPECIAL)
    hints = np.full(u.size, hint)
    with np.errstate(all="ignore"):
        assert_same_bits(slit_sqrt_vec(u, hints), negate_where_broken(u, hints))
        # a call without any real-axis tie takes the in-place passes
        off_axis = u[np.sqrt(u).imag != 0.0]
        assert_same_bits(slit_sqrt_vec(off_axis, hints[:off_axis.size]),
                         negate_where_broken(off_axis, hints[:off_axis.size]))


def test_slit_sqrt_bits_equal_the_negation_rule_on_random_values():
    rng = np.random.default_rng(17)
    n = 100_000
    u = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n) + 1j * rng.normal(size=n)
    u[::7] = u[::7].real                  # 1 in 7 exactly real
    hints = rng.normal(size=n)
    hints[::5] = 0.0
    assert_same_bits(slit_sqrt_vec(u, hints), negate_where_broken(u, hints))
    off = u[1::7]                         # no ties: the in-place passes
    assert_same_bits(slit_sqrt_vec(off, hints[1::7]), negate_where_broken(off, hints[1::7]))
    # a (span, points) block with a 2-D hint, as the ensemble legs pass it
    block, block_hints = u[:6000].reshape(2000, 3), hints[:6000].reshape(2000, 3)
    assert_same_bits(slit_sqrt_vec(block, block_hints), negate_where_broken(block, block_hints))
    v = rng.normal(size=(2000, 12)) + 1j * rng.uniform(0.1, 2.0, (2000, 12))
    assert_same_bits(slit_sqrt_vec(v * v - 0.004, v.real), negate_where_broken(v * v - 0.004, v.real))


@pytest.mark.parametrize("u", [4.0 + 0j, complex(4.0, -0.0), -4.0 + 0j, 1.0 - 2.0j, 0j])
@pytest.mark.parametrize("hint", [1.0, -1.0])
def test_slit_sqrt_takes_a_0d_point_with_a_scalar_hint(u, hint):
    out = slit_sqrt_vec(np.array(u), hint)
    assert isinstance(out, np.ndarray) and out.ndim == 0
    assert_same_bits(out, negate_where_broken(np.array(u), hint))


def test_slit_sqrt_returns_a_new_array():
    u = np.array([1.0 + 1j, 2.0 - 1j])
    kept = u.copy()
    s = slit_sqrt_vec(u, np.ones(2))
    assert s is not u and not np.shares_memory(s, u)
    assert_same_bits(u, kept)


def mp_slit_root(u, hint):
    """The slit root of an mpmath number: the root with Im >= 0, and on the
    real axis the one whose real part has the sign of the hint."""
    s = mpmath.sqrt(u)
    return -s if s.imag < 0 or (s.imag == 0 and (s.real < 0) != (hint < 0)) else s


def test_slit_sqrt_vec_matches_mpmath():
    rng = np.random.default_rng(3)
    u = rng.normal(size=400) + 1j * rng.normal(size=400)
    u[:50] = rng.normal(size=50)          # exact reals of both signs
    u[50:60] = 0.0
    u[60] = complex(-4.0, -0.0)
    re = rng.normal(size=40)              # |Im u| / |Re u| = 1e-10 and 1e-16
    u[100:140] = re + 1j * re * rng.choice([1e-10, -1e-10, 1e-16, -1e-16], size=40)
    hints = rng.normal(size=400)
    vec = slit_sqrt_vec(u, hints)
    with mpmath.workdps(50):
        ref = np.array([complex(mp_slit_root(mpmath.mpc(a), h)) for a, h in zip(u, hints)])
    assert np.all(np.abs(vec - ref) <= 4e-16 * np.abs(ref))


# --- zero-driving closed forms: g(z) = sqrt(z^2 +- 4t) -----------------------

def test_forward_one_step_closed_form():
    evo = evolve_forward(zero_path(0.25, 1))
    assert apply_map(evo, 2j) == pytest.approx(1j * math.sqrt(3.0), abs=1e-12)


def test_forward_identity_for_zero_steps():
    for evo in empty_chains():
        assert apply_map(evo, 1 + 2j) == 1 + 2j


def test_forward_real_point_closed_form():
    evo = evolve_forward(zero_path(1.0, 64))
    assert apply_map(evo, 3.0 + 0j) == pytest.approx(math.sqrt(13.0), abs=1e-9)


def test_backward_one_step_closed_form():
    evo = evolve_backward(zero_path(0.25, 1))
    assert apply_map(evo, 1j) == pytest.approx(1j * math.sqrt(2.0), abs=1e-12)


def test_backward_closed_form_t1():
    evo = evolve_backward(zero_path(1.0, 100))
    assert apply_map(evo, 1j) == pytest.approx(1j * math.sqrt(5.0), abs=1e-9)


def test_backward_hydrodynamic_normalization_at_infinity():
    evo = evolve_backward(zero_path(1.0, 10))
    z = 1e8 + 1e8j
    assert abs(apply_map(evo, z) - z) < 1e-7


def test_semigroup_two_steps_equal_one():
    two = evolve_forward(zero_path(0.25, 2))
    one = evolve_forward(zero_path(0.25, 1))
    assert apply_map(two, 2j) == pytest.approx(apply_map(one, 2j), abs=1e-14)


def test_zero_driving_step_scaling_exact():
    # same total capacity with doubled dt and halved step count: identical
    # (z = 2i is excluded: it is absorbed exactly at t = 1)
    coarse = evolve_forward(zero_path(1.0, 8))
    fine = evolve_forward(zero_path(1.0, 16))
    for z in [3j, 1 + 1j, -3 + 0.5j, 5.0 + 0j]:
        assert apply_map(coarse, z) == pytest.approx(apply_map(fine, z), abs=1e-13)


# --- derivatives -------------------------------------------------------------

def test_derivative_identity():
    for evo in empty_chains():
        assert apply_derivative(evo, 2j) == 1.0


def test_derivative_closed_form():
    evo = evolve_forward(zero_path(0.25, 1))
    assert apply_derivative(evo, 2j) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_derivative_matches_central_difference(direction):
    path = sample_brownian(TimeGrid(0.5, 200), 3.0, 11)
    evo = evolve_forward(path) if direction == "forward" else evolve_backward(path)
    h = 1e-5
    for z in [0.7 + 1.3j, -1.2 + 0.8j, 2.5 + 2j]:
        fd = (apply_map(evo, z + h) - apply_map(evo, z - h)) / (2 * h)
        assert abs(apply_derivative(evo, z) - fd) <= 1e-6


def test_derivative_real_and_positive_on_real_axis():
    path = sample_brownian(TimeGrid(0.3, 150), 4.0, 21)
    evo = evolve_forward(path)
    reach = 2.0 * math.sqrt(0.3) + float(np.max(np.abs(path.values)))
    for y in [reach + 0.5, -reach - 0.5, reach + 3.0]:
        d = apply_derivative(evo, complex(y, 0.0))
        assert d.imag == 0.0
        assert d.real > 0.0


# --- inversion ---------------------------------------------------------------

def test_invert_identity():
    for evo in empty_chains():
        assert invert_map(evo, 1.5 + 0.5j) == 1.5 + 0.5j


def test_invert_forward_closed_form():
    evo = evolve_forward(zero_path(0.25, 1))
    assert invert_map(evo, 1j * math.sqrt(3.0)) == pytest.approx(2j, abs=1e-12)


def test_invert_round_trip_forward():
    path = sample_brownian(TimeGrid(0.5, 300), 2.0, 31)
    evo = evolve_forward(path)
    for z in [1j, 1 + 1j, -2 + 1.5j]:
        w = apply_map(evo, z)
        assert abs(invert_map(evo, w) - z) <= 1e-9


def test_invert_round_trip_backward():
    path = sample_brownian(TimeGrid(0.5, 300), 2.0, 32)
    evo = evolve_backward(path)
    for z in [1j, 1 + 1j, -2 + 1.5j]:
        w = apply_map(evo, z)
        assert abs(invert_map(evo, w) - z) <= 1e-9


def test_invert_backward_flags_branch_violation():
    # the slit interior of a backward step is outside the image domain
    path = zero_path(0.25, 1)
    evo = evolve_backward(path)
    with pytest.raises(BranchViolationError):
        invert_map(evo, 0.5j)   # on the slit [0, i]


# --- swallowing --------------------------------------------------------------

def test_point_inside_hull_is_swallowed():
    evo = evolve_forward(zero_path(0.25, 10))
    with pytest.raises(SwallowedPointError) as err:
        apply_map(evo, 1e-9j)
    assert err.value.step == 0


def test_driving_point_is_swallowed_immediately():
    evo = evolve_forward(zero_path(0.25, 4))
    with pytest.raises(SwallowedPointError):
        apply_map(evo, 0j)


def test_point_far_from_hull_is_not_swallowed():
    evo = evolve_forward(zero_path(0.25, 10))
    apply_map(evo, 10 + 1j)   # must not raise


# --- hydrodynamic normalization ----------------------------------------------

@pytest.mark.parametrize("direction,sign", [("forward", +1.0), ("backward", -1.0)])
def test_expansion_at_infinity(direction, sign):
    path = sample_brownian(TimeGrid(1.0, 400), 4.0, 17)
    evo = evolve_forward(path) if direction == "forward" else evolve_backward(path)
    z = 1e4 + 1e4j
    assert abs(apply_map(evo, z) - z - sign * 2.0 * 1.0 / z) < 1e-6


def test_half_plane_preservation():
    path = sample_brownian(TimeGrid(0.5, 200), 6.0, 8)
    for evo in (evolve_forward(path), evolve_backward(path)):
        for z in [0.3 + 0.2j, -1 + 1j, 2 + 0.05j]:
            try:
                w = apply_map(evo, z)
            except SwallowedPointError:
                continue
            assert w.imag >= 0.0


# --- reversal realizes the inverse -------------------------------------------

def test_backward_with_reversed_driving_inverts_forward_zero_driving():
    path = zero_path(1.0, 500)
    fwd = evolve_forward(path)
    bwd = evolve_backward(explicit_path(path.grid, path.kappa, path.values[::-1]))
    for z in [1j, 2 + 1.5j]:
        assert abs(apply_map(fwd, apply_map(bwd, z)) - z) < 1e-12


def test_backward_with_reversed_driving_inverts_forward_sampled():
    horizon, n = 1.0, 500
    path = sample_brownian(TimeGrid(horizon, n), 4.0, 99)
    fwd = evolve_forward(path)
    bwd = evolve_backward(explicit_path(path.grid, path.kappa, path.values[::-1]))
    tol = 10.0 * math.sqrt(horizon / n)
    for z in [1j, 1 + 1j, -1 + 2j]:
        assert abs(apply_map(fwd, apply_map(bwd, z)) - z) <= tol


# --- trace (zipper) ----------------------------------------------------------

def test_trace_zero_driving_is_vertical_slit():
    n = 100
    evo = evolve_forward(zero_path(1.0, n))
    gamma = trace(evo)
    times = np.arange(n + 1) / n
    expected = 2j * np.sqrt(times)
    assert np.max(np.abs(gamma - expected)) < 1e-9


def test_trace_starts_at_driving_origin():
    evo = evolve_forward(zero_path(1.0, 10))
    assert trace(evo)[0] == 0.0


def test_trace_simple_curve_regime_statistics():
    # kappa = 2 < 4 (simple curve): every tip resolves inside the closed
    # upper half-plane and the curve climbs away from the boundary.  The
    # discrete zipper parks a tip exactly on R whenever the driving moved
    # more than the step-slit width 2 sqrt(dt), which happens with
    # probability P(|N(0,1)| > 2/sqrt(kappa)) ~ 0.16 per step at kappa = 2,
    # so strict positivity is asserted only in aggregate.
    path = sample_brownian(TimeGrid(0.5, 250), 2.0, 3)
    gamma = trace(evolve_forward(path))
    assert np.all(np.isfinite(gamma))
    assert np.all(gamma.imag >= 0.0)
    assert np.mean(gamma[1:].imag > 0.0) > 0.6
    assert np.mean(gamma[-60:].imag) > np.mean(gamma[1:61].imag)


def test_trace_requires_forward():
    with pytest.raises(ValueError):
        trace(evolve_backward(zero_path(1.0, 4)))


def test_evolution_copies_the_callers_driving():
    a = np.zeros(3)
    evo = LoewnerEvolution("forward", a, 0.5)
    assert evo.driving_values is not a and a.flags.writeable
    a[1] = 1.0   # the caller's array stays theirs to write
    assert evo.driving_values.tolist() == [0.0, 0.0, 0.0]
    b = np.arange(3.0)
    evo = LoewnerEvolution("forward", b[::-1], 0.5)
    b[0] = 9.0   # nor does a write to the base of a view reach the chain
    assert evo.driving_values.tolist() == [2.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        evo.driving_values[0] = 1.0


def test_evolution_rejects_unknown_direction():
    with pytest.raises(ValueError):
        LoewnerEvolution("sideways", np.zeros(3), 0.1)


@pytest.mark.parametrize("dt", [-0.25, -0.0, 0.0, math.nan, math.inf, -math.inf])
def test_evolution_rejects_a_step_that_is_not_positive_and_finite(dt):
    # a negative dt would take a backward step (2i -> i sqrt(5) at -0.25),
    # a NaN one would map every point to NaN
    with pytest.raises(ValueError):
        LoewnerEvolution("forward", [0.0, 0.0], dt)


# --- points as arrays -----------------------------------------------------------

def test_array_points_keep_their_shape():
    evo = evolve_backward(zero_path(1.0, 100))
    z = np.array([[1j, 2j], [1 + 1j, -1 + 0.5j]])
    w = apply_map(evo, z)
    assert w.shape == z.shape
    assert w[0, 0] == apply_map(evo, 1j)
    assert isinstance(apply_map(evo, 1j), complex)
    assert isinstance(invert_map(evo, w[0, 0]), complex)


def test_array_swallow_reports_step_and_point():
    evo = evolve_forward(zero_path(0.25, 10))
    with pytest.raises(SwallowedPointError) as err:
        apply_map(evo, np.array([10 + 1j, 1e-9j, 0j]))
    assert err.value.step == 0 and err.value.point == 1e-9j


def test_array_branch_violation_reports_step():
    evo = evolve_backward(zero_path(0.25, 1))
    with pytest.raises(BranchViolationError) as err:
        invert_map(evo, np.array([3 + 1j, 0.5j]))
    assert err.value.step == 0 and err.value.point == 0.5j


def test_swallowed_mask():
    four_dt = 0.04
    v = np.array([0j, 0.1j, 0.2j, 0.21j, 1e-13 + 0.1j, 0.1 + 0.1j])
    assert swallowed(v, four_dt).tolist() == [True, True, True, False, True, False]


def three_clause_swallowed(v, four_dt):
    """The swallow mask with a first clause |v| <= EPS_SWALLOW, which the
    slit and discriminant clauses imply for four_dt >= 0."""
    return ((np.abs(v) <= EPS_SWALLOW)
            | ((np.abs(v.real) <= EPS_SWALLOW) & (v.imag ** 2 <= four_dt))
            | (np.abs(v * v + four_dt) <= EPS_SWALLOW))


def ulp_neighbours(x, k=2):
    """x and the k floats on either side of it, stepped on its uint64 view."""
    bits = np.array([x], dtype=np.float64).view(np.uint64)
    return (bits + np.arange(2 * k + 1, dtype=np.uint64) - np.uint64(k)).view(np.float64)


@pytest.mark.parametrize("four_dt", [
    1e-30, np.nextafter(EPS_SWALLOW ** 2, 0.0), EPS_SWALLOW ** 2,
    np.nextafter(EPS_SWALLOW ** 2, 1.0), 0.04])
def test_swallowed_mask_equals_the_three_clause_mask(four_dt):
    edge = np.concatenate([[0.0, 1e-310, math.inf, math.nan, 1e-13, 0.2],
                           ulp_neighbours(EPS_SWALLOW), ulp_neighbours(math.sqrt(four_dt))])
    grid = np.concatenate([edge, -edge])
    rng = np.random.default_rng(41)
    drawn = 10.0 ** rng.uniform(-15.0, 0.0, (2, 20000)) * rng.standard_normal((2, 20000))
    # every pair of grid values as (Re, Im): re + 1j*im would turn an inf into NaN
    v = np.empty(grid.size ** 2 + 20000, dtype=np.complex128)
    v.real = np.concatenate([np.repeat(grid, grid.size), drawn[0]])
    v.imag = np.concatenate([np.tile(grid, grid.size), drawn[1]])
    with np.errstate(invalid="ignore", over="ignore"):   # the grid holds inf and NaN
        expected = three_clause_swallowed(v, four_dt)
        for mask in (swallowed(v, four_dt), swallowed(v, four_dt, v * v + four_dt)):
            assert np.array_equal(mask, expected)
    assert expected.any() and not expected.all()
    assert (np.abs(v) <= EPS_SWALLOW).sum() >= 100   # the dropped clause's points are there


# --- properties of the slit maps (random drivings and points) ------------------

# Derandomized: every run draws the same examples, so the suite is repeatable.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
KAPPAS = st.floats(0.5, 8.0)


def upper_points(im_min):
    point = st.builds(complex, st.floats(-3.0, 3.0), st.floats(im_min, 3.0))
    return st.lists(point, min_size=1, max_size=8).map(np.array)


def both_chains(seed, kappa, n=40):
    path = sample_brownian(TimeGrid(0.5, n), kappa, seed)
    return evolve_forward(path), evolve_backward(path)


@PROPERTY
@given(SEEDS, KAPPAS, upper_points(0.0))
def test_images_stay_in_closed_upper_half_plane(seed, kappa, z):
    for evo in both_chains(seed, kappa):
        try:
            w = apply_map(evo, z)
        except SwallowedPointError:
            continue
        assert np.all(w.imag >= 0.0)


@PROPERTY
@given(SEEDS, KAPPAS, upper_points(0.1))
def test_invert_undoes_apply_off_the_slit(seed, kappa, z):
    for evo in both_chains(seed, kappa):
        try:
            w = apply_map(evo, z)
        except SwallowedPointError:   # z on a forward step's slit
            continue
        # images within 1e-3 of R are left out: a forward image on R has its
        # preimage on the slit, where the inverse is not single-valued
        far = w.imag >= 1e-3
        assert np.all(np.abs(invert_map(evo, w[far]) - z[far]) <= 1e-12)


@PROPERTY
@given(SEEDS, KAPPAS, upper_points(0.1))
def test_derivative_agrees_with_central_difference(seed, kappa, z):
    def stencil(evo, h):   # fourth-order central difference
        f = [apply_map(evo, z + k * h) for k in (-2, -1, 1, 2)]
        return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)

    for evo in both_chains(seed, kappa):
        try:
            d = apply_derivative(evo, z)
            coarse, fine = stencil(evo, 2e-3), stencil(evo, 1e-3)
        except SwallowedPointError:
            continue
        # a stencil that straddles the hull has not converged: compare only
        # where halving h moved the difference by less than 1e-6
        converged = np.abs(coarse - fine) <= 1e-6 * np.abs(fine)
        assert np.all((np.abs(d - fine) <= 1e-6 * np.abs(d))[converged])


@PROPERTY
@given(SEEDS, KAPPAS, upper_points(0.0))
def test_array_call_equals_scalar_calls_bitwise(seed, kappa, z):
    for evo in both_chains(seed, kappa, n=20):
        for f in (apply_map, apply_derivative, invert_map):
            try:
                together = f(evo, z)
            except (SwallowedPointError, BranchViolationError):
                continue
            one_by_one = np.array([f(evo, complex(p)) for p in z])
            assert together.tobytes() == one_by_one.tobytes()


def mp_zipper(xi, dt):
    """Tips gamma_k at 50 digits, one tip at a time, each by the inverse
    steps k-1..0: w -> xi_j + s with s the slit root of (w - xi_j)^2 - 4dt,
    hinted by Re(w - xi_j)."""
    tips = []
    with mpmath.workdps(50):
        for k in range(len(xi)):
            w = mpmath.mpc(xi[k])
            for j in range(k - 1, -1, -1):
                v = w - xi[j]
                w = xi[j] + mp_slit_root(v * v - 4 * mpmath.mpf(dt), v.real)
            tips.append(complex(w))
    return np.array(tips)


@settings(PROPERTY, max_examples=10)
@given(SEEDS, KAPPAS)
def test_trace_matches_independent_zipper(seed, kappa):
    path = sample_brownian(TimeGrid(1.0, 60), kappa, seed)
    gamma = trace(evolve_forward(path))
    assert np.max(np.abs(gamma - mp_zipper(path.values, path.grid.dt))) <= 1e-12


# --- whole-plane radial flow ---------------------------------------------------

def test_radial_fixed_point_at_i():
    # 1 + g^2 = 0 kills the drift at g = i
    evo = evolve_wholeplane(zero_path(1.0, 50, kappa=2.0), z0=1j)
    assert evo.completed
    assert np.max(np.abs(evo.states - 1j)) < 1e-9


def test_radial_imaginary_axis_monotone_toward_i():
    # with eta = 0 and g = iy: y' = (1 - y^2) / (2y) > 0 for 0 < y < 1
    evo = evolve_wholeplane(zero_path(1.0, 50, kappa=2.0), z0=0.5j)
    ys = evo.states.imag
    assert evo.completed
    assert np.all(evo.states.real == 0.0)
    assert np.all(np.diff(ys) > 0.0)
    assert np.all(ys <= 1.0 + 1e-12)


def test_radial_containment_for_sampled_drivers():
    for seed in range(20):
        path = sample_brownian(TimeGrid(0.5, 50), 2.0, seed)
        evo = evolve_wholeplane(path, z0=0.4 + 0.8j)
        assert np.all(evo.states.imag > 0.0)


def radial_drift(g, eta):
    return -(1 + g * g) / 2 * (1 + eta * g) / (g - eta)


def dop853_radial(xi, dt, z0):
    """States (n+1, points) of the radial flow by a DOP853 solve of the ODE
    in g per grid step, at rtol 1e-12."""
    m = z0.size
    g = z0.astype(np.complex128)
    out = [g]
    for x in xi[:-1]:
        eta = math.tan(x)

        def rhs(_t, y, eta=eta):
            d = radial_drift(y[:m] + 1j * y[m:], eta)
            return np.concatenate([d.real, d.imag])

        y = solve_ivp(rhs, (0.0, dt), np.concatenate([g.real, g.imag]),
                      method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        g = y[:m] + 1j * y[m:]
        out.append(g)
    return np.array(out)


RADIAL_POINTS = np.array([complex(re, im) for re in (-1.5, 0.5) for im in (0.25, 1.0, 3.0)])


def radial_states(path, points):
    return np.array([evolve_wholeplane(path, z0=z).states for z in points]).T


@pytest.mark.parametrize("xi", [0.7, -1.3, math.pi / 2.0 - 1e-3])
def test_radial_one_step_matches_mpmath_ode(xi):
    dt = 0.01
    path = explicit_path(TimeGrid(dt, 1), 2.0, [xi, xi])
    with mpmath.workdps(30):
        eta = mpmath.tan(xi)
        for z in (0.4 + 0.8j, -1.5 + 0.25j):
            ref = mpmath.odefun(lambda _t, g: radial_drift(g, eta), 0, mpmath.mpc(z))(dt)
            assert abs(evolve_wholeplane(path, z0=z).states[1] - complex(ref)) <= 1e-14


def test_radial_matches_dop853_for_sampled_drivers():
    for seed in range(3):
        path = sample_brownian(TimeGrid(1.0, 100), 2.0, seed)
        ref = dop853_radial(path.values, path.grid.dt, RADIAL_POINTS)
        assert np.max(np.abs(radial_states(path, RADIAL_POINTS) - ref)) <= 1e-12


def test_radial_driver_at_tan_pole_matches_reference():
    # xi = pi/2 puts eta = tan(xi) at 1.6e16; the rotation has no pole there
    path = explicit_path(TimeGrid(1.0, 2), 1.0, [0.0, math.pi / 2.0, 0.1])
    ref = dop853_radial(path.values, path.grid.dt, RADIAL_POINTS)
    assert np.max(np.abs(radial_states(path, RADIAL_POINTS) - ref)) <= 1e-12


def moving_frame_wholeplane(path, z0):
    """The moving-frame radial loop written out plainly, with no table or
    memo: each step's coefficients are built from floats as it runs, as
    Python complex numbers with a +0.0 real or imaginary part, and the
    roots are rotated back by the same numpy expression.  The reference
    whose bits evolve_wholeplane must keep."""
    dt = path.grid.dt
    p, s = complex(-math.expm1(-dt), 0.0), math.exp(-0.5 * dt)
    d = np.diff(path.values)
    xi = path.values[:-1]
    cos, sin = np.cos(xi).tolist(), np.sin(xi).tolist()
    z0 = complex(z0)
    v = s * (z0 * cos[0] - sin[0]) / (z0 * sin[0] + cos[0])
    roots = []
    for cd, sd in zip(np.cos(d).tolist(), np.sin(d).tolist()):
        r = cmath.sqrt(p - v * v)
        roots.append(r)
        v = ((r * complex(0.0, s * cd) - complex(s * sd, 0.0))
             / (r * complex(0.0, sd) + complex(cd, 0.0)))
    r = np.array(roots)
    icos, isin = (np.array([complex(0.0, t) for t in a]) for a in (cos, sin))
    rcos, rsin = (np.array([complex(t, 0.0) for t in a]) for a in (cos, sin))
    return np.concatenate([[z0], (r * icos + rsin) / (rcos - r * isin)])


def float_operand_wholeplane(path, z0):
    """The fixed-frame radial loop (rotate to the driving, slit step, rotate
    back) with float cos/sin and step constants: an independent
    cross-check of the moving frame's rounding."""
    p, q = -math.expm1(-path.grid.dt), math.exp(-path.grid.dt)
    xi = path.values[:-1]
    g = complex(z0)
    states = [g]
    for c, s in zip(np.cos(xi).tolist(), np.sin(xi).tolist()):
        w = (g * c - s) / (g * s + c)
        w = 1j * cmath.sqrt(p - q * w * w)
        g = (w * c + s) / (c - w * s)
        states.append(g)
    return np.array(states, dtype=np.complex128)


def assert_near_fixed_frame(states, path, z0):
    fixed = float_operand_wholeplane(path, z0)
    assert np.max(np.abs(states - fixed) / np.abs(fixed)) <= 1e-13


def assert_radial_bits(path, z0):
    got = evolve_wholeplane(path, z0=z0).states
    assert np.array_equal(got.view(np.uint64), moving_frame_wholeplane(path, z0).view(np.uint64))
    assert_near_fixed_frame(got, path, z0)


SWEEP_POINTS = [complex(re, im) for re in (-1.5, -0.5, 0.5, 1.5)
                for im in (0.25, 0.5, 1.0, 2.0, 3.0)]


@pytest.mark.parametrize("kappa,steps", [(2.0, 100), (8.0, 37), (0.5, 1)])
def test_radial_states_equal_moving_frame_loop_bitwise(kappa, steps):
    for seed in range(5):
        path = sample_brownian(TimeGrid(1.0, steps), kappa, 1000 * seed + 17)
        for z in SWEEP_POINTS:
            assert_radial_bits(path, z)


@pytest.mark.parametrize("z0", [1j, 0.5j])
def test_radial_zero_driving_keeps_signed_zeros(z0):
    # c = 1 and s = 0 exactly, so any slip in a zero's sign would show
    path = zero_path(1.0, 50, kappa=2.0)
    assert_radial_bits(path, z0)
    assert not np.any(np.signbit(evolve_wholeplane(path, z0=z0).states.real))


@pytest.mark.parametrize("kappa", [2.0, 8.0])
def test_radial_sweep_stays_finite_in_the_upper_half_plane(kappa):
    # the benchmark's radial library: 100 drivers x 20 points, 100 steps
    for seed in range(100):
        path = sample_brownian(TimeGrid(1.0, 100), kappa, seed)
        for z in SWEEP_POINTS:
            states = evolve_wholeplane(path, z0=z).states
            assert np.all(np.isfinite(states)) and np.all(states.imag >= 0.0)


def test_radial_path_starting_off_zero_rotates_the_start_point():
    # xi_0 != 0: the loop's first frame is the rotation of z0 by xi_0
    path = explicit_path(TimeGrid(0.5, 4), 1.0, [0.9, 0.9, -0.4, 0.3, 1.1])
    states = radial_states(path, RADIAL_POINTS)
    assert np.array_equal(states[0], RADIAL_POINTS)
    ref = dop853_radial(path.values, path.grid.dt, RADIAL_POINTS)
    assert np.max(np.abs(states - ref)) <= 1e-12


def test_radial_interleaved_paths_use_their_own_table():
    a = sample_brownian(TimeGrid(1.0, 40), 2.0, 1)
    b = sample_brownian(TimeGrid(1.0, 40), 2.0, 2)
    for path in (a, b, a, a, b):
        assert_radial_bits(path, 0.5 + 1j)


def test_radial_table_does_not_outlive_its_path():
    grid = TimeGrid(1.0, 30)
    path = sample_brownian(grid, 2.0, 0)
    assert_radial_bits(path, -0.5 + 0.5j)
    del path
    # a dead path's entry can match no later path, even one at its address
    ref, _ = loewner._last_rotations
    assert ref() is None
    for seed in range(1, 4):
        path = sample_brownian(grid, 2.0, seed)
        assert_radial_bits(path, -0.5 + 0.5j)
        del path


def test_radial_table_is_safe_under_threads():
    # threads on different paths keep replacing the one shared table entry
    paths = [sample_brownian(TimeGrid(1.0, 30), 2.0, seed) for seed in range(6)]
    expected = [moving_frame_wholeplane(p, 0.5 + 1j).view(np.uint64) for p in paths]
    for p, bits in zip(paths, expected):
        assert_near_fixed_frame(bits.view(np.complex128), p, 0.5 + 1j)

    def sweep(i):
        for _ in range(40):
            for k in (i, (i + 1) % len(paths)):
                got = evolve_wholeplane(paths[k], z0=0.5 + 1j).states.view(np.uint64)
                if not np.array_equal(got, expected[k]):
                    return False
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(paths)) as ex:
            results = [f.result(timeout=60) for f in [ex.submit(sweep, i)
                                                      for i in range(len(paths))]]
    finally:
        sys.setswitchinterval(old)
    assert all(results)


def test_radial_rejects_lower_half_plane_start():
    with pytest.raises(ValueError):
        evolve_wholeplane(zero_path(1.0, 5), z0=-1j)


@pytest.mark.parametrize("z0", [complex(math.nan, 1.0), complex(1.0, math.nan),
                                complex(math.inf, 1.0), complex(0.0, math.inf)],
                         ids=["nan-re", "nan-im", "inf-re", "inf-im"])
def test_radial_rejects_nonfinite_start(z0):
    with pytest.raises(ValueError):
        evolve_wholeplane(zero_path(1.0, 5), z0=z0)


# --- composed backward-after-forward flow --------------------------------------

def compose(path1, path2, z):
    """backward(path1) o forward(path2), as in montecarlo.run_composed_stats."""
    return apply_map(evolve_backward(path1), apply_map(evolve_forward(path2), z))


def test_compose_zero_driving_returns_input():
    p = zero_path(0.25, 1)
    assert compose(p, p, 2j) == pytest.approx(2j, abs=1e-12)


def test_compose_sampled_stays_in_upper_half_plane():
    g = TimeGrid(0.25, 100)
    p1 = sample_brownian(g, 4.0, 1)
    p2 = sample_brownian(g, 4.0, 2)
    for z in [1j, 1 + 1j, -0.5 + 2j]:
        try:
            w = compose(p1, p2, z)
        except SwallowedPointError:
            continue
        assert w.imag >= 0.0
