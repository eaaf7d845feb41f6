import math

import numpy as np
import pytest

import revsle.observables
from revsle.driving import TimeGrid, explicit_path, sample_brownian
from revsle.loewner import apply_derivative, apply_map, evolve_backward, evolve_forward
from revsle.montecarlo import McConfig, _one_point_walk, _xi_block
from revsle.observables import (DELTA_MIN, ObservableSpec,
                                PointsTooCloseError, _d1, _d2,
                                audit_one_point_exponents,
                                bpz_generator, bpz_operator_level2,
                                drift_residual,
                                one_point_exponents)


def zero_path(horizon, n, kappa=4.0):
    return explicit_path(TimeGrid(horizon, n), kappa, np.zeros(n + 1))


def walk_one_column(path, y, a, b, eps_stop=1e-3):
    """The one-point walk on the one-column block of a path's driving,
    recording every step: the value at the last step, and the first step
    from which the walk can take no further step (None if there is none)."""
    xi = path.values[:, None]
    frozen, alive = _one_point_walk(xi, 4.0 * path.grid.dt, y, a, b, eps_stop,
                                    range(len(xi)))
    stop = next((k for k, live in enumerate(alive[0]) if not live), None)
    return float(frozen[0, -1]), stop


def one_point_spec(y, h):
    return ObservableSpec(points=(y,), weights=(h,))


# --- covariant transport: a weight-h primary picks up (g'(z))^h at g(z) --------

def test_covariant_backward_real_point_squared():
    # zero driving, t = 1/4: g(3) = sqrt(8), g'(3) = 3/sqrt(8), (g')^2 = 9/8
    evo = evolve_backward(zero_path(0.25, 1))
    d = apply_derivative(evo, 3.0)
    assert d.imag == 0.0
    assert d.real ** 2 == pytest.approx(9.0 / 8.0, abs=1e-12)
    assert apply_map(evo, 3.0) == pytest.approx(math.sqrt(8.0), abs=1e-12)


def test_covariant_composition_chain_rule():
    # transport over a concatenation equals the product of per-segment
    # factors at the transported point
    path = sample_brownian(TimeGrid(0.4, 80), 2.0, 10)
    vals = path.values
    first = explicit_path(TimeGrid(0.2, 40), 2.0, vals[:41])
    second = explicit_path(TimeGrid(0.2, 40), 2.0, vals[40:])
    h = 1.7
    z = 0.5 + 1.2j

    def transport(p, w):
        evo = evolve_forward(p)
        return apply_derivative(evo, w) ** h, apply_map(evo, w)

    full, image = transport(path, z)
    f1, image1 = transport(first, z)
    f2, image2 = transport(second, image1)
    assert abs(full - f1 * f2) < 1e-9
    assert abs(image - image2) < 1e-12


# --- drift generator ------------------------------------------------------------

def test_generator_kills_constants():
    spec = one_point_spec(1.5, 0.0)
    out = bpz_generator(spec, lambda xi, ys: 1.0, kappa=4.0)
    assert out == 0.0


def test_generator_rejects_close_points():
    spec = one_point_spec(1e-7, 0.0)
    with pytest.raises(PointsTooCloseError):
        bpz_generator(spec, lambda xi, ys: 1.0, kappa=4.0)


def drift_free_weight(kappa, b):
    # from Ito on the backward flow: a = b - kappa b (b-1) / 4
    return b - kappa * b * (b - 1.0) / 4.0


@pytest.mark.parametrize("kappa,b", [(2.0, 3.0), (4.0, 2.5), (4.0, -0.5),
                                     (6.0, 5.0 / 3.0), (8.0, 1.5), (3.0, -2.0)])
def test_generator_vanishes_on_drift_free_power(kappa, b):
    h = drift_free_weight(kappa, b)
    spec = one_point_spec(1.0, h)
    f = lambda xi, ys: (ys[0] - xi) ** b
    assert abs(bpz_generator(spec, f, kappa)) <= 1e-6


@pytest.mark.parametrize("kappa,b", [(2.0, 3.0), (4.0, 2.5), (6.0, 5.0 / 3.0)])
def test_generator_detects_wrong_weight(kappa, b):
    h = drift_free_weight(kappa, b) + 0.05
    spec = one_point_spec(1.0, h)
    f = lambda xi, ys: (ys[0] - xi) ** b
    assert abs(bpz_generator(spec, f, kappa)) >= 1e-2


def test_generator_matches_analytic_residual():
    # G (y-xi)^b = [kappa b(b-1)/2 - 2b + 2h] (y-xi)^{b-2}
    kappa, b, h, y = 4.0, 2.0, -1.0, 1.5
    spec = one_point_spec(y, h)
    f = lambda xi, ys: (ys[0] - xi) ** b
    expected = (0.5 * kappa * b * (b - 1.0) - 2.0 * b + 2.0 * h) * y ** (b - 2.0)
    assert bpz_generator(spec, f, kappa) == pytest.approx(expected, rel=1e-6)


TWO_POINT_SPEC = ObservableSpec(points=(1.3, -0.8), weights=(0.7, -1.2))
TWO_POINT_FAMILY = [
    lambda xi, ys: (ys[0] - xi) ** 1.5 * (ys[1] - xi) ** 2,
    lambda xi, ys: math.exp(0.3 * (ys[0] - xi)) * (ys[1] - xi) ** -1,
    lambda xi, ys: 1.0 / ((ys[0] - ys[1]) ** 2 + (ys[0] - xi) ** 2),
]


def test_generator_is_twice_level2_operator():
    # the flow generator equals 2x the degenerate operator at b^2 = kappa/4,
    # checked pointwise on a shared family of test functions
    kappa = 3.7
    b2 = kappa / 4.0
    for f in TWO_POINT_FAMILY:
        for xi in (0.0, 0.2, -0.4):
            gen = bpz_generator(TWO_POINT_SPEC, f, kappa, xi=xi)
            op = bpz_operator_level2(TWO_POINT_SPEC, f, b2, z=xi)
            assert abs(gen - 2.0 * op) < 1e-9


def generator_written_out(obs, f, kappa, xi=0.0):
    """The generator's finite-difference formula written out in full:
    (kappa/2) F_xixi - 2 sum_a [ F_{y_a}/(y_a-xi) - h_a F/(y_a-xi)^2 ]."""
    ys = obs.points
    for y in ys:
        if abs(y - xi) <= DELTA_MIN:
            raise PointsTooCloseError(f"|{y} - {xi}| <= {DELTA_MIN}")
    f0 = f(xi, ys)
    out = 0.5 * kappa * _d2(lambda x: f(x, ys), xi)
    for i, (y, h_w) in enumerate(zip(ys, obs.weights)):
        def f_yi(v, i=i):
            pts = list(ys)
            pts[i] = v
            return f(xi, tuple(pts))
        d = y - xi
        out -= 2.0 * (_d1(f_yi, y) / d - h_w * f0 / (d * d))
    return out


def test_generator_equals_its_written_out_formula_bit_for_bit():
    # scaling by 2 and by 1/4 is exact, so twice the operator at
    # b^2 = kappa/4 is the written-out generator to the last bit: the six
    # acceptance kappas and 198 drawn from [0.1, 10], three functions and
    # three driving values, 1836 cases
    rng = np.random.default_rng(20171024)
    kappas = [2.0, 8.0 / 3.0, 3.0, 4.0, 6.0, 8.0] + rng.uniform(0.1, 10.0, 198).tolist()
    cases = 0
    for kappa in kappas:
        for f in TWO_POINT_FAMILY:
            for xi in (0.0, 0.2, -0.4):
                got = bpz_generator(TWO_POINT_SPEC, f, kappa, xi=xi)
                assert got == generator_written_out(TWO_POINT_SPEC, f, kappa, xi=xi)
                cases += 1
    assert cases == 1836
    # a point within DELTA_MIN of a driving value away from 0 still raises
    close = ObservableSpec(points=(0.2 + 1e-7, -0.8), weights=(0.7, -1.2))
    for kappa in (2.0, 4.0):
        with pytest.raises(PointsTooCloseError):
            bpz_generator(close, TWO_POINT_FAMILY[0], kappa, xi=0.2)


# --- exponent pairs --------------------------------------------------------------

def test_exponents_weight_zero():
    r = one_point_exponents(4.0, 0.0)
    assert not r.complex_roots
    assert r.b_plus == 2.0    # 1 + 4/kappa
    assert r.b_minus == 0.0


@pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0, 8.0])
def test_exponents_at_13_weight(kappa):
    h = -1.0 - 8.0 / kappa
    r = one_point_exponents(kappa, h)
    assert r.b_plus.real == pytest.approx(1.0 + 8.0 / kappa, rel=1e-14)
    assert r.b_minus.real == pytest.approx(-4.0 / kappa, rel=1e-14)
    # discriminant of the rescaled quadratic is (1 + 12/kappa)^2
    disc = (1.0 + kappa / 4.0) ** 2 - kappa * h
    assert disc == pytest.approx((kappa / 4.0) ** 2 * (1.0 + 12.0 / kappa) ** 2,
                                 rel=1e-12)


def test_exponents_kappa_4_h_minus3():
    r = one_point_exponents(4.0, -3.0)
    assert (r.b_plus, r.b_minus) == (3.0, -1.0)
    for b in (3.0, -1.0):
        assert drift_free_weight(4.0, b) == -3.0


def test_exponents_complex_flag():
    r = one_point_exponents(4.0, 3.0)   # disc = 4 - 12 < 0
    assert r.complex_roots
    assert r.b_plus == r.b_minus.conjugate()


def test_roots_satisfy_drift_residual():
    for kappa in (2.0, 3.0, 4.0, 6.0, 8.0):
        for h in (0.0, -1.0, -2.5, 0.4):
            r = one_point_exponents(kappa, h)
            if r.complex_roots:
                continue
            for b in (r.b_plus.real, r.b_minus.real):
                assert abs(drift_residual(kappa, h, b)) < 1e-9


# --- one-point evaluation ---------------------------------------------------------

def test_eval_one_point_initial_value():
    path = zero_path(0.25, 10)
    frozen, alive = _one_point_walk(path.values[:, None], 4.0 * path.grid.dt, 2.0, 1.5, 3.0,
                                    1e-3, range(11))
    assert frozen[0, 0] == pytest.approx(8.0, rel=1e-14)
    assert alive[0].all()


def test_eval_one_point_constant_exponents():
    path = sample_brownian(TimeGrid(0.02, 50), 4.0, 5)
    assert walk_one_column(path, 1.0, a=0.0, b=0.0)[0] == 1.0


def reference_walk(xi, four_dt, y, a, b, eps_stop, record):
    """The one-point walk written plainly, from the same arithmetic: every
    step takes a fresh (g')^a X^b of the samples still above eps_stop, and
    only the samples that take a step update their state."""
    m = xi.shape[1]
    half = four_dt / 2.0
    x2_0 = (float(y) - xi[0]) ** 2
    q_0 = x2_0 - half
    q = q_0.copy()
    shift = np.zeros(m)
    log_sum = np.zeros(m)
    alive = np.ones(m, dtype=bool)
    frozen = np.full(m, math.nan)
    frozen_at, alive_at = [], []
    for k in range(xi.shape[0]):
        above = alive & (q > eps_stop * eps_stop - half)
        x2 = np.where(above, q + half, 1.0)
        value = np.exp((0.5 * a) * np.log(x2_0) + (0.5 * (b - a)) * np.log(x2)
                       + a * log_sum)
        frozen = np.where(above, value, frozen)
        alive = above & (q > 0.0)
        if k + 1 < xi.shape[0]:
            h = np.sqrt(np.where(alive, q, 1.0))
            u = xi[k] - xi[k + 1]
            p = h + u
            alive = alive & (p > math.sqrt(half))
        if k in record:
            frozen_at.append(frozen)
            alive_at.append(alive)
        if k + 1 < xi.shape[0]:
            with np.errstate(invalid="ignore"):   # the unused ratios of stopped samples
                log_sum = np.where(alive, log_sum + np.log1p(u / h), log_sum)
            shift = np.where(alive, shift + (h + p) * u, shift)
            q = np.where(alive, (q_0 - (k + 1) * four_dt) + shift, q)
    return np.stack(frozen_at, axis=1), np.stack(alive_at, axis=1)


# criterion 5's config; a coarse grid where many samples stop at X^2 <= 2 dt;
# a wide eps_stop band where many stop at X <= eps_stop
@pytest.mark.parametrize("kappa,horizon,n_steps,y,b,eps_stop", [
    (4.0, 0.05, 500, 1.0, 3.0, 1e-3),
    (2.0, 0.2, 25, 1.0, 1.5, 0.0),
    (6.0, 0.1, 50, 0.5, 0.5, 0.1),
])
def test_walk_equals_the_reference_walk(kappa, horizon, n_steps, y, b, eps_stop):
    a = b - kappa * b * (b - 1.0) / 4.0
    dt = horizon / n_steps
    xi = _xi_block(17, 0, 3000, kappa, dt, n_steps)
    record = sorted(set(range(0, n_steps + 1, 7)) | {n_steps})
    frozen, alive = _one_point_walk(xi, 4.0 * dt, y, a, b, eps_stop, record)
    ref_frozen, ref_alive = reference_walk(xi, 4.0 * dt, y, a, b, eps_stop, record)
    assert np.array_equal(frozen, ref_frozen, equal_nan=True)
    assert np.array_equal(alive, ref_alive)
    assert np.count_nonzero(~alive[:, -1]) > (0 if kappa == 4.0 else 500)


@pytest.mark.parametrize("kappa,horizon,n_steps,y", [(4.0, 0.05, 20, 1.0), (2.0, 0.2, 50, 2.0)])
def test_walk_is_the_backward_slit_chain_of_the_midpoint_driving(kappa, horizon, n_steps, y):
    # the walk's step k -> k+1 is two slit steps of capacity dt/2, at xi_k
    # and at xi_{k+1}: the library's backward chain on the 2n half steps of
    # the driving xi_0, xi_1, xi_1, ..., xi_n, xi_n, evaluated in complex
    # arithmetic by loewner's own maps
    b = 3.0
    a = b - kappa * b * (b - 1.0) / 4.0
    dt = horizon / n_steps
    xi = _xi_block(23, 0, 40, kappa, dt, n_steps)
    frozen, alive = _one_point_walk(xi, 4.0 * dt, y, a, b, 1e-3, [n_steps])
    halves = TimeGrid(horizon, 2 * n_steps)
    checked = 0
    for i in np.flatnonzero(alive[:, 0]):
        evo = evolve_backward(explicit_path(halves, kappa, xi[(np.arange(2 * n_steps + 1) + 1)
                                                             // 2, i]))
        g = apply_map(evo, complex(y))
        gp = apply_derivative(evo, complex(y))
        assert abs(g.imag) <= 1e-12 and abs(gp.imag) <= 1e-12
        expected = gp.real ** a * (g.real - xi[n_steps, i]) ** b
        assert frozen[i, 0] == pytest.approx(expected, rel=1e-10)
        checked += 1
    assert checked >= 30


def test_walk_derivative_does_not_cancel_on_fine_grids():
    # zero driving: g' = y / sqrt(y^2 - 4T) exactly, and each half step's
    # factor X / sqrt(X^2 - 2 dt) is within 1e-7 of 1, where a difference of
    # two logs would be off by 2.3e-13, and so is an X^2 rounded at each of
    # the 5000 steps
    n, horizon, y = 5000, 0.002, 3.0
    frozen, _ = _one_point_walk(np.zeros((n + 1, 1)), 4.0 * horizon / n, y, 1.0, 0.0,
                                0.0, [n])
    exact = y / math.sqrt(y * y - 4.0 * horizon)
    assert abs(frozen[0, 0] / exact - 1.0) <= 1e-14


def test_eval_one_point_telescopes_zero_driving():
    # (g') * g = (y / g) * g = y exactly for zero driving, any step count
    value, stop = walk_one_column(zero_path(0.125, 1), 2.0, a=1.0, b=1.0)
    assert stop is None
    assert value == pytest.approx(2.0, abs=1e-12)
    assert walk_one_column(zero_path(0.125, 32), 2.0, 1.0, 1.0)[0] == pytest.approx(
        2.0, abs=1e-12)


def test_eval_one_point_zero_driving_closed_form():
    # g = sqrt(y^2 - 4t), g' = y/g: value = (y/g)^a g^b
    path = zero_path(0.125, 1)
    assert walk_one_column(path, 2.0, a=1.0, b=0.0)[0] == pytest.approx(
        2.0 / math.sqrt(3.5), abs=1e-12)
    assert walk_one_column(path, 2.0, a=0.0, b=1.0)[0] == pytest.approx(
        math.sqrt(3.5), abs=1e-12)


def test_eval_one_point_stops_when_driving_catches_up():
    # the driving jumps to within eps_stop of the image point: the sample
    # freezes at its last state above the band instead of evaluating the
    # state inside it
    grid = TimeGrid(0.01, 2)   # dt = 0.005: half steps of capacity 0.0025
    path = explicit_path(grid, 4.0, [0.0, 1.89, 1.89])
    # P = sqrt(4 - 0.01) - 1.89 > sqrt(2 dt) = 0.1: the step is real, but
    # X_1 = sqrt(P^2 - 0.01) lies inside the band
    p = math.sqrt(4.0 - 0.01) - 1.89
    assert p > 0.1 and math.sqrt(p * p - 0.01) < 0.05
    value, stop = walk_one_column(path, 2.0, a=0.0, b=1.0, eps_stop=0.05)
    assert stop == 1
    assert value == pytest.approx(2.0, abs=1e-12)   # frozen at t = 0
    # a jump past the point: the second half step has no real root, so the
    # sample stops at step 0 without evaluating a negative power base
    value, stop = walk_one_column(explicit_path(grid, 4.0, [0.0, 2.5, 2.5]), 2.0,
                                  a=0.0, b=0.5)
    assert stop == 0
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # a driving that starts within eps_stop of the point: the sample stops
    # at step 0 with its start values, not at a later step
    value, stop = walk_one_column(explicit_path(grid, 4.0, [1.5, 1.5, 1.5]), 2.0,
                                  a=0.0, b=1.0, eps_stop=0.6)
    assert stop == 0 and value == 0.5


def test_eval_one_point_stops_at_unsteppable_state():
    # X_1 stays above eps_stop, but after the next jump P^2 <= 2 dt: the
    # second half of step 1 -> 2 has no real root
    grid = TimeGrid(0.25, 2)   # dt = 0.125, 2 dt = 0.25, sqrt(2 dt) = 0.5
    path = explicit_path(grid, 4.0, [0.0, 1.2, 1.2])
    x1 = math.sqrt((math.sqrt(3.75) - 1.2) ** 2 - 0.25)
    assert math.sqrt(x1 * x1 - 0.25) <= 0.5
    value, stop = walk_one_column(path, 2.0, a=0.0, b=1.0)
    assert stop == 1
    assert value == pytest.approx(x1, abs=1e-12)   # frozen at state 1


def test_eval_one_point_stops_at_unsteppable_final_state():
    # X_2 = sqrt(P^2 - 2 dt) > eps_stop is evaluated, but X_2^2 <= 2 dt: the
    # walk could not begin a further step, so the sample counts as stopped
    # at the last step, as the martingale engine counts it
    grid = TimeGrid(0.25, 2)
    path = explicit_path(grid, 4.0, [0.0, 0.0, 1.1])
    p = math.sqrt(3.25) - 1.1   # after the jump to xi_2; X_1^2 = 3.5
    assert 0.5 < p and p * p - 0.25 <= 0.25
    value, stop = walk_one_column(path, 2.0, a=0.0, b=1.0)
    assert stop == 2
    assert value == pytest.approx(math.sqrt(p * p - 0.25), abs=1e-12)


@pytest.mark.parametrize("y,a,b,eps_stop", [
    (math.inf, 0.0, 1.0, 1e-3), (math.nan, 0.0, 1.0, 1e-3), (2.0, math.nan, 1.0, 1e-3),
    (2.0, 0.0, -math.inf, 1e-3), (2.0, 0.0, 1.0, math.nan), (2.0, 0.0, 1.0, -1.0),
    (2.0, 0.0, 1.0, 2.0)])
def test_eval_one_point_rejects_nonfinite_or_banded_inputs(y, a, b, eps_stop):
    with pytest.raises(ValueError):
        McConfig(4.0, 0.05, 10, 100, 0, y, a, b, eps_stop)


def test_eval_one_point_rejects_left_points():
    with pytest.raises(ValueError):
        McConfig(4.0, 0.05, 10, 100, 0, -2.0, 1.0, 1.0, 1e-3)


# --- proposed-exponent audit --------------------------------------------------------

@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
def test_audit_rejects_kappa_outside_the_positive_floats(kappa):
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        audit_one_point_exponents(kappa)


def test_audit_kappa_4_proposed_pair_fails():
    audit = audit_one_point_exponents(4.0)
    assert audit.proposed.a == -1.5 and audit.proposed.b == -1.5
    assert audit.proposed.residual == pytest.approx(7.5, abs=1e-12)
    assert not audit.proposed.satisfies


@pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0])
def test_audit_derived_pairs_are_drift_free(kappa):
    audit = audit_one_point_exponents(kappa)
    assert not audit.proposed.satisfies
    assert len(audit.derived) == 2
    for cand in audit.derived:
        assert cand.a == pytest.approx(-1.0 - 8.0 / kappa, rel=1e-14)
        assert cand.satisfies
    bs = sorted(c.b for c in audit.derived)
    assert bs == pytest.approx([-4.0 / kappa, 1.0 + 8.0 / kappa], rel=1e-12)


def test_audit_kappa_4_derived_pairs():
    audit = audit_one_point_exponents(4.0)
    pairs = {(c.a, c.b) for c in audit.derived}
    assert pairs == {(-3.0, 3.0), (-3.0, -1.0)}


def test_audit_tolerance_follows_the_size_of_the_terms(monkeypatch):
    # 8/kappa and kappa b^2 reach 1e9 on this grid: an absolute tolerance
    # would read the rounding of exactly drift-free pairs as drift
    grid = np.logspace(-8, 12, 201)
    for kappa in grid:
        audit = audit_one_point_exponents(kappa)
        assert all(math.isfinite(p.residual) for p in (audit.proposed, *audit.derived))
        assert all(p.satisfies for p in audit.derived), kappa
        assert not audit.proposed.satisfies, kappa
    # ... while a b moved off its root by 1e-6, relative and absolute, fails
    roots = revsle.observables.one_point_exponents

    def moved(kappa, h):
        r = roots(kappa, h)
        return r._replace(b_plus=r.b_plus * (1 + 1e-6) + 1e-6,
                          b_minus=r.b_minus * (1 + 1e-6) + 1e-6)

    monkeypatch.setattr(revsle.observables, "one_point_exponents", moved)
    for kappa in grid[(grid >= 1e-6) & (grid <= 1e8)]:
        assert not any(p.satisfies for p in audit_one_point_exponents(kappa).derived), kappa


# --- observable construction ----------------------------------------------------------

def test_observable_spec_validation():
    with pytest.raises(ValueError):
        ObservableSpec(points=(0.0,), weights=(1.0,))
    with pytest.raises(ValueError):
        ObservableSpec(points=(1.0, 1.0), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        ObservableSpec(points=(1.0, 2.0), weights=(1.0,))
