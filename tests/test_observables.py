import math

import numpy as np
import pytest

from revsle.driving import TimeGrid, explicit_path, sample_brownian
from revsle.loewner import apply_derivative, apply_map, evolve_backward, evolve_forward
from revsle.observables import (ObservableSpec,
                                PointsTooCloseError, audit_one_point_exponents,
                                bpz_generator, bpz_operator_level2,
                                drift_residual, eval_one_point,
                                one_point_exponents)


def zero_path(horizon, n, kappa=4.0):
    return explicit_path(TimeGrid(horizon, n), kappa, np.zeros(n + 1))


def one_point_spec(y, h, exponents=None):
    return ObservableSpec(points=(y,), weights=(h,),
                          exponents=exponents or (h, 0.0))


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


def test_generator_is_twice_level2_operator():
    # the flow generator equals 2x the degenerate operator at b^2 = kappa/4,
    # checked pointwise on a shared family of test functions
    kappa = 3.7
    b2 = kappa / 4.0
    spec = ObservableSpec(points=(1.3, -0.8), weights=(0.7, -1.2),
                          form="generic_callable", func=lambda *a: None)
    family = [
        lambda xi, ys: (ys[0] - xi) ** 1.5 * (ys[1] - xi) ** 2,
        lambda xi, ys: math.exp(0.3 * (ys[0] - xi)) * (ys[1] - xi) ** -1,
        lambda xi, ys: 1.0 / ((ys[0] - ys[1]) ** 2 + (ys[0] - xi) ** 2),
    ]
    for f in family:
        for xi in (0.0, 0.2, -0.4):
            gen = bpz_generator(spec, f, kappa, xi=xi)
            op = bpz_operator_level2(spec, f, b2, z=xi)
            assert abs(gen - 2.0 * op) < 1e-9


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
    evo = evolve_backward(zero_path(0.25, 10))
    out = eval_one_point(evo, 2.0, a=1.5, b=3.0, up_to=0)
    assert out.value == pytest.approx(8.0, rel=1e-14)
    assert (out.stopped, out.stop_step) == (False, None)


def test_eval_one_point_constant_exponents():
    evo = evolve_backward(sample_brownian(TimeGrid(0.02, 50), 4.0, 5))
    out = eval_one_point(evo, 1.0, a=0.0, b=0.0)
    assert out.value == 1.0


def test_eval_one_point_telescopes_zero_driving():
    # (g') * g = (y / g) * g = y exactly for zero driving, any step count
    evo = evolve_backward(zero_path(0.125, 1))
    out = eval_one_point(evo, 2.0, a=1.0, b=1.0)
    assert not out.stopped
    assert out.value == pytest.approx(2.0, abs=1e-12)
    evo32 = evolve_backward(zero_path(0.125, 32))
    assert eval_one_point(evo32, 2.0, 1.0, 1.0).value == pytest.approx(2.0, abs=1e-12)


def test_eval_one_point_zero_driving_closed_form():
    # g = sqrt(y^2 - 4t), g' = y/g: value = (y/g)^a g^b
    evo = evolve_backward(zero_path(0.125, 1))
    out = eval_one_point(evo, 2.0, a=1.0, b=0.0)
    assert out.value == pytest.approx(2.0 / math.sqrt(3.5), abs=1e-12)
    out = eval_one_point(evo, 2.0, a=0.0, b=1.0)
    assert out.value == pytest.approx(math.sqrt(3.5), abs=1e-12)


def test_eval_one_point_stops_when_driving_catches_up():
    # the driving jumps onto the image point: the sample freezes at the last
    # valid state instead of evaluating a negative power base
    grid = TimeGrid(0.01, 2)
    path = explicit_path(grid, 4.0, [0.0, 1.995, 1.995])
    evo = evolve_backward(path)
    # X_1 = sqrt(4 - 0.02) - 1.995 < eps_stop: state 1 is inside the band
    assert math.sqrt(4.0 - 0.02) - 1.995 < 1e-3
    out = eval_one_point(evo, 2.0, a=0.0, b=1.0)
    assert out.stopped
    assert out.stop_step == 1
    assert out.value == pytest.approx(2.0, abs=1e-12)   # frozen at t = 0


def test_eval_one_point_stops_at_unsteppable_state():
    # X stays above eps_stop but X^2 <= 4 dt: no further real step exists
    grid = TimeGrid(0.25, 2)   # dt = 0.125, 2 sqrt(dt) ~ 0.707
    path = explicit_path(grid, 4.0, [0.0, 1.5, 1.5])
    evo = evolve_backward(path)
    out = eval_one_point(evo, 2.0, a=0.0, b=1.0)
    assert out.stopped and out.stop_step == 1
    # frozen at state 1: X_1 = sqrt(4 - 0.5) - 1.5
    assert out.value == pytest.approx(math.sqrt(3.5) - 1.5, abs=1e-12)


def test_eval_one_point_requires_backward():
    evo = evolve_forward(zero_path(0.25, 4))
    with pytest.raises(ValueError):
        eval_one_point(evo, 2.0, 1.0, 1.0)


def test_eval_one_point_rejects_left_points():
    evo = evolve_backward(zero_path(0.25, 4))
    with pytest.raises(ValueError):
        eval_one_point(evo, -2.0, 1.0, 1.0)


# --- proposed-exponent audit --------------------------------------------------------

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


def test_audit_json_shape():
    payload = audit_one_point_exponents(4.0).to_json()
    assert payload["kappa"] == 4.0
    assert payload["proposed_pair"]["satisfies"] is False
    assert all(c["satisfies"] for c in payload["derived_pairs"])


# --- observable construction ----------------------------------------------------------

def test_observable_spec_validation():
    with pytest.raises(ValueError):
        ObservableSpec(points=(0.0,), weights=(1.0,), exponents=(1.0, 1.0))
    with pytest.raises(ValueError):
        ObservableSpec(points=(1.0, 1.0), weights=(1.0, 1.0),
                       form="generic_callable", func=lambda *a: a)
    with pytest.raises(ValueError):
        ObservableSpec(points=(1.0,), weights=(1.0,))   # missing exponents
    with pytest.raises(ValueError):
        ObservableSpec(points=(1.0,), weights=(1.0,), form="generic_callable")
