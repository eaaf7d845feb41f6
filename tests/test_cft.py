import math
from fractions import Fraction

import pytest

from revsle.cft import (CftParams, coupling_check, kac_alpha, kac_dimension,
                        params_from_kappa)

KAPPAS = [Fraction(2), Fraction(8, 3), Fraction(3), Fraction(4), Fraction(6), Fraction(8)]


def test_liouville_kappa_4():
    p = params_from_kappa(4, "liouville")
    assert p.b_squared == 1
    assert p.q_squared == 4
    assert p.c == 25


def test_matter_kappa_4():
    p = params_from_kappa(4, "matter")
    assert p.b_squared == -1
    assert p.q_squared == 0
    assert p.c == 1


def test_matter_kappa_6_vanishing_charge():
    p = params_from_kappa(6, "matter")
    assert p.q_squared == Fraction(-1, 6)
    assert p.c == 0
    # cross-check against c = 1 - 6 (kappa-4)^2 / (4 kappa)
    k = Fraction(6)
    assert p.c == 1 - 6 * (k - 4) ** 2 / (4 * k)


def test_matter_charge_closed_form_sweep():
    for k in KAPPAS:
        c = params_from_kappa(k, "matter").c
        assert c == 1 - 6 * (k - 4) ** 2 / (4 * k)


def test_central_charge_kappa_2_liouville():
    p = params_from_kappa(2, "liouville")
    assert p.q_squared == Fraction(9, 2)
    assert p.c == 28


def test_kappa_validation():
    with pytest.raises(ValueError):
        params_from_kappa(0, "liouville")
    with pytest.raises(ValueError):
        params_from_kappa(-3, "matter")
    with pytest.raises(ValueError):
        params_from_kappa(4, "spacelike")
    with pytest.raises(TypeError):   # a bool is not a kappa
        params_from_kappa(True, "liouville")
    for kappa in (5e-324, 1e-323):   # kappa/4 is 0.0: 1/b^2 would divide by zero
        for sector in ("liouville", "matter"):
            with pytest.raises(ValueError, match="underflows"):
                params_from_kappa(kappa, sector)


@pytest.mark.parametrize("sector", ["liouville", "matter"])
def test_float_kappa_whose_c_overflows_raises(sector):
    # 1/b^2 overflows at a subnormal kappa/4 (1e-310, 1.5e-323); 6 Q^2
    # overflows while kappa/4 is normal (1e-307) and at a large kappa (1.5e308)
    for kappa in (1e-307, 1e-310, 1.5e-323, 1.5e308):
        with pytest.raises(ValueError, match="overflows"):
            params_from_kappa(kappa, sector)
    for kappa in (1e-306, 1e308):
        p = params_from_kappa(kappa, sector)
        assert all(math.isfinite(x) for x in (p.b_squared, p.q_squared, p.c))
    # exact mode has no overflow to check, and math.isfinite would raise on it
    assert isinstance(params_from_kappa(10 ** 400, sector).c, Fraction)


def test_float_mode_is_float():
    p = params_from_kappa(4.0, "liouville")
    assert isinstance(p.c, float)
    assert p.c == pytest.approx(25.0, abs=1e-14)


def test_exact_mode_is_fraction():
    p = params_from_kappa(Fraction(8, 3), "matter")
    assert isinstance(p.c, Fraction)


def test_kac_identity_operator():
    for k in (2, 4, 6):
        for sector in ("liouville", "matter"):
            assert kac_dimension(params_from_kappa(k, sector), 1, 1) == 0


def test_kac_12_liouville_kappa_2():
    p = params_from_kappa(2, "liouville")   # b^2 = 1/2
    assert kac_dimension(p, 1, 2) == -2
    assert kac_dimension(p, 1, 2) == -Fraction(1, 2) - Fraction(3, 1) / (4 * p.b_squared)


def test_kac_12_matter_kappa_8_3():
    k = Fraction(8, 3)
    p = params_from_kappa(k, "matter")      # b^2 = -2/3
    h = kac_dimension(p, 1, 2)
    assert h == Fraction(5, 8)
    assert h == (6 - k) / (2 * k)


def test_kac_degenerate_closed_forms():
    for k in KAPPAS:
        for sector in ("liouville", "matter"):
            p = params_from_kappa(k, sector)
            b2 = p.b_squared
            assert kac_dimension(p, 1, 2) == -Fraction(1, 2) - 3 / (4 * b2)
            assert kac_dimension(p, 2, 1) == -Fraction(1, 2) - 3 * b2 / 4


def test_kac_13_closed_form_liouville():
    # h_{(1,3)} = -1 - 2/b^2 = -1 - 8/kappa at b^2 = kappa/4
    for k in KAPPAS:
        p = params_from_kappa(k, "liouville")
        assert kac_dimension(p, 1, 3) == -1 - 8 / k


def test_kac_rejects_bad_labels():
    p = params_from_kappa(4, "liouville")
    for kac in (kac_dimension, kac_alpha):
        with pytest.raises(ValueError):
            kac(p, 0, 1)
        with pytest.raises(ValueError):
            kac(p, 1, 0)


def test_alpha_reproduces_dimension_liouville():
    # h = alpha (Q - alpha) with real b; matches the b^2-only expansion
    for k in KAPPAS:
        p = params_from_kappa(k, "liouville")
        b = float(p.b_squared) ** 0.5
        q = b + 1 / b
        for r, s in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]:
            alpha = kac_alpha(p, r, s)
            assert isinstance(alpha, float)
            assert alpha * (q - alpha) == pytest.approx(float(kac_dimension(p, r, s)),
                                                        abs=1e-12)


def test_alpha_matter_keeps_dimension_real():
    p = params_from_kappa(6, "matter")
    alpha = kac_alpha(p, 1, 2)
    b = complex(float(p.b_squared)) ** 0.5
    q = b + 1 / b
    h = alpha * (q - alpha)
    assert abs(h.imag) < 1e-12
    assert h.real == pytest.approx(float(kac_dimension(p, 1, 2)), abs=1e-12)


def test_coupling_kappa_4():
    assert coupling_check(4) == (25, 1, 26)


def test_coupling_kappa_6():
    c_l, c_m, total = coupling_check(6)
    assert (c_l, c_m, total) == (26, 0, 26)


def test_coupling_identity_exact_sweep():
    for k in KAPPAS:
        assert coupling_check(k).total == 26


def test_coupling_identity_float_sweep():
    for k in [0.37, 1.0, 2.0, 3.7, 4.0, 6.0, 8.0, 17.5, 123.0]:
        assert abs(coupling_check(k).total - 26.0) <= 1e-12


def test_sector_duality_negates_b_squared():
    for k in KAPPAS + [Fraction(7, 5)]:
        liou = params_from_kappa(k, "liouville")
        matt = params_from_kappa(k, "matter")
        assert matt.b_squared == -liou.b_squared


def test_kac_symmetry_under_b_inversion():
    # h_{(r,s)} at b^2 = kappa/4 equals h_{(s,r)} at b^2 = 4/kappa, i.e.
    # the liouville sector of kappa' = 16/kappa
    for k in KAPPAS:
        p = params_from_kappa(k, "liouville")
        p_dual = params_from_kappa(16 / k, "liouville")
        for r, s in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3)]:
            assert kac_dimension(p, r, s) == kac_dimension(p_dual, s, r)


def test_params_sector_consistency_guard():
    with pytest.raises(ValueError):
        CftParams("liouville", -1, 0, 1)
    with pytest.raises(ValueError):
        CftParams("matter", 1, 4, 25)
