import random
from fractions import Fraction

import pytest

import revsle.virasoro
from revsle.cft import kac_dimension, params_from_kappa
from revsle.virasoro import (DecompositionError, VermaVector,
                             is_level2_singular, l_action, level2_candidate,
                             null_vector_12, null_vector_21, vacuum,
                             w_eigenvalue)

KAPPAS = [Fraction(2), Fraction(8, 3), Fraction(3), Fraction(4), Fraction(6), Fraction(8)]

H = Fraction(3, 7)   # generic weight for algebra checks
C = Fraction(11, 5)  # generic central charge


def test_lowering_builds_partitions():
    v = vacuum(H, C)
    v1 = l_action(-1, v)
    assert v1.coeffs == {(1,): 1}
    v21 = l_action(-2, v1)
    assert v21.coeffs == {(2, 1): 1}
    # out-of-order lowering straightens: L_{-1} L_{-2} = L_{-2} L_{-1} + L_{-3}
    v12 = l_action(-1, l_action(-2, v))
    assert v12.coeffs == {(2, 1): 1, (3,): 1}


def test_raising_kills_vacuum():
    v = vacuum(H, C)
    assert l_action(1, v).is_zero()
    assert l_action(2, v).is_zero()


def test_l0_measures_weight_and_level():
    v = vacuum(H, C)
    assert l_action(0, v).coeffs == {(): H}
    lv2 = l_action(-2, v)
    assert l_action(0, lv2).coeffs == {(2,): H + 2}
    lv11 = l_action(-1, l_action(-1, v))
    assert l_action(0, lv11).coeffs == {(1, 1): H + 2}


def test_l1_on_l_minus1():
    # [L_1, L_{-1}] = 2 L_0
    v = vacuum(H, C)
    assert l_action(1, l_action(-1, v)).coeffs == {(): 2 * H}


def test_l1_on_l_minus1_squared():
    # hand commutation: L_1 L_{-1}^2 |h> = (4h + 2) L_{-1} |h>
    v = vacuum(H, C)
    out = l_action(1, l_action(-1, l_action(-1, v)))
    assert out.coeffs == {(1,): 4 * H + 2}


def test_l2_on_l_minus2():
    # [L_2, L_{-2}] = 4 L_0 + c/2
    v = vacuum(H, C)
    out = l_action(2, l_action(-2, v))
    assert out.coeffs == {(): 4 * H + C / 2}


def test_l1_on_l_minus2():
    # [L_1, L_{-2}] = 3 L_{-1}
    v = vacuum(H, C)
    assert l_action(1, l_action(-2, v)).coeffs == {(1,): 3}


def test_commutator_consistency_on_random_vectors():
    # [L_m, L_n] v = (m-n) L_{m+n} v + c/12 m(m^2-1) delta_{m+n,0} v, exactly
    rng = random.Random(7)
    basis = [(), (1,), (2,), (1, 1)]
    for _ in range(40):
        coeffs = {p: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for p in basis}
        v = VermaVector(coeffs, H, C)
        m = rng.randint(-2, 2)
        n = rng.randint(-2, 2)
        if not (abs(m + n) <= 2):
            continue
        lhs = l_action(m, l_action(n, v)) - l_action(n, l_action(m, v))
        rhs = l_action(m + n, v).scale(m - n)
        if m + n == 0:
            rhs = rhs + v.scale(C * Fraction(m * (m * m - 1), 12))
        assert lhs == rhs


def test_level_cap_enforced():
    v = vacuum(H, C)
    deep = l_action(-2, l_action(-2, v))
    assert deep.coeffs == {(2, 2): 1}
    with pytest.raises(ValueError):
        l_action(-1, deep)


def test_mixed_level_flag():
    v = vacuum(H, C)
    mixed = v + l_action(-2, v)
    assert mixed.levels() == {0, 2}
    assert l_action(-2, v).levels() == {2}


def test_vector_equality_and_zero():
    v = vacuum(H, C)
    assert (v - v).is_zero()
    assert v + v == v.scale(2)
    assert (v == 1) is False   # another type is never equal, and does not raise
    with pytest.raises(ValueError):
        v + vacuum(H + 1, C)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("sector", ["liouville", "matter"])
def test_null_vector_12_is_singular(kappa, sector):
    n, singular = null_vector_12(kappa, sector)
    assert singular
    assert n.levels() == {2}
    assert l_action(1, n).is_zero() and l_action(2, n).is_zero()


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("sector", ["liouville", "matter"])
def test_null_vector_21_is_singular(kappa, sector):
    _, singular = null_vector_21(kappa, sector)
    assert singular


def test_null_vector_12_kappa_4_by_hand():
    # b^2 = 1, h = -5/4, c = 25: L_1 N = (b^2 (4h+2) + 3) L_{-1}|h> and
    # L_2 N = (6 b^2 h + 4h + c/2) |h>, both vanish at these values
    h, c = Fraction(-5, 4), Fraction(25)
    assert 1 * (4 * h + 2) + 3 == 0
    assert 6 * h + 4 * h + c / 2 == 0
    n, singular = null_vector_12(4, "liouville")
    assert singular and n.h == h and n.c == c


def test_null_vector_21_kappa_2_weight():
    n, singular = null_vector_21(2, "liouville")
    assert n.h == Fraction(-7, 8)
    assert singular


def test_kappa_4_self_dual_point():
    # b^2 = 1: the (1,2) and (2,1) constructions coincide
    n12, _ = null_vector_12(4, "liouville")
    n21, _ = null_vector_21(4, "liouville")
    assert n12 == n21


@pytest.mark.parametrize("kappa", [Fraction(2), Fraction(4), Fraction(6)])
def test_perturbed_weight_is_not_singular(kappa):
    p = params_from_kappa(kappa, "liouville")
    b2 = p.b_squared
    h = -Fraction(1, 2) - 3 / (4 * b2)
    n_good = level2_candidate(b2, h, p.c)
    n_bad = level2_candidate(b2, h + Fraction(1, 10), p.c)
    assert is_level2_singular(n_good)
    assert not is_level2_singular(n_bad)


def test_exact_module_rejects_floats():
    with pytest.raises(TypeError):
        null_vector_12(4.0, "liouville")
    with pytest.raises(TypeError):
        w_eigenvalue(2.0)


@pytest.mark.parametrize("kappa,expected", [
    (Fraction(2), Fraction(-2)),
    (Fraction(4), Fraction(-15, 8)),
    (Fraction(6), Fraction(-2)),
])
def test_w_eigenvalue_values(kappa, expected):
    w = w_eigenvalue(kappa)
    assert w.eigenvalue == expected
    assert w.mu == Fraction(1, 2)
    assert w.matches_formula


@pytest.mark.parametrize("b2_factor,shift,flag,match", [
    (1, Fraction(1, 10), False, "not singular"),
    (2, 0, True, "not in span"),
], ids=["shifted-weight", "wrong-shape-flagged-singular"])
def test_w_eigenvalue_raises_off_the_null_vector(b2_factor, shift, flag, match, monkeypatch):
    # each DecompositionError can fire: a (1,2) candidate at a shifted weight
    # is not singular; one with twice the L_{-1}^2 coefficient, flagged
    # singular anyway, leaves the image outside span{|h>, N}
    p = params_from_kappa(Fraction(4), "liouville")
    n = level2_candidate(b2_factor * p.b_squared, kac_dimension(p, 1, 2) + shift, p.c)
    assert not is_level2_singular(n)   # neither candidate is a null vector
    monkeypatch.setattr(revsle.virasoro, "null_vector_12", lambda kappa, sector: (n, flag))
    with pytest.raises(DecompositionError, match=match):
        w_eigenvalue(Fraction(4))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_w_eigenvalue_formula_sweep(kappa):
    w = w_eigenvalue(kappa)
    assert w.eigenvalue == -(2 + kappa) * (6 + kappa) / (8 * kappa)
    # internal consistency: eigenvalue * 4/(2+kappa) equals h_{(1,2)}
    h12 = -Fraction(1, 2) - 3 / kappa
    assert w.eigenvalue * 4 / (2 + kappa) == h12


def test_w_image_is_mixed_level():
    # (L_{-1}+L_1)^2 / 4 maps the vacuum into levels {0, 2}
    k = Fraction(3)
    p = params_from_kappa(k, "liouville")
    h = -Fraction(1, 2) - 3 / (4 * p.b_squared)
    v = vacuum(h, p.c)
    w1 = (l_action(-1, v) + l_action(1, v)).scale(Fraction(1, 2))
    w1w1 = (l_action(-1, w1) + l_action(1, w1)).scale(Fraction(1, 2))
    assert w1w1.levels() == {0, 2}


def test_partition_validation():
    with pytest.raises(ValueError):
        VermaVector({(1, 2): 1}, H, C)   # increasing, not canonical
    with pytest.raises(ValueError):
        VermaVector({(0,): 1}, H, C)
    with pytest.raises(ValueError):
        VermaVector({(5,): 1}, H, C)     # above the level cap
