from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fareychain.rings import ONE, RHO, Params, RhoPoly, csum_complex

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def test_trailing_zeros_stripped():
    assert RhoPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert RhoPoly((0, 0)).coeffs == ()
    assert RhoPoly().degree == -1


def test_basic_arithmetic():
    two_plus_rho = RhoPoly((2, 1))
    assert ONE + ONE + RHO == two_plus_rho
    assert RHO * RHO == RhoPoly((0, 0, 1))
    assert RHO**3 == RhoPoly((0, 0, 0, 1))
    assert 2 * ONE - RHO == RhoPoly((2, -1))
    assert (RHO - 1) * (RHO + 1) == RhoPoly((-1, 0, 1))


@given(coeff_lists, coeff_lists)
def test_evaluation_is_ring_homomorphism(a, b):
    pa, pb = RhoPoly(a), RhoPoly(b)
    x = Fraction(3, 7)
    assert (pa + pb)(x) == pa(x) + pb(x)
    assert (pa * pb)(x) == pa(x) * pb(x)
    assert (-pa)(x) == -pa(x)


@given(coeff_lists)
def test_add_sub_roundtrip(a):
    p = RhoPoly(a)
    assert p - p == RhoPoly()
    assert p + RhoPoly() == p


def test_params_modes():
    assert Params.floating(0.5).rho == 1.5
    assert Params.exact(Fraction(1, 3)).rho == Fraction(5, 3)
    sym = Params.symbolic()
    assert sym.rho == RHO
    assert sym.r == 2 * ONE - RHO
    with pytest.raises(ValueError):
        Params.floating(2.0)
    with pytest.raises(ValueError):
        Params.floating(-0.1)
    with pytest.raises(TypeError):
        Params(0.5, "exact")
    with pytest.raises(ValueError):
        Params(0.5, "nonsense")


def test_params_float_view():
    ex = Params.exact(Fraction(2, 5))
    assert ex.as_float().r == 0.4
    with pytest.raises(ValueError):
        Params.symbolic().as_float()


def test_compensated_sum():
    # naive summation loses the small terms entirely
    vals = [1e16, 1.0, -1e16, 1.0]
    assert csum_complex(vals) == 2.0
