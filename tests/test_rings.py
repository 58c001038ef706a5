from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fareychain.rings import ONE, RHO, Params, RhoPoly, csum_complex

coeff_lists = st.lists(st.integers(-50, 50), max_size=8)


def test_trailing_zeros_stripped():
    assert RhoPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert RhoPoly((0, 0)).coeffs == ()


def _sliced_repr(coeffs):
    """The earlier formatter: the repr's terms, and str as the repr without "RhoPoly(" and ")"."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*rho" if c != 1 else "rho")
        else:
            terms.append(f"{c}*rho^{i}" if c != 1 else f"rho^{i}")
    text = f"RhoPoly({' + '.join(terms)})" if terms else "RhoPoly(0)"
    return text[8:-1], text


def _parse(text):
    coeffs = {}
    for term in [] if text == "0" else text.split(" + "):
        head, has_rho, power = term.partition("rho")
        degree = int(power[1:] or 1) if has_rho else 0
        coeffs[degree] = int(head.rstrip("*") or 1) if has_rho else int(head)
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1))


@given(st.lists(st.one_of(st.integers(-(2**40), 2**40), st.sampled_from((0, 1, -1))), max_size=24),
       st.integers(0, 3))
@example([], 0)
@example([0, 0], 2)
@example([1, 1, 1], 0)
@example([-1, -1, 0, -1], 1)
def test_one_formatter_writes_the_sliced_repr(coeffs, trailing_zeros):
    p = RhoPoly(coeffs + [0] * trailing_zeros)
    old_str, old_repr = _sliced_repr(p.coeffs)
    assert str(p) == old_str and repr(p) == old_repr == f"RhoPoly({p})"
    assert _parse(str(p)) == p.coeffs
    if not p.coeffs:
        assert (str(p), repr(p)) == ("0", "RhoPoly(0)")


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
