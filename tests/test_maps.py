from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fareychain import maps
from fareychain.rings import Params

unit = st.floats(0.0, 1.0, allow_nan=False)
r_vals = st.floats(0.0, 1.2, allow_nan=False, exclude_max=True)


def test_forward_map_values():
    assert maps.forward_map(0.25, Params.floating(0.0)) == 0.5
    assert maps.forward_map(Fraction(2, 3), Params.exact(Fraction(1))) == Fraction(1, 2)
    for r in (0.0, 0.3, 0.99, 1.5):
        assert maps.forward_map(0.5, Params.floating(r)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        maps.forward_map(1.2, Params.floating(0.5))


def test_inverse_branch_endpoints():
    for r in (0.0, 0.4, 1.0, 1.7):
        p = Params.floating(r)
        assert maps.inverse_branch(1.0, p, 0) == pytest.approx(0.5)
        assert maps.inverse_branch(0.0, p, 1) == 1.0
    with pytest.raises(ValueError):
        maps.inverse_branch(0.5, Params.floating(0.5), 2)


@given(unit, r_vals, st.integers(0, 1))
def test_inverse_branch_roundtrip(x, r, j):
    p = Params.floating(r)
    y = maps.inverse_branch(x, p, j)
    assert 0.0 <= y <= 1.0
    assert maps.forward_map(y, p) == pytest.approx(x, abs=1e-13)


def test_roundtrip_exact_mode():
    p = Params.exact(Fraction(3, 5))
    for x in (Fraction(0), Fraction(1, 7), Fraction(2, 3), Fraction(1)):
        for j in (0, 1):
            assert maps.forward_map(maps.inverse_branch(x, p, j), p) == x


def test_specific_roundtrip():
    p = Params.floating(0.6)
    y = maps.inverse_branch(0.37, p, 0)
    assert abs(maps.forward_map(y, p) - 0.37) <= 1e-14


def test_left_branch_power_tent():
    p = Params.floating(0.0)
    for n in (1, 3, 5):
        assert maps.left_branch_power(0.8, p, n) == pytest.approx(0.8 / 2**n, rel=1e-14)


def test_left_branch_power_farey_two_steps():
    p = Params.exact(Fraction(1))
    x = Fraction(3, 7)
    assert maps.left_branch_power(x, p, 2) == x / (1 + 2 * x)


def test_left_branch_power_matches_composition():
    p = Params.floating(0.7)
    x = 0.5
    composed = x
    for _ in range(6):
        composed = maps.inverse_branch(composed, p, 0)
    assert abs(maps.left_branch_power(x, p, 6) - composed) <= 1e-14
    assert maps.left_branch_power(0.0, p, 4) == 0.0


def test_minimal_slope_at_endpoints():
    # |F'| attains its infimum 2 - r at x in {0, 1}
    for r in (0.0, 0.3, 0.8):
        p = Params.floating(r)
        h = 1e-7
        grid = [x for x in np.linspace(0.0, 1.0 - h, 211) if not x < 0.5 < x + h]
        slopes = [abs(maps.forward_map(x + h, p) - maps.forward_map(x, p)) / h for x in grid]
        assert min(slopes) == pytest.approx(2.0 - r, rel=1e-4)


def test_invariant_density_tent_is_uniform():
    p = Params.floating(0.0)
    for x in (0.0, 0.31, 1.0):
        assert maps.invariant_density(x, p) == 1.0


def test_density_normalization_by_quadrature():
    # Simpson's rule as the independent integrator
    from scipy.integrate import simpson

    for r in (0.3, 0.9):
        p = Params.floating(r)
        xs = np.linspace(0.0, 1.0, 20001)
        ys = [maps.invariant_density(x, p) for x in xs]
        assert simpson(ys, x=xs) == pytest.approx(1.0, abs=1e-10)


def test_density_rejects_nonnormalizable():
    with pytest.raises(ValueError):
        maps.invariant_density(0.5, Params.floating(1.0))


def test_involution_fixes_one_and_farey_case():
    for r in (0.0, 0.5, 1.3):
        assert maps.involution_s(1.0, Params.floating(r)) == 1.0
    p1 = Params.exact(Fraction(1))
    for x in (Fraction(1, 3), Fraction(2, 7)):
        assert maps.involution_s(x, p1) == 1 / x


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.95))
def test_involution_is_involutive(x, r):
    p = Params.floating(r)
    assert maps.involution_s(maps.involution_s(x, p), p) == pytest.approx(x, abs=1e-12)


def test_involution_involutive_exact_grid():
    p = Params.exact(Fraction(2, 5))
    for k in range(11):
        x = Fraction(k, 10)
        assert maps.involution_s(maps.involution_s(x, p), p) == x


def test_involution_pole_rejected():
    p = Params.exact(Fraction(3, 2))
    with pytest.raises(ValueError):
        maps.involution_s(Fraction(1, 3), p)  # x = (r-1)/r


def test_density_is_transfer_fixed_function():
    # applying the operator through the two inverse branches returns the density
    from fareychain import transfer

    for r in (0.2, 0.5, 0.9):
        p = Params.floating(r)
        f = lambda y: maps.invariant_density(y, p)
        for x in np.linspace(0.0, 1.0, 13):
            out = transfer.apply_bruteforce(f, float(x), transfer.TransferQuery(1.0, r, 1))
            assert out.real == pytest.approx(f(x), abs=1e-10)
