import cmath
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareychain import maps, transfer
from fareychain.rings import Params
from fareychain.transfer import TransferQuery


def test_bruteforce_tent_constant():
    for n in (1, 4, 9):
        for s in (0.5, 1.0, 2.0):
            q = TransferQuery(s, 0.0, n)
            assert transfer.apply_bruteforce(lambda y: 1.0, 0.3, q).real == pytest.approx(
                2.0 ** (n * (1 - s)), rel=1e-13
            )


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0, exclude_max=True), st.integers(1, 8), st.floats(0.0, 1.0))
@example(0.0, 8, 1.0)
@example(1.0, 8, 0.0)
@example(1.999, 8, 0.5)
def test_branch_words_are_the_compositions_of_the_inverse_branches(r, n, y):
    """Word i of _branch_words, bits sigma_1 .. sigma_n most significant first, maps y as
    Phi_(sigma_1) o ... o Phi_(sigma_n) of maps.inverse_branch, and is odd iff it has an odd number of ones."""
    params = Params.floating(r)
    words = list(transfer._branch_words(TransferQuery(1.0, r, n)))
    assert len(words) == 1 << n
    for i, (odd, (a, b, c, d)) in enumerate(words):
        bits = [(i >> (n - 1 - j)) & 1 for j in range(n)]
        z = y
        for bit in reversed(bits):
            z = maps.inverse_branch(z, params, bit)
        assert (a * y + b) / (c * y + d) == pytest.approx(z, rel=0.0, abs=1e-14), (i, bits)
        assert odd == (sum(bits) % 2 == 1), (i, bits)


def test_branch_words_refuse_n_over_the_cap_before_the_first_word():
    with pytest.raises(ValueError, match="brute-force cap"):
        next(transfer._branch_words(TransferQuery(1.0, 0.5, transfer.BRUTE_CAP + 1)))


def test_single_step_closed_form():
    r, s, x = 0.6, 1.3, 0.42
    rho = 2.0 - r
    q = TransferQuery(s, r, 1)
    expected = 2.0 * rho**s / (r * x + rho) ** (2 * s)
    assert transfer.iterate_one(x, q).real == pytest.approx(expected, rel=1e-14)
    assert transfer.apply_bruteforce(lambda y: 1.0, x, q).real == pytest.approx(expected, rel=1e-14)


def test_iterate_one_matches_bruteforce_randomized():
    rng = random.Random(42)
    for _ in range(16):
        n = rng.randint(1, 12)
        r = rng.uniform(0.0, 1.3)
        s = complex(rng.uniform(0.2, 2.5), rng.uniform(-1.5, 1.5))
        x = rng.random()
        q = TransferQuery(s, r, n)
        bf = transfer.apply_bruteforce(lambda y: 1.0, x, q)
        assert abs(transfer.iterate_one(x, q) - bf) <= 1e-11 * abs(bf)


def test_character_single_step_display():
    r, s, x, m = 0.7, 0.9, 0.25, 2
    rho = 2.0 - r
    q = TransferQuery(s, r, 1)
    e = lambda y: cmath.exp(2j * math.pi * m * y)
    expected = rho**s * (e(x / (r * x + rho)) + e(((r - 1) * x + rho) / (r * x + rho))) / (
        r * x + rho
    ) ** (2 * s)
    assert transfer.iterate_character(x, q, m) == pytest.approx(expected, rel=1e-13)


def test_character_reduces_to_one_at_m_zero():
    q = TransferQuery(1.1, 0.4, 6)
    assert transfer.iterate_character(0.3, q, 0) == transfer.iterate_one(0.3, q)


def test_character_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 10)
        r = rng.uniform(0.0, 1.2)
        m = rng.choice([-4, -1, 1, 2, 5])
        x = rng.random()
        q = TransferQuery(rng.uniform(0.4, 2.0), r, n)
        bf = transfer.apply_bruteforce(lambda y: cmath.exp(2j * math.pi * m * y), x, q)
        assert abs(transfer.iterate_character(x, q, m) - bf) <= 1e-11 * max(abs(bf), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.3), st.builds(complex, st.floats(-1.0, 2.5), st.floats(-1.5, 1.5)), st.integers(-5, 5),
       st.integers(1, 10), st.floats(0.0, 1.0))
@example(0.0, -1 + 0j, 1, 9, 0.0)  # exactly 0, from 512 terms of total modulus 2^18: both routes read rounding
def test_iterates_match_bruteforce_across_the_route_switch(r, s, m, n, x):
    # the Chebyshev compression on r in [0, 1] with Re s >= 0, the leaf walk for r > 1 or Re s < 0; besides the
    # relative 1e-11, either route may round by n eps times the total modulus of the terms, (P^n_(Re s) 1)(x)
    q = TransferQuery(s, r, n)
    route = "leaf walk (r > 1)" if r > 1 else "leaf walk (Re s < 0)" if s.real < 0 else "operator iterates, dim"
    rounding = n * np.finfo(float).eps * abs(transfer.apply_bruteforce(lambda y: 1.0, x, TransferQuery(s.real, r, n)))
    for f, value in ((lambda y: 1.0, transfer.iterate_one(x, q)),
                     (lambda y: cmath.exp(2j * math.pi * m * y), transfer.iterate_character(x, q, m))):
        bf = transfer.apply_bruteforce(f, x, q)
        assert abs(value - bf) <= 1e-11 * max(abs(bf), 1.0) + rounding, (value, value.method, bf)
        assert value.method.startswith(route), value.method


@pytest.mark.parametrize("r", [0.99, 0.999, 1.0])
@pytest.mark.parametrize("s", [0.0, 1.0, 3.0])
def test_operator_iterate_error_covers_the_walk_toward_the_farey_map(r, s):
    # near the neutral fixed point the iterates vary by 1e5 across [0, 1] at s = 3, and the change from
    # 3 dim/4 points alone under-reports the rounding of the read-out where they are small
    q = TransferQuery(s, r, 20)
    for x in (0.0, 0.3):
        for m in (0, 1, 3):
            value = transfer.iterate_character(x, q, m)
            walk = transfer._iterate(x, q, transfer._character_pair(m))
            assert value.method.startswith("operator iterates, dim"), (x, m, value.method)
            assert abs(value - walk) <= value.error, (x, m, value, walk, value.error)


def test_general_iterate_base_case_arguments():
    # k = 0 evaluates f exactly at the two inverse branches
    r, s, x = 0.8, 1.1, 0.37
    p = Params.floating(r)
    seen = []
    f = lambda arr: (seen.append(np.atleast_1d(arr)), np.atleast_1d(arr) * 0 + 1.0)[1]
    transfer.iterate_general(f, x, s, r, 0)
    args = np.sort(np.concatenate(seen))
    expected = np.sort([maps.inverse_branch(x, p, 0), maps.inverse_branch(x, p, 1)])
    assert np.allclose(args, expected, atol=1e-15)


def test_general_iterate_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(0, 8)
        r = rng.uniform(0.0, 1.3)
        s = rng.uniform(0.3, 2.0)
        x = rng.random()
        c = [rng.uniform(-1, 1) for _ in range(4)]
        f = lambda y: c[0] + c[1] * y + c[2] * y**2 + c[3] * y**3
        bf = transfer.apply_bruteforce(f, x, TransferQuery(s, r, k + 1))
        cl = transfer.iterate_general(f, x, s, r, k)
        assert abs(cl - bf) <= 1e-12 * max(abs(bf), 1.0)


def test_general_iterate_at_one_is_leaf_sum():
    from fareychain import spinchain

    r, s, k = 0.45, 0.8, 7
    table = spinchain.pq_tables(k, Params.floating(r))
    p_arr = np.asarray(table.p)
    q_arr = np.asarray(table.q)
    f = lambda y: np.cos(y)
    leaf = np.sum(q_arr ** (-2.0 * s) * np.cos(p_arr / q_arr))
    val = 0.5 * (2.0 - r) ** (-(k + 1) * s) * transfer.iterate_general(f, 1.0, s, r, k)
    assert val.real == pytest.approx(leaf, rel=1e-13)


def test_trace_unit_interval_example():
    assert transfer.trace_sums(1, 1.0, 0.0)[0].real == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert transfer.trace_power_bruteforce(TransferQuery(1.0, 0.0, 1)).real == pytest.approx(4.0 / 3.0, rel=1e-14)


_N1_GRID = [(r, s) for r in (0.0, 0.25, 0.5, 0.75, 0.9, *(1.0 - 10.0**-k for k in range(1, 13)))
            for s in (0.5, 1.0, 2.0, 1.5 + 0.5j)]


def test_trace_closed_n1_three_way():
    # r = 1 - 10^-k: the trace grows like 1 / (1 - r), and no route may cancel on the way.  The walk holds
    # rho = 2.0 - r rounded, the closed forms take rho - 1 as 1 - r exactly: so the walk is compared with the closed
    # form at the r of its rho, 2.0 - rho, which is exact (the closed forms at r itself are checked in 40 digits below)
    for r, s in _N1_GRID:
        leaf = transfer.trace_sums(1, s, r, method="leaves")[0]
        closed = transfer.trace_closed_n1(s, r)
        spectral = transfer.trace_from_spectra(s, r)
        at_walk_rho = transfer.trace_closed_n1(s, 2.0 - (2.0 - r))
        assert abs(leaf - at_walk_rho) <= 1e-13 * max(1.0, abs(at_walk_rho)), (r, s)
        assert abs(spectral - closed) <= 1e-13 * max(1.0, abs(closed)), (r, s)


def _closed_n1_reference(s, r):
    """trace(P_s) in closed form (:func:`transfer.trace_closed_n1`) in 40-digit arithmetic at the float r itself:
    the float routes that take rho = 2 - r rounded (the leaf walk, the fixed-point oracles) carry its rounding, up
    to eps / (1 - r) relative, in 1/(rho - 1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        rho, s = 2 - mpmath.mpf(r), mpmath.mpc(s)
        root = mpmath.sqrt(1 + 4 * rho)
        return complex(rho ** (1 - s) / (rho - 1) + rho**s / root * (2 / (1 + root)) ** (2 * s - 1))


def test_trace_closed_forms_near_farey_end_against_high_precision():
    # rho - 1 taken as 1 - r (exact on [1/2, 1]) and rho^(1-s) from log1p(1 - r): 2.0 - r rounded was 1.1e-4 off
    # at 1 - r = 1e-12 and 1.1e-7 off at 1 - r = 1e-9
    for r in (1.0 - 1e-9, 1.0 - 1e-12):
        for s in (0.5, 1.0, 2.0, 1.5 + 0.5j):
            ref = _closed_n1_reference(s, r)
            for value in (transfer.trace_closed_n1(s, r), transfer.trace_from_spectra(s, r)):
                assert abs(value - ref) <= 4 * np.finfo(float).eps * abs(ref), (r, s, value, ref)


def test_trace_series_n1_against_high_precision():
    for r, s in _N1_GRID:
        value, ref = transfer.trace_sums(1, s, r)[0], _closed_n1_reference(s, r)
        assert abs(value - ref) <= value.error + 4 * np.finfo(float).eps * abs(ref), (r, s, value, ref, value.error)


def _check_traces_and_xi(s, r, n):
    """Every entry n' <= n of the trace series (both signs) and of Xi against the
    fixed-point oracle."""
    traces, signed, xis = (transfer.trace_sums(n, s, r), transfer.trace_sums(n, s, r, signed=True),
                           transfer.periodic_sums_xi(n, s, r))
    for k in range(1, n + 1):
        q = TransferQuery(s, r, k)
        b, b_s = transfer.trace_power_bruteforce(q), transfer.trace_power_bruteforce(q, signed=True)
        assert abs(traces[k - 1] - b) <= 1e-10 * abs(b), (s, r, k)
        assert abs(signed[k - 1] - b_s) <= 1e-10 * max(abs(b_s), 1e-6), (s, r, k)
        assert abs(xis[k - 1] - transfer.periodic_sum_bruteforce(q)) <= 1e-10, (s, r, k)


def test_trace_matches_fixed_point_oracle():
    for r in (0.0, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5):
        for s in (0.5, 1.0, 2.0):
            _check_traces_and_xi(s, r, 8)


# r stops at 1 - 1e-5: past it the oracle's own 1 - psi'(x*) cancels (psi' -> 1 at the all-left word)
@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0 - 1e-5), st.floats(0.3, 2.5), st.integers(1, 9))
def test_series_match_fixed_point_oracle_drawn(r, s, n):
    _check_traces_and_xi(s, r, n)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-3.0, 6.0), st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), st.integers(1, 12))
@example(0.0, 1.0, 0.0, 12)
@example(1.0, 1.5, 0.0, 12)
@example(1.0 - 1e-9, 0.7, 1.2, 6)
def test_first_return_series_match_fixed_point_oracle_drawn(r, re_s, im_s, n):
    # the n-th value of each series (its entries k < n do not depend on n) within its own error plus the oracle's
    # rounding: 64 n eps times the moduli of its terms, and, in the traces, 4 eps (n |s| + 1 / (1 - r)) times the
    # fixed point 0's term rho^(-ns) / (1 - rho^(-n)), whose 1 - psi'(x*) cancels as r -> 1, with rho = 2 - r rounded
    # (to 1 past r = 1 - 2^-53, where the oracle's trace divides by 0)
    s, eps, q = complex(re_s, im_s), np.finfo(float).eps, TransferQuery(complex(re_s, im_s), r, n)
    moduli = [(abs(deriv) ** re_s, abs(1.0 - deriv)) for _odd, deriv in transfer._fixed_point_derivatives(q)]
    value = transfer.periodic_sums_xi(n, s, r)[-1]
    rounding = 64 * n * eps * sum(a for a, _b in moduli)
    assert abs(value - transfer.periodic_sum_bruteforce(q)) <= value.error + rounding, (value, value.error)
    assert value.method == f"first-return series, dim {transfer.SERIES_DIM}"
    if 2.0 - r > 1.0:
        head = abs((2.0 - r) ** (-n * s)) / -math.expm1(-n * math.log1p(1.0 - r))
        rounding = 64 * n * eps * sum(a / b for a, b in moduli) + 4 * eps * head * (n * abs(s) + 1.0 / (1.0 - r))
        for signed in (False, True):
            value, oracle = transfer.trace_sums(n, s, r, signed)[-1], transfer.trace_power_bruteforce(q, signed)
            assert abs(value - oracle) <= value.error + rounding, (signed, value, oracle, value.error)


def test_fixed_point_oracle_at_tiny_r():
    # c of a branch word is O(r): near r = 0 the textbook root formula cancels and found no root
    for r in (0.0, 1e-300, 2.220446049250313e-16, 1e-15, 1e-13, 1e-10, 0.3, 0.7, 0.95):
        for s in (0.5, 1.0, 2.0):
            _check_traces_and_xi(s, r, 9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_block_traces_closed_forms_at_tent_and_farey():
    m = np.arange(1, 41)
    for sigma in (0.5, 1.0, 2.5, complex(1.2, -3.0)):
        # r = 0: the blocks are affine, D_m = 2^m, x* = 2^m / (2^m + 1)
        want = np.exp(-m * math.log(2.0) * sigma) / (1.0 + 2.0**-m)
        assert np.allclose(transfer._block_traces(sigma, 0.0, 40), want, rtol=4e-15, atol=0), sigma
        # r = 1: D_m = m x + 1, so x* solves m x^2 + (2 - m) x - 1 = 0
        x, D = transfer._block_fixed_points(1.0, 40)
        assert np.all(np.abs(m * x * x + (2 - m) * x - 1.0) <= 8 * np.finfo(float).eps * m)
        assert np.allclose(D, m * x + 1.0, rtol=4e-16, atol=0) and 0.5 <= x.min() and x.max() <= 1.0
        assert D[0] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=2e-16)  # the golden mean
        want = np.exp(-2.0 * sigma * np.log(D)) / (1.0 + D**-2.0)
        assert np.allclose(transfer._block_traces(sigma, 1.0, 40), want, rtol=16e-15, atol=0), sigma


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-1.5, 3.0), st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), st.integers(1, 40))
@example(1e-300, 1.0, 0.0, 40)
@example(1e-15, -1.5, 2.0, 40)
@example(1.0 - 1e-9, 3.0, -5.0, 40)
@example(1.0, 2.0, 0.0, 40)
def test_block_traces_match_collocated_traces_at_dim_64(r, re_sigma, im_sigma, n):
    # the collocated trace of b_m = rho^(m sigma) K_(sigma,m) converges like |psi_m'(x*)|^dim, below rounding at
    # dim 64; its rounding: (dim + |sigma| |log |psi_m'(x*)||) eps times the moduli of its diagonal, the second
    # term from exp of sigma times the logs that both sides take
    sigma, dim, m = (complex(re_sigma, im_sigma) if im_sigma else re_sigma), 64, np.arange(1, n + 1)
    _x, D, rows = transfer._return_blocks(r, dim, n)
    L = math.log1p(1.0 - r)
    diagonal = np.exp(sigma * (L * m - 2.0 * np.log(D))) * np.einsum("imi->im", rows)
    exact = transfer._block_traces(sigma, r, n)
    log_mu = L * m - 2.0 * np.log(transfer._block_fixed_points(r, n)[1])
    bound = 2.0 * (dim + abs(sigma) * np.abs(log_mu)) * np.finfo(float).eps * np.abs(diagonal).sum(axis=0)
    assert np.all(np.abs(exact - diagonal.sum(axis=0)) <= bound), (exact, diagonal.sum(axis=0), bound)


def test_series_at_large_s_match_fixed_point_oracle():
    # the roots carry rho^(n/2), so neither rho^(ns) nor m_j^(2s-1) leaves the float range on its own
    s, r = 400.0, 0.5
    traces, xis = transfer.trace_sums(4, s, r), transfer.periodic_sums_xi(4, s, r)
    for n, (tr, xi) in enumerate(zip(traces, xis), 1):
        q = TransferQuery(s, r, n)
        assert abs(tr - transfer.trace_power_bruteforce(q)) <= 1e-12 * abs(tr) and tr != 0, n
        assert abs(xi - transfer.periodic_sum_bruteforce(q)) <= 1e-12 * abs(xi) and xi != 0, n


def test_trace_rejects_r_at_least_one():
    with pytest.raises(ValueError):
        transfer.trace_sums(2, 1.0, 1.0)


def test_trace_divergence_vs_xi_finiteness_toward_farey():
    # at fixed n the trace blows up along r -> 1 while Xi_n stays put
    n, s = 4, 1.0
    traces = []
    xis = []
    for j in range(2, 21):
        r = 1.0 - 2.0**-j
        traces.append(transfer.trace_sums(n, s, r)[-1].real)
        xis.append(transfer.periodic_sums_xi(n, s, r)[-1].real)
    assert all(b > a for a, b in zip(traces, traces[1:]))
    assert traces[-1] > 1e4
    xi_limit = transfer.periodic_sums_xi(n, s, 1.0)[-1].real
    assert abs(xis[-1] - xi_limit) <= 1e-4
    assert max(xis) <= 5.0


def test_xi_tent_single_step():
    for s in (0.5, 1.0, 2.0):
        assert transfer.periodic_sums_xi(1, s, 0.0)[0].real == pytest.approx(2.0 * 2.0**-s, rel=1e-14)


def test_xi_identity_and_oracle():
    for r in (0.0, 0.5):
        xis = transfer.periodic_sums_xi(8, 0.7, r)
        traces = zip(transfer.trace_sums(8, 0.7, r), transfer.trace_sums(8, 1.7, r, signed=True))
        for n, (xi, (a, b)) in enumerate(zip(xis, traces), 1):
            assert abs(xi - (a - b)) <= 1e-11 * max(1.0, abs(xi))
            assert abs(xi - transfer.periodic_sum_bruteforce(TransferQuery(0.7, r, n))) <= 1e-10


def test_xi_farey_matches_periodic_point_search():
    for n, xi in enumerate(transfer.periodic_sums_xi(8, 1.4, 1.0), 1):
        assert abs(xi - transfer.periodic_sum_bruteforce(TransferQuery(1.4, 1.0, n))) <= 1e-8


def test_fredholm_at_zero():
    fz = transfer.fredholm_and_zeta(0.0, 1.0, 0.5)
    assert fz.det == 1.0 and fz.zeta_exp == 1.0 and fz.zeta_ratio == 1.0


def test_zeta_ratio_identity():
    for z in (0.5, -0.5, 0.3 + 0.35j, 0.1j):
        fz = transfer.fredholm_and_zeta(z, 1.0, 0.5, N=14)
        assert abs(fz.zeta_exp - fz.zeta_ratio) <= 1e-9
        assert fz.converged


def test_fredholm_smallest_zero_at_unit_eigenvalue():
    # lambda_1 = 1 at s = 1, and every other eigenvalue is smaller in modulus,
    # so det(1 - z P) is positive on [0, 1) and vanishes at z = 1
    for N in (14, 18):
        assert abs(transfer.fredholm_and_zeta(1.0, 1.0, 0.5, N=N).det) <= 1e-12
        assert all(transfer.fredholm_and_zeta(z, 1.0, 0.5, N=N).det.real > 0 for z in np.linspace(0.0, 0.99, 12))


def test_spectral_radius_tent_closed_form():
    for s in (0.3, 0.5, 1.0, 2.0, 3.5):
        res = transfer.spectral_radius(s, 0.0, tol=1e-12)
        assert abs(res.value - 2.0 ** (1 - s)) <= 1e-10


def test_spectral_radius_unit_at_s_one():
    for r in (0.3, 0.6, 0.9):
        res = transfer.spectral_radius(1.0, r, tol=1e-10)
        assert abs(res.value - 1.0) <= 1e-8
        assert res.error <= 1e-8


def test_spectral_radius_decreasing_in_s():
    for r in (0.2, 0.7):
        vals = [transfer.spectral_radius(s, r, tol=1e-9).value for s in (0.25, 0.75, 1.25, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_spectral_radius_error_bounds_reference():
    for r in (0.5, 0.9, 0.99):
        for s in (0.6, 1.0):
            res = transfer.spectral_radius(s, r, tol=1e-9)
            assert res.error <= 1e-9 and res.method.startswith("first-return root; ") and res.dim == 16
            assert abs(res.value - transfer._collocation_lambda(s, r, 384)) <= res.error


def test_spectral_radius_refuses_bad_tol_before_any_solve(monkeypatch):
    monkeypatch.setattr(transfer, "_search_log_lambda", lambda *a: pytest.fail("a refused tol was solved"))
    monkeypatch.setattr(transfer, "return_root", lambda *a: pytest.fail("a refused tol was solved"))
    for tol in (1e-15, 0.0, -1.0, math.nan, math.inf):  # below the 1e-14 floor, or not finite
        with pytest.raises(ValueError, match="tol="):
            transfer.spectral_radius(1.0, 0.5, tol=tol)
    for r in (-0.1, 1.0 + 1e-9, 1.5):
        with pytest.raises(ValueError, match=r"r in \[0, 1\]"):
            transfer.spectral_radius(1.0, r)


@pytest.mark.parametrize("s", [1070.0, 1200.0])
def test_spectral_radius_refuses_lambda_below_the_float_range(s):
    # lambda = 2^(1-s) at r = 0: a subnormal at s = 1070, 0 at s = 1200, either with an error bar of 0
    with pytest.raises(ArithmeticError, match=rf"s={s}, r=0.0: log lambda = -\d+\.?\d* is below the float range"):
        transfer.spectral_radius(s, 0.0)


@pytest.mark.parametrize("r, s", [(0.9, 1.5), (0.5, 3.0), (0.99, 1.5), (0.9, 3.0)])
def test_spectral_radius_at_the_edge_of_the_induced_sum(r, s):
    # g = log lambda - s log rho lies 2e-6 .. 4e-2 above the edge -2 s log rho, toward which the tail of the
    # induced sum decays ever slower, like e^(-a v), a -> 0: with that tail on the nodes alone, three of these
    # fall back to mu_0 = rho^-s and (0.5, 3) reads 2e-7 low
    res = transfer.spectral_radius(s, r, tol=1e-10)
    gap = abs(res.value - transfer._collocation_lambda(s, r, 384))
    assert res.method.startswith("first-return root; ") and gap <= 1e-11 and gap <= res.error, (res, gap)
    assert res.value > (2.0 - r) ** -s + 1e-7


def test_spectral_radius_at_the_farey_map():
    # r = 1: above s = 1 the induced root leaves the bracket and lambda is the fixed point's mu_0 = 1
    for s in (1.0, 1.5):
        res = transfer.spectral_radius(s, 1.0)
        assert res.method.startswith("fixed point 0") and abs(res.value - 1.0) <= res.error <= 1e-10
    res = transfer.spectral_radius(0.75, 1.0)
    assert abs(res.value - transfer._collocation_lambda(0.75, 1.0, 384)) <= res.error + 1e-14
    # toward it the weight e^(-eps m) cuts the tail early in the long tanh-sinh split (transfer._return_operator)
    for r in (1.0 - 1e-6, 1.0 - 1e-10):
        assert abs(transfer.spectral_radius(0.9, r).value - transfer.spectral_radius(0.9, 1.0).value) <= 1e-5


def _compression_lambda(s, r):
    """(lambda, bar) of the dim-384 Chebyshev compression, bar its change from 288 points.  For s <= 1 toward
    r = 1 its eigenfunction concentrates at the neutral fixed point (1/x at r = s = 1), and lambda_d converges
    like C d^-p from above (p ~ 2.2: 2.4e-7 off the exact lambda = 1 at r = s = 1 with a change of 2.1e-7), so
    where the rungs 216, 288, 384 (ratio 4/3) fall monotonically, at least like 1/d, that tail is summed off
    (Aitken).  For s > 1 lambda meets mu_0 there and the rungs cross it, which no tail fits."""
    l216, l288, l384 = (transfer._collocation_lambda(s, r, dim) for dim in (216, 288, 384))
    ratio = (l384 - l288) / (l288 - l216) if l288 != l216 else 0.0
    tail = (l384 - l288) * ratio / (1.0 - ratio) if s <= 1 and 0 < ratio <= 0.75 else 0.0
    return l384 + tail, abs(l384 - l288)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.05, 4.0))
@example(1.0, 1.0)
@example(1.0, 0.99)  # s = 0.995 .. 0.9999 at r = 1: the 2h term of the tail rule refused tol 1e-10 at step 1/16
@example(1.0, 0.995)
@example(1.0, 0.999)
@example(1.0, 0.9999)
@example(1.0, 0.99999)
@example(1.0 - 2.0**-53, 1.0 - 2.0**-53)
def test_spectral_radius_matches_chebyshev_compression(r, s):
    # lambda >= mu_0 = rho^-s, the fixed point's eigenvalue; for s > 1 and 1 - r below about 1e-3 the compression
    # cannot resolve the eigenfunction at the near-neutral fixed point and falls up to 3e-5 below mu_0
    res = transfer.spectral_radius(s, r, tol=1e-10)
    mu_0 = (2.0 - r) ** -s
    ref, ref_error = _compression_lambda(s, r)
    assert res.value >= mu_0 - res.error and res.error <= 1e-10, res
    assert abs(res.value - max(ref, mu_0)) <= res.error + ref_error, (res, ref, ref_error)


LAMBDA_METHOD = r"first-return root; chandrupatla at dim 12, (\d+) evals; one Newton step at dim 16"


def _log_lambda16(op, s, eps):
    return math.log(float(np.max(np.linalg.eigvals(transfer._return_matrix(op, s, eps)).real)))


def _dim16_log_lambda(s, r, tol):
    """log lambda by the route before the Newton step, spectral_radius's brackets written out: Chandrupatla on
    log lambda_K of the dim-16 first-return matrix in log(eps - edge), then in eps to 1/16 of its width (at least 8
    float spacings), and the secant point of the final bracket; mu_0 where log lambda_K(edge + width) <= 0."""
    L = math.log1p(1.0 - r)
    edge, top = -2.0 * s * L, math.log(2.0) + 0.25 + max(0.0, 2.0 * s * (L - math.log(2.0)))
    g_tol = float(np.logaddexp(0.0, math.log(tol) - edge - top - s * L))
    floor = 8.0 * math.ulp(abs(edge) + top)
    width = max(min(g_tol / 4.0, 1 / 16), floor)

    g = lambda eps: _log_lambda16(transfer._return_operator(r, 16, eps), 2.0 * s, eps)
    g_w = lambda w: g(edge + math.exp(w))
    lo, hi = math.log(width), math.log(top)
    g_lo = g_w(lo)
    if g_lo <= 0:
        return edge + s * L
    lo, hi, g_lo, g_hi, _evals = transfer._chandrupatla(g_w, lo, hi, g_lo, g_w(hi), 1 / 16)
    lo, hi, g_lo, g_hi, _evals = transfer._chandrupatla(g, edge + math.exp(lo), edge + math.exp(hi), g_lo, g_hi,
                                                        max(width / 16, floor))
    return lo - g_lo * (hi - lo) / (g_hi - g_lo) + s * L


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.05, 4.0), st.floats(-10.0, -4.0))
@example(1.0, 0.75, -10.0)
@example(1.0, 0.9999, -10.0)
@example(0.0, 4.0, -4.0)
def test_newton_step_lands_on_the_dim16_lambda(r, s, log_tol):
    # the dim-12 search and one dim-16 Newton step in eps against the dim-16 search: within the reported error
    tol = 10.0**log_tol
    res = transfer.spectral_radius(s, r, tol=tol)
    assert re.fullmatch(LAMBDA_METHOD, res.method) or res.method == "fixed point 0: mu_0 = rho^-s"
    assert abs(res.value - math.exp(_dim16_log_lambda(s, r, tol))) <= res.error <= tol, res


def test_spectral_radius_eigen_budget(linalg_calls):
    finish = [("eig", (16, 16)), ("solve", (16, 16))]  # Newton step and left vector; no eigen-solve for the 2h rule
    for r, s in ((0.5, 0.75), (0.9, 3.0), (1.0, 0.75)):
        linalg_calls.clear()
        res = transfer.spectral_radius(s, r)
        evals = int(re.fullmatch(LAMBDA_METHOD, res.method)[1])
        assert linalg_calls == [("eigvals", (12, 12))] * evals + finish, (r, s)
    linalg_calls.clear()
    res = transfer.spectral_radius(1.5, 1.0)  # mu_0: one dim-12 point at the edge, then its dim-16 terms
    assert res.method.startswith("fixed point 0") and linalg_calls == [("eigvals", (12, 12))] + finish


def test_return_operator_is_keyed_by_its_split(monkeypatch):
    # the eps cut of the tail rules enters the operator only through its split min(v*, cut), and v* = 0 for r <= 0.97
    # and at r = 1: there one spectral_radius call builds one operator per (dim, step) it uses, not one per cut, and
    # its value and error are those of building one per cut
    def cut(eps):  # the tail rule of transfer._return_operator
        x = (transfer.RETURN_DIRECT + 1) * eps
        return math.ceil(2.0 * (math.log1p(x) - math.log(x))) / 2.0 if eps > 0 else math.inf

    def step(eps):
        return transfer.RETURN_STEP_EPS if eps else transfer.RETURN_STEP

    keyed = transfer._return_operator
    for r, s in ((0.5, 0.5), (1.0, 0.75)):
        uses = []

        def record(r, dim, eps=0.0):
            uses.append((dim, cut(eps), step(eps)))
            return keyed(r, dim, eps)

        transfer._collocate_return.cache_clear()
        monkeypatch.setattr(transfer, "_return_operator", record)
        res = transfer.spectral_radius(s, r)
        builds = transfer._collocate_return.cache_info().misses
        assert builds == len({(dim, h) for dim, _cut, h in uses}) < len(set(uses)), (r, s, uses)
        per_cut = lambda r, dim, eps=0.0: transfer._collocate_return.__wrapped__(r, dim, cut(eps), step(eps))
        monkeypatch.setattr(transfer, "_return_operator", per_cut)  # a build per call, at its own cut
        assert transfer.spectral_radius(s, r) == res, (r, s)


def _central_difference(f, x, h):
    """f'(x) from the central differences at steps h and h/2, Richardson-extrapolated: O(h^4)."""
    d = [(f(x + k) - f(x - k)) / (2.0 * k) for k in (h, h / 2.0)]
    return (4.0 * d[1] - d[0]) / 3.0


@pytest.mark.parametrize("r", [0.0, 0.3, 0.55, 0.9, 0.99, 1 - 1e-6, 1.0])
def test_return_root_forms_match_independent_routes(r):
    # return_root reads the slope, the mean return time and the 2h term from its Perron vectors: the first two against
    # central differences of log lambda_K on the same dim-16 operator (within 4e-10 relative here), the 2h term, first
    # order in K_2h - K, against the eigenvalue of the operator built at step 2h (2e-5 at r = 1, s = 1.1, else < 1e-12)
    L = math.log1p(1.0 - r)
    for s in (1.1, 1.5):
        for eps in (0.0, 0.01) + (((0.05 - s) * L,) if L else ()):  # s + eps / L = 1/20: the edge's exact terms count
            op = transfer._return_operator(r, 16, eps)
            step = transfer.RETURN_STEP_EPS if eps else transfer.RETURN_STEP
            _log_lambda, d_log, mean, step_term = transfer.return_root(s, r, eps)
            a = s + eps / L if L else math.inf  # the steps stay well inside the distance a to the edge
            d_s = _central_difference(lambda x: _log_lambda16(op, x, eps), s, 2e-3 * min(0.5, a))
            assert abs(d_s - d_log) <= 1e-7 * abs(d_log), (r, s, eps, d_s, d_log)
            if r < 1 or eps:
                h = 2e-3 * min(0.01, a * L if L else 0.01)
                d_eps = _central_difference(lambda x: _log_lambda16(op, s, x), eps, h)
                assert abs(-d_eps - mean) <= 1e-7 * mean, (r, s, eps, -d_eps, mean)
            else:
                assert mean == math.inf
            coarse = transfer._collocate_return(r, 16, float(op.split), 2.0 * step)  # the same split at step 2h
            two = abs(_log_lambda16(coarse, s, eps) - _log_lambda16(op, s, eps))
            assert abs(step_term - two) <= 1e-14 + two**2, (r, s, eps, step_term, two)
            nodes = transfer._tail_nodes(float(op.split), step, 16)  # cached, so read-only
            assert nodes[3] is op.powers and not any(arr.flags.writeable for arr in (*op, *nodes))


def test_compression_maps_chebyshev_polynomials():
    # C applied to T_j at the nodes is T_j(Phi_0 x) + T_j(Phi_1 x) for every j < dim
    for dim in (36, 48, 96, 384):
        x, _w = transfer._chebyshev_nodes(dim)
        T = lambda t: np.polynomial.chebyshev.chebvander(2.0 * t - 1.0, dim - 1)
        for r in (0.0, 0.7, 0.999):
            C, _log_w = transfer._collocation_operator(r, dim)
            phi0 = x / (2.0 - r + r * x)
            assert np.max(np.abs(C @ T(x) - T(phi0) - T(1.0 - phi0))) <= 1e-11, (dim, r)


def _barycentric_row(x, w, y):
    """One interpolation row from the nodes x, weights w, to the point y: the row-by-row reference."""
    diff = y - x
    hit = diff == 0.0
    if hit.any():
        return hit.astype(float)
    B = w / diff
    return B / B.sum()


def test_barycentric_matches_rows_one_by_one():
    x, w = transfer._chebyshev_nodes(16)
    rng = np.random.default_rng(5)
    for shape in ((7, 9), (3, 5, 4)):
        y = rng.uniform(-0.2, 1.2, shape)
        y.flat[::5] = x[rng.integers(0, 16, y.size)][::5]  # some points on nodes
        with np.errstate(all="raise"):
            B = transfer._barycentric(x, w, y)
        assert B.shape == shape + (16,)
        assert np.array_equal(B, np.reshape([_barycentric_row(x, w, yi) for yi in y.flat], shape + (16,)))
        for idx in zip(*np.nonzero(np.isin(y, x))):  # a point on node j gets the indicator row of j
            assert np.array_equal(B[idx], (x == y[idx]).astype(float))
    assert np.array_equal(transfer._barycentric(x, w, 0.5), _barycentric_row(x, w, 0.5))


def test_return_operator_rows_match_point_by_point():
    for dim in (12, 16):
        y, w = transfer._chebyshev_nodes(dim)
        y = 0.5 * y
        for r in (0.0, 0.5, 0.999, 1.0):
            op = transfer._return_operator(r, dim)
            # the basis, in distances y from 1, at x_i / D_m(x_i), D_m = r x (1 + ... + rho^(m-1)) + rho^m
            x, rho_m = 1.0 - y, np.exp(math.log1p(1.0 - r) * np.arange(op.log_d.shape[1] + 1))
            D = r * x[:, None] * np.cumsum(rho_m[:-1]) + rho_m[1:]
            rows = [[_barycentric_row(y, w, x[i] / D[i, m]) for m in range(D.shape[1])] for i in range(dim)]
            assert np.array_equal(op.rows, np.array(rows)), (dim, r)


def _return_nodes(dim):
    return 1.0 - 0.5 * transfer._chebyshev_nodes(dim)[0]


def test_return_collocation_matches_direct_sums():
    # for r < 1 the terms D_m^(-s) f(1 - x/D_m) of K_(s/2) f decay like rho^(-sm), D_(m+1) = rho D_m + r x:
    # sum them out for the Chebyshev polynomials T_j of [1/2, 1], j < dim, which the collocation maps exactly
    for dim in (12, 16):
        x = _return_nodes(dim)
        T = lambda y: np.polynomial.chebyshev.chebvander(4.0 * y - 3.0, dim - 1)
        for r in (0.0, 0.3, 0.8, 0.95):
            op = transfer._return_operator(r, dim)
            for s in (1.0, 1.7, 2.4):
                direct, D = 0.0, 2.0 - r + r * x
                while np.max(D**-s) > 1e-18:
                    direct, D = direct + (D**-s)[:, None] * T(1.0 - x / D), (2.0 - r) * D + r * x
                assert np.max(np.abs(transfer._return_matrix(op, s) @ T(x) - direct)) <= 1e-13, (dim, r, s)


def test_return_collocation_at_r_one_matches_hurwitz_zeta():
    # at r = 1, D_m = m x + 1: on f = 1 and f(y) = 1 - y the rows of K_sigma are x^(-s) zeta(s, 1 + 1/x)
    # and x^(-s) zeta(s + 1, 1 + 1/x)
    mpmath = pytest.importorskip("mpmath")
    x = _return_nodes(16)
    op = transfer._return_operator(1.0, 16)
    for s in (1.5, 2.0, 2.5):
        K = transfer._return_matrix(op, s)
        for i, xi in enumerate(x):
            z0 = float(mpmath.zeta(s, 1 + 1 / mpmath.mpf(xi)) * mpmath.mpf(xi) ** -s)
            z1 = float(mpmath.zeta(s + 1, 1 + 1 / mpmath.mpf(xi)) * mpmath.mpf(xi) ** -s)
            assert abs(K[i].sum() - z0) <= 1e-14 * z0
            assert abs(K[i] @ (1.0 - x) - z1) <= 1e-14 * z0


def test_return_operator_eigenvalue_closed_forms():
    # r = 0: D_m = 2^m, lambda_K = 1 / (2^s - 1) at dims 12 and 16, so s_cr = 1; r = 1, s = 2: the Gauss-map
    # operator, lambda_K = 1
    for s in (0.999, 1.0, 1.5, 2.5):
        assert abs(transfer._search_log_lambda(s, 0.0) + math.log(2.0**s - 1.0)) <= 1e-14
        assert abs(transfer.return_root(s, 0.0)[0] + math.log(2.0**s - 1.0)) <= 1e-14
    log_lambda, d_log, mean_return, _step = transfer.return_root(2.0, 1.0)
    assert abs(log_lambda) <= 1e-14
    assert abs(d_log + math.pi**2 / (12.0 * math.log(2.0))) <= 1e-12  # half the Gauss-map Lyapunov exponent
    assert mean_return == math.inf


def test_iterates_positive():
    rng = random.Random(9)
    for _ in range(20):
        q = TransferQuery(rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.1), rng.randint(1, 10))
        assert transfer.iterate_one(rng.random(), q).real > 0.0


def test_involution_residual():
    assert transfer.involution_residual(1.0, 0.5, n=14) <= 1e-8
    assert transfer.involution_residual(1.0, 0.0, n=10) <= 1e-13
    assert transfer.involution_residual(0.8, 0.5, n=18) <= 1e-5


def test_brute_force_cap():
    with pytest.raises(ValueError):
        transfer.apply_bruteforce(lambda y: 1.0, 0.5, TransferQuery(1.0, 0.5, 21))


def test_query_validation():
    with pytest.raises(ValueError):
        TransferQuery(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        TransferQuery(1.0, 0.5, 0)
    for s in (math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(ValueError, match="s must be finite"):
            TransferQuery(s, 0.5, 3)


def _entries(s, r):
    """The value of every public entry that takes s, at s and r in [0, 1), n = 6, by name."""
    from fareychain import twisted

    q, p, f = TransferQuery(s, r, 6), Params.floating(r), lambda y: 1.0 + y * y
    entries = {
        "iterate_one": lambda: transfer.iterate_one(0.3, q),
        "iterate_character": lambda: transfer.iterate_character(0.3, q, 2),
        "iterate_general": lambda: transfer.iterate_general(f, 0.3, s, r, 5),
        "apply_bruteforce": lambda: transfer.apply_bruteforce(f, 0.3, q),
        "trace_power_bruteforce": lambda: transfer.trace_power_bruteforce(q, signed=True),
        "periodic_sum_bruteforce": lambda: transfer.periodic_sum_bruteforce(q),
        "trace_closed_n1": lambda: transfer.trace_closed_n1(s, r),
        "trace_from_spectra": lambda: transfer.trace_from_spectra(s, r),
    }
    for method in ("series", "leaves"):
        entries[f"trace_sums {method}"] = lambda method=method: transfer.trace_sums(6, s, r, True, method)
        entries[f"periodic_sums_xi {method}"] = lambda method=method: transfer.periodic_sums_xi(6, s, r, method)
    for method in ("transfer", "rows"):
        entries[f"twisted_sums {method}"] = lambda method=method: twisted.twisted_sums(6, s, 1, p, method)
    got = {name: call() for name, call in entries.items()}
    return {name: [(complex(v), getattr(v, "error", None), getattr(v, "method", None))
                   for v in (value if isinstance(value, list) else [value])] for name, value in got.items()}


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, 3.0), st.floats(0.0, 0.99))
def test_real_s_given_as_complex_takes_the_float_arithmetic(a, r):
    # each entry decides the arithmetic of s where it enters: s = a + 0j is s = a, bit for bit, with the same error
    # and route
    real, as_complex = _entries(a, r), _entries(complex(a, 0.0), r)
    for name, got in as_complex.items():
        assert got == real[name], (name, got, real[name])


def test_non_finite_s_and_z_rejected_before_work(monkeypatch):
    from fareychain import spinchain, twisted

    for module, name in ((transfer, "_collocation_operator"), (transfer, "_return_operator"),
                         (transfer, "_series_blocks"), (spinchain, "_step")):
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"a refused input reached {name}"))
    p = Params.floating(0.5)
    for s in (math.nan, math.inf, -math.inf):
        for call in (lambda: transfer.iterate_one(0.3, TransferQuery(s, 0.5, 5)),
                     lambda: transfer.iterate_character(0.3, TransferQuery(s, 0.5, 5), 2),
                     lambda: transfer.iterate_general(np.cos, 0.3, s, 0.5, 4),
                     lambda: transfer.trace_sums(5, s, 0.5),
                     lambda: transfer.periodic_sums_xi(5, s, 0.5),
                     lambda: transfer.fredholm_and_zeta(0.5, s, 0.5, N=5),
                     lambda: transfer.fredholm_and_zeta(s, 1.0, 0.5, N=5),
                     lambda: transfer.spectral_radius(s, 0.5),
                     lambda: twisted.twisted_sums(5, s, 1, p),
                     lambda: twisted.twisted_sums(5, s, 1, p, "rows")):
            with pytest.raises(ValueError, match="finite"):
                call()


def test_topped_out_ladder_falls_back_to_the_walk():
    # r = 1, s = 9: the compression does not resolve the iterates by dim 384, and the walk takes over
    q = TransferQuery(9.0, 1.0, 20)
    value = transfer.iterate_one(0.5, q)
    assert value.method == "leaf walk (the operator ladder topped out at dim 384)"
    assert value == transfer._iterate(0.5, q, None) and value.error is None


def test_depth_first_blocks_match_whole_rows(monkeypatch):
    from fareychain import spinchain

    q = TransferQuery(1.3, 0.6, 9)
    q_walk = TransferQuery(1.3, 1.3, 9)  # r > 1: iterate_one and iterate_character walk the leaves
    routes = {
        "iterate_one": lambda: transfer.iterate_one(0.3, q_walk),
        "iterate_character": lambda: transfer.iterate_character(0.3, q_walk, 2),
        "iterate_general": lambda: transfer.iterate_general(lambda y: 0.5 - y + 2.0 * y**3, 0.3, q.s, q.r, q.n - 1),
        "trace_sums": lambda: transfer.trace_sums(q.n, q.s, q.r, method="leaves")[-1],
        "periodic_sums_xi": lambda: transfer.periodic_sums_xi(q.n, q.s, q.r, method="leaves")[-1],
    }
    whole = {name: f() for name, f in routes.items()}
    monkeypatch.setattr(spinchain, "_BLOCK_LEVELS", 3)  # level 8 in 32 blocks of 2^3
    for name, f in routes.items():
        assert abs(f() - whole[name]) <= 1e-13 * abs(whole[name]), name


def test_general_iterate_needs_array_ready_f():
    with pytest.raises(TypeError):
        transfer.iterate_general(math.cos, 0.4, 1.0, 0.5, 3)


def test_general_iterate_memory_below_one_level_table(monkeypatch):
    # level 16 in 2^8 blocks of 2^8 vertices: far below one whole level-16 (p, q) table
    from fareychain import spinchain

    monkeypatch.setattr(spinchain, "_BLOCK_LEVELS", 8)
    k = 16
    table_bytes = 2 * (1 << k) * 8
    tracemalloc.start()
    try:
        transfer.iterate_general(np.cos, 0.3, 1.1, 0.6, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 4, peak


def test_general_iterate_rejects_before_work(monkeypatch):
    from fareychain import spinchain

    monkeypatch.setattr(spinchain, "_step", lambda *a: pytest.fail("a refused input was walked"))
    for r, k in ((0.6, -1), (0.6, spinchain.FLOAT_TABLE_CAP + 1), (2.0, 3), (-0.1, 3)):
        with pytest.raises(ValueError):
            transfer.iterate_general(np.cos, 0.3, 1.1, r, k)


def test_series_take_one_walk(monkeypatch):
    from fareychain import spinchain

    columns = []
    step = spinchain._step

    def counted_step(x, *args):
        columns.append(x.shape[1])
        return step(x, *args)

    monkeypatch.setattr(spinchain, "_step", counted_step)
    # one walk steps each vertex above its last level once, however the levels are blocked
    for series, depth in ((lambda: transfer.trace_sums(18, 1.1, 0.6, signed=True, method="leaves"), 17),
                          (lambda: transfer.periodic_sums_xi(18, 1.1, 0.6, method="leaves"), 17)):
        columns.clear()
        series()
        assert sum(columns) == 2**depth - 1
    # zeta walks no leaves: its determinants take the traces of the first-return series, bit for bit
    columns.clear()
    traces = []
    newton = transfer._newton_coefficients
    monkeypatch.setattr(transfer, "_newton_coefficients", lambda tr: traces.append(tr) or newton(tr))
    transfer.fredholm_and_zeta(0.5, 1.0, 0.55, N=14)
    assert columns == []
    expected = (transfer.trace_sums(14, 1.0, 0.55), transfer.trace_sums(14, 2.0, 0.55, signed=True))
    assert [[complex(v) for v in tr] for tr in traces] == [[complex(v) for v in tr] for tr in expected]


def test_iterate_memory_bounded_by_blocks():
    # n = 20: one whole level-19 (p, q, mu, nu) row alone is 16 MB; r > 1 takes the walk
    tracemalloc.start()
    try:
        transfer.iterate_character(0.3, TransferQuery(1.1, 1.3, 20), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_series_reject_empty():
    with pytest.raises(ValueError):
        transfer.trace_sums(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        transfer.periodic_sums_xi(-2, 1.0, 0.5)
    with pytest.raises(ValueError):
        transfer.fredholm_and_zeta(0.5, 1.0, 0.5, N=0)


def _character_reference(x, s, r, n, m):
    """(P^n e_m)(x) over all 2^n branch words in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r, x, s = mpmath.mpf(r), mpmath.mpf(x), mpmath.mpc(s)
        rho = 2 - r
        total = mpmath.mpc(0)
        for word in range(1 << n):
            y, weight = x, mpmath.mpf(1)
            for i in range(n):
                den = rho + r * y
                weight *= rho / den**2
                y = y / den
                if (word >> i) & 1:
                    y = 1 - y
            total += mpmath.exp(s * mpmath.log(weight)) * mpmath.expjpi(2 * m * y)
        return complex(total)


def test_character_iterate_against_high_precision():
    rng = random.Random(11)
    for draw in range(10):
        n = rng.randint(6, 11)
        r = rng.uniform(0.0, 1.2)
        m = rng.choice([-3, -2, -1, 1, 2, 3])
        x = rng.random()
        s = rng.uniform(0.4, 2.0)
        if draw % 2:
            s = complex(s, rng.uniform(-1.0, 1.0))
        ref = _character_reference(x, s, r, n, m)
        val = transfer.iterate_character(x, TransferQuery(s, r, n), m)
        assert abs(val - ref) <= 1e-13 * max(abs(ref), 1e-12), (n, r, m, x, s)


def test_character_order_must_be_integer():
    from fareychain import twisted

    q = TransferQuery(1.5, 0.3, 4)
    with pytest.raises(ValueError):
        transfer.iterate_character(0.3, q, 1.5)
    with pytest.raises(ValueError):
        twisted.twisted_sums(4, 1.4, 0.5, Params.floating(0.3), "transfer")
    assert transfer.iterate_character(0.3, q, 2.0) == transfer.iterate_character(0.3, q, 2)


def test_zeta_past_the_leaf_cap_converges():
    # N = 60 is past the walk's n <= 27; the orbit sum and the determinant ratio both read 12.1525739503
    fz = transfer.fredholm_and_zeta(0.9, 1.0, 0.55, N=60)
    assert fz.converged
    assert abs(fz.zeta_ratio - 12.1525739503) <= 1e-9 and abs(fz.zeta_exp - 12.1525739503) <= 1e-9


def test_zeta_refuses_an_exactly_zero_determinant(monkeypatch):
    # every trace 1 makes det(1 - z P) = exp(-sum z^n / n) = 1 - z, exactly 0 at z = 1 at every truncation
    monkeypatch.setattr(transfer, "trace_sums", lambda n, *args, **kwargs: [1.0] * n)
    with pytest.raises(ArithmeticError, match=r"truncated at N=14 is exactly 0 at z=1.0"):
        transfer.fredholm_and_zeta(1.0, 1.0, 0.5, N=14)


def test_zeta_error_bar_bounds_route_gap():
    # the determinant ratio is converged on this grid (it moves by ~1e-15
    # from N = 14 to 16), so the gap is the orbit-sum error
    for r in np.linspace(0.45, 0.75, 4):
        for s in np.linspace(0.9, 1.5, 4):
            for z in np.linspace(0.2, 0.6, 5):
                fz = transfer.fredholm_and_zeta(complex(z), s, r, N=14)
                gap = abs(fz.zeta_exp - fz.zeta_ratio)
                assert gap <= fz.tail_estimate, (r, s, z)
                if fz.converged:
                    assert gap <= 1e-9

