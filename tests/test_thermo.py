import math
import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareychain import thermo, transfer
from fareychain.rings import Params


def closed_tent_Z(n: int, s: int) -> Fraction:
    return (Fraction(2) ** s - 1 - Fraction(2) ** (n * (1 - s))) / (Fraction(2) ** s - 2)


def test_single_level_value():
    for s in (0.5, 1.0, 3.0):
        assert thermo.canonical_Z(1, s, Params.floating(0.7)) == pytest.approx(1 + 2.0**-s)


def test_grand_level_zero():
    assert thermo.grand_Z(0, 2.5, Params.floating(0.3)) == pytest.approx(2.0**-2.5)
    assert thermo.grand_Z(0, 3, Params.exact(Fraction(1, 2))) == Fraction(1, 8)


def test_tent_closed_form_exact():
    p = Params.exact(Fraction(0))
    for n in range(1, 13):
        for s in (2, 3, 5):
            assert thermo.canonical_Z(n, s, p) == closed_tent_Z(n, s)


def test_tent_grand_matches_closed_difference():
    p = Params.exact(Fraction(0))
    for k in range(0, 12):
        diff = closed_tent_Z(k + 1, 3) - closed_tent_Z(k, 3) if k else closed_tent_Z(1, 3) - 1
        assert thermo.grand_Z(k, 3, p) == diff
        assert thermo.grand_Z(k, 3, Params.floating(0.0)) == float(diff)  # a power of two: no rounding


def test_cumulative_sum_identity():
    # canonical = 1 + sum of grand-canonical rows, exactly
    for rq in (Fraction(1, 3), Fraction(2, 5)):
        p = Params.exact(rq)
        zg = [thermo.grand_Z(k, 4, p) for k in range(14)]
        for n in range(1, 15):
            zc = thermo.canonical_Z(n, 4, p)
            assert zc == 1 + sum(zg[:n])
            assert zc == thermo.canonical_Z(n, 4, p, "cumulative")


def test_three_routes_exact_and_float():
    p = Params.exact(Fraction(1, 2))
    for n in range(1, 11):
        vals = [thermo.canonical_Z(n, 4, p, m) for m in ("rows", "cumulative", "transfer")]
        assert vals[0] == vals[1] == vals[2]
    pf = Params.floating(0.8)
    for n in range(2, 12):
        vals = [thermo.canonical_Z(n, 1.3, pf, m) for m in ("rows", "cumulative", "transfer")]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12 * vals[0]


def test_farey_limit_toward_zeta_ratio():
    # partial sums over the rational tree approach zeta(3)/zeta(4)
    z = thermo.canonical_Z(18, 4.0, Params.floating(1.0))
    assert z == pytest.approx(1.110627, abs=2e-2)


def test_free_energy_tent_values():
    # at r = 0, F(s) = max(0, (1 - s) log 2)
    for s in (0.5, 1.0, 2.0):
        est, err = thermo.free_energy_limit(s, Params.floating(0.0))
        assert abs(est - max(0.0, (1.0 - s) * math.log(2.0))) <= err <= 1e-10, s


def test_free_energy_limit_where_the_richardson_fit_failed():
    # F_n = log(n + 1)/n at (r, s) = (0, 1), the transition: an extrapolation in 1/n missed there by 40x its bar
    est, err = thermo.free_energy_limit(1.0, Params.floating(0.0))
    assert abs(est) <= err <= 1e-10
    # next to the Farey map, against the Chebyshev compression at dims 192 and 144
    r, s = 0.99, 1.9
    est, err = thermo.free_energy_limit(s, Params.floating(r))
    g192, g144 = (math.log(transfer._collocation_lambda(s / 2.0, r, d)) - 0.5 * s * math.log1p(1.0 - r)
                  for d in (192, 144))
    assert est > 0 and abs(est - g192) <= err + abs(g192 - g144) and err <= 1e-10
    # at the Farey map above s_cr = 2 F is 0 exactly, where the sweep at n = 1000 tops out of its dim ladder
    est, err = thermo.free_energy_limit(2.5, Params.floating(1.0))
    assert est == 0.0 and err <= 1e-10


def test_free_energy_limit_is_exactly_zero_below_its_bar():
    # where g + error < 0, F = 0 exactly and its error is 0: lambda's error is absolute, so loose where lambda is small
    # (it read 6.7e-2 at r = 0.5, s = 600 and 9.7e-3 at r = 0, s = 100)
    for r, s in ((0.5, 600.0), (0.0, 100.0)):
        assert thermo.free_energy_limit(s, Params.floating(r)) == (0.0, 0.0), (r, s)
    # at the Farey map above s_cr = 2, g = 0 itself: F = 0 keeps lambda's finite bar
    est, err = thermo.free_energy_limit(2.5, Params.floating(1.0))
    assert est == 0.0 and 0.0 < err <= 1e-10


def test_free_energy_positive_convex():
    p = Params.floating(0.4)
    grid = np.linspace(0.2, 3.0, 12)
    vals = [thermo.free_energy(12, s, p) for s in grid]
    assert min(vals) >= 0.0
    assert np.min(np.diff(vals, 2)) >= -1e-12


def test_free_energy_vanishes_above_transition():
    # F_n <= C/n beyond the critical point, F_n stabilizes below it
    for r in (0.0, 0.5):
        p = Params.floating(r)
        s_cr = thermo.critical_line(p, tol=1e-6).s_cr
        for n in (16, 24):
            assert thermo.free_energy(n, s_cr + 0.2, p) <= 3.0 / n
        lows = [thermo.free_energy(n, s_cr - 0.2, p) for n in (12, 18, 24)]
        assert min(lows) >= 0.02


def test_magnetization_dual_routes():
    for r in (0.0, 0.3, 0.8):
        p = Params.floating(r)
        for s in (0.7, 1.4, 3.0):
            for n in (6, 10, 14):
                direct = thermo.magnetization(n, s, p, "direct")
                ident = thermo.magnetization(n, s, p, "identity")
                assert abs(direct - ident) <= 1e-12


def test_magnetization_bounds_and_sign():
    for r in (0.0, 0.5, 1.0):
        p = Params.floating(r)
        for s in (0.5, 2.0):
            for n in (5, 9, 13):
                m = thermo.magnetization(n, s, p, "direct")
                assert -1.0 <= m <= 1.0
                assert m >= 0.0


def test_magnetization_orders_at_tent():
    p = Params.floating(0.0)
    assert thermo.magnetization(40, 2.0, p, "identity") > 0.9
    assert thermo.magnetization(40, 0.5, p, "identity") < 0.1


def test_magnetization_trends_across_transition():
    p = Params.floating(0.4)
    s_cr = thermo.critical_line(p, tol=1e-6).s_cr
    high = [thermo.magnetization(n, s_cr + 0.8, p, "identity") for n in (8, 14, 20)]
    low = [thermo.magnetization(n, s_cr - 0.8, p, "identity") for n in (8, 14, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(high, high[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(low, low[1:]))
    assert high[-1] > 0.8 and low[-1] < 0.35


def test_critical_point_tent():
    cp = thermo.critical_line(Params.floating(0.0), tol=1e-7)
    assert abs(cp.s_cr - 1.0) <= 1e-6


def _reference_critical_s(r: float, dim: int = 96) -> float:
    """Bisection to 1e-10 on the dim-point collocation eigenvalue."""
    def g(s):
        lam = float(np.max(transfer.collocation_spectrum(s / 2.0, r, dim=dim).real))
        return math.log(lam) - 0.5 * s * math.log(2.0 - r)

    lo, hi = 0.5, 2.0
    assert g(lo) > 0.0 > g(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_critical_error_bounds_reference():
    for r in (0.2, 0.6, 0.9, 0.95):
        cp = thermo.critical_line(Params.floating(r), tol=1e-6)
        assert math.isfinite(cp.error) and 0.0 < cp.error <= 1e-6
        assert abs(cp.s_cr - _reference_critical_s(r)) <= cp.error


METHOD = r"chandrupatla on log lambda_K at dim 12; (\d+) evals; one Newton step at dim 16"


def test_critical_search_eigen_budget(linalg_calls):
    for r in (0.3, 0.95, 1.0):
        linalg_calls.clear()
        cp = thermo.critical_line(Params.floating(r), tol=1e-6)
        # one dim-12 solve per search evaluation; at the secant point one dim-16 eig for the Newton step and its
        # left Perron vector from one solve with the eigenvectors: the slope, the mean return time and the 2h term
        # are forms of those vectors, so no dim-12 solve after the search and no second dim-16 one
        evals = int(re.fullmatch(METHOD, cp.method)[1])
        assert evals <= 8
        assert linalg_calls == [("eigvals", (12, 12))] * evals + [("eig", (16, 16)), ("solve", (16, 16))]


def _dim16_critical_s(r: float) -> float:
    """The s_cr route before the Newton step: Chandrupatla on log lambda_K of the dim-16 first-return matrix
    over the same bracket, here to width 1e-12, and the secant point of the final bracket."""
    op = transfer._return_operator(r, 16)
    g = lambda s: math.log(float(np.max(np.linalg.eigvals(transfer._return_matrix(op, s)).real)))
    lo, hi = 0.999 + 0.002 * r, 2.5
    lo, hi, g_lo, g_hi, _evals = transfer._chandrupatla(g, lo, hi, g(lo), g(hi), 1e-12)
    return lo - g_lo * (hi - lo) / (g_hi - g_lo)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-10.0, -4.0))
@example(0.95, -10.0)
@example(1.0, -10.0)
@example(0.0, -4.0)
def test_newton_step_lands_on_the_dim16_root(r, log_tol):
    # the dim-12 search and one dim-16 Newton step against the dim-16 search: within the reported error, and
    # within rounding plus the square of the bracket width that the step starts from
    tol = 10.0**log_tol
    cp = thermo.critical_line(Params.floating(r), tol=tol)
    assert re.fullmatch(METHOD, cp.method) and 0.0 < cp.error <= tol
    gap = abs(cp.s_cr - _dim16_critical_s(r))
    assert gap <= cp.error and gap <= 1e-13 + tol**2, (cp, gap)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.floats(0.5, 3.0), st.floats(-2.0, 2.0), st.floats(0.05, 0.999), st.floats(1.001, 5.0),
       st.floats(-12.0, -3.0))
def test_chandrupatla_brackets_known_roots(power, p, log_root, lo_ratio, hi_ratio, log_tol):
    # decreasing g with the root e^log_root: c - s^p, or c - log(2^s - 1) with 2^s - 1 taken without cancellation
    root, tol = math.exp(log_root), 10.0**log_tol
    if power:
        c = root**p
        g = lambda s: c - s**p
    else:
        c = math.log(math.expm1(root * math.log(2.0)))
        g = lambda s: c - math.log(math.expm1(s * math.log(2.0)))
    lo, hi = root * lo_ratio, root * hi_ratio
    lo, hi, g_lo, g_hi, evals = transfer._chandrupatla(g, lo, hi, g(lo), g(hi), tol)
    assert g_lo > 0.0 >= g_hi and (g_lo, g_hi) == (g(lo), g(hi))
    assert lo - 1e-15 * root <= root <= hi + 1e-15 * root  # c carries a rounding error, so the root does too
    assert 0.0 < hi - lo <= tol
    # bisection needs up to 46 evaluations on these brackets; the interpolation steps need about a quarter
    bisection = math.ceil(math.log2((root * (hi_ratio - lo_ratio)) / tol))
    assert evals <= min(12, bisection + 1)


def test_critical_point_near_one():
    for r in (0.98, 0.99, 0.995):
        cp = thermo.critical_line(Params.floating(r), tol=1e-6)
        assert math.isfinite(cp.error) and 0.0 < cp.error <= 1e-6
        assert re.fullmatch(METHOD, cp.method)
        assert abs(cp.s_cr - _reference_critical_s(r, dim=192)) <= cp.error


def test_critical_point_at_one_and_beyond_the_chebyshev_reach():
    # 1 - r down to 1e-10, where the Chebyshev compression of P tops out near 1 - r = 5e-4; s_cr(1) = 2
    previous = thermo.critical_line(Params.floating(0.999), tol=1e-8)
    for r in (0.9999, 1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-10, 1.0):
        cp = thermo.critical_line(Params.floating(r), tol=1e-8)
        assert 0.0 < cp.error <= 1e-8
        assert cp.s_cr - previous.s_cr > cp.error + previous.error, r
        previous = cp
    assert abs(cp.s_cr - 2.0) <= cp.error and cp.slope == 0.0


def test_critical_line_rejects_r_outside_unit_interval_before_work(monkeypatch):
    calls = []
    for name in ("eigvals", "eig", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name: calls.append(name))
    for r in (1.5, 1.0 + 1e-9, 1.99):
        with pytest.raises(ValueError, match=r"r in \[0, 1\]"):
            thermo.critical_line(Params.floating(r))
    assert calls == []


def test_critical_line_rejects_bad_tol_before_work(monkeypatch):
    def no_solve(*args):
        raise AssertionError("eigen-solve before the tol check")

    monkeypatch.setattr(thermo, "_search_log_lambda", no_solve)
    monkeypatch.setattr(thermo, "return_root", no_solve)
    for tol in (0.0, -1.0, 1e-300, 1e-13, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            thermo.critical_line(Params.floating(0.5), tol=tol)


def test_critical_error_terms_are_live():
    # at r = 0.95 dims 16 and 12 differ by ~2e-12 in s_cr, the Newton step from the dim-12 root: tol 1e-12 cannot
    # be met, tol 1e-10 carries the term
    with pytest.raises(ArithmeticError, match="dim term"):
        thermo.critical_line(Params.floating(0.95), tol=1e-12)
    cp = thermo.critical_line(Params.floating(0.95), tol=1e-10)
    log_lambda, d_log, _mean, step_term = transfer.return_root(cp.s_cr, 0.95)
    dim_term = abs(transfer._search_log_lambda(cp.s_cr, 0.95) - log_lambda)  # log lambda_K at dim 12 - at dim 16
    assert cp.error >= (dim_term + step_term) / abs(d_log) > 1e-12


def test_critical_curve_monotone_convex():
    curve = [thermo.critical_line(Params.floating(r), 1e-7) for r in (0.0, 0.15, 0.3, 0.45, 0.6)]
    vals = [pt.s_cr for pt in curve]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert np.min(np.diff(vals, 2)) >= -1e-6


def test_critical_curve_monotone_convex_to_one():
    # dense around the old 0.97 cutoff: a jump there breaks monotonicity or convexity
    rs = [0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.96, 0.965, 0.97, 0.975, 0.98, 0.99, 0.995, 0.999]
    curve = [thermo.critical_line(Params.floating(r), 1e-7) for r in rs]
    pts = [(pt.r, pt.s_cr, pt.error) for pt in curve]
    assert all(0.0 < e <= 1e-7 for _r, _s, e in pts)
    for (r0, s0, e0), (r1, s1, e1) in zip(pts, pts[1:]):
        assert s1 - s0 > e0 + e1, (r0, r1)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        slope_ab = (b[1] - a[1]) / (b[0] - a[0])
        slope_bc = (c[1] - b[1]) / (c[0] - b[0])
        slack = (a[2] + b[2]) / (b[0] - a[0]) + (b[2] + c[2]) / (c[0] - b[0])
        assert slope_bc >= slope_ab - slack, b[0]
    assert pts[-1][1] < 2.0


def test_sandwich_bounds_hold():
    rows = thermo.sandwich_bounds(1.2, 0.5, 12, [3, 5, 7, 9, 11])
    for _l, lower, mid, upper in rows:
        assert lower <= mid <= upper
    with pytest.raises(ValueError):
        thermo.sandwich_bounds(3.0, 0.5, 12, [4])  # above the critical curve


def test_direct_magnetization_cap():
    with pytest.raises(ValueError):
        thermo.magnetization(23, 1.0, Params.floating(0.5), "direct")


def test_thermo_point_bundle():
    # the sweep reads operator iterates; the rows-route functions are its oracle, within its error
    s_values = [0.7, 1.5]
    for r in (0.0, 0.5):
        p = Params.floating(r)
        pts = thermo.thermo_sweep(r, s_values, 10)
        assert [(pt.s, pt.n) for pt in pts] == [(s, n) for s in s_values for n in range(2, 11)]
        for pt in pts:
            assert pt.r == r and pt.dim == 48
            assert 0.0 < pt.error <= 1e-12
            zc = thermo.canonical_Z(pt.n, pt.s, p)
            assert abs(pt.ZC - zc) <= pt.error * zc
            assert pt.logZC == pytest.approx(math.log(pt.ZC), rel=1e-15)
            assert abs(pt.Fn - thermo.free_energy(pt.n, pt.s, p)) <= pt.error
            assert abs(pt.Mn - thermo.magnetization(pt.n, pt.s, p, "identity")) <= pt.error


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.integers(2, 20))
@example(0.90234375, 1.875, 17)  # dim 48's change, 1.18e-12, is above 1e-12: the ladder climbs to dim 96
def test_operator_sweep_matches_rows_route(r, s, n_max):
    p = Params.floating(r)
    for pt in thermo.thermo_sweep(r, [s], n_max):
        assert pt.error <= 1e-12
        zc = thermo.canonical_Z(pt.n, s, p, "rows")
        assert abs(pt.ZC - zc) <= pt.error * zc, (pt, zc)
        assert abs(pt.Mn - thermo.magnetization(pt.n, s, p, "identity")) <= pt.error, pt


R_EXAMPLES = [0.0, 1.0, *(1.0 - 10.0**-k for k in (1, 2, 4, 8, 12, 15))]


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(R_EXAMPLES), st.floats(0.0, 1.0)), st.floats(-45.0, 60.0), st.integers(2, 20))
@example(1.0, -39.38442760216264, 3)  # s < 0, where the rounding outgrows the error floor: 1.9e-12 off, error 3.4e-13
def test_operator_sweep_agrees_with_rows_or_refuses(r, s, n_max):
    if s < 0:
        with pytest.raises(ValueError, match="computed for s >= 0"):
            thermo.thermo_sweep(r, [1.0, s], n_max)
        return
    try:
        pts = thermo.thermo_sweep(r, [s], n_max)
    except ArithmeticError as err:
        assert "the top of the ladder" in str(err)
        return
    (zg,) = thermo._grand_sums(n_max - 1, [s], Params.floating(r))  # the rows route, one walk
    for pt in pts:
        assert abs(pt.logZC - math.log(1.0 + sum(zg[:pt.n]))) <= pt.error, pt
        assert abs(pt.Mn - thermo._identity_magnetization(zg[:pt.n], pt.n)) <= pt.error, pt


def test_sweep_refusal_names_the_run_that_failed():
    # at r = 1, s = 18 every f_n(1/2), n < 20, of dim 384 is positive; its 288-point check run turns at n = 18
    with pytest.raises(ArithmeticError, match=r"in the dim 288 run the iterate f_n at 1/2 is not positive and finite, "
                                              r"first at n=18, s=18.0$"):
        thermo.thermo_sweep(1.0, [18.0], 20)


def test_operator_sweep_accuracy_grid():
    for r in (0.0, 0.3, 0.7, 0.9, 0.95, 0.99, 1.0):
        p = Params.floating(r)
        s_values = [0.5, 1.0, 1.5, 2.0, 2.5]
        sweep = thermo.thermo_sweep(r, s_values, 24)
        for i, zg in enumerate(thermo._grand_sums(23, s_values, p)):  # the rows route, one walk
            for pt in sweep[23 * i:23 * (i + 1)]:
                zc = sum(zg[:pt.n], 1.0)
                assert abs(pt.ZC - zc) <= pt.error * zc <= 1e-12 * zc, pt


def test_sweep_rejects_before_work(monkeypatch):
    calls = []
    monkeypatch.setattr(transfer, "_collocation_operator", lambda *a: calls.append(a))
    for r, s_values, n in ((1.3, [1.0], 10), (1.0 + 1e-9, [1.0], 10), (-0.1, [1.0], 10),
                           (0.5, [1.0], thermo.SWEEP_CAP + 1), (0.5, [1.0, 2.0], thermo.SWEEP_CAP // 2 + 1),
                           (0.5, [], 10), (0.5, [1.0, -1e-300], 10), (0.5, [math.nan], 10), (0.5, [math.inf], 10),
                           (0.5, [1.0, math.nan], 10)):
        with pytest.raises(ValueError):
            thermo.thermo_sweep(r, s_values, n)
    assert calls == []


def test_sweep_refuses_non_finite_values(monkeypatch):
    log_sums = thermo._log_sums

    def nan_weighted_sum(r, s, n_max, dim):  # the M_n numerator at n = 5, s = 1.5
        log_zc, log_w = log_sums(r, s, n_max, dim)
        log_w[5, 1] = math.nan
        return log_zc, log_w

    monkeypatch.setattr(thermo, "_log_sums", nan_weighted_sum)
    with pytest.raises(ValueError, match=r"Mn is not finite at n=5, s=1.5"):
        thermo.thermo_sweep(0.5, [1.0, 1.5], 10)


def test_sweep_n_1000_under_a_second():
    s_values = [1.03, 1.18, 1.28, 1.38, 1.48, 1.58, 1.68, 1.83]
    start = time.perf_counter()
    pts = thermo.thermo_sweep(0.7, s_values, 1000)
    assert time.perf_counter() - start < 1.0
    assert len(pts) == 8 * 999
    assert all(math.isfinite(pt.ZC) and pt.Fn >= 0.0 and 0.0 <= pt.Mn <= 1.0 for pt in pts)


def test_sweep_past_float_range():
    pts = thermo.thermo_sweep(0.7, [0.5], 2000)
    out = [pt for pt in pts if math.isinf(pt.ZC)]
    assert out and all(pt.logZC > math.log(sys.float_info.max) for pt in out)
    assert all(math.isfinite(pt.logZC) and math.isfinite(pt.Fn) and math.isfinite(pt.Mn) for pt in pts)
    assert all(pt.logZC <= math.log(sys.float_info.max) for pt in pts if math.isfinite(pt.ZC))


def test_free_energy_limit_matches_spectral_gap():
    # r = 0.7, s_cr ~ 1.4308: F(s) = max(0, g(s)), g(s) = log lambda_{s/2} - (s/2) log rho
    r, rho = 0.7, 1.3
    for s in (1.0, 1.2, 1.6, 1.8):
        est, err = thermo.free_energy_limit(s, Params.floating(r))
        g48, g36 = (math.log(transfer._collocation_lambda(s / 2.0, r, d)) - 0.5 * s * math.log(rho) for d in (48, 36))
        assert abs(est - max(0.0, g48)) <= err + abs(g48 - g36), s
        assert err <= 1e-9
