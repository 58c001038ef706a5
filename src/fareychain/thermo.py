"""Canonical and grand-canonical thermodynamics of the induced spin chain.

The grand-canonical partition function at chain length k is the plain
row sum Z^G_k(s) = sum_sigma q_k(sigma)^(-s); the canonical one
accumulates rows, Z^C_n(s) = 1 + sum_{k<n} Z^G_k(s), and equals the sum
of the cumulative denominators qc_n(sigma)^(-s) over all n-bit words.
The finite-size free energy F_n(s) = (1/n) log(2 Z^C_{n-1}(s)) converges
to a limit that vanishes for s above the critical curve s_cr(r) and is
positive below it; s_cr is the smallest positive solution of
lambda_{s/2, r} = rho^(s/2) in terms of the transfer-operator spectral
radius, running from 1 at r = 0 to 2 at r = 1.

All limits are reported as finite-n estimates with explicit
extrapolation and error bars; nothing here claims the n -> infinity
value beyond its stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .rings import Params, balanced_sum
from .spinchain import _levels, _tree_stream, pc_qc_tables, pq_tables
from .transfer import _adaptive, _collocation_lambda, _lobatto_lambda, _pair_stream, spectral_radius

DIRECT_MAGNETIZATION_CAP = 22


@dataclass(frozen=True)
class ThermoPoint:
    """Z^C_n, F_n and M_n at one (r, s, n) parameter tuple."""

    r: float
    s: float
    n: int
    ZC: float
    Fn: float
    Mn: float


@dataclass(frozen=True)
class CriticalPoint:
    r: float
    s_cr: float
    error: float
    slope: float  # |g'(s_cr)|, the jump of dF/ds at the transition (the latent heat)
    method: str


@dataclass(frozen=True)
class CriticalCurve:
    samples: Sequence[CriticalPoint]
    tol: float


def _require_integer_exponent(s, params: Params) -> int:
    if params.mode == "symbolic":
        raise ValueError("partition sums need a numeric r; use exact or float mode")
    if params.mode == "exact":
        if s != int(s):
            raise ValueError("exact mode needs an integer exponent s")
        return int(s)
    return s


def grand_Z(k: int, s, params: Params):
    """Grand-canonical row sum Z^G_k(s) = sum_sigma q_k(sigma)^(-s).

    At r = 0 every level-k denominator equals 2^(k+1), so the sum
    collapses to 2^k 2^(-s(k+1)) and any k is admissible; otherwise the
    full table is enumerated (float up to k = 26, exact up to 16).
    """
    s = _require_integer_exponent(s, params)
    if params.mode != "symbolic" and params.r == 0:
        if params.mode == "exact":
            return Fraction(2**k) / Fraction(2) ** (s * (k + 1))
        return float(2.0**k * 2.0 ** (-s * (k + 1)))
    return _row_sum(pq_tables(k, params).q, s, params)


def _row_sum(values, s, params: Params):
    """sum of values^(-s): numpy's pairwise sum, or a balanced exact sum."""
    if params.mode == "float":
        return float(np.sum(np.asarray(values) ** (-float(s))))
    return balanced_sum([Fraction(1) / v**s for v in values], Fraction(0))


def _grand_sums(k_max: int, s_values: Sequence, params: Params) -> List[List]:
    """[Z^G_0(s), ..., Z^G_{k_max}(s)] for every s, from one walk down the rows."""
    exponents = [_require_integer_exponent(s, params) for s in s_values]
    if params.r == 0:
        return [[grand_Z(k, s, params) for k in range(k_max + 1)] for s in exponents]
    sums: List[List] = [[] for _ in exponents]
    for _p, q in _levels(_tree_stream, k_max, params):
        for row, s in zip(sums, exponents):
            row.append(_row_sum(q, s, params))
    return sums


def canonical_Z(n: int, s, params: Params, method: str = "rows"):
    """Canonical partition function Z^C_n(s), by one of three routes.

    * ``rows``        -- 1 + sum_{k<n} Z^G_k(s) over tree rows;
    * ``cumulative``  -- sum over n-bit words of qc_n(sigma)^(-s);
    * ``transfer``    -- (1 + sum_{k<=n} rho^(-k s/2) (P^k 1)(1)) / 2,
      the operator-iterate identity, evaluated over extended rows.

    The three agree exactly in exact mode and to rounding in float
    mode; tests exercise the agreement.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "rows":
        (zg,) = _grand_sums(n - 1, [s], params)
        return sum(zg, params.one)
    if method == "cumulative":
        s = _require_integer_exponent(s, params)
        return _row_sum(pc_qc_tables(n, params).q, s, params)
    if method == "transfer":
        return _canonical_via_transfer(n, s, params)
    raise ValueError(f"unknown method {method!r}")


def _canonical_via_transfer(n: int, s, params: Params):
    """2 Z^C_n(s) = 1 + sum_{k=0}^{n} rho^(-k s/2) (P_{s/2}^k 1)(1), where
    (P^k 1)(1) = 2 rho^(ks/2) sum over the k-th extended row of (p r + rho q)^(-s)."""
    s = _require_integer_exponent(s, params)
    if params.mode == "exact" and s % 2 != 0:
        raise ValueError("the exact transfer route needs an even integer s")
    total = 2 * params.one  # the leading 1 plus the k = 0 term (P^0 1)(1) = 1
    for p, q in _levels(_pair_stream, n - 1, params):  # the rho prefactors cancel
        total += 2 * _row_sum(p * params.r + params.rho * q, s, params)
    return total / 2


def free_energy(n: int, s: float, params: Params) -> float:
    """Finite-size free energy F_n(s) = (1/n) log(2 Z^C_{n-1}(s))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    zc = canonical_Z(n - 1, s, params.as_float())
    return math.log(2.0 * zc) / n


def free_energy_limit(n: int, s: float, params: Params) -> Tuple[float, float]:
    """Richardson-extrapolated F(s) estimate with an error bar.

    F_n = F + c/n + (geometric), so n F_n - (n-1) F_{n-1} kills the 1/n
    term; the error bar is the change from the previous extrapolant.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    f = [pt.Fn for pt in thermo_sweep(params.r_float, [s], n)[-3:]]
    ext_prev = (n - 1) * f[1] - (n - 2) * f[0]
    ext = n * f[2] - (n - 1) * f[1]
    return ext, abs(ext - ext_prev)


def magnetization(n: int, s: float, params: Params, method: str = "direct") -> float:
    """Mean magnetization M_n(s, r) of the length-n chain.

    * ``direct``   -- canonical expectation of (1/n) sum_k (-1)^(sigma_k)
      with weights qc_n(sigma)^(-s), enumerated over all 2^n words;
    * ``identity`` -- the row-sum identity
      Z^C_n(s) M_n = 1 + sum_{m<n} ((n-m-2)/n) Z^G_m(s),
      which needs only grand-canonical sums and scales to large n.

    Nonnegative for r in [0, 1]; tends to 1 above the critical curve
    and to 0 below it as n grows.
    """
    p = params.as_float()
    if method == "direct":
        if n > DIRECT_MAGNETIZATION_CAP:
            raise ValueError(f"direct magnetization capped at n = {DIRECT_MAGNETIZATION_CAP}")
        table = pc_qc_tables(n, p)
        weights = np.asarray(table.q) ** (-float(s))
        ones = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(float)
        spin_mean = (n - 2.0 * ones) / n
        return float(np.sum(spin_mean * weights) / np.sum(weights))
    if method == "identity":
        (zg,) = _grand_sums(n - 1, [s], p)
        return _identity_magnetization(zg, n)
    raise ValueError(f"unknown method {method!r}")


def _identity_magnetization(zg: Sequence[float], n: int) -> float:
    """M_n from the row sums Z^G_0 .. Z^G_{n-1}."""
    zc = 1.0 + sum(zg)
    numer = 1.0 + sum((n - m - 2.0) / n * zg[m] for m in range(n))
    return numer / zc


def _illinois(g: Callable[[float], float], lo: float, hi: float, g_lo: float, g_hi: float, tol: float):
    """Shrink a bracket with g_lo > 0 > g_hi to width <= tol by Illinois regula
    falsi: try the secant point, kept tol/4 inside; when one end moves twice
    running, halve the g value kept at the other.  Returns (lo, hi, g_lo, g_hi, evals)."""
    evals = 0
    f_lo, f_hi = g_lo, g_hi  # the g values that steer the secant, halved by the Illinois rule
    moved = 0  # +1 if lo moved last, -1 if hi did
    while hi - lo > tol:
        s = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        s = min(max(s, lo + tol / 4), hi - tol / 4)
        g_s = g(s)
        evals += 1
        if g_s > 0:
            lo, g_lo, f_lo, f_hi = s, g_s, g_s, f_hi / (2.0 if moved > 0 else 1.0)
            moved = 1
        else:
            hi, g_hi, f_hi, f_lo = s, g_s, g_s, f_lo / (2.0 if moved < 0 else 1.0)
            moved = -1
    return lo, hi, g_lo, g_hi, evals


def critical_line(params: Params, tol: float = 1e-6) -> CriticalPoint:
    """The critical exponent s_cr(r), r < 1: smallest positive solution of
    lambda_{s/2, r} = rho^(s/2) (ValueError for r >= 1, before any work).

    :func:`_illinois` roots g(s) = log lambda_{s/2} - (s/2) log rho, lambda from
    the dim-point Chebyshev compression, on [1e-3, 2] (g(0+) > 0 as
    lambda_0 = 2, g(2) < 0); s_cr is the secant point of the final bracket,
    g' its slope.  dim climbs 48, 96, 192, 384 until the eigenvalue term
    |log lambda_dim - log lambda_(3 dim/4)| / |g'| at the root is <= tol/10,
    each search after the first starting from the last bracket widened by
    the last term ([1e-3, 2] if g keeps its sign across it).  The error is
    the term plus the larger distance from s_cr to a bracket end; the
    Chebyshev-Lobatto compression at the same dim must move the root by at
    most the error.  Failures raise ArithmeticError.
    """
    r = params.r_float
    if r >= 1:
        raise ValueError(f"the critical curve is computed for r < 1, got r={r}")
    log_rho = math.log(2.0 - r)
    bracket, evals = (1e-3, 2.0), 0

    def search(dim: int, check_dim: int):
        nonlocal bracket, evals

        def g(s: float) -> float:
            return math.log(_collocation_lambda(s / 2.0, r, dim)) - (s / 2.0) * log_rho

        for lo, hi in (bracket, (1e-3, 2.0)):
            g_lo, g_hi = g(lo), g(hi)
            evals += 2
            if g_lo > 0 > g_hi:
                break
        else:
            raise ArithmeticError(f"bracket failure at r={r}: g({lo})={g_lo}, g({hi})={g_hi}")
        lo, hi, g_lo, g_hi, steps = _illinois(g, lo, hi, g_lo, g_hi, tol)
        evals += steps
        slope = (g_hi - g_lo) / (hi - lo)
        s_cr = lo - g_lo / slope
        lam = _collocation_lambda(s_cr / 2.0, r, dim)
        term = abs(math.log(lam) - math.log(_collocation_lambda(s_cr / 2.0, r, check_dim))) / abs(slope)
        bracket = (lo - term, hi + term)
        return (s_cr, lo, hi, slope, lam), term

    (s_cr, lo, hi, slope, lam), term, dim = _adaptive(search, tol / 10, f"s_cr at r={r}")
    error = max(s_cr - lo, hi - s_cr) + term
    shift = abs(math.log(_lobatto_lambda(s_cr / 2.0, r, dim)) - math.log(lam)) / abs(slope)
    if shift > error:
        raise ArithmeticError(f"Lobatto check failed at r={r}, s={s_cr}: shift {shift:.3g} > error {error:.3g}")
    return CriticalPoint(r, s_cr, error, abs(slope), f"illinois on log lambda; {evals} evals; dim {dim}; lobatto-checked")


def critical_curve(r_values: Sequence[float], tol: float = 1e-6) -> CriticalCurve:
    pts = [critical_line(Params.floating(r), tol) for r in r_values]
    return CriticalCurve(pts, tol)


def sandwich_bounds(s: float, r: float, n: int, levels: Sequence[int]) -> List[Tuple[int, float, float, float]]:
    """Grand-canonical growth sandwich mu_+^(l-n) Z^G_n <= Z^G_l <= mu_-^(l-n) Z^G_n.

    mu_+- = (1 +- eps) lambda_{s/2} / rho^(s/2) with eps at 0.4 of its
    admissible range; valid below the critical curve once n is large
    enough.  Returns (l, lower, Z^G_l, upper) rows for inspection.
    """
    p = Params.floating(r)
    lam = spectral_radius(s / 2.0, r, tol=1e-11).value
    ratio = (2.0 - r) ** (s / 2.0) / lam
    if ratio >= 1.0:
        raise ValueError("the sandwich applies below the critical curve only")
    eps = 0.4 * (1.0 - ratio)
    mu_plus = (1.0 + eps) / ratio
    mu_minus = (1.0 - eps) / ratio
    (zg,) = _grand_sums(max([*levels, n]), [s], p)
    out = []
    for l in levels:
        lower = mu_plus ** (l - n) * zg[n]
        upper = mu_minus ** (l - n) * zg[n]
        out.append((l, lower, zg[l], upper))
    return out


def thermo_sweep(r: float, s_values: Sequence[float], n_max: int) -> List[ThermoPoint]:
    """Z^C_n, F_n and M_n for every s in `s_values` and n = 2 .. n_max.

    All three follow from the row sums Z^G_k, k < n_max, which one walk
    down the tree rows yields for every s at once.  Points are ordered
    by s, then by n.
    """
    points = []
    for s, zg in zip(s_values, _grand_sums(n_max - 1, s_values, Params.floating(r))):
        zc = list(accumulate(zg, initial=1.0))  # zc[n] = Z^C_n
        points.extend(
            ThermoPoint(r, s, n, zc[n], math.log(2.0 * zc[n - 1]) / n, _identity_magnetization(zg[:n], n))
            for n in range(2, n_max + 1)
        )
    return points
