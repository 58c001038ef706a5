"""Canonical and grand-canonical thermodynamics of the induced spin chain.

The grand-canonical partition function at chain length k is the plain
row sum Z^G_k(s) = sum_sigma q_k(sigma)^(-s); the canonical one
accumulates rows, Z^C_n(s) = 1 + sum_{k<n} Z^G_k(s), and equals the sum
of the cumulative denominators qc_n(sigma)^(-s) over all n-bit words.
The finite-size free energy F_n(s) = (1/n) log(2 Z^C_{n-1}(s)) converges
to a limit that vanishes for s above the critical curve s_cr(r) and is
positive below it; s_cr is the smallest positive solution of
lambda_{s/2, r} = rho^(s/2) in terms of the transfer-operator spectral
radius, running from 1 at r = 0 to 2 at r = 1.  :func:`critical_line` finds
it on all of r in [0, 1] as the root of the log Perron eigenvalue of the
first-return operator on [1/2, 1], by Chandrupatla's bracketed search at
12 points (inverse quadratic interpolation where that is safe, bisection
otherwise; five to eight evaluations, one eigvals each, at tol 1e-3 to
1e-12) and one Newton step at 16 points, whose size is the dim term: one eig
and one linear solve, whose Perron vectors give the slope, the mean return
time and the 2h term as forms, with no further eigen-solve.  It
reports the jump of dF/ds there by the renewal identity |d log lambda_K/ds| / (mean return time), which falls to 0
at r = 1, where the mean return time diverges and the transition stops
being first order.

The row sums are also values of operator iterates, Z^G_k(s) = 2^(-s) (rho^(-ks/2) P_{s/2}^k 1)(1/2), so
:func:`thermo_sweep` reads Z^C_n, F_n and M_n for every n <= n_max from n_max - 1 products with the cached Chebyshev
compression of the operator, log-scaled so that n ~ 10^4 stays finite, at the dim of :func:`transfer._dim_ladder`,
with a computed error per point.  The row routes (:func:`grand_Z`, :func:`canonical_Z`, :func:`free_energy`,
:func:`magnetization`, and all of exact mode) walk the 2^k-entry tree rows and are the sweep's independent oracle.

At n = infinity nothing is extrapolated: the free energy is the pressure, F = max(0, g) with
g = log lambda_{s/2} - (s/2) log rho (:func:`free_energy_limit`), and it, s_cr, the slope and the sandwich rates all
read the first-return operator, each with the error bar its solve computes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .rings import Params, power_sum
from .spinchain import _cumulative, _integral, _last_level_sum, _level_sums, _tree_stream, pc_qc_tables
from .transfer import (_LOG_FLOAT_MAX, RETURN_DIM, SEARCH_DIM, SWEEP_TOL, _chandrupatla, _dim_ladder, _log_iterates,
                       _pair_stream, _search_log_lambda, return_root, spectral_radius)

DIRECT_MAGNETIZATION_CAP = 22
SWEEP_CAP = 200_000  # n_max * len(s_values), the rows of a sweep (a ThermoPoint with its floats holds ~250 bytes)


class ThermoPoint(NamedTuple):
    """Z^C_n, F_n and M_n at one (r, s, n) parameter tuple, from the operator
    iterates at Chebyshev dimension `dim`, fields in the order of the `thermo`
    columns.  ZC is inf where Z^C_n exceeds the float range; logZC is always
    finite.  `error` bounds the relative error of Z^C_n (the absolute error of logZC)."""

    r: float
    s: float
    n: int
    ZC: float
    Fn: float
    Mn: float
    logZC: float
    error: float
    dim: int


@dataclass(frozen=True)
class CriticalPoint:
    r: float
    s_cr: float
    error: float
    slope: float  # |g'(s_cr)|, the jump of dF/ds at the transition (the latent heat), 0 at r = 1
    method: str


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
    collapses to 2^k 2^(-s(k+1)) and any k >= 0 is admissible; otherwise the
    level-k row is walked in bounded-memory blocks (float up to k = 26,
    exact up to 16).
    """
    s = _require_integer_exponent(s, params)
    if k < 0:  # before the r = 0 closed form, which has a value there
        raise ValueError(f"k={k} is negative: the levels start at k = 0")
    if params.r == 0:
        return params.one * 2**k * (2 * params.one) ** (-s * (k + 1))
    d0, d = _integral(_tree_stream, params)[3:]
    return _last_level_sum(_tree_stream, k, params, lambda block: _row_sum(block[1], s, params, d0 * d**k))


def _row_sum(values, s, params: Params, scale: int):
    """sum of (values / scale)^(-s): in float mode numpy's pairwise sum (scale 1); in exact mode rings.power_sum
    of the kernel's integer numerators times scale^s, scale = D0 D^level (see :func:`spinchain._integral`)."""
    if params.mode == "float":
        return float(np.sum(np.asarray(values) ** (-float(s))))
    return power_sum(values.tolist(), s) * Fraction(scale) ** s


def _grand_sums(k_max: int, s_values: Sequence, params: Params) -> List[List]:
    """[Z^G_0(s), ..., Z^G_{k_max}(s)] for every s, from one walk down the rows."""
    exponents = [_require_integer_exponent(s, params) for s in s_values]
    if params.r == 0:
        return [[grand_Z(k, s, params) for k in range(k_max + 1)] for s in exponents]
    d0, d = _integral(_tree_stream, params)[3:]
    sums = _level_sums(_tree_stream, k_max, params,  # a level's sums, one entry per s
                       lambda level, block: np.array([_row_sum(block[1], s, params, d0 * d**level) for s in exponents],
                                                     dtype=object))
    return [list(row) for row in zip(*sums)]


def canonical_Z(n: int, s, params: Params, method: str = "rows"):
    """Canonical partition function Z^C_n(s), by one of three routes.

    * ``rows``        -- 1 + sum_{k<n} Z^G_k(s) over tree rows;
    * ``cumulative``  -- sum over n-bit words of qc_n(sigma)^(-s);
    * ``transfer``    -- (1 + sum_{k<=n} rho^(-k s/2) (P^k 1)(1)) / 2,
      the operator-iterate identity, evaluated over extended rows.

    The three agree exactly in exact mode (any integer s) and to rounding
    in float mode; tests exercise the agreement.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "rows":
        (zg,) = _grand_sums(n - 1, [s], params)
        return sum(zg, params.one)
    if method == "cumulative":
        s = _require_integer_exponent(s, params)
        (_pc, qc), scale = _cumulative(n, params)
        return _row_sum(qc, s, params, scale)
    if method == "transfer":
        return _canonical_via_transfer(n, s, params)
    raise ValueError(f"unknown method {method!r}")


def _canonical_via_transfer(n: int, s, params: Params):
    """2 Z^C_n(s) = 1 + sum_{k=0}^{n} rho^(-k s/2) (P_{s/2}^k 1)(1), where
    (P^k 1)(1) = 2 rho^(ks/2) sum over the k-th extended row of (p r + rho q)^(-s); the rho^(ks/2)
    cancel, so exact mode admits any integer s.  (r, rho) is SR's second row, over D in exact mode."""
    s = _require_integer_exponent(s, params)
    _root, (_R, SR), _flip, d0, d = _integral(_pair_stream, params)
    r, rho = SR[1]
    sums = _level_sums(_pair_stream, n - 1, params,
                       lambda level, block: _row_sum(block[0] * r + rho * block[1], s, params, d0 * d ** (level + 1)))
    return sum(sums, params.one)  # (the leading 1 + (P^0 1)(1) = 1 + 2 sum(sums)) / 2


def free_energy(n: int, s: float, params: Params) -> float:
    """Finite-size free energy F_n(s) = (1/n) log(2 Z^C_{n-1}(s))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    zc = canonical_Z(n - 1, s, params.as_float())
    return math.log(2.0 * zc) / n


def free_energy_limit(s: float, params: Params) -> Tuple[float, float]:
    """F(s) = lim (1/n) log Z^C_n(s) = max(0, g), g = log lambda_{s/2} - (s/2) log rho the pressure, with its error:
    lambda from :func:`transfer.spectral_radius` at its default tol, whose relative error carries into g as
    -log1p(-error / lambda).  Where g plus that error is below 0, F = 0 holds exactly and its error is 0 (the tol of
    spectral_radius is absolute, so where lambda is small that error is loose).  The refusals are spectral_radius's."""
    r = params.r_float
    lam = spectral_radius(s / 2.0, r)
    g, error = math.log(lam.value) - 0.5 * s * math.log1p(1.0 - r), -math.log1p(-lam.error / lam.value)
    return (0.0, 0.0) if g + error < 0 else (max(0.0, g), error)


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


def critical_line(params: Params, tol: float = 1e-6) -> CriticalPoint:
    """The critical exponent s_cr(r), r in [0, 1]: the root of log lambda_K(s/2), lambda_K the Perron
    eigenvalue of the first-return operator, where lambda_{s/2, r} = rho^(s/2).  ValueError, before any solve,
    for r outside [0, 1] or a tol that is not finite or is below 1e-12.

    :func:`_chandrupatla` shrinks [0.999 + 0.002 r, 2.5] (2 sigma > 1 keeps K finite at r = 1) to width tol/2,
    one eigen-solve of the SEARCH_DIM-point operator per point (:func:`transfer._search_log_lambda`).  From the
    secant point s' of the final bracket one Newton step at RETURN_DIM points (:func:`transfer.return_root`)
    gives s_cr = s' - log lambda_K(s') / (d log lambda_K / ds).  The error is the larger distance from s' to a
    bracket end plus the dim term |log lambda_K(s')|, the size of that step, and the change of log lambda_K
    from the 2h rule, each divided by |d log lambda_K / ds|; an error above tol raises ArithmeticError.
    The slope, the jump of dF/ds at the transition, is the renewal identity
    |g'(s_cr)| = |d log lambda_K / ds| / (mean return time), 0 at r = 1, where that mean diverges.
    """
    r = params.r_float
    if not 0 <= r <= 1:
        raise ValueError(f"the critical curve is computed for r in [0, 1], got r={r}")
    if not 1e-12 <= tol < math.inf:  # narrower brackets reach the float spacing of s, and stall
        raise ValueError(f"tol={tol} must be finite and at least 1e-12")
    lo, hi = 0.999 + 0.002 * r, 2.5
    g_lo, g_hi = _search_log_lambda(lo, r), _search_log_lambda(hi, r)
    if not g_lo > 0 > g_hi:
        raise ArithmeticError(f"bracket failure at r={r}: g({lo})={g_lo}, g({hi})={g_hi}")
    lo, hi, g_lo, g_hi, evals = _chandrupatla(lambda s: _search_log_lambda(s, r), lo, hi, g_lo, g_hi, tol / 2)
    search = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    log_lambda, d_log, mean_return, step_term = return_root(search, r)
    s_cr, dim_term = search - log_lambda / d_log, abs(log_lambda)
    error = max(search - lo, hi - search) + (dim_term + step_term) / abs(d_log)
    if not error <= tol:
        raise ArithmeticError(f"s_cr at r={r}: error {error:.3g} > tol {tol:.3g} "
                              f"(dim term {dim_term:.3g}, 2h term {step_term:.3g})")
    return CriticalPoint(r, s_cr, error, abs(d_log) / mean_return,
                         f"chandrupatla on log lambda_K at dim {SEARCH_DIM}; {evals + 2} evals; "
                         f"one Newton step at dim {RETURN_DIM}")


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


def _log_sums(r: float, s: np.ndarray, n_max: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """log Z^C_n and log sum_{m<n} (m+2) Z^G_m for n = 0 .. n_max (rows), one
    column per s, with log Z^G_k = log f_k(1/2) - s log 2 from the operator
    iterates at dim (row 0 of the second is -inf, the empty sum)."""
    log_zg = _log_iterates(s / 2.0, lambda y: np.ones((len(y), len(s))), r, n_max, dim, 0.5)[0] - s * math.log(2.0)
    start = np.zeros((1, len(s)))
    log_zc = np.logaddexp.accumulate(np.vstack([start, log_zg]), axis=0)
    log_weighted = np.log(np.arange(2.0, n_max + 2.0))[:, None] + log_zg
    log_w = np.logaddexp.accumulate(np.vstack([start - math.inf, log_weighted]), axis=0)
    return log_zc, log_w


def thermo_sweep(r: float, s_values: Sequence[float], n_max: int) -> List[ThermoPoint]:
    """Z^C_n, F_n and M_n for every s in `s_values` and n = 2 .. n_max, r in [0, 1].

    The row sums are values of operator iterates at 1/2: Z^G_k(s) = 2^(-s) f_k(1/2), f_0 = 1,
    f_{k+1} = rho^(-s/2) P_{s/2} f_k, which is the identity 2 Z^C_n = 1 + sum_{k<=n} rho^(-ks/2) (P_{s/2}^k 1)(1)
    read one level down.  The iterates come from n_max - 1 products with the cached Chebyshev compression,
    log-scaled, for every s at once; then Z^C_n = 1 + sum_{k<n} Z^G_k, F_n = log(2 Z^C_{n-1}) / n and, by the
    row-sum identity, M_n = 1 - sum_{m<n} (m+2) Z^G_m / (n Z^C_n), all in logs.

    The dim is :func:`transfer._dim_ladder`'s on the change of every log Z^C_n, a relative change of Z^C_n at scale
    1; the error of each point is that change, floored at the ladder's rounding floor (n+1) dim eps.  The rows route
    (:func:`canonical_Z`, :func:`magnetization` with ``identity``) is the oracle.  ValueError, before any work, for
    r outside [0, 1], n_max < 2, no s values, an s not finite or < 0 (where the iterates grow steeply toward x = 1
    and their rounding outgrows that floor) or n_max * len(s_values) > SWEEP_CAP; after the solve, before any point
    is built, for a value that is not finite.  ArithmeticError where the ladder tops out, naming the run (dim 384 or
    its 3 dim/4 check) and the first (n, s) whose iterate f_n at 1/2 is not positive and finite if that is why.
    Points are ordered by s, then by n.
    """
    if not 0 <= r <= 1:
        raise ValueError(f"the operator sweep is computed for r in [0, 1], got r={r}")
    if n_max < 2:
        raise ValueError("n must be >= 2")
    if not len(s_values):
        raise ValueError("the sweep needs at least one s value")
    for s_i in s_values:
        if not 0 <= s_i < math.inf:
            raise ValueError(f"the sweep's error bar is computed for s >= 0 and finite, got s={s_i}")
    if n_max * len(s_values) > SWEEP_CAP:
        raise ValueError(f"n * len(s) = {n_max * len(s_values)} exceeds the sweep cap {SWEEP_CAP}")
    s = np.asarray(s_values, dtype=float)

    def run(dim):
        log_zc, log_w = _log_sums(r, s, n_max, dim)
        return log_zc, 1.0, log_w

    rounds = np.arange(1.0, n_max + 2.0)[:, None]  # the dot products behind log Z^C_0 .. log Z^C_n_max
    dim, (log_zc, _one, log_w), (check, *_), shift, term = _dim_ladder(run, rounds)
    if not term <= SWEEP_TOL:
        if math.isfinite(term):
            raise ArithmeticError(f"Z^C at r={r}: dim vs 3 dim/4 term {term:.3g} > {SWEEP_TOL:.3g} at dim {dim}, "
                                  "the top of the ladder")
        # the first nan of each run: a nan log Z^C_(n+1) is a log f_n(1/2) of nan
        row, j, failed = min((*np.argwhere(np.isnan(log))[0], d) for d, log in ((dim, log_zc), (3 * dim // 4, check))
                             if np.isnan(log).any())
        raise ArithmeticError(f"Z^C at r={r}: dim vs 3 dim/4 term not finite at dim {dim}, the top of the ladder; "
                              f"in the dim {failed} run the iterate f_n at 1/2 is not positive and finite, "
                              f"first at n={row - 1}, s={s_values[j]}")
    error = np.maximum(shift, rounds * dim * np.finfo(float).eps)
    n = np.arange(2.0, n_max + 1.0)[:, None]
    fn = (math.log(2.0) + log_zc[1:-1]) / n
    mn = 1.0 - np.exp(log_w[2:] - log_zc[2:]) / n
    columns = {"logZC": log_zc[2:], "Fn": fn, "Mn": mn, "error": error[2:]}  # rows n = 2 .. n_max, a column per s
    for name, col in columns.items():
        for k, j in np.argwhere(~np.isfinite(col))[:1]:
            raise ValueError(f"{name} is not finite at n={k + 2}, s={s_values[j]}")
    lz, f, m, e = (col.T.ravel().tolist() for col in columns.values())  # ordered by s, then by n
    zc = [math.exp(x) if x < _LOG_FLOAT_MAX else math.inf for x in lz]
    s_col = [s_i for s_i in s_values for _ in range(n_max - 1)]
    n_col = [*range(2, n_max + 1)] * len(s_values)
    rows = zip(itertools.repeat(r), s_col, n_col, zc, f, m, lz, e, itertools.repeat(dim))
    return list(map(ThermoPoint._make, rows))
