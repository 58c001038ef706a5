"""Iterates, traces and spectral data of the weighted transfer operator.

The operator acts on functions of [0, 1] as

    (P_{s,r} f)(x) = rho^s / (rho + r x)^(2s) * [f(Phi_0 x) + f(Phi_1 x)]

with the two inverse branches Phi_j and rho = 2 - r.  Its n-th iterate
applied to any f collapses to a sum over the 2^(n-1) vertices of the
n-th extended tree row, and its traces collapse to sums over tree leaves
of the matrix-presentation traces (T_0, T_1).
Every closed form here is paired with a brute-force branch-word oracle
that sums over all 2^n inverse-branch compositions directly.  The leading
eigenvalue and the critical exponent both come from the first-return operator
K on [1/2, 1], one collocation of fixed size for every r in [0, 1], its
sigma-independent arrays built in one pass per r and cached: s_cr is the root
of log lambda_K in s, lambda_{s,r} its root in the weight e^(-eps m) of the
m-th term.  Each root is searched on the 3 dim/4 collocation
(:func:`_search_log_lambda`) and finished by one Newton step at dim
(:func:`return_root`), whose size is the dim term of its error.  The Chebyshev
compression of P at a fixed dim (:func:`collocation_spectrum`) is the oracle of
both.

Every leaf sum reads one stream of the two-child kernel of
:mod:`spinchain`, which takes a root to level n - 1 through two child
matrices (L = [[1, 0], [r, rho]], R = [[1, rho], [0, rho]],
SR = [[r-1, rho], [r, rho]], (+) the block-diagonal sum):

    _pair_stream     extended rows (p, q)   root (1, 1)         R, SR
    _quad_stream     (p, q, mu, nu)         root (1, 1, 1, 0)   R (+) [[1, r rho], [0, rho]],
                                                                SR (+) [[r-1, r rho], [1, rho]]
    _matrix_stream   leaf matrices X        root L              rows of X times L, R

Every leaf sum reads the kernel's one walk of its stream (:func:`spinchain._walk`) depth first in blocks
of at most 2^13 columns, so large n costs time but only one block of memory per level; extended_pairs
reads its last level as a whole row.
A series over n = 1 .. N sums a term per level of one walk.  Each quantity has one
fast route, one independent oracle, and a check comparing the two (a
``verify transfer`` check, or a test of tests/test_transfer.py):

    (P^n 1)(x)        iterate_one         apply_bruteforce          "iterate of 1 vs branch-word oracle"
    (P^n e_m)(x)      iterate_character   apply_bruteforce          "character iterate vs branch-word oracle"
                      operator iterates   leaf walk                 "character iterate: operator iterates vs leaf walk"
    (P^(k+1) f)(x)    iterate_general     apply_bruteforce          "general iterate vs branch-word oracle"
    trace(P^n), Xi_n  trace_sums,         leaf walk                 "traces and Xi_n: first-return series vs leaf walk"
                      periodic_sums_xi
                      leaf walk           trace_power_bruteforce    "trace leaf formula vs fixed-point oracle (n<=8)"
                                          periodic_sum_bruteforce   "periodic-orbit sum vs fixed-point oracle"
    zeta(z)           fredholm_and_zeta on trace_sums: ratio vs orbit sum, "zeta: orbit-sum route vs determinant ratio"
    lambda_{s,r}      spectral_radius     collocation_spectrum      "lambda: first-return operator vs Chebyshev compression"
    s_cr(r)           thermo.critical_line collocation_spectrum     "s_cr: first-return operator vs Chebyshev compression (r <= 0.99)"
                      each rooted by Chandrupatla's bracketed search (:func:`_chandrupatla`) on
                      _search_log_lambda at SEARCH_DIM = 12, then one Newton step at RETURN_DIM = 16 (return_root)
The three brute-force oracles (apply_bruteforce, trace_power_bruteforce, periodic_sum_bruteforce) read the 2^n
branch words of one enumeration of their Moebius matrices, :func:`_branch_words`.

The iterates of 1 and of characters, and the twisted sums of :mod:`twisted`, come on r in [0, 1] and x in
[0, 1] from n products with the cached Chebyshev compression (:func:`_operator_iterates`, the loop
:func:`_log_iterates` and the dim ladder :func:`_dim_ladder` that the thermo sweep shares): O(n dim^2) work,
reported with the dim and an error.  Where it does not serve they walk the leaves and say why; iterate_general,
whose f is any callable, always does.
Every periodic orbit but the fixed point 0 is a cyclic word of the first-return blocks Phi_1 Phi_0^(m-1), so the
traces (r < 1) and Xi_n (r <= 1) are the fixed point's term plus the Taylor coefficients of log det(I -+ B_sigma(z)),
B_sigma(z) = sum_m z^m rho^(m sigma) K_(sigma,m) over the blocks of the first-return operator K on [1/2, 1]
(:func:`_return_series`): the coefficient of z^n needs the blocks m <= n only, so n <= SERIES_CAP costs O(n^2 dim^3)
at dim SERIES_DIM, with the error of its 3 dim/4 rerun.  The one-block words enter in closed form, each block's
trace from its fixed point by Ruelle's formula (:func:`_block_traces`): collocated, they would converge only like
|psi_1'(x*)|^dim (1/2 per point at r = 0), the words of two or more blocks at least twice as fast.  Both Fredholm
determinants and the orbit sums of zeta read the same series.  Their leaf walk (method="leaves", n <= 27) is the
oracle; it walks _matrix_stream and takes the roots of each block of leaf matrices once, from :func:`_leaf_roots`
(m_j, r_j, j = 0, 1, free of cancellation up to r = 1, with rho^(n/2) folded
into m_j): a trace term is rho^(n/2) m_j^(2s-1) / r_j, a Xi_n term m_j^(2s).  The walked iterates
share one vertex term (:func:`_vertex_sum`): a vertex of the n-th extended row, with
den = p r x + rho q and t = (mu x + rho nu) / den, contributes den^(-2s) [f(t) + f(1 - t)].
f = 1 needs only the (p, q) of _pair_stream; every other f reads _quad_stream.  They take their
single n from the last level of the walk alone, so they cost no series.

For a character e_m with integer m, e_m(1 - t) is the conjugate of e_m(t), so each vertex pair
is the real phase 2 cos(2 pi m t), and non-integer m is rejected.  Float reductions use numpy's
pairwise summation (scalar accumulations use compensated sums).

Every entry that takes s decides its arithmetic once, where s enters (:func:`_real_or_complex`): s is a float
where Im s = 0, so real s runs in float64 throughout, and a complex otherwise; every power is then base ** s.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .maps import involution_s
from .rings import Params, csum_complex
from .spinchain import FLOAT_TABLE_CAP, _entries, _generators, _last_level_sum, _level_sums, _scaled_levels

BRUTE_CAP = 20
ZETA_TOL = 1e-9  # fredholm_and_zeta's zeta is converged when its two routes and the last two ratios agree to this
SWEEP_TOL = 1e-12  # relative change of every operator-iterate value from the 3 dim/4 rerun, beyond rounding
SWEEP_DIMS = (48, 96, 192, 384)  # the Chebyshev dimensions of the operator iterates, each checked against 3 dim/4
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class TransferQuery:
    """Evaluation request: weight exponent s (kept as :func:`_real_or_complex` gives it), parameter r, power n."""

    s: complex
    r: float
    n: int

    def __post_init__(self):
        if not cmath.isfinite(self.s):
            raise ValueError(f"s must be finite, got s={self.s}")
        object.__setattr__(self, "s", _real_or_complex(self.s))
        if not 0 <= self.r < 2:
            raise ValueError("r must lie in [0, 2)")
        _require_leaf_n(self.n)

    @property
    def rho(self) -> float:
        return 2.0 - self.r


def _require_leaf_n(n: int) -> None:
    """Refuse n outside 1 .. FLOAT_TABLE_CAP + 1 before any walk: the leaf sums of n end at level n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FLOAT_TABLE_CAP + 1:
        raise ValueError(f"n={n} exceeds {FLOAT_TABLE_CAP + 1}, the largest n of the leaf sums")


def _real_or_complex(s: complex) -> float | complex:
    """s as a float where Im s = 0, else as a complex: the one place an entry decides the arithmetic of s."""
    s = complex(s)
    return s if s.imag else s.real


# ---------------------------------------------------------------------------
# Leaf streams over the two-child kernel
# ---------------------------------------------------------------------------


def _blockdiag(A, B, zero):
    return tuple(row + (zero,) * len(B) for row in A) + tuple((zero,) * len(A) + row for row in B)


def _pair_stream(params: Params):
    _L, R, SR = _generators(params)
    return (params.one, params.one), (R, SR), False


def _quad_stream(params: Params):
    one, r, rho = params.one, params.r, params.rho
    zero = one - one
    _L, R, SR = _generators(params)
    A = _blockdiag(R, ((one, r * rho), (zero, rho)), zero)
    B = _blockdiag(SR, ((r - one, r * rho), (one, rho)), zero)
    return (one, one, one, zero), (A, B), False


def _matrix_stream(params: Params):
    # X = L M_1 ... M_{n-1} as (a, b, c, d); each row of X times L or R
    L, R, _SR = _generators(params)
    zero = params.one - params.one
    Lt, Rt = tuple(zip(*L)), tuple(zip(*R))
    return L[0] + L[1], (_blockdiag(Lt, Lt, zero), _blockdiag(Rt, Rt, zero)), False


def extended_pairs(n: int, params: Params) -> List[Tuple]:
    """The (p, q) pairs of the n-th extended row in the active ring.

    n = 1 is the root pair (1, 1); row n + 1 is, as a set, tree row n
    with its mirrors, the oracle of the extended ``tree`` records.
    """
    (x, scale), = _scaled_levels(_pair_stream, n - 1, params, last=True)
    return list(zip(*_entries(x, scale, params)))


# ---------------------------------------------------------------------------
# Brute-force branch-word oracle
# ---------------------------------------------------------------------------


def _branch_words(q: TransferQuery) -> Iterator[Tuple[bool, Tuple[float, float, float, float]]]:
    """(odd, (a, b, c, d)) for each of the 2^n inverse-branch words Phi_(sigma_1) o ... o Phi_(sigma_n), word index
    order with sigma_1 the most significant bit: x -> (a x + b) / (c x + d) is the composition, odd says whether it
    takes an odd number of right branches, and |det| = rho^n.  The one enumeration every brute-force oracle reads;
    ValueError for n over BRUTE_CAP before the first word."""
    if q.n > BRUTE_CAP:
        raise ValueError(f"n={q.n} exceeds the brute-force cap {BRUTE_CAP}")
    r, rho = q.r, q.rho
    mats = ((1.0, 0.0, r, rho), (r - 1.0, rho, r, rho))  # Phi_0 x = x / (r x + rho), Phi_1 x = 1 - Phi_0 x
    for word in range(1 << q.n):
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for i in range(q.n - 1, -1, -1):
            ma, mb, mc, md = mats[(word >> i) & 1]
            a, b, c, d = a * ma + b * mc, a * mb + b * md, c * ma + d * mc, c * mb + d * md
        yield word.bit_count() % 2 == 1, (a, b, c, d)


def apply_bruteforce(f: Callable, x: float, q: TransferQuery) -> complex:
    """(P^n f)(x) summed directly over all 2^n inverse-branch words (:func:`_branch_words`).

    The independent oracle for every closed iterate formula: a word
    psi = (a x + b) / (c x + d) contributes |psi'(x)|^s f(psi(x)), with
    |psi'(x)| = rho^n / (c x + d)^2.
    """
    n_log_rho = q.n * math.log(q.rho)
    return csum_complex([cmath.exp(q.s * (n_log_rho - 2.0 * math.log(c * x + d))) * f((a * x + b) / (c * x + d))
                         for _odd, (a, b, c, d) in _branch_words(q)])


# ---------------------------------------------------------------------------
# Closed iterate formulas
# ---------------------------------------------------------------------------


def _character_pair(m: int):
    """The pair value e_m(t) + e_m(1 - t) = 2 cos(2 pi m t) of a character, or None for m = 0
    (:func:`_vertex_sum`); ValueError for m that is not an integer, where the identity fails."""
    if not float(m).is_integer():
        raise ValueError(f"the character order m must be an integer, got {m!r}")
    if m == 0:
        return None
    two_pi_m = 2.0 * math.pi * m  # the pair works in t's own buffer: no block-sized temporary
    return lambda t: np.multiply(np.cos(np.multiply(t, two_pi_m, out=t), out=t), 2.0, out=t)


def _vertex_sum(level, x: float, s: complex, r: float, pair: Optional[Callable]) -> complex:
    """The vertex terms of rho^(-ns) (P^n f)(x) summed over a block of the n-th extended row.

    A vertex contributes den^(-2s) pair(t), den = p r x + rho q, t = (mu x + rho nu) / den, with
    pair(t) = f(t) + f(1 - t) read from the (p, q, mu, nu) columns; pair None stands for f = 1,
    whose pair value 2 needs only the (p, q) columns.  t is a fresh array that pair may overwrite.
    """
    rho = 2.0 - r
    den = level[0] * (r * x) + rho * level[1]
    if pair is None:
        return complex(2.0 * np.sum(den ** (-2.0 * s)))
    values = pair((level[2] * x + rho * level[3]) / den)  # first: its temporaries are freed before the weights
    return complex(np.sum(den ** (-2.0 * s) * values))


def _iterate(x: float, q: TransferQuery, pair: Optional[Callable]) -> complex:
    """(P^n f)(x): rho^(ns) times the :func:`_vertex_sum` terms of pair over the last level of the walk."""
    stream = _pair_stream if pair is None else _quad_stream
    total = _last_level_sum(stream, q.n - 1, Params.floating(q.r), lambda b: _vertex_sum(b, x, q.s, q.r, pair))
    return q.rho ** (q.n * q.s) * total


class Estimate(complex):
    """A complex value with the route that computed it: `method` names the route (the operator iterates with
    their dim, or the walk or row sum and why it was taken), `error` is the computed error bar, None on the walk
    and row routes, which compute none."""

    __slots__ = ("error", "method")

    def __new__(cls, value: complex, error: Optional[float], method: str):
        self = super().__new__(cls, value)
        self.error, self.method = error, method
        return self


def iterate_one(x: float, q: TransferQuery) -> Estimate:
    """(P^n 1)(x) = 2 rho^(ns) * sum over the n-th extended row of (p r x + rho q)^(-2s): :func:`iterate_character`
    at m = 0."""
    return iterate_character(x, q, 0)


def iterate_character(x: float, q: TransferQuery, m: int) -> Estimate:
    """(P^n e_m)(x) for the character e_m(y) = exp(2 pi i m y): rho^(ns) T_n of :func:`_operator_iterates` where that
    serves, else the walk, where each extended-row vertex contributes den^(-2s) 2 cos(2 pi m t) (:func:`_vertex_sum`,
    :func:`_character_pair`).  That needs integer m, so any other m raises ValueError."""
    pair = _character_pair(m)  # refuses a non-integer m on both routes
    got = _operator_iterates(x, q.s, q.r, m, q.n, lambda T: T[-1:], q.rho ** (q.n * q.s))
    return Estimate(_iterate(x, q, pair), None, f"leaf walk ({got})") if isinstance(got, str) else got[0]


def iterate_general(f: Callable, x: float, s: complex, r: float, k: int) -> complex:
    """(P^(k+1) f)(x) for any f that accepts numpy arrays, from level k of the (p, q, mu, nu) stream.

    Each vertex of the (k+1)-st extended row contributes (:func:`_vertex_sum`)

        den^(-2s) [f(t) + f(1 - t)],   den = p r x + rho q,   t = (mu x + rho nu) / den,

    times rho^((k+1)s): t and 1 - t are the images of x under the vertex's two branch words, and
    den^(-2s) their common weight.  The level is summed over the depth-first blocks of
    :func:`spinchain._walk`, so the memory is one block per level, not the 2^k vertices.
    ValueError, before any work, for r outside [0, 2) or k + 1 outside the n of :func:`_require_leaf_n`.
    """
    return _iterate(x, TransferQuery(s, r, k + 1), lambda t: f(t) + f(1.0 - t))


# ---------------------------------------------------------------------------
# Traces and periodic-orbit sums
# ---------------------------------------------------------------------------


def _leaf_roots(X: np.ndarray, r: float, n: int) -> Tuple[np.ndarray, ...]:
    """(m_0, r_0, m_1, r_1) for a block X = (a, b, c, d) of row-n leaf matrices, with
    T_0 = trace X, T_1 = trace XS, r_0 = sqrt(T_0^2 - 4 rho^n), r_1 = sqrt(T_1^2 + 4 rho^n)
    and m_j = 2 rho^(n/2) / (T_j + r_j), the factor rho^(n/2) folded in so that m_j^(2s) stays
    in the float range where rho^(ns) and the unscaled root's power do not.  det X = rho^n, so
    r_0 is taken as sqrt((a - d)^2 + 4 b c), which does not cancel as r -> 1 (b, c >= 0 on r in [0, 1])."""
    a, b, c, d = X
    r0 = np.sqrt((a - d) ** 2 + 4.0 * b * c)
    T1 = a * (r - 1.0) + b * r + c * (2.0 - r) + d * (1.0 - r)
    r1 = np.sqrt(T1 * T1 + 4.0 * (2.0 - r) ** n)
    two_root = 2.0 * (2.0 - r) ** (n / 2.0)
    return two_root / (a + d + r0), r0, two_root / (T1 + r1), r1


def _pair_trace_sums(n: int, r: float, term) -> list:
    """For rows k = 1 .. n of the leaf matrices, the sum of term(:func:`_leaf_roots`) over the row's blocks."""
    return _level_sums(_matrix_stream, n - 1, Params.floating(r), lambda level, X: term(_leaf_roots(X, r, level + 1)))


def _trace_sum(roots, s: complex, signed: bool) -> complex:
    """The leaf terms of rho^(-n/2) trace(P^n), m_j^(2s-1) / r_j, summed over a block of :func:`_leaf_roots`."""
    m0, r0, m1, r1 = roots
    term0, term1 = np.sum(m0 ** (2.0 * s - 1.0) / r0), np.sum(m1 ** (2.0 * s - 1.0) / r1)
    return complex(term0 - term1 if signed else term0 + term1)


def _xi_sum(roots, s: complex) -> complex:
    """The leaf terms of Xi_n(s), m_j^(2s), summed over a block of :func:`_leaf_roots`."""
    m0, _r0, m1, _r1 = roots
    return complex(np.sum(m0 ** (2.0 * s)) + np.sum(m1 ** (2.0 * s)))


def _series_sigma(n: int, s: complex, r: float, method: str) -> float | complex:
    """s as sigma for :func:`_return_series` (:func:`_real_or_complex`), after refusing a non-finite s, r outside
    [0, 2), n below 1, an unknown method and n above the cap of the route: SERIES_CAP for ``series``, the n of
    :func:`_require_leaf_n` for ``leaves``; all before any work."""
    if method not in ("series", "leaves"):
        raise ValueError(f"unknown method {method!r}")
    sigma = TransferQuery(s, r, 1).s  # validates s and r
    if method == "leaves":
        _require_leaf_n(n)
    elif n < 1:
        raise ValueError("n must be >= 1")
    elif n > SERIES_CAP:
        raise ValueError(f"n={n} exceeds {SERIES_CAP}, the largest n of the first-return series")
    return sigma


def trace_sums(n: int, s: complex, r: float, signed: bool = False, method: str = "series") -> List[Estimate]:
    """[trace(P_s^1), ..., trace(P_s^n)], or of the signed operator P~_s, each an :class:`Estimate`, r in [0, 1).

    ``series`` (n <= SERIES_CAP): every periodic orbit but the fixed point 0 is a cyclic word of the first-return
    blocks, so trace(P_s^k) = rho^(-ks) / (1 - rho^(-k)) + c_k(s, +) and the signed trace is rho^(-ks) /
    (1 - rho^(-k)) - c_k(s, -), c of :func:`_return_series` (error of :func:`_series_estimates`); at n = SERIES_CAP
    about 0.035 s and a 5 MB peak (r = 0.6, s = 1.2; 2-core machine, BLAS on one thread).
    ``leaves`` (n <= 27), the oracle, from one walk: each leaf of tree row k contributes (+-1)^j rho^(k/2)
    m_j^(2s-1) / r_j, j = 0, 1, to trace(P^k), with m_j and r_j the :func:`_leaf_roots` of its matrix; no error.
    Trace-class only for r < 1; the fixed point's term diverges as r -> 1.
    """
    sigma = _series_sigma(n, s, r, method)
    if r >= 1:
        raise ValueError("traces require r < 1 (divergent as r -> 1)")
    if method == "leaves":
        sums = _pair_trace_sums(n, r, lambda roots: _trace_sum(roots, sigma, signed))
        return [Estimate((2.0 - r) ** (k / 2.0) * total, None, "leaf walk") for k, total in enumerate(sums, 1)]
    k, L = np.arange(1, n + 1), math.log1p(1.0 - r)
    sign = -1 if signed else 1
    return _series_estimates(r, np.exp(-k * L * sigma) / -np.expm1(-k * L), [(sigma, sign, sign)])


def periodic_sums_xi(n: int, s: complex, r: float, method: str = "series") -> List[Estimate]:
    """[Xi_1(s), ..., Xi_n(s)], each an :class:`Estimate`, r in [0, 1]: Xi_k(s) is the dynamical partition
    function, the sum over period-k points of |(F^k)'|^(-s).  Unlike the traces it stays finite at r = 1.

    ``series`` (n <= SERIES_CAP): Xi_k = trace(P_s^k) - trace(P~_(s+1)^k) = rho^(-ks) + c_k(s, +) + c_k(s + 1, -),
    c of :func:`_return_series` (error of :func:`_series_estimates`); at n = SERIES_CAP about 0.07 s and a 5 MB
    peak for real s, 0.2 s and 9 MB for complex s (r = 0.6, s = 1.2 and 1.2 + 0.5i; 2-core machine, BLAS on one
    thread).
    ``leaves`` (n <= 27), the oracle, from one walk: in leaf data of tree row k, the sum over leaves and j = 0, 1 of
    m_j^(2s) (:func:`_leaf_roots`); no error.
    """
    sigma = _series_sigma(n, s, r, method)
    if r > 1:
        raise ValueError("periodic sums implemented for r <= 1")
    if method == "leaves":
        sums = _pair_trace_sums(n, r, lambda roots: _xi_sum(roots, sigma))
        return [Estimate(total, None, "leaf walk") for total in sums]
    head = np.exp(-np.arange(1, n + 1) * math.log1p(1.0 - r) * sigma)
    return _series_estimates(r, head, [(sigma, 1, 1), (sigma + 1, -1, 1)])


def _branch_fixed_point(a: float, b: float, c: float, d: float) -> float:
    """The unique fixed point in [0, 1] of the Moebius contraction x -> (a x + b) / (c x + d), a root
    of c x^2 + (d - a) x - b = 0, taken without cancellation as -b/q or q/c,
    q = -((d - a) + sign(d - a) sqrt((d - a)^2 + 4 c b)) / 2 (-b/q is b / (d - a) at c = 0)."""
    q = -((d - a) + math.copysign(math.sqrt((d - a) ** 2 + 4.0 * c * b), d - a)) / 2.0
    for x in (-b / q if q else math.nan, q / c if c else math.nan):
        if -1e-12 <= x <= 1.0 + 1e-12:
            return min(max(x, 0.0), 1.0)
    raise ArithmeticError("no fixed point in [0, 1]")


def _fixed_point_derivatives(q: TransferQuery):
    """(odd number of right branches?, psi'(x*)) for each of the 2^n branch
    words psi of :func:`_branch_words`, taken at its fixed point x* in [0, 1]."""
    rho_n = q.rho**q.n
    for odd, (a, b, c, d) in _branch_words(q):
        x = _branch_fixed_point(a, b, c, d)
        yield odd, (-rho_n if odd else rho_n) / (c * x + d) ** 2


def trace_power_bruteforce(q: TransferQuery, signed: bool = False) -> complex:
    """Fixed-point oracle of :func:`trace_sums`: sum over branch words of
    |psi'(x*)|^s / (1 - psi'(x*)), odd words negated when `signed`."""
    return csum_complex([(-1.0 if signed and odd else 1.0) * abs(deriv) ** q.s / (1.0 - deriv)
                         for odd, deriv in _fixed_point_derivatives(q)])


def periodic_sum_bruteforce(q: TransferQuery) -> complex:
    """Periodic-point oracle of :func:`periodic_sums_xi`: sum over branch words of |psi'(x*)|^s."""
    return csum_complex([abs(deriv) ** q.s for _odd, deriv in _fixed_point_derivatives(q)])


# ---------------------------------------------------------------------------
# Fredholm determinant and dynamical zeta function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FredholmZeta:
    """det(1 - z P_s) and the zeta function both ways."""

    det: complex
    zeta_exp: complex
    zeta_ratio: complex
    tail_estimate: float
    converged: bool


def _newton_coefficients(traces: Sequence[complex]) -> np.ndarray:
    """Power-series coefficients of det(1 - z P) from trace(P^n).

    d_0 = 1, d_m = -(1/m) sum_{j<=m} trace(P^j) d_{m-j}; the series is
    entire, so the truncated polynomial is usable beyond the radius of
    the defining exponential sum.
    """
    N = len(traces)
    d = np.zeros(N + 1, dtype=complex)
    d[0] = 1.0
    for m_idx in range(1, N + 1):
        acc = sum(traces[j - 1] * d[m_idx - j] for j in range(1, m_idx + 1))
        d[m_idx] = -acc / m_idx
    return d


def _orbit_log_zeta(z: complex, xi: Sequence[complex], fit: bool) -> Tuple[complex, bool]:
    """sum_{n<=N} z^n Xi_n / n over the given Xi_1 .. Xi_N, plus (if `fit`)
    the closed tail c sum_{n>N} (z g)^n / n of the geometric fit
    Xi_n ~ c g^n through the last two Xi; also whether that tail was added
    (it needs |z g| < 1)."""
    N = len(xi)
    log_zeta = sum((z**n) * xi[n - 1] / n for n in range(1, N + 1))
    if not fit or xi[-2] == 0:
        return log_zeta, False
    g = xi[-1] / xi[-2]
    zg = z * g
    if abs(zg) >= 1.0:
        return log_zeta, False
    c = xi[-1] / g**N
    head = sum(zg**n / n for n in range(1, N + 1))
    return log_zeta + c * (-cmath.log(1.0 - zg) - head), True


def fredholm_and_zeta(z: complex, s: complex, r: float, N: int = 14) -> FredholmZeta:
    """Evaluate det(1 - z P_s), the shifted signed determinant, and zeta, r in [0, 1), N <= SERIES_CAP.

    zeta is computed two independent ways: from the periodic-orbit sums
    as exp(sum z^n Xi_n / n), and as the determinant ratio
    det(1 - z P~_{s+1}) / det(1 - z P_s); inside the truncation-validated
    radius the two must agree.  tr P_s^n and tr P~_{s+1}^n for n <= N are
    the first-return series of :func:`trace_sums`, and Xi_n(s) is their
    difference, tr P_s^n - tr P~_{s+1}^n.

    The Xi_n converge geometrically, Xi_n ~ c g^n, so the exponential
    route adds the closed tail of the fitted geometric sequence
    (c sum_{n>N} (z g)^n / n via the log series).  ``tail_estimate`` is
    the error bar of that route alone: the change of the tail-corrected
    orbit sum from truncation N - 1 (with its own fit) to N, floored at N
    rounding units of zeta; it is infinite unless both truncations could
    add a tail (N >= 3 and |z g| < 1).  The determinants use the entire
    power series of the trace data (Plemelj-Smithies coefficients), which
    converges for every z.  ``converged`` says that zeta is known to
    ZETA_TOL: the two routes agree and the determinant ratio has settled,
    |orbit sum - ratio| + |ratio_N - ratio_(N-1)| <= ZETA_TOL.
    ValueError before any work as :func:`trace_sums`, for z not finite or for |z|^N beyond the float range;
    ArithmeticError for exp overflow or det 0.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got z={z}")
    if abs(z) > 1 and N * math.log(abs(z)) > _LOG_FLOAT_MAX:
        raise ValueError(f"z={z}: |z|^N is beyond the float range at N={N}")
    tr = trace_sums(N, s, r)
    tr_signed = trace_sums(N, s + 1, r, signed=True)
    xi = [a - b for a, b in zip(tr, tr_signed)]
    d = _newton_coefficients(tr)
    d_sgn = _newton_coefficients(tr_signed)
    powers = z ** np.arange(N + 1)
    det = complex(np.sum(d * powers))
    det_sgn = complex(np.sum(d_sgn * powers))
    det_prev = complex(np.sum(d[:-1] * powers[:-1]))
    if det == 0 or det_prev == 0:
        raise ArithmeticError(f"det(1 - z P_s) truncated at N={N - (det != 0)} is exactly 0 at z={z}: no zeta ratio")
    zeta_ratio = det_sgn / det
    ratio_prev = complex(np.sum(d_sgn[:-1] * powers[:-1])) / det_prev
    # truncation N - 1 needs two Xi of its own for the fit
    log_zeta, fitted = _orbit_log_zeta(z, xi, N >= 3)
    log_prev, fitted_prev = _orbit_log_zeta(z, xi[:-1], N >= 3)
    if max(log_zeta.real, log_prev.real) > _LOG_FLOAT_MAX:  # z outside the radius of the orbit sums
        raise ArithmeticError(f"the orbit sum log zeta = {log_zeta:.6g} at z={z} is beyond exp's float range")
    zeta_exp = cmath.exp(log_zeta)
    tail = math.inf
    if fitted and fitted_prev:
        tail = max(abs(zeta_exp - cmath.exp(log_prev)), N * np.finfo(float).eps * abs(zeta_exp))
    return FredholmZeta(
        det=det, zeta_exp=zeta_exp, zeta_ratio=zeta_ratio, tail_estimate=tail,
        converged=abs(zeta_exp - zeta_ratio) + abs(zeta_ratio - ratio_prev) <= ZETA_TOL,
    )


# ---------------------------------------------------------------------------
# Reference eigenvalue sequences
# ---------------------------------------------------------------------------


def trace_from_spectra(s: complex, r: float) -> complex:
    """trace(P_{s,r}) = sum mu_k + sum nu_k over the eigenvalues mu_k = rho^-(s+k)
    and nu_k = (-1)^k beta^(s+k), beta = 4 rho / (1 + sqrt(1 + 4 rho))^2, of two
    integral-operator families, summed in closed form."""
    s, rho = _real_or_complex(s), 2.0 - r
    beta = 4.0 * rho / (1.0 + math.sqrt(1.0 + 4.0 * rho)) ** 2
    return _fixed_point_term(s, r) + beta**s / (1.0 + beta)


def trace_closed_n1(s: complex, r: float) -> complex:
    """The closed n = 1 trace: rho^(1-s)/(rho-1) plus the branch-point term."""
    s, rho = _real_or_complex(s), 2.0 - r
    root = math.sqrt(1.0 + 4.0 * rho)
    return _fixed_point_term(s, r) + rho**s / root * (2.0 / (1.0 + root)) ** (2.0 * s - 1.0)


def _fixed_point_term(s: complex, r: float) -> complex:
    """The fixed point 0's term rho^(1-s)/(rho-1) of trace(P_s), from 1 - r: exact on [1/2, 1], where 2.0 - r rounds."""
    return np.exp((1 - s) * math.log1p(1.0 - r)) / (1.0 - r)


# ---------------------------------------------------------------------------
# Chebyshev compression
# ---------------------------------------------------------------------------


def _chebyshev_nodes(dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """The dim Chebyshev points of [0, 1] and their barycentric weights."""
    theta = np.pi * (np.arange(dim) + 0.5) / dim
    return 0.5 * (1.0 - np.cos(theta)), (-1.0) ** np.arange(dim) * np.sin(theta)


def _barycentric(x: np.ndarray, w: np.ndarray, y) -> np.ndarray:
    """The interpolation rows, shape y.shape + (len(x),), from the nodes x, barycentric weights w, to the
    points y of any shape; a point on a node gets that node's indicator row.  Built in the one array of
    differences: a point on node j has w_j / 0 = +-inf there and so an infinite row sum, which leaves nan at j
    and zeros elsewhere after the division; only those rows are rewritten."""
    B = np.subtract(np.asarray(y, dtype=float)[..., None], x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, B, out=B)
        total = B.sum(axis=-1, keepdims=True)
        B /= total
    on_node = np.isinf(total[..., 0])
    if on_node.any():
        B[on_node] = np.isnan(B[on_node])
    return B


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, made read-only: each is cached, so shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _collocation_operator(r: float, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """(C, log w), read-only: on dim Chebyshev points x of [0, 1], P_{s,r} compresses to
    diag(exp(s log w)) C with log w = log rho - 2 log(rho + r x), where C sums
    the barycentric interpolation matrices from x to Phi_0 x and Phi_1 x."""
    rho = 2.0 - r
    x, w = _chebyshev_nodes(dim)
    phi0 = x / (rho + r * x)
    C = _barycentric(x, w, phi0) + _barycentric(x, w, 1.0 - phi0)
    log_w = math.log(rho) - 2.0 * np.log(rho + r * x)
    return _read_only(C, log_w)


def collocation_spectrum(s: float, r: float, dim: int) -> np.ndarray:
    """Eigenvalues of the operator compressed to dim Chebyshev points, sorted by
    modulus.  The operator maps functions analytic on a disk containing [0, 1] to
    themselves, so they converge geometrically in dim; with C cached per (r, dim),
    a call costs one row scaling and one eigen-solve."""
    C, log_w = _collocation_operator(float(r), dim)
    ev = np.linalg.eigvals(np.exp(s * log_w)[:, None] * C)
    return ev[np.argsort(-np.abs(ev))]


def _collocation_lambda(s: float, r: float, dim: int) -> float:
    """The leading (Perron) eigenvalue of the dim-point Chebyshev compression."""
    return float(np.max(collocation_spectrum(s, r, dim).real))


def _log_iterates(sigma: np.ndarray, start: Callable[[np.ndarray], np.ndarray], r: float, n: int, dim: int, x: float,
                  shared: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """(logs, values) of the iterates f_k, k = 0 .. n-1, one column per sigma: f_0 = start(nodes), the starting
    columns at the dim Chebyshev nodes, and f_{k+1} = rho^(-sigma) P_{sigma, r} f_k = (rho + r y)^(-2 sigma)
    [f_k(Phi_0 y) + f_k(Phi_1 y)] on the dim-point compression, read at x through the barycentric interpolant.
    Each iterate is divided by its value at x (by column 0's value at x for every column if `shared`), so nothing
    overflows however large n is: logs[k] sums the logs of those divisors, log f_k(x) of the dividing column (nan
    from the first divisor that is not positive and finite on), and values[k] is f_k(x) over the divisors up to
    k - 1.  If `shared`, values has one more column, sum_j |ell_j(x)| |f_k,0(x_j)| over the same divisors (ell the
    interpolation row): the magnitude that the rounding of column 0's read-out scales with where it varies steeply
    across the nodes."""
    C, log_w = _collocation_operator(float(r), dim)
    nodes, w = _chebyshev_nodes(dim)
    at_x = _barycentric(nodes, w, x)
    weights = np.exp(np.outer(log_w - math.log(2.0 - r), sigma))
    f = start(nodes)
    values = np.ones((n, len(sigma) + shared), dtype=weights.dtype)
    reads, divisors, spread = values[:, :len(sigma)], values[:, :1].real if shared else values, np.abs(at_x)
    for k in range(1, n):
        f = weights * (C @ f)
        reads[k] = at_x @ f
        if shared:
            values[k, -1] = spread @ np.abs(f[:, 0])
        f /= divisors[k]
    logs = np.log(divisors)
    np.copyto(logs, np.nan, where=~np.isfinite(logs))
    return np.cumsum(logs, axis=0), values


def _dim_ladder(run: Callable[[int], tuple], products) -> Tuple[int, tuple, tuple, np.ndarray, float]:
    """The dim ladder of every operator-iterate route: (dim, run(dim), run(3 dim/4), change, term), run(dim) =
    (values, scale, ...) on the dim-point compression, change = |values - the 3 dim/4 rerun's|.  The dims climb
    SWEEP_DIMS to the first whose term, the largest change / scale above its floor products dim eps (0 if none), is
    at most SWEEP_TOL; products (a scalar or like values) counts the dot products of length dim behind each value, and
    that floor also floors the callers' errors.  If none passes (a term above SWEEP_TOL or nan), this is dim 384's."""
    for dim in SWEEP_DIMS:
        with np.errstate(all="ignore"):  # a run that overflows or turns nan fails the test
            out, check = run(dim), run(3 * dim // 4)
            change = np.abs(out[0] - check[0])
            relative = change / out[1]
            term = float(np.max(np.where(relative <= products * dim * np.finfo(float).eps, 0.0, relative)))
        if term <= SWEEP_TOL:
            break
    return dim, out, check, change, term


def _operator_iterates(x: float, sigma: float | complex, r: float, m: int, n: int,
                       read: Callable[[np.ndarray], np.ndarray], factor: complex = 1.0) -> List[Estimate] | str:
    """The Estimates factor read(T) of T_k = rho^(-k sigma) (P_sigma^k e_m)(x), k = 1 .. n, sigma as
    :func:`_real_or_complex` gives it, from the Chebyshev compression, with their errors and the method "operator
    iterates, dim N"; or, where this route does not serve, why: "r > 1", "x outside [0, 1]", "Re s < 0" or that its
    ladder topped out at dim 384.  read maps the n terms to the values wanted (the last term, or the partial sums of a
    series), and the same read of S and A to their scales.

    One run of :func:`_log_iterates` carries f_0 = cos(2 pi m y) at sigma (P_sigma kills the odd part i sin(2 pi m y)
    of e_m, so their iterates agree from k = 1 on) beside f_0 = 1 at Re sigma, whose S_k = rho^(-k Re sigma)
    (P_(Re sigma)^k 1)(x) scales the logs and bounds |T_k|, as |P_sigma^k e_m| <= P_(Re sigma)^k 1.  The dim is
    :func:`_dim_ladder`'s on the change relative to read(S), n + 1 products per value.  The error is that change,
    floored at (n + 1) eps read(max(dim S, A)): where S varies steeply across the nodes, the rounding of the read-out
    scales with the magnitude A_k of :func:`_log_iterates`, which the change between two dims can miss.  For Re sigma
    < 0 even that floor under-reports the rounding (13x at sigma = -23, r = 1, n = 13), so they walk."""
    reason = "r > 1" if r > 1 else "x outside [0, 1]" if not 0 <= x <= 1 else "Re s < 0" if sigma.real < 0 else ""
    if reason:
        return reason
    k = 2 if m or sigma.imag else 1  # the e_m column, unless it is the f = 1 column
    sigmas = np.array([sigma.real, sigma][:k])
    two_pi_m = np.array([0.0, 2.0 * math.pi * m][:k])

    def run(dim):
        logs, values = _log_iterates(sigmas, lambda y: np.cos(np.outer(y, two_pi_m)), r, n + 1, dim, x, shared=True)
        S = np.exp(logs[1:, 0])
        ratio = values[1:] / values[1:, :1]
        return read(S * ratio[:, -2]), read(S), S, S * ratio[:, -1].real

    dim, (values, _scale, S, A), _check, change, term = _dim_ladder(run, n + 1)
    if not term <= SWEEP_TOL:
        return f"the operator ladder topped out at dim {dim}"
    errors = np.maximum(change, (n + 1) * np.finfo(float).eps * read(np.maximum(dim * S, A)))
    method = f"operator iterates, dim {dim}"
    return [Estimate(factor * v, abs(factor) * e, method) for v, e in zip(values.tolist(), errors.tolist())]


# ---------------------------------------------------------------------------
# First-return operator on [1/2, 1]: s_cr and the spectral radius
# ---------------------------------------------------------------------------


RETURN_DIM = 16  # Chebyshev points of the first-return collocation, where the roots take their Newton step
SEARCH_DIM = 3 * RETURN_DIM // 4  # the roots' bracketed search runs at 3 dim/4; the Newton step's size is the dim term
SERIES_DIM = 24  # Chebyshev points of the first-return series of the traces and Xi_n; against 3 dim/4
SERIES_CAP = 200  # the largest n of that series
RETURN_DIRECT = 32  # M: the terms m < M are summed directly, the rest by Gregory's formula from an integral
RETURN_STEP = 1.0 / 16  # step h of the double-exponential rule of that integral at eps = 0; checked against 2h
RETURN_STEP_EPS = 1.0 / 32  # the step at eps != 0 (spectral_radius): at 1/16 its 2h term reached 3.8e-9 at r = 1, s < 1


def _gregory_weights(n: int) -> np.ndarray:
    """gamma_j, j < n: sum_{m>=M} h(m) = int_M^inf h + sum_j gamma_j h(M + j) + O(Delta^n h(M)), which is
    Gregory's sum_{k<n} G_(k+1) Delta^k h(M) written out, x / log(1 + x) = sum_k G_k x^k."""
    G = [1.0]
    for k in range(1, n + 1):
        G.append(-sum(G[j] * (-1) ** (k - j) / (k - j + 1) for j in range(k)))
    return np.array([sum(G[k + 1] * (-1) ** (k - j) * math.comb(k, j) for k in range(j, n)) for j in range(n)])


_POINT_WEIGHTS = np.concatenate([np.ones(RETURN_DIRECT - 1), _gregory_weights(16)])  # m = 1 .. M + 15
_POINT_M = np.arange(1.0, len(_POINT_WEIGHTS) + 1)


@lru_cache(maxsize=4)  # one node set per (h, dim): RETURN_STEP and RETURN_STEP_EPS at SEARCH_DIM and RETURN_DIM
def _tail_nodes(h: float, dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes v, weights, 2h multipliers (2 on even nodes, 0 on odd) of int_0^inf dv at step h, and e^(-p v), p < dim,
    read-only, cached per (h, dim): the exp-decay double-exponential rule v = exp(tau - e^(-tau)), tau = k h
    (Takahasi & Mori, Publ. RIMS 9 (1974)), for integrands like e^(-a v), a >= 1/2; past the tau range the terms
    are below rounding."""
    k = np.arange(-round(3.6 / h), round(4.5 / h) + 1)
    v = np.exp(k * h - np.exp(-k * h))
    return _read_only(v, h * (1.0 + np.exp(-k * h)) * v, 2.0 * (k % 2 == 0), np.exp(-np.outer(v, np.arange(dim))))


@lru_cache(maxsize=2)
def _taylor_basis(dim: int) -> np.ndarray:
    """C[j, p]: the Lagrange basis function j of the nodes y_j = x_j / 2 (x of :func:`_chebyshev_nodes`) is
    sum_p C[j, p] y^p.  From its Chebyshev series sum_n a_jn T_n(4y - 1), a_jn = (2 - [n = 0]) (-1)^n
    cos(n theta_j) / dim, and T_n(-1 + e) = (-1)^n sum_p (-e)^p T_n^(p)(1) / p!, where
    T_n^(p)(1) = prod_{q<p} (n^2 - q^2) / (2q + 1)."""
    n = np.arange(dim)
    Q = np.ones((dim, dim))  # Q[n, p] = (-4)^p T_n^(p)(1) / p!
    for p in range(1, dim):
        Q[:, p] = Q[:, p - 1] * (n**2 - (p - 1) ** 2) / (2 * p - 1) * -4.0 / p
    C = (np.cos(np.outer(n + 0.5, n) * np.pi / dim) * np.where(n == 0, 1.0, 2.0) / dim) @ Q
    C.flags.writeable = False  # cached, so shared by every caller
    return C


def _return_blocks(r: float, dim: int, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, D, rows): the dim Chebyshev points x_i of [1/2, 1], D[i, m-1] = D_m(x_i) = r (1 + rho + ... +
    rho^(m-1)) x_i + rho^m and rows[i, m-1] the barycentric row at 1 - x_i/D_m(x_i), m = 1 .. count, so that the
    m-th block of K_sigma is K_(sigma,m) = D[:, m-1, None]^(-2 sigma) rows[:, m-1].  The basis is taken in
    distances from 1, so 1 - x_i/D_m does not round against 1."""
    y, bw = _chebyshev_nodes(dim)
    y = 0.5 * y  # 1 - x
    x, L = 1.0 - y, math.log1p(1.0 - r)
    rho_m = np.exp(L * np.arange(count + 1))
    D = r * x[:, None] * np.cumsum(rho_m[:-1]) + rho_m[1:]  # g_m = sum_{j<m} rho^j: no (rho^m - 1) / (1 - r)
    return x, D, _barycentric(y, bw, x[:, None] / D)


@lru_cache(maxsize=8)  # trace, xi and zeta calls over 3 (r, n) pairs take 6 keys: each (r, n) at dims 24 and 18
def _series_blocks(r: float, dim: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(log D, rows) of :func:`_return_blocks` for m = 1 .. n, read-only, cached for the series of one (r, n)."""
    _x, D, rows = _return_blocks(r, dim, n)
    return _read_only(np.log(D), rows)


def _block_fixed_points(r: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(x*, D*), m = 1 .. n: the fixed point x* in [1/2, 1] of the block's Moebius map psi_m(x) = 1 - x/D_m(x) and
    D* = D_m(x*).  x* = 1 - x*/D* gives x* = D*/(1 + D*), so D* is the positive root of D^2 - f D - rho^m = 0,
    f = r g_m + rho^m - 1 >= 0, g_m = 1 + rho + ... + rho^(m-1): (f + sqrt(f^2 + 4 rho^m)) / 2, a sum of terms
    >= 0 that does not cancel on all of r in [0, 1]."""
    L = math.log1p(1.0 - r)
    rho_m = np.exp(L * np.arange(n + 1))
    f = r * np.cumsum(rho_m[:-1]) + np.expm1(L * np.arange(1, n + 1))
    D = 0.5 * (f + np.sqrt(f * f + 4.0 * rho_m[1:]))
    return D / (1.0 + D), D


def _block_traces(sigma: complex, r: float, n: int) -> np.ndarray:
    """tr b_m, m = 1 .. n, in closed form: b_m f = rho^(m sigma) D_m^(-2 sigma) f(psi_m) with psi_m' = -rho^m / D_m^2
    contracting [1/2, 1], so by Ruelle's trace formula (Invent. Math. 34 (1976)) tr b_m = rho^(m sigma) D*^(-2 sigma)
    / (1 + rho^m / D*^2) at the fixed point of :func:`_block_fixed_points`, taken in logs as the blocks are."""
    log_mu = math.log1p(1.0 - r) * np.arange(1, n + 1) - 2.0 * np.log(_block_fixed_points(r, n)[1])  # log |psi_m'(x*)|
    return np.exp(sigma * log_mu - np.log1p(np.exp(log_mu)))


def _return_series(sigma: complex, r: float, n: int, sign: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """(c, a): c_k = k [z^k] (-sign log det(I - sign B_sigma(z))), k = 1 .. n, and a_k the sum of the moduli of
    its terms, for B_sigma(z) = sum_m z^m b_m with the blocks b_m = rho^(m sigma) K_(sigma,m) of
    :func:`_series_blocks` at dim points, m <= n only: the coefficient of z^k needs no other, so no tail enters.

    z d/dz of that log det is tr((I - sign B)^(-1) z B'(z)); with the series R_0 = I, R_k = sign sum_(m<=k) b_m
    R_(k-m) of (I - sign B)^(-1), c_k = sum_(m<=k) m tr(R_(k-m) b_m): n - 1 products of dim x k dim by k dim x dim
    matrices, then one product for every tr(R_j b_m); on float64 for real sigma.  The one-block terms m tr(b_m),
    which enter c_m with + for either sign, are the exact ones of :func:`_block_traces`."""
    log_d, rows = _series_blocks(r, dim, n)
    m = np.arange(1, n + 1)
    b = np.exp(sigma * (math.log1p(1.0 - r) * m - 2.0 * log_d))[:, :, None] * rows  # b[i, m-1, j] = b_m[i, j]
    across = b.reshape(dim, n * dim) if sign > 0 else -b.reshape(dim, n * dim)  # [sign b_1, ..., sign b_n]
    R = np.zeros((n * dim, dim), dtype=b.dtype)  # R_j in block n - 1 - j: R_(k-1) .. R_0 are the last k blocks
    R[-dim:] = np.eye(dim)
    for k in range(1, n):
        lo = (n - k) * dim
        np.matmul(across[:, :k * dim], R[lo:], out=R[lo - dim:lo])
    # terms[p, m-1] = m tr(R_(n-1-p) b_m); c_k sums those with m - 1 - p = k - n, a diagonal of terms
    terms = (R.reshape(n, dim * dim) @ b.transpose(1, 2, 0).reshape(n, dim * dim).T) * m
    terms[-1] = m * _block_traces(sigma, r, n)  # R_0 = I: the row of the one-block terms
    diagonal = (np.subtract.outer(m, m).T + n - 1).ravel()  # k - 1 = m - 1 - p + n - 1; k > n where m - 1 > p

    def diagonal_sums(w: np.ndarray) -> np.ndarray:
        return np.bincount(diagonal, w.ravel(), 2 * n - 1)[:n]

    c = diagonal_sums(terms.real) + 1j * diagonal_sums(terms.imag) if np.iscomplexobj(terms) else diagonal_sums(terms)
    return c, diagonal_sums(np.abs(terms))


def _series_estimates(r: float, head: np.ndarray, parts: Sequence[Tuple[complex, int, int]]) -> List[Estimate]:
    """The Estimates of head_k + sum factor c_k(sigma, sign) over parts (sigma, sign, factor), k = 1 .. len(head), c of
    :func:`_return_series` at SERIES_DIM points: the error is the change from the 3 dim/4 rerun, floored at
    (k + 1) dim eps times |head_k| plus the moduli of the terms."""
    n = len(head)

    def run(dim: int) -> Tuple[np.ndarray, np.ndarray]:
        value, scale = head, np.abs(head)
        for sigma, sign, factor in parts:
            c, a = _return_series(sigma, r, n, sign, dim)
            value, scale = value + factor * c, scale + a
        return value, scale

    value, scale = run(SERIES_DIM)
    floor = (np.arange(2, n + 2) * SERIES_DIM * np.finfo(float).eps) * scale
    error = np.maximum(np.abs(value - run(3 * SERIES_DIM // 4)[0]), floor)
    method = f"first-return series, dim {SERIES_DIM}"
    return [Estimate(v, e, method) for v, e in zip(value.tolist(), error.tolist())]


class _ReturnOperator(NamedTuple):
    """The sigma-independent arrays of K_sigma collocated at one (r, dim, step); n points, P tail nodes."""

    log_d: np.ndarray  # (dim, n): log D_m(x_i), m = 1 .. n
    rows: np.ndarray  # (dim, n, dim): the basis at 1 - x_i/D_m
    vander: np.ndarray  # (dim, dim): t_i^p, t = x_i / D_M
    lam: np.ndarray  # (dim,)
    log_rho: np.ndarray  # (): L
    v: np.ndarray  # (P,)
    weights: np.ndarray  # (P,): :func:`_tail_nodes`
    tail: np.ndarray  # (dim, P): node weights / (L + lam_i e^(-v))
    even: np.ndarray  # (P,): :func:`_tail_nodes`
    powers: np.ndarray  # (P, dim): :func:`_tail_nodes`
    taylor: np.ndarray  # (dim, dim): :func:`_taylor_basis`


def _return_operator(r: float, dim: int, eps: float = 0.0) -> _ReturnOperator:
    """K_sigma collocated at dim Chebyshev points x_i of [1/2, 1] for the weight e^(-eps m), read-only, cached per
    (r, dim, h), the tail rule's step h RETURN_STEP at eps = 0, where s_cr is rooted, and RETURN_STEP_EPS otherwise.

    With D_m = D_m(x_i), M = RETURN_DIRECT, t = x_i / D_M and L = log rho, the terms m < M + 16 enter
    one by one, Gregory's end weights from M on.  They stand in for the sum from M with the integral from
    M, which D(M + u) = D_M e^v turns into D_M^(-2 sigma) int_0^inf e^(-2 sigma v) f(1 - t e^(-v)) /
    (L + lam e^(-v)) dv, lam = r t L / (1 - r) (r t at r = 1).  Here f is a basis function; its Taylor
    polynomial in t e^(-v) is exact and, as t <= 1/(M + 1), well conditioned, so the integral needs only
    the moments of e^(-(2 sigma + p) v), on nodes shared by every x_i and every eps (:func:`_tail_nodes`).
    """
    return _collocate_return(r, dim, RETURN_STEP_EPS if eps else RETURN_STEP)


@lru_cache(maxsize=4)
def _collocate_return(r: float, dim: int, step: float) -> _ReturnOperator:
    """:func:`_return_operator` at the tail rule's step, D_m and the basis rows from :func:`_return_blocks`."""
    x, D, rows = _return_blocks(r, dim, len(_POINT_WEIGHTS))
    L = math.log1p(1.0 - r)
    t = x / D[:, RETURN_DIRECT - 1]
    lam = r * t * (L / (1.0 - r) if r < 1 else 1.0)
    v, weights, even, powers = _tail_nodes(step, dim)
    return _ReturnOperator(*_read_only(np.log(D), rows, np.vander(t, dim, increasing=True), lam, np.array(L), v,
                                       weights, weights / (L + np.outer(lam, np.exp(-v))), even, powers,
                                       _taylor_basis(dim)))


def _tail_m(op: _ReturnOperator) -> Tuple[np.ndarray, np.ndarray]:
    """(u, u_line): u = m - M of the terms each tail node stands for, D_m = D_M e^v, log1p(c expm1(v)) / L with
    c = L / (L + lam), and the intercept log(c) / L of its asymptote u_line + v / L; u = expm1(v) / t at r = 1."""
    L = float(op.log_rho)
    c = L / (L + op.lam)
    if not L:
        return np.outer(1.0 / op.lam, np.expm1(op.v)), c  # c = 0: no asymptote is used at r = 1
    return np.log1p(np.outer(c, np.expm1(op.v))) / L, np.log(c) / L


def _return_terms(op: _ReturnOperator, s: float, eps: float = 0.0):
    """(K, a, b, edge): the collocation matrix of K_(s/2), its m-th term weighted by e^(-eps m), from the weights
    a[i, m-1] of its basis rows and b[i, k] of its tail nodes, the tail's moments at x_i sum_k b[i, k] e^(-p v_k).
    For r < 1 the tail integrand decays like h e^(-(a + p) v), h = D_M^(-s) e^(-eps (M + u_line)) / L
    (:func:`_tail_m`), a = s + eps / L, which the nodes integrate to rounding for a >= 1/2.  Below that (eps < 0,
    toward the edge a = 0, where the terms' sum diverges) edge = (h, a + p, e^(-(a + p) v)) (:func:`_tail_moments`)."""
    u, u_line = _tail_m(op) if eps else (0.0, 0.0)  # eps = 0 (s_cr): the exponents of b stay (P,), not (dim, P)
    a = _POINT_WEIGHTS * np.exp(-s * op.log_d - eps * _POINT_M)
    scale = np.exp(-s * op.log_d[:, RETURN_DIRECT - 1] - eps * RETURN_DIRECT)  # e^(-eps M): e^(-eps u) stays finite
    b = op.tail * np.exp(-s * op.v - eps * u) * scale[:, None]
    L, edge = float(op.log_rho), None
    if L and s + eps / L < 0.5:
        decay = s + eps / L + np.arange(len(scale))
        edge = scale * np.exp(-eps * u_line) / L, decay, np.exp(-np.outer(op.v, decay))
    return np.matmul(a[:, None, :], op.rows)[:, 0] + (_tail_moments(op, b, edge) * op.vander) @ op.taylor.T, a, b, edge


def _tail_moments(op: _ReturnOperator, b: np.ndarray, edge, rule=1.0, alpha=1.0, beta=0.0) -> np.ndarray:
    """The tail's moments sum_k b[i, k] e^(-p v_k) (:func:`_return_terms`); at the edge the nodes' sum (weights times
    rule) of h e^(-(a + p) v) (alpha + beta v) becomes alpha / (a + p) + beta / (a + p)^2, the rest decaying faster."""
    moments = b @ op.powers
    if edge:
        h, decay, decays = edge
        nodes = (rule * op.weights)[:, None] * decays  # (P, dim)
        moments += np.outer(h * alpha, 1.0 / decay - nodes.sum(axis=0))
        if beta:
            moments += np.outer(h * beta, 1.0 / decay**2 - op.v @ nodes)
    return moments


def _return_matrix(op: _ReturnOperator, s: float, eps: float = 0.0) -> np.ndarray:
    """The collocation matrix of K_(s/2), its m-th term weighted by e^(-eps m) (:func:`_return_terms`)."""
    return _return_terms(op, s, eps)[0]


def _search_log_lambda(s: float, r: float, eps: float = 0.0) -> float:
    """log lambda_K(s/2), lambda_K the Perron eigenvalue of the first-return operator at SEARCH_DIM points, its
    m-th term weighted by e^(-eps m): the function the roots of :func:`thermo.critical_line` and
    :func:`spectral_radius` are searched on.

    K_sigma is the operator P_sigma induces on [1/2, 1]: the words Phi_1 Phi_0^(m-1) = 1 - Phi_0^m
    (:func:`maps.left_branch_power`), weighted by rho^(-m sigma) |(Phi_0^m)'|^sigma, give (K_sigma f)(x) =
    sum_{m>=1} D_m(x)^(-2 sigma) f(1 - x/D_m(x)), D_m = r (1 + rho + ... + rho^(m-1)) x + rho^m.
    rho^(-sigma) P_sigma has spectral radius e^eps exactly where lambda_K(eps) = 1, which makes s_cr the
    root at eps = 0 and g = log lambda_sigma - sigma log rho the root in eps (:func:`spectral_radius`).
    The functions live away from the neutral fixed point and stay analytic as r -> 1, so one size serves
    all of r in [0, 1] (2 sigma > 1 at r = 1, eps = 0, where K_1 is the Gauss-map operator, lambda_K = 1)."""
    K = _return_matrix(_return_operator(float(r), SEARCH_DIM, eps), s, eps)
    return math.log(float(np.max(np.linalg.eigvals(K).real)))


def return_root(s: float, r: float, eps: float = 0.0) -> Tuple[float, float, float, float]:
    """(log lambda_K, d log lambda_K / ds, the mean return time -d log lambda_K / d eps, the step term
    |log lambda_K by the 2h rule - by the h rule|) at (s, eps), lambda_K at RETURN_DIM points: the Newton step
    that finishes a root searched at SEARCH_DIM points (:func:`_search_log_lambda`), whose size is the dim term.
    One eigen-solve gives lambda_K, the right Perron vector v and, from the inverse of the eigenvector matrix (one
    linear solve), the left one l; the rest are forms l X v / (l K v), X K's terms (:func:`_return_terms`) times
    factors: Hellmann-Feynman's derivatives, X = dK/ds from the factors -log D_m of each term, -dK/d eps from m, and
    K_2h, whose form is lambda_K by the 2h rule to first order in K_2h - K (~1e-8 relative), so to rounding.  No X is
    built: the point terms act on v as rows @ v, the tail's moments through taylor.T @ v.  The mean return time is
    infinite at r = 1, eps = 0, where sum_m m D_m^(-s) diverges for s <= 2 = s_cr."""
    op = _return_operator(float(r), RETURN_DIM, eps)
    K, a, b, edge = _return_terms(op, s, eps)
    vals, vectors = np.linalg.eig(K)
    j = int(np.argmax(vals.real))
    lam, right = float(vals[j].real), vectors[:, j].real  # real, as lambda_K is
    left = np.linalg.solve(vectors.T, np.eye(RETURN_DIM)[j]).real[:, None]  # row j of the inverse: l K = lam l
    points, taylor = left * a * (op.rows @ right), left * op.vander * (op.taylor.T @ right)  # l K v, term by term

    def form(point, tail, rule=1.0, alpha=1.0, beta=0.0) -> float:  # l X v, X K's terms times point and tail
        return np.sum(point * points) + np.sum(taylor * _tail_moments(op, tail * b, edge, rule, alpha, beta))

    norm, mean, L = form(1.0, 1.0), math.inf, float(op.log_rho)
    if r < 1 or eps:
        u, u_line = _tail_m(op)  # a node stands for the terms around m = M + u, u = u_line + v / L + ...
        mean = float(form(_POINT_M, u + RETURN_DIRECT, 1.0, RETURN_DIRECT + u_line, 1 / L if L else 0.0) / norm)
    log_dm = op.log_d[:, RETURN_DIRECT - 1]
    d_log = float(form(-op.log_d, -np.add.outer(log_dm, op.v), 1.0, -log_dm, -1.0) / norm)
    return math.log(lam), d_log, mean, abs(math.log(form(1.0, op.even, op.even) / norm))


@dataclass(frozen=True)
class SpectralRadius:
    value: float
    error: float
    method: str
    dim: int


def _chandrupatla(g: Callable[[float], float], lo: float, hi: float, g_lo: float, g_hi: float, tol: float):
    """Shrink a bracket with g_lo > 0 >= g_hi to width <= tol by Chandrupatla's method (Adv. Eng. Softw. 28,
    1997).  With a the newer end, b the other and c the end last dropped, the next point is the root of the
    inverse quadratic interpolant through the three where Chandrupatla's test phi^2 < xi, (1 - phi)^2 < 1 - xi
    (xi = (a - b) / (c - b), phi = (g_a - g_b) / (g_c - g_b)) puts it inside the bracket, and the midpoint
    otherwise; either is kept tol/4 inside the ends.  Returns (lo, hi, g_lo, g_hi, evals)."""
    evals = 0
    a, g_a, b, g_b = lo, g_lo, hi, g_hi
    t = 0.5  # the next point is a + t (b - a)
    while abs(b - a) > tol:
        guard = tol / 4 / abs(b - a)
        x = a + min(max(t, guard), 1.0 - guard) * (b - a)
        g_x = g(x)
        evals += 1
        if (g_x > 0) == (g_a > 0):
            c, g_c = a, g_a
        else:
            c, g_c, b, g_b = b, g_b, a, g_a
        a, g_a = x, g_x
        xi, phi = (a - b) / (c - b), (g_a - g_b) / (g_c - g_b)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = g_a / (g_b - g_a) * g_c / (g_b - g_c) + (c - a) / (b - a) * g_a / (g_c - g_a) * g_b / (g_c - g_b)
    if g_a > 0:
        return a, b, g_a, g_b, evals
    return b, a, g_b, g_a, evals


def spectral_radius(s: float, r: float, tol: float = 1e-10) -> SpectralRadius:
    """Leading eigenvalue lambda_s of P_{s,r}, real s, r in [0, 1]: g = log lambda_s - s log rho is the root in
    eps of log lambda_K(eps), lambda_K of the first-return operator at 2s with the m-th term weighted by e^(-eps m).

    The terms sum above the edge eps = -2s log rho, where lambda_s meets mu_0 = rho^-s, the eigenvalue of the
    fixed point 0.  :func:`_chandrupatla` shrinks [edge + w, edge + top] to 1/16 in log(eps - edge), where
    log lambda_K is near linear however close to the edge the root lies, then to w in eps, both on
    :func:`_search_log_lambda` at SEARCH_DIM points; the secant point of that bracket takes one Newton step at
    RETURN_DIM points (:func:`return_root`), the mean return time its slope: w moves lambda_s by
    tol / 4 or less (but is kept within 8 float spacings of eps and 1/16), top = log 2 + 1/4 (plus 2|s|
    log(2 / rho) for s < 0) clears g, as lambda_s <= sup P_s 1.  Where log lambda_K(edge + w) <= 0, lambda_s
    = mu_0 (so at r = 1 for s >= 1).  The error of g is the distance from the secant point to the far bracket
    end plus the dim term, |log lambda_K| at RETURN_DIM points there (the Newton step's size), and the 2h term
    over the mean return time |d log lambda_K / d eps|; for mu_0, w plus what of log lambda_K(edge + w) at
    RETURN_DIM points, its change from SEARCH_DIM and the 2h term does not clear (the mean return time is >= 1).
    tol bounds the absolute error of lambda_s; below about 1e-10 the dim term alone can exceed it (on an 11 x 12
    grid of (r, s), at 5 of 132 points for tol 1e-11, 36 for 1e-14), and the call refuses, naming the term.
    ArithmeticError if lambda_s expm1(that) exceeds tol or lambda_s is below sys.float_info.min; ValueError,
    before any solve, for r outside [0, 1], an s that is complex or not finite, or a tol below 1e-14 or not finite.
    :func:`collocation_spectrum` is the oracle."""
    if not 0 <= r <= 1:
        raise ValueError(f"the spectral radius is computed for r in [0, 1], got r={r}")
    if not 1e-14 <= tol < math.inf:  # lambda is not resolved much below rounding
        raise ValueError(f"tol={tol} must be finite and at least 1e-14")
    s, L = _real_or_complex(s), math.log1p(1.0 - r)
    if isinstance(s, complex) or not math.isfinite(s):
        raise ValueError(f"spectral radius is defined here for real finite s, got s={s}")
    edge, top = -2.0 * s * L, math.log(2.0) + 0.25 + max(0.0, 2.0 * s * (L - math.log(2.0)))
    g_tol = float(np.logaddexp(0.0, math.log(tol) - edge - top - s * L))  # log1p(tol / U), U = e^(edge + top + sL)
    width = max(min(g_tol / 4.0, 1 / 16), 8.0 * math.ulp(abs(edge) + top))
    g = lambda eps: _search_log_lambda(2.0 * s, r, eps)
    g_w = lambda w: g(edge + math.exp(w))  # w = log(eps - edge)
    lo, hi = math.log(width), math.log(top)
    g_lo = g_w(lo)
    if g_lo <= 0:
        log_lambda, _d_log, _mean, step_term = return_root(2.0 * s, r, edge + width)
        dim_term = abs(log_lambda - g_lo)
        root, error = edge, width + max(0.0, log_lambda + dim_term + step_term)
        method = "fixed point 0: mu_0 = rho^-s"
    else:
        g_hi = g_w(hi)
        if not g_hi < 0:
            raise ArithmeticError(f"lambda at s={s}, r={r}: log lambda_K({edge + top}) = {g_hi} is not below 0")
        lo, hi, g_lo, g_hi, evals = _chandrupatla(g_w, lo, hi, g_lo, g_hi, 1 / 16)
        lo, hi, g_lo, g_hi, more = _chandrupatla(g, edge + math.exp(lo), edge + math.exp(hi), g_lo, g_hi, width)
        search = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        log_lambda, _d_log, mean, step_term = return_root(2.0 * s, r, search)
        root, dim_term = search + log_lambda / mean, abs(log_lambda)
        error = max(search - lo, hi - search) + (dim_term + step_term) / mean
        method = (f"first-return root; chandrupatla at dim {SEARCH_DIM}, {evals + more + 2} evals; "
                  f"one Newton step at dim {RETURN_DIM}")
    log_value = root + s * L
    if log_value < math.log(sys.float_info.min):  # exp would round to a subnormal or 0 and its error bar to 0
        raise ArithmeticError(f"lambda at s={s}, r={r}: log lambda = {log_value:.6g} is below the float range "
                              f"(lambda < {sys.float_info.min:.3g})")
    value = math.exp(log_value)
    error = value * math.expm1(error)
    if not error <= tol:
        raise ArithmeticError(f"lambda at s={s}, r={r}: error {error:.3g} > tol {tol:.3g} "
                              f"(dim term {dim_term:.3g}, 2h term {step_term:.3g})")
    return SpectralRadius(value, error, method, RETURN_DIM)


def involution_residual(s: float, r: float, n: int = 16) -> float:
    """Deviation of the approximate leading eigenfunction from involution symmetry.

    h(x) ~ rho^(-ns) (P^n 1)(x) should satisfy
    (r x + 1 - r)^(-2s) h(S(x)) = h(x); returns the max relative residual
    over 21 equally spaced points of [0, 1].  Vanishes as n grows for r < 1.
    """
    if r >= 1:
        raise ValueError("requires r < 1")
    grid = np.linspace(0.0, 1.0, 21)
    p = Params.floating(r)
    pref = (2.0 - r) ** (-n * s)
    q = TransferQuery(s, r, n)
    h_vals = np.array([pref * iterate_one(float(x), q).real for x in grid])
    sx = np.array([involution_s(float(x), p) for x in grid])
    h_s = np.array([pref * iterate_one(float(y), q).real for y in sx])
    ih = (r * grid + 1.0 - r) ** (-2.0 * s) * h_s
    return float(np.max(np.abs(ih - h_vals)) / np.max(np.abs(h_vals)))
