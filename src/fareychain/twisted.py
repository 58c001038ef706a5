"""Character-twisted partition sums and the twisted Moebius function.

The twisted sum Z_n^(m)(s) attaches the phase e^(2 pi i m p/q) to every
tree vertex p/q; for r = 1 and increasing n it tends to the Dirichlet
series of the exponential sum over units

    mu^(m)(q) = sum over p in U(Z/qZ) of e^(2 pi i m p / q),

which has the closed form phi(q)/phi(q/gcd(m,q)) * mu(q/gcd(m,q)) and
specializes to the Moebius function (m = 1) and Euler's totient
(m = 0).  Both routes are implemented and must agree after integer
rounding.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate
from math import gcd
from typing import List, Tuple

import numpy as np

from .rings import Params
from .spinchain import _level_sums, _tree_stream
from .transfer import Estimate, _character_pair, _operator_iterates, _real_or_complex, _require_leaf_n

SIEVE_CAP = 1 << 20  # the largest q or Q that phi, mu and the Dirichlet partials serve


@lru_cache(maxsize=4)
def _sieve(limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sieve phi and mu up to `limit` (vectorized over prime strides).  Callers ask for the next power of two
    >= their q or Q, at least 2^12 (:func:`sieve_size`), so the small requests of one run share one table.
    Only the primes <= sqrt(limit) are strided; they are divided out of `rest`, and what is left above 1 is
    the one prime factor of n above sqrt(limit), applied to every such n in one pass."""
    root = math.isqrt(limit)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    phi = np.arange(limit + 1, dtype=np.int64)
    rest = phi.copy()
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(is_prime).tolist():
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        power = p
        while power <= limit:
            rest[power::power] //= p
            power *= p
    big = rest > 1
    phi[big] -= phi[big] // rest[big]
    mu[big] *= -1
    return phi, mu


def sieve_size(q: int, name: str = "q") -> int:
    """The size of the sieve that reaches q: the next power of two >= q, at least 2^12.  Builds nothing, and
    refuses q outside 1..SIEVE_CAP, so a caller can check a request before any work."""
    if not 1 <= q <= SIEVE_CAP:
        raise ValueError(f"{name}={q} is outside 1..{SIEVE_CAP}, the sieve cap 2^{SIEVE_CAP.bit_length() - 1}")
    return max(1 << 12, 1 << (q - 1).bit_length())


def euler_phi(q: int) -> int:
    """Euler's totient, read from the sieve at :func:`sieve_size` (q); q <= SIEVE_CAP."""
    return int(_sieve(sieve_size(q))[0][q])


def moebius(q: int) -> int:
    """The Moebius function, read from the same sieve as :func:`euler_phi`."""
    return int(_sieve(sieve_size(q))[1][q])


def mu_twisted(m: int, q: int, method: str = "closed") -> int:
    """The twisted Moebius value mu^(m)(q), by either route.

    ``closed``: phi(q)/phi(q') * mu(q') with q' = q/gcd(m, q); handles
    m = 0 through gcd(0, q) = q, giving phi(q).  ``direct``: the unit
    exponential sum, summed in double precision and rounded; a residual
    above 1e-6 from an integer flags a bug.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if method == "closed":
        phi, mu = _sieve(sieve_size(q))  # q' <= q: one table serves the three reads
        q_red = q // gcd(abs(m), q)
        return int(phi[q] // phi[q_red] * mu[q_red])
    if method == "direct":
        total = complex(unit_exponential_sums(q, [m])[0])
        if abs(total.imag) > 1e-6 or abs(total.real - round(total.real)) > 1e-6:
            raise ArithmeticError(f"unit sum for q={q}, m={m} is not near an integer: {total}")
        return int(round(total.real))
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=4096)
def _units_cached(q: int) -> np.ndarray:
    if q == 1:
        return np.array([0.0])
    ks = np.arange(1, q, dtype=np.int64)
    return ks[np.gcd(ks, q) == 1].astype(float)


def unit_exponential_sums(q: int, ms: np.ndarray) -> np.ndarray:
    """sum over units p of e^(2 pi i m p / q) for all m in `ms` at once."""
    u = _units_cached(q)
    angles = (2.0 * math.pi / q) * np.outer(np.mod(ms, q) if q > 1 else np.zeros_like(ms), u)
    return np.exp(1j * angles).sum(axis=1)


def dirichlet_partial(m: int, s: float, Q: int) -> Tuple[float, float]:
    """Partial sum of sum_q mu^(m)(q) q^(-s) up to Q, with a tail bound.

    For m != 0 the values are bounded by |m| (the totient ratio is at
    most |m| and the Moebius factor is at most 1 in modulus), so the
    tail is below |m| Q^(1-s)/(s-1) for s > 1; for m = 0 the summand is
    phi(q) q^(-s) and the bound needs s > 2.  The values come from one
    sieve sized to Q: a Q above SIEVE_CAP raises ValueError.
    """
    if m == 0:
        if s <= 2:
            raise ValueError("m = 0 requires s > 2 for convergence")
    elif s <= 1:
        raise ValueError("m != 0 requires s > 1 for convergence")
    phi, mu = _sieve(sieve_size(Q, "Q"))
    qs = np.arange(1, Q + 1, dtype=np.int64)
    g = np.gcd(abs(m), qs)
    q_red = qs // g
    vals = (phi[qs] // phi[q_red]) * mu[q_red]
    total = float(np.sum(vals * qs ** (-float(s))))
    bound = max(abs(m), 1)
    if m == 0:
        tail = Q ** (2.0 - s) / (s - 2.0)
    else:
        tail = bound * Q ** (1.0 - s) / (s - 1.0)
    return total, tail


def twisted_sums(n: int, s: complex, m: int, params: Params, method: str = "transfer") -> List[Estimate]:
    """[Z_1^(m)(s), ..., Z_n^(m)(s)], where Z_n^(m)(s) = sum over tree vertices of q^(-s) e^(2 pi i m p/q)
    (the vertex 1/1 contributes 1), each an :class:`transfer.Estimate` naming its route.

    ``transfer`` uses the character-iterate identity 2 Z_n^(m)(2 sigma) = 1 + sum_{k<=n} rho^(-k sigma)
    (P_sigma^k e_m)(1), whose rho prefactors cancel: on r in [0, 1] one run of n products with the Chebyshev
    compression gives the whole series (:func:`transfer._operator_iterates`, error against the 3 dim/4 rerun
    relative to the m = 0 series at Re s, which bounds it); where that route does not serve, it falls back to the
    tree-row sum and says why.  It needs integer m and finite s (ValueError otherwise, before any work).  ``rows``
    sums the tree rows directly, from one walk, and is the oracle.  m = 0 recovers the canonical partition function.
    """
    _require_leaf_n(n)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got s={s}")
    s, r = _real_or_complex(s), params.as_float().r_float
    if method == "transfer":
        _character_pair(m)  # refuses a non-integer m
        # Z_k = 1 + (1/2) sum_{j<=k} T_j: the leading 1 and the k = 0 term e_m(1) = 1, halved
        got = _operator_iterates(1.0, s / 2.0, r, m, n, lambda T: 1.0 + np.cumsum(T) / 2.0)
        if not isinstance(got, str):
            return got
        route = f"tree-row sum ({got})"
    elif method == "rows":
        route = "tree-row sum"
    else:
        raise ValueError(f"unknown method {method!r}")
    two_pi_m = 2j * math.pi * m
    rows = _level_sums(_tree_stream, n - 1, Params.floating(r),
                       lambda _level, x: complex(np.sum(x[1] ** (-s) * np.exp(two_pi_m * (x[0] / x[1])))))
    return [Estimate(z, None, route) for z in accumulate(rows, initial=1.0 + 0.0j)][1:]

