"""Independent reference values for the benchmark's output checks.

Everything here is written from the definitions in the paper, with plain
numpy and :mod:`fractions`, and shares no code with ``fareychain``:

* tree rows are images of 1 under products X = L M_1 ... M_{n-1} of the
  generator matrices L = [[1, 0], [2-rho, rho]] and R = [[1, rho], [0, rho]];
* the transfer operator
  (P_{s,r} f)(x) = sum_j |Phi_j'(x)|^s f(Phi_j x) is iterated as a sum
  over all 2^n compositions of the inverse branches
  Phi_0(x) = x / (rho + r x) and Phi_1(x) = 1 - Phi_0(x), written as
  Moebius matrices; traces and periodic sums use the fixed points of
  those compositions;
* the leading eigenvalue comes from a barycentric interpolation of P on
  Chebyshev-Lobatto nodes, and s_cr(r) from bisection on
  log lambda_{s/2} - (s/2) log rho.

Run this file to test the oracle against the closed forms at r = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Tree rows from generator-matrix products
# ---------------------------------------------------------------------------


def poly_add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def tree_rows_exact(n_max: int, r=None) -> List[List[Tuple]]:
    """Rows 1..n_max as lists of (p, q), path words in lexicographic order.

    With ``r`` a Fraction the entries are Fractions; with ``r=None`` they
    are integer coefficient lists in rho (index i holds the rho^i term).
    """
    if r is None:
        add, mul = poly_add, poly_mul
        one, zero, rho, two_minus_rho = [1], [], [0, 1], [2, -1]
    else:
        add, mul = (lambda a, b: a + b), (lambda a, b: a * b)
        one, zero, rho = Fraction(1), Fraction(0), 2 - Fraction(r)
        two_minus_rho = 2 - rho
    L = (one, zero, two_minus_rho, rho)
    R = (one, rho, zero, rho)

    def matmul(X, Y):
        a, b, c, d = X
        e, f, g, h = Y
        return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    mats = [L]
    rows = []
    for _ in range(n_max):
        rows.append([(add(a, b), add(c, d)) for a, b, c, d in mats])
        mats = [matmul(X, M) for X in mats for M in (L, R)]
    return rows


def tree_rows_float(n_max: int, r: float) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rows 1..n_max as float arrays (p, q), same order as tree_rows_exact."""
    rho = 2.0 - r
    L = np.array([[1.0, 0.0], [2.0 - rho, rho]])
    R = np.array([[1.0, rho], [0.0, rho]])
    X = L[None, :, :]
    rows = []
    for _ in range(n_max):
        rows.append((X[:, 0, 0] + X[:, 0, 1], X[:, 1, 0] + X[:, 1, 1]))
        X = np.stack([X @ L, X @ R], axis=1).reshape(-1, 2, 2)
    return rows


def canonical_Z_series(n_max: int, s: float, r: float) -> List[float]:
    """[Z^C_1, ..., Z^C_n_max]: Z^C_n(s) = 1 + sum over rows 1..n of q^(-s)."""
    out = []
    total = 1.0
    for _p, q in tree_rows_float(n_max, r):
        total += float(np.sum(q ** (-s)))
        out.append(total)
    return out


def canonical_Z_exact(n: int, s: int, r: Fraction) -> Fraction:
    total = Fraction(1)
    for row in tree_rows_exact(n, r):
        for _p, q in row:
            total += 1 / q**s
    return total


def twisted_Z(n: int, s: float, m: int, r: float) -> List[complex]:
    """[Z^(m)_1, ..., Z^(m)_n]: 1 + sum over rows 1..k of q^(-s) e^(2 pi i m p/q)."""
    out = []
    total = 1.0 + 0.0j
    for p, q in tree_rows_float(n, r):
        total += complex(np.sum(q ** (-s) * np.exp(2j * math.pi * m * (p / q))))
        out.append(total)
    return out


def walsh_hat_exact(values: Sequence[Fraction]) -> List[Fraction]:
    """f^(t) = 2^-k sum_sigma f(sigma) (-1)^(sigma . t), summed term by term."""
    n = len(values)
    den = math.lcm(*(v.denominator for v in values))
    ints = np.array([int(v * den) for v in values], dtype=np.int64)
    if int(np.max(np.abs(ints))) * n >= 2**62:
        raise OverflowError("table too large for the int64 character sums")
    idx = np.arange(n, dtype=np.int64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    sums = (1 - 2 * parity.astype(np.int64)) @ ints
    return [Fraction(int(v), den * n) for v in sums]


# ---------------------------------------------------------------------------
# Transfer operator as a sum over inverse-branch words
# ---------------------------------------------------------------------------


def branch_words(n: int, r: float) -> Tuple[np.ndarray, np.ndarray]:
    """Moebius matrices (2^n, 2, 2) of all n-fold branch compositions, and
    the number of right branches in each."""
    if n > 20:
        raise ValueError("branch-word sums are capped at n = 20")
    rho = 2.0 - r
    phi = np.array([[[1.0, 0.0], [r, rho]], [[r - 1.0, rho], [r, rho]]])
    M = np.eye(2)[None, :, :]
    rights = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        M = np.concatenate([phi[0] @ M, phi[1] @ M])
        rights = np.concatenate([rights, rights + 1])
    return M, rights


def apply_power(f, x: float, s: complex, r: float, n: int) -> complex:
    """(P^n f)(x) = sum over words of |psi'(x)|^s f(psi(x))."""
    M, _ = branch_words(n, r)
    num = M[:, 0, 0] * x + M[:, 0, 1]
    den = M[:, 1, 0] * x + M[:, 1, 1]
    deriv = np.abs(M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]) / den**2
    return complex(np.sum(np.exp(complex(s) * np.log(deriv)) * f(num / den)))


def _fixed_point_derivatives(n: int, r: float):
    M, rights = branch_words(n, r)
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    # c x^2 + (d - a) x - b = 0; the attracting root lies in [0, 1]
    root = np.sqrt((d - a) ** 2 + 4.0 * b * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = 2.0 * b / ((d - a) + root)
        x2 = 2.0 * b / ((d - a) - root)
    inside = (x1 >= -1e-12) & (x1 <= 1.0 + 1e-12)
    x = np.where(inside, x1, x2)
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):
        raise ArithmeticError("a branch composition has no fixed point in [0, 1]")
    return (a * d - b * c) / (c * x + d) ** 2, rights


def trace(s: complex, r: float, n: int, signed: bool = False) -> complex:
    """trace(P^n) = sum over words of |psi'(x*)|^s / (1 - psi'(x*))."""
    deriv, rights = _fixed_point_derivatives(n, r)
    terms = np.exp(complex(s) * np.log(np.abs(deriv))) / (1.0 - deriv)
    if signed:
        terms = terms * (1 - 2 * (rights % 2))
    return complex(np.sum(terms))


def periodic_sum(s: complex, r: float, n: int) -> complex:
    """Xi_n(s) = sum over period-n points of |(F^n)'|^(-s) = sum |psi'(x*)|^s."""
    deriv, _ = _fixed_point_derivatives(n, r)
    return complex(np.sum(np.exp(complex(s) * np.log(np.abs(deriv)))))


# ---------------------------------------------------------------------------
# Leading eigenvalue and the critical curve
# ---------------------------------------------------------------------------


def _barycentric_matrix(nodes: np.ndarray, weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = y[:, None] - nodes[None, :]
    hit = np.isclose(diff, 0.0, atol=1e-15)
    diff[hit] = 1.0
    terms = weights[None, :] / diff
    out = terms / terms.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    out[rows] = hit[rows].astype(float)
    return out


def leading_eigenvalue(s: float, r: float, dim: int = 64) -> float:
    """Perron eigenvalue of P_{s,r} interpolated on dim+1 Lobatto nodes."""
    rho = 2.0 - r
    j = np.arange(dim + 1)
    x = 0.5 * (1.0 - np.cos(np.pi * j / dim))
    w = (-1.0) ** j
    w[0] *= 0.5
    w[-1] *= 0.5
    phi0 = x / (rho + r * x)
    weight = rho**s / (rho + r * x) ** (2.0 * s)
    A = weight[:, None] * (_barycentric_matrix(x, w, phi0) + _barycentric_matrix(x, w, 1.0 - phi0))
    return float(np.max(np.linalg.eigvals(A).real))


def critical_s(r: float, dim: int = 64, tol: float = 1e-10) -> float:
    """Smallest s > 0 with lambda_{s/2, r} = rho^(s/2), by bisection."""
    log_rho = math.log(2.0 - r)

    def g(s: float) -> float:
        return math.log(leading_eigenvalue(s / 2.0, r, dim)) - 0.5 * s * log_rho

    lo, hi = 0.5, 2.0
    if not (g(lo) > 0.0 > g(hi)):
        raise ArithmeticError(f"no sign change of g on [{lo}, {hi}] at r={r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_s_with_error(r: float) -> Tuple[float, float]:
    """s_cr(r) at dim 96, with the change from dim 64 as its error bar."""
    s64 = critical_s(r, 64)
    s96 = critical_s(r, 96)
    return s96, abs(s96 - s64) + 1e-10


# ---------------------------------------------------------------------------
# Self-test against the closed forms at r = 0
# ---------------------------------------------------------------------------


def self_test() -> List[str]:
    """Return the failures of the oracle at r = 0 (an empty list when sound).

    At r = 0 every row-m denominator is 2^m, so Z^C_n(s) =
    1 + sum_{m<=n} 2^(m-1) 2^(-ms); each branch has |Phi'| = 1/2, so
    lambda_s = 2^(1-s) with constant eigenfunction; hence s_cr(0) = 1.
    """
    failures = []
    for n in (1, 5, 9):
        for s in (1, 3):
            closed = 1 + sum(Fraction(2 ** (m - 1), 2 ** (m * s)) for m in range(1, n + 1))
            if canonical_Z_exact(n, s, Fraction(0)) != closed:
                failures.append(f"exact Z^C_{n}({s}) at r=0")
            if abs(canonical_Z_series(n, float(s), 0.0)[-1] - float(closed)) > 1e-14 * float(closed):
                failures.append(f"float Z^C_{n}({s}) at r=0")
    for s in (0.3, 1.0, 1.7):
        lam = leading_eigenvalue(s, 0.0)
        if abs(lam - 2.0 ** (1.0 - s)) > 1e-12:
            failures.append(f"lambda_{s} = {lam} at r=0")
        one = apply_power(np.ones_like, 0.37, s, 0.0, 6).real
        if abs(one - 2.0 ** (6 * (1.0 - s))) > 1e-12 * one:
            failures.append(f"(P^6 1)(x) at r=0, s={s}")
    if abs(critical_s(0.0) - 1.0) > 1e-9:
        failures.append("s_cr(0) != 1")
    return failures


if __name__ == "__main__":
    bad = self_test()
    print("oracle self-test: " + ("ok" if not bad else "FAILED: " + "; ".join(bad)))
    raise SystemExit(1 if bad else 0)
