import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fareychain import thermo, twisted
from fareychain.rings import Params
from fareychain.spinchain import pq_tables


def test_mu_specializations():
    known_mu = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [twisted.mu_twisted(1, q) for q in range(1, 11)] == known_mu
    known_phi = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert [twisted.mu_twisted(0, q) for q in range(1, 11)] == known_phi
    for q in range(1, 101):
        assert twisted.mu_twisted(1, q) == twisted.moebius(q)
        assert twisted.mu_twisted(0, q) == twisted.euler_phi(q)


def test_mu_direct_example():
    # q = 4, m = 2: units 1, 3 give e^(i pi) + e^(3 i pi) = -2
    assert twisted.mu_twisted(2, 4, "direct") == -2
    assert twisted.mu_twisted(2, 4, "closed") == -2


def test_mu_closed_equals_direct():
    for q in range(1, 501):
        for m in (0, 1, 2, 3, 8, 20, -5):
            assert twisted.mu_twisted(m, q, "closed") == twisted.mu_twisted(m, q, "direct")


def test_mu_symmetric_in_sign():
    for m in range(0, 51, 5):
        for q in range(1, 200, 7):
            assert twisted.mu_twisted(-m, q) == twisted.mu_twisted(m, q)


def test_mu_multiplicative():
    import random

    rng = random.Random(0)
    for _ in range(400):
        q1, q2 = rng.randint(1, 100), rng.randint(1, 100)
        if math.gcd(q1, q2) != 1:
            continue
        m = rng.randint(0, 12)
        assert twisted.mu_twisted(m, q1 * q2) == twisted.mu_twisted(m, q1) * twisted.mu_twisted(m, q2)


def test_totient_ratio_bound():
    for q in range(1, 2001):
        for m in range(1, 21):
            g = math.gcd(m, q)
            assert twisted.euler_phi(q) // twisted.euler_phi(q // g) <= m


def test_phi_and_mu_from_the_sieve_up_to_the_cap():
    assert twisted.euler_phi(97) == 96
    assert twisted.moebius(30) == -1
    assert twisted.moebius(12) == 0
    assert twisted.euler_phi(2**20) == 2**19  # the cap itself is served


def _by_trial_division(n):
    """(phi(n), mu(n)) from the prime factors of n."""
    phi, mu, p = n, 1, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            phi, mu = phi - phi // p, 0 if e > 1 else -mu
        p += 1
    return (phi - phi // n, -mu) if n > 1 else (phi, mu)


def test_sieve_equals_trial_division():
    """The sieve strides only the primes <= 2^10 at 2^20; the one larger factor comes from the remainder."""
    phi, mu = twisted._sieve(1 << 20)
    rng = random.Random(20)
    large = [1021 * 1024, 1031 * 1013, 2 * 524287, 1048573, 2**20]  # 1031, 524287 and 1048573 are prime
    for n in [*range(1, 2000), *large, *rng.sample(range(1, 2**20 + 1), 500)]:
        assert (phi[n], mu[n]) == _by_trial_division(n), n


def test_above_the_cap_refused_before_any_table(monkeypatch):
    def no_table(limit):
        raise AssertionError(f"a table of {limit} entries was built")

    monkeypatch.setattr(twisted, "_sieve", no_table)
    cap = twisted.SIEVE_CAP
    for call in (lambda: twisted.euler_phi(cap + 1), lambda: twisted.moebius(cap + 1),
                 lambda: twisted.mu_twisted(1, cap + 1), lambda: twisted.dirichlet_partial(1, 2.0, cap + 1)):
        with pytest.raises(ValueError, match=f"outside 1..{cap}"):
            call()


def test_small_requests_share_the_smallest_table(monkeypatch):
    asked = []
    sieve = twisted._sieve
    monkeypatch.setattr(twisted, "_sieve", lambda limit: asked.append(limit) or sieve(limit))
    assert twisted.mu_twisted(1, 10) == 1
    assert asked and max(asked) <= 2**12


def test_closed_mu_twisted_reads_one_table(monkeypatch):
    # q = 9000 needs 2^14 entries, q' = 9000/gcd(30, 9000) = 300 only 2^12: all three reads take q's table
    asked = []
    sieve = twisted._sieve
    monkeypatch.setattr(twisted, "_sieve", lambda limit: asked.append(limit) or sieve(limit))
    assert twisted.mu_twisted(30, 9000) == twisted.mu_twisted(30, 9000, "direct")
    assert asked == [2**14]


def test_dirichlet_partials():
    val, tail = twisted.dirichlet_partial(1, 2.0, 100_000)
    assert abs(val - 6.0 / math.pi**2) <= 1e-4
    assert tail >= 0
    val0, _ = twisted.dirichlet_partial(0, 3.0, 100_000)
    zeta2 = math.pi**2 / 6.0
    zeta3 = 1.2020569031595942854
    assert abs(val0 - zeta2 / zeta3) <= 1e-4


def test_dirichlet_domain_checks():
    with pytest.raises(ValueError):
        twisted.dirichlet_partial(0, 1.5, 100)
    with pytest.raises(ValueError):
        twisted.dirichlet_partial(3, 0.9, 100)


def test_twisted_at_m_zero_is_canonical():
    p = Params.floating(0.5)
    values = twisted.twisted_sums(10, 2.0, 0, p)
    for n in (2, 6, 10):
        assert values[n - 1].real == pytest.approx(thermo.canonical_Z(n, 2.0, p), rel=1e-14)
        assert abs(values[n - 1].imag) <= 1e-12


def test_twisted_dual_routes_agree():
    for r in (0.0, 0.6, 1.0):
        p = Params.floating(r)
        for m in (0, 1, 2, -3):
            rows, via_transfer = (twisted.twisted_sums(12, 2.6, m, p, method) for method in ("rows", "transfer"))
            assert max(abs(a - b) for a, b in zip(rows, via_transfer)) <= 1e-11


def test_one_walk_equals_per_n_loop():
    s, N = 2.3, 12
    for r in (0.4, 1.0):
        p = Params.floating(r)
        for m in (0, 1, 3):
            per_n = []
            for n in range(1, N + 1):
                total = 1.0 + 0.0j
                for k in range(n):
                    t = pq_tables(k, p)
                    total += complex(np.sum(t.q ** (-s) * np.exp(2j * math.pi * m * (t.p / t.q))))
                per_n.append(total)
            assert twisted.twisted_sums(N, s, m, p, "rows") == per_n
            via_transfer = twisted.twisted_sums(N, s, m, p, "transfer")
            assert len(via_transfer) == N
            assert max(abs(a - b) for a, b in zip(via_transfer, per_n)) <= 1e-12
    with pytest.raises(ValueError):
        twisted.twisted_sums(0, s, 1, Params.floating(0.5))


def test_twisted_conjugate_symmetry():
    p = Params.floating(0.7)
    a = twisted.twisted_sums(8, 2.0, 3, p)[-1]
    b = twisted.twisted_sums(8, 2.0, -3, p)[-1]
    assert a == pytest.approx(b.conjugate(), rel=1e-13)


def test_farey_twisted_approaches_inverse_zeta():
    # partial sums of mu(q)/q^s over the rational tree
    val = twisted.twisted_sums(16, 6.0, 1, Params.floating(1.0))[-1]
    assert abs(val.real - 945.0 / math.pi**6) <= 1e-2
    assert abs(val.imag) <= 1e-12


@pytest.mark.parametrize("s", [0.0, 6.0])
def test_farey_twisted_error_covers_the_row_sums(s):
    # r = 1, where the compression converges slowest: every partial sum from the operator iterates, within its error
    p = Params.floating(1.0)
    for m in (0, 1, 2):
        values, rows = (twisted.twisted_sums(16, s, m, p, method) for method in ("transfer", "rows"))
        for value, row in zip(values, rows):
            assert value.method.startswith("operator iterates, dim"), value.method
            assert abs(value - row) <= value.error, (m, value, row, value.error)


def test_topped_out_ladder_falls_back_to_the_rows():
    # r = 1, s = 18: the compression's ladder tops out, and the whole series comes from the tree rows
    p = Params.floating(1.0)
    values, rows = (twisted.twisted_sums(20, 18.0, 1, p, method) for method in ("transfer", "rows"))
    assert all(v.method == "tree-row sum (the operator ladder topped out at dim 384)" for v in values)
    assert values == rows and all(v.error is None for v in values)


@pytest.mark.parametrize("r", [0.5, 1.0])
@pytest.mark.parametrize("s", [1.5 + 0.5j, 2.4 - 1j])
def test_twisted_routes_agree_at_complex_s(r, s):
    # the tree rows read q^(-s) at complex s as well: the oracle of the operator route, within that route's error
    p = Params.floating(r)
    values, rows = (twisted.twisted_sums(14, s, 2, p, method) for method in ("transfer", "rows"))
    for value, row in zip(values, rows):
        assert value.method.startswith("operator iterates, dim") and row.method == "tree-row sum", value.method
        assert abs(value - row) <= value.error, (value, row, value.error)
    fallback = twisted.twisted_sums(14, s, 2, Params.floating(1.3))
    assert all(value.method == "tree-row sum (r > 1)" for value in fallback)
    assert fallback == twisted.twisted_sums(14, s, 2, Params.floating(1.3), "rows")
