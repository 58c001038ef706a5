"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (directly to the terminal, past
pytest's capture) and asserts the same condition, so the suite both
documents and enforces the bar.  Stated runtime budgets are asserted
where the criteria carry them.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from fareychain import coding, spinchain, thermo, transfer, twisted
from fareychain import tree as treemod
from fareychain.rings import Params, RhoPoly
from fareychain.transfer import TransferQuery
from fareychain.words import SpinWord, all_words, bit_reverse_index

APERY = 1.2020569031595942854  # zeta(3), frozen high-precision constant
ZETA4 = math.pi**4 / 90.0
ZETA2 = math.pi**2 / 6.0
ZETA3 = APERY

LINES: list = []  # echoed by the terminal-summary hook in conftest.py


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_exact_identity_suite():
    t0 = time.time()
    sym = Params.symbolic()
    ok = True

    # mediant child rule and the determinant identity on every neighbour pair
    for n in range(1, 10):
        nodes = treemod.full_tree(n, sym)
        for a, b in zip(nodes, nodes[1:]):
            lo, hi = (a, b) if a.rank <= b.rank else (b, a)
            cross = b.p * a.q - a.p * b.q
            ok &= cross == sym.rho**lo.rank
            child = treemod.child_of_neighbours(lo, hi, sym)
            ok &= a.order_key() < child.order_key() < b.order_key()
            ok &= child.rank == hi.rank + 1

    # complement symmetry and reversal symmetry of the denominator tables
    for k in range(0, 15):
        table = spinchain.pq_tables(k, sym)
        size = 1 << k
        for i in range(size):
            j = size - 1 - i
            ok &= table.p[i] + table.p[j] == table.q[i] == table.q[j]
            ok &= table.q[i] == table.q[bit_reverse_index(i, k)]

    # matrix presentation against the tables, sharing prefixes along the tree
    L, R, _SR = spinchain._generators(sym)
    for k in range(0, 13):
        table = spinchain.pq_tables(k, sym)
        stack = [(L, 0, 0)]
        while stack:
            X, depth, idx = stack.pop()
            if depth == k:
                (a, b), (c, d) = X
                ok &= (a + b, c + d) == (table.p[idx], table.q[idx])
                ok &= a * d - b * c == sym.rho ** (k + 1)
            else:
                stack.append((treemod._product(X, L), depth + 1, idx << 1))
                stack.append((treemod._product(X, R), depth + 1, (idx << 1) | 1))
    rng = random.Random(0)
    table12 = spinchain.pq_tables(12, sym)
    for _ in range(32):
        w = SpinWord(12, rng.getrandbits(12))
        (a, b), (c, d) = treemod.matrix_presentation(w, sym)
        ok &= (a + b, c + d) == (table12.p[w.index], table12.q[w.index])

    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(1, ok, "exact identity suite (mediant/determinant n<=10, symmetries k<=14, "
                  "presentation k<=12), zero tolerance", f"{elapsed:.1f}s")


def test_criterion_2_polymer_closed_form():
    ok = True
    worst = 0.0
    for rq in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        p = Params.exact(rq)
        pf = Params.floating(float(rq))
        for k in range(0, 13):
            table = spinchain.pq_tables(k, p)
            p_hat = spinchain.fourier_transform(list(table.p), k)
            q_hat = spinchain.fourier_transform(list(table.q), k)
            scale = float(q_hat[0])
            for t in all_words(k):
                ph, qh = spinchain.hat_pq_closed(t, p)
                ok &= ph == p_hat[t.index] and qh == q_hat[t.index]
                # the exponential rewrite: exactly in rationals, then the
                # float evaluation on unit-scale (normalized) coefficients
                ok &= spinchain.hat_q_ising(t, p) == q_hat[t.index]
                worst = max(
                    worst,
                    abs(spinchain.hat_q_ising(t, pf) / scale - float(q_hat[t.index] / q_hat[0])),
                )
    ok &= worst <= 1e-12
    report(2, ok, "closed-form Fourier coefficients and exponential rewrite exact "
                  "(k<=12, four r); float rewrite within 1e-12 of the normalized values",
           f"ising dev {worst:.2e}")


def test_criterion_3_ferromagnetic_positivity():
    t0 = time.time()
    worst = -math.inf
    for r10 in range(1, 11):
        p = Params.floating(r10 / 10.0)
        for k in range(1, 15):
            worst = max(worst, spinchain.ferromagnetic_violation(spinchain.interaction_coefficients(k, p)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 120.0
    report(3, ok, "ferromagnetic interaction -Q^(t) >= -1e-12 for t != 0, k <= 14, "
                  "r = 0.1..1.0", f"max violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_trace_formula():
    worst = 0.0
    for r in (0.0, 0.5, 0.9):
        for s in (0.5, 1.0, 2.0):
            for n, closed in enumerate(transfer.trace_sums(10, s, r, method="leaves"), 1):
                brute = transfer.trace_power_bruteforce(TransferQuery(s, r, n))
                worst = max(worst, abs(closed - brute) / abs(brute))
    ok = worst <= 1e-10

    worst1 = 0.0
    for r in (0.0, 0.3, 0.5, 0.9):
        for s in (0.5, 1.0, 2.0):
            leaf = transfer.trace_sums(1, s, r, method="leaves")[0]
            worst1 = max(worst1, abs(leaf - transfer.trace_closed_n1(s, r)))
            worst1 = max(worst1, abs(leaf - transfer.trace_from_spectra(s, r)))
    ok &= worst1 <= 1e-12
    report(4, ok, "trace formula vs fixed-point oracle (n<=10, rel 1e-10); n=1 value vs "
                  "closed form and eigenvalue sums (1e-12)",
           f"oracle dev {worst:.2e}, n=1 dev {worst1:.2e}")


def test_criterion_5_iterate_formulas():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(10):
        n = rng.randint(1, 12)
        r = rng.uniform(0.0, 1.1)
        s = complex(rng.uniform(0.3, 2.2), rng.uniform(-1.0, 1.0))
        x = rng.random()
        q = TransferQuery(s, r, n)
        bf = transfer.apply_bruteforce(lambda y: 1.0, x, q)
        worst = max(worst, abs(transfer.iterate_one(x, q) - bf) / abs(bf))
    for _ in range(8):
        n = rng.randint(1, 10)
        m = rng.choice([-5, -2, 1, 3])
        x = rng.random()
        q = TransferQuery(rng.uniform(0.4, 2.0), rng.uniform(0.0, 1.1), n)
        bf = transfer.apply_bruteforce(lambda y: np.exp(2j * np.pi * m * y), x, q)
        worst = max(worst, abs(transfer.iterate_character(x, q, m) - bf) / max(abs(bf), 1e-9))
    for _ in range(8):
        k = rng.randint(0, 9)
        r = rng.uniform(0.0, 1.1)
        s = rng.uniform(0.4, 2.0)
        x = rng.random()
        c = [rng.uniform(-1, 1) for _ in range(4)]
        f = lambda y: c[0] + c[1] * y + c[2] * y**2 + c[3] * y**3
        bf = transfer.apply_bruteforce(f, x, TransferQuery(s, r, k + 1))
        worst = max(worst, abs(transfer.iterate_general(f, x, s, r, k) - bf) / max(abs(bf), 1e-9))
    ok = worst <= 1e-11

    worst_xi = 0.0
    for (s, r) in ((0.5, 0.5), (1.0, 0.3), (1.5, 0.8)):
        traces = zip(transfer.trace_sums(8, s, r, method="leaves"),
                     transfer.trace_sums(8, s + 1, r, signed=True, method="leaves"))
        for lhs, (a, b) in zip(transfer.periodic_sums_xi(8, s, r, method="leaves"), traces):
            worst_xi = max(worst_xi, abs(lhs - (a - b)))
    ok &= worst_xi <= 1e-11
    report(5, ok, "closed iterates vs branch-word oracle (n<=12, rel 1e-11); "
                  "periodic-sum identity (n<=8, 1e-11)",
           f"iterate dev {worst:.2e}, identity dev {worst_xi:.2e}")


def test_criterion_6_known_closed_forms():
    pz = Params.exact(Fraction(0))
    ok = True
    for n in range(1, 13):
        for s in (2, 3, 4):
            closed = (Fraction(2) ** s - 1 - Fraction(2) ** (n * (1 - s))) / (Fraction(2) ** s - 2)
            ok &= thermo.canonical_Z(n, s, pz) == closed

    pf = Params.floating(0.0)
    devs = []
    for s in (0.5, 1.0, 2.0):  # F(s) = max(0, (1 - s) log 2), the pressure of the tent map
        est, err = thermo.free_energy_limit(s, pf)
        devs.append(abs(est - max(0.0, (1.0 - s) * math.log(2.0))))
        ok &= devs[-1] <= err <= 1e-10

    z24 = thermo.canonical_Z(24, 4.0, Params.floating(1.0))
    dev_z = abs(z24 - ZETA3 / ZETA4)
    ok &= dev_z <= 1e-2
    report(6, ok, "tent-map partition function exact; free energy from the pressure at s = 0.5, 1, 2; "
                  "rational-tree partial sum vs zeta(3)/zeta(4) at n=24",
           f"F devs {'/'.join(f'{d:.1e}' for d in devs)}, Z dev {dev_z:.1e}")


def test_criterion_7_spectral_and_phase():
    t0 = time.time()
    worst_tent = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, 3.0):
        worst_tent = max(
            worst_tent, abs(transfer.spectral_radius(s, 0.0, tol=1e-12).value - 2.0 ** (1 - s))
        )
    ok = worst_tent <= 1e-10

    worst_unit = 0.0
    for r in (0.3, 0.6, 0.9):
        worst_unit = max(worst_unit, abs(transfer.spectral_radius(1.0, r, tol=1e-10).value - 1.0))
    ok &= worst_unit <= 1e-8

    curve = [thermo.critical_line(Params.floating(0.1 * i), 1e-7) for i in range(10)]
    vals = np.array([pt.s_cr for pt in curve])
    dev0 = abs(vals[0] - 1.0)
    ok &= dev0 <= 1e-3
    ok &= bool(np.all(np.diff(vals) >= 0.0))
    ok &= bool(np.min(np.diff(vals, 2)) >= -1e-6)
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    report(7, ok, "spectral radius closed form (1e-10) and unit eigenvalue (1e-8); "
                  "critical curve: endpoint 1e-3, monotone, convex",
           f"tent {worst_tent:.1e}, unit {worst_unit:.1e}, s_cr(0) dev {dev0:.1e}, {elapsed:.0f}s")


def test_criterion_8_magnetization():
    worst = 0.0
    for r in (0.0, 0.4, 0.8, 1.0):
        p = Params.floating(r)
        for s in (0.6, 1.2, 2.5):
            for n in (6, 10, 14):
                a = thermo.magnetization(n, s, p, "direct")
                b = thermo.magnetization(n, s, p, "identity")
                worst = max(worst, abs(a - b))
    ok = worst <= 1e-12

    neg = 0.0
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = Params.floating(r)
        for s in (0.5, 1.0, 2.0, 4.0):
            for n in (4, 8, 12, 14):
                neg = min(neg, thermo.magnetization(n, s, p, "direct"))
    ok &= neg >= -1e-15

    p0 = Params.floating(0.0)
    m_hi = thermo.magnetization(40, 2.0, p0, "identity")
    m_lo = thermo.magnetization(40, 0.5, p0, "identity")
    ok &= m_hi > 0.9 and m_lo < 0.1
    report(8, ok, "magnetization: dual formulas within 1e-12 (n<=14); nonnegative on the "
                  "r in [0,1] grid; ordered/disordered values at n=40",
           f"dual dev {worst:.2e}, min {neg:.1e}, M(2)={m_hi:.3f}, M(0.5)={m_lo:.3f}")


def test_criterion_9_number_theory():
    ok = True
    ms = np.arange(-20, 21)
    phi_mu_dev = 0
    for q in range(1, 2001):
        sums = twisted.unit_exponential_sums(q, ms)
        if np.max(np.abs(sums.imag)) > 1e-6:
            ok = False
        direct = np.rint(sums.real).astype(int)
        if np.max(np.abs(sums.real - direct)) > 1e-6:
            ok = False
        for m, d in zip(ms, direct):
            if d != twisted.mu_twisted(int(m), q, "closed"):
                phi_mu_dev += 1
    ok &= phi_mu_dev == 0

    val1, _ = twisted.dirichlet_partial(1, 2.0, 100_000)
    val0, _ = twisted.dirichlet_partial(0, 3.0, 100_000)
    dev1 = abs(val1 - 1.0 / ZETA2)
    dev0 = abs(val0 - ZETA2 / ZETA3)
    ok &= dev1 <= 1e-4 and dev0 <= 1e-4
    report(9, ok, "twisted Moebius closed form = unit sums (q<=2000, |m|<=20, exact); "
                  "Dirichlet partials at Q=1e5 within 1e-4",
           f"mismatches {phi_mu_dev}, partial devs {dev1:.1e}/{dev0:.1e}")
