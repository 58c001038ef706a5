"""Self-contained invariant suites with measured residuals.

Each suite re-runs the oracle-equivalence and identity checks of one
module at a desk-friendly scale and reports (name, residual, tolerance)
rows; exact checks report a residual of 0 or 1.  The CLI `verify`
subcommand prints these and exits nonzero on any failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

from . import maps, spinchain, thermo, transfer, twisted
from . import tree as treemod
from .rings import Params
from .words import SpinWord, all_words, bit_reverse_index


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _exact(flag: bool) -> float:
    return 0.0 if flag else 1.0


def suite_tree(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    sym = Params.symbolic()

    ok = True
    for k in range(11):
        table = spinchain.pq_tables(k, sym)
        for w in all_words(k):
            wc = w.complement()
            if not (table.p[w.index] + table.p[wc.index] == table.q[w.index] == table.q[wc.index]):
                ok = False
    out.append(CheckResult("tree", "complement symmetry p+pbar=q=qbar (k<=10, symbolic)", _exact(ok), 0.0))

    ok = True
    for n in range(1, 9):
        nodes = treemod.full_tree(n, sym)
        for a, b in zip(nodes, nodes[1:]):
            lo, hi = (a, b) if a.rank <= b.rank else (b, a)
            child = treemod.child_of_neighbours(lo, hi, sym)  # raises if determinant identity fails
            if not (a.order_key() < child.order_key() < b.order_key()):
                ok = False
    out.append(CheckResult("tree", "mediant child + determinant on all neighbours (n<=8)", _exact(ok), 0.0))

    ok = True
    for k in range(9):
        table = spinchain.pq_tables(k, sym)
        for w in all_words(k):
            (a, b), (c, d) = treemod.matrix_presentation(w, sym)
            if not (a + b == table.p[w.index] and c + d == table.q[w.index]):
                ok = False
            if not a * d - b * c == sym.rho ** (k + 1):
                ok = False
    out.append(CheckResult("tree", "matrix presentation X(1)=p/q, det X = rho^(k+1) (k<=8)", _exact(ok), 0.0))

    resid = 0.0
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = Params.floating(r)
        for k in range(12):
            table = spinchain.pq_tables(k, p)
            if np.any(np.diff(table.p / table.q) <= 0):
                resid = 1.0
    out.append(CheckResult("tree", "rows strictly increasing (n<=12, r grid)", resid, 0.0))

    ok = True
    ex = Params.exact(Fraction(2, 5))
    for n in range(1, 9):
        row = sorted((p, q) for level, _sigma, p, q, _value in treemod.row_records(n, ex, extended=True) if level == n)
        if row != sorted((str(p), str(q)) for p, q in transfer.extended_pairs(n + 1, ex)):
            ok = False
    out.append(CheckResult("tree", "extended row equals two-child pair recursion (n<=8, exact)", _exact(ok), 0.0))

    return out


def suite_spin(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = random.Random(seed)

    ok = True
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        p = Params.exact(r)
        for k in range(9):
            table = spinchain.pq_tables(k, p)
            p_hat = spinchain.fourier_transform(table.p, k)
            q_hat = spinchain.fourier_transform(table.q, k)
            for t in all_words(k):
                ph, qh = spinchain.hat_pq_closed(t, p)
                if not (ph == p_hat[t.index] and qh == q_hat[t.index] == spinchain.hat_q_ising(t, p)):
                    ok = False
    out.append(CheckResult("spin", "closed form and exponential rewrite = transform of tables (k<=8, exact)",
                           _exact(ok), 0.0))

    resid = 0.0
    for r in (0.3, 0.5, 0.9, 1.0, 1.5):
        p = Params.floating(r)
        for k in range(1, 11):
            table = spinchain.pq_tables(k, p)
            q_hat = spinchain.fourier_transform(table.q, k)
            for t in all_words(k):
                ising = spinchain.hat_q_ising(t, p)
                resid = max(resid, abs(ising - q_hat[t.index]))
                resid = max(resid, abs(spinchain.hat_q_ising_abs(t, p) - abs(q_hat[t.index])))
    out.append(CheckResult("spin", "exponential/chain rewrite of q^ (k<=10, float)", resid, 1e-11))

    ok = True
    for k in range(1, 13):
        table = spinchain.pq_tables(k, Params.symbolic())
        for i in range(1 << k):
            if table.q[i] != table.q[bit_reverse_index(i, k)]:
                ok = False
    out.append(CheckResult("spin", "q reversal symmetry (k<=12, symbolic)", _exact(ok), 0.0))

    worst = -math.inf
    for r10 in range(1, 11):
        p = Params.floating(r10 / 10.0)
        for k in range(1, 13):
            worst = max(worst, spinchain.ferromagnetic_violation(spinchain.interaction_coefficients(k, p)))
    out.append(CheckResult("spin", "ferromagnetic positivity -Q^ >= 0 (k<=12, r grid)", max(worst, 0.0), 1e-12))

    ok = True
    for _ in range(1000):
        k = rng.randint(1, 16)
        t = SpinWord(k, rng.getrandbits(k))
        polys = spinchain.polymer_decompose(t)
        if spinchain.polymer_recompose(polys, k) != t:
            ok = False
        if spinchain.polymer_count(t) != len(polys):
            ok = False
        spans = [g.support() for g in polys]
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            if not b1 < a2:
                ok = False
    out.append(CheckResult("spin", "polymer decomposition: disjoint, recomposes, n(t)=<t,psi t>", _exact(ok), 0.0))

    ok = True
    sym = Params.symbolic()
    for k in range(1, 9):
        table = spinchain.pq_tables(k, sym)
        cumul = spinchain.pc_qc_tables(k + 1, sym)
        for w in all_words(k):
            idx = (w.index << 1) | 1
            if not (table.p[w.index] == cumul.p[idx] and table.q[w.index] == cumul.q[idx]):
                ok = False
    out.append(CheckResult("spin", "cumulative tables extend the leaf tables (k<=8, symbolic)", _exact(ok), 0.0))

    return out


def suite_transfer(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = random.Random(seed + 1)

    resid = 0.0
    for _ in range(12):
        n = rng.randint(1, 9)
        r = rng.uniform(0.0, 1.2)
        s = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
        x = rng.random()
        q = transfer.TransferQuery(s, r, n)
        bf = transfer.apply_bruteforce(lambda y: 1.0, x, q)
        resid = max(resid, abs(bf - transfer.iterate_one(x, q)) / abs(bf))
    out.append(CheckResult("transfer", "iterate of 1 vs branch-word oracle", resid, 1e-11))

    resid = 0.0
    for _ in range(8):
        n = rng.randint(1, 8)
        r = rng.uniform(0.0, 1.2)
        m = rng.randint(-3, 3)
        x = rng.random()
        q = transfer.TransferQuery(rng.uniform(0.5, 2.0), r, n)
        bf = transfer.apply_bruteforce(lambda y: np.exp(2j * math.pi * m * y), x, q)
        resid = max(resid, abs(bf - transfer.iterate_character(x, q, m)) / max(abs(bf), 1e-12))
    out.append(CheckResult("transfer", "character iterate vs branch-word oracle", resid, 1e-11))

    resid = 0.0  # relative to (P^n 1)(x), which bounds |P^n e_m|; 1 if the walk was taken
    for r in (0.55, 0.99, 1.0):
        q = transfer.TransferQuery(1.2, r, 20)
        scale = abs(transfer.iterate_one(0.3, q))
        for m in (0, 2):
            value = transfer.iterate_character(0.3, q, m)
            walk = transfer._iterate(0.3, q, transfer._character_pair(m))
            resid = max(resid, abs(value - walk) / scale if value.method.startswith("operator") else 1.0)
    name = "character iterate: operator iterates vs leaf walk (n = 20, r in {0.55, 0.99, 1})"
    out.append(CheckResult("transfer", name, resid, 1e-11))

    resid = 0.0
    for _ in range(6):
        k = rng.randint(0, 6)
        r = rng.uniform(0.0, 1.2)
        s = rng.uniform(0.4, 2.0)
        x = rng.random()
        coef = [rng.uniform(-1, 1) for _ in range(4)]
        f = lambda y: coef[0] + coef[1] * y + coef[2] * y**2 + coef[3] * y**3
        bf = transfer.apply_bruteforce(f, x, transfer.TransferQuery(s, r, k + 1))
        resid = max(resid, abs(bf - transfer.iterate_general(f, x, s, r, k)) / max(abs(bf), 1e-12))
    out.append(CheckResult("transfer", "general iterate vs branch-word oracle", resid, 1e-11))

    resid = 0.0
    for r in (0.0, 0.5, 0.9):
        for s in (0.5, 1.0, 2.0):
            oracle = [transfer.trace_power_bruteforce(transfer.TransferQuery(s, r, n)) for n in range(1, 9)]
            leaves = transfer.trace_sums(8, s, r, method="leaves")
            resid = max(resid, *(abs(a - b) / abs(b) for a, b in zip(leaves, oracle)))
    out.append(CheckResult("transfer", "trace leaf formula vs fixed-point oracle (n<=8)", resid, 1e-10))

    resid = 0.0
    for r in (0.0, 0.3, 0.6, 0.9):
        for s in (0.5, 1.0, 2.0):
            vals = (
                transfer.trace_sums(1, s, r, method="leaves")[0],
                transfer.trace_closed_n1(s, r),
                transfer.trace_from_spectra(s, r),
            )
            resid = max(resid, max(abs(v - vals[0]) for v in vals))
    out.append(CheckResult("transfer", "n=1 trace three-way agreement", resid, 1e-12))

    resid = 0.0
    for r in (0.0, 0.5, 1.0):
        oracle = [transfer.periodic_sum_bruteforce(transfer.TransferQuery(1.2, r, n)) for n in range(1, 8)]
        resid = max(resid, *(abs(a - b) for a, b in zip(transfer.periodic_sums_xi(7, 1.2, r, method="leaves"), oracle)))
    out.append(CheckResult("transfer", "periodic-orbit sum vs fixed-point oracle", resid, 1e-10))

    traces = zip(transfer.trace_sums(7, 0.8, 0.5, method="leaves"),
                 transfer.trace_sums(7, 1.8, 0.5, signed=True, method="leaves"))
    xis = transfer.periodic_sums_xi(7, 0.8, 0.5, method="leaves")
    resid = max(abs(xi - (a - b)) for xi, (a, b) in zip(xis, traces))
    out.append(CheckResult("transfer", "Xi_n = trace - shifted signed trace", resid, 1e-11))

    # relative to the moduli of the terms: the value itself for the trace and Xi (real s), the trace for the signed
    # trace; 1 if a value lies outside its own error beyond the walk's rounding
    resid = 0.0
    for r in (0.0, 0.55, 0.99, 1.0):
        for s in (0.5, 1.2, 2.5):
            walk = transfer.periodic_sums_xi(20, s, r, method="leaves")
            pairs = [(transfer.periodic_sums_xi(20, s, r), walk, walk)]
            if r < 1:  # the traces diverge at r = 1
                trace = transfer.trace_sums(20, s, r, method="leaves")
                pairs += [(transfer.trace_sums(20, s, r), trace, trace),
                          (transfer.trace_sums(20, s, r, signed=True), transfer.trace_sums(20, s, r, True, "leaves"),
                           trace)]
            for series, walk, scale in pairs:
                for k, (a, b, c) in enumerate(zip(series, walk, scale), 1):
                    outside = abs(a - b) > a.error + 8 * k * np.finfo(float).eps * abs(c)
                    resid = max(resid, 1.0 if outside else abs(a - b) / abs(c))
    name = "traces and Xi_n: first-return series vs leaf walk (n <= 20, r in {0, 0.55, 0.99, 1})"
    out.append(CheckResult("transfer", name, resid, 1e-13))

    fz = transfer.fredholm_and_zeta(0.5, 1.0, 0.5, N=14)
    out.append(
        CheckResult("transfer", "zeta: orbit-sum route vs determinant ratio (z=0.5)",
                    abs(fz.zeta_exp - fz.zeta_ratio), 1e-9)
    )

    resid = 0.0
    for s in (0.5, 1.0, 2.0):
        resid = max(resid, abs(transfer.spectral_radius(s, 0.0, tol=1e-12).value - 2.0 ** (1 - s)))
    for r in (0.3, 0.6, 0.9):
        resid = max(resid, abs(transfer.spectral_radius(1.0, r, tol=1e-10).value - 1.0))
    out.append(CheckResult("transfer", "spectral radius: tent closed form and fixed density", resid, 1e-8))

    # the Perron vector of P_1's compression, scaled by least squares, is maps.invariant_density at the nodes;
    # r = 0.99 is left out: at dim 48 its relative gap is 3.1e-4
    resid = 0.0
    for r in (0.3, 0.6, 0.9):
        C, log_w = transfer._collocation_operator(r, 48)
        ev, vectors = np.linalg.eig(np.exp(log_w)[:, None] * C)
        v = vectors[:, np.argmax(ev.real)].real
        density = np.array([maps.invariant_density(x, Params.floating(r)) for x in transfer._chebyshev_nodes(48)[0]])
        resid = max(resid, float(np.max(np.abs(v * (v @ density) / (v @ v) - density)) / np.max(density)))
    name = "invariant density: Perron vector of P_1 compressed at dim 48 (r in {0.3, 0.6, 0.9})"
    out.append(CheckResult("transfer", name, resid, 1e-10))

    # then four points with g 2e-6 .. 4e-2 above the edge -2 s log rho, where the induced sum diverges, and r = 1
    points = [(r, s) for r in (0.3, 0.6, 0.9, 0.99) for s in (0.5, 1.0, 1.5)]
    resid = max(abs(transfer.spectral_radius(s, r, tol=1e-10).value - transfer._collocation_lambda(s, r, 384))
                for r, s in points + [(0.9, 1.5), (0.5, 3.0), (0.99, 1.5), (0.9, 3.0), (1.0, 0.75)])
    out.append(CheckResult("transfer", "lambda: first-return operator vs Chebyshev compression", resid, 1e-10))

    # K itself, relative: at r = 1, s = 2 it is the Gauss-map operator, whose second eigenvalue is Wirsing's constant
    # (Acta Arith. 24 (1974)), good to 2.4e-12 at dim 16 and 1.2e-15 at dim 24; at r = 0 the blocks are affine and
    # the eigenvalues are (-1)^k / (2^(s+k) - 1), k < 4 at dim 16 (k = 4, 5 are off by up to 4.9e-12 there)
    def spectrum(r: float, s: float, dim: int) -> np.ndarray:
        ev = np.linalg.eigvals(transfer._return_matrix(transfer._return_operator(r, dim), s))
        return ev[np.argsort(-np.abs(ev))]

    wirsing = -0.30366300289873265859744812190155623
    resid = abs(spectrum(1.0, 2.0, 24)[1] - wirsing) / abs(wirsing)
    for s in (1.0, 1.7, 3.0):
        exact = np.array([(-1.0) ** k / (2.0 ** (s + k) - 1.0) for k in range(4)])
        resid = max(resid, float(np.max(np.abs(spectrum(0.0, s, 16)[:4] - exact) / np.abs(exact))))
    name = "first-return spectrum: Wirsing's constant at r = 1, (-1)^k/(2^(s+k) - 1) at r = 0"
    out.append(CheckResult("transfer", name, resid, 1e-12))

    resid = max(
        transfer.involution_residual(1.0, 0.5, n=14),
        transfer.involution_residual(0.8, 0.5, n=16),
    )
    out.append(CheckResult("transfer", "leading eigenfunction involution symmetry", resid, 1e-5))

    return out


def suite_thermo(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []

    ok = all(len({thermo.canonical_Z(n, s, Params.exact(rq), m) for m in ("rows", "cumulative", "transfer")}) == 1
             for rq in (Fraction(1, 3), Fraction(1, 2)) for n in range(1, 11) for s in (3, 4))
    out.append(CheckResult("thermo", "canonical Z: three routes agree exactly (n<=10, s=3,4)", _exact(ok), 0.0))

    resid = 0.0
    p = Params.floating(0.7)
    for n in range(2, 11):
        vals = [thermo.canonical_Z(n, 1.7, p, m) for m in ("rows", "cumulative", "transfer")]
        resid = max(resid, max(abs(v - vals[0]) for v in vals) / vals[0])
    out.append(CheckResult("thermo", "canonical Z: float routes agree (rel)", resid, 1e-12))

    resid = 0.0
    s_values = [0.7, 1.5, 2.5]
    for r in (0.0, 0.5, 0.9, 1.0):
        sweep = thermo.thermo_sweep(r, s_values, 20)  # 19 points per s, n = 2 .. 20
        # the rows route of canonical_Z and magnetization(..., "identity"), every n from one walk
        for i, zg in enumerate(thermo._grand_sums(19, s_values, Params.floating(r))):
            for pt in sweep[19 * i:19 * (i + 1)]:
                zc = sum(zg[:pt.n], 1.0)
                m = thermo._identity_magnetization(zg[:pt.n], pt.n)
                resid = max(resid, abs(pt.ZC - zc) / zc / pt.error, abs(pt.Mn - m) / pt.error)
    out.append(CheckResult("thermo", "thermo sweep: operator vs rows route (n <= 20)", resid, 1.0))

    ok = True
    pz = Params.exact(Fraction(0))
    for n in range(1, 12):
        for s in (2, 3, 4):
            closed = (Fraction(2) ** s - 1 - Fraction(2) ** (n * (1 - s))) / (Fraction(2) ** s - 2)
            # rows reads the r = 0 shortcut of grand_Z, the closed form itself; the other two routes walk the kernel
            if any(thermo.canonical_Z(n, s, pz, method) != closed for method in ("rows", "cumulative", "transfer")):
                ok = False
    out.append(CheckResult("thermo", "tent-map canonical Z closed form (exact)", _exact(ok), 0.0))

    resid = 0.0
    for r in (0.0, 0.5):
        p = Params.floating(r)
        for s in (1.0, 2.5):
            for n in (6, 10):
                a = thermo.magnetization(n, s, p, "direct")
                b = thermo.magnetization(n, s, p, "identity")
                resid = max(resid, abs(a - b))
    out.append(CheckResult("thermo", "magnetization: direct vs row-sum identity", resid, 1e-12))

    worst = -1.0
    for r in (0.0, 0.3, 0.7, 1.0):
        p = Params.floating(r)
        for s in (0.5, 1.5, 3.0):
            for n in (4, 8, 12):
                worst = max(worst, -thermo.magnetization(n, s, p, "direct"))
    out.append(CheckResult("thermo", "magnetization nonnegative for r in [0,1]", max(worst, 0.0), 1e-12))

    cp = thermo.critical_line(Params.floating(0.0), tol=1e-6)
    out.append(CheckResult("thermo", "critical exponent at r=0 equals 1", abs(cp.s_cr - 1.0), 1e-5))
    cp = thermo.critical_line(Params.floating(1.0), tol=1e-10)
    out.append(CheckResult("thermo", "critical exponent at r=1 equals 2", abs(cp.s_cr - 2.0), 1e-10))

    resid = 0.0
    for r in (0.5, 0.9, 0.99):  # dims 192 and 144 of the compression put s_cr within 1e-13 of each other here
        def g(s: float, r=r) -> float:
            return math.log(transfer._collocation_lambda(s / 2.0, r, 192)) - s / 2.0 * math.log(2.0 - r)

        lo, hi, g_lo, g_hi, _evals = transfer._chandrupatla(g, 1e-3, 2.0, g(1e-3), g(2.0), 1e-11)
        s_cheb = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        resid = max(resid, abs(thermo.critical_line(Params.floating(r), tol=1e-10).s_cr - s_cheb))
    out.append(CheckResult("thermo", "s_cr: first-return operator vs Chebyshev compression (r <= 0.99)", resid, 1e-9))

    resid = 0.0
    for r in (0.5, 0.7, 0.9):  # nearer r = 1 the compression falls below mu_0 for s > 2
        for s in (0.5, 1.0, 1.3, 1.6, 2.0, 2.5):
            g = math.log(transfer._collocation_lambda(s / 2.0, r, 192)) - s / 2.0 * math.log1p(1.0 - r)
            resid = max(resid, abs(thermo.free_energy_limit(s, Params.floating(r))[0] - max(0.0, g)))
    out.append(CheckResult("thermo", "free energy: first-return pressure vs Chebyshev compression (r in {0.5, 0.7, 0.9})",
                           resid, 1e-10))

    resid = 0.0
    rows = thermo.sandwich_bounds(1.2, 0.5, 12, [4, 6, 8, 10])
    for _l, lower, mid, upper in rows:
        resid = max(resid, max(lower - mid, mid - upper))
    out.append(CheckResult("thermo", "grand-canonical growth sandwich below s_cr", max(resid, 0.0), 0.0))

    resid = 0.0
    p = Params.floating(0.4)
    s_grid = np.linspace(0.3, 3.0, 10)
    f_vals = [thermo.free_energy(14, s, p) for s in s_grid]
    if min(f_vals) < 0:
        resid = 1.0
    d2 = np.diff(f_vals, 2)
    resid = max(resid, float(max(0.0, -np.min(d2))))
    out.append(CheckResult("thermo", "free energy nonnegative and convex in s", resid, 1e-12))

    return out


def suite_zeta(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = random.Random(seed + 2)

    ok = True
    for q in range(1, 301):
        for m in (0, 1, 2, 5, 12):
            if twisted.mu_twisted(m, q, "closed") != twisted.mu_twisted(m, q, "direct"):
                ok = False
    out.append(CheckResult("zeta", "twisted Moebius: closed form vs unit sums (q<=300)", _exact(ok), 0.0))

    ok = True
    for q in range(1, 101):
        if twisted.mu_twisted(1, q) != twisted.moebius(q):
            ok = False
        if twisted.mu_twisted(0, q) != twisted.euler_phi(q):
            ok = False
        for m in (1, 2, 7):
            if twisted.mu_twisted(-m, q) != twisted.mu_twisted(m, q):
                ok = False
    out.append(CheckResult("zeta", "specializations mu^(1)=mu, mu^(0)=phi, mu^(-m)=mu^(m)", _exact(ok), 0.0))

    ok = True
    for _ in range(300):
        q1 = rng.randint(1, 80)
        q2 = rng.randint(1, 80)
        if math.gcd(q1, q2) != 1:
            continue
        m = rng.randint(0, 10)
        if twisted.mu_twisted(m, q1 * q2) != twisted.mu_twisted(m, q1) * twisted.mu_twisted(m, q2):
            ok = False
    out.append(CheckResult("zeta", "multiplicativity on coprime arguments", _exact(ok), 0.0))

    ok = True
    for q in range(1, 2001, 7):
        for m in range(1, 21):
            g = math.gcd(m, q)
            if twisted.euler_phi(q) // twisted.euler_phi(q // g) > m:
                ok = False
    out.append(CheckResult("zeta", "totient-ratio bound phi(q)/phi(q/gcd) <= m", _exact(ok), 0.0))

    val, _tail = twisted.dirichlet_partial(1, 2.0, 50_000)
    resid = abs(val - 6.0 / math.pi**2)
    val0, _ = twisted.dirichlet_partial(0, 3.0, 50_000)
    zeta2, zeta3 = math.pi**2 / 6.0, 1.2020569031595943
    resid = max(resid, abs(val0 - zeta2 / zeta3))
    out.append(CheckResult("zeta", "Dirichlet partials versus 1/zeta(2), zeta(2)/zeta(3)", resid, 1e-4))

    resid = 0.0  # 1 if the operator route fell back to the rows
    for r in (0.6, 1.0):
        p = Params.floating(r)
        for m in (0, 1, 3):
            a = twisted.twisted_sums(18, 2.4, m, p, "rows")
            b = twisted.twisted_sums(18, 2.4, m, p)
            resid = max(resid, *(abs(x - y) if y.method.startswith("operator") else 1.0 for x, y in zip(a, b)))
    out.append(CheckResult("zeta", "twisted partition sum: rows vs character iterate (n=18, r in {0.6, 1})",
                           resid, 1e-11))

    p = Params.floating(0.6)
    resid = abs(twisted.twisted_sums(10, 3.0, 0, p)[-1] - thermo.canonical_Z(10, 3.0, p))
    out.append(CheckResult("zeta", "m=0 twisted sum equals canonical Z", resid, 1e-12))

    return out


SUITES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "tree": suite_tree,
    "spin": suite_spin,
    "transfer": suite_transfer,
    "thermo": suite_thermo,
    "zeta": suite_zeta,
}


def run_suite(name: str, seed: int = 0) -> List[CheckResult]:
    if name == "all":
        results: List[CheckResult] = []
        for key in SUITES:
            results.extend(SUITES[key](seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
