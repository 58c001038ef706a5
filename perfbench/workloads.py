"""The benchmark's workloads: the operations of one round, and their checks.

Each workload turns a seed into a fixed list of operations.  An operation
calls the program through a public entry point -- ``fareychain.cli.main``
in-process for subcommands, a public library function otherwise -- and
returns what a user would see: the exit code and standard output of a
subcommand, or the value of a function.  Checks compare those outputs
with :mod:`oracle` or with properties stated in the paper, never with a
stored copy of earlier output.  Checks are never timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Set

import numpy as np

import oracle
from fareychain import cli, thermo, transfer
from fareychain.rings import Params


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]


@dataclass
class CheckReport:
    """Per-operation failure messages, and failures of the whole round."""

    failed: Dict[str, str] = field(default_factory=dict)
    global_failures: List[str] = field(default_factory=list)

    def fail(self, op: str, message: str) -> None:
        self.failed.setdefault(op, message)


def cli_op(name: str, argv: List[str]) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op(name, call)


def _csv_rows(out: str) -> List[Dict[str, str]]:
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _jsonl_rows(out: str) -> List[dict]:
    recs = [json.loads(line) for line in out.splitlines() if line]
    if not recs or "meta" not in recs[0]:
        raise ValueError("missing metadata header")
    return recs[1:]


def _close(a: complex, b: complex, rel: float, scale: Optional[float] = None) -> bool:
    return abs(a - b) <= rel * (abs(b) if scale is None else scale)


def _cli_output(report: CheckReport, name: str, result) -> Optional[str]:
    code, out = result
    if code != 0:
        report.fail(name, f"exit code {code}")
        return None
    return out


# ---------------------------------------------------------------------------
# thermo_sweep
# ---------------------------------------------------------------------------


class ThermoSweep:
    """`fareychain thermo` at r = 0.7 over an s-grid across s_cr(0.7) ~ 1.4308."""

    R = 0.7
    N = 18
    ORACLE_N = 14
    OFFSETS = (-0.4, -0.25, -0.15, -0.05, 0.05, 0.15, 0.25, 0.4)
    known_faults: Set[str] = set()

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.s_values = [round(1.4308 + d + rng.uniform(-0.02, 0.02), 6) for d in self.OFFSETS]
        grid = ",".join(f"{s:.6f}" for s in self.s_values)
        self.ops = [cli_op("thermo", ["thermo", "--r", str(self.R), "--s", grid, "--n", str(self.N)])]

    def check(self, outputs: Dict[str, object]) -> CheckReport:
        report = CheckReport()
        out = _cli_output(report, "thermo", outputs["thermo"])
        if out is None:
            return report
        rows = _csv_rows(out)
        if len(rows) != len(self.s_values) * (self.N - 1):
            report.fail("thermo", f"{len(rows)} rows")
            return report
        for i, s in enumerate(self.s_values):
            block = rows[i * (self.N - 1):(i + 1) * (self.N - 1)]
            zc_ref = oracle.canonical_Z_series(self.ORACLE_N, s, self.R)
            prev_zc = None
            for row in block:
                n, zc, fn, mn = int(row["n"]), float(row["ZC"]), float(row["Fn"]), float(row["Mn"])
                tag = f"s={s} n={n}"
                if float(row["s"]) != s or float(row["r"]) != self.R:
                    report.fail("thermo", f"{tag}: parameters not echoed")
                if n <= self.ORACLE_N and not _close(zc, zc_ref[n - 1], 1e-12):
                    report.fail("thermo", f"{tag}: Z^C {zc} vs oracle {zc_ref[n - 1]}")
                if not fn >= 0.0:
                    report.fail("thermo", f"{tag}: F_n = {fn} < 0")
                if not 0.0 <= mn <= 1.0:
                    report.fail("thermo", f"{tag}: M_n = {mn} outside [0, 1]")
                if prev_zc is not None:
                    if not zc > prev_zc:
                        report.fail("thermo", f"{tag}: Z^C not increasing in n")
                    # F_n = log(2 Z^C_{n-1}) / n
                    if not _close(fn, math.log(2.0 * prev_zc) / n, 1e-12):
                        report.fail("thermo", f"{tag}: F_n does not match Z^C_(n-1)")
                prev_zc = zc
        return report


# ---------------------------------------------------------------------------
# phase_curve
# ---------------------------------------------------------------------------


class PhaseCurve:
    """`fareychain phase`, one operation per r; r = 0.98 and 0.99 are known faults."""

    TOL = 1e-6
    R_VALUES = tuple(round(0.05 * i, 2) for i in range(20)) + (0.98, 0.99)
    known_faults = {"phase r=0.98", "phase r=0.99"}

    def __init__(self, seed: int):
        order = list(self.R_VALUES)
        random.Random(seed).shuffle(order)
        self.ops = [
            cli_op(f"phase r={r:.2f}", ["phase", "--r-grid", f"{r:.2f}", "--tol", str(self.TOL)])
            for r in order
        ]

    def check(self, outputs: Dict[str, object]) -> CheckReport:
        report = CheckReport()
        curve = []
        for r in self.R_VALUES:
            name = f"phase r={r:.2f}"
            out = _cli_output(report, name, outputs[name])
            if out is None:
                continue
            rows = _csv_rows(out)
            if len(rows) != 1 or float(rows[0]["r"]) != r:
                report.fail(name, "expected one row for the requested r")
                continue
            s_cr, err = float(rows[0]["s_cr"]), float(rows[0]["error"])
            ref, ref_err = oracle.critical_s_with_error(r)
            if not math.isfinite(err):
                report.fail(name, f"s_cr = {s_cr} with error {err}; oracle {ref:.9f}")
            elif abs(s_cr - ref) > err + self.TOL + ref_err:
                report.fail(name, f"s_cr = {s_cr} +- {err}; oracle {ref:.9f} +- {ref_err:.1e}")
            else:
                curve.append((r, s_cr, err + self.TOL))
        for (r0, s0, e0), (r1, s1, e1) in zip(curve, curve[1:]):
            if not s1 > s0 - e0 - e1:
                report.global_failures.append(f"s_cr not increasing between r={r0} and r={r1}")
        for a, b, c in zip(curve, curve[1:], curve[2:]):
            slope_ab = (b[1] - a[1]) / (b[0] - a[0])
            slope_bc = (c[1] - b[1]) / (c[0] - b[0])
            slack = (a[2] + b[2]) / (b[0] - a[0]) + (b[2] + c[2]) / (c[0] - b[0])
            if slope_bc < slope_ab - slack:
                report.global_failures.append(f"s_cr not convex at r={b[0]}")
        return report


# ---------------------------------------------------------------------------
# leaf_sums
# ---------------------------------------------------------------------------


class LeafSums:
    """Leaf-stream subcommands at n = 18 and the iterate functions at n = 20;
    `zeta` at z = 0.5 is a known fault."""

    N = 18
    N_ITERATE = 20
    ZETA_N = 14
    # the reported tail does not bound the gap between the two zeta routes
    # at z = 0.5, the CLI's default; these inputs are fixed, so it fails in
    # every round
    known_faults = {"zeta z=0.5"}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.r = round(rng.uniform(0.45, 0.75), 6)
        self.s = round(rng.uniform(0.9, 1.5), 6)
        self.m = rng.choice((1, 2, 3))
        self.x = round(rng.uniform(0.1, 0.9), 6)
        # the orbit-sum and determinant routes agree to rounding for |z| <= 0.25;
        # at larger z the check fails on some draws only, so the fault is
        # measured by the fixed-input "zeta z=0.5" operation instead
        self.z = round(rng.uniform(0.15, 0.25), 6)
        common = ["--n", str(self.N), "--s", str(self.s), "--r", str(self.r)]
        q = transfer.TransferQuery(self.s, self.r, self.N_ITERATE)
        self.ops = [
            cli_op("twisted m", ["twisted", *common, "--m", str(self.m)]),
            cli_op("twisted m=0", ["twisted", *common, "--m", "0"]),
            cli_op("trace", ["trace", *common]),
            cli_op("trace signed", ["trace", *common, "--signed"]),
            cli_op("xi", ["xi", *common]),
            cli_op("zeta", ["zeta", "--z", str(self.z), "--s", str(self.s), "--r", str(self.r),
                            "--N", str(self.ZETA_N)]),
            cli_op("zeta z=0.5", ["zeta", "--z", "0.5", "--s", "1.0", "--r", "0.55", "--N", str(self.ZETA_N)]),
            Op("iterate_one", lambda: transfer.iterate_one(self.x, q)),
            Op("iterate_character", lambda: transfer.iterate_character(self.x, q, self.m)),
        ]

    def _series(self, report: CheckReport, name: str, result) -> Optional[List[complex]]:
        out = _cli_output(report, name, result)
        if out is None:
            return None
        rows = _jsonl_rows(out)
        if [rec["n"] for rec in rows] != list(range(1, self.N + 1)):
            report.fail(name, "expected one record per n = 1..N")
            return None
        return [complex(*rec["value"]) for rec in rows]

    def check(self, outputs: Dict[str, object]) -> CheckReport:
        report = CheckReport()
        r, s, m, N = self.r, self.s, self.m, self.N
        zc = oracle.twisted_Z(N, s, 0, r)
        zm = oracle.twisted_Z(N, s, m, r)
        series = {name: self._series(report, name, outputs[name])
                  for name in ("twisted m", "twisted m=0", "trace", "trace signed", "xi")}
        for n in range(1, N + 1):
            tr = oracle.trace(s, r, n)
            refs = {
                "twisted m": (zm[n - 1], zc[n - 1].real),
                "twisted m=0": (zc[n - 1], zc[n - 1].real),
                "trace": (tr, None),
                "trace signed": (oracle.trace(s, r, n, signed=True), abs(tr)),
                "xi": (oracle.periodic_sum(s, r, n), None),
            }
            for name, (ref, scale) in refs.items():
                vals = series[name]
                if vals is not None and not _close(vals[n - 1], ref, 1e-11, scale):
                    report.fail(name, f"n={n}: {vals[n - 1]} vs oracle {ref}")
        if series["twisted m=0"] is not None and any(abs(v.imag) > 1e-12 * abs(v) for v in series["twisted m=0"]):
            report.fail("twisted m=0", "Z^(0) is not real")

        for name in ("zeta", "zeta z=0.5"):
            out = _cli_output(report, name, outputs[name])
            if out is None:
                continue
            (rec,) = _jsonl_rows(out)
            orbit, ratio = complex(*rec["zeta_orbit_sum"]), complex(*rec["zeta_det_ratio"])
            if not abs(orbit - ratio) <= rec["error_estimate"] + 1e-12 * abs(ratio):
                report.fail(name, f"orbit sum {orbit} vs determinant ratio {ratio}, "
                                  f"reported tail {rec['error_estimate']}")

        n, x = self.N_ITERATE, self.x
        one = oracle.apply_power(np.ones_like, x, s, r, n)
        if not _close(outputs["iterate_one"], one, 1e-11):
            report.fail("iterate_one", f"{outputs['iterate_one']} vs oracle {one}")
        char = oracle.apply_power(lambda y: np.exp(2j * math.pi * m * y), x, s, r, n)
        if not _close(outputs["iterate_character"], char, 1e-11, abs(one)):
            report.fail("iterate_character", f"{outputs['iterate_character']} vs oracle {char}")
        return report


# ---------------------------------------------------------------------------
# exact_tables
# ---------------------------------------------------------------------------


def _parse_rho_poly(text: str) -> List[int]:
    """Coefficient list of a polynomial printed as '2 + 3*rho + -1*rho^2'."""
    coeffs: Dict[int, int] = {}
    if text != "0":
        for term in text.split(" + "):
            head, has_rho, power = term.partition("rho")
            if not has_rho:
                c, e = int(term), 0
            else:
                c = int(head[:-1]) if head else 1
                e = int(power[1:]) if power else 1
            coeffs[e] = coeffs.get(e, 0) + c
    out = [coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


class ExactTables:
    """Object-mode arithmetic: symbolic tree rows, exact q-hat, exact Z^C."""

    ROWS = 11
    ORACLE_ROWS = 10
    K = 9
    R = Fraction(1, 3)
    S = 4
    N = 11
    ROUTES = ("rows", "cumulative", "transfer")
    known_faults: Set[str] = set()

    def __init__(self, seed: int):
        params = Params.exact(self.R)
        ops = [
            cli_op("tree symbolic", ["tree", "--rows", str(self.ROWS), "--mode", "symbolic"]),
            cli_op("spin qhat", ["spin", "--k", str(self.K), "--mode", "exact", "--r", str(self.R),
                                 "--table", "qhat"]),
        ]
        ops += [Op(f"canonical_Z {route}", lambda route=route: thermo.canonical_Z(self.N, self.S, params, route))
                for route in self.ROUTES]
        # exact-arithmetic cost depends on the bit length of r and s, so the
        # seed only permutes the operations
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def check(self, outputs: Dict[str, object]) -> CheckReport:
        report = CheckReport()
        out = _cli_output(report, "tree symbolic", outputs["tree symbolic"])
        if out is not None:
            self._check_tree(report, _csv_rows(out))

        out = _cli_output(report, "spin qhat", outputs["spin qhat"])
        if out is not None:
            rows = _csv_rows(out)
            q_row = [q for _p, q in oracle.tree_rows_exact(self.K + 1, self.R)[-1]]
            ref = oracle.walsh_hat_exact(q_row)
            got = [Fraction(row["value"]) for row in rows]
            if [row["t"] for row in rows] != [format(i, f"0{self.K}b") for i in range(1 << self.K)]:
                report.fail("spin qhat", "words out of order")
            elif got != ref:
                report.fail("spin qhat", "q-hat differs from the oracle's character sums")
            elif any(v != 0 for i, v in enumerate(got) if i.bit_count() % 2):
                report.fail("spin qhat", "q-hat nonzero at an odd-weight word")

        ref_z = oracle.canonical_Z_exact(self.N, self.S, self.R)
        for route in self.ROUTES:
            name = f"canonical_Z {route}"
            if outputs[name] != ref_z:
                report.fail(name, "differs from the oracle's exact Z^C")
        return report

    def _check_tree(self, report: CheckReport, rows: List[Dict[str, str]]) -> None:
        name = "tree symbolic"
        by_level: Dict[int, List] = {}
        for row in rows:
            by_level.setdefault(int(row["level"]), []).append(
                (row["sigma"], _parse_rho_poly(row["p"]), _parse_rho_poly(row["q"])))
        if sorted(by_level) != list(range(1, self.ROWS + 1)):
            report.fail(name, "missing levels")
            return
        ref_rows = oracle.tree_rows_exact(self.ORACLE_ROWS)
        for level, nodes in by_level.items():
            words = [format(i, f"0{level - 1}b") if level > 1 else "" for i in range(1 << (level - 1))]
            if [sigma for sigma, _p, _q in nodes] != words:
                report.fail(name, f"level {level}: path words out of order")
                return
            if level <= self.ORACLE_ROWS and [(p, q) for _s, p, q in nodes] != ref_rows[level - 1]:
                report.fail(name, f"level {level}: differs from the matrix products")
            # p(sigma) + p(bar sigma) = q(sigma) = q(bar sigma)
            for (_s, p, q), (_sb, pbar, qbar) in zip(nodes, reversed(nodes)):
                if q != qbar or oracle.poly_add(p, pbar) != q:
                    report.fail(name, f"level {level}: p + p-bar = q = q-bar fails")
                    break


WORKLOADS = {
    "thermo_sweep": ThermoSweep,
    "phase_curve": PhaseCurve,
    "leaf_sums": LeafSums,
    "exact_tables": ExactTables,
}
