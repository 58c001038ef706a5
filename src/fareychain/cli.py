"""Command-line front end: tables, sweeps and verification reports.

Subcommands mirror the library modules; all tabular output is CSV or
JSON-lines with a metadata header (tool version, echoed arguments,
arithmetic mode) so that runs are self-describing.  Outputs are
deterministic for a fixed argument list: exact-mode tables are
byte-identical across runs, float sweeps fix the reduction order.
The argument tree is built once per process (:func:`build_parser` is
cached); each :func:`main` call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__, coding, spinchain, thermo, transfer, twisted, verify
from . import tree as treemod
from .rings import Params
from .words import label


def _params(args) -> Params:
    mode = getattr(args, "mode", "float")
    r = getattr(args, "r", None)
    if mode == "symbolic":
        if r is not None:
            raise ValueError(f"--r {r} does nothing in symbolic mode, whose entries are polynomials in rho = 2 - r")
        return Params.symbolic()
    if r is None:
        raise ValueError("--r is required in numeric modes")
    try:
        value = Fraction(r) if mode == "exact" else float(Fraction(r))
    except (ValueError, ArithmeticError) as exc:  # not a number, p/0, or past the float range
        raise ValueError(f"--r {r} is not a finite rational or float ({exc})") from None
    return Params.exact(value) if mode == "exact" else Params.floating(value)


def parse_values(spec: str, arg: str = "grid", number=float) -> list:
    """Parse '0.5', '0.5,1,2' or 'start:stop:step' given for `arg`, each entry read by `number`: float, or
    Fraction for exact points, whose grid is counted exactly.  A float grid's last point is the last one not
    past stop beyond the rounding of (stop - start) / step, 4 eps (|start| + |stop|) / |step|.  A list or grid
    that is not finite, cannot reach stop or has over thermo.SWEEP_CAP points raises ValueError."""
    finite = math.isfinite if number is float else (lambda v: True)
    if ":" in spec:
        start, stop, step = (number(x) for x in spec.split(":"))
        if not all(map(finite, (start, stop, step))) or step == 0:
            raise ValueError(f"{arg} {spec!r} needs finite bounds and a finite nonzero step")
        span = (stop - start) / step
        if span < 0:
            raise ValueError(f"{arg} {spec!r}: the step leads away from stop")
        if number is float:
            span += 4.0 * sys.float_info.epsilon * (abs(start) + abs(stop)) / abs(step)
        if not span < thermo.SWEEP_CAP:  # floor(span) + 1 points; also refuses an overflowed span
            raise ValueError(f"{arg} {spec!r} has more than {thermo.SWEEP_CAP} points")
        return [start + i * step for i in range(math.floor(span) + 1)]
    values = [number(x) for x in spec.split(",")]
    if not all(map(finite, values)):
        raise ValueError(f"{arg} {spec!r} has an entry that is not finite")
    return values


_COUNT_MINIMUM = {"rows": 1, "grid": 1, "k": 0}


def _require_valid_args(args) -> None:
    """Refuse an inf or nan float argument, or a count below its minimum, before any work."""
    for key, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"--{key.replace('_', '-')} {val} is not finite")
        if key in _COUNT_MINIMUM and val < _COUNT_MINIMUM[key]:
            raise ValueError(f"--{key} {val} is below its minimum {_COUNT_MINIMUM[key]}")


@contextmanager
def _open_out(path: Optional[str]):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _meta(args, mode: str) -> Dict[str, str]:
    echo = " ".join(
        f"--{k.replace('_', '-')}={v}"
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    )
    return {"tool": f"fareychain {__version__}", "args": echo, "mode": mode}


def _require_finite(rows: List[Sequence], fieldnames: Sequence[str]) -> List[Sequence]:
    """`rows` (tuples in `fieldnames` order), refused before any output if a float in them is inf or nan."""
    for row in rows:
        for key, val in zip(fieldnames, row):
            if not all(math.isfinite(v) for v in (val if isinstance(val, list) else (val,)) if isinstance(v, float)):
                at = ", ".join(f"{k}={row[fieldnames.index(k)]}" for k in ("n", "s") if k in fieldnames)
                raise ValueError(f"{key} is not finite at {at}; nothing written")
    return rows


# The series subcommands run with numpy's floating-point warnings off: _require_finite refuses what overflowed.
_series_command = np.errstate(all="ignore")


def emit(rows: Iterable[Sequence], fieldnames: Sequence[str], args, default_format: str = "csv") -> None:
    """Write the metadata header, then `rows` (tuples in `fieldnames` order) as CSV, where None is an
    empty cell, or as JSON lines keyed by `fieldnames`, where None is null: in the --format given,
    else in `default_format`."""
    meta = _meta(args, getattr(args, "mode", "float"))
    with _open_out(getattr(args, "out", None)) as fh:
        if (getattr(args, "format", None) or default_format) == "csv":
            fh.writelines(f"# {key}: {val}\n" for key, val in meta.items())
            writer = csv.writer(fh)
            writer.writerow(fieldnames)
            writer.writerows(rows)
        else:
            fh.write(json.dumps({"meta": meta}, allow_nan=False) + "\n")
            fh.writelines(json.dumps(dict(zip(fieldnames, row)), allow_nan=False) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tree(args) -> int:
    if args.adjacency and args.extended:
        raise ValueError("--extended does nothing with --adjacency, whose JSON holds the tree rows alone")
    p = _params(args)
    try:  # the records stream, so the table cap is refused here, before the header
        records = treemod.row_records(args.rows, p, args.extended)
    except ValueError as exc:
        raise ValueError(f"--rows {args.rows}: {exc}") from None
    if args.adjacency:
        with _open_out(args.out) as fh:
            fh.write(json.dumps(treemod.tree_adjacency(records), indent=1) + "\n")
        return 0
    emit(records, ["level", "sigma", "p", "q", "value"], args)
    return 0


def _require_path_args(args) -> None:
    """Refuse, before any work, what the path descent of `code` and `conjugacy` cannot take: symbolic mode,
    whose vertices have no value to compare x with, and a --depth outside 1..63, past which h's truncation
    error 2^(1-depth) is below a float's rounding near 1/2 and a code outgrows the path words of the tree."""
    if args.mode == "symbolic":
        raise ValueError(f"--mode symbolic has no vertex values to compare x with; {args.command} takes float or exact")
    if not 1 <= args.depth <= 63:
        raise ValueError(f"--depth {args.depth} is outside 1..63; past 63 bits h's truncation error is below "
                         "a float's rounding near 1/2")


def cmd_code(args) -> int:
    _require_path_args(args)
    p = _params(args)
    xs = parse_values(args.x, "--x", Fraction if args.mode == "exact" else float)
    records = [(str(x), "".join(map(str, coding.encode_point(x, p, args.depth)))) for x in xs]
    emit(records, ["x", "code"], args)
    return 0


def cmd_conjugacy(args) -> int:
    if args.grid >= thermo.SWEEP_CAP:
        raise ValueError(f"--grid {args.grid} gives {args.grid + 1} points, more than {thermo.SWEEP_CAP}")
    _require_path_args(args)
    p = _params(args)
    xs = (Fraction(i, args.grid) if args.mode == "exact" else i / args.grid for i in range(args.grid + 1))
    records = ((str(x), repr(coding.conjugacy_h(x, p, args.depth)), args.depth) for x in xs)
    emit(records, ["x", "h", "depth"], args)
    return 0


_SPIN_TABLE_MODES = {"q": ("float", "exact", "symbolic"), "qhat": ("float", "exact"), "interaction": ("float",)}


def cmd_spin(args) -> int:
    modes = _SPIN_TABLE_MODES[args.table]
    if args.mode not in modes:  # the transform divides by 2^k; the interaction takes logs
        raise ValueError(f"--table {args.table} is computed in {' or '.join(modes)} mode, not {args.mode}")
    p = _params(args)
    k = args.k
    if args.table == "q":
        values = map(str, spinchain.q_table(k, p))
    elif args.table == "qhat":
        values = map(str, spinchain.q_hat_table(k, p))
    else:  # interaction
        q_hat = spinchain.interaction_coefficients(k, p)
        values = map(repr, (0.0 - q_hat).tolist())  # 0.0 - x, not -x: an exact zero prints 0.0, not -0.0
        worst = spinchain.ferromagnetic_violation(q_hat)
        print(f"# ferromagnetic check: max Q^(t), t != 0 is {worst:.3e} (needs <= 1e-12)", file=sys.stderr)
    emit(zip((label(i, k) for i in range(1 << k)), values), ["t", "value"], args)
    return 0


# trace, xi and twisted: the library call on the parsed arguments, and the arguments heading each record
_SERIES = {
    "trace": (lambda a: transfer.trace_sums(a.n, a.s, a.r, signed=a.signed), ("r", "s")),
    "xi": (lambda a: transfer.periodic_sums_xi(a.n, a.s, a.r), ("r", "s")),
    "twisted": (lambda a: twisted.twisted_sums(a.n, a.s, a.m, Params.floating(a.r)), ("r", "s", "m")),
}


@_series_command
def cmd_series(args) -> int:
    """One record per n: head arguments, n, the value as [re, im], its route and its error (None if it has none)."""
    call, head = _SERIES[args.command]
    fields = [*head, "n", "value", "method", "error_estimate"]
    rows = [(*(getattr(args, key) for key in head), n, [val.real, val.imag], val.method, val.error)
            for n, val in enumerate(call(args), 1)]
    emit(_require_finite(rows, fields), fields, args, default_format="jsonl")
    return 0


_ZETA_DEFAULTS = {"z": 0.5, "s": 1.0, "r": 0.5, "N": 14}  # of the determinant record; the --m table's is --qmax 100


@_series_command
def cmd_zeta(args) -> int:
    """The --m table or the determinant record, each echoing only the arguments it uses; a flag of the other refused."""
    given = [key for key in _ZETA_DEFAULTS if getattr(args, key) is not None]
    if args.m is not None:
        if given:
            raise ValueError(f"--{given[0]} does nothing with --m, whose table takes --qmax alone")
        args = argparse.Namespace(**{**vars(args), "qmax": 100 if args.qmax is None else args.qmax})
        twisted.sieve_size(args.qmax, "--qmax")  # checked first: the table streams, a later refusal follows the header
        records = ((q, twisted.mu_twisted(args.m, q)) for q in range(1, args.qmax + 1))
        emit(records, ["q", "mu_m"], args)
        return 0
    if args.qmax is not None:
        raise ValueError(f"--qmax {args.qmax} does nothing without --m, the table it bounds")
    args = argparse.Namespace(**{**vars(args), **{key: val for key, val in _ZETA_DEFAULTS.items() if key not in given}})
    fz = transfer.fredholm_and_zeta(complex(args.z), args.s, args.r, N=args.N)
    fields = ["r", "s", "z", "n", "det", "zeta_orbit_sum", "zeta_det_ratio", "method", "error_estimate", "converged"]
    row = (args.r, args.s, args.z, args.N, [fz.det.real, fz.det.imag], [fz.zeta_exp.real, fz.zeta_exp.imag],
           [fz.zeta_ratio.real, fz.zeta_ratio.imag], f"first-return series, dim {transfer.SERIES_DIM} + orbit sums",
           fz.tail_estimate if math.isfinite(fz.tail_estimate) else None, fz.converged)
    if row[-2] is None:
        fields.append("error_reason")
        row += ("no tail fit of the orbit sums at N - 1 and N (needs N >= 3 and |z g| < 1)",)
    emit(_require_finite([row], fields), fields, args, default_format="jsonl")
    return 0


def cmd_lambda(args) -> int:
    res = transfer.spectral_radius(args.s, args.r, tol=args.tol)
    fields = ["r", "s", "dim", "value", "method", "error_estimate"]
    row = (args.r, args.s, res.dim, res.value, res.method, res.error)
    emit(_require_finite([row], fields), fields, args, default_format="jsonl")
    return 0


def cmd_thermo(args) -> int:
    points = thermo.thermo_sweep(args.r, parse_values(args.s, "--s"), args.n)
    # ZC is inf past the float range: an empty cell, or null
    emit((pt if pt.ZC < math.inf else pt._replace(ZC=None) for pt in points), thermo.ThermoPoint._fields, args)
    return 0


def cmd_phase(args) -> int:
    pts = [thermo.critical_line(Params.floating(r), tol=args.tol) for r in parse_values(args.r_grid, "--r-grid")]
    records = [(pt.r, repr(pt.s_cr), repr(pt.error), repr(pt.slope), pt.method) for pt in pts]
    emit(records, ["r", "s_cr", "error", "slope", "method"], args)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, seed=args.seed)
    width = max(len(c.name) for c in results)
    failures = 0
    for c in results:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.suite:<9} {c.name:<{width}}  residual {c.residual:.3e}  tol {c.tol:.1e}")
        failures += 0 if c.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(sp, *, mode=True, fmt=True):
    if mode:
        sp.add_argument("--mode", choices=("float", "exact", "symbolic"), default="float")
    if fmt:
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parse_args only fills a fresh Namespace."""
    ap = argparse.ArgumentParser(
        prog="fareychain",
        description="Generalized Farey trees, transfer operators and spin-chain thermodynamics.",
    )
    ap.add_argument("--version", action="version", version=f"fareychain {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tree", help="emit tree rows (or the extended tree)")
    sp.add_argument("--rows", "--n", dest="rows", type=int, required=True)
    sp.add_argument("--r", default=None)
    sp.add_argument("--extended", action="store_true")
    sp.add_argument("--adjacency", action="store_true", help="emit rooted-tree JSON instead of rows")
    _add_common(sp)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("code", help="edge-label codes of points")
    sp.add_argument("--r", required=True)
    sp.add_argument("--x", required=True, help="comma list or start:stop:step")
    sp.add_argument("--depth", type=int, default=32)
    _add_common(sp)
    sp.set_defaults(func=cmd_code)

    sp = sub.add_parser("conjugacy", help="(x, h_r(x)) table of the conjugacy to the tent map")
    sp.add_argument("--r", required=True)
    sp.add_argument("--depth", type=int, default=40)
    sp.add_argument("--grid", type=int, default=256)
    _add_common(sp)
    sp.set_defaults(func=cmd_conjugacy)

    sp = sub.add_parser("spin", help="spin-chain tables: q, its Fourier transform, interactions")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", default=None)
    sp.add_argument("--table", choices=("q", "qhat", "interaction"), default="q")
    _add_common(sp)
    sp.set_defaults(func=cmd_spin)

    for name, extra, what in (
        ("trace", ("signed",), "trace(P_s^n), r in [0, 1) (--signed: of the signed operator)"),
        ("xi", (), "Xi_n(s), the sum over period-n points of |(F^n)'|^(-s), r in [0, 1]"),
    ):
        sp = sub.add_parser(
            name, help=f"{what}, for n = 1 .. N",
            description=f"{what}, for n = 1 .. N <= {transfer.SERIES_CAP}, from the first-return block series at "
            f"dim {transfer.SERIES_DIM} (transfer._return_series).  Each JSON line carries the value [re, im], "
            f"its method (\"first-return series, dim {transfer.SERIES_DIM}\") and error_estimate, the change from "
            "the 3 dim/4 rerun floored at rounding.")
        sp.add_argument("--n", type=int, required=True, help=f"largest n, at most {transfer.SERIES_CAP}")
        sp.add_argument("--s", type=float, required=True)
        sp.add_argument("--r", type=float, required=True)
        if "signed" in extra:
            sp.add_argument("--signed", action="store_true")
        _add_common(sp, mode=False, fmt=False)
        sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("zeta", help="dynamical zeta/determinant, or mu^(m) tables with --m")
    sp.add_argument("--m", type=int, default=None, help="emit the twisted Moebius table instead")
    sp.add_argument("--qmax", type=int, help=f"largest q of the --m table (default 100), at most the sieve cap "
                    f"{twisted.SIEVE_CAP}")
    sp.add_argument("--z", type=float, help="default 0.5")
    sp.add_argument("--s", type=float, help="default 1.0")
    sp.add_argument("--r", type=float, help="default 0.5")
    sp.add_argument("--N", type=int, help=f"the traces n <= N of the series (default 14), at most {transfer.SERIES_CAP}")
    sp.add_argument("--format", choices=("csv", "jsonl"), default=None,
                    help="default csv for the --m table, jsonl for the determinant record")
    _add_common(sp, mode=False, fmt=False)
    sp.set_defaults(func=cmd_zeta)

    sp = sub.add_parser("lambda", help="spectral radius of the transfer operator, r in [0, 1]: the first-return "
                        "root (method: with its evaluations) or the fixed point's rho^-s; error_estimate <= --tol")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10, help="bound on the absolute error of lambda, at least 1e-14; "
                    "below about 1e-10 the dim term can exceed it, and the run refuses, naming the term")
    _add_common(sp, mode=False, fmt=False)
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser(
        "thermo", help="Z^C, F_n, M_n sweep from operator iterates",
        description="Z^C_n, F_n and M_n for n = 2 .. N, r in [0, 1], from the operator iterates "
        "Z^G_k(s) = 2^(-s) f_k(1/2), f_0 = 1, f_(k+1) = rho^(-s/2) P_(s/2) f_k, on the Chebyshev "
        f"compression at a dim of the ladder {', '.join(map(str, transfer.SWEEP_DIMS))} "
        "(transfer._dim_ladder).  Columns: "
        "r, s, n, ZC, Fn, Mn, logZC, error (the relative error of ZC, the absolute error of logZC) "
        "and dim.  ZC is empty where Z^C_n exceeds the float range; logZC is always given.  "
        f"N times the number of s values is capped at {thermo.SWEEP_CAP}.",
    )
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--s", required=True, help="value, comma list, or start:stop:step")
    sp.add_argument("--n", type=int, required=True, help=f"largest n; n * len(s) <= {thermo.SWEEP_CAP}")
    _add_common(sp, mode=False)
    sp.set_defaults(func=cmd_thermo)

    sp = sub.add_parser("phase", help="critical curve (r, s_cr)")
    sp.add_argument("--r-grid", dest="r_grid", required=True, help="start:stop:step")
    sp.add_argument("--tol", type=float, default=1e-4)
    _add_common(sp, mode=False)
    sp.set_defaults(func=cmd_phase)

    sp = sub.add_parser("twisted", help="character-twisted partition sums Z_n^(m); each JSON line carries its method "
                        "and error_estimate (null on the tree-row sum, which computes none)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r", type=float, required=True)
    _add_common(sp, mode=False, fmt=False)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("verify", help="run an invariant suite and report residuals")
    sp.add_argument("suite", choices=("tree", "spin", "transfer", "thermo", "zeta", "all"))
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require_valid_args(args)
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
