"""Differential checks of the blocked depth-first level walk, of the CLI's input checks, and
of the two routes to the critical exponent and to the character iterates.

Every leaf and row series reads spinchain._walk, which hands over levels up to
2^_BLOCK_LEVELS columns as whole rows and every wider level in blocks of that width,
walked depth first, so its memory is one pending block per level, not one row.  With
_BLOCK_LEVELS at 1..4 a level of n <= 12 comes in many blocks, so these draws run the
blocked walk that rows wider than 2^13 take, against the whole rows that the default
block gives at this size.  The character iterates walk only through iterate_general (and
the r > 1 fallback of iterate_one and iterate_character), and the twisted sums only through
their rows route: on r in [0, 1] iterate_one, iterate_character and the default route of
twisted_sums read the Chebyshev compression, which these draws check against the walk
within its reported error.  The traces and Xi_n walk only as method="leaves"; their
default route, the first-return series, is drawn against the fixed-point oracles in
test_transfer.py.
"""

import contextlib
import io
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareychain import cli, spinchain, thermo, transfer, twisted
from fareychain.rings import Params
from fareychain.transfer import TransferQuery
from test_thermo import _reference_critical_s

X = 0.3  # the point at which the character iterates are taken


def _series(n, s, r):
    """{name: (values, scale)} for every leaf and row series at (n, s, r).

    scale bounds the sum of the absolute terms of each entry, so rounding
    from a new summation order is small against it: the series itself when
    its terms are positive, its m = 0 or unsigned counterpart otherwise."""
    p = Params.floating(r)
    trace = transfer.trace_sums(n, s, r, method="leaves")
    char0 = [transfer.iterate_general(np.ones_like, X, s, r, n - 1)]
    rows0 = twisted.twisted_sums(n, s, 0, p, "rows")
    zg = thermo._grand_sums(n - 1, [s, s + 1.0], p)
    return {
        "trace": (trace, trace),
        "signed trace": (transfer.trace_sums(n, s, r, signed=True, method="leaves"), trace),
        "xi": (transfer.periodic_sums_xi(n, s, r, method="leaves"), None),
        "character m=0": (char0, char0),
        "character m=2": ([transfer.iterate_general(lambda y: np.exp(4j * np.pi * y), X, s, r, n - 1)], char0),
        "twisted rows m=0": (rows0, rows0),
        "twisted rows m=2": (twisted.twisted_sums(n, s, 2, p, "rows"), rows0),
        "grand sums": (zg[0] + zg[1], None),
        "grand Z": ([thermo.grand_Z(n - 1, s, p)], None),
        "canonical transfer": ([thermo.canonical_Z(n, s, p, "transfer")], None),
    }


def _operator_iterates(n, s, r):
    """{series name: the same iterate from the Chebyshev compression}, within its error of the walk."""
    q = TransferQuery(s, r, n)
    return {"character m=0": transfer.iterate_one(X, q), "character m=2": transfer.iterate_character(X, q, 2)}


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 0.95), st.floats(0.3, 2.5), st.integers(1, 12), st.integers(1, 4))
def test_chunked_walk_matches_whole_rows(r, s, n, block):
    whole = _series(n, s, r)
    widths = []
    step = spinchain._step

    def recorded_step(x, children, flip):
        out = step(x, children, flip)
        widths.append(out.shape[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spinchain, "_BLOCK_LEVELS", block)
        mp.setattr(spinchain, "_step", recorded_step)
        blocked = _series(n, s, r)
        operator = _operator_iterates(n, s, r)
    assert max(widths, default=1) <= 2**block  # every stepped block, and so every summed one
    for name, (values, scale) in blocked.items():
        reference = whole[name][0]
        assert len(values) == len(reference), name
        for a, b, c in zip(values, reference, reference if scale is None else scale):
            assert abs(a - b) <= 1e-13 * abs(c), (name, a, b)
    scale = abs(whole["character m=0"][0][0])
    for name, value in operator.items():
        assert value.method.startswith("operator iterates"), (name, value.method)
        assert abs(value - blocked[name][0][0]) <= value.error + 1e-13 * scale, (name, value, value.error)


@pytest.mark.parametrize("width", [None, math.inf], ids=["default width", "whole rows"])
@pytest.mark.parametrize("params", [Params.floating(0.5), Params.exact(Fraction(1, 3)), Params.symbolic()],
                         ids=lambda p: p.mode)
@pytest.mark.parametrize("stream", [spinchain._tree_stream, transfer._pair_stream, transfer._quad_stream,
                                    transfer._matrix_stream], ids=lambda stream: stream.__name__)
def test_walk_frees_each_level(stream, params, width):
    """Once the walk yields a level and the caller holds no earlier one, no earlier level is alive: at depth 12
    every level is one whole row at both widths, so the walk keeps at most the level it last yielded."""
    levels = []
    for level, x in spinchain._walk(stream, 12, params, width):
        assert [j for j, ref in enumerate(levels) if ref() is not None] == [], level
        levels.append(weakref.ref(x))
    assert len(levels) == 13 and x.shape[1] == 1 << 12


_finite = st.floats(-10.0, 10.0)
_step = st.floats(1e-3, 10.0)
_bad_grids = st.one_of(
    st.builds(lambda a, d, h: f"{a + d}:{a}:{h}", _finite, st.floats(1e-3, 10.0), _step),  # reversed
    st.builds(lambda a, b: f"{a}:{b}:0", _finite, _finite),  # zero step
    st.builds(lambda a, bad, i: ":".join(bad if j == i else v for j, v in enumerate((str(a), str(a + 1.0), "0.1"))),
              _finite, st.sampled_from(["inf", "-inf", "nan"]), st.integers(0, 2)),  # non-finite
    st.builds(lambda a, h, k: f"{a}:{a + (thermo.SWEEP_CAP + k) * h}:{h}", _finite, _step, st.integers(1, 10**9)),
)


def _bad_tols(floor):
    return st.one_of(st.sampled_from(["0", "-1", "1e-300", "nan", "inf", "-inf"]),
                     st.floats(max_value=0.99 * floor).map(repr))


_non_finite = st.sampled_from(["nan", "inf", "-inf", "1e400"])
_bad_lists = st.builds(lambda bad, i: ",".join(bad if j == i else str(0.5 + j) for j in range(3)),
                       _non_finite, st.integers(0, 2))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_PATH_COMMANDS = (["code", "--r", "0.5", "--x", "0.3"], ["conjugacy", "--r", "0.5", "--grid", "4"])


@settings(max_examples=80, deadline=None)
@example(["zeta", "--m", "1", "--qmax=1048577"])  # one above the sieve cap 2^20
@example(["zeta", "--qmax=50"])  # the determinant record has no q to bound
@example(["zeta", "--m", "1", "--z=0.3"])  # the --m table takes no z, s, r or N
@example([*_PATH_COMMANDS[0], "--depth=64"])  # one past the --depth cap 63
@example([*_PATH_COMMANDS[1], "--depth=64"])
@example([*_PATH_COMMANDS[0], "--mode=symbolic"])  # a symbolic vertex has no value to compare x with
@example([*_PATH_COMMANDS[1], "--mode=symbolic"])
@example(["tree", "--rows=28", "--r", "0.5"])  # past the float-mode table cap: refused before the header
@example(["tree", "--rows=18", "--mode", "symbolic"])
@example(["tree", "--rows", "3", "--mode", "symbolic", "--r=0.5"])  # a symbolic row has no r to use
@example(["tree", "--rows", "3", "--r", "0.5", "--adjacency", "--extended"])  # the adjacency JSON has no reflection
@example(["zeta", "--z=1e100"])  # |z|^N past the float range: refused before the series
@example(["tree", "--rows", "3", "--r=1/0"])  # not a number: refused before any row
@given(st.one_of(
    _bad_grids.map(lambda g: ["thermo", "--r", "0.5", f"--s={g}", "--n", "4"]),
    _bad_grids.map(lambda g: ["phase", f"--r-grid={g}"]),
    _bad_grids.map(lambda g: ["code", "--r", "0.5", f"--x={g}"]),
    _bad_tols(1e-12).map(lambda t: ["phase", "--r-grid", "0:0.5:0.25", f"--tol={t}"]),
    _bad_tols(1e-14).map(lambda t: ["lambda", "--s", "1", "--r", "0.5", f"--tol={t}"]),
    st.integers(max_value=0).map(lambda k: ["tree", f"--rows={k}", "--r", "0.5"]),
    st.integers(min_value=spinchain.FLOAT_TABLE_CAP + 2).map(lambda k: ["tree", f"--rows={k}", "--r", "0.5"]),
    st.integers(max_value=0).map(lambda k: ["conjugacy", "--r", "0.5", f"--grid={k}"]),
    st.integers(max_value=-1).map(lambda k: ["spin", f"--k={k}", "--r", "0.5"]),
    st.integers(max_value=0).map(lambda k: ["zeta", "--m", "1", f"--qmax={k}"]),
    st.integers(min_value=twisted.SIEVE_CAP + 1).map(lambda k: ["zeta", "--m", "1", f"--qmax={k}"]),
    st.tuples(st.sampled_from(_PATH_COMMANDS), st.one_of(st.integers(max_value=0), st.integers(min_value=64))).map(
        lambda cd: [*cd[0], f"--depth={cd[1]}"]),
    st.sampled_from(_PATH_COMMANDS).map(lambda argv: [*argv, "--mode=symbolic"]),
    _bad_lists.map(lambda v: ["thermo", "--r", "0.5", f"--s={v}", "--n", "4"]),
    _bad_lists.map(lambda v: ["code", "--r", "0.5", f"--x={v}"]),
    _non_finite.map(lambda v: ["thermo", f"--r={v}", "--s", "1", "--n", "4"]),
    _non_finite.map(lambda v: ["lambda", "--s", "1", f"--r={v}"]),
    _non_finite.map(lambda v: ["lambda", f"--s={v}", "--r", "0.5"]),
    _non_finite.flatmap(lambda v: st.sampled_from([["trace", "--n", "4", f"--s={v}", "--r", "0.5"],
                                                   ["xi", "--n", "4", "--s", "1", f"--r={v}"],
                                                   ["twisted", "--n", "4", f"--s={v}", "--m", "1", "--r", "0.5"],
                                                   ["zeta", f"--z={v}"], ["zeta", f"--s={v}"]])),
))
def test_malformed_grid_or_tol_exits_2_before_output(argv):
    code, out, err = _run_cli(argv)
    assert code == 2, argv
    assert out == "", argv
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    flag = next((a for a in argv if "=" in a), argv[-1]).partition("=")[0]  # the one bad argument, else the last
    assert flag in lines[0] or f"{flag.lstrip('-')}=" in lines[0], (argv, err)


@settings(max_examples=8, deadline=None)
@given(st.floats(0.0, 0.99))
def test_first_return_root_matches_chebyshev_compression(r):
    # the route pair for s_cr: the first-return operator on [1/2, 1] against the Chebyshev compression of P
    cp = thermo.critical_line(Params.floating(r), tol=1e-10)
    ref = _reference_critical_s(r, dim=192)
    ref_error = 1e-10 + abs(ref - _reference_critical_s(r, dim=144))  # the bisection width, then dim vs 3 dim/4
    assert abs(cp.s_cr - ref) <= cp.error + ref_error, (cp, ref, ref_error)
