"""Exact mode against plain Fraction arithmetic.

The kernel runs exact mode on integer numerators over one denominator per
level; these tests recompute every exact table and sum with Fractions
directly, over rational r = a/b with 1 <= b <= 1000 and 0 <= a < 2b.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fareychain import spinchain, thermo, transfer, tree
from fareychain.rings import Params, power_sum

rationals = st.integers(1, 1000).flatmap(lambda b: st.integers(0, 2 * b - 1).map(lambda a: Fraction(a, b)))


def _tree_levels(k, r):
    """[(p_j, q_j) for j = 0 .. k] by the two-term recursions, prepending a bit."""
    rho = 2 - r
    p, q = [Fraction(1)], [Fraction(2)]
    levels = [(p, q)]
    for _ in range(k):
        bar_p, bar_q = p[::-1], q[::-1]  # values at the complemented words
        p, q = (p + [rho * y + (r - 1) * x for x, y in zip(bar_p, bar_q)],
                [rho * y + r * x for x, y in zip(p, q)] + [rho * y + r * x for x, y in zip(bar_p, bar_q)])
        levels.append((p, q))
    return levels


def _extended_row(n, r):
    """The (p, q) pairs of the n-th extended row: from (1, 1) by R and SR, appending a bit."""
    rho = 2 - r
    p, q = [Fraction(1)], [Fraction(1)]
    for _ in range(n - 1):
        p, q = ([x + rho * y for x, y in zip(p, q)] + [(r - 1) * x + rho * y for x, y in zip(p, q)],
                [rho * y for y in q] + [r * x + rho * y for x, y in zip(p, q)])
    return list(zip(p, q))


def _cumulative(k, levels):
    """pc_k, qc_k from pc_k(sigma 1 0^j) = p_(k-1-j)(sigma) and pc_k(0^k) = 0, qc_k(0^k) = 1."""
    pc, qc = [Fraction(0)], [Fraction(1)]
    for i in range(1, 1 << k):
        j = (i & -i).bit_length() - 1
        p, q = levels[k - 1 - j]
        pc.append(p[i >> (j + 1)])
        qc.append(q[i >> (j + 1)])
    return pc, qc


def _all_fractions(*rows):
    return all(type(v) is Fraction for row in rows for v in row)


@settings(max_examples=60, deadline=None)
@given(rationals, st.integers(0, 9))
@example(Fraction(0), 9)
@example(Fraction(1), 9)
@example(Fraction(999, 1000), 9)
@example(Fraction(1999, 1000), 9)
def test_tables_equal_fraction_recursion(r, k):
    params = Params.exact(r)
    levels = _tree_levels(k + 1, r)
    table = spinchain.pq_tables(k, params)
    assert (table.p, table.q) == levels[k] and _all_fractions(table.p, table.q)
    q_hat = spinchain.q_hat_table(k, params)  # the butterflies on the integer numerators, one division each
    assert spinchain.q_table(k, params) == table.q and q_hat == spinchain.fourier_transform(table.q, k)
    assert _all_fractions(spinchain.q_table(k, params), q_hat)
    cumulative = spinchain.pc_qc_tables(k + 1, params)
    assert (cumulative.p, cumulative.q) == _cumulative(k + 1, levels)
    assert _all_fractions(cumulative.p, cumulative.q)
    pairs = transfer.extended_pairs(k + 1, params)
    assert pairs == _extended_row(k + 1, r) and _all_fractions(*pairs)
    rows = tree.build_rows(k + 1, params)
    for (p, q), row in zip(levels, rows):
        nodes = [(node.p, node.q) for node in row.nodes]
        assert nodes == list(zip(p, q)) and _all_fractions(*nodes)


@settings(max_examples=60, deadline=None)
@given(rationals, st.integers(1, 10), st.integers(-3, 6))
@example(Fraction(0), 10, 5)
@example(Fraction(1), 10, -3)
@example(Fraction(997, 1000), 10, 6)
@example(Fraction(1999, 1000), 10, 5)
def test_exact_canonical_routes_agree(r, n, s):
    params = Params.exact(r)
    rows = thermo.canonical_Z(n, s, params, "rows")
    assert type(rows) is Fraction
    assert rows == thermo.canonical_Z(n, s, params, "cumulative") == thermo.canonical_Z(n, s, params, "transfer")
    assert rows == 1 + sum(thermo.grand_Z(k, s, params) for k in range(n))


def test_exact_transfer_route_takes_odd_s():
    params = Params.exact(Fraction(1, 3))
    for s in (-1, 0, 1, 3, 5):
        assert thermo.canonical_Z(8, s, params, "transfer") == thermo.canonical_Z(8, s, params, "rows")


def test_exact_row_sum_matches_fraction_sum():
    params = Params.exact(Fraction(2, 7))
    q = _tree_levels(6, Fraction(2, 7))[6][1]
    for s in (-2, 0, 1, 3):
        assert thermo.grand_Z(6, s, params) == sum(Fraction(1) / v**s for v in q)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-30, 30).filter(bool), max_size=40), st.integers(-3, 6))
def test_power_sum_equals_fraction_sum(values, s):
    total = power_sum(values, s)
    assert total == sum((Fraction(1) / Fraction(v) ** s for v in values), Fraction(0))
    assert type(total) is (Fraction if s > 0 else int)


STREAMS = {
    "tree rows": spinchain._tree_stream,
    "extended rows": transfer._pair_stream,
    "quad": transfer._quad_stream,
    "leaf matrices": transfer._matrix_stream,
}


@pytest.mark.parametrize("name", sorted(STREAMS))
@settings(max_examples=30, deadline=None)
@given(r=rationals)
@example(r=Fraction(999, 1000))
def test_integer_levels_equal_fraction_products(name, r):
    """Each integer level, divided by D0 D^level, is the stream's Fraction product; the lcm
    scaling covers the quad stream's r rho entries (D = b^2) as well as the others' D = b."""
    stream, params = STREAMS[name], Params.exact(r)
    root, (a, b), flip = stream(params)
    d0, d = spinchain._integral(stream, params)[3:]
    assert d % r.denominator == 0
    columns = [root]
    for level, x in spinchain._walk(stream, 3, params, math.inf):
        assert [[Fraction(v, d0 * d**level) for v in row] for row in x.tolist()] == [list(c) for c in zip(*columns)]
        assert all(type(v) is int for row in x.tolist() for v in row)
        first = [tuple(sum(m * v for m, v in zip(row, c)) for row in a) for c in columns]
        second = [tuple(sum(m * v for m, v in zip(row, c)) for row in b) for c in columns]
        columns = first + (second[::-1] if flip else second)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4).flatmap(lambda k: st.lists(
    st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60))),
    min_size=1 << k, max_size=1 << k)))
def test_exact_fourier_equals_character_sums(values):
    n = len(values)
    hat = spinchain.fourier_transform(values)
    assert hat == [sum(Fraction(v) * (-1) ** (i & t).bit_count() for i, v in enumerate(values)) / n for t in range(n)]
    assert _all_fractions(hat)
