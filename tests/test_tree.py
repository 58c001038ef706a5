import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareychain import spinchain, transfer
from fareychain import tree as treemod
from fareychain.rings import ONE, RHO, Params, RhoPoly
from fareychain.words import SpinWord, all_words

SYM = Params.symbolic()


def poly(*coeffs):
    return RhoPoly(coeffs)


def test_row_two_polynomials():
    table = spinchain.pq_tables(1, SYM)
    assert list(zip(table.p, table.q)) == [
        (poly(1), poly(2, 1)),
        (poly(1, 1), poly(2, 1)),
    ]


def test_row_three_polynomials():
    table = spinchain.pq_tables(2, SYM)
    assert list(zip(table.p, table.q)) == [
        (poly(1), poly(2, 1, 1)),
        (poly(1, 1), poly(2, 3)),
        (poly(1, 2), poly(2, 3)),
        (poly(1, 1, 1), poly(2, 1, 1)),
    ]


def test_row_four_tent_gives_odd_dyadics():
    table = spinchain.pq_tables(3, Params.exact(Fraction(0)))
    assert [p / q for p, q in zip(table.p, table.q)] == [Fraction(k, 16) for k in range(1, 16, 2)]


def test_row_nodes_have_positive_coefficients():
    for k in range(10):
        table = spinchain.pq_tables(k, SYM)
        for p, q in zip(table.p, table.q):
            assert all(c >= 0 for c in p.coeffs + q.coeffs)


def test_child_of_root_pair_and_first_row():
    zero, one = treemod.full_tree(0, SYM)
    half = treemod.child_of_neighbours(zero, one, SYM)
    assert (half.p, half.q, half.rank) == (ONE, poly(2), 1)
    left = treemod.child_of_neighbours(zero, half, SYM)
    assert (left.p, left.q) == (poly(1), poly(2, 1))
    right = treemod.child_of_neighbours(one, half, SYM)
    assert (right.p, right.q) == (poly(1, 1), poly(2, 1))
    assert left.path.to_bits() == (0,) and right.path.to_bits() == (1,)


def test_non_neighbours_rejected():
    zero, one = treemod.full_tree(0, SYM)
    half = treemod.child_of_neighbours(zero, one, SYM)
    left = treemod.child_of_neighbours(zero, half, SYM)
    grandchild = treemod.child_of_neighbours(zero, left, SYM)
    with pytest.raises(ValueError):
        treemod.child_of_neighbours(grandchild, half, SYM)  # not adjacent in their row set


def test_child_of_neighbours_refuses_float_mode():
    # the neighbour identity is checked exactly; float paths are walked by coding.encode_point
    zero, one = treemod.full_tree(0, Params.floating(0.5))
    with pytest.raises(ValueError, match="exact or symbolic"):
        treemod.child_of_neighbours(zero, one, Params.floating(0.5))


def test_neighbour_determinant_exact_scan():
    # p' q - p q' = +- rho^(rank of the older vertex) across all of T_6
    for n in range(1, 7):
        nodes = treemod.full_tree(n, SYM)
        for a, b in zip(nodes, nodes[1:]):
            lo, hi = (a, b) if a.rank <= b.rank else (b, a)
            cross = b.p * a.q - a.p * b.q
            assert cross == SYM.rho**lo.rank


def test_child_rule_regenerates_next_row():
    # rebuilding row n+1 from the sorted T_n via the child rule alone
    for n in range(1, 7):
        nodes = treemod.full_tree(n, SYM)
        children = []
        for a, b in zip(nodes, nodes[1:]):
            lo, hi = (a, b) if a.rank <= b.rank else (b, a)
            children.append(treemod.child_of_neighbours(lo, hi, SYM))
        expected = [node for node in treemod.full_tree(n + 1, SYM) if node.rank == n + 1]
        got = sorted(children, key=treemod.FareyNode.order_key)
        assert [(c.p, c.q, c.path) for c in got] == [(e.p, e.q, e.path) for e in expected]


def test_rows_strictly_increasing_float():
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = Params.floating(r)
        for k in range(12):
            table = spinchain.pq_tables(k, p)
            vals = table.p / table.q
            assert all(x < y for x, y in zip(vals, vals[1:]))


def test_row_mesh_shrinks():
    for r in (0.0, 0.5, 0.9):
        p = Params.floating(r)
        prev = 1.0
        for n in range(1, 17):
            vals = np.array([node.value() for node in treemod.full_tree(n, p)])  # sorted, endpoints included
            mesh = float(np.max(np.diff(vals)))
            assert mesh <= prev + 1e-15
            prev = mesh


def _det(X):
    (a, b), (c, d) = X
    return a * d - b * c


def _at_one(X):
    """(p, q) = (a + b, c + d): X sends 1 to p/q."""
    (a, b), (c, d) = X
    return a + b, c + d


def test_generator_matrices():
    L, R, _SR = spinchain._generators(SYM)
    S = spinchain._reflection(SYM)[1]
    assert _det(L) == RHO and _det(R) == RHO
    assert _det(S) == poly(-1)
    assert treemod._product(S, S) == ((ONE, poly()), (poly(), ONE))
    assert treemod._product(L, S) == treemod._product(S, R)  # the branch matrix I_1 = L S = S R


def _moebius(X, x):
    (a, b), (c, d) = X
    return (a * x + b) / (c * x + d)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
# rational matrices whose denominator c x + d is positive on [0, 1], i.e. at both ends
_MATRICES = st.tuples(st.tuples(_RATIONALS, _RATIONALS), st.tuples(_RATIONALS, _RATIONALS)).filter(
    lambda X: X[1][1] > 0 and sum(X[1]) > 0)


@settings(max_examples=200, deadline=None)
@given(_MATRICES, _MATRICES, st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_product_composes_moebius_maps(X, Y, x):
    XY = treemod._product(X, Y)
    (_, _), (c, d) = X
    y = _moebius(Y, x)
    if c * y + d != 0:  # else X o Y is undefined at x, and so is X Y
        assert _moebius(XY, x) == _moebius(X, y)
    assert _det(XY) == _det(X) * _det(Y)
    identity = ((1, 0), (0, 1))
    assert treemod._product(X, identity) == X == treemod._product(identity, X)


def test_presentation_examples():
    L = treemod.matrix_presentation(SpinWord(0, 0), SYM)
    assert _at_one(L) == (ONE, poly(2))
    LL = treemod.matrix_presentation(SpinWord.from_bits((0,)), SYM)
    assert _at_one(LL) == (poly(1), poly(2, 1))
    LR = treemod.matrix_presentation(SpinWord.from_bits((1,)), SYM)
    assert _at_one(LR) == (poly(1, 1), poly(2, 1))


def test_presentation_matches_tables_and_determinant():
    for k in range(0, 9):
        table = spinchain.pq_tables(k, SYM)
        for w in all_words(k):
            X = treemod.matrix_presentation(w, SYM)
            assert _at_one(X) == (table.p[w.index], table.q[w.index])
            assert _det(X) == RHO ** (k + 1)


def _trace_pair(X, params):
    """(T0, T1) = (trace X, trace XS) of a leaf matrix X."""
    (a, _), (_, d) = X
    (e, _), (_, h) = treemod._product(X, spinchain._reflection(params)[1])
    return a + d, e + h


def test_trace_pair_left_powers():
    for n in (1, 2, 5):
        X = treemod.matrix_presentation(SpinWord(n - 1, 0), SYM)
        T0, T1 = _trace_pair(X, SYM)
        assert T0 == ONE + RHO**n
        assert T1 == RhoPoly([1] * n)


def test_trace_pair_sum_identity():
    # T0 + T1 = r p + rho q, with (p, q) the image of 1
    r_sym = SYM.r
    for k in range(0, 7):
        for w in all_words(k):
            X = treemod.matrix_presentation(w, SYM)
            p, q = _at_one(X)
            T0, T1 = _trace_pair(X, SYM)
            assert T0 + T1 == r_sym * p + RHO * q
    X = treemod.matrix_presentation(SpinWord(0, 0), SYM)
    T0, T1 = _trace_pair(X, SYM)
    assert T0 + T1 == poly(2, 1)  # r * 1 + rho * 2 at p/q = 1/2


def test_trace_pair_farey_parent_form():
    # at r = 1 the pair is {p' + q'', p'' + q'} for the two mediant parents
    one_params = Params.exact(Fraction(1))
    for n in range(1, 7):
        nodes = treemod.full_tree(n, one_params)
        for a, b in zip(nodes, nodes[1:]):
            lo, hi = (a, b) if a.rank <= b.rank else (b, a)
            child = treemod.child_of_neighbours(lo, hi, one_params)
            X = treemod.matrix_presentation(child.path, one_params)
            assert child.p == a.p + b.p and child.q == a.q + b.q
            T0, T1 = _trace_pair(X, one_params)
            assert {T0, T1} == {a.p + b.q, b.p + a.q}


def _extended_level(n, params):
    """(sigma, p, q) texts of level n of the extended ``tree`` records: the row in path order, then its mirrors."""
    return [(sigma, p, q) for level, sigma, p, q, _ in treemod.row_records(n, params, extended=True) if level == n]


def test_extended_row_farey_is_stern_brocot():
    assert _extended_level(1, Params.exact(Fraction(1))) == [("", "1", "2"), ("*", "2", "1")]
    row2 = _extended_level(2, Params.exact(Fraction(1)))
    assert [sigma for sigma, *_ in row2] == ["0", "1", "1*", "0*"]
    assert [Fraction(p) / Fraction(q) for _, p, q in row2] == [
        Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(3, 1)]


def test_extended_row_general_r():
    assert _extended_level(1, SYM) == [("", str(ONE), str(poly(2))), ("*", str(poly(1, 1)), str(RHO))]  # (3-r)/(2-r)


def _parse_poly(text):
    """The RhoPoly whose str is text, e.g. "2 + 3*rho + -1*rho^2"."""
    coeffs = {}
    for term in text.split(" + ") if text != "0" else []:
        head, x, power = term.partition("rho")
        coeffs[int(power[1:] or 1) if x else 0] = int(head.rstrip("*") or 1) if x else int(head)
    return RhoPoly([coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)])


def test_reflection_preserves_descendant_denominator():
    # r p' + rho q' = r p + rho q for the mirror vertex; at p/q = 1/2 both are 4 - r
    r_sym, rho = SYM.r, SYM.rho
    (_, p, q), = _extended_level(1, SYM)[1:]
    assert r_sym * _parse_poly(p) + rho * _parse_poly(q) == r_sym * ONE + rho * poly(2) == poly(2, 1)
    for n in range(1, 5):
        level = _extended_level(n, SYM)
        tree_half, mirrors = level[: len(level) // 2], level[len(level) // 2 :]
        for (sigma, p, q), (mirror_sigma, mp, mq) in zip(tree_half, reversed(mirrors), strict=True):
            assert mirror_sigma == sigma + "*" and len(sigma) == n - 1
            p, q, mp, mq = map(_parse_poly, (p, q, mp, mq))
            assert r_sym * mp + rho * mq == r_sym * p + rho * q


def test_extended_row_matches_pair_recursion_exact():
    ex = Params.exact(Fraction(3, 7))
    for n in range(1, 9):
        row_pairs = sorted((p, q) for _, p, q in _extended_level(n, ex))
        rec_pairs = sorted((str(p), str(q)) for p, q in transfer.extended_pairs(n + 1, ex))
        assert row_pairs == rec_pairs


_ratios = st.integers(1, 1000).flatmap(lambda b: st.integers(0, 2 * b - 1).map(lambda a: Fraction(a, b)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just(SYM), _ratios.map(Params.exact), st.floats(0.0, 2.0, exclude_max=True).map(Params.floating)),
       st.integers(1, 10))
@example(Params.floating(1.0), 10)
@example(Params.floating(0.0), 10)
@example(Params.exact(Fraction(999, 1000)), 10)
@example(SYM, 10)
def test_kernel_reflection_is_the_involution_per_vertex(params, n):
    """Each kernel level mirrored by S, decoded, is the tree level followed by ((r-1)p + (2-r)q, rp + (1-r)q)
    of its vertices in reverse order, in every mode."""
    r = params.r
    stream = spinchain._tree_stream
    mirrored = spinchain._scaled_levels(stream, n - 1, params, spinchain._reflection(params))
    for (x0, scale0), (x, scale) in zip(spinchain._scaled_levels(stream, n - 1, params), mirrored, strict=True):
        p, q = spinchain._entries(x0, scale0, params)
        p2, q2 = spinchain._entries(x, scale, params)
        half = len(p)
        assert len(p2) == 2 * half and list(p2[:half]) == list(p) and list(q2[:half]) == list(q)
        want = [((r - 1) * a + (2 - r) * b, r * a + (1 - r) * b) for a, b in zip(p, q)]
        assert list(zip(p2[half:], q2[half:])) == want[::-1]
        assert all(type(v) is type(w) for v, w in zip(p2[half:], p))


def test_symbolic_row_cap():
    with pytest.raises(ValueError):
        treemod.full_tree(20, SYM)


_coefficient = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-(2**63) + 1, 2**63 - 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(_coefficient, max_size=17), min_size=1, max_size=6))
@example([[], [1], [-1], [0, 1], [1, 0, 0, -1], [2**63 - 1, 0, 0, 0, 1], [-(2**63) + 1] * 17])
def test_texts_from_packed_digits_are_the_rhopoly_texts(coeffs):
    """The texts made one degree column at a time from the packed digits are str(RhoPoly), the oracle: for the zero
    polynomial, unit and interior zero coefficients, degrees 0..16 and values of different digit widths in one call."""
    polys = [RhoPoly(c) for c in coeffs]
    assert treemod._rho_texts(spinchain._digits([v(spinchain._DIGIT) for v in polys])) == list(map(str, polys))


def test_q_texts_are_the_q_table_texts():
    """spin --table q's symbolic texts, decoded from the packed digits once per distinct value, are str of q_table's
    RhoPolys word by word, up to k = 11; the table cap is refused before the walk, as q_table refuses it."""
    for k in range(12):
        assert treemod.q_texts(k) == list(map(str, spinchain.q_table(k, SYM)))
    with pytest.raises(ValueError, match="cap"):
        treemod.q_texts(spinchain.EXACT_TABLE_CAP + 1)


def _whole_level_records(n, params, extended):
    """Rows 1 .. n, each kernel level decoded whole to table entries (spinchain._entries) and printed by str."""
    after = spinchain._reflection(params) if extended else None
    for j, (x, scale) in enumerate(spinchain._scaled_levels(spinchain._tree_stream, n - 1, params, after)):
        p, q = spinchain._entries(x, scale, params)
        words = ["".join(map(str, w)) for w in all_words(j)]
        sigmas = words + [w + "*" for w in reversed(words)] if extended else words
        for sigma, a, b in zip(sigmas, p, q, strict=True):
            yield j + 1, sigma, str(a), str(b), "" if params.mode == "symbolic" else repr(float(a / b))


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("params", [SYM, Params.exact(Fraction(1, 3)), Params.floating(0.3)],
                         ids=["symbolic", "exact", "float"])
def test_records_in_column_blocks_equal_whole_levels(monkeypatch, params, extended):
    """Records made in blocks of 2^_BLOCK_LEVELS columns of a level are the whole level's records."""
    whole = list(treemod.row_records(9, params, extended))
    monkeypatch.setattr(spinchain, "_BLOCK_LEVELS", 2)  # level 8 in 64 blocks of 4 columns, 128 if extended
    blocks = list(treemod.row_records(9, params, extended))
    assert blocks == whole
    reference = list(_whole_level_records(8, params, extended))
    assert blocks[: len(reference)] == reference and blocks[len(reference)][0] == 9


def test_node_records_and_adjacency():
    recs = list(treemod.row_records(2, Params.floating(1.0), extended=True))
    assert [(level, sigma) for level, sigma, *_ in recs] == [
        (1, ""), (1, "*"), (2, "0"), (2, "1"), (2, "1*"), (2, "0*")]
    assert recs[2][2:4] == ("1.0", "3.0") and float(recs[2][4]) == pytest.approx(1 / 3)
    assert recs[-1][2:] == ("3.0", "1.0", "3.0")  # S(1/3) = 3 at the Farey map
    assert list(treemod.row_records(2, Params.floating(1.0))) == recs[:1] + recs[2:4]
    adj = treemod.tree_adjacency(treemod.row_records(3, Params.floating(0.5)))
    assert len(adj["nodes"]) == 1 + 2 + 4
    assert len(adj["edges"]) == 6
    parents = {e["child"]: e["parent"] for e in adj["edges"]}
    assert parents["01"] == "0" and parents["0"] == "root"
    json.dumps(adj)  # serializable
