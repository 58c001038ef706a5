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
    row = treemod.build_rows(2, SYM)[-1]
    assert [(n.p, n.q) for n in row.nodes] == [
        (poly(1), poly(2, 1)),
        (poly(1, 1), poly(2, 1)),
    ]


def test_row_three_polynomials():
    row = treemod.build_rows(3, SYM)[-1]
    assert [(n.p, n.q) for n in row.nodes] == [
        (poly(1), poly(2, 1, 1)),
        (poly(1, 1), poly(2, 3)),
        (poly(1, 2), poly(2, 3)),
        (poly(1, 1, 1), poly(2, 1, 1)),
    ]


def test_row_four_tent_gives_odd_dyadics():
    row = treemod.build_rows(4, Params.exact(Fraction(0)))[-1]
    assert row.values() == [Fraction(k, 16) for k in range(1, 16, 2)]


def test_row_nodes_have_positive_coefficients():
    for n in range(1, 11):
        for node in treemod.build_rows(n, SYM)[-1].nodes:
            assert all(c >= 0 for c in node.p.coeffs + node.q.coeffs)


def test_child_of_root_pair_and_first_row():
    zero, one = treemod.root_endpoints(SYM)
    half = treemod.child_of_neighbours(zero, one, SYM)
    assert (half.p, half.q, half.rank) == (ONE, poly(2), 1)
    left = treemod.child_of_neighbours(zero, half, SYM)
    assert (left.p, left.q) == (poly(1), poly(2, 1))
    right = treemod.child_of_neighbours(one, half, SYM)
    assert (right.p, right.q) == (poly(1, 1), poly(2, 1))
    assert left.path.to_bits() == (0,) and right.path.to_bits() == (1,)


def test_non_neighbours_rejected():
    zero, one = treemod.root_endpoints(SYM)
    half = treemod.child_of_neighbours(zero, one, SYM)
    left = treemod.child_of_neighbours(zero, half, SYM)
    grandchild = treemod.child_of_neighbours(zero, left, SYM)
    with pytest.raises(ValueError):
        treemod.child_of_neighbours(grandchild, half, SYM)  # not adjacent in their row set


def test_child_of_neighbours_refuses_float_mode():
    # the neighbour identity is checked exactly; float paths are walked by coding.encode_point
    zero, one = treemod.root_endpoints(Params.floating(0.5))
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
        expected = treemod.build_rows(n + 1, SYM)[-1].nodes
        got = sorted(children, key=treemod.FareyNode.order_key)
        assert [(c.p, c.q, c.path) for c in got] == [(e.p, e.q, e.path) for e in expected]


def test_rows_strictly_increasing_float():
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = Params.floating(r)
        for n in range(1, 13):
            vals = treemod.build_rows(n, p)[-1].values()
            assert all(x < y for x, y in zip(vals, vals[1:]))


def test_row_mesh_shrinks():
    for r in (0.0, 0.5, 0.9):
        p = Params.floating(r)
        prev = 1.0
        for n in range(1, 17):
            vals = np.sort(np.concatenate([[0.0, 1.0]] + [
                np.asarray(row.values()) for row in treemod.build_rows(n, p)
            ]))
            mesh = float(np.max(np.diff(vals)))
            assert mesh <= prev + 1e-15
            prev = mesh


def test_generator_matrices():
    L, R, S = treemod.mat_L(SYM), treemod.mat_R(SYM), treemod.mat_S(SYM)
    assert L.det() == RHO and R.det() == RHO
    assert S.det() == poly(-1)
    assert (S @ S) == treemod.Mat2(ONE, poly(), poly(), ONE)
    assert (L @ S) == (S @ R)  # the branch matrix I_1 = L S = S R


def test_presentation_examples():
    L = treemod.matrix_presentation(SpinWord(0, 0), SYM)
    assert L.image_of_one() == (ONE, poly(2))
    LL = treemod.matrix_presentation(SpinWord.from_bits((0,)), SYM)
    assert LL.image_of_one() == (poly(1), poly(2, 1))
    LR = treemod.matrix_presentation(SpinWord.from_bits((1,)), SYM)
    assert LR.image_of_one() == (poly(1, 1), poly(2, 1))


def test_presentation_matches_tables_and_determinant():
    for k in range(0, 9):
        table = spinchain.pq_tables(k, SYM)
        for w in all_words(k):
            X = treemod.matrix_presentation(w, SYM)
            assert X.image_of_one() == (table.p[w.index], table.q[w.index])
            assert X.det() == RHO ** (k + 1)


def _trace_pair(X, params):
    """(T0, T1) = (trace X, trace XS) of a leaf matrix X."""
    XS = X @ treemod.mat_S(params)
    return X.a + X.d, XS.a + XS.d


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
            p, q = X.image_of_one()
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


def test_extended_row_farey_is_stern_brocot():
    row = treemod.extended_row(1, Params.exact(Fraction(1)))
    assert [(n.p, n.q) for n in row.nodes] == [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))]
    row2 = treemod.extended_row(2, Params.exact(Fraction(1)))
    assert [Fraction(n.p, n.q) for n in row2.nodes] == [
        Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(3, 1)]


def test_extended_row_general_r():
    row = treemod.extended_row(1, SYM)
    assert (row.nodes[0].p, row.nodes[0].q) == (ONE, poly(2))
    assert (row.nodes[1].p, row.nodes[1].q) == (poly(1, 1), RHO)  # (3-r)/(2-r)


def test_reflection_preserves_descendant_denominator():
    # r p' + rho q' = r p + rho q for the reflected vertex; at p/q = 1/2 both are 4 - r
    r_sym, rho = SYM.r, SYM.rho
    (half,) = treemod.extended_row(1, SYM).nodes[1:]
    assert r_sym * half.p + rho * half.q == r_sym * ONE + rho * poly(2) == poly(2, 1)
    for n in range(1, 5):
        nodes = treemod.extended_row(n, SYM).nodes
        tree_half, reflected = nodes[: len(nodes) // 2], nodes[len(nodes) // 2 :]
        assert all(m.reflected for m in reflected) and not any(node.reflected for node in tree_half)
        for node, mirror in zip(tree_half, reversed(reflected)):
            assert mirror.path == node.path and mirror.rank == node.rank == n
            assert r_sym * mirror.p + rho * mirror.q == r_sym * node.p + rho * node.q


def test_extended_row_matches_pair_recursion_exact():
    ex = Params.exact(Fraction(3, 7))
    for n in range(1, 9):
        row_pairs = sorted((node.p, node.q) for node in treemod.extended_row(n, ex).nodes)
        rec_pairs = sorted(transfer.extended_pairs(n + 1, ex))
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
        treemod.build_rows(20, SYM)


_coefficient = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-(2**63) + 1, 2**63 - 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(_coefficient, max_size=17), min_size=1, max_size=6))
@example([[], [1], [-1], [0, 1], [1, 0, 0, -1], [2**63 - 1, 0, 0, 0, 1], [-(2**63) + 1] * 17])
def test_texts_from_packed_digits_are_the_rhopoly_texts(coeffs):
    """The texts made one degree column at a time from the packed digits are str(RhoPoly), the oracle: for the zero
    polynomial, unit and interior zero coefficients, degrees 0..16 and values of different digit widths in one call."""
    polys = [RhoPoly(c) for c in coeffs]
    assert treemod._rho_texts(spinchain._digits([v(spinchain._DIGIT) for v in polys])) == list(map(str, polys))


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
