import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareychain import spinchain, thermo, transfer, tree
from fareychain.rings import ONE, RHO, Params, RhoPoly
from fareychain.words import SpinWord, all_words, bit_reverse_index

SYM = Params.symbolic()


def poly(*coeffs):
    return RhoPoly(coeffs)


def test_level_zero():
    t = spinchain.pq_tables(0, SYM)
    assert t.p == [ONE] and t.q == [poly(2)]


def test_level_one_denominator():
    t = spinchain.pq_tables(1, SYM)
    assert t.q[0] == t.q[1] == poly(2, 1)  # 4 - r in rho form


def test_level_two_farey_denominators():
    t = spinchain.pq_tables(2, Params.exact(Fraction(1)))
    assert list(t.q) == [4, 5, 5, 4]
    assert list(t.p) == [1, 2, 3, 3]


def test_complement_symmetry_symbolic():
    for k in range(0, 15):
        t = spinchain.pq_tables(k, SYM)
        n = 1 << k
        for i in range(n):
            j = n - 1 - i
            assert t.p[i] + t.p[j] == t.q[i] == t.q[j]


def test_reversal_symmetry_symbolic():
    for k in range(1, 17):
        t = spinchain.pq_tables(k, SYM)
        for i in range(1 << k):
            assert t.q[i] == t.q[bit_reverse_index(i, k)]


def test_q_monotone_decreasing_in_r():
    rs = [0.0, 0.2, 0.5, 0.8, 1.0, 1.3]
    for k in (3, 6, 9):
        tables = [np.asarray(spinchain.pq_tables(k, Params.floating(r)).q) for r in rs]
        for a, b in zip(tables, tables[1:]):
            assert np.all(b < a)


def test_float_tables_match_exact():
    ex = spinchain.pq_tables(6, Params.exact(Fraction(2, 7)))
    fl = spinchain.pq_tables(6, Params.floating(2 / 7))
    assert np.allclose(np.asarray(fl.q), [float(v) for v in ex.q], rtol=1e-14)


def test_cumulative_table_example():
    t = spinchain.pc_qc_tables(2, SYM)
    # words 00, 01, 10, 11; appended bit is the last one
    assert t.p[0b01] == ONE
    assert t.p[0b11] == poly(1, 1)
    assert t.q[0b01] == t.q[0b11] == poly(2, 1)
    assert t.q[0b00] == ONE and t.q[0b10] == poly(2)


def test_cumulative_extends_leaf_tables():
    for k in range(1, 9):
        leaf = spinchain.pq_tables(k, SYM)
        cum = spinchain.pc_qc_tables(k + 1, SYM)
        for w in all_words(k):
            idx = (w.index << 1) | 1
            assert cum.p[idx] == leaf.p[w.index]
            assert cum.q[idx] == leaf.q[w.index]


def test_cumulative_padding_with_zeros_keeps_value():
    # appending zeros after the last 1 leaves the entry unchanged
    ex = Params.exact(Fraction(1, 3))
    leaf = spinchain.pq_tables(3, ex)
    cum = spinchain.pc_qc_tables(7, ex)
    w = SpinWord.from_bits((1, 0, 1))
    idx = int("1011000", 2)
    assert cum.q[idx] == leaf.q[w.index]


def test_fourier_constant_and_inverse():
    vals = [Fraction(5)] * 8
    hat = spinchain.fourier_transform(vals, 3)
    assert hat[0] == 5 and all(v == 0 for v in hat[1:])
    rng = random.Random(0)
    table = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(16)]
    hat = spinchain.fourier_transform(table, 4)
    assert spinchain.fourier_transform(hat, 4) == [v / 16 for v in table]  # twice is 2^-k times identity


def test_fourier_numpy_matches_exact():
    rng = random.Random(1)
    table = [Fraction(rng.randint(-9, 9)) for _ in range(32)]
    exact = spinchain.fourier_transform(table, 5)
    fl = spinchain.fourier_transform(np.array([float(v) for v in table]), 5)
    assert isinstance(exact, list) and isinstance(fl, np.ndarray)
    assert np.allclose(fl, [float(v) for v in exact], atol=1e-14)


def test_q_tables_equal_the_pq_tables_row():
    # exact mode: tests/test_exact.py
    for k in (0, 1, 6):
        q = spinchain.pq_tables(k, Params.floating(0.37)).q
        assert np.array_equal(spinchain.q_table(k, Params.floating(0.37)), q)
        assert np.array_equal(spinchain.q_hat_table(k, Params.floating(0.37)), spinchain.fourier_transform(q, k))
        assert spinchain.q_table(k, Params.symbolic()) == spinchain.pq_tables(k, Params.symbolic()).q


def test_qhat_vanishes_for_odd_weight():
    for r in (Fraction(1, 4), Fraction(4, 5)):
        p = Params.exact(r)
        for k in range(1, 11):
            q_hat = spinchain.fourier_transform(list(spinchain.pq_tables(k, p).q), k)
            for t in all_words(k):
                if t.weight() % 2 == 1:
                    assert q_hat[t.index] == 0


def test_qhat_level_one_mean():
    p = Params.exact(Fraction(1, 3))
    q_hat = spinchain.fourier_transform(list(spinchain.pq_tables(1, p).q), 1)
    assert q_hat[0] == 4 - Fraction(1, 3)


def test_polymer_decomposition_examples():
    t = SpinWord.from_bits((1, 0, 1, 1))
    polys = spinchain.polymer_decompose(t)
    assert [(g.kind, g.ends) for g in polys] == [("odd", (1,)), ("even", (3, 4))]
    t2 = SpinWord.from_bits((0, 1, 0, 1))
    assert [(g.kind, g.ends) for g in spinchain.polymer_decompose(t2)] == [("even", (2, 4))]
    assert spinchain.polymer_decompose(SpinWord(4, 0)) == []


@given(st.integers(1, 18), st.data())
def test_polymer_supports_disjoint_and_recompose(k, data):
    t = SpinWord(k, data.draw(st.integers(0, (1 << k) - 1)))
    polys = spinchain.polymer_decompose(t)
    assert spinchain.polymer_recompose(polys, k) == t
    spans = [g.support() for g in polys]
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(spans, spans[1:]))
    if t.weight() % 2 == 1:
        assert polys[0].kind == "odd"
    assert spinchain.polymer_count(t) == len(polys)


def test_closed_form_prefactor_and_pair_example():
    ex = Params.exact(Fraction(1, 2))
    t0 = SpinWord(3, 0)
    ph, qh = spinchain.hat_pq_closed(t0, ex)
    assert ph == Fraction(7, 4) ** 3 and qh == 2 * Fraction(7, 4) ** 3
    t = SpinWord.from_bits((1, 1))
    _, qh = spinchain.hat_pq_closed(t, ex)
    r = Fraction(1, 2)
    assert qh == -r * (2 - r) / 2


def test_closed_form_equals_transform_exact():
    for r in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        p = Params.exact(r)
        for k in range(0, 11):
            table = spinchain.pq_tables(k, p)
            p_hat = spinchain.fourier_transform(list(table.p), k)
            q_hat = spinchain.fourier_transform(list(table.q), k)
            for t in all_words(k):
                ph, qh = spinchain.hat_pq_closed(t, p)
                assert ph == p_hat[t.index]
                assert qh == q_hat[t.index] == spinchain.hat_q_ising(t, p)  # the rewrite holds at r = 0 too
    with pytest.raises(ValueError):
        spinchain.hat_q_ising(SpinWord.from_bits((1, 1)), SYM)


def test_polymer_count_is_word_pairing_invariant():
    rng = random.Random(2)
    for _ in range(1000):
        k = rng.randint(1, 20)
        t = SpinWord(k, rng.getrandbits(k))
        assert t.inner(spinchain.partial_sum_word(t)) == len(spinchain.polymer_decompose(t))


def test_ising_rewrite_matches_closed_form():
    for r in (0.5, 0.9, 1.0, 1.7):
        p = Params.floating(r)
        for k in range(1, 13):
            table = spinchain.pq_tables(k, p)
            q_hat = spinchain.fourier_transform(np.asarray(table.q, dtype=float), k)
            for t in all_words(k):
                val = spinchain.hat_q_ising(t, p)
                assert val == pytest.approx(q_hat[t.index], abs=1e-12 * max(1.0, abs(q_hat[0])))
                assert spinchain.hat_q_ising_abs(t, p) == pytest.approx(
                    abs(q_hat[t.index]), abs=1e-12 * max(1.0, abs(q_hat[0]))
                )


def test_ising_constants():
    for r in (0.1, 0.5, 1.0, 1.9):
        _c0, _c1, c2 = spinchain.ising_constants(Params.floating(r))
        assert c2 / 4 == pytest.approx(-0.25 * math.log((4 - r) / r))
        assert c2 / 4 < 0
    with pytest.raises(ValueError):
        spinchain.ising_constants(Params.floating(0.0))


def test_interaction_examples():
    p = Params.floating(0.5)
    q_hat = spinchain.interaction_coefficients(3, p)
    assert all(-q_hat[t.index] >= 0 for t in all_words(3) if t.index != 0)
    # the zero coefficient is bounded by its bulk part, with equality at r = 0
    for r in (0.0, 0.3, 0.8):
        for k in (3, 6):
            q_hat = spinchain.interaction_coefficients(k, Params.floating(r))
            bulk = math.log(2.0) + k * math.log((4 - r) / 2)
            assert q_hat[0] <= bulk + 1e-12
            if r == 0.0:
                assert q_hat[0] == pytest.approx(bulk, abs=1e-12)


def test_interaction_trivial_at_tent():
    q_hat = spinchain.interaction_coefficients(8, Params.floating(0.0))
    assert np.max(np.abs(q_hat[1:])) <= 1e-13


def test_ferromagnetic_grid():
    for r10 in range(1, 11):
        p = Params.floating(r10 / 10.0)
        for k in range(1, 15):
            assert spinchain.ferromagnetic_violation(spinchain.interaction_coefficients(k, p)) <= 1e-12


def test_caps_enforced():
    with pytest.raises(ValueError):
        spinchain.pq_tables(17, SYM)
    with pytest.raises(ValueError):
        spinchain.fourier_transform(list(range(8)), 2)


def _count_steps(monkeypatch) -> list:
    """The arguments of every spinchain._step call made after this, one entry per call."""
    steps = []
    step = spinchain._step

    def counted_step(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(spinchain, "_step", counted_step)
    return steps


def test_transform_cap_refused_before_the_walk(monkeypatch):
    steps = _count_steps(monkeypatch)
    monkeypatch.setattr(spinchain, "FOURIER_CAP", 4)  # below the table caps, as 24 is below the float cap 26
    for params in (Params.floating(0.5), Params.exact(Fraction(1, 2))):
        with pytest.raises(ValueError, match="k=6 exceeds the transform cap 4"):
            spinchain.q_hat_table(6, params)
    assert not steps


def test_negative_depth_refused_before_any_step(monkeypatch):
    steps = _count_steps(monkeypatch)
    calls = [lambda: thermo.grand_Z(-1, 2, Params.floating(0.0)), lambda: thermo.grand_Z(-1, 2, Params.floating(0.5))]
    calls += [lambda f=f: f(-1, Params.floating(0.5)) for f in (spinchain.pq_tables, spinchain.q_table,
                                                               spinchain.q_hat_table)]
    for call in calls:
        with pytest.raises(ValueError, match="k=-1 is negative"):
            call()
    assert not steps


STREAMS = {
    "tree rows": spinchain._tree_stream,
    "extended rows": transfer._pair_stream,
    "quad": transfer._quad_stream,
    "leaf matrices": transfer._matrix_stream,
}


def _tables(stream, depth, params):
    """Levels 0 .. depth of a stream as the tables return them."""
    return (spinchain._entries(x, scale, params) for x, scale in spinchain._scaled_levels(stream, depth, params))


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_float_stream_equals_symbolic_stream(name, r):
    stream = STREAMS[name]
    rho = 2.0 - r
    evaluate = np.vectorize(lambda v: float(v(rho)), otypes=[float])
    floats = _tables(stream, 8, Params.floating(r))
    polys = _tables(stream, 8, SYM)
    for k, (fl, sym) in enumerate(zip(floats, polys)):
        sym = np.array(sym, dtype=object)
        assert fl.shape == sym.shape == (fl.shape[0], 1 << k)
        assert np.allclose(fl, evaluate(sym), rtol=1e-13, atol=0.0)


def _products(root, children, flip, depth):
    """Levels 0 .. depth of a stream as row lists, from RhoPoly products of its child matrices."""
    a, b = children
    columns, levels = [root], []
    for _ in range(depth + 1):
        levels.append([list(row) for row in zip(*columns)])
        first = [tuple(sum((m * v for m, v in zip(row, c)), RhoPoly()) for row in a) for c in columns]
        second = [tuple(sum((m * v for m, v in zip(row, c)), RhoPoly()) for row in b) for c in columns]
        columns = first + (second[::-1] if flip else second)
    return levels


def _decoded_levels_equal_products(stream, depth):
    levels = list(_tables(stream, depth, SYM))
    assert levels == _products(*stream(SYM), depth)
    assert all(type(v) is RhoPoly and v.coeffs[-1:] != (0,) for level in levels for row in level for v in row)
    return levels


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("depth", [0, 1, 6])
def test_packed_levels_equal_rhopoly_products(name, depth):
    """The kernel steps the symbolic streams as ints packed at rho = 2^64; each level, decoded, is the
    RhoPoly product of the stream's child matrices, and the copied rows share one object per entry."""
    levels = _decoded_levels_equal_products(STREAMS[name], depth)
    if name == "tree rows":
        assert all(q[i] is q[-1 - i] for _p, q in levels for i in range(len(q)))  # q(sigma) = q(bar sigma)


_extreme = st.lists(st.integers(-(2**63) + 1, 2**63 - 1), max_size=4).map(RhoPoly)
_monomial_row = st.tuples(st.integers(0, 1), st.sampled_from((-1, 1)), st.integers(0, 3)).map(
    lambda t: tuple(t[1] * RHO**t[2] if j == t[0] else RhoPoly() for j in range(2)))
_monomial_matrix = st.tuples(_monomial_row, st.one_of(_monomial_row, st.just((RhoPoly(), RhoPoly()))))


@settings(max_examples=40, deadline=None)
@given(st.tuples(_extreme, _extreme), _monomial_matrix, _monomial_matrix, st.booleans())
@example((poly(2**63 - 1, 0, -(2**63) + 1, 1), poly(-(2**63) + 1)), ((RHO, poly()), (poly(), -ONE)),
         ((poly(), -RHO**3), (RHO, poly())), True)
def test_packed_digits_decode_coefficients_up_to_2_63(root, a, b, flip):
    """Rows of one signed monomial keep every coefficient's size, so any coefficient below 2^63,
    of either sign, reaches the decoded levels unchanged."""
    _decoded_levels_equal_products(lambda params: (root, (a, b), flip), 4)


def test_stream_over_the_packing_bound_refused_before_any_step(monkeypatch):
    steps = _count_steps(monkeypatch)
    list(spinchain._walk(spinchain._tree_stream, 2, SYM, math.inf))  # the tree stream's bound is 2 * 4^16 = 2^33
    assert len(steps) == 2
    reflection = spinchain._reflection(SYM)  # I, and S with rows (1 - rho, rho), (2 - rho, rho - 1): sums 3 and 5
    assert spinchain._growth(reflection) == 5
    list(spinchain._scaled_levels(spinchain._tree_stream, 2, SYM, reflection))  # the mirrored rows: 2^33 * 5 < 2^63
    assert len(steps) == 7  # two steps down, and a reflection step per level
    with pytest.raises(ValueError, match="2\\^63"):  # 2^33 (2^30 + 1) >= 2^63
        spinchain._scaled_levels(spinchain._tree_stream, 2, SYM, (reflection[0], ((2**30 * ONE, ONE), (ONE, ONE))))
    one, three = RhoPoly((1,)), RhoPoly((0, 3))  # 2^32 * (1 + 3)^16 = 2^64 at the cap
    for root, (a, b) in (((2**32 * one,), (((one + three,),), ((one,),))), ((2**62 * one,), (((2 * one,),), ((one,),)))):
        with pytest.raises(ValueError, match="2\\^63"):
            list(spinchain._walk(lambda params: (root, (a, b), False), 1, SYM, math.inf))
    assert len(steps) == 7


def test_each_table_sets_up_its_ring_once(monkeypatch):
    """_scaled_levels and _cumulative hand their _integral to _walk: one ring set-up and one cap check per table."""
    calls = []
    for name in ("_integral", "_check_cap"):
        counted = lambda *a, f=getattr(spinchain, name), name=name: calls.append(name) or f(*a)  # noqa: E731
        monkeypatch.setattr(spinchain, name, counted)
    third = Params.exact(Fraction(1, 3))
    for table in (lambda: list(tree.row_records(11, SYM)), lambda: spinchain.q_hat_table(8, third),
                  lambda: thermo.canonical_Z(8, 2, third, "cumulative")):
        calls.clear()
        table()
        assert sorted(calls) == ["_check_cap", "_integral"]
