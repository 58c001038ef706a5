import math
import random
from fractions import Fraction

import pytest

from fareychain import coding, maps, spinchain
from fareychain.rings import Params
from fareychain.words import SpinWord, all_words


def test_leaf_from_path_examples():
    ex = Params.exact(Fraction(1, 2))  # rho = 3/2
    assert coding.leaf_from_path(SpinWord.from_bits((1,)), ex) == Fraction(5, 7)  # (1+rho)/(2+rho)
    assert coding.leaf_from_path(SpinWord.from_bits((0,)), ex) == Fraction(2, 7)  # 1/(2+rho)


def test_leaf_from_path_matches_tables_exactly():
    # branch iteration and the recursion are independent constructions
    ex = Params.exact(Fraction(1, 2))
    for k in range(0, 11):
        table = spinchain.pq_tables(k, ex)
        for w in all_words(k):
            assert coding.leaf_from_path(w, ex) == Fraction(table.p[w.index], table.q[w.index])


def test_leaf_from_path_deeper_word_second_parameter():
    ex = Params.exact(Fraction(4, 5))
    for k in range(0, 13):
        table = spinchain.pq_tables(k, ex)
        rng = random.Random(k)
        for _ in range(min(1 << k, 32)):
            w = SpinWord(k, rng.getrandbits(k) if k else 0)
            assert coding.leaf_from_path(w, ex) == Fraction(table.p[w.index], table.q[w.index])


def test_encode_tent_is_binary_expansion():
    p0 = Params.floating(0.0)
    assert coding.encode_point(0.625, p0, 6) == (1, 0, 1, 0, 0, 0)
    assert coding.encode_point(0.0, p0, 5) == (0,) * 5
    assert coding.encode_point(1.0, p0, 5) == (1,) * 5


def test_encode_root_convention():
    # tree vertices carry the terminating path extended by 1 0 0 0 ...
    for r in (0.0, 0.5, 1.0):
        assert coding.encode_point(0.5, Params.floating(r), 5) == (1, 0, 0, 0, 0)


def test_encode_farey_run_lengths():
    # x with continued fraction [a1, a2, ...] codes as 0^(a1-1) 1^(a2) 0^(a3) ...
    p1 = Params.floating(1.0)
    x = math.sqrt(2.0) - 1.0  # [2, 2, 2, ...]
    assert coding.encode_point(x, p1, 12) == (0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0  # [1, 1, 1, ...]
    assert coding.encode_point(golden, p1, 8) == (1, 0, 1, 0, 1, 0, 1, 0)


def test_encode_is_monotone():
    rng = random.Random(7)
    for r in (0.0, 0.4, 0.8, 1.0):
        p = Params.floating(r)
        for _ in range(1000):
            x, y = sorted((rng.random(), rng.random()))
            cx = coding.encode_point(x, p, 18)
            cy = coding.encode_point(y, p, 18)
            assert cx <= cy


def test_shift_property_up_to_complement():
    # the code of F(x) is the shifted code of x, modulo global bit flip
    rng = random.Random(11)
    for r in (0.0, 0.5, 1.0):
        p = Params.floating(r)
        for _ in range(200):
            x = rng.random()
            shifted = coding.encode_point(x, p, 21)[1:]
            fx = coding.encode_point(maps.forward_map(x, p), p, 20)
            assert shifted == fx or tuple(1 - b for b in shifted) == fx


def test_conjugacy_fixes_special_points():
    for r in (0.0, 0.3, 0.7, 1.0):
        p = Params.floating(r)
        assert coding.conjugacy_h(0.5, p, 30) == 0.5
        assert coding.conjugacy_h(0.0, p, 30) == 0.0
        assert coding.conjugacy_h(1.0, p, 30) == pytest.approx(1.0, abs=2**-29)


def test_conjugacy_farey_is_question_mark():
    p1 = Params.floating(1.0)
    assert coding.conjugacy_h(1 / 3, p1, 40) == pytest.approx(0.25, abs=1e-11)
    # [2, 2] = 2/5 maps to 1/2 - 1/8
    assert coding.conjugacy_h(0.4, p1, 48) == pytest.approx(0.375, abs=1e-12)
    # periodic [2, 2, 2, ...]: alternating series sums to 2/5
    assert coding.conjugacy_h(math.sqrt(2.0) - 1.0, p1, 50) == pytest.approx(0.4, abs=1e-12)


def _conjugacy_residual(x, p, depth):
    """|F_0(h_r(x)) - h_r(F_r(x))| at finite depth."""
    lhs = maps.forward_map(coding.conjugacy_h(x, p, depth), Params.floating(0.0))
    return abs(lhs - coding.conjugacy_h(maps.forward_map(x, p), p, depth))


def test_conjugacy_residual_bound():
    rng = random.Random(3)
    p = Params.floating(0.7)
    for depth in (12, 20, 28):
        worst = max(
            _conjugacy_residual(rng.random(), p, depth) for _ in range(100)
        )
        assert worst <= 2.0 ** (-depth + 2)


def test_conjugacy_residual_decays_geometrically():
    rng = random.Random(5)
    xs = [rng.random() for _ in range(50)]
    for r in (0.3, 0.7):
        p = Params.floating(r)
        prev = None
        for depth in range(10, 31, 2):
            worst = max(_conjugacy_residual(x, p, depth) for x in xs)
            if prev is not None:
                assert worst <= 0.75 * prev + 1e-15
            prev = worst


def test_encode_validates_input():
    with pytest.raises(ValueError):
        coding.encode_point(1.5, Params.floating(0.5), 4)
    with pytest.raises(ValueError):
        coding.encode_point(0.5, Params.floating(0.5), 0)
    with pytest.raises(ValueError, match="float or exact"):
        coding.encode_point(0.5, Params.symbolic(), 4)


@pytest.mark.parametrize("r", [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2)])
def test_descent_reaches_every_kernel_vertex(r):
    # the vertex with path word w codes as w 1 0 0 ..., and h sends it to the dyadic vertex 0.w1 = (2i + 1)/2^(k+1)
    ex = Params.exact(r)
    for k in range(9):
        table = spinchain.pq_tables(k, ex)
        for w in all_words(k):
            x = Fraction(table.p[w.index], table.q[w.index])
            assert coding.encode_point(x, ex, k + 6) == (*w.to_bits(), 1, 0, 0, 0, 0, 0)
            assert coding.conjugacy_h(x, ex, k + 6) == Fraction(2 * w.index + 1, 2 ** (k + 1))


def test_descent_has_no_depth_cap():
    # no path word is built, so the library descends past 63 steps; its first 63 labels are the depth-63 code
    p = Params.floating(0.5)
    code = coding.encode_point(0.3, p, 70)
    assert len(code) == 70 and code[:63] == coding.encode_point(0.3, p, 63)
