import pytest
from hypothesis import given, strategies as st

from fareychain.coding import psi_inv
from fareychain.spinchain import partial_sum_word
from fareychain.words import SpinWord, all_words, bit_reverse_index


@st.composite
def words(draw, max_k=14):
    k = draw(st.integers(0, max_k))
    return SpinWord(k, draw(st.integers(0, (1 << k) - 1)) if k else 0)


def test_roundtrip_bits():
    w = SpinWord.from_bits((1, 0, 1, 1, 0))
    assert w.to_bits() == (1, 0, 1, 1, 0)
    assert w.index == 0b10110
    assert w.bit(1) == 1 and w.bit(2) == 0
    assert w.weight() == 3
    assert len(list(all_words(3))) == 8


def test_complement_and_reverse():
    w = SpinWord.from_bits((1, 0, 0))
    assert w.complement().to_bits() == (0, 1, 1)
    assert w.reversed().to_bits() == (0, 0, 1)
    assert bit_reverse_index(w.index, 3) == w.reversed().index
    assert w.complement().index == (1 << 3) - 1 - w.index


def test_group_structure():
    a = SpinWord.from_bits((1, 1, 0))
    b = SpinWord.from_bits((0, 1, 1))
    assert (a + b).to_bits() == (1, 0, 1)
    assert a.inner(b) == 1
    assert a.append(1).to_bits() == (1, 1, 0, 1)
    assert a.ones() == (1, 2)


def test_validation():
    with pytest.raises(ValueError):
        SpinWord(2, 4)
    with pytest.raises(ValueError):
        SpinWord.from_bits((0, 2))


def test_psi_example():
    assert partial_sum_word(SpinWord.from_bits((1, 1, 0))).to_bits() == (1, 0, 0)


@given(words())
def test_psi_inverse_pair(w):
    assert psi_inv(partial_sum_word(w)) == w
    assert partial_sum_word(psi_inv(w)) == w


@given(words(max_k=12), st.data())
def test_psi_is_linear(w, data):
    other = SpinWord(w.k, data.draw(st.integers(0, max(0, (1 << w.k) - 1))))
    assert partial_sum_word(w + other) == partial_sum_word(w) + partial_sum_word(other)
