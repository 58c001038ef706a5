"""k-bit spin words: elements of the group (Z/2Z)^k.

A word sigma = (sigma_1, ..., sigma_k) is stored as an integer whose
most significant bit is sigma_1, together with its explicit length
(leading zeros are significant).  The integer doubles as the word's
lexicographic index, which is exactly how all dense tables over
(Z/2Z)^k are laid out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple


@dataclass(frozen=True, order=True)
class SpinWord:
    k: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.k <= 63:
            raise ValueError("word length must be in [0, 63]")
        if not 0 <= self.bits < (1 << self.k):
            raise ValueError("bits out of range for word length")

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "SpinWord":
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value = (value << 1) | b
        return SpinWord(len(bits), value)

    @property
    def index(self) -> int:
        return self.bits

    def bit(self, i: int) -> int:
        """sigma_i with 1-based i (sigma_1 is the leading bit)."""
        if not 1 <= i <= self.k:
            raise IndexError(i)
        return (self.bits >> (self.k - i)) & 1

    def to_bits(self) -> Tuple[int, ...]:
        return tuple(self.bit(i) for i in range(1, self.k + 1))

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_bits())

    def __len__(self) -> int:
        return self.k

    def weight(self) -> int:
        """Number of ones |sigma|."""
        return self.bits.bit_count()

    def complement(self) -> "SpinWord":
        mask = (1 << self.k) - 1
        return SpinWord(self.k, self.bits ^ mask)

    def reversed(self) -> "SpinWord":
        return SpinWord.from_bits(self.to_bits()[::-1])

    def __add__(self, other: "SpinWord") -> "SpinWord":
        if self.k != other.k:
            raise ValueError("length mismatch")
        return SpinWord(self.k, self.bits ^ other.bits)

    def inner(self, other: "SpinWord") -> int:
        """Integer inner product sum_i sigma_i t_i (not reduced mod 2)."""
        if self.k != other.k:
            raise ValueError("length mismatch")
        return (self.bits & other.bits).bit_count()

    def append(self, bit: int) -> "SpinWord":
        return SpinWord(self.k + 1, (self.bits << 1) | bit)

    def ones(self) -> Tuple[int, ...]:
        """1-based positions i with sigma_i = 1, in increasing order."""
        return tuple(i for i in range(1, self.k + 1) if self.bit(i))

    def __repr__(self):
        return f"SpinWord({label(self.bits, self.k)})"


def label(index: int, k: int) -> str:
    """The k-bit word with lexicographic index `index` as a 0/1 string, sigma_1 first."""
    return format(index, f"0{k}b") if k else ""


def all_words(k: int) -> Iterator[SpinWord]:
    """All words of length k in lexicographic order."""
    for bits in range(1 << k):
        yield SpinWord(k, bits)


def bit_reverse_index(i: int, k: int) -> int:
    """Index of the reversed word (sigma_k, ..., sigma_1)."""
    out = 0
    for _ in range(k):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out
