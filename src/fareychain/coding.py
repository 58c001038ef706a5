"""Path coding of points and the conjugacy to the tent map.

Every point of [0, 1] is approached by a unique descending path from
the root vertex 1/2; reading off the edge labels gives a binary code.
Reinterpreting the code in the r = 0 (dyadic) tree defines a monotone
homeomorphism h_r conjugating the map to the tent map; for r = 1 this
is the classical question-mark function of Minkowski.  Tree vertices
get the terminating code extended by 1 0 0 0 ... (one of the two legal
conventions; the quotient by global bit complement removes the
ambiguity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .maps import inverse_branch
from .rings import Params
from .tree import child_of_neighbours, root_endpoints
from .words import SpinWord


def psi_inv(s: SpinWord) -> SpinWord:
    """Inverse automorphism (s_1, s_1+s_2, s_2+s_3, ..., s_{k-1}+s_k) mod 2."""
    bits = s.to_bits()
    out = [s.bit(1)] if s.k else []
    for i in range(1, s.k):
        out.append(bits[i - 1] ^ bits[i])
    return SpinWord.from_bits(out)


def leaf_from_path(sigma: SpinWord, params: Params):
    """The vertex with path word sigma, via iterated inverse branches.

    Equals the branch composition indexed by psi_inv(sigma) applied to
    1/2, which is an independent construction of the recursion tables.
    Returns the point value (exact in exact mode).
    """
    word = psi_inv(sigma)
    one = params.one
    x = one / (one + one)
    for t in reversed(word.to_bits()):
        x = inverse_branch(x, params, t)
    return x


@dataclass(frozen=True)
class CodeStream:
    """A finite prefix of the edge-label code of a point."""

    bits: Tuple[int, ...]

    def binary_value(self) -> float:
        """The dyadic value 0.b1 b2 ... of the prefix."""
        acc = 0.0
        for b in reversed(self.bits):
            acc = (acc + b) / 2.0
        return acc


def encode_point(x, params: Params, depth: int) -> CodeStream:
    """First `depth` edge labels of the tree path descending toward x.

    The descent keeps the bracketing neighbour pair and steps to the
    weighted mediant between them; a strict comparison at each vertex
    realizes the 1 0 0 0... convention at tree vertices.  For r = 0 the
    code is the binary expansion; for r = 1 it is the run-length
    encoding of the continued fraction of x.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    lo, hi = root_endpoints(params)
    v = child_of_neighbours(lo, hi, params)
    bits = []
    for _ in range(depth):
        if x < v.value():
            bits.append(0)
            lo, hi = lo, v
        else:
            bits.append(1)
            lo, hi = v, hi
        a, b = (lo, hi) if lo.rank <= hi.rank else (hi, lo)
        v = child_of_neighbours(a, b, params, check=False)
    return CodeStream(tuple(bits))


def conjugacy_h(x, params: Params, depth: int) -> float:
    """h_r(x) truncated at `depth` bits: the same-path point of the dyadic tree.

    h_r fixes 0, 1/2 and 1, is monotone nondecreasing, and satisfies
    the conjugacy h_r(F_r(x)) = F_0(h_r(x)) up to the truncation error
    2^(1-depth).
    """
    return encode_point(x, params, depth).binary_value()
