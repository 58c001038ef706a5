"""Path coding of points and the conjugacy to the tent map.

Every point of [0, 1] is approached by a unique descending path from
the root vertex 1/2; reading off the edge labels gives a binary code.
:func:`encode_point` walks that path on plain weighted mediants of the
bracketing pair, in float or exact mode (the vertex objects of
:mod:`tree` serve its oracles).  Reinterpreting the code in the r = 0
(dyadic) tree defines a monotone homeomorphism h_r conjugating the map
to the tent map; for r = 1 this is the classical question-mark function
of Minkowski.  Tree vertices get the terminating code extended by
1 0 0 0 ... (one of the two legal conventions; the quotient by global
bit complement removes the ambiguity).
"""

from __future__ import annotations

from typing import Tuple

from .maps import inverse_branch
from .rings import Params
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


def encode_point(x, params: Params, depth: int) -> Tuple[int, ...]:
    """The first `depth` edge labels of the tree path descending toward x, float or exact.

    The descent keeps the bracketing neighbours as (p, q, rank) triples
    and steps to their weighted mediant (p_b + rho^k p_a) / (q_b + rho^k q_a),
    a the end of lower rank and k its rank gap; a strict comparison at
    each vertex realizes the 1 0 0 0... convention at tree vertices.  For
    r = 0 the code is the binary expansion; for r = 1 it is the
    run-length encoding of the continued fraction of x.
    """
    if params.mode == "symbolic":
        raise ValueError("symbolic vertices have no value to compare x with; code in float or exact mode")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    one, rho = params.one, params.rho
    lo, hi = (one - one, one, 0), (one, one, 0)
    bits = []
    for _ in range(depth):
        (pa, qa, ra), (pb, qb, rb) = (lo, hi) if lo[2] <= hi[2] else (hi, lo)
        w = rho ** (rb - ra)
        v = (pb + w * pa, qb + w * qa, rb + 1)
        bits.append(0 if x < v[0] / v[1] else 1)
        lo, hi = (v, hi) if bits[-1] else (lo, v)
    return tuple(bits)


def conjugacy_h(x, params: Params, depth: int) -> float:
    """h_r(x) truncated at `depth` bits: the same-path point of the dyadic tree, 0.b1 b2 ... as a float.

    h_r fixes 0, 1/2 and 1, is monotone nondecreasing, and satisfies
    the conjugacy h_r(F_r(x)) = F_0(h_r(x)) up to the truncation error
    2^(1-depth).
    """
    acc = 0.0
    for b in reversed(encode_point(x, params, depth)):
        acc = (acc + b) / 2.0
    return acc
