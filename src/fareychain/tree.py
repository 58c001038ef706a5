"""The generalized Farey tree of the map family and its matrix presentation.

Row n of the tree consists of the 2^(n-1) preimages of 1/2 under n-1
iterations of the map, ordered in [0, 1]; together with the endpoints
0/1 and 1/1 the rows exhaust a dense vertex set for r in [0, 1].  Each
vertex is the ratio of polynomials in rho = 2 - r produced by the
spin-word recursions, and is equally the image of 1 under a product of
the two generator matrices

    L = [[1, 0], [2-rho, rho]],      R = [[1, rho], [0, rho]],

both of determinant rho.  The involution matrix S (det -1, S^2 = I)
reflects the tree into the extended, Stern-Brocot-like tree whose rows
also cover (1, infinity).

The rows come from the two-child kernel of :mod:`spinchain`, where the
reflection is one more step of each level; :func:`row_records` streams
the ``tree`` records in column blocks of each level, one str per distinct entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import spinchain
from .rings import Params, RhoPoly, _term_texts
from .spinchain import _digits, _entries, _generators, _reflection, _scaled_levels, _tree_stream
from .words import SpinWord, all_words, label

# rho used only to order symbolic nodes; the order is the same for all
# interior parameter values.
_ORDER_RHO = Fraction(3, 2)


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over the active coefficient ring (row-major)."""

    a: object
    b: object
    c: object
    d: object

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def image_of_one(self):
        """The pair (p, q) with p/q the Moebius image of 1."""
        return self.a + self.b, self.c + self.d


def mat_L(params: Params) -> Mat2:
    return Mat2(*sum(_generators(params)[0], ()))


def mat_R(params: Params) -> Mat2:
    return Mat2(*sum(_generators(params)[1], ()))


def mat_S(params: Params) -> Mat2:
    return Mat2(*sum(_reflection(params)[1], ()))


@dataclass(frozen=True)
class FareyNode:
    """A tree vertex p/q with its rank and path word.

    Rank-n vertices (n >= 1) carry the (n-1)-bit path word from the
    root 1/2; the endpoints 0/1 and 1/1 have rank 0 and no path.
    Reflected vertices of the extended tree keep the path of their
    mirror image and are flagged.
    """

    p: object
    q: object
    rank: int
    path: Optional[SpinWord] = None
    reflected: bool = False

    def value(self):
        if isinstance(self.p, RhoPoly):
            raise ValueError("a symbolic node has no value; order_key orders it")
        if isinstance(self.p, Fraction) or isinstance(self.q, Fraction):
            return Fraction(self.p) / Fraction(self.q)
        return self.p / self.q

    def order_key(self):
        return self.p(_ORDER_RHO) / self.q(_ORDER_RHO) if isinstance(self.p, RhoPoly) else self.value()


@dataclass(frozen=True)
class TreeRow:
    level: int
    nodes: Sequence[FareyNode]

    def values(self):
        return [n.value() for n in self.nodes]


def root_endpoints(params: Params) -> List[FareyNode]:
    one = params.one
    zero = one - one
    return [FareyNode(zero, one, 0), FareyNode(one, one, 0)]


def build_rows(n: int, params: Params) -> List[TreeRow]:
    """Rows 1 .. n of the tree, from one walk down the recursions."""
    if n < 1:
        return []
    levels = _scaled_levels(_tree_stream, n - 1, params)
    return [_tree_row(k + 1, *_entries(x, scale, params)) for k, (x, scale) in enumerate(levels)]


def _tree_row(n: int, p: Sequence, q: Sequence) -> TreeRow:
    """Row n from a decoded level: 2^(n-1) vertices in path order, then any further columns as their mirrors."""
    words = list(all_words(n - 1))
    nodes = [FareyNode(p[w.index], q[w.index], n, w) for w in words]
    if len(p) > len(words):
        nodes += [FareyNode(p[-1 - w.index], q[-1 - w.index], n, w, reflected=True) for w in reversed(words)]
    return TreeRow(n, nodes)


def full_tree(n: int, params: Params) -> List[FareyNode]:
    """All vertices of T_n = endpoints plus rows 1..n, sorted in [0, 1]."""
    nodes = root_endpoints(params)
    for row in build_rows(n, params):
        nodes.extend(row.nodes)
    nodes.sort(key=FareyNode.order_key)
    return nodes


def child_of_neighbours(a: FareyNode, b: FareyNode, params: Params) -> FareyNode:
    """The unique next-level vertex between two neighbours, in exact or symbolic mode.

    With a of lower rank and b of rank n, the child is the weighted
    mediant (p_b + rho^k p_a) / (q_b + rho^k q_a), k = n - rank(a);
    it lies strictly between a and b and has rank n + 1.  Neighbours
    satisfy |p_b q_a - p_a q_b| = rho^rank(a), checked exactly, which is
    how non-neighbour inputs are rejected; the sign places a left or
    right of b and so gives the child's path word.  Float mode is
    refused: the identity cannot be checked there, and
    :func:`coding.encode_point` walks float paths on plain mediants.
    """
    if params.mode == "float":
        raise ValueError("child_of_neighbours checks |p_b q_a - p_a q_b| = rho^rank(a) exactly: "
                         "use exact or symbolic mode")
    if a.rank > b.rank:
        raise ValueError("first argument must be the lower-rank neighbour")
    cross, expected = b.p * a.q - a.p * b.q, params.rho ** a.rank
    if cross != expected and cross != -expected:
        raise ValueError("nodes are not neighbours")
    w = params.rho ** (b.rank - a.rank)
    path = SpinWord(0, 0) if b.rank == 0 else b.path.append(0 if cross == expected else 1)
    return FareyNode(b.p + w * a.p, b.q + w * a.q, b.rank + 1, path)


def matrix_presentation(sigma: SpinWord, params: Params) -> Mat2:
    """The product X = L M_1 ... M_k with M_i = L or R as sigma_i = 0 or 1.

    The image of 1 under X is the vertex with path word sigma, and
    det X = rho^(k+1).
    """
    X = mat_L(params)
    L, R = mat_L(params), mat_R(params)
    for bit in sigma:
        X = X @ (R if bit else L)
    return X


def extended_row(n: int, params: Params) -> TreeRow:
    """Row n of the extended tree: the tree row, then its reflection by the involution, mirror of the last vertex
    first, with values in (1, infinity); for r = 1 the rows of the classical Stern-Brocot tree appear."""
    if n < 1:
        raise ValueError("rows start at n = 1")
    (x, scale), = _scaled_levels(_tree_stream, n - 1, params, _reflection(params), last=True)
    return _tree_row(n, *_entries(x, scale, params))


def row_records(n: int, params: Params, extended: bool = False) -> Iterator[tuple]:
    """(level, sigma, p, q, value) for rows 1 .. n, one row at a time: a row's vertices in path order, then with
    `extended` their mirrors, last vertex first, sigma starred.  p and q are texts, one str per distinct entry of a
    block of the row (:func:`_level_records`); value is repr(p/q) from one array division (exact mode divides the
    kernel's integers, correctly rounded), empty in symbolic mode.  The table cap is refused before this returns."""
    if n < 1:
        raise ValueError("rows start at n = 1")
    levels = _scaled_levels(_tree_stream, n - 1, params, _reflection(params) if extended else None)
    return (rec for j, (x, scale) in enumerate(levels) for rec in _level_records(j, x, scale, params))


def _level_records(j: int, x, scale: int, params: Params) -> Iterator[tuple]:
    """The records of kernel level j (:func:`row_records`), possibly followed by its reflection, in blocks of
    2^spinchain._BLOCK_LEVELS columns, each with one dedupe of its entries: symbolic texts come straight from the
    packed digits (:func:`_rho_texts`), the others through :func:`spinchain._entries`."""
    half, width = 1 << j, 1 << spinchain._BLOCK_LEVELS
    for start in range(0, x.shape[1], width):
        stop = min(start + width, x.shape[1])
        block = x[:, start:stop]
        raw = block.tolist()
        distinct = list(dict.fromkeys(raw[0] + raw[1]))
        texts = dict(zip(distinct, _rho_texts(_digits(distinct)) if params.mode == "symbolic"
                         else map(str, _entries(np.array([distinct], dtype=x.dtype), scale, params)[0])))
        sigmas = [label(i, j) if i < half else label(2 * half - 1 - i, j) + "*" for i in range(start, stop)]
        values = repeat("") if params.mode == "symbolic" else map(repr, (block[0] / block[1]).tolist())
        yield from zip(repeat(j + 1), sigmas, map(texts.get, raw[0]), map(texts.get, raw[1]), values)


def _rho_texts(digits: np.ndarray) -> List[str]:
    """str(RhoPoly(row)) for each row of coefficients (:func:`spinchain._digits`), one degree column at a time: each
    distinct coefficient of a column makes its term " + c*rho^i" once, and the terms are added onto the texts."""
    suffixes, units = _term_texts(digits.shape[1])
    texts = np.full(len(digits), "", dtype=object)
    for column, suffix, unit in zip(digits.T, suffixes, units):
        coeffs, where = np.unique(column, return_inverse=True)
        terms = [" + " + (unit if c == 1 else f"{c}{suffix}") if c else "" for c in coeffs.tolist()]
        texts += np.array(terms, dtype=object)[where]
    return [text[3:] or "0" for text in texts.tolist()]


def tree_adjacency(records: Iterable[tuple]) -> dict:
    """Rooted-tree JSON structure from :func:`row_records` (not extended): nodes keyed by path word, parent links."""
    records = list(records)
    return {"nodes": [{"id": sigma or "root", "level": level, "p": p, "q": q} for level, sigma, p, q, _ in records],
            "edges": [{"parent": sigma[:-1] or "root", "child": sigma, "bit": int(sigma[-1])}
                      for level, sigma, *_ in records if level > 1]}
