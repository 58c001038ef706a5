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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .maps import involution_pair
from .rings import Params, RhoPoly
from .spinchain import _level_tables, _tree_stream, pq_tables
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

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def image_of_one(self):
        """The pair (p, q) with p/q the Moebius image of 1."""
        return self.a + self.b, self.c + self.d


def mat_L(params: Params) -> Mat2:
    one = params.one
    rho = params.rho
    return Mat2(one, one - one, 2 * one - rho, rho)


def mat_R(params: Params) -> Mat2:
    one = params.one
    rho = params.rho
    return Mat2(one, rho, one - one, rho)


def mat_S(params: Params) -> Mat2:
    one = params.one
    rho = params.rho
    return Mat2(one - rho, rho, 2 * one - rho, rho - one)


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
            raise ValueError("symbolic node: use value_at(rho)")
        if isinstance(self.p, Fraction) or isinstance(self.q, Fraction):
            return Fraction(self.p) / Fraction(self.q)
        return self.p / self.q

    def value_at(self, rho):
        pv = self.p(rho) if isinstance(self.p, RhoPoly) else self.p
        qv = self.q(rho) if isinstance(self.q, RhoPoly) else self.q
        return pv / qv

    def order_key(self):
        return self.value_at(_ORDER_RHO) if isinstance(self.p, RhoPoly) else self.value()


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


def build_row(n: int, params: Params) -> TreeRow:
    """Row n of the tree (rank-n vertices, left to right).

    Vertices come from the spin-word recursions in lexicographic order
    of the path word, which coincides with the spatial order.
    """
    if n < 1:
        raise ValueError("rows start at n = 1")
    table = pq_tables(n - 1, params)
    return _tree_row(n, table.p, table.q)


def build_rows(n: int, params: Params) -> List[TreeRow]:
    """Rows 1 .. n of the tree, from one walk down the recursions."""
    if n < 1:
        return []
    return [_tree_row(k + 1, p, q) for k, (p, q) in enumerate(_level_tables(_tree_stream, n - 1, params))]


def _tree_row(n: int, p: Sequence, q: Sequence) -> TreeRow:
    return TreeRow(n, [FareyNode(p[w.index], q[w.index], n, w) for w in all_words(n - 1)])


def full_tree(n: int, params: Params) -> List[FareyNode]:
    """All vertices of T_n = endpoints plus rows 1..n, sorted in [0, 1]."""
    nodes = root_endpoints(params)
    for row in build_rows(n, params):
        nodes.extend(row.nodes)
    nodes.sort(key=FareyNode.order_key)
    return nodes


def child_of_neighbours(a: FareyNode, b: FareyNode, params: Params, check: bool = True) -> FareyNode:
    """The unique next-level vertex between two neighbours.

    With a of lower rank and b of rank n, the child is the weighted
    mediant (p_b + rho^k p_a) / (q_b + rho^k q_a), k = n - rank(a);
    it lies strictly between a and b and has rank n + 1.  Neighbours
    satisfy |p_b q_a - p_a q_b| = rho^rank(a), which is how
    non-neighbour inputs are rejected (`check=False` skips this for
    callers that maintain the bracket themselves; the cross product
    cancels catastrophically at large depth in float mode).
    """
    if a.rank > b.rank:
        raise ValueError("first argument must be the lower-rank neighbour")
    k = b.rank - a.rank
    rho = params.rho
    cross = b.p * a.q - a.p * b.q
    expected = rho ** a.rank
    if params.mode == "float":
        slack = 1e-9 * expected + 1e-11 * (abs(b.p * a.q) + abs(a.p * b.q))
        if check and not abs(abs(cross) - expected) <= slack:
            raise ValueError("nodes are not neighbours")
        a_left = cross > 0
    else:
        if cross == expected:
            a_left = True
        elif cross == -expected:
            a_left = False
        elif check:
            raise ValueError("nodes are not neighbours")
        else:
            a_left = a.order_key() < b.order_key()
    w = rho**k
    p2 = b.p + w * a.p
    q2 = b.q + w * a.q
    if b.rank == 0:
        path: Optional[SpinWord] = SpinWord(0, 0)
    else:
        path = b.path.append(0 if a_left else 1)
    return FareyNode(p2, q2, b.rank + 1, path)


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
    """Row n of the extended tree: the tree row plus its reflection.

    The reflection applies the involution to each vertex, producing the
    values in (1, infinity); for r = 1 the rows of the classical
    Stern-Brocot tree appear.  Nodes are ordered increasingly, the
    reflected half after the tree half.
    """
    return extend_row(build_row(n, params), params)


def extend_row(row: TreeRow, params: Params) -> TreeRow:
    """The tree row followed by its reflection, as in :func:`extended_row`."""
    reflected = []
    for node in reversed(row.nodes):
        p2, q2 = involution_pair(node.p, node.q, params)
        reflected.append(FareyNode(p2, q2, row.level, node.path, reflected=True))
    return TreeRow(row.level, list(row.nodes) + reflected)


def node_records(row: TreeRow) -> List[dict]:
    """Flat dict records for CSV/JSON export."""
    out = []
    for node in row.nodes:
        sigma = "" if node.path is None else label(node.path.bits, node.path.k)
        if isinstance(node.p, RhoPoly):
            rec = {"level": row.level, "sigma": sigma, "p": str(node.p), "q": str(node.q), "value": ""}
        else:
            rec = {
                "level": row.level,
                "sigma": sigma,
                "p": str(node.p),
                "q": str(node.q),
                "value": repr(float(node.value())),
            }
        if node.reflected:
            rec["sigma"] = sigma + "*"
        out.append(rec)
    return out


def tree_adjacency(n: int, params: Params) -> dict:
    """Rooted-tree JSON structure: nodes keyed by path word, parent links."""
    nodes = []
    edges = []
    for row in build_rows(n, params):
        for node in row.nodes:
            sigma = label(node.path.bits, node.path.k)
            nodes.append(
                {
                    "id": sigma or "root",
                    "level": row.level,
                    "p": str(node.p),
                    "q": str(node.q),
                }
            )
            if row.level > 1:
                parent = sigma[:-1] or "root"
                edges.append({"parent": parent, "child": sigma or "root", "bit": int(sigma[-1])})
    return {"nodes": nodes, "edges": edges}
