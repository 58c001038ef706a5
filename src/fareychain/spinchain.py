"""Spin-chain tables over (Z/2Z)^k and their hypercube Fourier analysis.

The level-k leaves of the tree are indexed by k-bit words sigma.  Their
numerators p_k(sigma) and denominators q_k(sigma) obey the two-term
recursions (with rho = 2 - r and bar denoting bitwise complement)

    p_{k+1}(0,sigma) = p_k(sigma)
    p_{k+1}(1,sigma) = rho q_k(bar) + (r-1) p_k(bar)
    q_{k+1}(0,sigma) = rho q_k(sigma) + r p_k(sigma)
    q_{k+1}(1,sigma) = rho q_k(bar) + r p_k(bar)

starting from p_0 = 1, q_0 = 2.  Interpreting Q_k = log q_k as the
energy of a chain of k binary spins, the Fourier coefficients of p_k
and q_k over the hypercube have a closed product form indexed by a
polymer decomposition of the frequency word, and the induced spin
interaction -Q_k^ is ferromagnetic for r in [0, 1].  The three logs
(c0, c1, c2) of ising_constants weigh the word length, |psi(t)| and the
polymer count in the exponential form of q_k^ (hat_q_ising), and give
the fields and pair coupling of its chain form (hat_q_ising_abs).

Every row in the package comes from one two-child kernel (_step): a
level has one column per word, and the next level holds A x in its
first half and B x in its second, for fixed child matrices (A, B) over
the ring of the mode: float64, or ints, in exact mode level j scaled by
D0 D^j, in symbolic mode each polynomial packed as its value at rho = 2^64
(_integral); in flip order the second half is written reversed.  The exact
tables divide once per entry; the symbolic ones read each table's base-2^64
digits (_digits) as RhoPolys (_entries), tree.row_records as texts.  With
L = [[1, 0], [r, rho]], R = [[1, rho], [0, rho]], SR = [[r-1, rho], [r, rho]]:

    tree rows (p, q)    root (1, 2)         L, SR               flip
    extended rows       root (1, 1)         R, SR               branch
    (p, q, mu, nu)      root (1, 1, 1, 0)   R (+) [[1, r rho], [0, rho]],
                                            SR (+) [[r-1, r rho], [1, rho]]
    leaf matrices X     root L              rows of X times L, R

((+) is the block-diagonal sum.)  A row of A equal to the same row of B
is copied, not recomputed: the second rows of L and SR coincide, which
is the symmetry q_k(sigma) = q_k(bar sigma).  The cumulative tables are
no separate recursion: pc_{k+1} interleaves pc_k with p_k, and qc_{k+1}
interleaves qc_k with q_k, from pc_0 = (0) and qc_0 = (1).  The reflection
into the extended tree is one more flip-order step of a tree level by
(I, S), S = [[r-1, rho], [r, 1-r]], in the same ring (_reflection,
_scaled_levels): the level, then its vertices' mirrors.

The kernel has one walk, _walk, depth first: whole rows in order for the tables
(_scaled_levels, _cumulative); for every leaf and row sum, cache-sized blocks of at most
2^_BLOCK_LEVELS columns (256 KB for four rows), one block pending per level, summed per
level by _level_sums or, for the single-n iterates (P^n f)(x) of transfer (f = 1, a
character e_m, or any f), over the last level alone by _last_level_sum.
Nothing else calls _walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .rings import Params, RhoPoly
from .words import SpinWord

EXACT_TABLE_CAP = 16
FLOAT_TABLE_CAP = 26
FOURIER_CAP = 24
_BLOCK_LEVELS = 13
_DIGIT, _HALF_DIGIT = 1 << 64, 1 << 63  # symbolic mode packs a RhoPoly as its value at rho = _DIGIT


def _check_cap(k: int, p: Params) -> None:
    cap = FLOAT_TABLE_CAP if p.mode == "float" else EXACT_TABLE_CAP
    if k < 0:
        raise ValueError(f"k={k} is negative: the levels start at k = 0")
    if k > cap:
        raise ValueError(f"k={k} exceeds the {p.mode}-mode table cap {cap}")


def _generators(params: Params):
    """The child matrices L, R and SR over the ring of `params`, as row tuples."""
    one, r, rho = params.one, params.r, params.rho
    zero = one - one
    return ((one, zero), (r, rho)), ((one, rho), (zero, rho)), ((r - one, rho), (r, rho))


def _reflection(params: Params):
    """The child matrices (I, S) of the reflection step, S = [[r-1, rho], [r, 1-r]] (det -1, S^2 = I): in flip
    order a tree level steps to itself followed by its vertices' mirrors in the extended tree, last vertex first."""
    one, r, rho, zero = params.one, params.r, params.rho, params.one - params.one
    return ((one, zero), (zero, one)), ((r - one, rho), (r, one - r))


def _tree_stream(params: Params):
    L, _R, SR = _generators(params)
    return (params.one, 2 * params.one), (L, SR), True


def _integral(stream, params: Params, after=None):
    """(root, children, flip, D0, D) of stream(params) in the ring of :func:`_ring`, the root as a (dim, 1) array:
    level j holds its values times D0 D^j, D0 and D the root's and the children's scale.  A symbolic stream is refused
    unless its coefficients stay below 2^63 at the mode cap, by the bound (the root's largest |coefficient|)
    (the children's :func:`_growth`)^cap, times the growth of the children `after` of one more step if one follows."""
    root, children, flip = stream(params)
    if params.mode == "symbolic":
        top = max((abs(c) for v in root for c in v.coeffs), default=0)
        if top * _growth(children) ** EXACT_TABLE_CAP * (_growth(after) if after else 1) >= _HALF_DIGIT:
            raise ValueError(f"the stream's coefficients could reach 2^63 by level {EXACT_TABLE_CAP}")
    ((root,),), d0 = _ring(((root,),), params)
    children, d = _ring(children, params)
    return np.array(root, dtype=float if params.mode == "float" else object)[:, None], children, flip, d0, d


def _growth(matrices) -> int:
    """The largest row sum of |coefficients| of symbolic matrices: a step by them raises no coefficient bound more."""
    return max(sum(abs(c) for v in row for c in v.coeffs) for m in matrices for row in m)


def _ring(matrices, params: Params):
    """(matrices, D): the matrices (tuples of row tuples) in the kernel's ring.  Exact mode scales them to ints by the
    lcm D of their denominators; symbolic mode packs each RhoPoly as its int value at rho = 2^64 (Kronecker
    substitution, read back by :func:`_entries`), D = 1; float mode takes them as they are, D = 1."""
    if params.mode == "float":
        return matrices, 1
    exact = params.mode == "exact"
    d = math.lcm(*(v.denominator for m in matrices for row in m for v in row)) if exact else 1
    return tuple(tuple(tuple(int(v * d) if exact else v(_DIGIT) for v in row) for row in m) for m in matrices), d


def _entries(rows, scale: int, params: Params):
    """A level's rows as the tables return them: float arrays as they are, others as lists, in
    exact mode of Fractions, the integer numerators over `scale` divided once per entry, in symbolic
    mode of RhoPolys, one per distinct packed value, built from its row of :func:`_digits`."""
    if params.mode == "float":
        return rows
    rows = rows.tolist()
    if params.mode == "exact":
        return [[Fraction(v, scale) for v in row] for row in rows]
    polys = dict.fromkeys(v for row in rows for v in row)
    digits = _digits(polys)
    lengths = digits.shape[1] - np.argmax(digits[:, ::-1] != 0, axis=1)
    lengths[~digits.any(axis=1)] = 0
    for v, coeffs, n in zip(polys, digits.tolist(), lengths.tolist()):
        polys[v] = RhoPoly._stripped(tuple(coeffs[:n]))
    return [[polys[v] for v in row] for row in rows]


def _digits(values) -> np.ndarray:
    """The base-2^64 digits of packed symbolic values, one int64 row per value: its coefficients of rho^0, rho^1, ..."""
    # every coefficient is in (-2^63, 2^63), so a value of bit length b has at most b // 64 + 1 digits;
    # adding 2^63 to each digit makes them all nonnegative, uint64 bytes numpy reads in one pass
    width = max(map(abs, values)).bit_length() // 64 + 1
    shift = _HALF_DIGIT * (_DIGIT**width - 1) // (_DIGIT - 1)
    data = b"".join((v + shift).to_bytes(8 * width, "little") for v in values)
    return (np.frombuffer(data, np.uint64).reshape(-1, width) - np.uint64(_HALF_DIGIT)).view(np.int64)


def _combine(row, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sum_j row[j] x[j], skipping zero terms and unit factors: this
    spares the object modes their costliest no-ops and keeps float rows
    bit-identical to the two-term recursions.  An all-zero row writes zeros."""
    terms = [(c, xj) for c, xj in zip(row, x) if c != 0]
    if not terms:
        out[...] = 0
    for j, (c, xj) in enumerate(terms):
        if c != 1:
            xj = np.multiply(c, xj, out=scratch if j else out)
        if j:
            np.add(out, xj, out=out)
        elif c == 1:
            out[...] = xj


def _step(x: np.ndarray, children, flip: bool) -> np.ndarray:
    """The level below x: A x, then B x (reversed if `flip`)."""
    n = x.shape[1]
    out = np.empty((len(x), 2 * n), dtype=x.dtype)
    first, second = out[:, :n], out[:, n:]
    if flip:
        second = second[:, ::-1]
    scratch = np.empty(n, dtype=x.dtype)
    for i, (a_row, b_row) in enumerate(zip(*children)):
        _combine(a_row, x, first[i], scratch)
        if b_row == a_row:
            second[i] = first[i]  # equal rows give equal halves, up to the flip
        else:
            _combine(b_row, x, second[i], scratch)
    return out


def _walk(stream, depth: int, params: Params, width=None, integral=None) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (level, block) for levels 0 .. depth of a stream, depth first, in the ring of :func:`_integral`.

    ``stream(params)`` gives (root, (A, B), flip).  A block of `width` (by default 2^_BLOCK_LEVELS) or more
    columns is split into its column halves before its step, and each half's subtree is walked before the next,
    so the stack holds one pending half per level; with width math.inf every level comes whole and in order.
    A level's blocks permute its columns, so sums over them change only by rounding.  The table cap of the mode
    is checked before the first level, unless the caller, having checked it, hands over its own :func:`_integral`
    of the stream as `integral`; a yielded block is held no longer than its pending halves.
    """
    if integral is None:
        _check_cap(depth, params)
    x, children, flip, _d0, _d = integral or _integral(stream, params)
    width = width or 1 << _BLOCK_LEVELS
    yield 0, x
    stack = [(1, x)] if depth else []  # (level, the block of level - 1 that steps to it)
    while stack:
        level, x = stack.pop()
        x = _step(x, children, flip)
        yield level, x
        if level < depth:
            stack += [(level + 1, part) for part in ([x] if x.shape[1] < width else np.hsplit(x, 2))]


def _level_sums(stream, depth: int, params: Params, term) -> list:
    """For levels 0 .. depth, the sum of term(level, block) over the level's blocks."""
    sums = [0] * (depth + 1)
    for level, block in _walk(stream, depth, params):
        sums[level] += term(level, block)
    return sums


def _last_level_sum(stream, depth: int, params: Params, term):
    """The sum of term(block) over the blocks of level `depth`: _level_sums(...)[-1] alone."""
    return sum((term(block) for level, block in _walk(stream, depth, params) if level == depth), 0)


def _scaled_levels(stream, depth: int, params: Params, after=None, last=False) -> Iterator[Tuple[np.ndarray, int]]:
    """(level, scale) for levels 0 .. depth of a stream, or with `last` for level depth alone, in the ring of
    :func:`_integral`, level j over D0 D^j; with child matrices `after`, each level yielded takes one more flip-order
    :func:`_step` by them and is over D0 D^j D_a, D_a their scale.  The table cap and the packing bound, with that
    step, are checked before this returns."""
    _check_cap(depth, params)
    _root, _children, _flip, d0, d = integral = _integral(stream, params, after)
    after, da = _ring(after, params) if after else (None, 1)
    levels = _walk(stream, depth, params, math.inf, integral)
    return ((x if after is None else _step(x, after, True), d0 * d**j * da)
            for j, x in (islice(levels, depth, None) if last else levels))


@dataclass(frozen=True)
class PQTable:
    """Dense numerator/denominator tables over all k-bit words.

    Entries are indexed by the lexicographic word index; in float mode
    they are numpy arrays, otherwise Python lists of exact scalars.
    """

    p: Sequence
    q: Sequence


def pq_tables(k: int, params: Params) -> PQTable:
    """Tables of p_k, q_k over all of (Z/2Z)^k via the two-term recursions."""
    (x, scale), = _scaled_levels(_tree_stream, k, params, last=True)
    return PQTable(*_entries(x, scale, params))


def q_table(k: int, params: Params) -> Sequence:
    """pq_tables(k, params).q alone: the p row is stepped, never divided."""
    (x, scale), = _scaled_levels(_tree_stream, k, params, last=True)
    return _entries(x[1:], scale, params)[0]


def q_hat_table(k: int, params: Params) -> Sequence:
    """fourier_transform(q_table(k, params), k); in exact mode the butterflies run on the kernel's integer
    numerators over their scale D0 D^k, so no entry is divided before the output."""
    if params.mode == "symbolic":
        raise ValueError("the transform divides by 2^k; use exact or float mode")
    if k > FOURIER_CAP:  # before the walk: the float table cap admits a larger k
        raise ValueError(f"k={k} exceeds the transform cap {FOURIER_CAP}")
    (x, scale), = _scaled_levels(_tree_stream, k, params, last=True)
    if params.mode != "exact":
        return fourier_transform(x[1], k)
    return [Fraction(v, scale << k) for v in _butterflies(np.array(x[1])).tolist()]


def pc_qc_tables(k: int, params: Params) -> PQTable:
    """Tables of the cumulative polynomials pc_k, qc_k over (Z/2Z)^k.

    These start from pc_1 = (0, 1), qc_1 = (1, 2) and extend by
    appending a bit tau on the right: appending 0 leaves the entry
    unchanged, appending 1 gives the tree entry of the shorter word,

        p_k(sigma) = pc_{k+1}(sigma, 1),   q_k(sigma) = qc_{k+1}(sigma, 1),

    so pc_k(sigma 1 0^j) = p_{k-1-j}(sigma) is filled from one walk down
    the tree rows.  The canonical partition function at level n is the
    plain sum of qc_n(sigma)^(-s) over all n-bit words.
    """
    return PQTable(*_entries(*_cumulative(k, params), params))


def _cumulative(k: int, params: Params):
    """((pc_k, qc_k), scale): kernel rows over the one scale D0 D^(k-1) of level k - 1."""
    if k < 1:
        raise ValueError("cumulative tables start at k = 1")
    _check_cap(k, params)
    root, _children, _flip, d0, d = integral = _integral(_tree_stream, params)
    scale = d0 * d ** (k - 1)
    table = np.empty((2, 1 << k), dtype=root.dtype)
    table[:, 0] = 0, scale
    for m, x in _walk(_tree_stream, k - 1, params, math.inf, integral):
        j = k - 1 - m
        table[:, 1 << j :: 2 << j] = x if d == 1 else x * d**j  # level m is over D0 D^m
    return table, scale


def fourier_transform(values, k: int | None = None):
    """Hypercube Fourier transform f^(t) = 2^-k sum_sigma f(sigma) (-1)^(sigma.t).

    Fast Walsh butterflies over a numpy array: a float array stays one and
    comes back as one; any other input (Fractions, ints) runs on its integer
    numerators over one common denominator and comes back as an exact list,
    one division per output.  The transform is its own inverse up to 2^-k.
    """
    n = len(values)
    if k is None:
        k = n.bit_length() - 1
    if n != 1 << k:
        raise ValueError("length must be a power of two")
    if k > FOURIER_CAP:
        raise ValueError(f"k={k} exceeds the transform cap {FOURIER_CAP}")
    floating = isinstance(values, np.ndarray) and values.dtype == float
    d = 1 if floating else math.lcm(*(v.denominator for v in values))  # the common denominator
    a = _butterflies(np.array(values if floating else [v.numerator * (d // v.denominator) for v in values],
                              dtype=float if floating else object))
    return a / n if floating else [Fraction(v, d * n) for v in a.tolist()]


def _butterflies(a: np.ndarray) -> np.ndarray:
    """sum_sigma a(sigma) (-1)^(sigma.t) for every t, by fast Walsh butterflies in a's own dtype (a is reused)."""
    n, h = len(a), 1
    while h < n:
        a = a.reshape(-1, 2 * h)
        x = a[:, :h].copy()
        y = a[:, h:].copy()
        a[:, :h] = x + y
        a[:, h:] = x - y
        h *= 2
    return a.reshape(n)


@dataclass(frozen=True)
class Polymer:
    """A frequency-word building block with one or two one-bits.

    An odd polymer has a single one at position ell and support
    {1, ..., ell}; an even polymer has ones at a < b and support
    {a, ..., b}.  The decomposition of a word into polymers with
    pairwise disjoint supports is unique.
    """

    kind: str  # "odd" | "even"
    ends: Tuple[int, ...]

    @property
    def support_size(self) -> int:
        if self.kind == "odd":
            return self.ends[0]
        return self.ends[1] - self.ends[0] + 1

    def support(self) -> Tuple[int, int]:
        if self.kind == "odd":
            return (1, self.ends[0])
        return (self.ends[0], self.ends[1])

    def activity(self, params: Params):
        """Rational weight z(polymer); negative for all r in (0, 2)."""
        r = params.r
        base = (2 - r) / (4 - r)
        if self.kind == "odd":
            return -(base ** self.support_size)
        return -(r / (2 - r)) * base ** self.support_size


def polymer_decompose(t: SpinWord) -> List[Polymer]:
    """Unique decomposition of t into polymers with disjoint supports.

    If |t| is odd the leftmost one-bit forms the odd polymer (its
    support reaches back to position 1); the remaining one-bits are
    paired consecutively left to right into even polymers.
    """
    ones = list(t.ones())
    out: List[Polymer] = []
    if len(ones) % 2 == 1:
        out.append(Polymer("odd", (ones.pop(0),)))
    for a, b in zip(ones[0::2], ones[1::2]):
        out.append(Polymer("even", (a, b)))
    return out


def polymer_recompose(polymers: Sequence[Polymer], k: int) -> SpinWord:
    bits = 0
    for g in polymers:
        for pos in g.ends:
            bits ^= 1 << (k - pos)
    return SpinWord(k, bits)


def hat_pq_closed(t: SpinWord, params: Params):
    """Closed-form Fourier coefficients (p_k^(t), q_k^(t)).

    p_k^(t) = ((4-r)/2)^k * prod of polymer activities; q_k^ carries the
    extra factor (1 + (-1)^|t|), so it vanishes for odd |t|.
    """
    if params.mode == "symbolic":
        raise ValueError("activities are rational in r; use exact or float mode")
    pref = ((4 - params.r) / 2) ** t.k
    prod = params.one
    for g in polymer_decompose(t):
        prod = prod * g.activity(params)
    p_hat = pref * prod
    q_hat = p_hat * (1 + (-1) ** t.weight())
    return p_hat, q_hat


def partial_sum_word(t: SpinWord) -> SpinWord:
    """The automorphism t -> (t_1, t_1+t_2, ..., t_1+...+t_k) mod 2."""
    bits = []
    acc = 0
    for b in t:
        acc ^= b
        bits.append(acc)
    return SpinWord.from_bits(bits)


def ising_constants(params: Params) -> Tuple[float, float, float]:
    """(c0, c1, c2) = (log((4-r)/2), log((2-r)/(4-r)), log(r/(4-r))), the weights of the word length, |psi(t)|
    and the polymer count n(t) in the exponential rewriting of q_k^ (:func:`hat_q_ising`); c2 < 0 for r in (0, 2)."""
    r = params.r_float
    if not 0 < r < 2:
        raise ValueError("the exponential form requires r in (0, 2)")
    return math.log((4 - r) / 2), math.log((2 - r) / (4 - r)), math.log(r / (4 - r))


def hat_q_ising(t: SpinWord, params: Params):
    """q_k^(t) through the exponential (spin-chain) rewriting.

    Equals (1+(-1)^|t|) (-1)^n(t) exp(c0 k + c1 |psi(t)| + c2 n(t)), where
    psi is the partial-sum automorphism and n(t) = <t, psi(t)> counts the
    polymers of t, evaluated with exp(c_i) as the underlying ratios,

        2 (-1)^n(t) ((4-r)/2)^k ((2-r)/(4-r))^|psi(t)| (r/(4-r))^n(t),

    so it is exact in exact mode (the rewrite checks with zero tolerance at
    rational r) and a float in float mode.
    """
    if params.mode == "symbolic":
        raise ValueError("the rewrite is rational in r; use exact or float mode")
    if t.weight() % 2 == 1:
        return 0 * params.one
    r = params.r
    s = partial_sum_word(t)
    n_t = t.inner(s)
    return 2 * (-1) ** n_t * ((4 - r) / 2) ** t.k * ((2 - r) / (4 - r)) ** s.weight() * (r / (4 - r)) ** n_t


def hat_q_ising_abs(t: SpinWord, params: Params) -> float:
    """|q_k^(t)| via the nearest-neighbour chain form (|t| even): 2 exp(E) in the spins sigma_i = (-1)^(psi(t)_i),
    E the sum, in the constants (c0, c1, c2) of :func:`ising_constants`, of the prefactor c0 k + c1 k/2 + c2 (k+1)/4,
    the bulk field -c1/2 on each spin, the boundary fields -c2/4 on sigma_1 and sigma_k, and the pair coupling -c2/4
    on each sigma_i sigma_(i+1)."""
    if t.weight() % 2 == 1:
        return 0.0
    c0, c1, c2 = ising_constants(params)
    spins = [1.0 - 2.0 * b for b in partial_sum_word(t)]
    k = t.k
    expo = c0 * k + c1 * k / 2.0 + c2 * (k + 1) / 4.0
    expo += -c1 / 2.0 * sum(spins)
    if k:
        expo += -c2 / 4.0 * (spins[0] + spins[-1])
    expo += -c2 / 4.0 * sum(spins[i] * spins[i + 1] for i in range(k - 1))
    return 2.0 * math.exp(expo)


def polymer_count(t: SpinWord) -> int:
    """n(t) = <t, psi(t)>; equals the length of the decomposition."""
    return t.inner(partial_sum_word(t))


def interaction_coefficients(k: int, params: Params) -> np.ndarray:
    """Fourier coefficients Q_k^ of the energy Q_k = log q_k (float).

    The induced interaction constants are -Q_k^(t); for r in [0, 1]
    they are all nonnegative away from t = 0 (ferromagnetic chain).
    The t = 0 coefficient carries the additive bulk term
    log 2 + k log((4-r)/2).
    """
    if k > 20:
        raise ValueError("interaction tables capped at k = 20")
    return fourier_transform(np.log(pq_tables(k, params.as_float()).q), k)


def ferromagnetic_violation(q_hat: np.ndarray) -> float:
    """max over t != 0 of a table q_hat of :func:`interaction_coefficients`; ferromagnetic iff <= 0 (up to rounding)."""
    return float(np.max(q_hat[1:])) if len(q_hat) > 1 else 0.0
