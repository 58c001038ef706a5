"""Coefficient rings and the parameter object shared by all modules.

Three arithmetic modes back every computation:

* ``"symbolic"`` -- integer-coefficient polynomials in the variable
  rho = 2 - r (:class:`RhoPoly`).  All tree identities are polynomial
  identities in rho, so this mode turns tolerance checks into exact
  equality checks.  The two-child kernel runs them as ints, each packed
  as its value at rho = 2^64, and decodes a table's coefficients from
  the base-2^64 digits (:func:`spinchain._digits`).
* ``"exact"`` -- :class:`fractions.Fraction` arithmetic at a rational
  value of r.
* ``"float"`` -- plain ``float`` / numpy ``float64``, used for the large
  enumerations where exact arithmetic is out of reach.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Union


class RhoPoly:
    """A polynomial in rho with integer coefficients.

    ``coeffs[i]`` is the coefficient of rho**i; trailing zeros are
    stripped so equal polynomials compare equal.  The zero polynomial
    has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RhoPoly is immutable")

    def _coerce(self, other) -> "RhoPoly":
        if isinstance(other, RhoPoly):
            return other
        if isinstance(other, int):
            return RhoPoly((other,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RhoPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RhoPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RhoPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return RhoPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = RhoPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate at a numeric rho by Horner's rule."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @classmethod
    def _stripped(cls, coeffs: tuple) -> "RhoPoly":
        """The polynomial of a tuple that already has no trailing zero, taken as it is."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __str__(self):
        """The nonzero terms c*rho^i joined by " + ", a unit coefficient left out; "0" for zero."""
        suffixes, units = _term_texts(len(self.coeffs))
        return " + ".join([u if c == 1 else f"{c}{s}" for c, s, u in zip(self.coeffs, suffixes, units) if c]) or "0"

    def __repr__(self):
        return f"RhoPoly({self})"


@lru_cache(maxsize=64)
def _term_texts(n: int) -> tuple:
    """Per degree i < n, the text after a coefficient ("", "*rho", "*rho^2", ...) and a unit term's text."""
    suffixes = ("", "*rho")[:n] + tuple(f"*rho^{i}" for i in range(2, n))
    return suffixes, ("1",) + tuple(s[1:] for s in suffixes[1:])


RHO = RhoPoly((0, 1))
ONE = RhoPoly((1,))

Scalar = Union[float, Fraction, RhoPoly]

MODES = ("float", "exact", "symbolic")


@dataclass(frozen=True)
class Params:
    """Map-family parameter r together with the active arithmetic mode.

    The slope parameter rho = 2 - r is maintained alongside r.  In
    symbolic mode both are polynomials in rho; in exact mode both are
    Fractions; in float mode both are floats.  r is restricted to
    [0, 2) at this level; operations with a narrower domain of validity
    check it themselves.
    """

    r: Scalar
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact" and not isinstance(self.r, Fraction):
            raise TypeError("exact mode requires a Fraction r")
        if self.mode == "float" and not isinstance(self.r, float):
            raise TypeError("float mode requires a float r")
        if self.mode != "symbolic" and not (0 <= self.r < 2):
            raise ValueError(f"r={self.r} outside [0, 2)")

    @staticmethod
    def floating(r: float) -> "Params":
        return Params(float(r), "float")

    @staticmethod
    def exact(r) -> "Params":
        return Params(Fraction(r), "exact")

    @staticmethod
    def symbolic() -> "Params":
        return Params(RhoPoly((2, -1)), "symbolic")

    @property
    def rho(self) -> Scalar:
        return 2 - self.r if self.mode != "symbolic" else RHO

    @property
    def one(self) -> Scalar:
        if self.mode == "symbolic":
            return ONE
        return Fraction(1) if self.mode == "exact" else 1.0

    @property
    def r_float(self) -> float:
        if self.mode == "symbolic":
            raise ValueError("symbolic parameters have no numeric r")
        return float(self.r)

    def as_float(self) -> "Params":
        return Params.floating(self.r_float)


def _add(x, y):
    """x + y for fractions as (numerator, denominator) pairs of ints, by Fraction's two-gcd rule."""
    (na, da), (nb, db) = x, y
    g = math.gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    t = na * (db // g) + nb * (da // g)
    g2 = math.gcd(t, g)
    return t // g2, da // g * (db // g2)


def power_sum(values, s: int):
    """sum of v^(-s) over nonzero ints, exactly: a Fraction for s > 0, the int sum of v^|s| for s <= 0.
    Equal values are raised once (at level 10 a tree row has 267 distinct denominators in 1024),
    and the terms count / v^s are added as int pairs in a balanced tree, one Fraction made at the end."""
    counts = Counter(values)
    if s <= 0:
        return sum(c * v**-s for v, c in counts.items())
    terms = [(c, v**s) for v, c in counts.items()] or [(0, 1)]
    while len(terms) > 1:  # an odd last term waits for the next round
        terms = [_add(x, y) for x, y in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return Fraction(*terms[0])


def csum_complex(values) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
