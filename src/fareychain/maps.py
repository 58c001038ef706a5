"""The one-parameter family of two-branch Moebius interval maps.

For r in [0, 2) the map acts on [0, 1] as

    F_r(x) = (2-r) x / (1 - r x)        for x <= 1/2,
    F_r(x) = F_r(1 - x)                 for x >  1/2,

interpolating between the tent map (r = 0) and the continued-fraction
(Farey) map (r = 1).  Writing rho = 2 - r, the minimal slope is
|F_r'| >= rho, so the map is uniformly expanding exactly for r < 1.
"""

from __future__ import annotations

import math

from .rings import Params


def _check_unit_interval(x) -> None:
    if not 0 <= x <= 1:
        raise ValueError(f"x={x} outside [0, 1]")


def forward_map(x, p: Params):
    """Apply F_r.  Both branches agree at x = 1/2 with value 1."""
    _check_unit_interval(x)
    r, rho = p.r, p.rho
    if 2 * x > 1:
        x = 1 - x
    return rho * x / (1 - r * x)


def inverse_branch(x, p: Params, j: int):
    """The left (j=0) or right (j=1) inverse branch of F_r.

    The left branch maps [0,1] onto [0,1/2] as x/(rho + r x); the right
    branch is its reflection 1 - x/(rho + r x) onto [1/2, 1].
    """
    _check_unit_interval(x)
    if j not in (0, 1):
        raise ValueError("branch index must be 0 or 1")
    y = x / (p.rho + p.r * x)
    return 1 - y if j else y


def left_branch_power(x, p: Params, n: int):
    """n-fold composition of the left inverse branch, in closed form.

    Equals (rho^n / x + r * (1 + rho + ... + rho^(n-1)))^(-1); the left
    branch fixes 0, so x = 0 returns 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_unit_interval(x)
    if x == 0:
        return x
    r, rho = p.r, p.rho
    if rho == 1:
        geom = n * p.one
    else:
        geom = (rho**n - 1) / (rho - 1)
    return 1 / (rho**n / x + r * geom)


def invariant_density(x, p: Params) -> float:
    """Density of the absolutely continuous invariant probability measure.

    K_r / (1 - r + r x) with K_r = -r/log(1-r) for r in (0,1) and
    K_0 = 1.  Only defined (normalizable) for r < 1.
    """
    _check_unit_interval(x)
    r = p.r_float
    if r >= 1:
        raise ValueError("invariant density requires r < 1")
    K = 1.0 if r == 0 else -r / math.log1p(-r)
    return K / (1 - r + r * float(x))


def involution_s(x, p: Params):
    """The order-two Moebius transformation ((r-1)x + 2-r)/(rx + 1-r).

    It fixes 1, swaps the two inverse branches, and for r = 1 reduces
    to x -> 1/x.  The pole at x = (r-1)/r is rejected.
    """
    r = p.r
    den = r * x + 1 - r
    if den == 0:
        raise ValueError("x is the pole of the involution")
    return ((r - 1) * x + 2 - r) / den

