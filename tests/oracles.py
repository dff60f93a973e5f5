"""Exact reference evaluations that tests compare the program against: exact
coefficient values at rational points, and a rational grid over a base
space."""

import math
from fractions import Fraction

from splitcover.wpoly import QI_ZERO, GaussianRational, _frac


def eval_exact(poly, u, v) -> GaussianRational:
    """Value of a BivariatePolyQi at a rational point, in Q(i)."""
    u, v = _frac(u), _frac(v)
    pow_u: dict[int, Fraction] = {0: Fraction(1)}
    pow_v: dict[int, Fraction] = {0: Fraction(1)}
    out = QI_ZERO
    for (du, dv), c in poly.terms.items():
        if du not in pow_u:
            pow_u[du] = u ** du
        if dv not in pow_v:
            pow_v[dv] = v ** dv
        scale = pow_u[du] * pow_v[dv]
        out = out + GaussianRational(c.re * scale, c.im * scale)
    return out


def fiber_exact(f, u, v, space) -> list:
    """Exact coefficients of a WeierstrassPoly's fiber at (u, v), a point of
    the space; a point outside it raises ValueError."""
    u, v = _frac(u), _frac(v)
    if not space.contains(u, v):
        raise ValueError(f"point ({u}, {v}) is outside the base space")
    return [eval_exact(c, u, v) for c in f.coeffs]


def bounding_box(space):
    cx, cy = space.outer.center
    r = space.outer.radius
    return (cx - r, cx + r, cy - r, cy + r)


def sample_grid(space, density: int) -> list:
    """Rational tensor grid over the bounding box, filtered to the space.

    Membership is decided exactly as BaseSpace.contains decides it, in
    integers: every coordinate, centre and radius is scaled by one common
    denominator.
    """
    if density < 2:
        raise ValueError("grid density must be at least 2")
    x0, x1, y0, y1 = bounding_box(space)
    discs = (space.outer,) + space.holes
    den = math.lcm(*(q.denominator for d in discs for q in (*d.center, d.radius)))
    scale = den * (density - 1)

    def scaled(lo: Fraction, hi: Fraction) -> list:
        # k-th coordinate lo + (hi - lo) k / (density - 1), times scale
        first, stride = int(lo * scale), int((hi - lo) * den)
        return [first + stride * k for k in range(density)]

    def disc(d) -> tuple:
        """Scaled centre and squared radius."""
        return (int(d.center[0] * scale), int(d.center[1] * scale),
                int(d.radius * scale) ** 2)

    ox, oy, outer_r2 = disc(space.outer)
    holes = [disc(h) for h in space.holes]
    us = [x0 + (x1 - x0) * Fraction(i, density - 1) for i in range(density)]
    vs = [y0 + (y1 - y0) * Fraction(j, density - 1) for j in range(density)]
    pts = []
    for u, su in zip(us, scaled(x0, x1)):
        for v, sv in zip(vs, scaled(y0, y1)):
            if (su - ox) ** 2 + (sv - oy) ** 2 <= outer_r2 and all(
                    (su - cx) ** 2 + (sv - cy) ** 2 >= r2 for cx, cy, r2 in holes):
                pts.append((u, v))
    return pts
