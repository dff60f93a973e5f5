"""Weierstrass polynomials over a disc with holes.

Coefficients are bivariate polynomials over the Gaussian rationals, evaluated
in floats along loops; the base space and generator loops are kept in
rational coordinates so geometric predicates (containment, segment-disc
intersection, winding numbers) are decided without floating error. Root
finding is numerical, in the roots module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .permgroup import json_int
# the numeric fiber kernels live in roots; they keep their names here
from .roots import (
    MultipleRootError,
    RootFindingError,
    gamma,
    min_gap,
    roots_at,
)


class GeometryError(RuntimeError):
    """A requested geometric construction is infeasible."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return Fraction(json_int(x[0]), json_int(x[1]))
    return Fraction(json_int(x))


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i) with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


QI_ZERO = GaussianRational()


class BivariatePolyQi:
    """Polynomial in two real variables with Gaussian rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple, GaussianRational]] = None):
        cleaned = {}
        for key, val in (terms or {}).items():
            du, dv = int(key[0]), int(key[1])
            if du < 0 or dv < 0:
                raise ValueError("negative exponents are not allowed")
            if not val.is_zero():
                cleaned[(du, dv)] = val
        self.terms = cleaned

    @staticmethod
    def zero() -> "BivariatePolyQi":
        return BivariatePolyQi({})

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePolyQi) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BivariatePolyQi({self.terms!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def eval_complex(self, u: float, v: float) -> complex:
        out = 0j
        for (du, dv), c in self.terms.items():
            out += complex(c) * (u ** du) * (v ** dv)
        return out

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [[du, dv, c.re.numerator, c.re.denominator,
                 c.im.numerator, c.im.denominator] for (du, dv), c in items]

    @classmethod
    def from_json(cls, data: Iterable) -> "BivariatePolyQi":
        terms = {}
        for du, dv, ren, red, imn, imd in data:
            key = (json_int(du), json_int(dv))
            if key in terms:
                raise ValueError(f"repeated monomial u^{key[0]} v^{key[1]}")
            terms[key] = GaussianRational(_frac((ren, red)), _frac((imn, imd)))
        return cls(terms)


def _json_frac(x: Fraction) -> list:
    return [x.numerator, x.denominator]


@dataclass(frozen=True)
class Disc:
    center: tuple[Fraction, Fraction]
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", (_frac(self.center[0]), _frac(self.center[1])))
        object.__setattr__(self, "radius", _frac(self.radius))
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")

    def to_json(self) -> dict:
        return {"c": [_json_frac(self.center[0]), _json_frac(self.center[1])],
                "r": _json_frac(self.radius)}

    @classmethod
    def from_json(cls, data: Mapping) -> "Disc":
        return cls((_frac(data["c"][0]), _frac(data["c"][1])), _frac(data["r"]))


def _dist2(p, q) -> Fraction:
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy


def _integers(values: Sequence[Fraction]) -> list[int]:
    """The values times their least common denominator, a positive factor."""
    den = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values]


class _IntGeometry:
    """A base space and points scaled to integers by one common
    denominator, so that every predicate is decided without division."""

    def __init__(self, space: "BaseSpace", points: Sequence[tuple]):
        discs = (space.outer,) + space.holes
        ints = _integers([q for d in discs for q in (*d.center, d.radius)]
                         + [q for p in points for q in p])
        # (center x, center y, squared radius) of the outer disc and holes
        self.outer, *self.holes = [(ints[i], ints[i + 1], ints[i + 2] ** 2)
                                   for i in range(0, 3 * len(discs), 3)]
        self.points = list(zip(ints[3 * len(discs)::2], ints[3 * len(discs) + 1::2]))

    def contains(self, i: int) -> bool:
        x, y = self.points[i]
        cx, cy, r2 = self.outer
        return (x - cx) ** 2 + (y - cy) ** 2 <= r2 and all(
            (x - hx) ** 2 + (y - hy) ** 2 >= h2 for hx, hy, h2 in self.holes)

    def crosses(self, i: int, j: int, hole: int) -> bool:
        """Whether segment i-j comes nearer than the radius to the hole's
        center c: with d = q - p and e = c - p, at the foot of the
        perpendicular |e|^2 |d|^2 - (e.d)^2 < r^2 |d|^2 decides."""
        (px, py), (qx, qy) = self.points[i], self.points[j]
        cx, cy, r2 = self.holes[hole]
        dx, dy, ex, ey = qx - px, qy - py, cx - px, cy - py
        dot, len2 = ex * dx + ey * dy, dx * dx + dy * dy
        if dot <= 0 or len2 == 0:
            return ex * ex + ey * ey < r2
        if dot >= len2:
            return (cx - qx) ** 2 + (cy - qy) ** 2 < r2
        return (ex * ex + ey * ey) * len2 - dot * dot < r2 * len2


@dataclass(frozen=True)
class BaseSpace:
    """Closed disc minus disjoint open sub-discs, with a marked basepoint."""

    outer: Disc
    holes: tuple[Disc, ...]
    basepoint: tuple[Fraction, Fraction]
    # the generator loops, built and validated by generator_loops on first use
    _loops: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        object.__setattr__(
            self, "basepoint", (_frac(self.basepoint[0]), _frac(self.basepoint[1])))
        for h in self.holes:
            margin = self.outer.radius - h.radius
            if margin <= 0 or _dist2(h.center, self.outer.center) >= margin * margin:
                raise ValueError(f"hole {h} is not strictly inside the outer disc")
        for i, a in enumerate(self.holes):
            for b in self.holes[i + 1:]:
                s = a.radius + b.radius
                if _dist2(a.center, b.center) <= s * s:
                    raise ValueError(f"holes {a} and {b} overlap or touch")
        if not self.contains(*self.basepoint):
            raise ValueError("basepoint must lie in the space")
        for h in self.holes:
            if _dist2(self.basepoint, h.center) <= h.radius * h.radius:
                raise ValueError("basepoint must avoid hole closures")

    @property
    def rank(self) -> int:
        return len(self.holes)

    def contains(self, u, v) -> bool:
        return _IntGeometry(self, [(_frac(u), _frac(v))]).contains(0)

    def to_json(self) -> dict:
        return {"outer": self.outer.to_json(),
                "holes": [h.to_json() for h in self.holes],
                "basepoint": [_json_frac(self.basepoint[0]), _json_frac(self.basepoint[1])]}

    @classmethod
    def from_json(cls, data: Mapping) -> "BaseSpace":
        return cls(Disc.from_json(data["outer"]),
                   tuple(Disc.from_json(h) for h in data["holes"]),
                   (_frac(data["basepoint"][0]), _frac(data["basepoint"][1])))


def default_base_space(m: int) -> BaseSpace:
    """Outer disc of radius 10 with m unit holes spaced along the x-axis."""
    if m < 0:
        raise ValueError("hole count must be nonnegative")
    holes = tuple(
        Disc((Fraction(4 * j - 2 * (m - 1)), Fraction(0)), Fraction(1))
        for j in range(m))
    return BaseSpace(Disc((Fraction(0), Fraction(0)), Fraction(10)), holes,
                     (Fraction(0), Fraction(-8)))


def extend_base_space(space: BaseSpace, extra: int) -> BaseSpace:
    """Append unit holes to the right of the existing ones, 4 apart."""
    if extra <= 0:
        return space
    holes = list(space.holes)
    x = max((h.center[0] for h in holes), default=Fraction(-4))
    for _ in range(extra):
        x = x + 4
        holes.append(Disc((x, Fraction(0)), Fraction(1)))
    return BaseSpace(space.outer, tuple(holes), space.basepoint)


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline with rational vertices, based at its first vertex."""

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        verts = tuple((_frac(p[0]), _frac(p[1])) for p in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2 or verts[0] != verts[-1]:
            raise ValueError("a loop must start and end at the same vertex")

    def to_json(self) -> list:
        return [[_json_frac(x), _json_frac(y)] for x, y in self.vertices]

    @classmethod
    def from_json(cls, data) -> "LoopPath":
        return cls(tuple((_frac(x), _frac(y)) for x, y in data))


def validate_loop(space: BaseSpace, loop: LoopPath):
    """Exact check that every vertex and segment stays inside the space."""
    geo = _IntGeometry(space, loop.vertices)
    for i, (p, q) in enumerate(zip(loop.vertices, loop.vertices[1:])):
        if not geo.contains(i):
            raise GeometryError(f"vertex {p} leaves the space")
        for k, h in enumerate(space.holes):
            if geo.crosses(i, i + 1, k):
                raise GeometryError(f"segment {p}-{q} crosses hole {h}")
        if not geo.contains(i + 1):
            raise GeometryError(f"segment {p}-{q} leaves the outer disc")


def winding_number(loop: LoopPath, point: tuple[Fraction, Fraction]) -> int:
    """Exact winding number of the polyline around a point off the path,
    on the integers of one common denominator."""
    ints = _integers([q for p in loop.vertices for q in p]
                     + [_frac(point[0]), _frac(point[1])])
    (px, py), verts = ints[-2:], list(zip(ints[:-2:2], ints[1:-2:2]))
    total = 0
    for (ax, ay), (bx, by) in zip(verts, verts[1:]):
        if ay <= py < by:  # upward crossing
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                total += 1
        elif by <= py < ay:  # downward crossing
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
                total -= 1
    return total


def _rational_unit(angle: float, scale_bits: int = 20) -> tuple[Fraction, Fraction]:
    s = 1 << scale_bits
    return (Fraction(round(math.cos(angle) * s), s),
            Fraction(round(math.sin(angle) * s), s))


def generator_loops(space: BaseSpace) -> tuple[LoopPath, ...]:
    """One polygonal loop per hole: out from the basepoint, once around a
    regular polygon on the circle of twice the hole's radius
    counterclockwise, from its lowest vertex, and back. Each hole gets the
    fewest sides, from 6 to 16, whose loop stays in the space and whose
    winding numbers about the hole centers are 1 for its own hole and 0 for
    the others; fewer sides mean fewer vertex fibers to solve and segments
    to track. Built once per space and kept on it."""
    if space._loops is not None:
        return space._loops
    holes = space.holes
    for a, b in zip(holes, holes[1:]):
        if a.center[0] >= b.center[0]:
            raise GeometryError("holes must be ordered by center abscissa")
    loops = []
    for idx, hole in enumerate(holes):
        for sides in range(6, 17):
            try:
                loops.append(_hole_loop(space, idx, sides))
                break
            except GeometryError:
                if sides == 16:
                    raise
    object.__setattr__(space, "_loops", tuple(loops))
    return space._loops


def _hole_loop(space: BaseSpace, idx: int, sides: int) -> LoopPath:
    """The generator loop around hole idx on a polygon of the given sides;
    GeometryError when it leaves the space or winds wrongly."""
    hole = space.holes[idx]
    cx, cy = hole.center
    rho = 2 * hole.radius
    bottom = (cx, cy - rho)
    ring = [bottom]
    for j in range(1, sides):
        ang = -math.pi / 2 + 2 * math.pi * j / sides
        cos_a, sin_a = _rational_unit(ang)
        ring.append((cx + rho * cos_a, cy + rho * sin_a))
    ring.append(bottom)
    loop = LoopPath((space.basepoint, *ring, space.basepoint))
    try:
        validate_loop(space, loop)
    except GeometryError as exc:
        raise GeometryError(f"loop around hole {idx + 1}: {exc}") from exc
    for jdx, other in enumerate(space.holes):
        expected = 1 if jdx == idx else 0
        if winding_number(loop, other.center) != expected:
            raise GeometryError(
                f"loop around hole {idx + 1} winds wrongly about hole {jdx + 1}")
    return loop


class WeierstrassPoly:
    """Monic polynomial in z whose coefficients are maps on a base space.

    Whether every fiber over the space has distinct roots, the defining
    property of these polynomials, is decided by the certify module.
    """

    def __init__(self, degree: int, coeffs: Sequence[BivariatePolyQi]):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if len(coeffs) != degree:
            raise ValueError("expected one coefficient per power 0..degree-1")
        self.degree = degree
        self.coeffs = tuple(coeffs)
        # (du, dv, complex coefficient) of every term, converted once for
        # segment_polys
        try:
            self._complex_terms = tuple(
                tuple((du, dv, complex(c)) for (du, dv), c in p.terms.items())
                for p in self.coeffs)
        except OverflowError as exc:
            raise RootFindingError(f"a coefficient overflows a float: {exc}") from None
        self._top_u = max((du for p in self.coeffs for du, _ in p.terms), default=0)
        self._top_v = max((dv for p in self.coeffs for _, dv in p.terms), default=0)
        self._top = max((du + dv for p in self.coeffs for du, dv in p.terms),
                        default=0)

    def eval_complex_points(self, points: Sequence[tuple]) -> np.ndarray:
        """Float coefficients at float points (u, v): row k is the fiber over
        points[k], each entry BivariatePolyQi.eval_complex. Raises
        RootFindingError when a coefficient overflows a float."""
        try:
            out = np.array([[c.eval_complex(u, v) for c in self.coeffs]
                            for u, v in points], dtype=complex)
            if np.isfinite(out).all():
                return out.reshape(-1, self.degree)
        except OverflowError:
            pass
        raise RootFindingError(
            f"a coefficient overflows a float at one of the points {points}")

    def eval_complex(self, u: float, v: float) -> np.ndarray:
        return self.eval_complex_points(((u, v),))[0]

    # an overflow is detected on the result below, not warned of
    @np.errstate(over="ignore", invalid="ignore")
    def segment_polys(self, segments: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients along straight segments with rational endpoints:
        c[q, l, k] is the float coefficient of s^l in a_k(a + s (b - a)) on
        segment q = (a, b), l up to D, the largest total degree of a term,
        and err[q, k] >= sum_l |c[q, l, k] - exact| bounds a_k's error for
        every s in [0, 1]. With a and b - a rounded once from their rational
        values, each term of an exact coefficient takes at most d = 4D + T
        + 6 roundings (T the most terms of a coefficient): 3 per degree of a
        power of u or v, D + 1 in a convolution, 2 for the complex term
        coefficient, T - 1 sums over terms, D over powers of s. So the value
        is off by at most gamma_d times the same computation on absolute
        values (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., sec. 3.1), which is low by at most a factor 1 + gamma_d; and
        gamma_d (1 + gamma_d) <= gamma_2d. Underflow is not modelled.
        Raises RootFindingError when a coefficient or its bound overflows a
        float.
        """
        count, top = len(segments), self._top
        inputs = np.array([[float(a[0]), float(a[1]), float(b[0] - a[0]),
                            float(b[1] - a[1])] for a, b in segments]).T
        # row 0 computes the values, row 1 the same on absolute values
        both = np.stack((inputs, np.abs(inputs))).reshape(2, 4, count, 1)

        def powers(start, step, upto):
            out = [np.ones((2, count, 1))]
            for _ in range(upto):
                prev = out[-1]
                nxt = np.zeros((2, count, prev.shape[2] + 1))
                nxt[:, :, :-1] = prev * start
                nxt[:, :, 1:] += prev * step
                out.append(nxt)
            return out

        pow_u = powers(both[:, 0], both[:, 2], self._top_u)
        pow_v = powers(both[:, 1], both[:, 3], self._top_v)
        coeffs = np.zeros((count, top + 1, self.degree), dtype=complex)
        major = np.zeros((count, top + 1, self.degree))
        for k, terms in enumerate(self._complex_terms):
            for du, dv, c in terms:
                mono = np.zeros((2, count, du + dv + 1))
                for i in range(du + 1):
                    mono[:, :, i:i + dv + 1] += pow_u[du][:, :, i:i + 1] * pow_v[dv]
                coeffs[:, :du + dv + 1, k] += c * mono[0]
                major[:, :du + dv + 1, k] += abs(c) * mono[1]
        terms = max((len(t) for t in self._complex_terms), default=0)
        d = 4 * top + terms + 6
        err = gamma(2 * d) * major.sum(axis=1)
        if not (np.isfinite(coeffs).all() and np.isfinite(err).all()):
            raise RootFindingError(
                "a coefficient or its error bound overflows a float on a "
                "loop segment")
        return coeffs, err

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeierstrassPoly)
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "WeierstrassPoly":
        return cls(json_int(data["degree"]),
                   [BivariatePolyQi.from_json(c) for c in data["coeffs"]])
