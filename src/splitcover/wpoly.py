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

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational((self.re * other.re + self.im * other.im) / d,
                                (self.im * other.re - self.re * other.im) / d)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @staticmethod
    def i() -> "GaussianRational":
        return GaussianRational(Fraction(0), Fraction(1))


QI_ZERO = GaussianRational()
QI_ONE = GaussianRational(Fraction(1))


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
    def constant(c: GaussianRational) -> "BivariatePolyQi":
        return BivariatePolyQi({(0, 0): c})

    @staticmethod
    def zero() -> "BivariatePolyQi":
        return BivariatePolyQi({})

    def __add__(self, other: "BivariatePolyQi") -> "BivariatePolyQi":
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, QI_ZERO) + val
        return BivariatePolyQi(out)

    def __sub__(self, other: "BivariatePolyQi") -> "BivariatePolyQi":
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, QI_ZERO) - val
        return BivariatePolyQi(out)

    def __mul__(self, other) -> "BivariatePolyQi":
        if isinstance(other, GaussianRational):
            return BivariatePolyQi(
                {k: v * other for k, v in self.terms.items()})
        out: dict = {}
        for (a, b), va in self.terms.items():
            for (c, d), vb in other.terms.items():
                key = (a + c, b + d)
                out[key] = out.get(key, QI_ZERO) + va * vb
        return BivariatePolyQi(out)

    def __pow__(self, k: int) -> "BivariatePolyQi":
        out = BivariatePolyQi.constant(QI_ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    @classmethod
    def from_w_powers(cls, coeffs: Sequence[GaussianRational]) -> "BivariatePolyQi":
        """Polynomial sum(c_k * w^k) with w = u + i v, expanded over (u, v)."""
        w = BivariatePolyQi({(1, 0): QI_ONE, (0, 1): GaussianRational.i()})
        out = BivariatePolyQi.zero()
        power = BivariatePolyQi.constant(QI_ONE)
        for c in coeffs:
            out = out + power * c
            power = power * w
        return out

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [[du, dv, c.re.numerator, c.re.denominator,
                 c.im.numerator, c.im.denominator] for (du, dv), c in items]

    @classmethod
    def from_json(cls, data: Iterable) -> "BivariatePolyQi":
        terms = {}
        for du, dv, ren, red, imn, imd in data:
            terms[(json_int(du), json_int(dv))] = GaussianRational(
                _frac((ren, red)), _frac((imn, imd)))
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


def _segment_dist2(p, q, c) -> Fraction:
    """Exact squared distance from point c to segment pq."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    length2 = dx * dx + dy * dy
    if length2 == 0:
        return _dist2(p, c)
    t = ((c[0] - p[0]) * dx + (c[1] - p[1]) * dy) / length2
    t = max(Fraction(0), min(Fraction(1), t))
    ex, ey = p[0] + t * dx - c[0], p[1] + t * dy - c[1]
    return ex * ex + ey * ey


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
        p = (_frac(u), _frac(v))
        if _dist2(p, self.outer.center) > self.outer.radius ** 2:
            return False
        return all(_dist2(p, h.center) >= h.radius ** 2 for h in self.holes)

    def segment_inside(self, p, q) -> bool:
        """Both endpoints in the space and the segment misses every open hole."""
        if not (self.contains(*p) and self.contains(*q)):
            return False
        return all(_segment_dist2(p, q, h.center) >= h.radius ** 2
                   for h in self.holes)

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
    for p, q in zip(loop.vertices, loop.vertices[1:]):
        if not space.contains(*p):
            raise GeometryError(f"vertex {p} leaves the space")
        if not space.segment_inside(p, q):
            for h in space.holes:
                if _segment_dist2(p, q, h.center) < h.radius ** 2:
                    raise GeometryError(f"segment {p}-{q} crosses hole {h}")
            raise GeometryError(f"segment {p}-{q} leaves the outer disc")


def winding_number(loop: LoopPath, point: tuple[Fraction, Fraction]) -> int:
    """Exact winding number of the polyline around a point off the path."""
    px, py = _frac(point[0]), _frac(point[1])
    total = 0
    for (ax, ay), (bx, by) in zip(loop.vertices, loop.vertices[1:]):
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
    16-gon of twice the hole's radius counterclockwise, and back. The winding
    matrix against the hole centers is verified to be the identity. Built
    once per space and kept on it."""
    if space._loops is not None:
        return space._loops
    holes = space.holes
    for a, b in zip(holes, holes[1:]):
        if a.center[0] >= b.center[0]:
            raise GeometryError("holes must be ordered by center abscissa")
    loops = []
    for idx, hole in enumerate(holes):
        cx, cy = hole.center
        rho = 2 * hole.radius
        bottom = (cx, cy - rho)
        ring = [bottom]
        for j in range(1, 16):
            ang = -math.pi / 2 + 2 * math.pi * j / 16
            cos_a, sin_a = _rational_unit(ang)
            ring.append((cx + rho * cos_a, cy + rho * sin_a))
        ring.append(bottom)
        verts = [space.basepoint] + ring + [space.basepoint]
        loop = LoopPath(tuple(verts))
        try:
            validate_loop(space, loop)
        except GeometryError as exc:
            raise GeometryError(f"loop around hole {idx + 1}: {exc}") from exc
        for jdx, other in enumerate(holes):
            expected = 1 if jdx == idx else 0
            if winding_number(loop, other.center) != expected:
                raise GeometryError(
                    f"loop around hole {idx + 1} winds wrongly about hole {jdx + 1}")
        loops.append(loop)
    object.__setattr__(space, "_loops", tuple(loops))
    return space._loops


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
        # eval_complex_points
        self._complex_terms = tuple(
            tuple((du, dv, complex(c)) for (du, dv), c in p.terms.items())
            for p in self.coeffs)
        self._top_u = max((du for p in self.coeffs for du, _ in p.terms), default=0)
        self._top_v = max((dv for p in self.coeffs for _, dv in p.terms), default=0)

    def eval_complex_points(self, points: Sequence[tuple]) -> np.ndarray:
        """Float coefficients at float points (u, v): an (N, degree) array
        whose row k is the fiber over points[k].

        Each coefficient sums c * u**du * v**dv over its terms in order, in
        Python complex arithmetic, so every entry equals
        BivariatePolyQi.eval_complex bit for bit.
        """
        out = np.empty((len(points), self.degree), dtype=complex)
        for k, (u, v) in enumerate(points):
            pow_u = [u ** d for d in range(self._top_u + 1)]
            pow_v = [v ** d for d in range(self._top_v + 1)]
            row = []
            for terms in self._complex_terms:
                acc = 0j
                for du, dv, c in terms:
                    acc += c * pow_u[du] * pow_v[dv]
                row.append(acc)
            out[k] = row
        return out

    def eval_complex(self, u: float, v: float) -> np.ndarray:
        return self.eval_complex_points(((u, v),))[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeierstrassPoly)
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "WeierstrassPoly":
        return cls(json_int(data["degree"]),
                   [BivariatePolyQi.from_json(c) for c in data["coeffs"]])
