"""Quantitative polynomial approximation of coefficient maps.

A sampled coefficient map is approximated componentwise (real and imaginary
parts separately) by bivariate polynomials with rational coefficients. The
certificate records the componentwise sup errors against the bound
eps/(4n), the summed bound eps/2, and a discriminant check along the
straight-line homotopy between the original and fitted maps, all of which
together guarantee the fitted map stays in the space of separable
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .wpoly import (
    BaseSpace,
    BivariatePolyQi,
    GaussianRational,
    WeierstrassPoly,
    discriminant_at,
    min_gap,
    roots_at,
    sample_grid,
)

DEFAULT_GRID_DENSITY = 41
DEFAULT_T_MESH = 17
DEFAULT_MAX_DENOMINATOR = 10 ** 6
DEFAULT_CONSERVATISM = 0.5


class DegreeExhaustedError(RuntimeError):
    """No polynomial up to the degree cap met the required bound."""


@dataclass(frozen=True, eq=False)
class SampledCoeffMap:
    """Coefficient map sampled on rational grid points of the base space.

    values is a read-only (N, n) complex array: row k holds the n
    coefficients over grid[k].
    """

    grid: tuple[tuple[Fraction, Fraction], ...]
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if len(self.grid) != len(self.values):
            raise ValueError("one value tuple per grid point required")
        try:
            values = np.array(self.values, dtype=complex)
        except ValueError as exc:
            raise ValueError("inconsistent coefficient count") from exc
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError("inconsistent coefficient count")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        singular = np.flatnonzero(np.abs(discriminant_at(values)) == 0.0)
        if singular.size:
            u, v = self.grid[singular[0]]
            raise ValueError(f"sampled map touches the discriminant locus "
                             f"at ({float(u):.3f}, {float(v):.3f})")

    @property
    def degree(self) -> int:
        return self.values.shape[1]


def sample_coeff_function(space: BaseSpace,
                          fn: Callable[[Fraction, Fraction], Sequence[complex]],
                          density: int = DEFAULT_GRID_DENSITY,
                          provenance: str = "") -> SampledCoeffMap:
    grid = tuple(sample_grid(space, density))
    values = [[complex(c) for c in fn(u, v)] for u, v in grid]
    return SampledCoeffMap(grid, values, provenance)


def sample_poly_map(f: WeierstrassPoly, space: BaseSpace,
                    density: int = DEFAULT_GRID_DENSITY,
                    provenance: str = "exact polynomial map") -> SampledCoeffMap:
    grid = tuple(sample_grid(space, density))
    return SampledCoeffMap(grid, f.eval_points(grid), provenance)


def estimate_eps(coeff_map: SampledCoeffMap,
                 conservatism: float = DEFAULT_CONSERVATISM) -> float:
    """Conservative lower estimate of the distance to the discriminant locus.

    At each sample with roots r1..rn, minimal gap s and radius bound
    R = 1 + max|r|, the local bound is s*(s/(4R))^(n-1); the estimate is the
    grid minimum scaled by the conservatism factor. For degree 1 the
    discriminant locus is empty and the local bound is taken as 1. The map
    itself guarantees a nonzero discriminant at every sample.
    """
    if not 0 < conservatism <= 1:
        raise ValueError("conservatism must lie in (0, 1]")
    n = coeff_map.degree
    if n == 1:
        return conservatism * 1.0
    roots = roots_at(coeff_map.values)
    s = min_gap(roots)
    radius = 1.0 + np.abs(roots).max(axis=1)
    return conservatism * float((s * (s / (4.0 * radius)) ** (n - 1)).min())


@dataclass(frozen=True, eq=False)
class ApproximationCertificate:
    """Componentwise and summed sup-norm errors of a rational polynomial fit.

    per_component_error interleaves real and imaginary parts:
    (re_0, im_0, re_1, im_1, ...), 2n entries for a degree-n map.
    """

    degree: int
    eps_hat: float
    per_component_error: tuple[float, ...]
    total_error: float
    homotopy_checked: bool

    @classmethod
    def exact(cls, degree: int, eps_hat: float) -> "ApproximationCertificate":
        """Certificate for a map that is its own approximation: the error is
        zero on the whole space, not only on the grid, and the straight-line
        homotopy is constant."""
        return cls(degree, eps_hat, (0.0,) * (2 * degree), 0.0, True)

    @property
    def component_bound(self) -> float:
        return self.eps_hat / (4.0 * self.degree)

    @property
    def is_valid(self) -> bool:
        return (all(e < self.component_bound for e in self.per_component_error)
                and self.total_error < self.eps_hat / 2.0
                and self.homotopy_checked)

    def to_json(self) -> dict:
        return {"degree": self.degree, "eps_hat": self.eps_hat,
                "per_component_error": list(self.per_component_error),
                "total_error": self.total_error,
                "homotopy_checked": self.homotopy_checked,
                "component_bound": self.component_bound,
                "valid": self.is_valid}


_SNAP_LADDER = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 100, 256,
                1000, 10 ** 4, 10 ** 5, 10 ** 6)


def _snap_to_rational(x: float, max_denominator: int) -> Fraction:
    """Smallest-denominator fraction reproducing x up to float noise."""
    tol = max(1e-9, 1e-12 * abs(x))
    for cap in _SNAP_LADDER:
        if cap > max_denominator:
            break
        cand = Fraction(x).limit_denominator(cap)
        if abs(float(cand) - x) <= tol:
            return cand
    return Fraction(x).limit_denominator(max_denominator)


def _monomial_basis(degree: int) -> list[tuple[int, int]]:
    return [(p, q) for total in range(degree + 1)
            for p in range(total, -1, -1) for q in (total - p,)]


def _fit_real_component(grid, data: np.ndarray, max_degree: int, bound: float,
                        max_denominator: int):
    """Least squares at increasing degree; the post-rounding exact sup error
    must meet the bound."""
    uf = np.array([float(u) for u, _ in grid])
    vf = np.array([float(v) for _, v in grid])
    best = None
    for degree in range(max_degree + 1):
        basis = _monomial_basis(degree)
        design = np.column_stack([uf ** p * vf ** q for p, q in basis])
        coeffs, *_ = np.linalg.lstsq(design, data, rcond=None)
        terms = {}
        for (p, q), c in zip(basis, coeffs):
            frac = _snap_to_rational(float(c), max_denominator)
            if frac != 0:
                terms[(p, q)] = GaussianRational(frac)
        poly = BivariatePolyQi(terms)
        err = float(np.abs(poly.eval_points(grid).real - data).max())
        if err < bound:
            return poly, err
        best = err if best is None else min(best, err)
    raise DegreeExhaustedError(
        f"no fit met the bound {bound:.3e} up to degree {max_degree} "
        f"(best sup error {best:.3e})")


def fit_rational_polys(coeff_map: SampledCoeffMap, max_degree: int,
                       eps_hat: float,
                       max_denominator: int = DEFAULT_MAX_DENOMINATOR,
                       t_mesh: int = DEFAULT_T_MESH):
    """Fit every coefficient component by a rational bivariate polynomial.

    Real and imaginary parts are fitted separately until the exact
    post-rounding sup error over the grid drops below eps_hat/(4n); the
    certificate bundles the componentwise errors, the summed error, and the
    homotopy discriminant check.
    """
    if eps_hat <= 0:
        raise ValueError("eps_hat must be positive")
    n = coeff_map.degree
    bound = eps_hat / (4.0 * n)
    values = coeff_map.values
    fitted: list[BivariatePolyQi] = []
    per_component: list[float] = []
    for j in range(n):
        re_poly, re_err = _fit_real_component(
            coeff_map.grid, values[:, j].real, max_degree, bound, max_denominator)
        im_poly, im_err = _fit_real_component(
            coeff_map.grid, values[:, j].imag, max_degree, bound, max_denominator)
        combined = {}
        for key, c in re_poly.terms.items():
            combined[key] = GaussianRational(c.re, Fraction(0))
        for key, c in im_poly.terms.items():
            prev = combined.get(key, GaussianRational())
            combined[key] = GaussianRational(prev.re, c.re)
        fitted.append(BivariatePolyQi(combined))
        per_component.extend([re_err, im_err])

    total_error = _sup_total_error(
        values, WeierstrassPoly(n, fitted).eval_points(coeff_map.grid))
    homotopy = check_homotopy(coeff_map, fitted, eps_hat, t_mesh)
    cert = ApproximationCertificate(
        degree=n, eps_hat=eps_hat,
        per_component_error=tuple(per_component),
        total_error=total_error, homotopy_checked=homotopy)
    return fitted, cert


def _sup_total_error(start: np.ndarray, end: np.ndarray) -> float:
    return float(np.abs(end - start).sum(axis=1).max())


def check_homotopy(coeff_map: SampledCoeffMap,
                   fitted: Sequence[BivariatePolyQi], eps_hat: float,
                   t_mesh: int = DEFAULT_T_MESH) -> bool:
    """Straight-line homotopy check between the sampled and fitted maps.

    True when the summed sup error is below eps_hat/2 and the discriminant
    stays away from zero at every grid point and homotopy time, so the whole
    segment remains among separable polynomials. The sampled map's own
    discriminant is nonzero at every grid point by construction.
    """
    if t_mesh < 2:
        raise ValueError("t_mesh must have at least two points")
    start = coeff_map.values
    end = WeierstrassPoly(len(fitted), fitted).eval_points(coeff_map.grid)
    if _sup_total_error(start, end) >= eps_hat / 2.0:
        return False
    floor = 1e-9 * np.abs(discriminant_at(start))
    for t in np.linspace(0.0, 1.0, t_mesh):
        mid = (1.0 - t) * start + t * end
        if np.any(np.abs(discriminant_at(mid)) <= floor):
            return False
    return True
