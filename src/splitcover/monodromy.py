"""Numerical continuation of Weierstrass polynomial root systems along loops.

The tracker is an adaptive predictor-corrector: roots are predicted by their
previous values and corrected by Newton iteration on the fiber polynomial. A
step is accepted only when every root moved less than a fixed fraction of
half the current minimal root gap, which makes nearest-neighbor matching of
the final fiber unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .freecover import CosetTable, DeckGroup, cayley_table, deck_group
from .permgroup import (
    GroupHom,
    PermGroup,
    Permutation,
    inverse,
)
from .wpoly import (
    BaseSpace,
    LoopPath,
    WeierstrassPoly,
    generator_loops,
    min_gap,
    roots_at,
)


class StepUnderflowError(RuntimeError):
    """Step size collapsed; the loop runs too close to the discriminant locus."""


class NewtonDivergenceError(RuntimeError):
    """Corrector failed to converge even at the minimal step size."""


class InstabilityError(RuntimeError):
    """Step refinement changed the tracked permutation."""


class FiberMatchError(RuntimeError):
    """Endpoint roots could not be matched unambiguously to the start fiber."""


@dataclass(frozen=True)
class TrackingConfig:
    initial_step: float = 1e-2
    min_step: float = 1e-8
    safety_factor: float = 0.4
    max_newton_iters: int = 30

    def __post_init__(self):
        if self.initial_step <= 0 or self.min_step <= 0:
            raise ValueError("step sizes must be positive")
        if self.min_step >= self.initial_step:
            raise ValueError("min_step must be smaller than initial_step")
        if not 0 < self.safety_factor < 1:
            raise ValueError("safety_factor must lie in (0, 1)")
        if not isinstance(self.max_newton_iters, int) or self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be a positive integer")

    def halved(self, factor: int = 2) -> "TrackingConfig":
        return TrackingConfig(self.initial_step / factor, self.min_step,
                              self.safety_factor, self.max_newton_iters)


DEFAULT_TRACKING = TrackingConfig()


@dataclass(frozen=True, eq=False)
class MonodromyRep:
    """Permutation of the basepoint fiber induced by each generator loop."""

    rank: int
    degree: int
    perms: tuple[Permutation, ...]
    root_labels: tuple[complex, ...]

    def __post_init__(self):
        if len(self.perms) != self.rank:
            raise ValueError("one permutation per generator required")
        for p in self.perms:
            if p.degree != self.degree:
                raise ValueError("permutation degree must match the root count")
        if len(self.root_labels) != self.degree:
            raise ValueError("one label per root required")
        for i, a in enumerate(self.root_labels):
            for b in self.root_labels[i + 1:]:
                if abs(a - b) < 1e-12:
                    raise ValueError("root labels must be pairwise distinct")

    def to_json(self) -> dict:
        return {"rank": self.rank, "degree": self.degree,
                "perms": [p.to_json() for p in self.perms],
                "root_labels": [[z.real, z.imag] for z in self.root_labels]}

    @classmethod
    def from_json(cls, data: Mapping) -> "MonodromyRep":
        return cls(int(data["rank"]), int(data["degree"]),
                   tuple(Permutation.from_json(p) for p in data["perms"]),
                   tuple(complex(re, im) for re, im in data["root_labels"]))


def _loop_points(loop: LoopPath) -> np.ndarray:
    return np.array([complex(float(x), float(y)) for x, y in loop.vertices])


def _arclength_position(points: np.ndarray):
    seg = np.abs(np.diff(points))
    total = seg.sum()
    if total == 0:
        return lambda t: points[0]
    cum = np.concatenate(([0.0], np.cumsum(seg)))

    def position(t: float) -> complex:
        s = min(max(t, 0.0), 1.0) * total
        k = int(np.searchsorted(cum, s, side="right") - 1)
        k = min(k, len(points) - 2)
        if seg[k] == 0:
            return points[k]
        frac = (s - cum[k]) / seg[k]
        return points[k] * (1 - frac) + points[k + 1] * frac

    return position


def _newton_correct(poly: np.ndarray, dpoly: np.ndarray, guesses: np.ndarray,
                    max_iters: int):
    z = guesses.copy()
    tol_hit = False
    for _ in range(max_iters):
        val = np.polyval(poly, z)
        der = np.polyval(dpoly, z)
        if np.any(der == 0) or not np.all(np.isfinite(der)):
            return None
        step = val / der
        z = z - step
        if not np.all(np.isfinite(z)):
            return None
        if np.abs(step).max() < 1e-13 * (1.0 + np.abs(z).max()):
            tol_hit = True
            break
    return z if tol_hit else None


def track_loop(f: WeierstrassPoly, loop: LoopPath,
               cfg: TrackingConfig = DEFAULT_TRACKING,
               start_roots: Optional[Sequence[complex]] = None) -> Permutation:
    """Continuation of the fiber along a closed loop, as a fiber permutation.

    Returns the permutation sending start label k to the label whose position
    the k-th root reached. Loops sharing a basepoint fiber compose left to
    right, matching permutation composition.
    """
    position = _arclength_position(_loop_points(loop))

    def fiber_poly(t: float) -> np.ndarray:
        x = position(t)
        coeffs = f.eval_complex(x.real, x.imag)
        n = len(coeffs)
        poly = np.empty(n + 1, dtype=complex)
        poly[0] = 1.0
        poly[1:] = coeffs[::-1]
        return poly

    if start_roots is None:
        u0, v0 = loop.vertices[0]
        start = roots_at(f.eval_complex(float(u0), float(v0)))
    else:
        start = np.array(start_roots, dtype=complex)
    n = len(start)
    if n == 1:
        return Permutation.identity(1)

    roots = start.copy()
    t, h = 0.0, cfg.initial_step
    newton_failed = False
    while t < 1.0 - 1e-15:
        t_next = min(1.0, t + h)
        poly = fiber_poly(t_next)
        dpoly = np.polyder(poly)
        corrected = _newton_correct(poly, dpoly, roots, cfg.max_newton_iters)
        accepted = False
        if corrected is not None:
            gap = min_gap(roots)
            movement = float(np.abs(corrected - roots).max())
            if movement < cfg.safety_factor * gap / 2 and min_gap(corrected) > 0:
                roots = corrected
                t = t_next
                h = min(cfg.initial_step, h * 1.4)
                accepted = True
                newton_failed = False
        if not accepted:
            newton_failed = corrected is None
            h /= 2
            if h < cfg.min_step:
                if newton_failed:
                    raise NewtonDivergenceError(
                        f"Newton corrector failed near t={t:.6f}")
                raise StepUnderflowError(
                    f"root gap collapsed near t={t:.6f}; loop too close to "
                    f"the discriminant locus")

    match = _nearest_labels(start, roots, "endpoint roots and start labels")
    return Permutation(tuple(int(j) + 1 for j in match))


def _nearest_labels(labels: np.ndarray, points: np.ndarray,
                    what: str) -> np.ndarray:
    """Index of the label nearest to each point. Every point must lie within
    half the labels' minimal gap of its label, and no label may be hit twice."""
    dist = np.abs(points[:, None] - labels[None, :])
    match = dist.argmin(axis=1)
    if (dist[np.arange(len(points)), match] >= min_gap(labels) / 2).any() \
            or len(set(match.tolist())) != len(points):
        raise FiberMatchError(
            f"{what} do not match one to one within half a gap")
    return match


def refine_and_compare(f: WeierstrassPoly, loop: LoopPath,
                       cfg: TrackingConfig = DEFAULT_TRACKING,
                       start_roots: Optional[Sequence[complex]] = None) -> Permutation:
    """Track at the given step, half of it, and a quarter of it; all three
    permutations must agree."""
    results = [track_loop(f, loop, c, start_roots)
               for c in (cfg, cfg.halved(2), cfg.halved(4))]
    if results[0] != results[1] or results[1] != results[2]:
        raise InstabilityError(
            f"step refinement changed the tracked permutation: {results!r}")
    return results[0]


def basepoint_fiber(f: WeierstrassPoly, space: BaseSpace,
                    root_labels: Optional[Sequence[complex]] = None) -> np.ndarray:
    """Roots over the basepoint, ordered canonically or to match given labels."""
    u, v = space.basepoint
    raw = roots_at(f.eval_complex(float(u), float(v)))
    if root_labels is None:
        order = sorted(range(len(raw)),
                       key=lambda k: (round(raw[k].real, 9), round(raw[k].imag, 9)))
        return raw[np.array(order)]
    labels = np.array(root_labels, dtype=complex)
    if len(labels) != len(raw):
        raise ValueError("label count differs from the fiber size")
    return raw[_nearest_labels(raw, labels, "given labels and the computed fiber")]


def characteristic_hom(f: WeierstrassPoly, space: BaseSpace,
                       cfg: TrackingConfig = DEFAULT_TRACKING,
                       root_labels: Optional[Sequence[complex]] = None
                       ) -> MonodromyRep:
    """Tracked permutation of the basepoint fiber for every generator loop,
    each confirmed by step refinement (refine_and_compare)."""
    loops = generator_loops(space)
    fiber = basepoint_fiber(f, space, root_labels)
    perms = tuple(refine_and_compare(f, loop, cfg, fiber) for loop in loops)
    return MonodromyRep(len(loops), len(fiber), perms,
                        tuple(complex(z) for z in fiber))


def splitting_cover(rep: MonodromyRep) -> tuple[CosetTable, DeckGroup, tuple]:
    """Regular covering whose fiber is the monodromy image group, with its
    deck group and the group's elements in coset order (as permutations of
    the roots); the fiber size always equals the deck group order."""
    table, elems = cayley_table(rep.perms)
    if not rep.perms:
        elems = (Permutation.identity(rep.degree),)
    return table, deck_group(table), elems


def irreducibility_check(rep: MonodromyRep) -> bool:
    """Connectivity of the solution space: the monodromy acts transitively."""
    return PermGroup(rep.degree, rep.perms).is_transitive()


def deck_action_on_roots(rep: MonodromyRep, deck: DeckGroup,
                         elems: tuple) -> tuple[GroupHom, bool]:
    """Action of the splitting cover's deck group on the root labels, given
    the deck group and elements that splitting_cover(rep) returned.

    The deck transformation moving the basepoint coset to the coset of group
    element g acts on labels by g^-1; inversion makes the assignment a
    homomorphism under left-to-right composition. The flag reports
    injectivity, which holds for every regular action.
    """
    target = PermGroup(rep.degree, rep.perms, _elements=tuple(elems))
    mapping = {lam: inverse(elems[lam(1) - 1]) for lam in deck.group.elements()}
    hom = GroupHom(deck.group, target, mapping)
    return hom, hom.is_injective()
