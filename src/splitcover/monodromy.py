"""Numerical continuation of Weierstrass polynomial root systems along loops.

The tracker is an adaptive predictor-corrector: roots are predicted by their
previous values and corrected by Newton iteration on the fiber polynomial. A
step is accepted only when every root moved less than a fixed fraction of
half the current minimal root gap, which makes nearest-neighbor matching of
the final fiber unambiguous. It tracks a stack of rows, one per (loop, step
refinement pass), each making the decisions it would make alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Optional, Sequence

import numpy as np

from .freecover import CosetTable, DeckGroup, cayley_table, deck_group
from .permgroup import (
    GroupHom,
    PermGroup,
    Permutation,
    inverse,
    json_int,
)
from .roots import _block_gaps, _derivative_rows, _monic_rows, _polyval_rows
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
        for name in ("initial_step", "min_step", "safety_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) \
                    or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if self.initial_step <= 0 or self.min_step <= 0:
            raise ValueError("step sizes must be positive")
        # a step is a fraction of the loop's arclength: a longer one can
        # cross the whole loop at once, and every refinement pass then
        # agrees on the identity
        if self.initial_step > 1:
            raise ValueError("initial_step must be at most 1, the whole loop")
        if self.min_step >= self.initial_step:
            raise ValueError("min_step must be smaller than initial_step")
        if not 0 < self.safety_factor < 1:
            raise ValueError("safety_factor must lie in (0, 1)")
        if isinstance(self.max_newton_iters, bool) or \
                not isinstance(self.max_newton_iters, int) or self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be a positive integer")


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
        return cls(json_int(data["rank"]), json_int(data["degree"]),
                   tuple(Permutation.from_json(p) for p in data["perms"]),
                   tuple(complex(re, im) for re, im in data["root_labels"]))


def _loop_points(loop: LoopPath) -> np.ndarray:
    return np.array([complex(float(x), float(y)) for x, y in loop.vertices])


def _arclength_position(points: np.ndarray):
    """Point at arclength fraction t of the polyline. It works in Python
    floats and complexes, which give numpy's scalar results bit for bit at a
    fraction of their cost per call."""
    seg = np.abs(np.diff(points))
    total = float(seg.sum())
    pts = points.tolist()
    if total == 0:
        return lambda t: pts[0]
    seg, cum = seg.tolist(), [0.0] + np.cumsum(seg).tolist()
    last = len(pts) - 2

    def position(t: float) -> complex:
        s = min(max(t, 0.0), 1.0) * total
        k = min(bisect_right(cum, s) - 1, last)
        if seg[k] == 0:
            return pts[k]
        frac = (s - cum[k]) / seg[k]
        return pts[k] * (1 - frac) + pts[k + 1] * frac

    return position


def _newton_rows(p: np.ndarray, guesses: np.ndarray, max_iters: int,
                 spread: np.ndarray):
    """Newton's method on row k of guesses for the polynomial p[k] (highest
    coefficient first). Returns the corrected roots and which rows converged.

    A row converges when its largest step falls below 1e-13 (1 + max|z|); it
    fails at a zero or non-finite derivative, a non-finite iterate or after
    max_iters steps. It leaves the stack as soon as it converges or fails,
    so it takes the steps it would take alone. spread is a (degree + 1, 2,
    rows, degree) buffer that it fills with the coefficient columns.
    """
    count, n = guesses.shape
    z = guesses.copy()
    converged = np.zeros(count, dtype=bool)
    # p and its derivative in one Horner pass over a (2, rows, n) stack; the
    # derivative is led by a zero coefficient, which leaves its values as
    # np.polyval computes them
    spread[:, 0] = p.T[:, :, None]
    spread[0, 1] = 0
    spread[1:, 1] = _derivative_rows(p).T[:, :, None]
    live, zl, both = np.arange(count), z, spread
    with np.errstate(all="ignore"):
        for _ in range(max_iters):
            both_z = np.concatenate((zl, zl)).reshape(both.shape[1:])
            val, der = _polyval_rows(both, both_z)
            good = ((der != 0) & np.isfinite(der)).all(axis=1)
            step = val / der
            zl = zl - step
            good &= np.isfinite(zl).all(axis=1)
            hit = good & (np.abs(step).max(axis=1)
                          < 1e-13 * (1.0 + np.abs(zl).max(axis=1)))
            keep = good & ~hit
            if not keep.all():
                z[live[hit]] = zl[hit]
                converged[live[hit]] = True
                live, zl, both = live[keep], zl[keep], both[:, :, keep]
                if not live.size:
                    break
    return z, converged


def _track_rows(f: WeierstrassPoly, rows: Sequence[tuple[LoopPath, float]],
                cfg: TrackingConfig, start: np.ndarray) -> list:
    """Continue the start fiber along every row's loop, all rows in one
    stack. A row is a loop and its initial step; the other settings come
    from cfg.

    Returns, per row, the endpoint fiber (in start order) or the tracking
    error the row raises. Each row keeps its own t, step and roots and makes
    the accept, reject and step-size decisions it would make alone; the
    corrector runs on the stack of unfinished rows. Once a row fails, the
    rows after it stop: callers report the first failing row in row order,
    so those results are never read and are left None.
    """
    count, n = len(rows), len(start)
    if n == 1:
        return [start.copy() for _ in rows]
    results: list = [None] * count
    first_failed = count
    # state of the unfinished rows; entry j tracks row[j]
    row = np.arange(count)
    positions = [_arclength_position(_loop_points(loop)) for loop, _ in rows]
    initial = np.array([step for _, step in rows])
    t, h = np.zeros(count), initial.copy()
    roots = np.tile(start, (count, 1))
    gap = np.full(count, min_gap(start))
    # the corrector's coefficient columns, filled in place at every step
    spread = np.empty((n + 1, 2, count, n), dtype=complex)
    while row.size:
        t_next = np.minimum(1.0, t + h)
        points = [pos(s) for pos, s in zip(positions, t_next.tolist())]
        coeffs = f.eval_complex_points([(x.real, x.imag) for x in points])
        corrected, converged = _newton_rows(_monic_rows(coeffs), roots,
                                            cfg.max_newton_iters, spread)
        with np.errstate(all="ignore"):
            new_gap = _block_gaps(corrected)
            accept = (converged
                      & (np.abs(corrected - roots).max(axis=1)
                         < cfg.safety_factor * gap / 2)
                      & (new_gap > 0))
        roots[accept] = corrected[accept]
        gap[accept] = new_gap[accept]
        t = np.where(accept, t_next, t)
        h = np.where(accept, np.minimum(initial, h * 1.4), h / 2)
        under = ~accept & (h < cfg.min_step)
        finished = t >= 1.0 - 1e-15
        if not (under.any() or finished.any()):
            continue
        for j in np.flatnonzero(under).tolist():
            if converged[j]:
                results[row[j]] = StepUnderflowError(
                    f"root gap collapsed near t={t[j]:.6f}; loop too close to "
                    f"the discriminant locus")
            else:
                results[row[j]] = NewtonDivergenceError(
                    f"Newton corrector failed near t={t[j]:.6f}")
            first_failed = min(first_failed, row[j])
        for j in np.flatnonzero(finished).tolist():
            results[row[j]] = roots[j].copy()
        keep = ~under & ~finished & (row < first_failed)
        row, t, h, roots, gap = row[keep], t[keep], h[keep], roots[keep], gap[keep]
        initial = initial[keep]
        positions = [pos for pos, k in zip(positions, keep) if k]
        spread = np.empty((n + 1, 2, row.size, n), dtype=complex)
    return results


def _permutations(start: np.ndarray, results: list) -> list[Permutation]:
    """The permutation of each tracked row, sending start label k to the
    label whose position the k-th root reached; raises the first row's error,
    in row order."""
    perms = []
    for end in results:
        if isinstance(end, Exception):
            raise end
        match = _nearest_labels(start, end, "endpoint roots and start labels")
        perms.append(Permutation(tuple(int(j) + 1 for j in match)))
    return perms


def _start_fiber(f: WeierstrassPoly, loop: LoopPath,
                 start_roots: Optional[Sequence[complex]]) -> np.ndarray:
    if start_roots is not None:
        return np.array(start_roots, dtype=complex)
    u0, v0 = loop.vertices[0]
    return roots_at(f.eval_complex(float(u0), float(v0)))


def track_loop(f: WeierstrassPoly, loop: LoopPath,
               cfg: TrackingConfig = DEFAULT_TRACKING,
               start_roots: Optional[Sequence[complex]] = None) -> Permutation:
    """Continuation of the fiber along a closed loop, as a fiber permutation.

    Returns the permutation sending start label k to the label whose position
    the k-th root reached. Loops sharing a basepoint fiber compose left to
    right, matching permutation composition. A one-row call of the stacked
    tracker.
    """
    start = _start_fiber(f, loop, start_roots)
    return _permutations(start, _track_rows(f, [(loop, cfg.initial_step)], cfg,
                                             start))[0]


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


def _refined(f: WeierstrassPoly, loops: Sequence[LoopPath],
             cfg: TrackingConfig, start: np.ndarray) -> list[Permutation]:
    """Track every loop at the given step, half of it and a quarter of it, all
    3 * len(loops) rows in one stack; the three permutations of each loop
    must agree. Errors are raised in (loop, pass) order."""
    steps = [cfg.initial_step / k for k in (1, 2, 4)]
    results = _track_rows(f, [(loop, h) for loop in loops for h in steps], cfg,
                          start)
    perms = []
    for i in range(0, len(results), 3):
        trio = _permutations(start, results[i:i + 3])
        if trio[0] != trio[1] or trio[1] != trio[2]:
            raise InstabilityError(
                f"step refinement changed the tracked permutation: {trio!r}")
        perms.append(trio[0])
    return perms


def refine_and_compare(f: WeierstrassPoly, loop: LoopPath,
                       cfg: TrackingConfig = DEFAULT_TRACKING,
                       start_roots: Optional[Sequence[complex]] = None) -> Permutation:
    """Track at the given step, half of it, and a quarter of it; all three
    permutations must agree. A three-row call of the stacked tracker."""
    return _refined(f, [loop], cfg, _start_fiber(f, loop, start_roots))[0]


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
    each confirmed by step refinement as in refine_and_compare; all loops and
    passes are tracked in one stack."""
    loops = generator_loops(space)
    fiber = basepoint_fiber(f, space, root_labels)
    perms = tuple(_refined(f, loops, cfg, fiber))
    return MonodromyRep(len(loops), len(fiber), perms,
                        tuple(complex(z) for z in fiber))


def splitting_cover(rep: MonodromyRep) -> tuple[CosetTable, DeckGroup, PermGroup]:
    """Regular covering whose fiber is the monodromy image group, with its
    deck group and the image group, whose elements (permutations of the
    roots) are in coset order; the fiber size always equals the deck group
    order."""
    table, group = cayley_table(rep.perms, rep.degree)
    return table, deck_group(table), group


def irreducibility_check(rep: MonodromyRep) -> bool:
    """Connectivity of the solution space: the monodromy acts transitively."""
    return PermGroup(rep.degree, rep.perms).is_transitive()


def deck_action_on_roots(deck: DeckGroup, group: PermGroup) -> tuple[GroupHom, bool]:
    """Action of the splitting cover's deck group on the root labels, given
    the deck group and monodromy group that splitting_cover returned.

    The deck transformation moving the basepoint coset to the coset of group
    element g acts on labels by g^-1; inversion makes the assignment a
    homomorphism under left-to-right composition. The flag reports
    injectivity, which holds for every regular action.
    """
    elems = group.elements()
    mapping = {lam: inverse(elems[lam(1) - 1]) for lam in deck.group.elements()}
    hom = GroupHom(deck.group, group, mapping)
    return hom, hom.is_injective()
