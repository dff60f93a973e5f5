"""Certified continuation of Weierstrass polynomial root systems along loops.

A fiber's loops are cut into their straight segments, and each distinct
segment is tracked once, whichever direction and however often the loops
traverse it: the return leg of a generator loop retraces its first segment
and is not tracked again. The fiber at every distinct loop vertex is solved
in one stacked root solve, and every segment becomes a row of one stack,
tracked from the fiber at its start vertex (s = 0) to its end vertex
(s = 1). On a segment [a, b] each coefficient a_k(a + s (b - a)) is a
polynomial in s with a bound on its float error. A step [s0, s0 + h] is
taken only when Rouche's theorem proves it on discs of radius R_j = 0.2
times the distance from root r_j to the nearest other one, so each disc
holds one root all along the step; steps grow as far as the proof allows,
and each row makes the decisions it would make alone. At a segment's end
each root enclosure must meet exactly one enclosure of the fiber certified
at its end vertex; a loop's permutation composes these matchings along it,
inverted where the loop runs a segment backwards.
References: B. T. Smith, J. ACM 17 (1970), for the root enclosures; Beltran
and Leykin, Exp. Math. 21 (2012), and Guillemot and Lairez, ISSAC 2024.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .freecover import CosetTable, DeckGroup, cayley_table, deck_group
from .permgroup import (
    GroupHom,
    PermGroup,
    Permutation,
    inverse,
    json_int,
)
from .roots import RootFindingError, _solve, gamma
from .wpoly import (
    BaseSpace,
    LoopPath,
    WeierstrassPoly,
    generator_loops,
    min_gap,
    roots_at,
)


class StepUnderflowError(RuntimeError):
    """No step above _MIN_STEP could be certified, or the fiber at a loop
    vertex could not be solved or certified; the loop runs too close to the
    discriminant locus."""


class FiberMatchError(RuntimeError):
    """A segment's end roots could not be matched unambiguously to the fiber
    at its end vertex."""


@dataclass(frozen=True, eq=False)
class MonodromyRep:
    """Permutation of the basepoint fiber induced by each generator loop;
    tracking summarizes the tracking that produced it, outside the JSON."""

    rank: int
    degree: int
    perms: tuple[Permutation, ...]
    root_labels: tuple[complex, ...]
    tracking: Optional[dict] = field(default=None, repr=False)

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


# the first and the smallest step, as fractions of a loop's arclength
_INITIAL_STEP = 1e-2
_MIN_STEP = 1e-8
# disc radius R_j as a fraction of the distance to the nearest other root
_DISC = 0.2
# the step widened so that it covers s1 - s0 despite the rounding of both
_WIDEN = 1 + gamma(4)


@functools.lru_cache(maxsize=None)
def _taylor_table(top: int) -> tuple[np.ndarray, np.ndarray]:
    """l - i (0 below the diagonal) and binom(l, i), for i, l <= top:
    coefficient i of p(x + y) in y is sum_l c_l binom(l, i) x^(l - i)."""
    i, l = np.indices((top + 1, top + 1))
    return np.maximum(l - i, 0), np.vectorize(math.comb)(l, i).astype(float)


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """x^0 .. x^top on a new last axis, x^k = x^(k-1) x: k - 1 products."""
    p = np.empty(x.shape + (top + 1,), dtype=x.dtype)
    p[..., 0] = 1
    if top:
        p[..., 1:] = x[..., None]
        np.cumprod(p[..., 1:], axis=-1, out=p[..., 1:])
    return p


def _monic_values(low: np.ndarray, z: np.ndarray):
    """f and f' at z (rows, m) for the monic fibers whose low coefficients
    a_0 .. a_{n-1} are the rows of low (rows, n)."""
    n = low.shape[1]
    pw = _powers(z, n)
    p = (pw[..., :n] @ low[:, :, None])[..., 0] + pw[..., n]
    dp = (pw[..., :n - 1] @ (low[:, 1:] * np.arange(1.0, n))[:, :, None])[..., 0] \
        + n * pw[..., n - 1]
    return p, dp


def _shift(c: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Taylor shift: the coefficients in t of p(s0 + t) from those of p(s)
    on axis 1 of c, low power first; row q shifts by s0[q]. Each term
    c_l binom(l, i) s0^(l - i) takes at most 2D + 1 roundings, summed in any
    order, so against h^i with s0 + h <= 1 the error is at most
    gamma_(2D+1) sum_l |c_l|."""
    index, binomial = _taylor_table(c.shape[1] - 1)
    return (_powers(s0, c.shape[1] - 1)[:, index] * binomial) @ c


class _Certificate(NamedTuple):
    """Per row at one point: centers r_j, enclosure radii rho_j, disc radii
    R_j, a lower bound of |f| on each circle |z - r_j| = R_j (0 if none),
    and the bound sum_i growth[:, j, i - 1] h^i + floor_j of
    |f(z, s0 + h) - f(z, s0)| on disc j, and dr_j/ds."""

    roots: np.ndarray
    rho: np.ndarray
    R: np.ndarray
    lower: np.ndarray
    growth: np.ndarray
    floor: np.ndarray
    tangent: np.ndarray

    def take(self, keep) -> "_Certificate":
        return _Certificate(*(a[keep] for a in self))

    def put(self, where, other: "_Certificate"):
        for a, b in zip(self, other):
            a[where] = b

    def ratio(self, h: np.ndarray) -> np.ndarray:
        """Per row, the largest ratio of the bound of |f(z, s) - f(z, s0)|,
        s in [s0, s0 + h], to the lower bound; below 1 proves the step."""
        top = self.growth.shape[2]
        grown = (self.growth * _powers(h, top)[:, None, 1:]).sum(axis=2)
        ratio = ((self.floor + grown) * (1 + gamma(2 * top + 4))
                 / self.lower).max(axis=1)
        return np.where(np.isnan(ratio), np.inf, ratio)


def _certify(c: np.ndarray, ebar: np.ndarray, r: np.ndarray,
             moving: int) -> _Certificate:
    """The certificate at a point of each row: c (rows, D + 1, n) holds
    a_k(s0 + t) = sum_i c[:, i, k] t^i, ebar (rows, n) bounds a_k's error
    (see _track_rows), r (rows, n) are the approximate roots, moving is the
    highest power of z with a coefficient varying in t (-1 for none). Run
    under np.errstate(all="ignore"); overflow leaves lower 0.

    Enclosure (Smith): the roots lie in the discs |z - r_j| <= n |W_j|,
    W_j = f(r_j) / prod_(k != j) (r_j - r_k), one in each if disjoint;
    |f(r_j)| <= |computed| + gamma_(4n+2) sum |a_k| |r_j|^k (4n roundings
    per term) + sum ebar_k |r_j|^k. Lower bound on the circle, by
    log|1 + y| >= Re y - |y|^2 / (2 (1 - |y|)) with d_jk = |r_j - r_k| and
    x = R_j / d_jk: |f| >= (R_j - rho_j) prod d_jk exp(-R_j |sum 1 /
    (r_j - r_k)| - sum x^2 / (2 (1 - x))) prod (1 - rho_k / (d_jk - R_j))
    if rho_j < R_j and rho_k < d_jk - R_j (so the enclosures are disjoint).
    Growth: g_i, the z-polynomial of t^i, expanded about r_j as b_m =
    sum_k g_ik binom(k, m) r_j^(k - m), has |g_i| <= sum_m |b_m| R_j^m +
    gamma_(4n+4) sum_k |g_ik| (|r_j| + R_j)^k on the disc; the floor
    sum_k ebar_k (|r_j| + R_j)^k covers the coefficients' error.
    Each float bound is moved by a gamma factor for its roundings (3 for a
    complex product) and the move's: distances by gamma_5 (subtraction, hypot
    within an ulp), a sum, difference or quotient of two bounds by gamma_3,
    sums of up to 2n + 4 roundings by gamma_(2n+8), products of n - 1 distances
    by gamma_n, the lower bound with numpy's exp (few ulps) by gamma_(4n+16).
    """
    rows, top1, n = c.shape
    eye = np.eye(n, dtype=bool)
    # the diagonal k = j drops out of the sums and minima as 1 / inf = 0
    diff = r[:, :, None] - r[:, None, :] + np.diag(np.full(n, np.inf))
    dist = np.abs(diff) * (1 - gamma(5))
    R = _DISC * dist.min(axis=2)
    absr, reach = np.abs(r), np.abs(r) + R
    val, der = _monic_values(c[:, 0], r)
    # the |f| majorant and the coefficient error at |r_j|, the floor at
    # |r_j| + R_j
    pw = _powers(np.stack((absr, reach)), n)
    scale = (pw[0, :, :, :n] * np.abs(c[:, None, 0])).sum(axis=-1) + pw[0, :, :, n]
    errs = (pw[..., :n] * ebar[:, None, :]).sum(axis=-1)
    f_up = (np.abs(val) + gamma(4 * n + 2) * scale + errs[0]) * (1 + gamma(2 * n + 8))
    dprod = np.prod(np.where(eye, 1.0, dist), axis=2) * (1 - gamma(n))
    rho = n * f_up / dprod * (1 + gamma(4))

    gap = (dist - R[:, :, None]) * (1 - gamma(3))
    x = R[:, :, None] / dist * (1 + gamma(3))
    quad = (x * x / (2 * (1 - x))).sum(axis=2)
    pole = np.abs((1 / diff).sum(axis=2)) + gamma(2 * n + 8) * (1 / dist).sum(axis=2)
    arg = (R * pole + quad) * (1 + gamma(n + 8))
    shrink = np.prod(1 - rho[:, None, :] / gap * (1 + gamma(3)), axis=2)
    valid = (rho < R) & (rho[:, None, :] < gap).all(axis=2) & (R > 0)
    lower = (R - rho) * dprod * np.exp(-arg) * shrink * (1 - gamma(4 * n + 16))
    lower = np.where(valid & (lower > 0), lower, 0.0)

    floor = errs[1] * (1 + gamma(2 * n + 8))
    growth, tangent = np.zeros((rows, n, top1 - 1)), np.zeros_like(r)
    if top1 > 1 and moving == 0:
        # only a_0 varies: g_i is the constant c[:, i, 0] on every disc
        growth = np.abs(c[:, None, 1:, 0]) * np.full((1, n, 1), 1 + gamma(3))
        tangent = -c[:, 1, 0, None] / der
    elif top1 > 1 and moving > 0:
        g = c[:, None, 1:, :moving + 1]                   # (rows, 1, D, K + 1)
        # expand[q, j, k, m] = binom(k, m) r_j^(k - m), built in place
        index, binomial = _taylor_table(moving)
        expand = _powers(r, moving)[:, :, index.T]
        expand *= binomial.T
        b = g @ expand
        del expand  # the largest temporary, freed before the next ones
        rp = _powers(np.stack((R, reach)), moving)[:, :, :, None, :]
        growth = ((np.abs(b) * rp[0]).sum(axis=-1)
                  + gamma(4 * n + 4) * (np.abs(g) * rp[1]).sum(axis=-1)) \
            * (1 + gamma(2 * n + 8))
        tangent = -b[:, :, 0, 0] / der
    return _Certificate(r, rho, R, lower, growth, floor, tangent)


def _apart(z: np.ndarray, z_rho: np.ndarray, w: np.ndarray,
           w_rho: np.ndarray) -> np.ndarray:
    """Whether disc j about z avoids disc k about w, on the last two axes."""
    dist = np.abs(z[..., :, None] - w[..., None, :]) * (1 - gamma(5))
    return dist > (z_rho[..., :, None] + w_rho[..., None, :]) * (1 + gamma(3))


class _Ends(NamedTuple):
    """Per tracked row: the roots and enclosure radii at s = 1, the s at which
    its step fell below _MIN_STEP (nan when it finished), its accepted and
    rejected steps, and the smallest disc radius met with the s where; and
    the stack steps taken."""

    roots: np.ndarray
    rho: np.ndarray
    failed_at: np.ndarray
    accepted: np.ndarray
    rejected: np.ndarray
    smallest: np.ndarray
    where: np.ndarray
    stack_steps: int


def _start(coeffs: np.ndarray, err: np.ndarray,
           fibers: np.ndarray) -> tuple[np.ndarray, int, _Certificate]:
    """For segment rows with coefficients coeffs and errors err
    (segment_polys): ebar, the bound _track_rows takes, the highest power of
    z with a coefficient varying along some row (-1 for none), and each
    row's certificate at s = 0 from the roots fibers[q] there.

    On a segment a_k is off by at most err_k, and a Taylor shift adds
    gamma_(2D+1) sum_l |c_lk|; ebar_k = 2 err_k + gamma_(3D+4) sum_l |c_lk|,
    moved up by gamma_(D+6), bounds the error of f at a point and of
    f(., s) - f(., s0), times |z|^k. Run under np.errstate(all="ignore").
    """
    top = coeffs.shape[1] - 1
    moving = int(max(np.flatnonzero((coeffs[:, 1:] != 0).any(axis=(0, 1))), default=-1))
    ebar = (2 * err + gamma(3 * top + 4) * np.abs(coeffs).sum(axis=1)) \
        * (1 + gamma(top + 6))
    return ebar, moving, _certify(coeffs, ebar, fibers, moving)


def _track_rows(coeffs: np.ndarray, ebar: np.ndarray, share: np.ndarray,
                cert: _Certificate, moving: int) -> _Ends:
    """Continue every row, a segment with coefficients coeffs[q], from its
    certificate cert at s = 0 to s = 1, in one stack (see _start for ebar and
    moving). A row keeps its own position s, step h and certificate, and
    stops when it reaches s = 1 or its step falls below _MIN_STEP; h is a
    fraction of the arclength of a loop of which the segment takes the
    share share[q]. Run under np.errstate(all="ignore").

    A step s0 -> s1 is taken when the certificate at s0 proves it and the one
    at s1 (tangent predictor, a Newton step) proves enclosures clear of the
    other roots' discs at s0, so each holds its own root's continuation. h
    grows by min(2, 0.8 / ratio), up to 1; a rejection cuts it to a quarter
    to a half.
    """
    rows, n = cert.roots.shape
    ends = _Ends(np.full((rows, n), np.nan, dtype=complex), np.full((rows, n), np.nan),
                 np.full(rows, np.nan), np.zeros(rows, dtype=int),
                 np.zeros(rows, dtype=int), cert.R.min(axis=1), np.zeros(rows), 0)
    stack_steps, row = 0, np.arange(rows)
    s, h = np.zeros(rows), np.full(rows, _INITIAL_STEP)
    cert = cert.take(row)  # a copy: the rows' certificates change in place
    while row.size:
        stack_steps += 1
        s1 = np.minimum(1.0, s + h / share[row])
        ratio = cert.ratio((s1 - s) * _WIDEN)
        ok = np.zeros(row.size, dtype=bool)
        idx = np.flatnonzero(ratio < 1)
        if idx.size:
            c1 = _shift(coeffs[row[idx]], s1[idx])
            guess = cert.roots[idx] + (s1 - s)[idx, None] * cert.tangent[idx]
            p, dp = _monic_values(c1[:, 0], guess)
            new = _certify(c1, ebar[row[idx]], guess - p / dp, moving)
            good = (new.lower > 0).all(axis=1) & (
                _apart(new.roots, new.rho, cert.roots[idx], cert.R[idx])
                | np.eye(n, dtype=bool)).all(axis=(1, 2))
            ok[idx[good]] = True
            if good.all() and idx.size == row.size:
                cert = new
            else:
                cert.put(idx[good], new.take(good))
            s[idx[good]] = s1[idx[good]]
        h = np.minimum(1.0, h * np.where(ok, np.minimum(2.0, 0.8 / ratio),
                                         np.clip(0.8 / ratio, 0.25, 0.5)))
        ends.accepted[row] += ok
        ends.rejected[row] += ~ok
        radius = cert.R.min(axis=1)
        lower = ok & (radius < ends.smallest[row])
        ends.smallest[row[lower]], ends.where[row[lower]] = radius[lower], s[lower]
        # also after an accepted step: near a branch point the floor can
        # keep the ratio above 0.8, and s stops moving while h shrinks
        finished = ok & (s == 1.0)
        under = ~finished & (h < _MIN_STEP)
        ends.roots[row[finished]], ends.rho[row[finished]] = \
            cert.roots[finished], cert.rho[finished]
        ends.failed_at[row[under]] = s[under]
        keep = ~under & ~finished
        if not keep.all():
            row, s, h = row[keep], s[keep], h[keep]
            cert = cert.take(keep)
    return ends._replace(stack_steps=stack_steps)


def _underflow(t: float) -> StepUnderflowError:
    return StepUnderflowError(f"root gap collapsed near t={t:.6f}; loop too "
                              f"close to the discriminant locus")


def _track_loops(f: WeierstrassPoly, basepoint: tuple, loops: Sequence[LoopPath],
                 root_labels: Optional[Sequence[complex]] = None
                 ) -> tuple[np.ndarray, list, dict]:
    """Continue the basepoint's fiber along every loop, all based at the
    basepoint: the fiber, ordered canonically or to match root_labels (see
    _ordered), per loop its permutation of that order, or its first error
    along it, and the summary. The fiber at every distinct loop vertex is
    solved in one stack, the basepoint's as row 0 from its eval_complex
    coefficients; an error of that row is raised before any other. Every
    distinct segment is one row of _track_rows, started from the fiber at
    its start vertex. A vertex that starts no segment gets a row of zero
    length for its coefficients. A vertex fails when its fiber cannot be
    solved or its certificate proves no step; segments at a failed vertex
    are not tracked, and a loop reaching one fails there.
    """
    u, v = basepoint
    start = f.eval_complex(float(u), float(v))
    count, n = len(loops), f.degree
    summary = dict(certified=True, segments=0, vertex_fibers=0, aberth_iterations=0,
                   stack_steps=0, accepted_steps=0, rejected_steps=0,
                   min_disc_radius=None)
    if n == 1 or not count:
        fiber = _ordered(roots_at(start), root_labels)
        return fiber, [Permutation.identity(n)] * count, summary
    # vertices are numbered in the order first reached, from the basepoint 0,
    # and keyed by their integers, which hash faster than Fractions
    number = {(u.numerator, u.denominator, v.numerator, v.denominator): 0}
    points = [(u, v)]
    segment = {}           # (a, b) of each distinct segment, as first traversed
    share, first = [], []  # per segment: its share of that loop, and (loop, t)
    walks = []             # per loop: (segment, forward, t at its start, share)
    for i, loop in enumerate(loops):
        path = []
        for x, y in loop.vertices:
            path.append(number.setdefault(
                (x.numerator, x.denominator, y.numerator, y.denominator), len(points)))
            if path[-1] == len(points):
                points.append((x, y))
        if path[0]:
            raise ValueError("loops tracked together must start at the basepoint")
        pts = np.array([complex(float(x), float(y)) for x, y in loop.vertices])
        lengths = np.abs(np.diff(pts))
        lengths /= lengths.sum() or 1.0
        walk = []
        for a, b, size, t in zip(path, path[1:], lengths.tolist(),
                                 (np.cumsum(lengths) - lengths).tolist()):
            forward = (b, a) not in segment
            key = (a, b) if forward else (b, a)
            if key not in segment:
                segment[key] = len(segment)
                share.append(size)
                first.append((i, t))
            walk.append((segment[key], forward, t, size))
        walks.append(walk)
    rows = list(segment)
    orphans = sorted(set(range(len(points))) - {a for a, _ in rows})
    try:
        coeffs, err = f.segment_polys([(points[a], points[b]) for a, b in rows]
                                      + [(points[v], points[v]) for v in orphans])
    except RootFindingError:
        roots_at(start)  # the basepoint's error comes first
        raise
    head = np.array([a for a, _ in rows] + orphans)
    tail = np.array([b for _, b in rows])
    rep = np.unique(head, return_index=True)[1]  # the first row from each vertex

    # the fiber at every vertex in one stacked solve, the basepoint's first
    fibers, failures, iterations = _solve(np.vstack((start, coeffs[rep[1:], 0])))
    if 0 in failures:
        raise failures[0]
    fibers[0] = fiber = _ordered(fibers[0], root_labels)
    solved = np.ones(len(points), dtype=bool)
    solved[list(failures)] = False
    with np.errstate(all="ignore"):
        ebar, moving, cert = _start(coeffs, err, fibers[head])
        good = solved & (cert.lower[rep] > 0).all(axis=1)
        live = np.flatnonzero(good[head[:len(rows)]] & good[tail])
        ends = _track_rows(coeffs[live], ebar[live], np.array(share)[live],
                           cert.take(live), moving)
        # each end enclosure holds one root of the end vertex's fiber, which
        # lies in every enclosure it meets there: meeting one decides it
        to = tail[live]
        meets = ~_apart(ends.roots, ends.rho, fibers[to], cert.rho[rep[to]])
    match = meets.argmax(axis=2)
    matched = (meets.sum(axis=2) == 1).all(axis=1) & (meets.sum(axis=1) == 1).all(axis=1)
    slot = np.full(len(rows), -1)
    slot[live] = np.arange(live.size)

    results = []
    for walk in walks:
        at = np.arange(n)  # where each start root is in the current fiber
        for q, forward, t, size in walk:
            j = slot[q]
            if not good[head[q] if forward else tail[q]]:
                results.append(_underflow(t))
            elif j < 0:
                # the far vertex failed: the next traversal starts there
                continue
            elif not np.isnan(ends.failed_at[j]):
                s = ends.failed_at[j]
                results.append(_underflow(t + (s if forward else 1 - s) * size))
            elif not matched[j]:
                results.append(FiberMatchError(
                    f"the end enclosures of the segment at t={t:.6f} do not "
                    f"each meet exactly one enclosure of the fiber there"))
            else:
                at = match[j][at] if forward else np.argsort(match[j])[at]
                continue
            break
        else:
            results.append(Permutation(tuple(int(k) + 1 for k in at)))
    summary.update(segments=len(rows), vertex_fibers=len(points),
                   aberth_iterations=iterations, stack_steps=ends.stack_steps,
                   accepted_steps=int(ends.accepted.sum()),
                   rejected_steps=int(ends.rejected.sum()))
    if live.size:
        j = int(ends.smallest.argmin())
        loop, t = first[live[j]]
        summary["min_disc_radius"] = {
            "radius": float(ends.smallest[j]), "loop": loop + 1,
            "t": t + float(ends.where[j]) * share[live[j]]}
    return fiber, results, summary


def _permutations(results: list) -> list[Permutation]:
    """Each loop's permutation; raises the first loop's error, if any."""
    for end in results:
        if isinstance(end, Exception):
            raise end
    return results


def track_loop(f: WeierstrassPoly, loop: LoopPath,
               start_roots: Optional[Sequence[complex]] = None) -> Permutation:
    """Certified continuation of the fiber along a closed loop: the
    permutation sending start label k to the label whose position the k-th
    root reached. The fiber at the loop's first vertex is ordered to match
    start_roots, or canonically without them (see _ordered). Loops sharing
    a basepoint fiber compose left to right, as permutations do. A one-loop
    call of the stacked tracker."""
    return _permutations(_track_loops(f, loop.vertices[0], [loop], start_roots)[1])[0]


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


def _ordered(raw: np.ndarray, root_labels: Optional[Sequence[complex]]) -> np.ndarray:
    """The basepoint's roots ordered canonically, by real then imaginary part
    rounded to 9 digits, or to match the given labels."""
    if root_labels is None:
        order = sorted(range(len(raw)),
                       key=lambda k: (round(raw[k].real, 9), round(raw[k].imag, 9)))
        return raw[np.array(order)]
    labels = np.array(root_labels, dtype=complex)
    if len(labels) != len(raw):
        raise ValueError("label count differs from the fiber size")
    return raw[_nearest_labels(raw, labels, "given labels and the computed fiber")]


def characteristic_hom(f: WeierstrassPoly, space: BaseSpace,
                       root_labels: Optional[Sequence[complex]] = None
                       ) -> MonodromyRep:
    """Certified permutation of the basepoint fiber, ordered canonically or
    to match root_labels, for every generator loop, all their segments
    tracked in one stack; the tracking summary is kept on the result."""
    loops = generator_loops(space)
    fiber, results, summary = _track_loops(f, space.basepoint, loops, root_labels)
    return MonodromyRep(len(loops), len(fiber), tuple(_permutations(results)),
                        tuple(complex(z) for z in fiber), summary)


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
