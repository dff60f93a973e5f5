"""Certified continuation of Weierstrass polynomial root systems along loops.

On a loop segment [a, b] each coefficient a_k(a + s (b - a)) is a polynomial
in s with a bound on its float error. A step [s0, s0 + h] is taken only when
Rouche's theorem proves it on discs of radius R_j = 0.2 times the distance
from root r_j to the nearest other one, so each disc holds one root all
along the step; steps grow as far as the proof allows. All loops of a fiber
are tracked in one stack, each row making the decisions it would alone.
References: B. T. Smith, J. ACM 17 (1970), for the root enclosures; Beltran
and Leykin, Exp. Math. 21 (2012), and Guillemot and Lairez, ISSAC 2024.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Real
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
from .roots import gamma
from .wpoly import (
    BaseSpace,
    LoopPath,
    WeierstrassPoly,
    generator_loops,
    min_gap,
    roots_at,
)


class StepUnderflowError(RuntimeError):
    """No step above min_step could be certified; the loop runs too close to
    the discriminant locus."""


class FiberMatchError(RuntimeError):
    """Endpoint roots could not be matched unambiguously to the start fiber."""


@dataclass(frozen=True)
class TrackingConfig:
    """The first and the smallest step, as fractions of a loop's arclength."""

    initial_step: float = 1e-2
    min_step: float = 1e-8

    def __post_init__(self):
        for name in ("initial_step", "min_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) \
                    or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if self.initial_step <= 0 or self.min_step <= 0:
            raise ValueError("step sizes must be positive")
        if self.initial_step > 1:
            raise ValueError("initial_step must be at most 1, the whole loop")
        if self.min_step >= self.initial_step:
            raise ValueError("min_step must be smaller than initial_step")


DEFAULT_TRACKING = TrackingConfig()


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
    p = (pw[..., :n] * low[:, None, :]).sum(axis=-1) + pw[..., n]
    dp = (pw[..., :n - 1] * (low[:, None, 1:] * np.arange(1.0, n))).sum(axis=-1) \
        + n * pw[..., n - 1]
    return p, dp


def _shift(c: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Taylor shift: the coefficients in t of p(s0 + t) from those of p(s)
    on axis 1 of c, low power first; row q shifts by s0[q]. Each term
    c_l binom(l, i) s0^(l - i) takes at most 2D + 1 roundings, so against
    h^i with s0 + h <= 1 the error is at most gamma_(2D+1) sum_l |c_l|."""
    index, binomial = _taylor_table(c.shape[1] - 1)
    shift = _powers(s0, c.shape[1] - 1)[:, index] * binomial
    return (shift[:, :, :, None] * c[:, None, :, :]).sum(axis=2)


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
        index, binomial = _taylor_table(moving)
        expand = _powers(r, moving)[:, :, index] * binomial
        b = (expand[:, :, None] * g[:, :, :, None, :]).sum(axis=-1)
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


def _track_rows(f: WeierstrassPoly, loops: Sequence[LoopPath],
                cfg: TrackingConfig, start: np.ndarray) -> tuple[list, dict]:
    """Continue the start fiber along every loop in one stack, a row per
    loop: per row its permutation and end fiber, or its error, and the
    summary. A row keeps its own segment, position s, step h (a fraction of
    its loop's arclength) and certificate. Once a row fails the rows after
    it stop, as callers report the first failing row; they stay None.

    A step s0 -> s1 is taken when the certificate at s0 proves it and the one
    at s1 (tangent predictor, a Newton step) proves enclosures clear of the
    other roots' discs at s0, so each holds its own root's continuation. h
    grows by min(2, 0.8 / ratio), up to 1; a rejection cuts it to a quarter
    to a half. Each end enclosure must meet exactly one start enclosure.

    Errors: on a segment a_k is off by at most err_k (segment_polys), and a
    Taylor shift adds gamma_(2D+1) sum_l |c_lk|; ebar_k = 2 err_k +
    gamma_(3D+4) sum_l |c_lk|, moved up by gamma_(D+6), bounds the error of
    f at a point and of f(., s) - f(., s0), times |z|^k.
    """
    count, n = len(loops), len(start)
    summary = dict(certified=True, stack_steps=0, accepted_steps=0, rejected_steps=0,
                   steps_per_loop=[0] * count, min_disc_radius=None)
    if n == 1 or not count:
        return [(Permutation((1,)), start.copy()) for _ in loops], summary
    segments = [seg for loop in loops for seg in zip(loop.vertices, loop.vertices[1:])]
    coeffs, err = f.segment_polys(segments)
    top = coeffs.shape[1] - 1
    moving = int(max(np.flatnonzero((coeffs[:, 1:] != 0).any(axis=(0, 1))), default=-1))
    # per segment: its share of its loop's arclength, the share before it,
    # and the index of its loop's last segment
    share, begin, last = [], [], []
    for loop in loops:
        pts = np.array([complex(float(x), float(y)) for x, y in loop.vertices])
        lengths = np.abs(np.diff(pts))
        lengths /= lengths.sum() or 1.0
        share += lengths.tolist()
        begin += (np.cumsum(lengths) - lengths).tolist()
        last += [len(share) - 1] * len(lengths)
    share, begin, last = np.array(share), np.array(begin), np.array(last)

    results: list = [None] * count
    first_failed, row = count, np.arange(count)
    seg = np.array([0] + [len(loop.vertices) - 1 for loop in loops[:-1]]).cumsum()
    s, h = np.zeros(count), np.full(count, cfg.initial_step)
    accepted, rejected = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    with np.errstate(all="ignore"):
        ebar = (2 * err + gamma(3 * top + 4) * np.abs(coeffs).sum(axis=1)) \
            * (1 + gamma(top + 6))
        cert = _certify(coeffs[seg], ebar[seg], np.tile(start, (count, 1)), moving)
        start_rho = cert.rho.copy()
        # per row: the smallest disc radius met, and where
        smallest, where = cert.R.min(axis=1), np.zeros(count)
        while row.size:
            summary["stack_steps"] += 1
            s1 = np.minimum(1.0, s + h / share[seg])
            ratio = cert.ratio((s1 - s) * _WIDEN)
            ok = np.zeros(row.size, dtype=bool)
            idx = np.flatnonzero(ratio < 1)
            if idx.size:
                # a step to a segment's end lands on the next one's start,
                # unless it ends the loop
                turn = (s1[idx] == 1.0) & (seg[idx] < last[seg[idx]])
                seg1 = np.where(turn, seg[idx] + 1, seg[idx])
                s1c = np.where(turn, 0.0, s1[idx])
                c1 = _shift(coeffs[seg1], s1c)
                guess = cert.roots[idx] + (s1 - s)[idx, None] * cert.tangent[idx]
                p, dp = _monic_values(c1[:, 0], guess)
                new = _certify(c1, ebar[seg1], guess - p / dp, moving)
                good = (new.lower > 0).all(axis=1) & (
                    _apart(new.roots, new.rho, cert.roots[idx], cert.R[idx])
                    | np.eye(n, dtype=bool)).all(axis=(1, 2))
                ok[idx[good]] = True
                if good.all() and idx.size == row.size:
                    cert = new
                else:
                    cert.put(idx[good], new.take(good))
                seg[idx[good]], s[idx[good]] = seg1[good], s1c[good]
            h = np.minimum(1.0, h * np.where(ok, np.minimum(2.0, 0.8 / ratio),
                                             np.clip(0.8 / ratio, 0.25, 0.5)))
            accepted[row] += ok
            rejected[row] += ~ok
            t = begin[seg] + s * share[seg]
            radius = cert.R.min(axis=1)
            lower = ok & (radius < smallest[row])
            smallest[row[lower]], where[row[lower]] = radius[lower], t[lower]
            # also after an accepted step: near a branch point the floor can
            # keep the ratio above 0.8, and s stops moving while h shrinks
            finished = ok & (s == 1.0)
            under = ~finished & (h < cfg.min_step)
            for j in np.flatnonzero(under).tolist():
                results[row[j]] = StepUnderflowError(
                    f"root gap collapsed near t={t[j]:.6f}; loop too close to "
                    f"the discriminant locus")
                first_failed = min(first_failed, row[j])
            for j in np.flatnonzero(finished).tolist():
                # each end enclosure holds one start root, which lies in
                # every start enclosure it meets: meeting one decides it
                meets = ~_apart(cert.roots[j], cert.rho[j], start, start_rho[row[j]])
                match = meets.argmax(axis=1)
                if (meets.sum(axis=1) == 1).all() and len(set(match.tolist())) == n:
                    results[row[j]] = (Permutation(tuple(int(k) + 1 for k in match)),
                                       cert.roots[j].copy())
                    continue
                results[row[j]] = FiberMatchError("endpoint enclosures do not each "
                                                  "meet exactly one start enclosure")
                first_failed = min(first_failed, row[j])
            keep = ~under & ~finished & (row < first_failed)
            if not keep.all():
                row, seg, s, h = row[keep], seg[keep], s[keep], h[keep]
                cert = cert.take(keep)
    j = int(smallest.argmin())
    summary.update(accepted_steps=int(accepted.sum()),
                   rejected_steps=int(rejected.sum()), steps_per_loop=accepted.tolist(),
                   min_disc_radius={"radius": float(smallest[j]), "loop": j + 1,
                                    "t": float(where[j])})
    return results, summary


def _permutations(results: list) -> list[Permutation]:
    """Each tracked row's permutation; raises the first row's error, if any."""
    for end in results:
        if isinstance(end, Exception):
            raise end
    return [perm for perm, _ in results]


def track_loop(f: WeierstrassPoly, loop: LoopPath,
               cfg: TrackingConfig = DEFAULT_TRACKING,
               start_roots: Optional[Sequence[complex]] = None) -> Permutation:
    """Certified continuation of the fiber along a closed loop: the
    permutation sending start label k to the label whose position the k-th
    root reached. Loops sharing a basepoint fiber compose left to right,
    as permutations do. A one-row call of the stacked tracker."""
    if start_roots is None:
        u0, v0 = loop.vertices[0]
        start = roots_at(f.eval_complex(float(u0), float(v0)))
    else:
        start = np.array(start_roots, dtype=complex)
    return _permutations(_track_rows(f, [loop], cfg, start)[0])[0]


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
    """Certified permutation of the basepoint fiber for every generator
    loop, all loops tracked in one stack; the tracking summary is kept on
    the result."""
    loops = generator_loops(space)
    fiber = basepoint_fiber(f, space, root_labels)
    results, summary = _track_rows(f, loops, cfg, fiber)
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
