"""Numeric roots of monic fibers: simultaneous root solving, accepted by
Smith's enclosures.

A fiber is given by the low-order coefficients (a_0, ..., a_{n-1}) of the
monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0; a stack of fibers is an
(N, n) array with one fiber per row. A solved fiber is accepted when Smith's
enclosures of its roots, which the certified tracker also starts from, are
pairwise disjoint: that proves the roots distinct at any scale, with no
tolerance. gamma is the rounding error bound that the tracker and its
segment polynomials use.
"""

from __future__ import annotations

import math

import numpy as np


# unit roundoff of IEEE double precision
_UNIT = 2.0 ** -53
# Aberth steps per seeding
_MAX_ITERATIONS = 1200


def gamma(k: int) -> float:
    """Bound on |prod (1 + d_i) - 1| over k factors |d_i| <= u; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1."""
    return k * _UNIT / (1 - k * _UNIT)


class _FiberError(RuntimeError):
    """A root solve failed; row is the first failing fiber of a stack (0 for
    a single fiber)."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class MultipleRootError(_FiberError):
    """The enclosures of the solved roots overlap, so they are not proved
    distinct."""


class RootFindingError(_FiberError):
    """The simultaneous iteration failed to converge, or a fiber's values
    overflow a float."""


def min_gap(points) -> float:
    """Smallest distance between two of the points; inf for fewer than two."""
    z = np.asarray(points, dtype=complex)
    if z.size < 2:
        return math.inf
    return float(np.abs(z[:, None] - z + np.diag(np.full(z.size, np.inf))).min())


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


def _underflow_bound(size: np.ndarray) -> np.ndarray:
    """A bound on the underflow error of _monic_values' f at any z, for
    fibers with |a_k| <= size[..., k]; _smith_radii takes it as part of
    a_0's error.

    With gradual underflow a complex product is off by at most 2^-1073
    beyond its relative rounding, and a sum by nothing beyond it (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 2.1).
    Carried through the later products, these errors add up to less than
    2^-1072 (1 + n |a_k| (1 + |z|^k)) in a_k z^k, the sums' roundings
    included, and to less than 2^-1072 n (1 + |z|^n) in z^n. The parts in
    |a_k| |z|^k and |z|^n are covered many times over by gamma_(4n+2)
    gamma_(2n+8) times their sum in _smith_radii; the rest is
    2^-1072 n (2 + sum |a_k|).
    """
    n = size.shape[-1]
    return 2.0 ** -1072 * n * (2 + size.sum(axis=-1))


def _smith_radii(low: np.ndarray, ebar: np.ndarray, r: np.ndarray,
                 dist: np.ndarray, *reach: np.ndarray):
    """Smith's enclosures of the roots of the monic fibers whose low
    coefficients are the rows of low (rows, n), each a_k off by at most
    ebar (rows, n), about the approximate roots r (rows, n) (B. T. Smith,
    J. ACM 17, 1970): the roots lie in the discs |z - r_j| <= rho_j =
    n |W_j|, W_j = f(r_j) / prod_(k != j) (r_j - r_k), one in each if they
    are pairwise disjoint. dist[q, j, k] is |r_j - r_k| moved down by
    gamma_5, inf for k = j. Returns rho, the product of dist[q, j, k] over
    k != j moved down by gamma_n, f'(r_j) and, at each modulus array in
    reach, sum_k ebar_k reach_j^k; all powers come from one stack. Run
    under np.errstate(all="ignore").

    |f(r_j)| <= |computed| + gamma_(4n+2) sum |a_k| |r_j|^k (4n roundings
    per term) + sum ebar_k |r_j|^k, where ebar_0 also holds the
    evaluation's underflow (_underflow_bound). Each float bound is moved by a
    gamma factor for its roundings: sums of up to 2n + 4 roundings by
    gamma_(2n+8), the quotient by gamma_4.
    """
    n = low.shape[1]
    val, der = _monic_values(low, r)
    pw = _powers(np.stack((np.abs(r), *reach)), n)
    scale = (pw[0, :, :, :n] * np.abs(low[:, None])).sum(axis=-1) + pw[0, :, :, n]
    errs = (pw[..., :n] * ebar[:, None, :]).sum(axis=-1)
    f_up = (np.abs(val) + gamma(4 * n + 2) * scale + errs[0]) * (1 + gamma(2 * n + 8))
    dprod = np.prod(np.where(np.eye(n, dtype=bool), 1.0, dist), axis=2) * (1 - gamma(n))
    return n * f_up / dprod * (1 + gamma(4)), dprod, der, errs[1:]


def _apart(z: np.ndarray, z_rho: np.ndarray, w: np.ndarray,
           w_rho: np.ndarray) -> np.ndarray:
    """Whether disc j about z avoids disc k about w, on the last two axes."""
    dist = np.abs(z[..., :, None] - w[..., None, :]) * (1 - gamma(5))
    return dist > (z_rho[..., :, None] + w_rho[..., None, :]) * (1 + gamma(3))


def _polyval(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation with the operations of np.polyval: table[k] holds
    coefficient k, highest power first, for every entry of z. Spread out
    like z, it needs no broadcasting, which numpy runs about twice as slowly
    on short rows."""
    y = np.zeros(z.shape, dtype=np.result_type(table, z))
    for column in table:
        y *= z
        y += column
    return y


def _horner_table(p: np.ndarray) -> np.ndarray:
    """The Horner table of the monic polynomials p (rows, n + 1), highest
    power first as np.polyval takes them, and of their derivatives, side by
    side with n columns each; p' gets a leading zero column, after which its
    value is 0 as np.polyval starts."""
    n = p.shape[1] - 1
    table = np.zeros((n + 1, p.shape[0], 2 * n), dtype=complex)
    table[:, :, :n] = p.T[:, :, None]
    table[1:, :, n:] = (p[:, :-1] * np.arange(n, 0, -1)).T[:, :, None]
    return table


def _values(table: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and p' at z (rows, n), from their Horner table."""
    y = _polyval(table, np.concatenate((z, z), axis=1))
    return y[:, :z.shape[1]], y[:, z.shape[1]:]


def roots_at(coeffs) -> np.ndarray:
    """All roots of a monic polynomial, or of each row of a stack of them,
    via simultaneous Aberth iteration seeded on a circle just outside the
    roots, polished by Newton steps. The circle's radius is Fujiwara's bound
    2 max(|a_(n-k)|^(1/k), |a_0 / 2|^(1/n)) on the roots' moduli (Tohoku
    Math. J. 10, 1916), rounded up to a power of two; nothing in the solve
    depends on the scale of the roots.

    One fiber returns an (n,) array and N stacked fibers an (N, n) array;
    every row is solved bit for bit as it would be alone. Raises, for the
    first failing row (the error's row), RootFindingError when the seed
    circle's values overflow a float, the iteration does not converge or
    the polished roots are not finite, and MultipleRootError when the
    roots' Smith enclosures (_smith_radii) overlap, so that they are not
    proved distinct.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2):
        raise ValueError("expected one fiber or a stack of fibers")
    if c.shape[-1] == 0:
        raise ValueError("degree must be at least 1")
    rows = c.reshape(-1, c.shape[-1])
    if rows.shape[1] == 1:
        roots = -rows
    else:
        roots, failures, _ = _solve(rows)
        if failures:
            raise failures[min(failures)]
    return roots[0] if c.ndim == 1 else roots


def _solve(rows: np.ndarray) -> tuple[np.ndarray, dict[int, _FiberError], int]:
    """The roots of every row of a stack of fibers of degree at least 2, the
    error of each row that failed (see roots_at), keyed by the row, and the
    Aberth steps the stack took; a failed row's roots are meaningless."""
    count, n = rows.shape
    p = np.empty((count, n + 1), dtype=complex)
    p[:, 0], p[:, 1:] = 1.0, rows[:, ::-1]
    # hypot, as abs() of one complex number computes it
    size = np.hypot(rows.real, rows.imag)
    # Fujiwara's bound in integers, so exact and the same for a row in any
    # stack: a term |a_(n-k)| below 2^e (|a_0| / 2 for k = n) has its k-th
    # root below 2^ceil(e / k); a zero term bounds nothing, and a row of
    # zeros is seeded at 0
    k = np.arange(n, 0, -1)
    e = np.frexp(size)[1] - (k == n)
    exponent = np.where(size > 0, -(-e // k), np.iinfo(np.int32).min).max(axis=1)
    iterations = 0
    with np.errstate(all="ignore"):
        radius = np.ldexp(2.0, exponent)
        overflow = ~np.isfinite(_polyval(np.abs(p).T[:, :, None], radius[:, None])[:, 0])
        roots = np.zeros_like(rows)
        # each attempt reseeds the rows that have not converged yet
        todo = np.flatnonzero(~overflow)
        for attempt in range(3):
            if not todo.size:
                break
            offset = 0.25 + 0.31 * attempt
            z = radius[todo, None] * np.exp(2j * np.pi * (np.arange(n) + offset) / n)
            converged, steps = _aberth_iterate(p[todo], z)
            iterations += steps
            roots[todo[converged]] = z[converged]
            todo = todo[~converged]
        # rows that failed hold no roots; their arithmetic is ignored
        table = _horner_table(p)
        for _ in range(4):
            val, der = _values(table, roots)
            mask = der != 0
            roots[mask] -= val[mask] / der[mask]
        # the coefficients are exact; only the evaluation's underflow adds
        ebar = np.zeros((count, n))
        ebar[:, 0] = _underflow_bound(size)
        dist = np.abs(roots[:, :, None] - roots[:, None, :]
                      + np.diag(np.full(n, np.inf))) * (1 - gamma(5))
        rho = _smith_radii(rows, ebar, roots, dist)[0]
        # a NaN radius overlaps everything
        overlap = ~(_apart(roots, rho, roots, rho) | np.eye(n, dtype=bool)).all(axis=(1, 2))
    unsolved = np.zeros(count, dtype=bool)
    unsolved[todo] = True
    infinite = ~np.isfinite(roots).all(axis=1)
    failures = {}
    for k in np.flatnonzero(overflow | unsolved | infinite | overlap).tolist():
        if overflow[k]:
            failures[k] = RootFindingError(
                f"the fiber's values overflow a float on the seed circle of "
                f"radius {radius[k]:.3g}", k)
        elif unsolved[k]:
            failures[k] = RootFindingError(
                "simultaneous iteration failed to converge", k)
        elif infinite[k]:
            failures[k] = RootFindingError("the polished roots are not finite", k)
        else:
            failures[k] = MultipleRootError("the roots' enclosures overlap", k)
    return roots, failures, iterations


def _aberth_iterate(p: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, int]:
    """Aberth steps on every row of the seeds z in place, row k for the
    monic polynomial p[k] (highest power first), until each row converges
    or fails; returns which rows converged and the steps the stack took. A
    row stops as soon as it is decided, so it takes the steps it would take
    alone; the working arrays are compacted only when some row is decided."""
    count, n = z.shape
    eps = np.finfo(float).eps
    converged = np.zeros(count, dtype=bool)
    live, zl = np.arange(count), z
    table = _horner_table(p)
    abs_p = np.abs(table[:, :, :n])
    for iterations in range(1, _MAX_ITERATIONS + 1):
        val, der = _values(table, zl)
        # roundoff floor of the evaluation itself; converged when reached
        floor = eps * _polyval(abs_p, np.abs(zl))
        hit = (np.abs(val) <= 8.0 * floor).all(axis=1)
        if hit.any():
            converged[live[hit]] = True
            z[live[hit]] = zl[hit]
            live, zl, val, der = live[~hit], zl[~hit], val[~hit], der[~hit]
            table, abs_p = table[:, ~hit], abs_p[:, ~hit]
            if not live.size:
                break
        newton = np.where(der != 0, val / der, 0.1 + 0.1j)
        pairwise = zl[:, :, None] - zl[:, None, :]
        pairwise.reshape(-1, n * n)[:, ::n + 1] = np.inf
        sums = np.divide(1.0, pairwise, out=pairwise).sum(axis=2)
        denom = 1.0 - newton * sums
        step = np.where(denom != 0, newton / denom, newton)
        finite = np.isfinite(step).all(axis=1)
        if not finite.all():
            live, zl, step = live[finite], zl[finite], step[finite]
            table, abs_p = table[:, finite], abs_p[:, finite]
            if not live.size:
                break
        zl -= step
        small = np.abs(step).max(axis=1) < 1e-14 * np.abs(zl).max(axis=1)
        if small.any():
            converged[live[small]] = True
            z[live[small]] = zl[small]
            live, zl = live[~small], zl[~small]
            table, abs_p = table[:, ~small], abs_p[:, ~small]
            if not live.size:
                break
    return converged, iterations
