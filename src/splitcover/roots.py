"""Numeric roots of monic fibers: simultaneous root solving and root gaps.

A fiber is given by the low-order coefficients (a_0, ..., a_{n-1}) of the
monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0; a stack of fibers is an
(N, n) array with one fiber per row. gamma is the rounding error bound that
the certified tracker and its segment polynomials use.
"""

from __future__ import annotations

import numpy as np


# unit roundoff of IEEE double precision
_UNIT = 2.0 ** -53
# Aberth steps per seeding, and the smallest root gap, relative to 1 + the
# largest root's modulus, at which a fiber's roots count as separated
_MAX_ITERATIONS = 1200
_GAP_RTOL = 1e-7
# the least binary exponent of the seed radius: a fiber whose roots all lie
# within 2^-29 has them closer than _GAP_RTOL resolves, whatever its seeds
_SEED_EXPONENT_FLOOR = -30


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
    """Roots came closer than the resolution tolerance."""


class RootFindingError(_FiberError):
    """The simultaneous iteration failed to converge, or a fiber's values
    overflow a float."""


def min_gap(points) -> float:
    """Smallest distance between two of the points; inf for fewer than two."""
    return float(_block_gaps(np.asarray(points, dtype=complex)[None])[0])


def _block_gaps(rows: np.ndarray) -> np.ndarray:
    """Smallest distance between two entries of each row."""
    n = rows.shape[1]
    if n < 2:
        return np.full(rows.shape[0], np.inf)
    d = np.abs(rows[:, :, None] - rows[:, None, :]).reshape(-1, n * n)
    d[:, ::n + 1] = np.inf
    return d.min(axis=1)


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
    Math. J. 10, 1916), rounded up to a power of two, and at least 2^-29.

    One fiber returns an (n,) array and N stacked fibers an (N, n) array;
    every row is solved bit for bit as it would be alone. Raises, for the
    first failing row (the error's row), RootFindingError when the seed
    circle's values overflow a float, the iteration does not converge, the
    polished roots are not finite or they leave a residual above
    1e-10 (1 + max|a_k|) + 64 n eps sum |a_k| |z|^k, and MultipleRootError
    when the computed roots are too close to separate reliably.
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
    scale = 1.0 + size.max(axis=1)
    # Fujiwara's bound in integers, so exact and the same for a row in any
    # stack: a term |a_(n-k)| below 2^e (|a_0| / 2 for k = n) has its k-th
    # root below 2^ceil(e / k)
    k = np.arange(n, 0, -1)
    e = np.frexp(size)[1] - (k == n)
    top = np.where(size > 0, -(-e // k), _SEED_EXPONENT_FLOOR)
    exponent = np.maximum(top.max(axis=1), _SEED_EXPONENT_FLOOR)
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
        # the residual may reach the evaluation's own roundoff floor,
        # eps sum |a_k| |z|^k, which grows with the size of the roots
        values = np.abs(_values(table, roots)[0])
        floor = np.finfo(float).eps * _polyval(np.abs(table[:, :, :n]), np.abs(roots))
        residual = (values > 1e-10 * scale[:, None] + 64 * n * floor).any(axis=1)
        gap = _block_gaps(roots)
        close = gap < _GAP_RTOL * (1.0 + np.abs(roots).max(axis=1))
    unsolved = np.zeros(count, dtype=bool)
    unsolved[todo] = True
    # a NaN root passes the residual and gap tests above, whose comparisons
    # it fails
    infinite = ~np.isfinite(roots).all(axis=1)
    failures = {}
    for k in np.flatnonzero(overflow | unsolved | infinite | residual | close).tolist():
        if overflow[k]:
            failures[k] = RootFindingError(
                f"the fiber's values overflow a float on the seed circle of "
                f"radius {radius[k]:.3g}", k)
        elif unsolved[k]:
            failures[k] = RootFindingError(
                "simultaneous iteration failed to converge", k)
        elif infinite[k]:
            failures[k] = RootFindingError("the polished roots are not finite", k)
        elif residual[k]:
            failures[k] = RootFindingError(
                f"residual {values[k].max():.2e} too large", k)
        else:
            failures[k] = MultipleRootError(f"root gap {gap[k]:.2e} below tolerance", k)
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
        small = np.abs(step).max(axis=1) < 1e-14 * (1.0 + np.abs(zl).max(axis=1))
        if small.any():
            converged[live[small]] = True
            z[live[small]] = zl[small]
            live, zl = live[~small], zl[~small]
            table, abs_p = table[:, ~small], abs_p[:, ~small]
            if not live.size:
                break
    return converged, iterations
