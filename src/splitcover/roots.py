"""Numeric roots of monic fibers: simultaneous root solving and root gaps,
for one fiber or a stack of them.

A fiber is given by the low-order coefficients (a_0, ..., a_{n-1}) of the
monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0. A stack is an (N, n)
array with one fiber per row; every kernel treats a single fiber as a
one-row stack, so there is one code path for both.
"""

from __future__ import annotations

import numpy as np


class _FiberError(RuntimeError):
    """A root solve failed; row is the index of the first failing fiber in a
    stacked solve (0 for a single fiber)."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class MultipleRootError(_FiberError):
    """Roots came closer than the resolution tolerance."""


class RootFindingError(_FiberError):
    """The simultaneous iteration failed to converge."""


# Stacks are worked in blocks of at most 128 fibers, fewer at high degree, so
# that no temporary of a block (the solver's (rows, n, n) root differences and
# (n + 1, rows, n) coefficient stacks) holds more than about this many
# entries. Larger blocks solve a stack faster but raise the process's peak
# memory.
_BLOCK_ENTRIES = 4096


def _block_starts(count: int, entries_per_row: int) -> tuple[range, int]:
    size = max(1, min(128, _BLOCK_ENTRIES // entries_per_row))
    return range(0, count, size), size


def _fiber_rows(coeffs) -> tuple[np.ndarray, bool]:
    """Low-order coefficients as an (N, n) complex array, and whether they
    were a single fiber (which becomes one row)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim not in (1, 2):
        raise ValueError("expected one fiber or a stack of fibers")
    if c.shape[-1] == 0:
        raise ValueError("degree must be at least 1")
    return c.reshape(-1, c.shape[-1]), c.ndim == 1


def _monic_rows(rows: np.ndarray) -> np.ndarray:
    """Coefficients (1, a_{n-1}, ..., a_0) of each monic fiber, highest first."""
    p = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=complex)
    p[:, 0] = 1.0
    p[:, 1:] = rows[:, ::-1]
    return p


def _derivative_rows(p: np.ndarray) -> np.ndarray:
    n = p.shape[1] - 1
    return p[:, :-1] * np.arange(n, 0, -1)


def _spread(p: np.ndarray, width: int) -> np.ndarray:
    """Coefficient columns of p, highest first, each repeated width times: a
    (degree + 1, rows, width) stack for _polyval_rows. Horner on it needs no
    broadcasting, which numpy runs about twice as slowly on short rows."""
    return np.ascontiguousarray(
        np.broadcast_to(p.T[:, :, None], p.T.shape + (width,)))


def _polyval_rows(spread: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of the polynomial of row k at every entry of row k
    of z, in the order np.polyval uses."""
    y = np.zeros(z.shape, dtype=z.dtype)
    for column in spread:
        y *= z
        y += column
    return y


def min_gap(points):
    """Smallest distance between two of the points, along the last axis: a
    float for one set of points, an array for a stack of them. It is inf for
    fewer than two points."""
    z = np.asarray(points, dtype=complex)
    if z.ndim == 1:
        return float(_block_gaps(z[None])[0])
    rows = z.reshape(-1, z.shape[-1])
    gap = np.empty(rows.shape[0])
    starts, block = _block_starts(rows.shape[0], rows.shape[1] ** 2)
    for start in starts:
        gap[start:start + block] = _block_gaps(rows[start:start + block])
    return gap.reshape(z.shape[:-1])


def _block_gaps(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    if n < 2:
        return np.full(rows.shape[0], np.inf)
    d = np.abs(rows[:, :, None] - rows[:, None, :]).reshape(-1, n * n)
    d[:, ::n + 1] = np.inf
    return d.min(axis=1)


def roots_at(coeffs, max_iterations: int = 1200,
             gap_rtol: float = 1e-7) -> np.ndarray:
    """All roots of a monic polynomial, or of each row of a stack of them,
    via simultaneous Aberth iteration seeded on a circle of radius
    1 + max|coeff|, polished by Newton steps.

    A single fiber is solved as a one-row stack and returns an (n,) array; N
    stacked fibers return an (N, n) array. Rows are solved in blocks, each
    row exactly as it would be alone. Raises RootFindingError when a fiber
    does not converge or leaves a large residual, and MultipleRootError when
    its computed roots are too close to separate reliably; the error's row
    is the first failing fiber.
    """
    rows, single = _fiber_rows(coeffs)
    out = np.empty_like(rows)
    n = rows.shape[1]
    starts, block = _block_starts(rows.shape[0], (n + 1) * n)
    for start in starts:
        out[start:start + block] = _solve_block(
            rows[start:start + block], start, max_iterations, gap_rtol)
    return out[0] if single else out


def _solve_block(rows: np.ndarray, first_row: int, max_iterations: int,
                 gap_rtol: float) -> np.ndarray:
    count, n = rows.shape
    if n == 1:
        return -rows
    monic = _monic_rows(rows)
    # hypot, as abs() of one complex number computes it
    scale = 1.0 + np.hypot(rows.real, rows.imag).max(axis=1)
    roots = np.zeros_like(rows)
    # each attempt reseeds only the rows that have not converged yet
    todo = np.arange(count)
    for attempt in range(3):
        offset = 0.25 + 0.31 * attempt
        z = scale[todo, None] * np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        converged = _aberth_iterate(monic[todo], z, max_iterations)
        roots[todo[converged]] = z[converged]
        todo = todo[~converged]
        if not todo.size:
            break
    p, dp = _spread(monic, n), _spread(_derivative_rows(monic), n)
    # rows that did not converge hold no roots; their arithmetic is ignored
    with np.errstate(all="ignore"):
        for _ in range(4):
            val = _polyval_rows(p, roots)
            der = _polyval_rows(dp, roots)
            mask = der != 0
            roots[mask] -= val[mask] / der[mask]
        residual = np.abs(_polyval_rows(p, roots)).max(axis=1)
        gap = _block_gaps(roots)
        bad_residual = residual > 1e-10 * scale
        bad_gap = gap < gap_rtol * (1.0 + np.abs(roots).max(axis=1))
    failed = bad_residual | bad_gap
    failed[todo] = True
    if failed.any():
        k = int(failed.argmax())
        row = first_row + k
        if k in todo:
            raise RootFindingError(
                "simultaneous iteration failed to converge", row)
        if bad_residual[k]:
            raise RootFindingError(f"residual {residual[k]:.2e} too large", row)
        raise MultipleRootError(f"root gap {gap[k]:.2e} below tolerance", row)
    return roots


def _aberth_iterate(monic, z, max_iterations) -> np.ndarray:
    """Aberth steps on every row of z in place until each row converges or
    fails; returns which rows converged. Row k of z starts at seeds for the
    fiber monic[k]. A row stops iterating as soon as it is decided, so it
    takes the same steps it would take alone. The working arrays are
    compacted only when some row is decided."""
    count, n = z.shape
    eps = np.finfo(float).eps
    converged = np.zeros(count, dtype=bool)
    live, zl = np.arange(count), z
    pl, dpl = _spread(monic, n), _spread(_derivative_rows(monic), n)
    abs_pl = np.abs(pl)
    for _ in range(max_iterations):
        val = _polyval_rows(pl, zl)
        # roundoff floor of the evaluation itself; converged when reached
        floor = eps * _polyval_rows(abs_pl, np.abs(zl))
        hit = (np.abs(val) <= 8.0 * floor).all(axis=1)
        if hit.any():
            converged[live[hit]] = True
            z[live[hit]] = zl[hit]
            live, zl, val = live[~hit], zl[~hit], val[~hit]
            pl, dpl, abs_pl = pl[:, ~hit], dpl[:, ~hit], abs_pl[:, ~hit]
            if not live.size:
                break
        der = _polyval_rows(dpl, zl)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(der != 0, val / der, 0.1 + 0.1j)
            pairwise = zl[:, :, None] - zl[:, None, :]
            pairwise.reshape(-1, n * n)[:, ::n + 1] = np.inf
            sums = np.divide(1.0, pairwise, out=pairwise).sum(axis=2)
            denom = 1.0 - newton * sums
            step = np.where(denom != 0, newton / denom, newton)
        finite = np.isfinite(step).all(axis=1)
        if not finite.all():
            live, zl, step = live[finite], zl[finite], step[finite]
            pl, dpl, abs_pl = pl[:, finite], dpl[:, finite], abs_pl[:, finite]
            if not live.size:
                break
        zl -= step
        small = np.abs(step).max(axis=1) < 1e-14 * (1.0 + np.abs(zl).max(axis=1))
        if small.any():
            converged[live[small]] = True
            z[live[small]] = zl[small]
            live, zl = live[~small], zl[~small]
            pl, dpl, abs_pl = pl[:, ~small], dpl[:, ~small], abs_pl[:, ~small]
            if not live.size:
                break
    return converged
