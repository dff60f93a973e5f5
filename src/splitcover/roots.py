"""Numeric roots of monic fibers: simultaneous root solving and root gaps.

A fiber is given by the low-order coefficients (a_0, ..., a_{n-1}) of the
monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0. The row kernels below
work on an (N, n) array with one fiber per row: the tracker in monodromy
stacks its rows on them, and a root solve is a one-row stack.
"""

from __future__ import annotations

import numpy as np


class MultipleRootError(RuntimeError):
    """Roots came closer than the resolution tolerance."""


class RootFindingError(RuntimeError):
    """The simultaneous iteration failed to converge."""


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


def roots_at(coeffs, max_iterations: int = 1200,
             gap_rtol: float = 1e-7) -> np.ndarray:
    """All roots of a monic polynomial, via simultaneous Aberth iteration
    seeded on a circle of radius 1 + max|coeff|, polished by Newton steps.

    Raises RootFindingError when the iteration does not converge or leaves
    a large residual, and MultipleRootError when the computed roots are too
    close to separate reliably.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise ValueError("expected the coefficients of one fiber")
    n = c.shape[0]
    if n == 0:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return -c
    monic = _monic_rows(c[None])
    # hypot, as abs() of one complex number computes it
    scale = 1.0 + np.hypot(c.real, c.imag).max()
    for attempt in range(3):
        offset = 0.25 + 0.31 * attempt
        roots = scale * np.exp(2j * np.pi * (np.arange(n)[None] + offset) / n)
        if _aberth_iterate(monic, roots, max_iterations):
            break
    else:
        raise RootFindingError("simultaneous iteration failed to converge")
    p, dp = _spread(monic, n), _spread(_derivative_rows(monic), n)
    with np.errstate(all="ignore"):
        for _ in range(4):
            val = _polyval_rows(p, roots)
            der = _polyval_rows(dp, roots)
            mask = der != 0
            roots[mask] -= val[mask] / der[mask]
        residual = np.abs(_polyval_rows(p, roots)).max()
        if residual > 1e-10 * scale:
            raise RootFindingError(f"residual {residual:.2e} too large")
        gap = _block_gaps(roots)[0]
        if gap < gap_rtol * (1.0 + np.abs(roots).max()):
            raise MultipleRootError(f"root gap {gap:.2e} below tolerance")
    return roots[0]


def _aberth_iterate(monic: np.ndarray, z: np.ndarray,
                    max_iterations: int) -> bool:
    """Aberth steps on the (1, n) seeds z, in place, for the fiber monic;
    returns whether they converged."""
    n = z.shape[1]
    eps = np.finfo(float).eps
    p, dp = _spread(monic, n), _spread(_derivative_rows(monic), n)
    abs_p = np.abs(p)
    for _ in range(max_iterations):
        val = _polyval_rows(p, z)
        # roundoff floor of the evaluation itself; converged when reached
        floor = eps * _polyval_rows(abs_p, np.abs(z))
        if (np.abs(val) <= 8.0 * floor).all():
            return True
        der = _polyval_rows(dp, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(der != 0, val / der, 0.1 + 0.1j)
            pairwise = z[:, :, None] - z[:, None, :]
            pairwise.reshape(-1, n * n)[:, ::n + 1] = np.inf
            sums = np.divide(1.0, pairwise, out=pairwise).sum(axis=2)
            denom = 1.0 - newton * sums
            step = np.where(denom != 0, newton / denom, newton)
        if not np.isfinite(step).all():
            return False
        z -= step
        if np.abs(step).max() < 1e-14 * (1.0 + np.abs(z).max()):
            return True
    return False
