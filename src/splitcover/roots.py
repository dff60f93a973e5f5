"""Numeric roots of monic fibers: simultaneous root solving and root gaps.

A fiber is given by the low-order coefficients (a_0, ..., a_{n-1}) of the
monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0. gamma is the rounding
error bound that the certified tracker and its segment polynomials use.
"""

from __future__ import annotations

import numpy as np


# unit roundoff of IEEE double precision
_UNIT = 2.0 ** -53


def gamma(k: int) -> float:
    """Bound on |prod (1 + d_i) - 1| over k factors |d_i| <= u; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1."""
    return k * _UNIT / (1 - k * _UNIT)


class MultipleRootError(RuntimeError):
    """Roots came closer than the resolution tolerance."""


class RootFindingError(RuntimeError):
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


def roots_at(coeffs, max_iterations: int = 1200,
             gap_rtol: float = 1e-7) -> np.ndarray:
    """All roots of a monic polynomial, via simultaneous Aberth iteration
    seeded on a circle of radius 1 + max|coeff|, polished by Newton steps.

    Raises RootFindingError when the iteration does not converge or leaves
    a residual above 1e-10 (1 + max|a_k|) + 64 n eps sum |a_k| |z|^k, and
    MultipleRootError when the computed roots are too close to separate
    reliably.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise ValueError("expected the coefficients of one fiber")
    n = c.shape[0]
    if n == 0:
        raise ValueError("degree must be at least 1")
    if n == 1:
        return -c
    # highest coefficient first, as np.polyval takes them
    p = np.concatenate(([1.0], c[::-1]))
    dp = p[:-1] * np.arange(n, 0, -1)
    # hypot, as abs() of one complex number computes it
    scale = 1.0 + np.hypot(c.real, c.imag).max()
    with np.errstate(over="ignore"):
        if not np.isfinite(np.polyval(np.abs(p), scale)):
            raise RootFindingError(
                f"the fiber's values overflow a float on the seed circle of "
                f"radius {scale:.3g}")
    for attempt in range(3):
        offset = 0.25 + 0.31 * attempt
        roots = scale * np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        if _aberth_iterate(p, dp, roots, max_iterations):
            break
    else:
        raise RootFindingError("simultaneous iteration failed to converge")
    with np.errstate(all="ignore"):
        for _ in range(4):
            val = np.polyval(p, roots)
            der = np.polyval(dp, roots)
            mask = der != 0
            roots[mask] -= val[mask] / der[mask]
        # the residual may reach the evaluation's own roundoff floor,
        # eps sum |a_k| |z|^k, which grows with the size of the roots
        values = np.abs(np.polyval(p, roots))
        floor = np.finfo(float).eps * np.polyval(np.abs(p), np.abs(roots))
        if (values > 1e-10 * scale + 64 * n * floor).any():
            raise RootFindingError(f"residual {values.max():.2e} too large")
        gap = min_gap(roots)
        if gap < gap_rtol * (1.0 + np.abs(roots).max()):
            raise MultipleRootError(f"root gap {gap:.2e} below tolerance")
    return roots


def _aberth_iterate(p: np.ndarray, dp: np.ndarray, z: np.ndarray,
                    max_iterations: int) -> bool:
    """Aberth steps on the seeds z, in place, for the polynomial p with
    derivative dp; returns whether they converged."""
    n = z.shape[0]
    eps = np.finfo(float).eps
    abs_p = np.abs(p)
    for _ in range(max_iterations):
        val = np.polyval(p, z)
        # roundoff floor of the evaluation itself; converged when reached
        floor = eps * np.polyval(abs_p, np.abs(z))
        if (np.abs(val) <= 8.0 * floor).all():
            return True
        der = np.polyval(dp, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(der != 0, val / der, 0.1 + 0.1j)
            pairwise = z[:, None] - z[None, :]
            pairwise.reshape(n * n)[::n + 1] = np.inf
            sums = np.divide(1.0, pairwise, out=pairwise).sum(axis=1)
            denom = 1.0 - newton * sums
            step = np.where(denom != 0, newton / denom, newton)
        if not np.isfinite(step).all():
            return False
        z -= step
        if np.abs(step).max() < 1e-14 * (1.0 + np.abs(z).max()):
            return True
    return False
