"""Exact certificate that a polynomial coefficient map is Weierstrass on a
base space.

A monic polynomial z^n + a_{n-1} z^{n-1} + ... + a_0 whose coefficients are
polynomials in w = u + iv over Q(i) has an exact discriminant D(w) in
Q(i)[w]. It is Weierstrass on a base space X, a closed disc minus open holes,
exactly when D has no zero on X. The certificate decides this without
approximating a root: the Schur-Cohn test counts the zeros of D in the open
outer disc and in each open hole (Marden, Geometry of Polynomials, 1966,
Thm 42.1; Henrici, Applied and Computational Complex Analysis I, 1974,
section 6.8). When every count is decided and the outer count equals the sum
of the hole counts, every zero of D inside the outer disc lies in a hole, so
none lies on X. Zeros outside the outer disc are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .wpoly import QI_ONE, QI_ZERO, BaseSpace, BivariatePolyQi, Disc, GaussianRational


@dataclass(frozen=True)
class WeierstrassCertificate:
    """Zero counts of the exact discriminant of a coefficient map.

    reason is None for a certified map and says otherwise why the map is not
    certified. A count is None when it was not decided.
    """

    discriminant_degree: Optional[int]
    zeros_in_outer_disc: Optional[int]
    zeros_per_hole: tuple[Optional[int], ...]
    reason: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.reason is None

    def to_json(self) -> dict:
        return {"discriminant_degree": self.discriminant_degree,
                "zeros_in_outer_disc": self.zeros_in_outer_disc,
                "zeros_per_hole": list(self.zeros_per_hole),
                "valid": self.valid}


def certify(coeffs: Sequence[BivariatePolyQi],
            space: BaseSpace) -> WeierstrassCertificate:
    """Decide whether the monic polynomial with low-order coefficients
    (a_0, ..., a_{n-1}) is Weierstrass on the space."""
    forms = [w_form(c) for c in coeffs]
    if any(form is None for form in forms):
        return WeierstrassCertificate(
            None, None, (), "a coefficient is not a polynomial in w = u + iv")
    disc = discriminant(forms)
    if not disc:
        return WeierstrassCertificate(
            None, None, (), "the discriminant vanishes identically")
    outer = zeros_in_disc(disc, space.outer)
    holes = tuple(zeros_in_disc(disc, h) for h in space.holes)
    reason = None
    if outer is None or None in holes:
        reason = "a zero of the discriminant may lie on a boundary circle"
    elif outer != sum(holes):
        reason = (f"{outer - sum(holes)} zero(s) of the discriminant lie in "
                  f"the space")
    return WeierstrassCertificate(len(disc) - 1, outer, holes, reason)


def w_form(poly: BivariatePolyQi) -> Optional[list[GaussianRational]]:
    """Coefficients c_k, lowest first, with poly equal to the sum of
    c_k (u + iv)^k, or None when poly is not a polynomial in w = u + iv.

    A polynomial in w is determined by its terms without v; it is accepted
    only when expanding those again gives poly back.
    """
    top = max((du for du, dv in poly.terms if dv == 0), default=-1)
    form = [poly.terms.get((k, 0), QI_ZERO) for k in range(top + 1)]
    return form if BivariatePolyQi.from_w_powers(form) == poly else None


def discriminant(forms: Sequence[Sequence[GaussianRational]]
                 ) -> list[GaussianRational]:
    """Coefficients, lowest first, of D(w), the discriminant in z of
    z^n + a_{n-1}(w) z^{n-1} + ... + a_0(w), where forms[k] is the w-form of
    a_k; the empty list when D vanishes identically.

    D is isobaric of weight n(n-1) in the coefficients, a_k having weight
    n - k, so deg D <= n(n-1) max(deg a_k / (n - k)). D is evaluated at
    w = 0, 1, ... up to that bound and interpolated.
    """
    n = len(forms)
    if n == 1:
        return [QI_ONE]
    slope = max((Fraction(len(a) - 1, n - k) for k, a in enumerate(forms) if a),
                default=Fraction(0))
    bound = math.floor(slope * n * (n - 1))
    # L clears every denominator, so L a_k(w) is a Gaussian integer
    den = math.lcm(*(x.denominator for a in forms for c in a
                     for x in (c.re, c.im)))
    ints = [[(int(c.re * den), int(c.im * den)) for c in a] for a in forms]
    values = [_sylvester_determinant(ints, den, w) for w in range(bound + 1)]
    # det Syl(L f, L f') = L^(2n-1) Res(f, f'), and for monic f
    # disc f = (-1)^(n(n-1)/2) Res(f, f')
    scale = Fraction((-1) ** (n * (n - 1) // 2), den ** (2 * n - 1))
    re = _interpolate([Fraction(v[0]) for v in values])
    im = _interpolate([Fraction(v[1]) for v in values])
    out = [GaussianRational(a * scale, b * scale) for a, b in zip(re, im)]
    while out and out[-1].is_zero():
        out.pop()
    return out


def _sylvester_determinant(ints, den: int, w: int) -> tuple[int, int]:
    """det Syl(L f, L f') at the integer point w, where row k of ints holds
    the w-form of L a_k in Gaussian integers (re, im)."""
    n = len(ints)
    # L f, highest power first
    f = [(den, 0)]
    for a in reversed(ints):
        re = im = 0
        for cr, ci in reversed(a):
            re, im = re * w + cr, im * w + ci
        f.append((re, im))
    df = [((n - j) * x, (n - j) * y) for j, (x, y) in enumerate(f[:-1])]
    size = 2 * n - 1
    zero = (0, 0)
    rows = [[zero] * r + f + [zero] * (size - n - 1 - r) for r in range(n - 1)]
    rows += [[zero] * r + df + [zero] * (size - n - r) for r in range(n)]
    return _bareiss_det(rows)


def _bareiss_det(m: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Determinant of a square matrix of Gaussian integers (re, im) by
    fraction-free Bareiss elimination, in place: every division by the
    previous pivot is exact, and a zero pivot swaps in a lower row."""
    size = len(m)
    sign = 1
    qr, qi = 1, 0
    for k in range(size - 1):
        if m[k][k] == (0, 0):
            swap = next((i for i in range(k + 1, size) if m[i][k] != (0, 0)),
                        None)
            if swap is None:
                return (0, 0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pr, pi = pivot_row[k]
        norm = qr * qr + qi * qi
        for row in m[k + 1:]:
            ar, ai = row[k]
            for j in range(k + 1, size):
                br, bi = row[j]
                cr, ci = pivot_row[j]
                # (pivot * b - a * c) / q, dividing by q as conj(q) / |q|^2
                xr = pr * br - pi * bi - ar * cr + ai * ci
                xi = pr * bi + pi * br - ar * ci - ai * cr
                row[j] = ((xr * qr + xi * qi) // norm,
                          (xi * qr - xr * qi) // norm)
        qr, qi = pr, pi
    dr, di = m[-1][-1]
    return (sign * dr, sign * di)


def _interpolate(values: list[Fraction]) -> list[Fraction]:
    """Coefficients, lowest first, of the polynomial of degree below
    len(values) taking values[j] at j, by Newton's divided differences."""
    d = list(values)
    for j in range(1, len(d)):
        for i in range(len(d) - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) / j
    out: list[Fraction] = []
    for j in range(len(d) - 1, -1, -1):
        # out * (w - j) + d[j]
        nxt = [Fraction(0)] * (len(out) + 1)
        for k, b in enumerate(out):
            nxt[k] -= j * b
            nxt[k + 1] += b
        nxt[0] += d[j]
        out = nxt
    return out


def zeros_in_disc(poly: Sequence[GaussianRational], disc: Disc) -> Optional[int]:
    """Number of zeros, with multiplicity, of a nonzero polynomial (lowest
    coefficient first) in the open disc; None when one may lie on its
    boundary circle.

    Runs the Schur-Cohn test on p(x) = poly(c + r x) scaled to Gaussian
    integers: with T p = conj(p(0)) p - p_d p* at formal degree d, where p*
    reverses and conjugates the coefficients, and delta_k = (T^k p)(0), the
    count is the number of k with delta_1 ... delta_k < 0, provided no
    delta_k is 0. Each T^k p is divided by the positive content of its
    coefficients, which keeps every sign and keeps the integers short.
    """
    c = GaussianRational(*disc.center)
    r = GaussianRational(disc.radius)
    p: list[GaussianRational] = []
    for a in reversed(poly):
        # p * (c + r x) + a
        nxt = [QI_ZERO] * (len(p) + 1)
        for k, b in enumerate(p):
            nxt[k] += b * c
            nxt[k + 1] += b * r
        nxt[0] += a
        p = nxt
    den = math.lcm(*(x.denominator for z in p for x in (z.re, z.im)))
    q = [(int(z.re * den), int(z.im * den)) for z in p]
    count, negative = 0, False
    while len(q) > 1:
        d = len(q) - 1
        a0r, a0i = q[0]
        adr, adi = q[d]
        t = []
        for k in range(d):
            br, bi = q[k]
            cr, ci = q[d - k]
            t.append((a0r * br + a0i * bi - adr * cr - adi * ci,
                      a0r * bi - a0i * br - adi * cr + adr * ci))
        delta = t[0][0]
        if delta == 0:
            return None
        negative ^= delta < 0
        if negative:
            count += 1
        g = math.gcd(*(x for z in t for x in z))
        q = [(x // g, y // g) for x, y in t]
    return count
