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
from typing import Optional, Sequence

from .qipoly import QiPoly
from .wpoly import QI_ZERO, BaseSpace, BivariatePolyQi, Disc, GaussianRational


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
    return WeierstrassCertificate(disc.degree, outer, holes, reason)


def w_form(poly: BivariatePolyQi) -> Optional[QiPoly]:
    """The polynomial p in w with poly equal to p(u + iv), or None when poly
    is not a polynomial in w = u + iv.

    A polynomial in w is determined by its terms without v; it is accepted
    only when expanding those again gives poly back.
    """
    top = max((du for du, dv in poly.terms if dv == 0), default=-1)
    form = QiPoly.from_gaussian(
        [poly.terms.get((k, 0), QI_ZERO) for k in range(top + 1)])
    return form if form.to_bivariate() == poly else None


def discriminant(forms: Sequence[QiPoly]) -> QiPoly:
    """D(w), the discriminant in z of z^n + a_{n-1}(w) z^{n-1} + ... + a_0(w),
    where forms[k] is the w-form of a_k; the zero polynomial when D vanishes
    identically.

    With L the least common denominator of the a_k, D is read off the
    determinant of the Sylvester matrix of L f and L f', whose entries lie in
    Z[i][w]: det Syl(L f, L f') = L^(2n-1) Res(f, f'), and for monic f
    disc f = (-1)^(n(n-1)/2) Res(f, f').
    """
    n = len(forms)
    if n == 1:
        return QiPoly.monomial(0)
    den = math.lcm(*(a.den for a in forms))
    # L f, highest power first
    f = [QiPoly([(den, 0)])] + [a.scale(den) for a in reversed(forms)]
    df = [c.scale(n - j) for j, c in enumerate(f[:-1])]
    size = 2 * n - 1
    zero = QiPoly()
    rows = [[zero] * r + f + [zero] * (size - n - 1 - r) for r in range(n - 1)]
    rows += [[zero] * r + df + [zero] * (size - n - r) for r in range(n)]
    sign = (-1) ** (n * (n - 1) // 2)
    return _bareiss_det(rows) * QiPoly([(sign, 0)], den ** (2 * n - 1))


def _bareiss_det(m: list[list[QiPoly]]) -> QiPoly:
    """Determinant of a square matrix over Z[i][w] by fraction-free Bareiss
    elimination, in place: every division by the previous pivot is exact,
    and a zero pivot swaps in a lower row."""
    size = len(m)
    sign = 1
    prev = QiPoly.monomial(0)
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return QiPoly()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, size):
                if row[j] or (a and pivot_row[j]):
                    row[j] = divmod(pivot * row[j] - a * pivot_row[j], prev)[0]
        prev = pivot
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def zeros_in_disc(poly: QiPoly, disc: Disc) -> Optional[int]:
    """Number of zeros, with multiplicity, of a nonzero polynomial in the
    open disc; None when one may lie on its boundary circle.

    Runs the Schur-Cohn test on p(x) = poly(c + r x) scaled to Gaussian
    integers: with T p = conj(p(0)) p - p_d p* at formal degree d, where p*
    reverses and conjugates the coefficients, and delta_k = (T^k p)(0), the
    count is the number of k with delta_1 ... delta_k < 0, provided no
    delta_k is 0. Each T^k p is divided by the positive content of its
    coefficients, which keeps every sign and keeps the integers short.
    """
    (cx, cy), r = disc.center, disc.radius
    shift = QiPoly.from_gaussian([GaussianRational(cx, cy), GaussianRational(r)])
    # p = den poly(c + r x), shifting poly's numerators; q, the numerators of
    # p, is p times a positive integer, which keeps every Schur-Cohn sign
    p = QiPoly()
    for c in reversed(poly.coeffs):
        p = p * shift + QiPoly([c])
    q = list(p.coeffs)
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
