"""Exact polynomials in one variable over the Gaussian rationals Q(i).

A polynomial is stored as Gaussian integer numerators (re, im), lowest power
first, over one positive integer denominator. The form is kept canonical (no
trailing zero numerator, the denominator coprime to every numerator part), so
equal polynomials compare equal. All arithmetic is on Python integers: the
numerators of polynomials with denominator 1 stay Gaussian integers, which is
what fraction-free elimination needs (Bareiss, Math. Comp. 22, 1968).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .wpoly import BivariatePolyQi, GaussianRational


class QiPoly:
    """Polynomial in w over Q(i): numerators (re, im) over one denominator."""

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Iterable[tuple[int, int]] = (), den: int = 1):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == (0, 0):
            coeffs.pop()
        if den != 1:
            g = math.gcd(den, *(x for c in coeffs for x in c))
            if g != 1:
                coeffs = [(a // g, b // g) for a, b in coeffs]
                den //= g
        self.coeffs = tuple(coeffs)
        self.den = den

    @classmethod
    def from_gaussian(cls, values: Sequence[GaussianRational]) -> "QiPoly":
        """The polynomial sum values[k] w^k."""
        den = math.lcm(*(x.denominator for c in values for x in (c.re, c.im)))
        return cls([(c.re.numerator * (den // c.re.denominator),
                     c.im.numerator * (den // c.im.denominator)) for c in values],
                   den)

    @classmethod
    def monomial(cls, k: int) -> "QiPoly":
        """w^k."""
        return cls([(0, 0)] * k + [(1, 0)])

    @property
    def degree(self) -> int:
        """The degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QiPoly) and self.den == other.den
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"QiPoly({list(self.coeffs)!r}, {self.den})"

    def __neg__(self) -> "QiPoly":
        return QiPoly([(-a, -b) for a, b in self.coeffs], self.den)

    def __add__(self, other: "QiPoly") -> "QiPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "QiPoly") -> "QiPoly":
        return self._combine(other, -1)

    def _combine(self, other: "QiPoly", sign: int) -> "QiPoly":
        """self + sign * other, on the common denominator."""
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        a, b = self.coeffs, other.coeffs
        out = [(x * sa, y * sa) for x, y in a]
        out += [(0, 0)] * (len(b) - len(a))
        for k, (x, y) in enumerate(b):
            ox, oy = out[k]
            out[k] = (ox + x * sb, oy + y * sb)
        return QiPoly(out, den)

    def __mul__(self, other: "QiPoly") -> "QiPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QiPoly()
        re = [0] * (len(a) + len(b) - 1)
        im = [0] * len(re)
        for i, (ar, ai) in enumerate(a):
            if ar == 0 and ai == 0:
                continue
            for j, (br, bi) in enumerate(b, i):
                re[j] += ar * br - ai * bi
                im[j] += ar * bi + ai * br
        return QiPoly(zip(re, im), self.den * other.den)

    def scale(self, r) -> "QiPoly":
        """The polynomial times the rational number r, an int or Fraction."""
        num = r.numerator
        return QiPoly([(a * num, b * num) for a, b in self.coeffs],
                      self.den * r.denominator)

    def __pow__(self, k: int) -> "QiPoly":
        out = QiPoly([(1, 0)])
        for _ in range(k):
            out = out * self
        return out

    def __divmod__(self, other: "QiPoly") -> tuple["QiPoly", "QiPoly"]:
        """Quotient and remainder of the division by a nonzero polynomial,
        the remainder of lower degree than the divisor.

        Long division on the numerators: a quotient coefficient c / l, with l
        the divisor's leading numerator, is c conj(l) / |l|^2. When |l|^2
        does not divide c conj(l), the remainder, the quotient so far and
        their common denominator are first multiplied by |l|^2. So an exact
        division in Z[i][w] and a division by a monic polynomial never
        multiply.
        """
        divisor = other.coeffs
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        lr, li = divisor[-1]
        norm = lr * lr + li * li
        top = len(divisor) - 1
        rem = list(self.coeffs)
        quo = [(0, 0)] * max(len(rem) - top, 0)
        den = self.den
        for k in range(len(quo) - 1, -1, -1):
            cr, ci = rem[k + top]
            if cr == 0 and ci == 0:
                continue
            tr, ti = cr * lr + ci * li, ci * lr - cr * li
            if tr % norm or ti % norm:
                rem = [(a * norm, b * norm) for a, b in rem]
                quo = [(a * norm, b * norm) for a, b in quo]
                den *= norm
            else:
                tr, ti = tr // norm, ti // norm
            quo[k] = (tr, ti)
            for j, (br, bi) in enumerate(divisor, k):
                ar, ai = rem[j]
                rem[j] = (ar - tr * br + ti * bi, ai - tr * bi - ti * br)
        # self = quo / den * (divisor numerators) + rem / den, and the divisor
        # numerators are other.den * other
        return (QiPoly([(a * other.den, b * other.den) for a, b in quo], den),
                QiPoly(rem[:top], den))

    def eval_complex(self, w: complex) -> complex:
        """Float value at w by Horner's rule; each coefficient is rounded
        once, as complex(GaussianRational) rounds it."""
        out = 0j
        den = self.den
        for a, b in reversed(self.coeffs):
            out = out * w + complex(a / den, b / den)
        return out

    def to_bivariate(self) -> BivariatePolyQi:
        """The polynomial in (u, v) with w = u + iv, expanded binomially:
        the term C(k, j) u^(k-j) (iv)^j of w^k."""
        den = self.den
        terms = {}
        for k, (a, b) in enumerate(self.coeffs):
            if a == 0 and b == 0:
                continue
            for j in range(k + 1):
                binom = math.comb(k, j)
                # (a + bi) i^j
                x, y = ((a, b), (-b, a), (-a, -b), (b, -a))[j % 4]
                terms[(k - j, j)] = GaussianRational(Fraction(binom * x, den),
                                                     Fraction(binom * y, den))
        return BivariatePolyQi(terms)
