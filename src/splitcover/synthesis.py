"""Exact coefficient maps whose fiber monodromy realizes a prescribed group.

Two constructions cover the supported groups:

* abelian groups: roots are character-weighted superpositions of radicals
  u_t = prod_i (w - c_i)^(e_it/d_t); winding once around hole i multiplies
  u_t by a root of unity and permutes the root set by the regular
  translation of the i-th generator. Symmetrizing over the group cancels
  every root of unity, so the coefficients are exact polynomials in w.
* the symmetric group on three letters: roots are the pairwise resolvent
  values a_i - c*a_j of a cubic family z^3 + p(w) z + q(w) chosen so the
  cubic's branch points sit exactly at the hole centers; the induced action
  on ordered pairs is the regular representation.

Everything is computed in exact arithmetic on QiPoly, polynomials in w over
Q(i), and on elements of the cyclotomic field Q(zeta_n) held as QiPoly in zeta
reduced mod the n-th cyclotomic polynomial; no floating point enters the
coefficients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SynthesisUnsupported
from .permgroup import PermGroup, Permutation, compose
from .qipoly import QiPoly
from .wpoly import BivariatePolyQi, GaussianRational


# ---------------------------------------------------------------------------
# the cyclotomic field Q(zeta_n) as QiPoly in zeta reduced mod Phi_n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> QiPoly:
    """The n-th cyclotomic polynomial, monic."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = QiPoly.monomial(n) - QiPoly.monomial(0)
    for d in range(1, n):
        if n % d == 0:
            poly, rest = divmod(poly, cyclotomic_polynomial(d))
            if rest:
                raise ArithmeticError("inexact polynomial division")
    return poly


# ---------------------------------------------------------------------------
# abelian construction


def _abelian_basis(elems: Sequence[Permutation]):
    """Direct-sum basis of an abelian permutation group, greedily by order."""
    degree = elems[0].degree
    ident = Permutation.identity(degree)
    span = {ident}
    basis: list[tuple[Permutation, int]] = []
    while len(span) < len(elems):
        pick = None
        for cand in elems:
            if cand == ident or cand in span:
                continue
            powers = _cyclic_powers(cand)
            if any(p in span for p in powers[1:-1]):
                continue  # nontrivial power already in the span: not direct
            order = len(powers) - 1
            if pick is None or order > pick[1]:
                pick = (cand, order, powers)
        if pick is None:
            raise SynthesisUnsupported("no direct-sum basis found greedily")
        cand, order, powers = pick
        basis.append((cand, order))
        span = {compose(s, p) for s in span for p in powers[:-1]}
    return basis


def _cyclic_powers(p: Permutation):
    """[identity, p, p^2, ..., p^order] (identity repeated at the end)."""
    out = [Permutation.identity(p.degree)]
    cur = p
    while not cur.is_identity():
        out.append(cur)
        cur = compose(cur, p)
    out.append(cur)
    return out


def _coordinates(elems: Sequence[Permutation], basis):
    coords = {}
    degree = elems[0].degree

    def expand(idx, current, vec):
        if idx == len(basis):
            coords[current] = tuple(vec)
            return
        t, d = basis[idx]
        power = Permutation.identity(degree)
        for a in range(d):
            expand(idx + 1, compose(current, power), vec + [a])
            power = compose(power, t)

    expand(0, Permutation.identity(degree), [])
    if len(coords) != len(elems) or set(coords) != set(elems):
        raise SynthesisUnsupported("basis coordinates do not cover the group")
    return coords


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    coeffs: tuple[BivariatePolyQi, ...]
    target_perms: Optional[tuple[Permutation, ...]]
    root_labels_at: Optional[Callable[[complex], list[complex]]]
    description: str


def synthesize_abelian(elems: Sequence[Permutation], gens: Sequence[Permutation],
                       centers: Sequence[GaussianRational],
                       weight_base: Fraction = Fraction(1)) -> SynthesisResult:
    """Coefficient map with regular abelian monodromy: generator i acts by
    right translation around hole i. Roots are indexed by the given element
    enumeration, which fixes the labeling used downstream.

    The root of element g is the sum over the cyclic factors t of
    weight_base**t · w_t^(g_t) · u_t, with w_t a primitive root of unity of
    the t-th factor's order and u_t its radical. ``weight_base`` must be
    nonzero when there are two factors or more; the pipeline's fallback
    schedule tries 1, 2, 3 and 5 until the certificate accepts one."""
    group = PermGroup(elems[0].degree, tuple(gens))
    if not group.is_abelian():
        raise SynthesisUnsupported("group is not abelian")
    if len(gens) != len(centers):
        raise ValueError("one hole center per generator required")
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    if n == 1:
        coeffs = (BivariatePolyQi.zero(),)
        return SynthesisResult(
            coeffs, tuple(Permutation.identity(1) for _ in gens),
            lambda w0: [0j], "trivial group: f(z) = z")

    basis = _abelian_basis(elems)
    coords = _coordinates(elems, basis)
    orders = [d for _, d in basis]
    r = len(basis)
    weights = [Fraction(weight_base) ** t for t in range(r)]
    if any(wt == 0 for wt in weights):
        raise ValueError("weight_base must be nonzero")
    ncyc = lcm(*orders)

    w = QiPoly.monomial(1)
    gen_coords = [coords[g] for g in gens]
    radicands = []
    for t in range(r):
        poly = QiPoly.monomial(0)
        for i, c in enumerate(centers):
            e = gen_coords[i][t]
            if e:
                poly = poly * (w - QiPoly.from_gaussian([c])) ** e
        radicands.append(poly)

    # expand prod_g (z - beta_g) with beta_g = sum_t mu_t zeta^(g_t) u_t;
    # z-polynomial coefficients live in Q(zeta)[u_1..u_r]
    phi = cyclotomic_polynomial(ncyc)
    zpoly: list[dict] = [{(0,) * r: QiPoly.monomial(0)}]
    for g in elems:
        vec = coords[g]
        beta = {}
        for t in range(r):
            key = tuple(1 if s == t else 0 for s in range(r))
            zeta = QiPoly.monomial((ncyc // orders[t]) * vec[t] % ncyc)
            beta[key] = divmod(zeta, phi)[1].scale(weights[t])
        zpoly = _zpoly_mul_linear(zpoly, beta, phi)

    if len(zpoly) != n + 1:
        raise AssertionError("expansion degree mismatch")
    if zpoly[-1] != {(0,) * r: QiPoly.monomial(0)}:
        raise AssertionError("expansion is not monic")

    coeffs = []
    for k in range(n):
        acc = QiPoly()
        for expo, scalar in zpoly[k].items():
            if scalar.degree > 0 or scalar.coeffs[0][1]:  # not in Q
                raise AssertionError("coefficient failed to symmetrize to Q")
            for t, m in enumerate(expo):
                if m % orders[t] != 0:
                    raise AssertionError("unmatched radical exponent survived")
                if m:
                    scalar = scalar * radicands[t] ** (m // orders[t])
            acc = acc + scalar
        coeffs.append(acc.to_bivariate())

    target = tuple(
        Permutation(tuple(index[compose(e, g)] + 1 for e in elems)) for g in gens)

    mus = [float(wt) for wt in weights]

    def root_labels_at(w0: complex) -> list[complex]:
        u = []
        for t in range(r):
            val = radicands[t].eval_complex(w0)
            u.append(val ** (1.0 / orders[t]) if val != 0 else 0j)
        out = []
        for e in elems:
            vec = coords[e]
            out.append(sum(
                mus[t] * cmath.exp(2j * cmath.pi * vec[t] / orders[t]) * u[t]
                for t in range(r)))
        return out

    desc = ("abelian superposition, invariant factors "
            + "x".join(str(d) for d in orders))
    return SynthesisResult(tuple(coeffs), target, root_labels_at, desc)


def _zpoly_mul_linear(zpoly: list[dict], beta: dict, phi: QiPoly) -> list[dict]:
    """Multiply a z-polynomial by (z - beta), its scalars reduced mod phi."""
    out: list[dict] = [dict() for _ in range(len(zpoly) + 1)]
    zero = QiPoly()
    for k, termdict in enumerate(zpoly):
        for expo, scalar in termdict.items():
            # contributes to z^(k+1)
            out[k + 1][expo] = out[k + 1].get(expo, zero) + scalar
            # and to z^k through -beta
            for bexpo, bscalar in beta.items():
                key = tuple(a + b for a, b in zip(expo, bexpo))
                out[k][key] = out[k].get(key, zero) - scalar * bscalar
    return [{e: rest for e, s in termdict.items() if (rest := divmod(s, phi)[1])}
            for termdict in out]


# ---------------------------------------------------------------------------
# symmetric group on three letters, via pairwise resolvents of a cubic


@lru_cache(maxsize=None)
def resolvent_constants(c: Fraction):
    """Rational constants (A, B, C, D, E, F) such that for every cubic
    z^3 + p z + q with roots a1, a2, a3 the degree-6 polynomial
    prod_{i != j} (z - (a_i - c a_j)) equals
    z^6 + A p z^4 + B q z^3 + C p^2 z^2 + D p q z + E p^3 + F q^2.

    The shape follows from symmetry and weighted homogeneity; the constants
    are fitted on exact sample cubics and verified on an extra one.
    """
    c = Fraction(c)

    def sample(roots):
        roots = [Fraction(x) for x in roots]
        assert sum(roots) == 0
        p = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        q = -roots[0] * roots[1] * roots[2]
        poly = [Fraction(1)]  # low-to-high coefficients
        for i in range(3):
            for j in range(3):
                if i != j:
                    root = roots[i] - c * roots[j]
                    poly = [Fraction(0)] + poly
                    for k in range(len(poly) - 1):
                        poly[k] -= root * poly[k + 1]
        return p, q, poly

    fixed = [sample((0, 1, -1)), sample((1, 2, -3)), sample((0, 2, -2))]
    (p1, q1, f1), (p2, q2, f2), _ = fixed

    a_const = f2[4] / p2
    b_const = f2[3] / q2
    c_const = f2[2] / (p2 * p2)
    d_const = f2[1] / (p2 * q2)
    det = (p1 ** 3) * (q2 ** 2) - (p2 ** 3) * (q1 ** 2)
    if det == 0:
        raise ArithmeticError("degenerate samples for the constant term")
    e_const = (f1[0] * q2 ** 2 - f2[0] * q1 ** 2) / det
    f_const = ((p1 ** 3) * f2[0] - (p2 ** 3) * f1[0]) / det

    for p, q, low in fixed:
        want = [e_const * p ** 3 + f_const * q ** 2, d_const * p * q,
                c_const * p * p, b_const * q, a_const * p, Fraction(0),
                Fraction(1)]
        if low != want:
            raise ArithmeticError(
                f"resolvent shape verification failed for c={c}")
    return a_const, b_const, c_const, d_const, e_const, f_const


# twist c = 0 collapses second factors and c = -1 makes theta_ij = theta_ji,
# so both are forbidden; c = 1 (plain differences) degenerates exactly when
# the cubic roots are in arithmetic progression, which the (2,2) family hits
# between its holes, hence its schedule starts elsewhere.
_S3_TWIST_SCHEDULE = {
    (2, 3): (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)),
    (3, 2): (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)),
    (2, 2): (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2), Fraction(5)),
}


def s3_cubic_family(kind: tuple[int, int], c1: GaussianRational,
                    c2: GaussianRational):
    """Cubic coefficient polynomials p(w), q(w) whose branch behavior at the
    two hole centers matches the requested generator orders."""
    # affine coordinate sending c1 -> -2 and c2 -> +2
    a, b = QiPoly.from_gaussian([c1]), QiPoly.from_gaussian([c2])
    if not b - a:
        raise ValueError("hole centers must differ")
    wt = divmod(QiPoly.monomial(1).scale(4) - (a + b).scale(2), b - a)[0]
    two = QiPoly([(2, 0)])
    if kind == (2, 3):
        return (wt - two).scale(3), (wt - two).scale(4)
    if kind == (3, 2):
        return (wt + two).scale(-3), (wt + two).scale(-4)
    if kind == (2, 2):
        return QiPoly([(-3, 0)]), wt
    raise SynthesisUnsupported(f"unsupported branch orders {kind}")


def synthesize_s3(elems: Sequence[Permutation], gens: Sequence[Permutation],
                  centers: Sequence[GaussianRational],
                  twist: Optional[Fraction] = None) -> SynthesisResult:
    """Degree-6 coefficient map with regular S3 monodromy around two holes.

    The two generators must have orders (2,3), (3,2) or (2,2). The labeling
    of the six roots is not pinned here; the caller aligns the tracked
    monodromy with its prescribed regular permutations afterwards.
    """
    if len(elems) != 6 or len(gens) != 2 or len(centers) != 2:
        raise SynthesisUnsupported("S3 construction needs order 6 and two holes")
    group = PermGroup(elems[0].degree, tuple(gens))
    if group.is_abelian():
        raise SynthesisUnsupported("group of order 6 is cyclic, use the "
                                   "abelian construction")
    kind = (gens[0].order(), gens[1].order())
    if kind not in _S3_TWIST_SCHEDULE:
        raise SynthesisUnsupported(f"generator orders {kind} cannot generate S3")
    if twist is None:
        twist = _S3_TWIST_SCHEDULE[kind][0]
    twist = Fraction(twist)
    if twist in (Fraction(0), Fraction(-1)):
        raise ValueError("twist 0 and -1 always produce repeated resolvent roots")
    if twist == Fraction(1) and kind == (2, 2):
        raise ValueError("twist 1 degenerates for the two-transposition family")
    p_poly, q_poly = s3_cubic_family(kind, centers[0], centers[1])
    a_c, b_c, c_c, d_c, e_c, f_c = resolvent_constants(twist)

    p2 = p_poly * p_poly
    q2 = q_poly * q_poly
    coeff_w = [
        (p2 * p_poly).scale(e_c) + q2.scale(f_c),
        (p_poly * q_poly).scale(d_c),
        p2.scale(c_c),
        q_poly.scale(b_c),
        p_poly.scale(a_c),
        QiPoly(),
    ]
    coeffs = tuple(cw.to_bivariate() for cw in coeff_w)

    def root_labels_at(w0: complex) -> list[complex]:
        pv, qv = p_poly.eval_complex(w0), q_poly.eval_complex(w0)
        cubic = np.array([1.0, 0.0, pv, qv], dtype=complex)
        roots = np.roots(cubic)
        tw = float(twist)
        return [roots[i] - tw * roots[j]
                for i in range(3) for j in range(3) if i != j]

    return SynthesisResult(
        coeffs, None, root_labels_at,
        f"S3 pairwise resolvent, branch orders {kind}, twist {twist}")


def s3_twist_schedule(kind: tuple[int, int]) -> tuple[Fraction, ...]:
    return _S3_TWIST_SCHEDULE[kind]
