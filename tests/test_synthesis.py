from fractions import Fraction

import numpy as np
import pytest

from oracles import eval_exact
from splitcover.permgroup import Permutation, closure, compose
from splitcover.synthesis import (
    SynthesisUnsupported,
    cyclotomic_polynomial,
    resolvent_constants,
    synthesize_abelian,
    synthesize_s3,
)
from splitcover.certify import certify
from splitcover.qipoly import QiPoly
from splitcover.roots import roots_at
from splitcover.wpoly import GaussianRational, default_base_space


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])



def test_cyclotomic_polynomials():
    def phi(*vals):
        return QiPoly([(v, 0) for v in vals])

    assert cyclotomic_polynomial(1) == phi(-1, 1)
    assert cyclotomic_polynomial(2) == phi(1, 1)
    assert cyclotomic_polynomial(3) == phi(1, 1, 1)
    assert cyclotomic_polynomial(4) == phi(1, 0, 1)
    assert cyclotomic_polynomial(6) == phi(1, -1, 1)
    assert cyclotomic_polynomial(12) == phi(1, 0, -1, 0, 1)


def test_cyclo_num_relations():
    # elements of Q(zeta_n) as QiPoly in zeta reduced mod Phi_n
    def zeta(n, k):
        return divmod(QiPoly.monomial(k), cyclotomic_polynomial(n))[1]

    def reduce(n, x):
        return divmod(x, cyclotomic_polynomial(n))[1]

    one = QiPoly.monomial(0)
    assert not reduce(3, one + zeta(3, 1) + zeta(3, 1) * zeta(3, 1))
    assert not reduce(4, zeta(4, 1) * zeta(4, 1) + one)
    for n in (2, 3, 4, 5, 6, 8, 12):
        total = QiPoly()
        for k in range(n):
            total = total + zeta(n, k)
        assert not total, n


def test_abelian_z2_is_square_root_family():
    g = closure((perm((1, 2), n=2),))
    res = synthesize_abelian(g.elements(), g.generators, [qi(0)])
    # f = z^2 - w with w = u + i v
    a0 = res.coeffs[0]
    assert eval_exact(a0, Fraction(3), Fraction(2)) == qi(-3, -2)
    assert res.coeffs[1].is_zero()
    assert res.target_perms == (perm((1, 2), n=2),)


def test_abelian_z4_power_family():
    g = closure((perm((1, 2, 3, 4), n=4),))
    res = synthesize_abelian(g.elements(), g.generators, [qi(5)])
    # f = z^4 - (w - 5)
    vals = [eval_exact(c, Fraction(6), Fraction(0)) for c in res.coeffs]
    assert vals[0] == qi(-1)
    assert all(v.is_zero() for v in vals[1:])


def test_abelian_klein_biquadratic():
    a = perm((1, 2), (3, 4), n=4)
    b = perm((1, 3), (2, 4), n=4)
    g = closure((a, b))
    res = synthesize_abelian(g.elements(), g.generators, [qi(-2), qi(2)])
    # f = z^4 - 2((w+2)+(w-2)) z^2 + ((w+2)-(w-2))^2 = z^4 - 4w z^2 + 16
    u, v = Fraction(3), Fraction(1)
    vals = [eval_exact(c, u, v) for c in res.coeffs]
    assert vals[0] == qi(16)
    assert vals[1].is_zero()
    assert vals[2] == qi(-12, -4)  # -4w at w = 3 + i
    assert vals[3].is_zero()


def roots_match_labels(res, w0):
    coeff_vals = [complex(eval_exact(c, Fraction(w0.real), Fraction(w0.imag)))
                  for c in res.coeffs]
    computed = sorted(roots_at(coeff_vals), key=lambda z: (round(z.real, 7),
                                                           round(z.imag, 7)))
    labels = sorted(res.root_labels_at(w0), key=lambda z: (round(z.real, 7),
                                                           round(z.imag, 7)))
    assert len(computed) == len(labels)
    for a, b in zip(computed, labels):
        assert abs(a - b) < 1e-7, (a, b)


@pytest.mark.parametrize("gens,centers", [
    ((perm((1, 2), n=2),), [qi(0)]),
    ((perm((1, 2, 3), n=3),), [qi(0)]),
    ((perm((1, 2, 3, 4, 5, 6), n=6),), [qi(0)]),
    ((perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4)), [qi(-2), qi(2)]),
])
def test_abelian_labels_match_actual_roots(gens, centers):
    g = closure(gens)
    res = synthesize_abelian(g.elements(), g.generators, centers)
    for w0 in (-8j, 5 + 1j, -4 + 3j):
        roots_match_labels(res, w0)


def test_abelian_z6_composite_generators():
    # Z6 presented by a 2-element and a 3-element (two holes)
    a = perm((1, 4), (2, 5), (3, 6), n=6)
    b = perm((1, 3, 5), (2, 4, 6), n=6)
    g = closure((a, b))
    assert g.order() == 6 and g.is_abelian()
    res = synthesize_abelian(g.elements(), g.generators, [qi(-2), qi(2)])
    # coefficients are exact, and the targets are the right translations
    els = g.elements()
    idx = {e: i + 1 for i, e in enumerate(els)}
    for gen, target in zip(g.generators, res.target_perms):
        expected = Permutation(tuple(idx[compose(e, gen)] for e in els))
        assert target == expected
    roots_match_labels(res, -8j)


def test_abelian_rejects_nonabelian():
    g = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    with pytest.raises(SynthesisUnsupported):
        synthesize_abelian(g.elements(), g.generators, [qi(-2), qi(2)])


def test_abelian_trivial_group():
    g = closure((), degree=1)
    res = synthesize_abelian(g.elements(), (), [])
    assert len(res.coeffs) == 1 and res.coeffs[0].is_zero()


def test_resolvent_constants_difference_case():
    # theta = a_i - a_j: classical squared-difference resolvent
    assert resolvent_constants(Fraction(1)) == (
        Fraction(6), Fraction(0), Fraction(9), Fraction(0),
        Fraction(4), Fraction(27))


def test_resolvent_constants_generic_twist_verifies():
    for c in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)):
        consts = resolvent_constants(c)
        assert len(consts) == 6


def brute_resolvent(p, q, c):
    roots = np.roots([1.0, 0.0, p, q])
    vals = [roots[i] - c * roots[j] for i in range(3) for j in range(3) if i != j]
    return np.poly(np.array(vals))


def test_resolvent_matches_numerical_expansion():
    for c in (Fraction(1), Fraction(2), Fraction(1, 2)):
        a_c, b_c, c_c, d_c, e_c, f_c = resolvent_constants(c)
        for p, q in ((-3 + 1j, 2 - 1j), (1j, 4), (-7, 6)):
            want = brute_resolvent(p, q, float(c))
            got = np.array([
                1.0, 0.0, float(a_c) * p, float(b_c) * q, float(c_c) * p * p,
                float(d_c) * p * q, float(e_c) * p ** 3 + float(f_c) * q * q,
            ], dtype=complex)
            assert np.allclose(want, got, rtol=1e-9, atol=1e-9)


def s3_regular():
    x = Permutation((2, 1, 5, 6, 3, 4))
    y = Permutation((3, 4, 6, 5, 2, 1))
    return closure((x, y))


def test_s3_synthesis_transposition_then_cycle():
    g = s3_regular()
    res = synthesize_s3(g.elements(), g.generators, [qi(-2), qi(2)])
    # hand expansion: a4 = 18(w-2), a2 = 81(w-2)^2, a0 = 108(w-2)^2 (w+2)
    w = 1 + 2j
    vals = [complex(eval_exact(c, Fraction(1), Fraction(2))) for c in res.coeffs]
    assert abs(vals[4] - 18 * (w - 2)) < 1e-9
    assert abs(vals[2] - 81 * (w - 2) ** 2) < 1e-9
    assert abs(vals[0] - 108 * (w - 2) ** 2 * (w + 2)) < 1e-9
    assert abs(vals[1]) < 1e-12 and abs(vals[3]) < 1e-12 and abs(vals[5]) < 1e-12
    # roots match the pairwise resolvent labels away from the holes
    for w0 in (-8j, 6 + 0j, -5 + 2j):
        coeff_vals = [complex(eval_exact(c, Fraction(w0.real), Fraction(w0.imag)))
                      for c in res.coeffs]
        got = sorted(roots_at(coeff_vals), key=lambda z: (round(z.real, 6),
                                                          round(z.imag, 6)))
        labels = sorted(res.root_labels_at(w0), key=lambda z: (round(z.real, 6),
                                                               round(z.imag, 6)))
        for a, b in zip(got, labels):
            assert abs(a - b) < 1e-6


def test_s3_synthesis_two_transpositions():
    g = closure((Permutation((2, 1, 5, 6, 3, 4)),
                 Permutation((4, 3, 2, 1, 6, 5))))
    assert g.order() == 6 and not g.is_abelian()
    gens = g.generators
    assert gens[0].order() == 2 and gens[1].order() == 2
    res = synthesize_s3(g.elements(), gens, [qi(-2), qi(2)])
    # the discriminant has no zero on the space: five in each hole
    cert = certify(res.coeffs, default_base_space(2))
    assert cert.valid
    assert (cert.zeros_in_outer_disc, cert.zeros_per_hole) == (10, (5, 5))


def test_s3_branch_points_inside_holes_only():
    g = s3_regular()
    res = synthesize_s3(g.elements(), g.generators, [qi(-2), qi(2)])
    # every zero of the discriminant lies in a hole, none on the space or
    # outside the outer disc
    cert = certify(res.coeffs, default_base_space(2))
    assert cert.valid
    assert cert.zeros_in_outer_disc == cert.discriminant_degree == 13
    assert cert.zeros_per_hole == (3, 10)


def test_s3_rejects_bad_shapes():
    g = s3_regular()
    with pytest.raises(SynthesisUnsupported):
        synthesize_s3(g.elements(), g.generators, [qi(0)])
    z6 = closure((perm((1, 2, 3, 4, 5, 6), n=6), perm(n=6)))
    with pytest.raises(SynthesisUnsupported):
        synthesize_s3(z6.elements(), z6.generators, [qi(-2), qi(2)])
