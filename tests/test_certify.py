import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import fiber_exact, sample_grid
from splitcover.certify import certify, discriminant, w_form, zeros_in_disc
from splitcover.freecover import cayley_table
from splitcover.permgroup import Permutation, closure
from splitcover.qipoly import QiPoly
from splitcover.roots import MultipleRootError, roots_at
from splitcover.synthesis import synthesize_abelian
from splitcover.wpoly import (
    BivariatePolyQi,
    Disc,
    GaussianRational,
    WeierstrassPoly,
    default_base_space,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def w_poly(*values):
    """The QiPoly with the given Gaussian rational coefficients, lowest
    first."""
    return QiPoly.from_gaussian(values)


def square_root_family(a0):
    """z^2 + a0 with a0 given by its w-form."""
    return [a0.to_bivariate(), BivariatePolyQi.zero()]


def float_coefficients(poly):
    return [complex(a / poly.den, b / poly.den) for a, b in poly.coeffs]


@pytest.mark.parametrize("coeffs, counts, reason", [
    # z^2 - (w - 5): the branch point w = 5 lies in the space
    (square_root_family(w_poly(qi(5), qi(-1))), (1, 1, (0,)),
     "1 zero(s) of the discriminant lie in the space"),
    # z^2 - (w - 1): the branch point lies on the hole's boundary circle
    (square_root_family(w_poly(qi(1), qi(-1))), (1, 1, (None,)),
     "a zero of the discriminant may lie on a boundary circle"),
    (square_root_family(w_poly(qi(0), qi(-1))), (1, 1, (1,)), None),
    # z^2 - (w - 20): the branch point lies outside the outer disc
    (square_root_family(w_poly(qi(20), qi(-1))), (1, 0, (0,)), None),
    (square_root_family(w_poly()), (None, None, ()),
     "the discriminant vanishes identically"),
    ([BivariatePolyQi({(1, 0): qi(-1)}), BivariatePolyQi.zero()],
     (None, None, ()), "a coefficient is not a polynomial in w = u + iv"),
], ids=["w-5", "w-1", "w", "w-20", "z^2", "u"])
def test_certificate_controls(coeffs, counts, reason):
    cert = certify(coeffs, default_base_space(1))
    assert (cert.discriminant_degree, cert.zeros_in_outer_disc,
            cert.zeros_per_hole) == counts
    assert cert.reason == reason
    assert cert.valid == (reason is None)
    assert cert.to_json()["valid"] == cert.valid


def test_w_form_round_trip():
    form = w_poly(qi(Fraction(1, 3), -2), qi(0), qi(Fraction(-5, 7), Fraction(1, 2)))
    assert w_form(form.to_bivariate()) == form
    assert w_form(BivariatePolyQi.zero()) == QiPoly()
    # u^2 + v^2 = |w|^2 is real but not holomorphic
    assert w_form(BivariatePolyQi({(2, 0): qi(1), (0, 2): qi(1)})) is None
    # w^2 = (u^2 - v^2) + 2i uv, and w^3 = u^3 - 3 u v^2 + i (3 u^2 v - v^3)
    assert QiPoly.monomial(2).to_bivariate() == BivariatePolyQi(
        {(2, 0): qi(1), (0, 2): qi(-1), (1, 1): qi(0, 2)})
    assert QiPoly.monomial(3).to_bivariate() == BivariatePolyQi(
        {(3, 0): qi(1), (1, 2): qi(-3), (2, 1): qi(0, 3), (0, 3): qi(0, -1)})


@pytest.mark.parametrize("n, roots", [
    (2, ((qi(-2), 1),)),
    (3, ((qi(-2), 1), (qi(2), 2))),
    (6, ((qi(-6), 1), (qi(Fraction(1, 2), 1), 3))),
    (7, ((qi(0, 3), 2),)),
])
def test_discriminant_of_radical_families(n, roots):
    # z^n + a with a = (3 - i/2) prod (w - x)^k has discriminant
    # (-1)^(n(n-1)/2) n^n a^(n-1)
    a = w_poly(qi(3, Fraction(-1, 2)))
    for x, k in roots:
        a = a * (QiPoly.monomial(1) - w_poly(x)) ** k
    forms = [a] + [QiPoly()] * (n - 1)
    sign = (-1) ** (n * (n - 1) // 2)
    assert discriminant(forms) == (a ** (n - 1)).scale(sign * n ** n)


def test_discriminant_is_the_product_of_squared_root_differences():
    # f = prod (z - rho_k(w)) with rho_k linear in w over Q(i): D is
    # prod_{j<k} (rho_j - rho_k)^2, here by QiPoly products alone
    rng = random.Random(21)

    def gaussian():
        return qi(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))),
                  Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))))

    for n in range(1, 7):
        for _ in range(3):
            rhos = [w_poly(gaussian(), gaussian()) for _ in range(n)]
            f = [QiPoly.monomial(0)]  # highest power of z first
            for rho in rhos:
                f = [a - rho * b for a, b in zip(f + [QiPoly()], [QiPoly()] + f)]
            want = QiPoly.monomial(0)
            for j in range(n):
                for k in range(j + 1, n):
                    want = want * (rhos[j] - rhos[k]) ** 2
            assert discriminant(f[:0:-1]) == want, rhos


def test_zero_counts_match_numpy_roots():
    # integer disc centers, and centers with denominators 2, 3 and 7, which
    # the Taylor shift on integers scales by
    for seed, den in ((11, 1), (12, 2), (13, 3), (14, 7)):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            degree = int(rng.integers(1, 10))
            poly = [qi(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                       Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
                    for _ in range(degree + 1)]
            if poly[-1].is_zero():
                poly[-1] = qi(1)
            disc = Disc((Fraction(int(rng.integers(-3 * den, 3 * den + 1)), den),
                         Fraction(int(rng.integers(-3 * den, 3 * den + 1)), den)),
                        Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 3))))
            center = complex(float(disc.center[0]), float(disc.center[1]))
            roots = np.roots([complex(c) for c in reversed(poly)])
            distance = np.abs(roots - center)
            # the seeds keep every root well away from the circle
            assert np.abs(distance - float(disc.radius)).min() > 1e-6
            want = int((distance < float(disc.radius)).sum())
            assert zeros_in_disc(w_poly(*poly), disc) == want


def test_zero_count_is_undecided_for_a_zero_on_the_circle():
    # (w - 3 - 4i)(w + 1): the first zero lies on the circle |w| = 5
    poly = w_poly(qi(-3, -4), qi(-2, -4), qi(1))
    assert zeros_in_disc(poly, Disc((0, 0), 5)) is None
    assert zeros_in_disc(poly, Disc((0, 0), 6)) == 2
    assert zeros_in_disc(poly, Disc((0, 0), 4)) == 1


def test_certificate_rejects_a_v4_candidate_with_branch_points_in_the_space():
    # the V4 synthesis at weight base 2 has two zeros of its discriminant
    # outside both holes, which a sampled grid can miss
    v4 = closure((Permutation((2, 1, 4, 3)), Permutation((3, 4, 1, 2))))
    elems = cayley_table(v4.generators)[1].elements()
    space = default_base_space(2)
    centers = [qi(h.center[0], h.center[1]) for h in space.holes]
    synth = synthesize_abelian(elems, v4.generators, centers,
                               weight_base=Fraction(2))
    cert = certify(synth.coeffs, space)
    assert (cert.zeros_in_outer_disc, cert.zeros_per_hole) == (6, (2, 2))
    assert not cert.valid
    # numpy agrees: two zeros of D lie on the space
    d = discriminant([w_form(c) for c in synth.coeffs])
    zeros = np.roots(float_coefficients(d)[::-1])
    on_space = [z for z in zeros if abs(z) <= 10
                and all(abs(z - complex(c)) >= 1 for c in centers)]
    assert len(on_space) == 2


def _grid_fibers(coeffs, space, density):
    f = WeierstrassPoly(len(coeffs), coeffs)
    grid = sample_grid(space, density)
    return grid, np.array([[complex(c) for c in fiber_exact(f, u, v, space)]
                           for u, v in grid])


def test_grid_sampling_agrees_with_the_certificate():
    # a numeric oracle: the fibers of a certified map separate at every point
    # of a grid, and a rejected map whose branch points (0, 10/7) and
    # (10/7, 0) are 15-grid points has a double root at the first of them,
    # solving the grid fiber by fiber
    space = default_base_space(1)
    good = square_root_family(w_poly(qi(0), qi(-1)))
    assert certify(good, space).valid
    for fiber in _grid_fibers(good, space, 15)[1]:
        roots_at(fiber)
    w = QiPoly.monomial(1)
    a, b = w_poly(qi(0, Fraction(10, 7))), w_poly(qi(Fraction(10, 7)))
    bad = square_root_family(-(w - a) * (w - b))
    assert not certify(bad, space).valid
    grid, fibers = _grid_fibers(bad, space, 15)
    with pytest.raises(MultipleRootError):
        for k, fiber in enumerate(fibers):
            roots_at(fiber)
    assert grid[k] == (0, Fraction(10, 7))
