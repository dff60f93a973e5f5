from fractions import Fraction

import numpy as np
import pytest

from oracles import fiber_exact, sample_grid
from splitcover.certify import certify, discriminant, w_form, zeros_in_disc
from splitcover.freecover import cayley_table
from splitcover.permgroup import Permutation, closure
from splitcover.synthesis import synthesize_abelian, wp_pow, wp_scale
from splitcover.wpoly import (
    BivariatePolyQi,
    Disc,
    GaussianRational,
    MultipleRootError,
    WeierstrassPoly,
    default_base_space,
    roots_at,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def square_root_family(a0):
    """z^2 + a0 with a0 given by its w-form."""
    return [BivariatePolyQi.from_w_powers(a0), BivariatePolyQi.zero()]


@pytest.mark.parametrize("coeffs, counts, reason", [
    # z^2 - (w - 5): the branch point w = 5 lies in the space
    (square_root_family([qi(5), qi(-1)]), (1, 1, (0,)),
     "1 zero(s) of the discriminant lie in the space"),
    # z^2 - (w - 1): the branch point lies on the hole's boundary circle
    (square_root_family([qi(1), qi(-1)]), (1, 1, (None,)),
     "a zero of the discriminant may lie on a boundary circle"),
    (square_root_family([qi(0), qi(-1)]), (1, 1, (1,)), None),
    # z^2 - (w - 20): the branch point lies outside the outer disc
    (square_root_family([qi(20), qi(-1)]), (1, 0, (0,)), None),
    (square_root_family([]), (None, None, ()),
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
    form = [qi(Fraction(1, 3), -2), qi(0), qi(Fraction(-5, 7), Fraction(1, 2))]
    assert w_form(BivariatePolyQi.from_w_powers(form)) == form
    assert w_form(BivariatePolyQi.zero()) == []
    # u^2 + v^2 = |w|^2 is real but not holomorphic
    assert w_form(BivariatePolyQi({(2, 0): qi(1), (0, 2): qi(1)})) is None


@pytest.mark.parametrize("n, roots", [
    (2, ((qi(-2), 1),)),
    (3, ((qi(-2), 1), (qi(2), 2))),
    (6, ((qi(-6), 1), (qi(Fraction(1, 2), 1), 3))),
    (7, ((qi(0, 3), 2),)),
])
def test_discriminant_of_radical_families(n, roots):
    # z^n + a with a = (3 - i/2) prod (w - x)^k has discriminant
    # (-1)^(n(n-1)/2) n^n a^(n-1)
    a = [qi(3, Fraction(-1, 2))]
    for x, k in roots:
        for _ in range(k):
            a = [qi(0)] + a
            a = [p - x * q for p, q in zip(a, a[1:] + [qi(0)])]
    forms = [a] + [[]] * (n - 1)
    sign = (-1) ** (n * (n - 1) // 2)
    assert discriminant(forms) == wp_scale(wp_pow(a, n - 1), Fraction(sign * n ** n))


def test_zero_counts_match_numpy_roots():
    rng = np.random.default_rng(11)
    for _ in range(200):
        degree = int(rng.integers(1, 10))
        poly = [qi(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),
                   Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
                for _ in range(degree + 1)]
        if poly[-1].is_zero():
            poly[-1] = qi(1)
        disc = Disc((int(rng.integers(-3, 4)), int(rng.integers(-3, 4))),
                    Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 3))))
        center = complex(float(disc.center[0]), float(disc.center[1]))
        roots = np.roots([complex(c) for c in reversed(poly)])
        distance = np.abs(roots - center)
        # the seeds keep every root well away from the circle
        assert np.abs(distance - float(disc.radius)).min() > 1e-6
        want = int((distance < float(disc.radius)).sum())
        assert zeros_in_disc(poly, disc) == want


def test_zero_count_is_undecided_for_a_zero_on_the_circle():
    # (w - 3 - 4i)(w + 1): the first zero lies on the circle |w| = 5
    poly = [qi(-3, -4), qi(-2, -4), qi(1)]
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
    zeros = np.roots([complex(c) for c in reversed(d)])
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
    good = square_root_family([qi(0), qi(-1)])
    assert certify(good, space).valid
    for fiber in _grid_fibers(good, space, 15)[1]:
        roots_at(fiber)
    a, b = qi(0, Fraction(10, 7)), qi(Fraction(10, 7))
    bad = square_root_family([-(a * b), a + b, qi(-1)])
    assert not certify(bad, space).valid
    grid, fibers = _grid_fibers(bad, space, 15)
    with pytest.raises(MultipleRootError):
        for k, fiber in enumerate(fibers):
            roots_at(fiber)
    assert grid[k] == (0, Fraction(10, 7))
