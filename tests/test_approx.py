from fractions import Fraction

import numpy as np
import pytest

from splitcover.approx import (
    ApproximationCertificate,
    DegreeExhaustedError,
    SampledCoeffMap,
    check_homotopy,
    estimate_eps,
    fit_rational_polys,
    sample_coeff_function,
    sample_poly_map,
)
from splitcover.wpoly import (
    BivariatePolyQi,
    GaussianRational,
    WeierstrassPoly,
    default_base_space,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def constant_map(npts=5, coeffs=(-1 + 0j, 0j)):
    grid = tuple((Fraction(k), Fraction(-8)) for k in range(npts))
    values = tuple(tuple(coeffs) for _ in range(npts))
    return SampledCoeffMap(grid, values, "constant test map")


def test_sampled_map_validation():
    with pytest.raises(ValueError):
        SampledCoeffMap((), (), "empty")
    with pytest.raises(ValueError):
        # z^2: zero discriminant
        SampledCoeffMap(((Fraction(0), Fraction(0)),), ((0j, 0j),), "singular")


def test_sampled_map_values_are_a_read_only_array():
    m = constant_map(npts=4, coeffs=(-1 + 0j, 1j))
    assert m.values.shape == (4, 2) and m.values.dtype == complex
    assert m.degree == 2
    with pytest.raises(ValueError):
        m.values[0, 0] = 0j
    with pytest.raises(ValueError):
        SampledCoeffMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
                        ((-1 + 0j, 0j), (-1 + 0j,)), "ragged")


def test_sample_poly_map_is_exact_on_the_grid():
    x = default_base_space(1)
    a0 = BivariatePolyQi({(1, 0): qi(Fraction(-1, 3)), (0, 2): qi(0, Fraction(1, 7))})
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.constant(qi(0, 1))], base=x,
                        validate=False)
    m = sample_poly_map(f, x, density=15)
    exact = np.array([[complex(c.eval_exact(u, v)) for c in f.coeffs]
                      for u, v in m.grid])
    assert m.values.tobytes() == exact.tobytes()


def test_estimate_eps_formula_example():
    # roots 1 and -1: s = 2, R = 2, estimate s*(s/4R)^(n-1) = 0.5
    m = constant_map()
    assert abs(estimate_eps(m, conservatism=1.0) - 0.5) < 1e-12
    assert abs(estimate_eps(m, conservatism=0.5) - 0.25) < 1e-12


def test_estimate_eps_scaling_monotone():
    # scaling roots by 2: roots 2, -2 -> coefficients (-4, 0): s = 4, R = 3
    m = constant_map(coeffs=(-4 + 0j, 0j))
    expected = 4.0 * (4.0 / 12.0)
    assert abs(estimate_eps(m, conservatism=1.0) - expected) < 1e-12
    assert estimate_eps(m, conservatism=1.0) > 0


def test_estimate_eps_degree_one():
    grid = ((Fraction(0), Fraction(0)),)
    m = SampledCoeffMap(grid, ((3 + 1j,),), "linear")
    assert abs(estimate_eps(m, conservatism=1.0) - 1.0) < 1e-15


def test_fit_exact_constant_recovery():
    m = constant_map()
    eps = estimate_eps(m)
    fitted, cert = fit_rational_polys(m, max_degree=2, eps_hat=eps)
    assert fitted[0] == BivariatePolyQi.constant(qi(-1))
    assert fitted[1].is_zero()
    assert cert.is_valid
    assert all(e == 0.0 for e in cert.per_component_error)
    assert cert.total_error == 0.0


def test_fit_linear_recovery_on_space_grid():
    # a0(u, v) = -(u + i v)/10 sampled over the one-hole space
    x = default_base_space(1)
    a0 = BivariatePolyQi({(1, 0): qi(Fraction(-1, 10)),
                          (0, 1): qi(0, Fraction(-1, 10))})
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()], base=x, validate=False)
    m = sample_poly_map(f, x, density=15)
    eps = 1e-3
    fitted, cert = fit_rational_polys(m, max_degree=3, eps_hat=eps)
    assert fitted[0] == a0
    assert cert.is_valid


def test_fit_degree_exhausted():
    # |u| is not a polynomial; a tiny bound cannot be met at low degree
    x = default_base_space(0)
    m = sample_coeff_function(
        x, lambda u, v: [complex(-1 - abs(float(u)) / 5.0)], density=15)
    with pytest.raises(DegreeExhaustedError):
        fit_rational_polys(m, max_degree=2, eps_hat=1e-6)


def test_certificate_validity_logic():
    cert = ApproximationCertificate(2, 1.0, (0.01, 0.02, 0.0, 0.0), 0.06, True)
    assert cert.component_bound == 0.125
    assert cert.is_valid
    bad = ApproximationCertificate(2, 1.0, (0.2, 0.0, 0.0, 0.0), 0.2, True)
    assert not bad.is_valid
    unchecked = ApproximationCertificate(2, 1.0, (0.0,) * 4, 0.0, False)
    assert not unchecked.is_valid


def test_component_bounds_imply_total_bound():
    # the triangle inequality chain used by the certificate, checked numerically
    m = constant_map()
    eps = estimate_eps(m)
    fitted, cert = fit_rational_polys(m, max_degree=1, eps_hat=eps)
    n = cert.degree
    assert sum(2 * e for e in cert.per_component_error[::2]) <= eps / 2 + 1e-15
    assert cert.total_error < eps / 2


def test_check_homotopy_exact_fit():
    m = constant_map()
    fitted = [BivariatePolyQi.constant(qi(-1)), BivariatePolyQi.zero()]
    assert check_homotopy(m, fitted, eps_hat=0.5)


def test_check_homotopy_rejects_large_error():
    m = constant_map()
    fitted = [BivariatePolyQi.constant(qi(-2)), BivariatePolyQi.zero()]
    assert not check_homotopy(m, fitted, eps_hat=0.5)


def test_check_homotopy_segment_example():
    # a0' = -1 versus a0 = -1 + eps/4: segment discriminant -4 a0 never zero
    eps = 0.4
    m = constant_map()
    fitted = [BivariatePolyQi.constant(qi(-1) + qi(Fraction(1, 10))),
              BivariatePolyQi.zero()]
    assert check_homotopy(m, fitted, eps_hat=eps)


def test_check_homotopy_catches_discriminant_crossing():
    # a0' = -1 versus a0 = +1: the straight line passes through a0 = 0
    m = constant_map()
    fitted = [BivariatePolyQi.constant(qi(1)), BivariatePolyQi.zero()]
    assert not check_homotopy(m, fitted, eps_hat=100.0)


def test_fit_determinism():
    x = default_base_space(1)
    a0 = BivariatePolyQi({(1, 0): qi(-1), (0, 1): qi(0, -1)})
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()], base=x, validate=False)
    m = sample_poly_map(f, x, density=11)
    eps = estimate_eps(m)
    one = fit_rational_polys(m, 3, eps)
    two = fit_rational_polys(m, 3, eps)
    assert one[0] == two[0]
    assert one[1].per_component_error == two[1].per_component_error
