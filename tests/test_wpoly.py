import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import bounding_box, eval_exact, fiber_exact, sample_grid
from splitcover.certify import certify, discriminant
from splitcover.monodromy import characteristic_hom
from splitcover.permgroup import Permutation
from splitcover.qipoly import QiPoly
from splitcover.roots import _block_gaps, _solve
from splitcover.wpoly import (
    _hole_loop,
    RootFindingError,
    BaseSpace,
    BivariatePolyQi,
    Disc,
    GaussianRational,
    GeometryError,
    LoopPath,
    MultipleRootError,
    WeierstrassPoly,
    default_base_space,
    extend_base_space,
    generator_loops,
    min_gap,
    roots_at,
    validate_loop,
    winding_number,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_gaussian_rational_arithmetic():
    # Q(i) arithmetic on constant QiPoly, and the float value of a
    # GaussianRational
    a, b = QiPoly.from_gaussian([qi(1, 2)]), QiPoly.from_gaussian([qi(3, -1)])
    assert a + b == QiPoly.from_gaussian([qi(4, 1)])
    assert a * b == QiPoly.from_gaussian([qi(5, 5)])
    quotient, rest = divmod(a, b)
    assert quotient * b == a and not rest
    assert quotient == QiPoly.from_gaussian([qi(Fraction(1, 10), Fraction(7, 10))])
    assert a ** 3 == a * a * a
    assert complex(qi(Fraction(1, 2), 1)) == 0.5 + 1j


def test_bivariate_poly_eval():
    # -(u + i v): the coefficient of z^0 in z^2 - w
    p = BivariatePolyQi({(1, 0): qi(-1), (0, 1): qi(0, -1)})
    assert eval_exact(p, Fraction(4), Fraction(0)) == qi(-4)
    assert eval_exact(p, Fraction(1), Fraction(1)) == qi(-1, -1)
    assert abs(p.eval_complex(1.0, 1.0) - (-1 - 1j)) < 1e-15


def test_bivariate_from_w_powers():
    # w^2 = (u^2 - v^2) + 2i uv
    p = QiPoly.monomial(2).to_bivariate()
    assert eval_exact(p, Fraction(2), Fraction(3)) == qi(-5, 12)


def test_bivariate_json_round_trip():
    p = BivariatePolyQi({(2, 1): qi(Fraction(3, 7), Fraction(-1, 2)), (0, 0): qi(5)})
    assert BivariatePolyQi.from_json(p.to_json()) == p


def test_base_space_validation():
    with pytest.raises(ValueError):
        BaseSpace(Disc((0, 0), 10), (Disc((0, 0), 1), Disc((1, 0), 1)), (0, -8))
    with pytest.raises(ValueError):
        BaseSpace(Disc((0, 0), 2), (Disc((0, 0), 3),), (0, 1))
    with pytest.raises(ValueError):
        BaseSpace(Disc((0, 0), 10), (Disc((0, 0), 1),), (0, 0))


def test_default_base_space_layout():
    x = default_base_space(2)
    assert [h.center[0] for h in x.holes] == [-2, 2]
    assert x.contains(0, -8)
    assert not x.contains(2, 0)
    assert not x.contains(11, 0)
    assert x.contains(Fraction(2), Fraction(1))  # hole boundary belongs to X


def test_extend_base_space_appends_right():
    x = default_base_space(1)
    x2 = extend_base_space(x, 1)
    assert [h.center[0] for h in x2.holes] == [0, 4]


def segment_inside(space, p, q) -> bool:
    """Whether the closed path p -> q -> p passes validate_loop."""
    try:
        validate_loop(space, LoopPath((p, q, p)))
    except GeometryError:
        return False
    return True


def test_segment_inside():
    x = default_base_space(1)
    assert segment_inside(x, (Fraction(-3), Fraction(0)), (Fraction(-3), Fraction(5)))
    assert not segment_inside(x, (Fraction(-3), Fraction(0)), (Fraction(3), Fraction(0)))
    # the integer kernel against the same predicate in Fractions, on segments
    # of a half-integer grid, half of them axis-parallel, so that many touch
    # a hole exactly, at an end or at the foot of the perpendicular
    space = BaseSpace(Disc((Fraction(1, 3), 0), 6), (
        Disc((Fraction(-2), Fraction(1, 2)), Fraction(3, 2)),
        Disc((Fraction(2), Fraction(-1)), 1)), (0, -5))
    rng = random.Random(3)

    def grid():
        return Fraction(rng.randint(-10, 10), 2)

    for k in range(3000):
        p, q = (grid(), grid()), (grid(), grid())
        if k % 2:
            q = (q[0], p[1]) if k % 4 == 1 else (p[0], q[1])
        assert segment_inside(space, p, q) == oracles.segment_inside(space, p, q), (p, q)


def test_loop_path_requires_closure():
    with pytest.raises(ValueError):
        LoopPath(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))


def test_winding_number_square():
    square = LoopPath((
        (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)),
        (Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1))))
    # vertices listed counterclockwise: winding +1 about the origin
    assert winding_number(square, (Fraction(0), Fraction(0))) == 1
    assert winding_number(square, (Fraction(5), Fraction(0))) == 0
    reversed_square = LoopPath(tuple(reversed(square.vertices)))
    assert winding_number(reversed_square, (Fraction(0), Fraction(0))) == -1


def float_winding(loop, point):
    """Oracle: accumulated turning angle divided by 2 pi."""
    total = 0.0
    px, py = float(point[0]), float(point[1])
    for (ax, ay), (bx, by) in zip(loop.vertices, loop.vertices[1:]):
        a = math.atan2(float(ay) - py, float(ax) - px)
        b = math.atan2(float(by) - py, float(bx) - px)
        d = b - a
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return round(total / (2 * math.pi))


def test_generator_loops_empty():
    assert generator_loops(default_base_space(0)) == ()


def test_generator_loops_are_validated_once_per_space(monkeypatch):
    from splitcover import wpoly
    calls = []
    real = wpoly.validate_loop
    monkeypatch.setattr(wpoly, "validate_loop",
                        lambda space, loop: calls.append(loop) or real(space, loop))
    x = default_base_space(2)
    loops = generator_loops(x)
    assert generator_loops(x) is loops and len(calls) == 2
    # an equal space is another object with its own loops
    assert generator_loops(default_base_space(2)) == loops and len(calls) == 4
    assert default_base_space(2) == x and hash(default_base_space(2)) == hash(x)


def test_space_and_loops_are_freed_together():
    # no reference cycle: reference counting alone frees both
    import gc
    import weakref
    x = default_base_space(1)
    refs = [weakref.ref(x), weakref.ref(generator_loops(x)[0])]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert refs[1]() is generator_loops(x)[0]
        del x
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generator_loops_winding_matrix(m):
    x = default_base_space(m)
    loops = generator_loops(x)
    assert len(loops) == m
    for i, loop in enumerate(loops):
        validate_loop(x, loop)
        assert loop.vertices[0] == x.basepoint
        assert len(loop.vertices) == 9  # out, around a hexagon, and back
        for j, hole in enumerate(x.holes):
            expected = 1 if i == j else 0
            assert winding_number(loop, hole.center) == expected
            assert float_winding(loop, hole.center) == expected


def test_generator_loops_take_more_sides_where_the_hexagon_leaves():
    # a unit hole near the outer circle, in the direction of the hexagon's
    # vertex at 30 degrees: that vertex leaves the outer disc, a polygon
    # with more sides stays inside, and its loop swaps the two roots of
    # z^2 - (w - c) about the hole's center c
    c = (Fraction(6951, 1000), Fraction(3972, 1000))
    x = BaseSpace(Disc((0, 0), 10), (Disc(c, 1),), (0, -8))
    with pytest.raises(GeometryError, match="leaves the outer disc"):
        _hole_loop(x, 0, 6)
    loop, = generator_loops(x)
    assert len(loop.vertices) - 3 > 6
    a0 = BivariatePolyQi({(1, 0): qi(-1), (0, 1): qi(0, -1), (0, 0): qi(*c)})
    rep = characteristic_hom(WeierstrassPoly(2, [a0, BivariatePolyQi.zero()]), x)
    assert rep.perms == (Permutation((2, 1)),)


def test_generator_loops_fail_where_no_polygon_fits():
    # a unit hole centered 1.5 inside the outer circle: even its 16-gon, of
    # radius 2, leaves the outer disc, and the 16-gon's error is raised
    x = BaseSpace(Disc((0, 0), 10), (Disc((0, Fraction(17, 2)), 1),), (0, -8))
    with pytest.raises(GeometryError) as exc:
        generator_loops(x)
    assert str(exc.value) == (
        "loop around hole 1: segment (Fraction(484379, 262144), "
        "Fraction(4857721, 524288))-(Fraction(741455, 524288), "
        "Fraction(5197903, 524288)) leaves the outer disc")


def test_generator_loops_requires_sorted_holes():
    x = BaseSpace(Disc((0, 0), 10),
                  (Disc((2, 0), 1), Disc((-2, 0), 1)), (0, -8))
    with pytest.raises(GeometryError):
        generator_loops(x)


def _constant_forms(low):
    """w-forms of constant coefficients a_0, ..., a_{n-1}."""
    return [QiPoly.from_gaussian([qi(Fraction(c.real), Fraction(c.imag))])
            for c in map(complex, low)]


def test_discriminant_quadratic_and_cubic():
    # z^2 - 1: discriminant 4; z^2: discriminant 0 everywhere
    assert discriminant(_constant_forms([-1, 0])) == QiPoly([(4, 0)])
    assert not discriminant(_constant_forms([0, 0]))
    # z^3 - 1: -4 p^3 - 27 q^2 with p = 0, q = -1
    assert discriminant(_constant_forms([-1, 0, 0])) == QiPoly([(-27, 0)])
    # degree 1 has no discriminant locus
    assert discriminant(_constant_forms([5 + 1j])) == QiPoly([(1, 0)])


def test_discriminant_matches_root_products():
    # the exact discriminant of a fiber with Gaussian integer roots is the
    # product of its squared root differences
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 6)
        roots = [complex(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(n)]
        coeffs = np.poly(np.array(roots))
        low = [complex(round(coeffs[n - j].real), round(coeffs[n - j].imag))
               for j in range(n)]
        expected = 1
        for i in range(n):
            for j in range(i + 1, n):
                expected *= (roots[i] - roots[j]) ** 2
        got = discriminant(_constant_forms(low))
        assert got == QiPoly([(int(expected.real), int(expected.imag))])


def test_roots_at_simple_cases():
    got = sorted(roots_at([-1, 0]), key=lambda z: z.real)
    assert abs(got[0] + 1) < 1e-10 and abs(got[1] - 1) < 1e-10
    got = sorted(roots_at([1, 0]), key=lambda z: z.imag)
    assert abs(got[0] + 1j) < 1e-10 and abs(got[1] - 1j) < 1e-10


def test_roots_at_factored_cubic():
    # (z - 1)(z + 1)(z - 2) = z^3 - 2 z^2 - z + 2
    got = sorted(roots_at([2, -1, -2]), key=lambda z: z.real)
    expected = [-1, 1, 2]
    assert all(abs(g - e) < 1e-9 for g, e in zip(got, expected))


def test_roots_at_residual_invariant():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 8)
        coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        try:
            roots = roots_at(coeffs)
        except MultipleRootError:
            continue
        p = np.concatenate(([1.0], np.array(coeffs[::-1])))
        scale = 1.0 + max(abs(c) for c in coeffs)
        assert np.abs(np.polyval(p, roots)).max() < 1e-10 * scale


def test_roots_at_rejects_multiple_roots():
    with pytest.raises((MultipleRootError, RootFindingError)):
        roots_at([0, 0])  # z^2: double root at 0
    with pytest.raises((MultipleRootError, RootFindingError)):
        roots_at([1, -2])  # (z - 1)^2


def _seeded_fibers():
    """400 seeded fibers of degree 1 to 12, every 7th scaled by 10^3, then
    the fibers of the roots_at tests above."""
    rng = np.random.default_rng(19)
    fibers = []
    for k in range(400):
        n = 1 + k % 12
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        fibers.append(c * 1e3 if k % 7 == 0 else c)
    r = random.Random(12)
    for _ in range(30):
        n = r.randint(2, 8)
        fibers.append([complex(r.uniform(-5, 5), r.uniform(-5, 5))
                       for _ in range(n)])
    return fibers + [[-1, 0], [1, 0], [2, -1, -2], [0, 0], [1, -2]]


def _roots_digest(fibers):
    digest = hashlib.sha256()
    for c in fibers:
        try:
            digest.update(roots_at(c).tobytes())
        except (MultipleRootError, RootFindingError) as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
    return digest.hexdigest()


# the seeded fibers on which a residual bound blind to the size of the
# roots, 1e-10 (1 + max|a_k|), raised RootFindingError: 43 of the fibers
# scaled by 10^3 with degree 4 to 12 and one with degree 3
SIZE_BLIND_FAILURES = frozenset((
    7, 21, 28, 35, 42, 56, 63, 70, 77, 91, 105, 112, 119, 126, 140, 147, 154,
    161, 175, 189, 196, 203, 210, 224, 231, 238, 245, 259, 266, 273, 280, 287,
    294, 308, 315, 322, 329, 343, 357, 364, 371, 378, 392, 399))


def test_roots_at_output_is_pinned():
    # the solver's roots and error messages, bit for bit; pinned with numpy
    # 2.4 on an x86-64 CPU with AVX-512, whose vectorised float kernels
    # another build or CPU may round differently. Seeding on Fujiwara's
    # bound in place of 1 + max|a_k| moved no root by more than 1.8e-15
    assert _roots_digest(_seeded_fibers()) == (
        "757cd7d7ba0a1a1c2fb14bdff97391e00a517f0d856b8dcec9729d57fd41b184")


def test_roots_at_output_is_pinned_where_the_size_blind_bound_passed():
    # the other 391 fibers, pinned apart since the residual bound took the
    # size of the roots into account, a change that left them bit for bit
    fibers = [c for k, c in enumerate(_seeded_fibers())
              if k not in SIZE_BLIND_FAILURES]
    assert len(fibers) == 391
    assert _roots_digest(fibers) == (
        "7f71128cd696a7ed62f7fa00c8ae3a522a4bb5f51d972314b03b32ce8b66a2a4")


def test_stacked_roots_at_rows_equal_single_fibers():
    # a stack of fibers of one degree solves each row bit for bit as alone,
    # and raises the first failing row's error, naming that row; [144j, 0]
    # is a fiber whose Aberth seeds collapse onto each other in one step
    by_degree = {}
    for c in _seeded_fibers() + [[144j, 0]]:
        by_degree.setdefault(len(c), []).append(c)
    for fibers in by_degree.values():
        stack, first = np.array(fibers, dtype=complex), 0
        while first < len(stack):
            try:
                solved, failed = roots_at(stack[first:]), None
            except (MultipleRootError, RootFindingError) as exc:
                solved, failed = roots_at(stack[first:first + exc.row]), exc
            for c, roots in zip(stack[first:], solved):
                assert roots.tobytes() == roots_at(c).tobytes()
            first += len(solved)
            if failed is not None:
                with pytest.raises(type(failed)) as alone:
                    roots_at(stack[first])
                assert str(alone.value) == str(failed)
                first += 1


def test_stacked_solve_reports_every_failing_row():
    # the one solve of the tracker's vertex fibers: every row that fails
    # alone fails in the stack with the same error, keyed by its row, and
    # every other row, before or after a failing one, gets its bits alone;
    # [0, 1e300] overflows on its seed circle
    by_degree = {}
    for c in _seeded_fibers() + [[144j, 0], [0, 1e300]]:
        by_degree.setdefault(len(c), []).append(c)
    checked = set()
    for n, fibers in by_degree.items():
        if n < 2:
            continue
        for stack in (fibers, fibers[::-1]):
            roots, failures, _ = _solve(np.array(stack, dtype=complex))
            failed = []
            for k, c in enumerate(stack):
                try:
                    alone = roots_at(c)
                except (MultipleRootError, RootFindingError) as exc:
                    assert type(failures[k]) is type(exc) and failures[k].row == k
                    assert str(failures[k]) == str(exc)
                    failed.append(k)
                    checked.add(type(exc))
                else:
                    assert roots[k].tobytes() == alone.tobytes()
            assert sorted(failures) == failed
    assert checked == {MultipleRootError, RootFindingError}


def test_roots_at_solves_a_fiber_whose_values_overflow_beyond_its_roots():
    # z^2 - 1 - 8^300: its roots, about +-2.9e135, are representable, and its
    # values overflow a float on a circle of radius 1 + max|a_k| = 8.5e270
    # but not on the seed circle of radius 2^451, about 5.8e135
    roots = np.sort_complex(roots_at([-1 - 8.0 ** 300, 0]))
    assert np.allclose(roots, [-(2.0 ** 450), 2.0 ** 450], rtol=1e-15, atol=0)
    with pytest.raises(RootFindingError, match="seed circle of radius 2.68e"):
        roots_at([0, 1e300])  # z^2 + 1e300 z, whose root -1e300 overflows z^2


def test_roots_at_solves_a_fiber_scaled_by_a_thousand():
    # the residual of large roots reaches the evaluation's roundoff floor,
    # eps sum |a_k| |z|^k, far above 1e-10 (1 + max|a_k|)
    rng = np.random.default_rng(6)
    c = (rng.normal(size=6) + 1j * rng.normal(size=6)) * 1e3
    roots = roots_at(c)
    reference = np.roots(np.concatenate(([1], c[::-1])))
    scale = np.abs(reference).max()
    assert all(np.abs(reference - z).min() < 1e-13 * scale for z in roots)
    assert len(set(np.abs(reference[:, None] - roots).argmin(axis=0))) == 6


def test_weierstrass_poly_eval_and_membership():
    x = default_base_space(1)
    a0 = BivariatePolyQi({(1, 0): qi(-1), (0, 1): qi(0, -1)})
    a1 = BivariatePolyQi.zero()
    f = WeierstrassPoly(2, [a0, a1])
    vals = fiber_exact(f, Fraction(4), Fraction(0), x)
    assert vals[0] == qi(-4) and vals[1] == qi(0)
    with pytest.raises(ValueError):
        fiber_exact(f, Fraction(0), Fraction(0), x)  # inside the hole


def test_weierstrass_poly_rejects_singular_family():
    # z^2 - u has a double root along the whole line u = 0 inside the space;
    # it is not a polynomial in w, so it is not certified
    x = default_base_space(1)
    a0 = BivariatePolyQi({(1, 0): qi(-1)})
    cert = certify([a0, BivariatePolyQi.zero()], x)
    assert not cert.valid
    assert cert.reason == "a coefficient is not a polynomial in w = u + iv"


def test_weierstrass_constant_coefficients():
    x = default_base_space(1)
    f = WeierstrassPoly(2, [BivariatePolyQi({(0, 0): qi(-1)}), BivariatePolyQi.zero()])
    vals = fiber_exact(f, *x.basepoint, x)
    assert vals[0] == qi(-1)


def test_sample_grid_respects_space():
    x = default_base_space(1)
    pts = sample_grid(x, 21)
    assert all(x.contains(u, v) for u, v in pts)
    assert not any(u * u + v * v < 1 for u, v in pts)
    assert len(pts) > 200


def _grid_by_contains(space, density):
    """The reference: every bounding-box grid point BaseSpace.contains keeps."""
    x0, x1, y0, y1 = bounding_box(space)
    pts = []
    for i in range(density):
        u = x0 + (x1 - x0) * Fraction(i, density - 1)
        for j in range(density):
            v = y0 + (y1 - y0) * Fraction(j, density - 1)
            if space.contains(u, v):
                pts.append((u, v))
    return pts


OFF_LATTICE_SPACE = BaseSpace(
    Disc((Fraction(1, 3), Fraction(-2, 7)), Fraction(19, 2)),
    (Disc((Fraction(-7, 3), Fraction(1, 5)), Fraction(5, 4)),
     Disc((Fraction(10, 3), Fraction(-3, 2)), Fraction(2, 3))),
    (Fraction(1, 3), Fraction(-15, 2)))


@pytest.mark.parametrize("space", [default_base_space(m) for m in range(4)]
                         + [OFF_LATTICE_SPACE],
                         ids=["m0", "m1", "m2", "m3", "off-lattice"])
def test_sample_grid_matches_contains(space):
    for density in (2, 15, 41):
        assert sample_grid(space, density) == _grid_by_contains(space, density)


def test_sample_grid_keeps_boundary_points():
    # on the 41-grid of radius-10 spaces, (6, 8) lies on the outer circle and
    # (-1, 0) on the unit hole's circle; both belong to the closed space
    pts = sample_grid(default_base_space(1), 41)
    assert (Fraction(6), Fraction(8)) in pts and (Fraction(-1), Fraction(0)) in pts


def test_eval_complex_points_is_bit_identical_to_eval_complex():
    coeffs = [BivariatePolyQi({(0, 0): qi(Fraction(1, 3), Fraction(-2, 7)),
                               (2, 1): qi(Fraction(5, 11)),
                               (1, 3): qi(Fraction(-3, 4), Fraction(1, 9)),
                               (4, 0): qi(0, Fraction(7, 5))}),
              BivariatePolyQi.zero(),
              QiPoly.from_gaussian([qi(2), qi(-1, 3), qi(0, 1), qi(1)]).to_bivariate()]
    f = WeierstrassPoly(3, coeffs)
    rng = random.Random(7)
    points = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(200)]
    points += [(0.0, -0.0), (-0.0, 2.5), (np.float64(1.25), np.float64(-3.5))]
    want = np.array([[c.eval_complex(u, v) for c in coeffs] for u, v in points])
    assert f.eval_complex_points(points).tobytes() == want.tobytes()
    assert f.eval_complex(*points[3]).tobytes() == want[3].tobytes()


def test_weierstrass_json_round_trip():
    a0 = BivariatePolyQi({(1, 0): qi(-1), (0, 1): qi(0, -1)})
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()])
    g = WeierstrassPoly.from_json(f.to_json())
    assert g == f


def test_base_space_json_round_trip():
    x = default_base_space(2)
    assert BaseSpace.from_json(x.to_json()) == x


def test_validation_names_the_first_bad_grid_point():
    # z^2 - (w - 10i/7)(w - 10/7) has double roots over (0, 10/7) and
    # (10/7, 0); both branch points lie in the space
    x = default_base_space(1)
    w = QiPoly.monomial(1)
    a, b = QiPoly.from_gaussian([qi(0, Fraction(10, 7))]), QiPoly.from_gaussian([qi(Fraction(10, 7))])
    a0 = (-(w - a) * (w - b)).to_bivariate()
    cert = certify([a0, BivariatePolyQi.zero()], x)
    assert (cert.discriminant_degree, cert.zeros_in_outer_disc,
            cert.zeros_per_hole) == (2, 2, (0,))
    assert cert.reason == "2 zero(s) of the discriminant lie in the space"


def test_min_gap_single_and_stacked():
    assert min_gap([]) == math.inf
    assert min_gap([1 + 1j]) == math.inf
    assert min_gap([0, 3, 1 + 1j]) == abs(1 + 1j)
    # the row kernel the tracker stacks its rows on
    rows = np.array([[0, 1, 5], [0, 2j, -1j]])
    assert list(_block_gaps(rows)) == [1.0, 1.0]
    assert list(_block_gaps(rows[:, :1])) == [math.inf, math.inf]
