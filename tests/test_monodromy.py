import cmath
import json
import math
import random
from fractions import Fraction

import numpy
import pytest

from splitcover import monodromy
from splitcover.cli import main
from splitcover.freecover import cayley_table, is_normal
from splitcover.monodromy import (
    MonodromyRep,
    StepUnderflowError,
    _certify,
    _permutations,
    _start,
    _track_loops,
    _track_rows,
    characteristic_hom,
    deck_action_on_roots,
    irreducibility_check,
    splitting_cover,
    track_loop,
)
from splitcover.permgroup import Permutation, closure, compose
from splitcover.qipoly import QiPoly
from splitcover.wpoly import (
    BivariatePolyQi,
    GaussianRational,
    LoopPath,
    WeierstrassPoly,
    default_base_space,
    generator_loops,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def power_model(k):
    """f = z^k - w on the one-hole space: the k-th-root covering."""
    x = default_base_space(1)
    coeffs = [BivariatePolyQi({(1, 0): qi(-1), (0, 1): qi(0, -1)})]
    coeffs += [BivariatePolyQi.zero()] * (k - 1)
    return WeierstrassPoly(k, coeffs), x


def constant_model(n):
    """Constant coefficients: roots are the n-th roots of unity everywhere."""
    x = default_base_space(1)
    coeffs = [BivariatePolyQi({(0, 0): qi(-1)})] + \
        [BivariatePolyQi.zero()] * (n - 1)
    return WeierstrassPoly(n, coeffs), x


def basepoint_fiber(f, x, root_labels=None):
    """The basepoint's fiber, ordered as characteristic_hom orders it."""
    return _track_loops(f, x.basepoint, [], root_labels)[0]


def square_loop(center, half):
    cx, cy = center
    h = Fraction(half)
    return LoopPath((
        (cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h),
        (cx - h, cy + h), (cx - h, cy - h)))


def test_constant_coefficients_yield_identity():
    f, x = constant_model(3)
    loop = generator_loops(x)[0]
    assert track_loop(f, loop).is_identity()


def test_square_root_continuation_oracle():
    # around a winding-1 loop the two square roots swap sign
    f, x = power_model(2)
    loop = generator_loops(x)[0]
    assert track_loop(f, loop) == perm((1, 2), n=2)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_kth_root_continuation_is_k_cycle(k):
    f, x = power_model(k)
    loop = generator_loops(x)[0]
    p = track_loop(f, loop)
    assert len(p.cycles()) == 1 and len(p.cycles()[0]) == k


def test_contractible_loop_identity():
    f, x = power_model(3)
    loop = square_loop(x.basepoint, Fraction(1, 2))
    assert track_loop(f, loop).is_identity()


def test_homomorphism_property_on_concatenation():
    f, x = power_model(4)
    loop = generator_loops(x)[0]
    doubled = LoopPath(loop.vertices + loop.vertices[1:])
    fiber = basepoint_fiber(f, x)
    once = track_loop(f, loop, fiber)
    twice = track_loop(f, doubled, fiber)
    assert twice == compose(once, once)


def test_homomorphism_property_on_generator_pairs():
    # two-hole family z^4 - 4w z^2 + 16: Klein four monodromy
    x = default_base_space(2)
    a2 = BivariatePolyQi({(1, 0): qi(-4), (0, 1): qi(0, -4)})
    f = WeierstrassPoly(4, [BivariatePolyQi({(0, 0): qi(16)}),
                            BivariatePolyQi.zero(), a2,
                            BivariatePolyQi.zero()])
    loops = generator_loops(x)
    fiber = basepoint_fiber(f, x)
    singles = [track_loop(f, lp, fiber) for lp in loops]
    for i, j in ((0, 1), (1, 0)):
        joined = LoopPath(loops[i].vertices + loops[j].vertices[1:])
        got = track_loop(f, joined, fiber)
        assert got == compose(singles[i], singles[j])


def test_characteristic_hom_identity_for_linear():
    x = default_base_space(1)
    f = WeierstrassPoly(1, [BivariatePolyQi({(0, 0): qi(7)})])
    rep = characteristic_hom(f, x)
    assert rep.degree == 1 and rep.perms[0].is_identity()


def test_characteristic_hom_z2_model():
    f, x = power_model(2)
    rep = characteristic_hom(f, x)
    assert rep.rank == 1 and rep.perms == (perm((1, 2), n=2),)
    assert irreducibility_check(rep)


def test_characteristic_hom_nonvanishing_constant():
    # z^2 - c with c never vanishing on the disc: trivial monodromy
    x = default_base_space(1)
    a0 = BivariatePolyQi({(0, 0): qi(100), (1, 0): qi(-1)})
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()])
    rep = characteristic_hom(f, x)
    assert rep.perms[0].is_identity()
    assert not irreducibility_check(rep)


def test_characteristic_hom_respects_given_labels():
    f, x = power_model(3)
    rep = characteristic_hom(f, x)
    rotated = rep.root_labels[1:] + rep.root_labels[:1]
    rep2 = characteristic_hom(f, x, root_labels=rotated)
    assert rep2.root_labels == rotated
    relabel = {old + 1: new + 1
               for new, old in enumerate([1, 2, 0])}
    # same abstract monodromy: conjugate by the relabeling
    from splitcover.permgroup import conjugate
    pi = Permutation(tuple(relabel[k] for k in range(1, 4)))
    assert rep2.perms[0] == conjugate(rep.perms[0], pi)


def test_splitting_cover_sizes():
    rep = MonodromyRep(1, 2, (perm((1, 2), n=2),), (1 + 0j, -1 + 0j))
    table, deck, _ = splitting_cover(rep)
    assert table.size == 2 and deck.group.order() == 2
    rep2 = MonodromyRep(
        2, 3, (perm((1, 2), n=3), perm((1, 2, 3), n=3)), (0j, 1 + 0j, 2 + 0j))
    table2, deck2, _ = splitting_cover(rep2)
    assert table2.size == 6 and deck2.group.order() == 6
    assert is_normal(table2)
    assert deck2.is_galois()


def test_splitting_cover_identity_rep():
    rep = MonodromyRep(1, 2, (perm(n=2),), (1 + 0j, -1 + 0j))
    table, deck, _ = splitting_cover(rep)
    assert table.size == 1 and deck.group.order() == 1


def test_irreducibility_examples():
    assert not irreducibility_check(
        MonodromyRep(1, 2, (perm(n=2),), (0j, 1 + 0j)))
    assert irreducibility_check(
        MonodromyRep(1, 3, (perm((1, 2, 3), n=3),), (0j, 1j, 2j)))
    assert not irreducibility_check(
        MonodromyRep(1, 3, (perm((1, 2), n=3),), (0j, 1j, 2j)))


def test_irreducibility_matches_union_find():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(1, 3)
        perms = []
        for _ in range(m):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        labels = tuple(complex(k, 0) for k in range(n))
        rep = MonodromyRep(m, n, tuple(perms), labels)
        parent = list(range(n + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for p in perms:
            for i in range(1, n + 1):
                ra, rb = find(i), find(p(i))
                if ra != rb:
                    parent[ra] = rb
        components = {find(i) for i in range(1, n + 1)}
        assert irreducibility_check(rep) == (len(components) == 1)


def test_deck_action_on_roots_faithful():
    rep = MonodromyRep(1, 2, (perm((1, 2), n=2),), (1 + 0j, -1 + 0j))
    hom, faithful = deck_action_on_roots(*splitting_cover(rep)[1:])
    assert faithful
    images = {hom(lam) for lam in hom.source.elements()}
    assert images == {perm(n=2), perm((1, 2), n=2)}


def test_splitting_cover_and_deck_action_close_the_group_once(monkeypatch):
    from splitcover import permgroup

    calls = []
    real = permgroup._bfs_closure
    monkeypatch.setattr(permgroup, "_bfs_closure",
                        lambda *args: calls.append(1) or real(*args))
    a, b = perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4)
    rep = MonodromyRep(2, 4, (a, b), (0j, 1 + 0j, 2 + 0j, 3 + 0j))
    _, deck, group = splitting_cover(rep)
    deck_action_on_roots(deck, group)
    assert len(calls) == 1


def test_deck_action_regular_klein_faithful():
    a = perm((1, 2), (3, 4), n=4)
    b = perm((1, 3), (2, 4), n=4)
    rep = MonodromyRep(2, 4, (a, b), (0j, 1 + 0j, 2 + 0j, 3 + 0j))
    hom, faithful = deck_action_on_roots(*splitting_cover(rep)[1:])
    assert faithful
    assert hom.is_bijective()
    assert {q for q in hom.mapping.values()} == set(closure((a, b)).elements())


def radical_family(n, c, exponents):
    """z^n - c * prod (w - x_i)^k_i over the default space with one hole per
    exponent, x_i the hole centres."""
    x = default_base_space(len(exponents))
    a0 = QiPoly.from_gaussian([c])
    for hole, k in zip(x.holes, exponents):
        a0 = a0 * (QiPoly.monomial(1) - QiPoly.from_gaussian([qi(hole.center[0])])) ** k
    a0 = (-a0).to_bivariate()
    return WeierstrassPoly(n, [a0] + [BivariatePolyQi.zero()] * (n - 1)), x


def rotation(labels, k, n):
    """The loop around a hole of exponent k turns every root by 2 pi k / n:
    label z goes to the label at z exp(2 pi i k / n)."""
    turn = cmath.exp(2j * math.pi * k / n)
    return Permutation(tuple(
        min(range(n), key=lambda j: abs(z * turn - labels[j])) + 1 for z in labels))


def assert_rows_match_alone(f, loops, fiber):
    """Tracks the distinct segments of the loops in one stack and each alone,
    each from the fiber at its start vertex: the end roots and enclosures
    agree bit for bit, and so do the steps taken. The loops' permutations,
    tracked together and each alone, agree too."""
    segments, share = [], []
    for loop in loops:
        pts = [complex(float(x), float(y)) for x, y in loop.vertices]
        length = sum(abs(q - p) for p, q in zip(pts, pts[1:]))
        for (a, b), p, q in zip(zip(loop.vertices, loop.vertices[1:]), pts, pts[1:]):
            if (a, b) not in segments and (b, a) not in segments:
                segments.append((a, b))
                share.append(abs(q - p) / length)
    coeffs, err = f.segment_polys(segments)
    fibers = numpy.array([fiber if a == loops[0].vertices[0] else monodromy.roots_at(c)
                          for (a, _), c in zip(segments, coeffs[:, 0])])
    share = numpy.array(share)
    with numpy.errstate(all="ignore"):
        ebar, moving, cert = _start(coeffs, err, fibers)
        stacked = _track_rows(coeffs, ebar, share, cert, moving)
        for q in range(len(segments)):
            alone = _track_rows(coeffs[q:q + 1], ebar[q:q + 1], share[q:q + 1],
                                cert.take([q]), moving)
            assert stacked.roots[q].tobytes() == alone.roots[0].tobytes()
            assert stacked.rho[q].tobytes() == alone.rho[0].tobytes()
            assert stacked.accepted[q] == alone.accepted[0]
            assert stacked.rejected[q] == alone.rejected[0]
    assert numpy.isnan(stacked.failed_at).all()
    base = loops[0].vertices[0]
    _, results, summary = _track_loops(f, base, loops, fiber)
    for loop, perm in zip(loops, results):
        assert perm == _track_loops(f, base, [loop], fiber)[1][0]
    assert summary["certified"] and summary["segments"] == len(segments)
    return _permutations(results)


@pytest.mark.parametrize("n, exponents", [
    (2, (1,)), (3, (1, 2)), (6, (2, 1, 1)), (7, (1, 1, 2)), (11, (2, 1)),
    (12, (1, 2, 1))])
def test_stacked_rows_equal_rows_tracked_alone(n, exponents):
    f, x = radical_family(n, qi(Fraction(3, 5), Fraction(4, 5)), exponents)
    loops = generator_loops(x)
    fiber = basepoint_fiber(f, x)
    perms = assert_rows_match_alone(f, loops, fiber)
    expected = [rotation(fiber, k, n) for k in exponents]
    assert perms == expected
    rep = characteristic_hom(f, x)
    assert rep.perms == tuple(expected)
    # certified steps grow, and every segment is a row of its own: well
    # under the 401 stack steps of three fixed refinement passes, and the
    # 29-83 of one row per loop
    assert rep.tracking["stack_steps"] <= 12
    # a loop around a ring of k sides has k + 2 segments, and its last
    # retraces its first: k + 1 rows per loop. Each ring has k vertices, no
    # two rings share one, and the basepoint's fiber is solved with them
    m = len(exponents)
    sides = sum(len(loop.vertices) - 3 for loop in loops)
    assert (rep.tracking["segments"], rep.tracking["vertex_fibers"]) == \
        (sides + m, sides + 1)


def test_stacked_rows_equal_rows_tracked_alone_on_realized_s3():
    from splitcover.pipeline import realize_group
    gens = (perm((1, 2), n=3), perm((1, 2, 3), n=3))
    poly, report = realize_group(closure(gens))
    space = default_base_space(2)
    rep = MonodromyRep.from_json(report.artifacts["monodromy"])
    fiber = basepoint_fiber(poly, space, rep.root_labels)
    perms = assert_rows_match_alone(poly, generator_loops(space), fiber)
    assert perms == list(cayley_table(gens)[0].action)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_retraced_and_repeated_segments_give_closed_form_permutations(k):
    # z^k - w turns every root by 2 pi / k once around the hole; each segment
    # is tracked once, and a backwards traversal uses the inverse matching
    f, x = power_model(k)
    fiber = basepoint_fiber(f, x)
    loop = generator_loops(x)[0]
    b, q = x.basepoint, (Fraction(5), Fraction(5))
    # the loop's distinct segments: all but its retraced return leg
    rows = len(loop.vertices) - 2
    cases = {
        LoopPath(loop.vertices + loop.vertices[1:]): (2, rows),
        LoopPath(loop.vertices[::-1]): (-1, rows),
        LoopPath(loop.vertices + loop.vertices[-2::-1]): (0, rows),
        LoopPath((b, q, b)): (0, 1),
        LoopPath((b, q, b) + loop.vertices[1:]): (1, rows + 1),
    }
    for path, (turns, segments) in cases.items():
        _, results, summary = _track_loops(f, b, [path], fiber)
        assert _permutations(results) == [rotation(fiber, turns, k)]
        assert summary["segments"] == segments


def test_stacked_track_raises_the_first_failing_row():
    # both loops cross the branch point w = 0 of z^2 - w, where the two
    # roots meet: the early one at 40% of its length, the late one at 65%
    f, x = power_model(2)
    fiber = basepoint_fiber(f, x)
    b = x.basepoint
    early = LoopPath((b, (0, 2), b))
    late = LoopPath((b, (8, -8), (8, 8), (-8, -8), b))
    alone = {}
    for loop in (early, late):
        with pytest.raises(StepUnderflowError) as exc:
            track_loop(f, loop, fiber)
        alone[loop] = exc.value
    assert "t=0.4" in str(alone[early]) and "t=0.6" in str(alone[late])
    # the early loop fails nearer its start but is second in loop order
    _, results, _ = _track_loops(f, b, [late, early], fiber)
    assert [(type(r), str(r)) for r in results] == \
        [(type(alone[k]), str(alone[k])) for k in (late, early)]
    with pytest.raises(RuntimeError) as exc:
        _permutations(results)
    assert exc.value is results[0]
    for order in ((late, early), (early, late)):
        with pytest.raises(RuntimeError) as exc:
            _permutations(_track_loops(f, b, list(order), fiber)[1])
        first = alone[order[0]]
        assert type(exc.value) is type(first) and str(exc.value) == str(first)


def test_step_underflow_when_refinement_is_exhausted(monkeypatch):
    # with no room to shrink the step, the first rejected step must surface
    # as an explicit failure instead of a silently wrong permutation
    f, x = power_model(2)
    loop = generator_loops(x)[0]
    monkeypatch.setattr(monodromy, "_INITIAL_STEP", 0.5)
    monkeypatch.setattr(monodromy, "_MIN_STEP", 0.4)
    with pytest.raises(StepUnderflowError):
        track_loop(f, loop)


def _segment_certificate(f, a, b):
    """The certificate at the start a of the segment a-b, and the
    coefficient table of the segment."""
    coeffs, err = f.segment_polys([(a, b)])
    ebar = 2 * err + 1e-15 * abs(coeffs).sum(axis=1)
    start = monodromy.roots_at(coeffs[0, 0])
    return _certify(coeffs, ebar, start[None], f.degree - 1), coeffs


def test_a_step_across_the_branch_point_is_rejected(monkeypatch):
    # z^2 - w along (0, -8) -> (0, 8), through the branch point w = 0 at
    # s = 0.5. Steps never leave a segment, so no step can sweep a whole
    # loop; a step over the branch point must fail the Rouche test, however
    # long, while a short one at the start passes
    f, x = power_model(2)
    cert, _ = _segment_certificate(f, x.basepoint, (0, 8))
    assert (cert.lower > 0).all()
    for h in (0.5, 0.75, 1.0):
        assert cert.ratio(numpy.array([h]))[0] >= 1, h
    assert cert.ratio(numpy.array([0.01]))[0] < 1
    # the tracker, started on this segment with a first step of the whole
    # loop, underflows before the branch point
    loop = LoopPath((x.basepoint, (0, 8), x.basepoint))
    with monkeypatch.context() as patch:
        patch.setattr(monodromy, "_INITIAL_STEP", 1)
        with pytest.raises(StepUnderflowError, match="t=0.25"):
            track_loop(f, loop)
    # a double root all along the axis v = 0, which both generator loops of
    # the two-hole space cross: near it the coefficients' error bound keeps
    # every certified step short of moving, and the step must still fall
    # below min_step instead of shrinking forever
    a0 = BivariatePolyQi({(1, 1): qi(Fraction(-3, 2), Fraction(3, 4))})
    a1 = BivariatePolyQi({(0, 1): qi(Fraction(-1, 4), -1),
                          (1, 1): qi(Fraction(-2, 3), 5)})
    with pytest.raises(StepUnderflowError, match="t=0.378292"):
        characteristic_hom(WeierstrassPoly(2, [a0, a1]), default_base_space(2))


def test_enclosures_contain_the_roots_of_seeded_fibers():
    # the discs |z - r_j| <= rho_j around the solver's roots each hold one
    # root of np.roots
    from test_wpoly import _seeded_fibers
    from splitcover.roots import MultipleRootError, RootFindingError
    checked = 0
    for c in _seeded_fibers():
        c = numpy.asarray(c, dtype=complex)
        n = len(c)
        if n < 2:
            continue
        try:
            r = monodromy.roots_at(c)
        except (MultipleRootError, RootFindingError):
            continue
        cert = _certify(c[None, None], numpy.zeros((1, n)), r[None], -1)
        reference = numpy.roots(numpy.concatenate(([1], c[::-1])))
        inside = abs(reference[:, None] - r[None, :]) <= cert.rho[0][None, :]
        assert (inside.sum(axis=1) == 1).all() and (inside.sum(axis=0) == 1).all()
        checked += 1
    assert checked > 390


def test_monodromy_rep_json_round_trip():
    rep = MonodromyRep(2, 3, (perm((1, 2), n=3), perm((1, 2, 3), n=3)),
                       (0j, 1 + 0j, 2 + 1j))
    back = MonodromyRep.from_json(rep.to_json())
    assert back.perms == rep.perms
    assert all(abs(a - b) < 1e-15 for a, b in zip(back.root_labels, rep.root_labels))
