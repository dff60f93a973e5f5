import cmath
import json
import math
import random
from fractions import Fraction

import pytest

from splitcover import monodromy
from splitcover.cli import main
from splitcover.freecover import cayley_table, is_normal
from splitcover.monodromy import (
    DEFAULT_TRACKING,
    InstabilityError,
    MonodromyRep,
    TrackingConfig,
    _permutations,
    _refined,
    _track_rows,
    basepoint_fiber,
    characteristic_hom,
    deck_action_on_roots,
    irreducibility_check,
    refine_and_compare,
    splitting_cover,
    track_loop,
)
from splitcover.permgroup import Permutation, closure, compose
from splitcover.wpoly import (
    QI_ZERO,
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
    return WeierstrassPoly(k, coeffs, base=x), x


def constant_model(n):
    """Constant coefficients: roots are the n-th roots of unity everywhere."""
    x = default_base_space(1)
    coeffs = [BivariatePolyQi.constant(qi(-1))] + \
        [BivariatePolyQi.zero()] * (n - 1)
    return WeierstrassPoly(n, coeffs, base=x), x


def square_loop(center, half):
    cx, cy = center
    h = Fraction(half)
    return LoopPath((
        (cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h),
        (cx - h, cy + h), (cx - h, cy - h)))


def test_tracking_config_validation():
    with pytest.raises(ValueError):
        TrackingConfig(initial_step=-1)
    with pytest.raises(ValueError):
        TrackingConfig(min_step=1.0)
    with pytest.raises(ValueError):
        TrackingConfig(safety_factor=1.5)
    with pytest.raises(ValueError):
        TrackingConfig(max_newton_iters=30.0)
    # bools, strings and non-finite values are never coerced
    for bad in ({"max_newton_iters": True}, {"safety_factor": "0.4"},
                {"min_step": float("nan")}, {"initial_step": float("inf")}):
        with pytest.raises(ValueError):
            TrackingConfig(**bad)


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
    p = refine_and_compare(f, loop)
    assert len(p.cycles()) == 1 and len(p.cycles()[0]) == k


def test_contractible_loop_identity():
    f, x = power_model(3)
    loop = square_loop(x.basepoint, Fraction(1, 2))
    assert refine_and_compare(f, loop).is_identity()


def test_homomorphism_property_on_concatenation():
    f, x = power_model(4)
    loop = generator_loops(x)[0]
    doubled = LoopPath(loop.vertices + loop.vertices[1:])
    from splitcover.monodromy import basepoint_fiber
    fiber = basepoint_fiber(f, x)
    once = track_loop(f, loop, DEFAULT_TRACKING, fiber)
    twice = track_loop(f, doubled, DEFAULT_TRACKING, fiber)
    assert twice == compose(once, once)


def test_homomorphism_property_on_generator_pairs():
    # two-hole family z^4 - 4w z^2 + 16: Klein four monodromy
    x = default_base_space(2)
    a2 = BivariatePolyQi({(1, 0): qi(-4), (0, 1): qi(0, -4)})
    f = WeierstrassPoly(4, [BivariatePolyQi.constant(qi(16)),
                            BivariatePolyQi.zero(), a2,
                            BivariatePolyQi.zero()], base=x)
    loops = generator_loops(x)
    from splitcover.monodromy import basepoint_fiber
    fiber = basepoint_fiber(f, x)
    singles = [track_loop(f, lp, DEFAULT_TRACKING, fiber) for lp in loops]
    for i, j in ((0, 1), (1, 0)):
        joined = LoopPath(loops[i].vertices + loops[j].vertices[1:])
        got = track_loop(f, joined, DEFAULT_TRACKING, fiber)
        assert got == compose(singles[i], singles[j])


def test_characteristic_hom_identity_for_linear():
    x = default_base_space(1)
    f = WeierstrassPoly(1, [BivariatePolyQi.constant(qi(7))], base=x)
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
    f = WeierstrassPoly(2, [a0, BivariatePolyQi.zero()], base=x)
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
    hom, faithful = deck_action_on_roots(rep, *splitting_cover(rep)[1:])
    assert faithful
    images = {hom(lam) for lam in hom.source.elements()}
    assert images == {perm(n=2), perm((1, 2), n=2)}


def test_deck_action_regular_klein_faithful():
    a = perm((1, 2), (3, 4), n=4)
    b = perm((1, 3), (2, 4), n=4)
    rep = MonodromyRep(2, 4, (a, b), (0j, 1 + 0j, 2 + 0j, 3 + 0j))
    hom, faithful = deck_action_on_roots(rep, *splitting_cover(rep)[1:])
    assert faithful
    assert hom.is_bijective()
    assert {q for q in hom.mapping.values()} == set(closure((a, b)).elements())


def _swap_second_pass(real):
    """A tracker whose half-step pass (every second of three rows) ends with
    its roots in reverse order."""
    def track(f, rows, cfg, start):
        results = real(f, rows, cfg, start)
        return [end[::-1] if i % 3 == 1 else end for i, end in enumerate(results)]
    return track


def test_refine_and_compare_detects_instability(monkeypatch):
    f, x = power_model(4)
    loop = generator_loops(x)[0]
    coarse = TrackingConfig(initial_step=0.05)
    # the passes agree on the unmodified tracker
    assert refine_and_compare(f, loop, coarse) == track_loop(f, loop)
    monkeypatch.setattr(monodromy, "_track_rows",
                        _swap_second_pass(monodromy._track_rows))
    with pytest.raises(InstabilityError, match="step refinement changed"):
        refine_and_compare(f, loop, coarse)


def test_instability_exits_3_from_the_cli(monkeypatch, tmp_path, capsys):
    f, x = power_model(2)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"polynomial": f.to_json(),
                                "base_space": x.to_json()}))
    monkeypatch.setattr(monodromy, "_track_rows",
                        _swap_second_pass(monodromy._track_rows))
    assert main(["monodromy", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numerical instability: step refinement changed" in err
    assert "Traceback" not in err


def radical_family(n, c, exponents):
    """z^n - c * prod (w - x_i)^k_i over the default space with one hole per
    exponent, x_i the hole centres."""
    x = default_base_space(len(exponents))
    w_coeffs = [c]  # lowest power of w first
    for hole, k in zip(x.holes, exponents):
        centre = qi(hole.center[0])
        for _ in range(k):
            w_coeffs = [(w_coeffs[i - 1] if i else QI_ZERO)
                        - (centre * w_coeffs[i] if i < len(w_coeffs) else QI_ZERO)
                        for i in range(len(w_coeffs) + 1)]
    a0 = BivariatePolyQi.from_w_powers([-a for a in w_coeffs])
    return WeierstrassPoly(n, [a0] + [BivariatePolyQi.zero()] * (n - 1),
                           base=x), x


def rotation(labels, k, n):
    """The loop around a hole of exponent k turns every root by 2 pi k / n:
    label z goes to the label at z exp(2 pi i k / n)."""
    turn = cmath.exp(2j * math.pi * k / n)
    return Permutation(tuple(
        min(range(n), key=lambda j: abs(z * turn - labels[j])) + 1 for z in labels))


# the initial steps of the three refinement passes
PASSES = tuple(DEFAULT_TRACKING.initial_step / k for k in (1, 2, 4))


def assert_rows_match_alone(f, loops, fiber):
    rows = [(loop, step) for loop in loops for step in PASSES]
    stacked = _track_rows(f, rows, DEFAULT_TRACKING, fiber)
    for row, end in zip(rows, stacked):
        alone = _track_rows(f, [row], DEFAULT_TRACKING, fiber)[0]
        assert end.tobytes() == alone.tobytes()
        assert _permutations(fiber, [end]) == _permutations(fiber, [alone])
    return _permutations(fiber, stacked)


@pytest.mark.parametrize("n, exponents", [
    (2, (1,)), (3, (1, 2)), (6, (2, 1, 1)), (7, (1, 1, 2)), (11, (2, 1)),
    (12, (1, 2, 1))])
def test_stacked_rows_equal_rows_tracked_alone(n, exponents):
    f, x = radical_family(n, qi(Fraction(3, 5), Fraction(4, 5)), exponents)
    loops = generator_loops(x)
    fiber = basepoint_fiber(f, x)
    perms = assert_rows_match_alone(f, loops, fiber)
    expected = [rotation(fiber, k, n) for k in exponents]
    assert perms == [p for p in expected for _ in PASSES]
    assert characteristic_hom(f, x).perms == tuple(expected)


def test_stacked_rows_equal_rows_tracked_alone_on_realized_s3():
    from splitcover.pipeline import realize_group
    gens = (perm((1, 2), n=3), perm((1, 2, 3), n=3))
    poly, report = realize_group(closure(gens))
    space = default_base_space(2)
    rep = MonodromyRep.from_json(report.artifacts["monodromy"])
    fiber = basepoint_fiber(poly, space, rep.root_labels)
    perms = assert_rows_match_alone(poly, generator_loops(space), fiber)
    regular = cayley_table(gens)[0].action
    assert perms == [p for p in regular for _ in PASSES]


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
        with pytest.raises((monodromy.StepUnderflowError,
                            monodromy.NewtonDivergenceError)) as exc:
            track_loop(f, loop, DEFAULT_TRACKING, fiber)
        alone[loop] = exc.value
    assert str(alone[early]) != str(alone[late])
    # the early row fails first but is second in row order
    step = DEFAULT_TRACKING.initial_step
    results = _track_rows(f, [(late, step), (early, step)], DEFAULT_TRACKING,
                          fiber)
    assert [(type(r), str(r)) for r in results] == \
        [(type(alone[k]), str(alone[k])) for k in (late, early)]
    with pytest.raises(RuntimeError) as exc:
        _permutations(fiber, results)
    assert exc.value is results[0]
    for order in ((late, early), (early, late)):
        with pytest.raises(RuntimeError) as exc:
            _refined(f, list(order), DEFAULT_TRACKING, fiber)
        first = alone[order[0]]
        assert type(exc.value) is type(first) and str(exc.value) == str(first)


def test_step_underflow_when_refinement_is_exhausted():
    # with no room to halve, the first guarded rejection must surface as an
    # explicit failure instead of a silently wrong permutation
    from splitcover.monodromy import NewtonDivergenceError, StepUnderflowError
    f, x = power_model(2)
    loop = generator_loops(x)[0]
    cfg = TrackingConfig(initial_step=0.5, min_step=0.4, safety_factor=0.01)
    with pytest.raises((StepUnderflowError, NewtonDivergenceError)):
        track_loop(f, loop, cfg)


def test_monodromy_rep_json_round_trip():
    rep = MonodromyRep(2, 3, (perm((1, 2), n=3), perm((1, 2, 3), n=3)),
                       (0j, 1 + 0j, 2 + 1j))
    back = MonodromyRep.from_json(rep.to_json())
    assert back.perms == rep.perms
    assert all(abs(a - b) < 1e-15 for a, b in zip(back.root_labels, rep.root_labels))
