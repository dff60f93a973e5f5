from dataclasses import replace
from fractions import Fraction

import pytest

from splitcover.freecover import cayley_table
from splitcover.permgroup import (
    Permutation,
    closure,
    compose,
    conjugate,
    inverse,
)
from splitcover.pipeline import (
    IrreducibilityFailureError,
    align_regular_labelings,
    realize_group,
    run_monodromy,
    run_verify_tower,
    solve_semitop_embedding,
)
from splitcover.synthesis import SynthesisUnsupported
from splitcover.wpoly import (
    BaseSpace,
    BivariatePolyQi,
    GaussianRational,
    WeierstrassPoly,
    default_base_space,
)


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


Z2 = closure((perm((1, 2), n=2),))
Z4 = closure((perm((1, 2, 3, 4), n=4),))
V4 = closure((perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4)))


@pytest.fixture(scope="module")
def realized_z2():
    space = default_base_space(1)
    poly, report = realize_group(Z2, space)
    return poly, space, report


def regular_images(group):
    return cayley_table(group.generators)[0].action


def test_regular_representation_s3():
    s3 = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    table, group = cayley_table(s3.generators)
    images = table.action
    assert len(group.elements()) == 6
    assert all(p.degree == 6 for p in images)
    regular = closure(images)
    assert regular.order() == 6 and regular.is_transitive()


def test_align_regular_labelings_round_trip():
    s3 = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    reg = regular_images(s3)
    shuffle = Permutation((3, 1, 4, 2, 6, 5))
    scrambled = tuple(conjugate(p, inverse(shuffle)) for p in reg)
    pi = align_regular_labelings(scrambled, reg)
    assert pi is not None
    assert all(conjugate(s, pi) == d for s, d in zip(scrambled, reg))


def test_align_regular_labelings_rejects_mismatch():
    z4 = regular_images(Z4)
    v4 = regular_images(V4)
    padded_z4 = (z4[0], Permutation.identity(4))
    assert align_regular_labelings(padded_z4, v4) is None


def test_align_regular_labelings_takes_the_smallest_image_of_1():
    import itertools
    import random

    from catalog import CATALOG

    rng = random.Random(20261021)
    regs = [regular_images(g) for g in CATALOG.values() if g.order() <= 6]
    regs += [regular_images(V4)]
    cases = []
    for reg in regs:
        n = reg[0].degree
        images = list(range(1, n + 1))
        rng.shuffle(images)
        shuffle = Permutation(tuple(images))
        scrambled = tuple(conjugate(p, shuffle) for p in reg)
        cases += [(scrambled, reg), (reg, scrambled)]
        # tuples that are conjugate only for some groups: generators
        # swapped, or the first one squared (intransitive for Z2, Z4 and Z6)
        squared = (compose(reg[0], reg[0]),) + reg[1:]
        cases += [(scrambled, tuple(reversed(reg))), (scrambled, squared),
                  (squared, scrambled)]
    z4, v4 = regular_images(Z4), regular_images(V4)
    cases.append(((z4[0], Permutation.identity(4)), v4))
    nones = 0
    for src, dst in cases:
        n = src[0].degree
        valid = [pi for pi in map(Permutation, itertools.permutations(range(1, n + 1)))
                 if all(conjugate(s, pi) == d for s, d in zip(src, dst))]
        expected = min(valid, key=lambda pi: pi(1)) if valid else None
        assert align_regular_labelings(src, dst) == expected, (src, dst)
        nones += expected is None
    assert nones >= 8 and len(cases) - nones >= 2 * len(regs)


def test_realize_trivial_group():
    trivial = closure((), degree=1)
    poly, report = realize_group(trivial)
    assert poly.degree == 1
    assert report.artifacts["deck_order"] == 1
    assert report.all_passed()


def test_realize_z2(realized_z2):
    poly, space, report = realized_z2
    assert poly.degree == 2
    assert report.verdicts["certificate_valid"]
    assert report.verdicts["monodromy_matches_regular_targets"]
    assert report.artifacts["monodromy"]["perms"] == [[2, 1]]
    assert report.artifacts["deck_order"] == 2
    # z^2 - w has D(w) = 4w, with its one zero in the hole
    assert report.artifacts["certificate"] == {
        "discriminant_degree": 1, "zeros_in_outer_disc": 1,
        "zeros_per_hole": [1], "valid": True}


def test_realize_z2_matches_square_root_oracle(realized_z2):
    # the output family must behave like z^2 - c(x) with c winding once
    poly, space, _ = realized_z2
    rep_perm = Permutation((2, 1))
    from splitcover.monodromy import characteristic_hom
    rep = characteristic_hom(poly, space)
    assert rep.perms == (rep_perm,)


def test_realize_skips_a_candidate_the_certificate_rejects(monkeypatch):
    from splitcover import pipeline

    seen = []
    real = pipeline.certify

    def reject_first(coeffs, space):
        seen.append(coeffs)
        cert = real(coeffs, space)
        if len(seen) == 1:
            return replace(cert, reason="rejected for the test")
        return cert

    monkeypatch.setattr(pipeline, "certify", reject_first)
    poly, report = realize_group(V4)
    # weight base 1 is rejected here, weight base 2 for the two zeros of its
    # discriminant in the space, and weight base 3 is realized
    assert len(seen) == 3 and seen[0] != seen[2]
    assert poly.coeffs == seen[2]
    assert report.all_passed()


def test_realize_reports_every_rejected_candidate(monkeypatch):
    from splitcover import pipeline

    real = pipeline.certify
    monkeypatch.setattr(pipeline, "certify", lambda coeffs, space: replace(
        real(coeffs, space), reason="rejected for the test"))
    with pytest.raises(SynthesisUnsupported) as info:
        realize_group(Z2)
    assert str(info.value) == "; ".join(
        f"weight base {b}: rejected for the test" for b in (1, 2, 3, 5))


def test_realize_requires_matching_holes():
    with pytest.raises(ValueError):
        realize_group(Z2, default_base_space(2))


def test_realize_rejects_oversized_group():
    z30 = closure((perm(tuple(range(1, 31)), n=30),))
    with pytest.raises(ValueError):
        realize_group(z30)


def test_realize_unsupported_group_raises():
    # D4 has no exact synthesis here, and realize has no other route
    d4 = closure((perm((1, 2, 3, 4), n=4), perm((1, 3), n=4)))
    with pytest.raises(SynthesisUnsupported):
        realize_group(d4)


def test_embed_identity_case(realized_z2):
    poly, space, _ = realized_z2
    s = Permutation((2, 1))
    h, report = solve_semitop_embedding(poly, space, Z2, (s,))
    assert report.artifacts["rank_used"] == 1
    assert h.degree == 2
    assert report.all_passed()


def test_embed_z4_over_z2(realized_z2):
    poly, space, _ = realized_z2
    s = Permutation((2, 1))
    h, report = solve_semitop_embedding(poly, space, Z4, (s,))
    assert h.degree == 4
    assert report.artifacts["rank_used"] == 1
    assert report.verdicts["restriction_triangle"]
    assert report.verdicts["monodromy_matches_solver_targets"]
    assert report.all_passed()


def test_embed_klein_rank_extension(realized_z2):
    poly, space, _ = realized_z2
    s = Permutation((2, 1))
    h, report = solve_semitop_embedding(
        poly, space, V4, (s, Permutation.identity(2)))
    assert h.degree == 4
    assert report.artifacts["rank_used"] == 2
    assert report.verdicts["base_monodromy_stable_under_extension"]
    assert report.all_passed()


def test_embed_rejects_reducible_base():
    space = default_base_space(1)
    f = WeierstrassPoly(
        2, [BivariatePolyQi({(0, 0): qi(-1)}), BivariatePolyQi.zero()])
    with pytest.raises(IrreducibilityFailureError):
        solve_semitop_embedding(f, space, Z2, (Permutation.identity(1),))


def test_run_monodromy_constant_coefficients():
    space = default_base_space(1)
    f = WeierstrassPoly(
        2, [BivariatePolyQi({(0, 0): qi(-1)}), BivariatePolyQi.zero()])
    report = run_monodromy(f, space)
    assert report.artifacts["irreducible"] is False
    assert report.artifacts["deck_order"] == 1
    assert report.all_passed()


def test_run_monodromy_square_root_model(realized_z2):
    poly, space, _ = realized_z2
    report = run_monodromy(poly, space)
    assert report.artifacts["irreducible"] is True
    assert report.artifacts["monodromy"]["perms"] == [[2, 1]]
    assert report.verdicts["deck_action_on_roots_faithful"]


def count_calls(monkeypatch, *bindings):
    """Calls through each (module, name) binding from now on, in order."""
    calls = []
    for module, name in bindings:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    return calls


@pytest.mark.parametrize("command", ["realize", "monodromy"])
def test_splitting_cover_is_built_once(command, realized_z2, monkeypatch):
    from splitcover import freecover, monodromy

    calls = count_calls(monkeypatch, (monodromy, "cayley_table"),
                        (freecover, "centralizer_in_sym"))
    poly, space, _ = realized_z2
    if command == "realize":
        realize_group(Z2, space)
    else:
        run_monodromy(poly, space)
    assert calls == ["cayley_table", "centralizer_in_sym"]


@pytest.mark.parametrize("H, phi_extra, decks, loops, g_tracks",
                         [(Z4, 0, 3, 1, 1), (V4, 1, 4, 3, 2)], ids=["Z4", "V4"])
def test_embed_computes_deck_groups_and_loops_once(H, phi_extra, decks, loops,
                                                    g_tracks, realized_z2,
                                                    monkeypatch):
    # deck groups: F, the solver's E, the realization's splitting cover and
    # for V4 the extended mid covering; the realized cover equals the
    # solver's, whose tower is reused; loops: one per hole of the base space
    # and of the extended one; g is tracked again only over the extended space
    from splitcover import freecover, pipeline, wpoly

    poly, space, _ = realized_z2
    space = BaseSpace.from_json(space.to_json())
    calls = count_calls(monkeypatch, (freecover, "centralizer_in_sym"),
                        (wpoly, "validate_loop"))
    real = pipeline.characteristic_hom
    tracked = []
    monkeypatch.setattr(pipeline, "characteristic_hom",
                        lambda f, *args, **kwargs:
                        tracked.append(f) or real(f, *args, **kwargs))
    s = Permutation((2, 1))
    _, report = solve_semitop_embedding(
        poly, space, H, (s,) + (Permutation.identity(2),) * phi_extra)
    assert report.all_passed()
    assert report.verdicts["base_monodromy_stable_under_extension"]
    assert calls.count("centralizer_in_sym") == decks
    assert calls.count("validate_loop") == loops
    assert sum(f is poly for f in tracked) == g_tracks


def test_embed_refuses_a_group_realize_cannot_take_before_tracking(
        realized_z2, monkeypatch):
    from splitcover import pipeline

    def no_tracking(*args, **kwargs):
        raise AssertionError("tracked before the order check")

    monkeypatch.setattr(pipeline, "characteristic_hom", no_tracking)
    poly, space, _ = realized_z2
    s5 = closure((perm((1, 2), n=5), perm((1, 2, 3, 4, 5), n=5)))
    with pytest.raises(ValueError, match="exceeds the limit 24"):
        solve_semitop_embedding(poly, space, s5, (Permutation((2, 1)),) * 2)


def test_run_verify_tower_z4_over_z2(realized_z2, monkeypatch):
    from splitcover import wpoly

    g_poly, space, _ = realized_z2
    s = Permutation((2, 1))
    h_poly, embed_report = solve_semitop_embedding(g_poly, space, Z4, (s,))
    psi_images = [Permutation.from_json(p) for p in
                  embed_report.artifacts["embedding_solution"]["psi"]["gen_images"]]
    # both polynomials are tracked around the loops of one space, built once
    fresh = BaseSpace.from_json(space.to_json())
    calls = count_calls(monkeypatch, (wpoly, "validate_loop"))
    report = run_verify_tower(h_poly, g_poly, fresh, Z4, (s,), psi_images)
    assert report.all_passed(), report.verdicts
    assert len(calls) == fresh.rank


def test_run_verify_tower_detects_wrong_psi(realized_z2):
    g_poly, space, _ = realized_z2
    s = Permutation((2, 1))
    h_poly, _ = solve_semitop_embedding(g_poly, space, Z4, (s,))
    # psi sending the generator to the identity is not even injective
    bad_psi = [Permutation.identity(4)]
    report = run_verify_tower(h_poly, g_poly, space, Z4, (s,), bad_psi)
    assert not report.all_passed()


def test_reports_are_reproducible(realized_z2):
    poly, space, report = realized_z2
    poly2, report2 = realize_group(Z2, space)
    assert report2.artifacts["monodromy"] == report.artifacts["monodromy"]
    assert report2.artifacts["polynomial"] == report.artifacts["polynomial"]
    assert report2.verdicts == report.verdicts
