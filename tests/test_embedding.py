import itertools

import pytest

from splitcover.embedding import (
    EmbeddingInstance,
    NoSolutionError,
    canonical_monodromy,
    cayley_deck_labeling,
    solve,
    verify,
)
from splitcover.freecover import cayley_table, deck_group
from splitcover.permgroup import (
    GroupHom,
    Permutation,
    closure,
    compose,
    inverse,
)


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


S3_GENS = (perm((1, 2), n=3), perm((1, 2, 3), n=3))


def make_instance(f_gens, H, surj_images):
    """Instance over the regular cover of <f_gens> with phi given on H's generators."""
    table, _ = cayley_table(f_gens)
    deck = deck_group(table)
    phi = GroupHom.from_generator_images(H, deck.group, surj_images)
    return EmbeddingInstance(table.rank, table, H, phi)


def test_canonical_monodromy_trivial_cover():
    t = cayley_table((perm(n=1), perm(n=1)))[0]
    eta = canonical_monodromy(t)
    assert all(p.is_identity() for p in eta)


def test_canonical_monodromy_z2():
    t = cayley_table((perm((1, 2), n=2),))[0]
    eta = canonical_monodromy(t)
    assert eta == (perm((1, 2), n=2),)


def test_canonical_monodromy_is_homomorphism_s3():
    table, _ = cayley_table(S3_GENS)
    eta = canonical_monodromy(table)
    # the image of a word must be the left-to-right product of generator images
    from splitcover.freecover import FreeWord, act
    deck = deck_group(table)
    for letters in [(1, 2), (2, 1), (1, 1, 2), (-1, 2), (2, -2, 1)]:
        w = FreeWord.of(*letters)
        prod = Permutation.identity(table.size)
        for a in w.letters:
            img = eta[abs(a) - 1]
            if a < 0:
                from splitcover.permgroup import inverse
                img = inverse(img)
            prod = compose(prod, img)
        expected = deck.from_basepoint_image(act(table, w.inverse(), 1))
        assert prod == expected


def test_canonical_monodromy_requires_galois():
    from splitcover.freecover import CosetTable
    with pytest.raises(ValueError):
        canonical_monodromy(CosetTable(2, 3, S3_GENS))


def test_cayley_deck_labeling_is_isomorphism():
    for gens in [(perm((1, 2, 3, 4), n=4),), S3_GENS]:
        labeling = cayley_deck_labeling(gens)
        assert labeling.is_bijective()
        # the construction check accepts the labeling's mapping
        assert isinstance(GroupHom(labeling.source, labeling.target,
                                   labeling.mapping), GroupHom)


def left_translation_labeling(source, table, elems):
    """Oracle for _deck_labeling: h acts on the cosets, labeled by elems, by
    left translation by h^-1, built from |H|^2 products."""
    index = {e: i + 1 for i, e in enumerate(elems)}
    return {h: Permutation(tuple(index[compose(inverse(h), e)] for e in elems))
            for h in elems}


def test_deck_labeling_equals_left_translation():
    from catalog import CATALOG
    from splitcover.embedding import _deck_labeling

    for H in CATALOG.values():
        # the covering of H from a generating tuple other than H's own
        gens = tuple(reversed(H.generators)) + (H.elements()[-1],)
        table, elems = cayley_table(gens)
        psi = _deck_labeling(H, table, elems)
        assert psi.mapping == left_translation_labeling(H, table, elems)
        assert psi.source is H and psi.is_bijective()


def test_index_generation_equals_closure_on_criterion_2_fibers(monkeypatch):
    # every assignment the solver tries on the criterion-2 instances:
    # generation by the BFS on H's index against the order of its closure
    from catalog import CATALOG
    from test_acceptance import _surjections_up_to_automorphism
    from splitcover import embedding

    real = embedding._first_generating_assignment
    tried = []

    def checked(fibers, H):
        index = H.index()
        for assignment in itertools.product(*fibers):
            by_index = len(index.generated([index.position[h] for h in assignment]))
            assert by_index == closure(assignment, degree=H.degree).order()
            tried.append(by_index == H.order())
        return real(fibers, H)

    monkeypatch.setattr(embedding, "_first_generating_assignment", checked)
    for G in CATALOG.values():
        f_table, _ = cayley_table(G.generators)
        labeling = cayley_deck_labeling(G.generators)
        for H in CATALOG.values():
            if H.order() > 16:
                continue
            for images_in_g in _surjections_up_to_automorphism(H, G):
                phi = GroupHom.from_generator_images(
                    H, labeling.target, tuple(labeling(p) for p in images_in_g))
                solve(EmbeddingInstance(f_table.rank, f_table, H, phi))
    assert True in tried and False in tried


def test_solve_identity_case():
    z2 = closure((perm((1, 2), n=2),))
    deck = deck_group(cayley_table(z2.generators)[0])
    inst = make_instance(z2.generators, z2, (deck.group.elements()[1],))
    # phi: identity labeling of Z2 onto its deck group
    sol = solve(inst, allow_rank_extension=False)
    assert sol.rank_used == 1
    assert sol.E_cover.size == 2
    assert verify(sol, inst)


def test_solve_z4_over_z2():
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    f_table, _ = cayley_table((perm((1, 2), n=2),))
    deck = deck_group(f_table)
    s = deck.from_basepoint_image(2)
    phi = GroupHom.from_generator_images(z4, deck.group, (s,))
    inst = EmbeddingInstance(1, f_table, z4, phi)
    sol = solve(inst, allow_rank_extension=False)
    assert sol.rank_used == 1
    assert sol.E_cover.size == 4
    assert verify(sol, inst)
    # the deck group of E is Z4 and the tower quotient recovers Z2
    from splitcover.freecover import tower_quotient_check
    rep = tower_quotient_check(sol.tower)
    assert rep.part1_holds and rep.part2_holds and rep.quotient_order == 2


def test_solve_klein_requires_rank_extension():
    v4 = closure((perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4)))
    assert v4.order() == 4
    f_table, _ = cayley_table((perm((1, 2), n=2),))
    deck = deck_group(f_table)
    s = deck.from_basepoint_image(2)
    # projection onto the first factor: first generator -> s, second -> identity
    phi = GroupHom.from_generator_images(
        v4, deck.group, (s, Permutation.identity(2)))
    inst = EmbeddingInstance(1, f_table, v4, phi)
    with pytest.raises(NoSolutionError):
        solve(inst, allow_rank_extension=False)
    sol = solve(inst, allow_rank_extension=True)
    assert sol.rank_used == 2
    assert sol.E_cover.size == 4
    assert verify(sol, inst)


def count_deck_computations(monkeypatch):
    """Deck groups computed from now on, one centralizer each."""
    from splitcover import freecover
    calls = []
    real = freecover.centralizer_in_sym
    monkeypatch.setattr(freecover, "centralizer_in_sym",
                        lambda group: calls.append(group) or real(group))
    return calls


def over_z2_instance(name):
    """Z4 or V4 over the Z2 covering, on a table whose deck group is not yet
    computed: Z4 needs no extension, so the mid covering is F itself; V4
    needs one more generator, so F, E and the extended mid covering differ."""
    gens = {"Z4": (perm((1, 2, 3, 4), n=4),),
            "V4": (perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4))}[name]
    H = closure(gens)
    # phi targets the deck group of an equal table, not of F's own object
    deck = deck_group(cayley_table((perm((1, 2), n=2),))[0])
    images = ((deck.from_basepoint_image(2),)
              + (Permutation.identity(2),) * (len(gens) - 1))
    phi = GroupHom.from_generator_images(H, deck.group, images)
    return EmbeddingInstance(1, cayley_table((perm((1, 2), n=2),))[0], H, phi)


@pytest.mark.parametrize("name", ["Z4", "V4"])
def test_solve_computes_each_deck_group_once(monkeypatch, name):
    # F and E, and for V4 the extended mid covering
    inst = over_z2_instance(name)
    calls = count_deck_computations(monkeypatch)
    sol = solve(inst)
    assert sol.rank_used == (1 if name == "Z4" else 2)
    assert (sol.tower.mid is inst.F_cover) == (name == "Z4")
    expected = 2 if name == "Z4" else 3
    assert len(calls) == expected
    assert verify(sol, inst)
    assert len(calls) == expected


@pytest.mark.parametrize("name", ["Z4", "V4"])
def test_verify_after_solve_computes_no_deck_group(monkeypatch, name):
    inst = over_z2_instance(name)
    sol = solve(inst)
    calls = count_deck_computations(monkeypatch)
    assert verify(sol, inst)
    assert calls == []


def test_verify_rejects_tower_over_another_top():
    # the reversed Z4 covering has the same deck group and projection to Z2,
    # but it is not the solution's covering
    from splitcover.embedding import EmbeddingSolution
    from splitcover.freecover import CosetTable, subtable
    from splitcover.permgroup import inverse
    inst = over_z2_instance("Z4")
    sol = solve(inst)
    other = CosetTable(1, 4, (inverse(sol.E_cover.action[0]),))
    tower = subtable(other, sol.tower.mid)
    assert tower.projection == sol.tower.projection
    wrong = EmbeddingSolution(sol.E_cover, tower, sol.psi, sol.rank_used,
                              sol.images)
    assert not verify(wrong, inst)


def test_solve_deterministic():
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    f_table, _ = cayley_table((perm((1, 2), n=2),))
    deck = deck_group(f_table)
    phi = GroupHom.from_generator_images(z4, deck.group, (deck.from_basepoint_image(2),))
    inst = EmbeddingInstance(1, f_table, z4, phi)
    a = solve(inst)
    b = solve(inst)
    assert a.images == b.images
    assert a.E_cover == b.E_cover


def test_verify_accepts_twisted_psi():
    # composing psi with a group automorphism still solves when phi is symmetric
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    f_table, _ = cayley_table((perm((1, 2), n=2),))
    deck = deck_group(f_table)
    phi = GroupHom.from_generator_images(z4, deck.group, (deck.from_basepoint_image(2),))
    inst = EmbeddingInstance(1, f_table, z4, phi)
    sol = solve(inst)
    # twist: r -> r^3 is the nontrivial automorphism of Z4
    twist = {}
    for h in z4.elements():
        img = h
        twisted = compose(compose(h, h), h)
        twist[h] = sol.psi(twisted)
    psi2 = GroupHom(z4, sol.psi.target, twist)
    from splitcover.embedding import EmbeddingSolution
    sol2 = EmbeddingSolution(sol.E_cover, sol.tower, psi2, sol.rank_used, sol.images)
    assert verify(sol2, inst)


def test_solution_tower_consistency_with_quotient_theorem():
    # A(E/X) iso H and A(E/X)/A(E/F) iso A(F/X) for a nonabelian case: S3 -> Z2
    from splitcover.freecover import tower_quotient_check
    s3 = closure(S3_GENS)
    f_table, _ = cayley_table((perm((1, 2), n=2),))
    deck = deck_group(f_table)
    s = deck.from_basepoint_image(2)
    phi = GroupHom.from_generator_images(s3, deck.group, (s, Permutation.identity(2)))
    inst = EmbeddingInstance(1, f_table, s3, phi)
    sol = solve(inst)
    assert verify(sol, inst)
    assert sol.E_cover.size == 6
    rep = tower_quotient_check(sol.tower)
    assert rep.part1_holds and rep.part2_holds
    from splitcover.permgroup import isomorphic_as_groups
    deck_e = deck_group(sol.E_cover)
    assert isomorphic_as_groups(deck_e.group, s3) is not None


def test_instance_validation():
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    f_table = cayley_table((perm((1, 2), n=2),))[0]
    deck = deck_group(f_table)
    bad_phi = GroupHom.from_generator_images(z4, deck.group, (Permutation.identity(2),))
    inst = EmbeddingInstance(1, f_table, z4, bad_phi)
    with pytest.raises(ValueError):
        inst.validate()
