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
    eta = canonical_monodromy(deck_group(t))
    assert all(p.is_identity() for p in eta)


def test_canonical_monodromy_z2():
    t = cayley_table((perm((1, 2), n=2),))[0]
    eta = canonical_monodromy(deck_group(t))
    assert eta == (perm((1, 2), n=2),)


def test_canonical_monodromy_is_homomorphism_s3():
    table, _ = cayley_table(S3_GENS)
    eta = canonical_monodromy(deck_group(table))
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
        canonical_monodromy(deck_group(CosetTable(2, 3, S3_GENS)))


def test_cayley_deck_labeling_is_isomorphism():
    for gens in [(perm((1, 2, 3, 4), n=4),), S3_GENS]:
        labeling = cayley_deck_labeling(gens)
        assert labeling.is_bijective() and labeling.verify()


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


@pytest.mark.parametrize("name", ["Z4", "V4"])
def test_solve_computes_each_deck_group_once(monkeypatch, name):
    # over Z2: Z4 needs no extension, so the mid covering is F itself; V4
    # needs one more generator, so F, E and the extended mid covering differ
    from splitcover import embedding
    gens = {"Z4": (perm((1, 2, 3, 4), n=4),),
            "V4": (perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4))}[name]
    f_table, _ = cayley_table((perm((1, 2), n=2),))
    s = deck_group(f_table).from_basepoint_image(2)
    images = (s,) + (Permutation.identity(2),) * (len(gens) - 1)
    inst = make_instance((perm((1, 2), n=2),), closure(gens), images)
    tables = []
    real = embedding.deck_group
    monkeypatch.setattr(embedding, "deck_group",
                        lambda table: tables.append(table) or real(table))
    sol = solve(inst)
    coverings = [inst.F_cover, sol.E_cover]
    if name == "V4":
        assert sol.rank_used == 2
        coverings.append(sol.tower.mid)
    assert tables == coverings


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
