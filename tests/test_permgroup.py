import itertools
import random

import pytest

from splitcover.permgroup import (
    ClosureLimitError,
    GroupHom,
    PermGroup,
    Permutation,
    centralizer_in_sym,
    closure,
    compose,
    conjugate,
    identity,
    inverse,
    isomorphic_as_groups,
    _close_hom,
)


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def brute_close(gens, n):
    """Oracle: saturate a set of permutations under products and inverses."""
    items = set(gens) | {identity(n)}
    while True:
        new = {compose(a, b) for a in items for b in items}
        new |= {inverse(a) for a in items}
        if new <= items:
            return items
        items |= new


def test_identity_and_validation():
    assert identity(3).images == (1, 2, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize("images", [(True, 2), (2, True)])
def test_bool_images_are_rejected(images):
    # True == 1 and hashes like it, so the identity of degree 2 would keep
    # True in its images and write it to JSON as true
    with pytest.raises(ValueError):
        Permutation(images)


def test_compose_identity_and_involution():
    q = perm((1, 2, 3), n=3)
    assert compose(identity(3), q) == q
    t = perm((1, 2), n=2)
    assert compose(t, t) == identity(2)


def test_compose_pointwise_example():
    # (1 2) then (2 3) sends 1->2->3, 2->1, 3->2: the 3-cycle (1 3 2)
    p = perm((1, 2), n=3)
    q = perm((2, 3), n=3)
    assert compose(p, q) == perm((1, 3, 2), n=3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_inverse_property_random():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(50):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert compose(p, inverse(p)) == identity(n)
            assert compose(inverse(p), p) == identity(n)


def test_cycles_and_order():
    p = perm((1, 2), (3, 4, 5), n=6)
    assert p.cycles() == [(1, 2), (3, 4, 5)]
    assert p.order() == 6
    assert identity(4).order() == 1


def test_closure_trivial_and_small():
    g = closure((), degree=5)
    assert g.order() == 1
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    assert z4.order() == 4
    s3 = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    assert s3.order() == 6


def test_closure_matches_brute_force_oracle():
    rng = random.Random(11)
    for n in range(2, 7):
        for _ in range(8):
            gens = []
            for _ in range(rng.randint(1, 2)):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                gens.append(Permutation(tuple(images)))
            got = closure(tuple(gens)).element_set()
            assert got == brute_close(gens, n)


def test_closure_limit():
    with pytest.raises(ClosureLimitError):
        closure((perm((1, 2, 3, 4, 5, 6), n=6),), limit=3)


def test_lagrange_divides_factorial():
    rng = random.Random(3)
    import math
    for n in range(2, 7):
        for _ in range(10):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            g = closure((Permutation(tuple(images)),))
            assert math.factorial(n) % g.order() == 0


def test_transitive_and_regular():
    z3 = closure((perm((1, 2, 3), n=3),))
    assert z3.is_transitive() and z3.is_regular()
    swap = closure((perm((1, 2), n=3),))
    assert not swap.is_transitive()
    s3 = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    assert s3.is_transitive() and not s3.is_regular()
    assert s3.is_regular() == (s3.is_transitive() and s3.order() == s3.degree)


def test_centralizer_rejects_intransitive_group():
    with pytest.raises(ValueError):
        centralizer_in_sym(PermGroup(3, ()))


def test_centralizer_regular_cyclic():
    g = closure((perm((1, 2, 3), n=3),))
    c = centralizer_in_sym(g)
    assert c.order() == 3
    assert c.element_set() == g.element_set()


def test_centralizer_s3_is_trivial():
    g = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    c = centralizer_in_sym(g)
    assert c.order() == 1


def brute_centralizer(g):
    out = []
    for images in itertools.permutations(range(1, g.degree + 1)):
        s = Permutation(tuple(images))
        if all(compose(s, h) == compose(h, s) for h in g.generators):
            out.append(s)
    return set(out)


def test_centralizer_transitive_fast_path_matches_brute_force():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        g = PermGroup(n, tuple(gens))
        if not g.is_transitive():
            continue
        got = centralizer_in_sym(g).element_set()
        assert got == brute_centralizer(g)
        # semiregularity: order of the centralizer of a transitive group divides n
        assert n % len(got) == 0
        checked += 1


def test_isomorphic_identity_case():
    g = closure((perm((1, 2, 3), n=3),))
    hom = isomorphic_as_groups(g, g)
    assert hom is not None and hom.is_bijective()
    # the construction check accepts the mapping it returned
    assert isinstance(GroupHom(hom.source, hom.target, hom.mapping), GroupHom)


def test_isomorphic_rejects_z4_vs_klein():
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    v4 = closure((perm((1, 2), n=4), perm((3, 4), n=4)))
    assert v4.order() == 4
    assert isomorphic_as_groups(z4, v4) is None


def test_isomorphic_across_degrees():
    z2a = closure((perm((1, 2), n=2),))
    z2b = closure((perm((1, 2), (3, 4), n=4),))
    hom = isomorphic_as_groups(z2a, z2b)
    assert hom is not None and hom.is_bijective()


def test_isomorphic_limit():
    z2 = closure((perm((1, 2), n=2),))
    with pytest.raises(ClosureLimitError):
        isomorphic_as_groups(z2, z2, limit=1)


def test_isomorphic_s3_presentations():
    a = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    # regular representation of S3 on 6 points (right-translation images)
    x = Permutation((2, 1, 5, 6, 3, 4))
    y = Permutation((3, 4, 6, 5, 2, 1))
    b = closure((x, y))
    assert b.order() == 6
    hom = isomorphic_as_groups(a, b)
    assert hom is not None and hom.is_bijective()
    assert isinstance(GroupHom(hom.source, hom.target, hom.mapping), GroupHom)


def test_group_hom_from_generator_images_and_kernel():
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    z2 = closure((perm((1, 2), n=2),))
    hom = GroupHom.from_generator_images(z4, z2, (perm((1, 2), n=2),))
    assert hom.is_surjective() and not hom.is_injective()
    assert len(hom.kernel_elements()) == 2


def test_group_hom_rejects_non_homomorphism():
    z4 = closure((perm((1, 2, 3, 4), n=4),))
    z3 = closure((perm((1, 2, 3), n=3),))
    with pytest.raises(ValueError):
        GroupHom.from_generator_images(z4, z3, (perm((1, 2, 3), n=3),))


def all_pairs_is_hom(source, target, mapping):
    """Reference: the mapping covers the source, lands in the target and is
    multiplicative on every pair of elements."""
    els = source.elements()
    if set(mapping) != set(els) or not all(v in target for v in mapping.values()):
        return False
    return all(mapping[compose(a, b)] == compose(mapping[a], mapping[b])
               for a in els for b in els)


def group_hom_accepts(source, target, mapping):
    try:
        GroupHom(source, target, mapping)
    except ValueError:
        return False
    return True


def test_group_hom_accepts_exactly_the_homomorphisms():
    from catalog import CATALOG
    from splitcover.freecover import cayley_table, deck_group

    rng = random.Random(20261018)
    groups = [g for g in CATALOG.values() if g.order() <= 12]
    # deck groups list every element as a generator; the trivial group has
    # no generator at all
    sources = groups + [deck_group(cayley_table(g.generators)[0]).group
                        for g in groups] + [PermGroup(3)]
    accepted = rejected = 0
    for source in sources:
        els = source.elements()
        mappings = []
        for k in range(120):
            target = rng.choice(groups)
            images = [rng.choice(target.elements()) for _ in source.generators]
            closed = _close_hom(source, target.degree, zip(source.generators, images))
            if closed is None:
                continue
            if k % 2:
                a = rng.choice(els)
                closed[a] = rng.choice([t for t in target.elements()
                                        if t != closed[a]])
            mappings.append((target, closed))
        for _ in range(20):
            target = rng.choice(groups)
            mappings.append((target, {a: rng.choice(target.elements()) for a in els}))
        for target, mapping in mappings:
            expected = all_pairs_is_hom(source, target, mapping)
            assert group_hom_accepts(source, target, mapping) == expected, \
                (source, target, mapping)
            accepted += expected
            rejected += not expected
    assert accepted > 300 and rejected > 900


def test_is_abelian_matches_all_pairs():
    from catalog import CATALOG

    for group in CATALOG.values():
        els = group.elements()
        assert group.is_abelian() == all(
            compose(a, b) == compose(b, a) for a in els for b in els)


def test_conjugate_relabels():
    p = perm((1, 2), n=3)
    by = perm((1, 3), n=3)
    assert conjugate(p, by) == perm((2, 3), n=3)


def test_json_round_trip():
    g = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    g2 = PermGroup.from_json(g.to_json())
    assert g2.element_set() == g.element_set()
    p = perm((1, 3, 2), n=4)
    assert Permutation.from_json(p.to_json()) == p


def index_groups():
    """Every catalog group and the deck group of its regular covering."""
    from catalog import CATALOG
    from splitcover.freecover import cayley_table, deck_group

    for name, group in CATALOG.items():
        yield name, group
        yield f"deck {name}", deck_group(cayley_table(group.generators)[0]).group


def test_index_products_equal_compose_on_catalog_and_deck_groups():
    for name, group in index_groups():
        index = group.index()
        els = index.elements
        assert els == group.elements()
        assert els[index.identity] == identity(group.degree)
        if name.startswith("deck"):
            # a deck group acts freely: one base point pins every element
            assert len(index.base) == 1
        for a, p in enumerate(els):
            assert index.position[p] == a
            assert els[index.inverses[a]] == inverse(p)
            for b, q in enumerate(els):
                assert els[index.product(a, b)] == compose(p, q), (name, p, q)
        for g in group.generators[:3]:
            k = index.position[g]
            assert [els[c] for c in index.column(k)] == [compose(p, g) for p in els]


def test_index_products_equal_compose_on_s7():
    # 5040 elements on 7 points need a base of 6; all 5040^2 pairs would
    # take minutes, so every element against each generator, every inverse
    # and a seeded sample of pairs
    s7 = closure((perm((1, 2), n=7), perm((1, 2, 3, 4, 5, 6, 7), n=7)))
    index = s7.index()
    els = index.elements
    assert len(els) == 5040 and len(index.base) == 6
    for g in s7.generators:
        col = index.column(index.position[g])
        assert all(els[c] == compose(p, g) for p, c in zip(els, col))
    assert all(els[i] == inverse(p) for p, i in zip(els, index.inverses))
    rng = random.Random(7)
    for _ in range(3000):
        a, b = rng.randrange(5040), rng.randrange(5040)
        assert els[index.product(a, b)] == compose(els[a], els[b])


def test_index_generation_and_reduction_match_closure():
    from catalog import CATALOG

    rng = random.Random(14)
    for group in CATALOG.values():
        index = group.index()
        els = index.elements
        for _ in range(30):
            picks = [rng.randrange(len(els)) for _ in range(rng.randint(1, 3))]
            expected = closure(tuple(els[k] for k in picks), degree=group.degree)
            reached = index.generated(picks)
            assert len(reached) == len(set(reached)) == expected.order()
            assert {els[k] for k in reached} == expected.element_set()
            kept = index.reduce(picks, expected.order())
            assert set(kept) <= set(picks)
            assert closure(tuple(els[k] for k in kept),
                           degree=group.degree).order() == expected.order()


def test_group_and_index_are_freed_together():
    # no reference cycle: reference counting alone frees the group, its
    # index and, for a deck group, the table holding both
    import gc
    import weakref
    from splitcover.freecover import cayley_table, deck_group

    g = closure((perm((1, 2), n=3), perm((1, 2, 3), n=3)))
    t = cayley_table(g.generators)[0]
    d = deck_group(t)
    refs = [weakref.ref(x) for x in (g, g.index(), t, d, d.group, d.group.index())]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g, t, d
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
