import pytest

from catalog import CATALOG, all_subgroups
from splitcover.freecover import (
    CosetTable,
    FreeWord,
    Tower,
    act,
    cayley_table,
    deck_group,
    extend_table,
    is_normal,
    restriction_hom,
    stabilizer_table,
    subtable,
    tower_quotient_check,
)
from splitcover.permgroup import Permutation, closure, compose


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def z_table(k):
    return cayley_table((perm(tuple(range(1, k + 1)), n=k),))[0]


S3_GENS = (perm((1, 2), n=3), perm((1, 2, 3), n=3))


def test_free_word_reduction():
    w = FreeWord.of(1, 2, -2, -1, 1)
    assert w.letters == (1,)
    assert (FreeWord.of(1, 2) * FreeWord.of(-2, 1)).letters == (1, 1)
    assert FreeWord.of(1, 2).inverse().letters == (-2, -1)
    with pytest.raises(ValueError):
        FreeWord((1, -1))


def test_act_identity_word():
    t = z_table(4)
    for c in range(1, 5):
        assert act(t, FreeWord.of(), c) == c


def test_act_involution_and_inverse():
    t2 = cayley_table((perm((1, 2), n=2),))[0]
    assert act(t2, FreeWord.of(1, 1), 1) == 1
    t3 = cayley_table((perm((1, 2, 3), n=3),))[0]
    assert act(t3, FreeWord.of(-1), 1) == 3


def test_act_functoriality():
    t, _ = cayley_table(S3_GENS)
    words = [FreeWord.of(1), FreeWord.of(2), FreeWord.of(1, 2), FreeWord.of(-2, 1)]
    for w in words:
        for v in words:
            for c in range(1, t.size + 1):
                assert act(t, w * v, c) == act(t, v, act(t, w, c))


def test_kernel_table_trivial_image():
    t = cayley_table((perm(n=1),))[0]
    assert t.size == 1


def test_kernel_table_sizes():
    assert cayley_table((perm((1, 2), n=2),))[0].size == 2
    t = cayley_table(S3_GENS)[0]
    assert t.size == 6
    assert t.rank == 2


def test_kernel_table_always_normal():
    for gens in [(perm((1, 2), n=2),), S3_GENS,
                 (perm((1, 2, 3, 4), n=4), perm((1, 3), n=4))]:
        assert is_normal(cayley_table(gens)[0])


def test_is_normal_cases():
    assert is_normal(CosetTable(0, 1, ()))
    assert is_normal(cayley_table(S3_GENS)[0])
    # S3 acting on 3 points: index-3 point stabilizer, not normal
    t = CosetTable(2, 3, S3_GENS)
    assert not is_normal(t)


def test_deck_group_trivial_and_cyclic():
    assert deck_group(CosetTable(0, 1, ())).group.order() == 1
    d = deck_group(z_table(4))
    assert d.group.order() == 4
    assert d.is_galois()


def test_deck_group_nonnormal_is_trivial():
    t = CosetTable(2, 3, S3_GENS)
    d = deck_group(t)
    assert d.group.order() == 1
    assert not d.is_galois()


def test_deck_group_commutes_with_action():
    t, _ = cayley_table(S3_GENS)
    d = deck_group(t)
    assert d.is_galois() and d.group.order() == 6
    for lam in d.group.elements():
        for g in t.action:
            assert compose(lam, g) == compose(g, lam)


def test_galois_iff_deck_order_equals_size():
    tables = [z_table(4), cayley_table(S3_GENS)[0], CosetTable(2, 3, S3_GENS)]
    for t in tables:
        d = deck_group(t)
        assert d.is_galois() == (d.group.order() == t.size)
        assert d.is_galois() == is_normal(t)


def test_subtable_identity():
    t = z_table(4)
    tw = subtable(t, t)
    assert tw is not None
    assert tw.projection == (1, 2, 3, 4)


def test_subtable_z4_over_z2():
    tw = subtable(z_table(4), z_table(2))
    assert tw is not None
    assert tw.projection == (1, 2, 1, 2)


def test_subtable_absent():
    assert subtable(z_table(2), z_table(3)) is None
    with pytest.raises(ValueError):
        subtable(z_table(2), CosetTable(0, 1, ()))


def test_tower_validation():
    with pytest.raises(ValueError):
        Tower(z_table(4), z_table(2), (1, 2, 2, 1))


def test_restriction_identity_tower():
    t = z_table(4)
    tw = subtable(t, t)
    res = restriction_hom(tw)
    for lam in res.source.elements():
        assert res(lam) == lam


def test_restriction_z4_over_z2():
    tw = subtable(z_table(4), z_table(2))
    res = restriction_hom(tw)
    assert res.is_surjective()
    assert len(res.kernel_elements()) == 2


def test_restriction_s3_over_a3_quotient():
    # S3-regular cover over the cosets of A3 (index 2)
    e_table, _ = cayley_table(S3_GENS)
    s3 = closure(S3_GENS)
    a3 = [p for p in s3.elements() if p.order() in (1, 3)]
    f_table = stabilizer_table(s3, a3, S3_GENS)
    assert f_table.size == 2
    tw = subtable(e_table, f_table)
    assert tw is not None
    res = restriction_hom(tw)
    assert res.is_surjective()
    assert len(res.kernel_elements()) == 3


def test_restriction_requires_galois():
    e_table, _ = cayley_table(S3_GENS)
    f_table = CosetTable(2, 3, S3_GENS)
    tw = subtable(e_table, f_table)
    assert tw is not None
    with pytest.raises(ValueError):
        restriction_hom(tw)


def test_galois_tower_check_computes_each_deck_group_once(monkeypatch):
    from splitcover import freecover

    groups = []
    real = freecover.centralizer_in_sym
    monkeypatch.setattr(freecover, "centralizer_in_sym",
                        lambda group: groups.append(group) or real(group))
    tower = subtable(z_table(4), z_table(2))
    report = tower_quotient_check(tower)
    assert report.f_galois and report.all_verified()
    assert [g.generators for g in groups] == [tower.top.action, tower.mid.action]
    tower_quotient_check(tower)
    restriction_hom(tower)
    assert len(groups) == 2


def test_restriction_hom_checks_the_cayley_graph_edges(monkeypatch):
    from splitcover import permgroup

    tower = subtable(z_table(12), z_table(6))
    calls = []
    real = permgroup.compose
    monkeypatch.setattr(permgroup, "compose",
                        lambda p, q: calls.append(1) or real(p, q))
    res = restriction_hom(tower)
    assert res.is_surjective() and len(res.kernel_elements()) == 2
    # one generator of Z12 among the 12 its deck group lists: the reduction
    # closes it once (12) and checks 12 edges (24); all pairs would be 288
    assert len(calls) <= 50


def test_quotient_check_conjugates_by_generators_only(monkeypatch):
    from splitcover import permgroup

    tower = subtable(z_table(12), z_table(2))
    # deck groups first, so that only the check's own products are counted
    deck_group(tower.top)
    deck_group(tower.mid)
    calls = []
    real = permgroup.compose
    counting = lambda p, q: calls.append(1) or real(p, q)  # noqa: E731
    monkeypatch.setattr(permgroup, "compose", counting)
    report = tower_quotient_check(tower)
    assert report.fiber_decks_normal and report.all_verified()
    # one generator of Z12 among the 12 its deck group lists: the reduction
    # closes it (12), the 6 fiber decks are conjugated by it (12) and the
    # restriction map takes 36; conjugating by all 12 decks would be 144
    assert len(calls) <= 64


def test_deck_group_is_kept_on_its_table():
    t = z_table(3)
    assert deck_group(t) is deck_group(t)
    # equal tables are separate objects with separate deck groups
    assert deck_group(z_table(3)) is not deck_group(t)
    assert z_table(3) == t and hash(z_table(3)) == hash(t)


def test_table_and_deck_group_are_freed_together():
    # no reference cycle: reference counting alone frees both
    import gc
    import weakref
    t = z_table(4)
    refs = [weakref.ref(t), weakref.ref(deck_group(t))]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert refs[1]() is deck_group(t)
        del t
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_quotient_check_identity_tower():
    t = z_table(4)
    rep = tower_quotient_check(subtable(t, t))
    assert rep.f_galois and rep.fiber_decks_normal and rep.part1_holds
    assert rep.quotient_order == 4 and rep.part2_holds


def test_quotient_check_z4_over_z2():
    rep = tower_quotient_check(subtable(z_table(4), z_table(2)))
    assert rep.f_galois
    assert len(rep.fiber_decks) == 2
    assert rep.fiber_decks_normal and rep.part1_holds
    assert rep.kernel_matches_fiber_decks
    assert rep.quotient_order == 2 and rep.part2_holds


def test_quotient_check_non_normal_subcover():
    e_table, _ = cayley_table(S3_GENS)
    f_table = CosetTable(2, 3, S3_GENS)
    rep = tower_quotient_check(subtable(e_table, f_table))
    assert not rep.f_galois
    assert not rep.fiber_decks_normal
    assert rep.part1_holds
    assert rep.part2_holds is None


def test_quotient_check_requires_top_galois():
    t = CosetTable(2, 3, S3_GENS)
    with pytest.raises(ValueError):
        tower_quotient_check(subtable(t, t))


def test_extend_table():
    t = z_table(2)
    t2 = extend_table(t, 2)
    assert t2.rank == 3 and t2.size == 2
    assert t2.action[1].is_identity() and t2.action[2].is_identity()
    assert deck_group(t2).group.element_set() == deck_group(t).group.element_set()


def test_stabilizer_table_trivial_subgroup_is_regular():
    s3 = closure(S3_GENS)
    t = stabilizer_table(s3, [perm(n=3)], S3_GENS)
    assert t.size == 6
    assert is_normal(t)


def _coset_action_by_products(sub, gens):
    """Reference: cosets as sets of permutations, numbered breadth first and
    multiplied out."""
    sub = frozenset(sub)
    cosets, number = [sub], {sub: 1}
    for cs in cosets:
        for g in gens:
            nxt = frozenset(compose(x, g) for x in cs)
            if nxt not in number:
                number[nxt] = len(cosets) + 1
                cosets.append(nxt)
    return [tuple(number[frozenset(compose(x, g) for x in cs)] for cs in cosets)
            for g in gens]


def test_stabilizer_table_numbers_cosets_as_products_do():
    for group in CATALOG.values():
        for sub in all_subgroups(group):
            table = stabilizer_table(group, sub)
            assert [p.images for p in table.action] == \
                _coset_action_by_products(sub, group.generators)


def test_stabilizer_table_rejects_elements_outside_the_group():
    a3 = closure((perm((1, 2, 3), n=3),))
    # {e, (1 2)} is a subgroup of S3 but not of A3, and (1 2) no generator
    with pytest.raises(ValueError):
        stabilizer_table(a3, [perm(n=3), perm((1, 2), n=3)])
    with pytest.raises(ValueError):
        stabilizer_table(a3, [perm(n=3)], [perm((1, 2), n=3)])


def test_json_round_trip():
    t, _ = cayley_table(S3_GENS)
    assert CosetTable.from_json(t.to_json()) == t
    tw = subtable(t, t)
    assert Tower.from_json(tw.to_json()) == tw


@pytest.mark.parametrize("top, mid", [
    (lambda: z_table(12), lambda: z_table(6)),
    (lambda: cayley_table(S3_GENS)[0],
     lambda: stabilizer_table(closure(S3_GENS),
                              [p for p in closure(S3_GENS).elements()
                               if p.order() in (1, 3)], S3_GENS)),
    (lambda: cayley_table(S3_GENS)[0], lambda: CosetTable(2, 3, S3_GENS)),
], ids=["Z12/Z6", "S3/Z2", "S3/non-Galois"])
def test_tower_check_and_restriction_make_no_products_once_decks_exist(
        monkeypatch, top, mid):
    from splitcover import permgroup

    tower = subtable(top(), mid())
    deck_group(tower.top)
    deck_group(tower.mid)
    calls = []
    real = permgroup.compose
    counting = lambda p, q: calls.append(1) or real(p, q)  # noqa: E731
    monkeypatch.setattr(permgroup, "compose", counting)
    report = tower_quotient_check(tower)
    assert report.part1_holds and report.all_verified()
    if report.f_galois:
        res = restriction_hom(tower)
        assert res.is_surjective()
    # every product is a lookup in the deck groups' element indices
    assert calls == []
