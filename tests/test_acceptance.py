"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from catalog import CATALOG, EXPECTED_ORDERS, all_subgroups, generating_pairs, perm
from splitcover.braid import lift_permutation, tau
from splitcover.embedding import (
    EmbeddingInstance,
    cayley_deck_labeling,
    solve,
    verify,
)
from splitcover.freecover import (
    cayley_table,
    stabilizer_table,
    subtable,
    tower_quotient_check,
)
from splitcover.monodromy import (
    MonodromyRep,
    irreducibility_check,
    refine_and_compare,
)
from splitcover.permgroup import (
    PermGroup,
    Permutation,
    closure,
    isomorphic_as_groups,
)
from splitcover.pipeline import realize_group, solve_semitop_embedding
from splitcover.wpoly import (
    BivariatePolyQi,
    GaussianRational,
    LoopPath,
    WeierstrassPoly,
    default_base_space,
    generator_loops,
)


def _report(num, name, detail, elapsed):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}] in {elapsed:.1f}s")


def test_catalog_is_as_expected():
    for name, group in CATALOG.items():
        assert group.order() == EXPECTED_ORDERS[name], name


# -- criterion 1: normality and quotient isomorphism over exhaustive towers --

# SHA-256 over the fields of every criterion-1 tower report and over
# EmbeddingSolution.to_json() of every criterion-2 instance, in loop order:
# a change to the discrete layer that alters any report or solution, or the
# generator lists of the deck groups a solution serializes, fails here
CRITERION_1_DIGEST = (
    "8bd70e9bcde0c766a557e8d602356f0502e0cbbf53390ac686a1bf22dcb51f7e")
CRITERION_2_DIGEST = (
    "747cafa766146f05fd01ac5c085aff21b1831a35b0700d526fc618c8f7d61060")


def _digest_line(value) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode()


def _report_fields(report):
    return [report.f_galois, [p.images for p in report.fiber_decks],
            report.fiber_decks_normal, report.part1_holds,
            report.kernel_matches_fiber_decks, report.quotient_order,
            report.part2_holds]


def test_criterion_1_tower_theorem():
    start = time.time()
    towers = 0
    digest = hashlib.sha256()
    for name, group in CATALOG.items():
        subgroups = all_subgroups(group)
        for a, b in generating_pairs(group):
            e_table, _ = cayley_table((a, b))
            for sub in subgroups:
                f_table = stabilizer_table(group, sub, (a, b))
                tower = subtable(e_table, f_table)
                assert tower is not None, (name, a, b)
                report = tower_quotient_check(tower)
                digest.update(_digest_line(_report_fields(report)))
                assert report.part1_holds, (name, a, b, len(sub))
                if report.f_galois:
                    assert report.part2_holds, (name, a, b, len(sub))
                    assert report.kernel_matches_fiber_decks
                    assert report.quotient_order * len(report.fiber_decks) \
                        == e_table.size
                towers += 1
    elapsed = time.time() - start
    assert digest.hexdigest() == CRITERION_1_DIGEST
    assert elapsed < 60, f"criterion 1 exceeded 60s: {elapsed:.1f}"
    _report(1, "tower normality and quotient", f"{towers} towers", elapsed)


# -- criterion 2: embedding solver over all catalog surjections --

def _surjections_up_to_automorphism(H, G):
    """One surjection H ->> G per kernel, or none when G is not a quotient."""
    out = []
    order_ratio, rem = divmod(H.order(), G.order())
    if rem:
        return out
    from catalog import is_normal_subgroup
    for sub in all_subgroups(H):
        if len(sub) != order_ratio or not is_normal_subgroup(H, sub):
            continue
        q_table = stabilizer_table(H, sub, H.generators)
        quotient = PermGroup(q_table.size, q_table.action)
        iso = isomorphic_as_groups(quotient, G)
        if iso is None:
            continue
        out.append(tuple(iso(p) for p in q_table.action))
    return out


def test_criterion_2_embedding_solver():
    start = time.time()
    instances = failures = 0
    digest = hashlib.sha256()
    for g_name, G in CATALOG.items():
        f_table, _ = cayley_table(G.generators)
        labeling = cayley_deck_labeling(G.generators)
        for h_name, H in CATALOG.items():
            if H.order() > 16:
                continue
            for images_in_g in _surjections_up_to_automorphism(H, G):
                phi_images = tuple(labeling(p) for p in images_in_g)
                from splitcover.permgroup import GroupHom
                phi = GroupHom.from_generator_images(
                    H, labeling.target, phi_images)
                inst = EmbeddingInstance(f_table.rank, f_table, H, phi)
                solution = solve(inst, allow_rank_extension=True)
                digest.update(_digest_line(solution.to_json()))
                instances += 1
                if not verify(solution, inst):
                    failures += 1
    elapsed = time.time() - start
    # one instance per kernel class: 23 over the cyclic groups, 2 for S3,
    # 4 each for D4 and Q8, 2 for A4, 5 for D6
    assert instances == 40
    assert digest.hexdigest() == CRITERION_2_DIGEST
    assert failures == 0
    assert elapsed < 300, f"criterion 2 exceeded 5min: {elapsed:.1f}"
    _report(2, "embedding solver", f"{instances} instances, 0 failures", elapsed)


# -- criterion 3: braid lift round trip --

def test_criterion_3_braid_lift():
    start = time.time()
    rng = random.Random(20260809)
    checked = 0
    for n in range(2, 9):
        for _ in range(1000):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert tau(lift_permutation(p)) == p
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0, f"criterion 3 exceeded 1s: {elapsed:.2f}"
    _report(3, "braid lift", f"{checked} permutations", elapsed)


# -- criterion 4: monodromy engine on power models --

def _power_model(k):
    x = default_base_space(1)
    coeffs = [BivariatePolyQi({(1, 0): GaussianRational(Fraction(-1)),
                               (0, 1): GaussianRational(Fraction(0), Fraction(-1))})]
    coeffs += [BivariatePolyQi.zero()] * (k - 1)
    return WeierstrassPoly(k, coeffs), x


def test_criterion_4_monodromy_engine():
    start = time.time()
    for k in range(2, 7):
        f, x = _power_model(k)
        loop = generator_loops(x)[0]
        p = refine_and_compare(f, loop)
        cycles = p.cycles()
        assert len(cycles) == 1 and len(cycles[0]) == k, k
        bp = x.basepoint
        half = Fraction(1, 2)
        square = LoopPath((
            (bp[0] - half, bp[1] - half), (bp[0] + half, bp[1] - half),
            (bp[0] + half, bp[1] + half), (bp[0] - half, bp[1] + half),
            (bp[0] - half, bp[1] - half)))
        assert refine_and_compare(f, square).is_identity(), k
    elapsed = time.time() - start
    assert elapsed < 30, f"criterion 4 exceeded 30s: {elapsed:.1f}"
    _report(4, "monodromy engine", "k-cycles and contractible loops, k=2..6",
            elapsed)


# -- criteria 5-7: realization and embedding pipelines --

REALIZE_TARGETS = {
    "Z2": CATALOG["Z2"], "Z3": CATALOG["Z3"], "Z4": CATALOG["Z4"],
    "V4": closure((perm((1, 2), (3, 4), n=4), perm((1, 3), (2, 4), n=4))),
    "S3": CATALOG["S3"],
}


@pytest.fixture(scope="module")
def realizations():
    out = {}
    for name, group in REALIZE_TARGETS.items():
        t0 = time.time()
        poly, report = realize_group(group)
        out[name] = (poly, report, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def embeddings(realizations):
    g_poly, g_report, _ = realizations["Z2"]
    space = default_base_space(1)
    s = Permutation((2, 1))
    out = {}
    t0 = time.time()
    out["Z4"] = (*solve_semitop_embedding(g_poly, space, CATALOG["Z4"], (s,)),
                 time.time() - t0)
    v4 = REALIZE_TARGETS["V4"]
    t0 = time.time()
    out["V4"] = (*solve_semitop_embedding(
        g_poly, space, v4, (s, Permutation.identity(2))), time.time() - t0)
    return out


# SHA-256 over the polynomial JSON, the monodromy permutations and the
# verdicts of every realization and embedding above, in fixture order: a
# change to synthesis, tracking or the pipelines that alters any of them
# fails here
PIPELINE_DIGEST = (
    "6e081ef4e33fda25b667cd24c7f678887e4a4d8df050551dc94713413df49bcb")


def test_realize_and_embed_outputs_are_pinned(realizations, embeddings):
    digest = hashlib.sha256()
    for name, (poly, report, _) in realizations.items():
        digest.update(_digest_line(
            [name, poly.to_json(), report.artifacts["monodromy"]["perms"],
             report.verdicts]))
    for name, (poly, report, _) in embeddings.items():
        nested = report.artifacts["realization"]
        digest.update(_digest_line(
            [name, poly.to_json(), nested["artifacts"]["monodromy"]["perms"],
             report.verdicts, nested["verdicts"]]))
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_criterion_5_realization_pipeline(realizations):
    total = 0.0
    for name, group in REALIZE_TARGETS.items():
        poly, report, elapsed = realizations[name]
        total += elapsed
        n = group.order()
        # every zero of the exact discriminant inside the outer disc lies in
        # a hole, so none lies on the space
        cert = report.artifacts["certificate"]
        assert cert["valid"], name
        assert len(cert["zeros_per_hole"]) == len(group.generators), name
        assert sum(cert["zeros_per_hole"]) == cert["zeros_in_outer_disc"], name
        assert poly.degree == n, name
        assert report.artifacts["deck_order"] == n, name
        assert report.verdicts["deck_group_isomorphic_to_input"], name
        assert "deck_isomorphism_gen_images" in report.artifacts, name
        if name == "S3":
            assert elapsed < 300, f"S3 realization took {elapsed:.1f}s"
    _report(5, "realization pipeline", "Z2 Z3 Z4 V4 S3, valid certificates",
            total)


def test_criterion_6_embedding_pipeline(embeddings):
    for name, (poly, report, elapsed) in embeddings.items():
        assert report.verdicts["restriction_triangle"], name
        assert report.verdicts["monodromy_matches_solver_targets"], name
        assert report.verdicts["realized_cover_matches_solver"], name
        assert report.verdicts["output_irreducible"], name
        assert poly.degree == 4, name
        assert elapsed < 300, f"{name} embedding took {elapsed:.1f}s"
    assert embeddings["V4"][1].artifacts["rank_used"] == 2
    assert embeddings["Z4"][1].artifacts["rank_used"] == 1
    total = sum(e for _, _, e in embeddings.values())
    _report(6, "embedding pipeline", "Z4 and V4 over the realized Z2 base",
            total)


def test_criterion_7_root_action_faithful(realizations, embeddings):
    start = time.time()
    runs = checked = 0
    for name, (_, report, _) in realizations.items():
        runs += 1
        if report.verdicts["deck_action_on_roots_faithful"]:
            checked += 1
    for name, (_, report, _) in embeddings.items():
        runs += 1
        nested = report.artifacts["realization"]
        if nested["verdicts"]["deck_action_on_roots_faithful"]:
            checked += 1
    assert checked == runs
    _report(7, "faithful root action", f"{checked}/{runs} pipeline runs",
            time.time() - start)


# -- criterion 8: irreducibility against union-find connectivity --

def test_criterion_8_irreducibility_union_find():
    start = time.time()
    rng = random.Random(8881)
    for _ in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(1, 3)
        perms = []
        for _ in range(m):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        labels = tuple(complex(3 * k, k % 2) for k in range(n))
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
        connected = len({find(i) for i in range(1, n + 1)}) == 1
        assert irreducibility_check(rep) == connected
    _report(8, "irreducibility criterion", "200 random representations",
            time.time() - start)
