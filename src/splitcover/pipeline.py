"""End-to-end pipelines: realize a finite group as the deck group of a
Weierstrass polynomial, and solve semi-topological embedding problems.

Every pipeline run re-verifies its own output: the produced polynomial is
tracked around the generator loops, each step certified (the report's
"tracking" artifact), and the resulting deck group is compared against the
request. A run that cannot verify raises instead of returning silently wrong
artifacts.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import embedding as embedding_mod
from .braid import lift_permutation, tau
from .certify import WeierstrassCertificate, certify
from .embedding import EmbeddingInstance
from .freecover import CosetTable, cayley_table, restriction_hom, subtable
from .monodromy import (
    MonodromyRep,
    characteristic_hom,
    deck_action_on_roots,
    irreducibility_check,
    splitting_cover,
)
from .permgroup import (
    ISO_LIMIT,
    GroupHom,
    PermGroup,
    Permutation,
    conjugate,
    intertwiners,
    isomorphic_as_groups,
)
from .roots import MultipleRootError, RootFindingError
from .synthesis import (
    SynthesisResult,
    SynthesisUnsupported,
    s3_twist_schedule,
    synthesize_abelian,
    synthesize_s3,
)
from .wpoly import (
    BaseSpace,
    GaussianRational,
    WeierstrassPoly,
    default_base_space,
    extend_base_space,
)

ORDER_LIMIT = 24
SCHEMA_VERSION = 1


class VerificationError(RuntimeError):
    """A pipeline finished but its verification verdicts did not all hold."""

    def __init__(self, message: str, report: Optional["PipelineReport"] = None):
        super().__init__(message)
        self.report = report


class IrreducibilityFailureError(RuntimeError):
    """The input polynomial's monodromy is intransitive."""


@dataclass(eq=False)
class PipelineReport:
    command: str
    inputs: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def all_passed(self) -> bool:
        return all(bool(v) for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {"schema_version": self.schema_version, "command": self.command,
                "inputs": self.inputs, "artifacts": self.artifacts,
                "verdicts": dict(self.verdicts), "timings": dict(self.timings)}


class _Stopwatch:
    def __init__(self):
        self.marks: dict = {}
        self._t = time.perf_counter()

    def lap(self, name: str):
        now = time.perf_counter()
        self.marks[name] = round(now - self._t, 6)
        self._t = now


def align_regular_labelings(src: Sequence[Permutation],
                            dst: Sequence[Permutation]) -> Optional[Permutation]:
    """The relabeling pi with conjugate(src_i, pi) == dst_i for every i and
    the smallest pi(1), or None when there is none or dst is intransitive."""
    if len(src) != len(dst) or not src:
        return None
    n = src[0].degree
    if any(p.degree != n for p in list(src) + list(dst)):
        return None
    try:
        found = intertwiners(n, src, dst)
    except ValueError:
        return None
    return found[0] if found else None


def _relabel_rep(rep: MonodromyRep, pi: Permutation) -> MonodromyRep:
    perms = tuple(conjugate(p, pi) for p in rep.perms)
    labels = tuple(rep.root_labels[pi(a) - 1] for a in range(1, rep.degree + 1))
    return MonodromyRep(rep.rank, rep.degree, perms, labels, rep.tracking)


def _hole_centers(space: BaseSpace) -> list[GaussianRational]:
    return [GaussianRational(h.center[0], h.center[1]) for h in space.holes]


def _synthesize_validated(elems, gens, centers, space: BaseSpace
                          ) -> tuple[SynthesisResult, WeierstrassPoly,
                                     WeierstrassCertificate]:
    """Exact synthesis with a deterministic fallback schedule of weights or
    twists; the first candidate whose polynomial is certified Weierstrass on
    the space is returned with that polynomial and its certificate."""
    n = len(elems)
    group = PermGroup(elems[0].degree, tuple(gens))
    kind = (gens[0].order(), gens[1].order()) if len(gens) == 2 else None
    if group.is_abelian():
        schedule = [(f"weight base {base}", functools.partial(
            synthesize_abelian, elems, gens, centers, weight_base=Fraction(base)))
            for base in (1, 2, 3, 5)]
    elif n == 6 and kind in ((2, 3), (3, 2), (2, 2)):
        schedule = [(f"twist {twist}", functools.partial(
            synthesize_s3, elems, gens, centers, twist=twist))
            for twist in s3_twist_schedule(kind)]
    else:
        raise SynthesisUnsupported(
            f"no exact construction for this group (order {n}, "
            f"{len(gens)} generators)")
    failures: list[str] = []
    for label, build in schedule:
        try:
            synth = build()
        except (SynthesisUnsupported, ValueError) as exc:
            failures.append(f"{label}: {exc}")
            continue
        cert = certify(synth.coeffs, space)
        if cert.valid:
            return synth, WeierstrassPoly(n, synth.coeffs), cert
        failures.append(f"{label}: {cert.reason}")
    raise SynthesisUnsupported("; ".join(failures))


def _monodromy(f: WeierstrassPoly, space: BaseSpace,
               root_labels: Optional[Sequence[complex]] = None) -> MonodromyRep:
    """characteristic_hom of f, every pipeline's one way to track; raises
    VerificationError when a root solve failed, or a coefficient overflowed,
    because the discriminant vanishes identically."""
    try:
        return characteristic_hom(f, space, root_labels)
    except (MultipleRootError, RootFindingError):
        # decided exactly only once a root solve has failed: runs that
        # succeed pay nothing for it
        reason = certify(f.coeffs, space).reason
        if reason == "the discriminant vanishes identically":
            raise VerificationError(reason) from None
        raise


def _check_order(G: PermGroup) -> int:
    """The order of G, or ValueError when realize cannot take it."""
    n = G.order()
    if n > ORDER_LIMIT:
        raise ValueError(f"group order {n} exceeds the limit {ORDER_LIMIT}")
    return n


def realize_group(G: PermGroup, space: Optional[BaseSpace] = None
                  ) -> tuple[WeierstrassPoly, PipelineReport]:
    """Produce a Weierstrass polynomial whose splitting-cover deck group is
    isomorphic to G, with one base-space hole per given generator.

    The coefficient map realizing the regular representation is synthesized
    exactly, and the certificate proves that its discriminant has no zero on
    the space. Groups without an exact synthesis, or whose every candidate
    fails the certificate, raise SynthesisUnsupported. The tracked monodromy
    of the output polynomial must match the regular generator images
    exactly.
    """
    watch = _Stopwatch()
    n = _check_order(G)
    m = len(G.generators)
    if space is None:
        space = default_base_space(m)
    if len(space.holes) != m:
        raise ValueError("one hole per generator required")

    # the regular representation: right translation of G on its elements
    regular, regular_group = cayley_table(G.generators)
    reg = regular.action
    braid_words = tuple(lift_permutation(p) for p in reg)
    for word, p in zip(braid_words, reg):
        if tau(word) != p:
            raise AssertionError("braid lift lost its permutation")
    watch.lap("regular_representation")

    report = PipelineReport(command="realize")
    report.inputs = {"group": G.to_json(), "base_space": space.to_json()}
    report.artifacts["braid_words"] = [w.to_json() for w in braid_words]
    report.artifacts["regular_generators"] = [p.to_json() for p in reg]

    synth, f, cert = _synthesize_validated(
        regular_group.elements(), G.generators, _hole_centers(space), space)
    report.artifacts["synthesis"] = synth.description
    report.artifacts["certificate"] = cert.to_json()
    watch.lap("synthesis")

    labels = synth.root_labels_at(_basepoint_complex(space))
    rep = _monodromy(f, space, root_labels=labels)
    if synth.target_perms is None:
        pi = align_regular_labelings(rep.perms, reg)
        if pi is not None:
            rep = _relabel_rep(rep, pi)
    watch.lap("tracking")

    table, deck, monodromy_group = splitting_cover(rep)
    iso = (isomorphic_as_groups(deck.group, G) if deck.group.order() <= ISO_LIMIT
           else None)
    _, faithful = deck_action_on_roots(deck, monodromy_group)
    watch.lap("verification")

    report.artifacts["monodromy"] = rep.to_json()
    report.artifacts["tracking"] = rep.tracking
    report.artifacts["polynomial"] = f.to_json()
    report.artifacts["splitting_cover"] = table.to_json()
    report.artifacts["deck_order"] = deck.group.order()
    if iso is not None:
        report.artifacts["deck_isomorphism_gen_images"] = [
            p.to_json() for p in iso.generator_images()]
    report.verdicts = {
        "certificate_valid": cert.valid,
        "monodromy_matches_regular_targets": rep.perms == reg,
        "splitting_fiber_equals_group_order": table.size == n,
        "covering_galois": deck.is_galois(),
        "deck_group_isomorphic_to_input": iso is not None,
        "deck_action_on_roots_faithful": faithful,
        "irreducible": irreducibility_check(rep),
    }
    report.timings = watch.marks
    if not report.all_passed():
        failing = [k for k, v in report.verdicts.items() if not v]
        raise VerificationError(f"realization failed verification: {failing}",
                                report)
    return f, report


def _basepoint_complex(space: BaseSpace) -> complex:
    return complex(float(space.basepoint[0]), float(space.basepoint[1]))


def solve_semitop_embedding(g: WeierstrassPoly, space: BaseSpace,
                            H: PermGroup, phi_images: Sequence[Permutation], *,
                            allow_rank_extension: bool = True,
                            ) -> tuple[WeierstrassPoly, PipelineReport]:
    """Given an irreducible g and a surjection of H onto its deck group,
    produce a polynomial h whose splitting covering solves the embedding
    problem over g, verified at the coset-table level and by exact
    monodromy match. An H that realize cannot take is refused before any
    tracking."""
    watch = _Stopwatch()
    _check_order(H)
    rep_g = _monodromy(g, space)
    if not irreducibility_check(rep_g):
        raise IrreducibilityFailureError(
            "the base polynomial's monodromy is intransitive")
    f_table, f_deck, _ = splitting_cover(rep_g)
    watch.lap("base_monodromy")

    phi = GroupHom.from_generator_images(H, f_deck.group, tuple(phi_images))
    instance = EmbeddingInstance(space.rank, f_table, H, phi)
    solution = embedding_mod.solve(instance, allow_rank_extension)
    extra = solution.rank_used - space.rank
    watch.lap("embedding_solve")

    space2 = extend_base_space(space, extra)
    realized_group = PermGroup(H.degree, solution.images)
    h, realize_report = realize_group(realized_group, space2)
    rep_h = MonodromyRep.from_json(realize_report.artifacts["monodromy"])
    watch.lap("realize")

    # the realized cover is the solver's, whose tower and restriction
    # triangle embedding.solve has already verified
    matches = CosetTable.from_json(
        realize_report.artifacts["splitting_cover"]) == solution.E_cover
    tower = solution.tower if matches else None

    # with no hole added the space is the same and so is the monodromy
    rep_g2 = rep_g if extra == 0 else _monodromy(
        g, space2, root_labels=rep_g.root_labels)
    base_stable = (rep_g2.perms[:space.rank] == rep_g.perms and
                   all(p.is_identity() for p in rep_g2.perms[space.rank:]))
    watch.lap("tower_verification")

    report = PipelineReport(command="embed")
    report.inputs = {"H": H.to_json(), "phi_gen_images": [p.to_json() for p in phi_images],
                     "base_space": space.to_json(),
                     "allow_rank_extension": allow_rank_extension}
    report.artifacts = {
        "base_monodromy": rep_g.to_json(),
        "embedding_solution": solution.to_json(),
        "rank_used": solution.rank_used,
        "extended_base_space": space2.to_json(),
        "realization": realize_report.to_json(),
        "tower": tower.to_json() if tower is not None else None,
        "tracking": {"base": rep_g.tracking,
                     "extended_base": rep_g2.tracking if extra else None,
                     "realize": realize_report.artifacts["tracking"]},
    }
    report.verdicts = {
        # solve raises SolutionCheckError unless its solution verifies
        "solution_verified": True,
        "realized_cover_matches_solver": matches,
        "monodromy_matches_solver_targets":
            rep_h.perms == tuple(solution.E_cover.action),
        "tower_exists": tower is not None,
        "restriction_triangle": matches,
        "output_irreducible": irreducibility_check(rep_h),
        "base_monodromy_stable_under_extension": base_stable,
    }
    report.timings = dict(watch.marks)
    report.timings.update(
        {f"realize.{k}": v for k, v in realize_report.timings.items()})
    if not report.all_passed():
        failing = [k for k, v in report.verdicts.items() if not v]
        raise VerificationError(f"embedding pipeline failed: {failing}", report)
    return h, report


def run_monodromy(f: WeierstrassPoly, space: BaseSpace) -> PipelineReport:
    """Track a polynomial's monodromy and report the derived structure."""
    watch = _Stopwatch()
    rep = _monodromy(f, space)
    table, deck, monodromy_group = splitting_cover(rep)
    _, faithful = deck_action_on_roots(deck, monodromy_group)
    watch.lap("monodromy")
    report = PipelineReport(command="monodromy")
    report.inputs = {"polynomial": f.to_json(), "base_space": space.to_json()}
    report.artifacts = {
        "monodromy": rep.to_json(),
        "tracking": rep.tracking,
        "irreducible": irreducibility_check(rep),
        "splitting_cover": table.to_json(),
        "deck_order": deck.group.order(),
        "galois": deck.is_galois(),
    }
    report.verdicts = {
        "fiber_size_equals_deck_order": table.size == deck.group.order(),
        "deck_action_on_roots_faithful": faithful,
    }
    report.timings = watch.marks
    return report


def run_verify_tower(h: WeierstrassPoly, g: WeierstrassPoly, space: BaseSpace,
                     H: PermGroup, phi_images: Sequence[Permutation],
                     psi_images: Sequence[Permutation]) -> PipelineReport:
    """Re-derive both splitting coverings over the same base space and check
    that psi and phi close the restriction triangle."""
    watch = _Stopwatch()
    rep_g = _monodromy(g, space)
    rep_h = _monodromy(h, space)
    g_table, g_deck, _ = splitting_cover(rep_g)
    h_table, h_deck, _ = splitting_cover(rep_h)
    tower = subtable(h_table, g_table)
    watch.lap("monodromy")

    verdicts = {
        "g_irreducible": irreducibility_check(rep_g),
        "e_g_galois": g_deck.is_galois(),
        "e_h_galois": h_deck.is_galois(),
        "tower_exists": tower is not None,
    }
    psi = phi = None
    try:
        phi = GroupHom.from_generator_images(H, g_deck.group, tuple(phi_images))
        psi = GroupHom.from_generator_images(H, h_deck.group, tuple(psi_images))
        verdicts["phi_surjective"] = phi.is_surjective()
        verdicts["psi_bijective"] = psi.is_bijective()
    except ValueError:
        verdicts["phi_surjective"] = False
        verdicts["psi_bijective"] = False
    if tower is not None and psi is not None and phi is not None:
        res = restriction_hom(tower)
        verdicts["restriction_triangle"] = all(
            res(psi(x)) == phi(x) for x in H.elements())
    else:
        verdicts["restriction_triangle"] = False
    watch.lap("verification")

    report = PipelineReport(command="verify-tower")
    report.inputs = {"H": H.to_json(), "base_space": space.to_json()}
    report.artifacts = {
        "monodromy_g": rep_g.to_json(), "monodromy_h": rep_h.to_json(),
        "tower": tower.to_json() if tower is not None else None,
        "tracking": {"g": rep_g.tracking, "h": rep_h.tracking},
    }
    report.verdicts = verdicts
    report.timings = watch.marks
    return report
