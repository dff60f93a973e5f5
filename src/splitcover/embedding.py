"""Solver for the Galois embedding problem over coverings of a wedge of circles.

Given a Galois covering F with deck group D and a surjection phi from a finite
group H onto D, find a Galois covering E over F with deck group H such that
phi factors as the restriction map composed with the labeling isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import NoSolutionError, VerificationError
from .freecover import (
    CosetTable,
    Tower,
    cayley_table,
    deck_group,
    extend_table,
    restriction_hom,
    subtable,
)
from .permgroup import (
    GroupHom,
    PermGroup,
    Permutation,
    inverse,
)


@dataclass(frozen=True, eq=False)
class EmbeddingInstance:
    base_rank: int
    F_cover: CosetTable
    H: PermGroup
    phi: GroupHom

    def validate(self):
        """Raise ValueError unless F is a Galois covering of the base and phi
        maps H onto its deck group."""
        if self.base_rank != self.F_cover.rank:
            raise ValueError("base rank must match the covering rank")
        deck = deck_group(self.F_cover)
        if not deck.is_galois():
            raise ValueError("F must be a Galois covering")
        if self.phi.source is not self.H and \
                self.phi.source.element_set() != self.H.element_set():
            raise ValueError("phi must be defined on H")
        if self.phi.image_elements() != deck.group.element_set():
            raise ValueError("phi must be surjective onto the deck group of F")

    def to_json(self) -> dict:
        return {"base_rank": self.base_rank, "F_cover": self.F_cover.to_json(),
                "H": self.H.to_json(), "phi": self.phi.to_json()}


@dataclass(frozen=True, eq=False)
class EmbeddingSolution:
    E_cover: CosetTable
    tower: Tower
    psi: GroupHom
    rank_used: int
    images: tuple[Permutation, ...]

    def to_json(self) -> dict:
        return {"E_cover": self.E_cover.to_json(), "tower": self.tower.to_json(),
                "psi": self.psi.to_json(), "rank_used": self.rank_used,
                "images": [p.to_json() for p in self.images]}


def canonical_monodromy(table: CosetTable) -> tuple[Permutation, ...]:
    """Deck transformation induced by each free generator of the base, for
    a Galois covering.

    Generator xi is sent to the deck transformation moving the basepoint to
    the endpoint of the lift of xi^-1; with left-to-right composition this is
    the homomorphism onto the deck group whose kernel is the covering's
    subgroup.
    """
    deck = deck_group(table)
    if not deck.is_galois():
        raise ValueError("canonical monodromy requires a Galois covering")
    # a Galois deck group moves the basepoint to every coset
    return tuple(deck.from_basepoint_image(inverse(p)(1)) for p in table.action)


def cayley_deck_labeling(images: Sequence[Permutation]) -> GroupHom:
    """Isomorphism from the group generated by ``images`` onto the deck group
    of its regular covering: h acts on cosets by left translation by h^-1."""
    table, group = cayley_table(images)
    return _deck_labeling(group, table, group.elements())


def _deck_labeling(source: PermGroup, table: CosetTable, elems: tuple) -> GroupHom:
    """cayley_deck_labeling on ``source``, the group whose generating images
    cayley_table turned into ``table``, with the elements of the image group
    in coset order.

    Left translation by h^-1 is the deck transformation sending the
    basepoint, the coset of the identity, to the coset of h^-1, and a deck
    transformation is pinned by its basepoint image."""
    coset = {e: i + 1 for i, e in enumerate(elems)}
    index = source.index()
    inv = index.inverses
    deck = deck_group(table)
    mapping = {h: deck.from_basepoint_image(
        coset[index.elements[inv[index.position[h]]]]) for h in elems}
    return GroupHom(source, deck.group, mapping)


def _first_generating_assignment(fibers, H: PermGroup):
    """The first assignment, in itertools.product order over the fibers,
    whose elements generate H."""
    index = H.index()
    order = len(index.elements)
    for assignment in itertools.product(
            *[[index.position[h] for h in fiber] for fiber in fibers]):
        if len(index.generated(assignment)) == order:
            return tuple(index.elements[k] for k in assignment)
    return None


def solve(instance: EmbeddingInstance,
          allow_rank_extension: bool = True) -> EmbeddingSolution:
    """Search preimage assignments of the canonical monodromy under phi.

    Each base generator must be sent to an element of H lying over its
    canonical deck transformation; any assignment whose images generate H
    yields the regular covering of H as a solution. If none generates and
    extension is allowed, fresh generators mapped to kernel generators are
    appended (new holes in the base space), and the first preimages then
    generate.
    """
    instance.validate()
    H, phi, F = instance.H, instance.phi, instance.F_cover
    eta = canonical_monodromy(F)
    elements = H.elements()
    # phi is onto the deck group, which holds every eta: no fiber is empty
    fibers = [tuple(h for h in elements if phi(h) == d) for d in eta]

    assignment = _first_generating_assignment(fibers, H)
    extra = 0
    if assignment is None:
        if not allow_rank_extension:
            raise NoSolutionError(
                "no preimage assignment generates H and rank extension is disabled")
        kernel = phi.kernel_elements()
        index = H.index()
        kernel_gens = [index.elements[k] for k in index.reduce(
            [index.position[p] for p in kernel], len(kernel))]
        extra = len(kernel_gens)
        # any preimages of the canonical monodromy, which generates the deck
        # group, map onto it, so with generators of ker phi they generate H
        assignment = tuple(f[0] for f in fibers) + tuple(kernel_gens)

    table, group = cayley_table(assignment, H.degree)
    psi = _deck_labeling(H, table, group.elements())

    tower = subtable(table, extend_table(F, extra))
    if tower is None:
        raise VerificationError("constructed covering does not factor through F")

    solution = EmbeddingSolution(
        E_cover=table, tower=tower, psi=psi,
        rank_used=instance.base_rank + extra, images=tuple(assignment))
    if not verify(solution, instance):
        raise VerificationError("constructed solution failed verification")
    return solution


def verify(solution: EmbeddingSolution, instance: EmbeddingInstance) -> bool:
    """Check psi is a labeling isomorphism and phi factors through restriction."""
    try:
        psi = solution.psi
        if solution.tower.top != solution.E_cover:
            return False
        if not psi.is_bijective():
            return False
        # raises ValueError unless both coverings of the tower are Galois
        res = restriction_hom(solution.tower)
        phi = instance.phi
        return all(res(psi(h)) == phi(h) for h in instance.H.elements())
    except (ValueError, KeyError):
        return False
