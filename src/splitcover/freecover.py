"""Finite-index subgroups of a free group as based graph coverings.

A transitive action of the rank-m free group on cosets {1..k} is a connected
covering of a wedge of m circles; the basepoint is always coset 1 and the
represented subgroup is its stabilizer. Deck transformations are the
permutations of cosets commuting with the generator action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .permgroup import (
    GroupHom,
    PermGroup,
    Permutation,
    centralizer_in_sym,
    closure,
    inverse,
    json_int,
)


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word in generators x1..xm, letters +-i."""

    letters: tuple[int, ...]

    def __post_init__(self):
        for a in self.letters:
            if not isinstance(a, int) or a == 0:
                raise ValueError(f"letters must be nonzero integers: {self.letters!r}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word is not freely reduced: {self.letters!r}")

    @staticmethod
    def of(*letters: int) -> "FreeWord":
        return FreeWord(reduce_word(letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(reduce_word(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple(-a for a in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


def reduce_word(letters) -> tuple[int, ...]:
    """Free reduction: cancel every adjacent pair of a letter and its inverse."""
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class CosetTable:
    """Based connected covering of a wedge of circles, one permutation per circle."""

    rank: int
    size: int
    action: tuple[Permutation, ...]
    # the deck group, computed by deck_group on first use
    _deck: Optional["DeckGroup"] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if len(self.action) != self.rank:
            raise ValueError("one action permutation per generator required")
        for p in self.action:
            if p.degree != self.size:
                raise ValueError("action degree does not match table size")
        if len(PermGroup(self.size, self.action).orbit(1)) != self.size:
            raise ValueError("action is not transitive: covering would be disconnected")

    def to_json(self) -> dict:
        return {"rank": self.rank, "size": self.size,
                "action": [p.to_json() for p in self.action]}

    @classmethod
    def from_json(cls, data: Mapping) -> "CosetTable":
        return cls(json_int(data["rank"]), json_int(data["size"]),
                   tuple(Permutation.from_json(p) for p in data["action"]))


def act(table: CosetTable, word: FreeWord, coset: int) -> int:
    """Endpoint of the lift of ``word`` starting at ``coset``."""
    if not 1 <= coset <= table.size:
        raise ValueError(f"coset {coset} out of range 1..{table.size}")
    c = coset
    for a in word.letters:
        i = abs(a)
        if i > table.rank:
            raise ValueError(f"letter {a} exceeds rank {table.rank}")
        p = table.action[i - 1] if a > 0 else inverse(table.action[i - 1])
        c = p(c)
    return c


def cayley_table(images: Sequence[Permutation], degree: Optional[int] = None):
    """Regular covering for the right-multiplication action of the image group.

    Returns the coset table together with the image group, generated by the
    images, whose ``elements()`` are in coset order (coset 1 is the
    identity), so callers can label cosets by elements. The table is also
    the coset table of the kernel of the homomorphism sending xi to
    images[i]. With no images the group is trivial, on ``degree`` points (1
    by default).
    """
    if not images:
        return CosetTable(0, 1, ()), closure((), 1 if degree is None else degree)
    group = closure(tuple(images))
    index = group.index()
    action = tuple(
        Permutation(tuple([k + 1 for k in index.column(index.position[g])]))
        for g in images)
    return CosetTable(len(images), len(index.elements), action), group


@dataclass(frozen=True, eq=False)
class DeckGroup:
    """Label-preserving automorphisms of a coset-table covering with
    ``size`` cosets."""

    size: int
    group: PermGroup
    by_basepoint: dict = field(repr=False)

    def is_galois(self) -> bool:
        return self.group.order() == self.size

    def from_basepoint_image(self, coset: int) -> Optional[Permutation]:
        return self.by_basepoint.get(coset)


def deck_group(table: CosetTable) -> DeckGroup:
    """Deck transformations, computed as the centralizer of the action image
    once per table and kept on it.

    The covering is Galois exactly when this group acts transitively on the
    cosets, which for a centralizer of a transitive group means its order
    equals the number of cosets.
    """
    if table._deck is None:
        group = centralizer_in_sym(PermGroup(table.size, table.action))
        by_basepoint = {p(1): p for p in group.elements()}
        object.__setattr__(table, "_deck", DeckGroup(table.size, group, by_basepoint))
    return table._deck


@dataclass(frozen=True)
class Tower:
    """A covering factored through an intermediate covering of the same base."""

    top: CosetTable
    mid: CosetTable
    projection: tuple[int, ...]

    def __post_init__(self):
        if self.top.rank != self.mid.rank:
            raise ValueError("towers require equal rank")
        if len(self.projection) != self.top.size:
            raise ValueError("projection must cover every top coset")
        if self.projection[0] != 1:
            raise ValueError("projection must preserve the basepoint")
        for i in range(self.top.rank):
            up, down = self.top.action[i], self.mid.action[i]
            for c in range(1, self.top.size + 1):
                if self.projection[up(c) - 1] != down(self.projection[c - 1]):
                    raise ValueError(
                        f"projection not equivariant at coset {c}, generator {i + 1}")

    def to_json(self) -> dict:
        return {"top": self.top.to_json(), "mid": self.mid.to_json(),
                "projection": list(self.projection)}

    @classmethod
    def from_json(cls, data: Mapping) -> "Tower":
        return cls(CosetTable.from_json(data["top"]), CosetTable.from_json(data["mid"]),
                   tuple(json_int(v) for v in data["projection"]))


def subtable(big: CosetTable, small: CosetTable) -> Optional[Tower]:
    """Basepoint-preserving equivariant projection big -> small, if one exists.

    Exists exactly when the subgroup represented by ``big`` is contained in
    the one represented by ``small``; absence is reported as None.
    """
    if big.rank != small.rank:
        raise ValueError("tables must have equal rank")
    moves = [(p.images, q.images) for p, q in zip(big.action, small.action)]
    moves += [(inverse(p).images, inverse(q).images)
              for p, q in zip(big.action, small.action)]
    proj = [0] * (big.size + 1)
    proj[1] = 1
    frontier = [1]
    for c in frontier:
        for up, down in moves:
            c2, target = up[c - 1], down[proj[c] - 1]
            if proj[c2] == 0:
                proj[c2] = target
                frontier.append(c2)
            elif proj[c2] != target:
                return None
    return Tower(big, small, tuple(proj[1:]))


def extend_table(table: CosetTable, extra: int) -> CosetTable:
    """Same covering over a base with ``extra`` new circles lifting trivially."""
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    if extra == 0:
        return table
    pad = (Permutation.identity(table.size),) * extra
    return CosetTable(table.rank + extra, table.size, table.action + pad)


def restriction_hom(tower: Tower) -> GroupHom:
    """Induced map between deck groups, pinned by the basepoint image.

    Each top deck transformation descends to the unique mid deck
    transformation agreeing with it under the projection at the basepoint;
    the result is surjective with kernel the fiber-preserving decks.
    """
    deck_top, deck_mid = deck_group(tower.top), deck_group(tower.mid)
    if not deck_top.is_galois() or not deck_mid.is_galois():
        raise ValueError("restriction requires both coverings to be Galois")
    mapping = {}
    for lam in deck_top.group.elements():
        mu = deck_mid.from_basepoint_image(tower.projection[lam.images[0] - 1])
        if mu is None:
            raise ValueError("projection image misses the mid deck group")
        mapping[lam] = mu
    return GroupHom(deck_top.group, deck_mid.group, mapping)


@dataclass(frozen=True, eq=False)
class TowerQuotientReport:
    """Checked facts about one covering factored through another."""

    f_galois: bool
    fiber_decks: tuple[Permutation, ...]
    fiber_decks_normal: bool
    part1_holds: bool
    kernel_matches_fiber_decks: Optional[bool]
    quotient_order: Optional[int]
    part2_holds: Optional[bool]


def tower_quotient_check(tower: Tower) -> TowerQuotientReport:
    """Verify normality and the quotient isomorphism for one tower.

    Requires the top covering to be Galois over the base. Checks that the mid
    covering is Galois exactly when the fiber-preserving decks form a normal
    subgroup, and, when it is, that the restriction map is onto with kernel
    the fiber-preserving decks, which by the first isomorphism theorem makes
    the top deck group modulo them isomorphic to the mid deck group.
    """
    deck_top = deck_group(tower.top)
    if not deck_top.is_galois():
        raise ValueError("top covering must be Galois over the base")
    proj = tower.projection
    index = deck_top.group.index()
    tops = index.elements
    in_fiber = [k for k, lam in enumerate(tops)
                if all(proj[v - 1] == p for v, p in zip(lam.images, proj))]
    fiber = tuple(tops[k] for k in in_fiber)
    fiber_set = frozenset(fiber)
    # closed under conjugation by a generating set means normal; a deck
    # group lists every element as a generator, so pick a few first
    gens = deck_top.group.reduced_positions
    inv, product, members = index.inverses, index.product, set(in_fiber)
    normal = all(product(product(inv[lam], k), lam) in members
                 for lam in gens for k in in_fiber)
    deck_mid = deck_group(tower.mid)
    f_galois = deck_mid.is_galois()
    part1 = (f_galois == normal)

    kernel_ok = quotient_order = part2 = None
    if f_galois:
        res = restriction_hom(tower)
        kernel_ok = frozenset(res.kernel_elements()) == fiber_set
        part2 = kernel_ok and res.is_surjective()
        quotient_order = len(tops) // len(fiber)

    return TowerQuotientReport(
        f_galois=f_galois,
        fiber_decks=fiber,
        fiber_decks_normal=normal,
        part1_holds=part1,
        kernel_matches_fiber_decks=kernel_ok,
        quotient_order=quotient_order,
        part2_holds=part2,
    )


def stabilizer_table(group: PermGroup, subgroup_elements: Sequence[Permutation],
                     generators: Optional[Sequence[Permutation]] = None) -> CosetTable:
    """Action of chosen generators on the right cosets of a subgroup.

    The subgroup must actually be closed under products; cosets are numbered
    breadth first with the subgroup itself as coset 1. A coset is a set of
    positions in the group's element index; an element or generator outside
    the group raises ValueError.
    """
    gens = tuple(generators if generators is not None else group.generators)
    index = group.index()
    try:
        sub = frozenset([index.position[p] for p in subgroup_elements])
        columns = [index.column(index.position[g]) for g in gens]
    except KeyError:
        raise ValueError("an element or generator lies outside the group") from None
    if index.identity not in sub:
        raise ValueError("subgroup must contain the identity")
    cosets = [sub]
    number = {sub: 1}
    images: list[list[int]] = [[] for _ in gens]
    for cs in cosets:
        for col, row in zip(columns, images):
            nxt = frozenset([col[x] for x in cs])
            k = number.get(nxt)
            if k is None:
                k = number[nxt] = len(cosets) + 1
                cosets.append(nxt)
            row.append(k)
    return CosetTable(len(gens), len(cosets),
                      tuple(Permutation(tuple(row)) for row in images))
