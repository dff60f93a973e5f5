"""Exact arithmetic in finite symmetric groups and their finitely generated subgroups.

Permutations are 1-based and compose left to right: ``compose(p, q)(i) == q(p(i))``.
This matches the order in which loops are concatenated downstream, so monodromy
images multiply in path order.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

DEFAULT_CLOSURE_LIMIT = 20160
DEFAULT_ISO_LIMIT = 64


class ClosureLimitError(RuntimeError):
    """Materializing a generated subgroup would exceed the configured cap."""


def json_int(value) -> int:
    """A JSON integer, never coerced: a bool, float or string raises ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class Permutation:
    """A bijection of {1..n} stored in one-line notation."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("permutation degree must be at least 1")
        seen = [False] * (n + 1)
        for v in images:
            if (not isinstance(v, int) or isinstance(v, bool)
                    or not 1 <= v <= n or seen[v]):
                raise ValueError(f"not a bijection of 1..{n}: {images!r}")
            seen[v] = True
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _unsafe(cls, images: tuple) -> "Permutation":
        # internal fast path; caller guarantees images is a bijection tuple
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_hash", hash(images))
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        return cls._unsafe(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Perm(id_{self.degree})"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycs) + ")"

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest moved point."""
        out, seen = [], set()
        for start in range(1, self.degree + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cyc, k = [], start
            while k not in seen:
                seen.add(k)
                cyc.append(k)
                k = self.images[k - 1]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def to_json(self) -> list[int]:
        return list(self.images)

    @classmethod
    def from_json(cls, data) -> "Permutation":
        return cls(tuple(json_int(v) for v in data))


def identity(n: int) -> Permutation:
    return Permutation.identity(n)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: apply p, then q."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    qi = q.images
    # built from a list, not a generator: tuple() of a generator grows its
    # result by resizing and so never reuses a freed tuple of the final
    # size, and freed ones pile up in the interpreter's free lists (up to
    # 2000 per size) until a full garbage collection
    return Permutation._unsafe(tuple([qi[v - 1] for v in p.images]))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for i, v in enumerate(p.images):
        inv[v - 1] = i + 1
    return Permutation._unsafe(tuple(inv))


def conjugate(p: Permutation, by: Permutation) -> Permutation:
    """Relabeling of p along ``by``: compose(compose(by, p), inverse(by))."""
    return compose(compose(by, p), inverse(by))


class ElementIndex:
    """Integer labels for the elements of a finite permutation group, with
    products found by lookup instead of built as permutations.

    A base is a list of points whose images pin every element (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4): the product
    a·b is the element whose base images are b(a(x)) for x in the base, found
    in one dictionary. A group acting freely, such as every deck group, needs
    one base point. Memory is linear in the order: besides the elements, their
    positions and base images, the index keeps the inverses and the
    right-multiplication columns asked for, which callers ask for only for
    generators.

    Lookups are exact only on a set closed under products: ``PermGroup``
    indexes the group its generators generate.
    """

    def __init__(self, elements: tuple, position: Optional[dict] = None,
                 columns: Optional[dict] = None):
        self.elements = elements
        self.position = position if position is not None else {
            p: i for i, p in enumerate(elements)}
        self._images = images = [p.images for p in elements]
        # points in turn, each kept when its images split more elements apart
        keys = [()] * len(elements)
        base, distinct = [], 1
        for x in range(elements[0].degree):
            if distinct == len(keys):
                break
            extended = [k + (img[x],) for k, img in zip(keys, images)]
            count = len(set(extended))
            if count > distinct:
                base.append(x)
                keys, distinct = extended, count
        self.base = tuple(base)
        self._by_base = {k: i for i, k in enumerate(keys)}
        self._columns = columns or {}
        self._inverses = None
        self.identity = self._lookup(lambda x: x + 1)

    def _lookup(self, image_of) -> int:
        """The element sending each base point x to image_of(x)."""
        return self._by_base[tuple([image_of(x) for x in self.base])]

    def product(self, a: int, b: int) -> int:
        """Index of elements[a]·elements[b]: apply a, then b."""
        ia, ib = self._images[a], self._images[b]
        return self._by_base[tuple([ib[ia[x] - 1] for x in self.base])]

    def column(self, g: int) -> list:
        """Right multiplication by elements[g] as a list of indices, kept."""
        col = self._columns.get(g)
        if col is None:
            col = self._columns[g] = [self.product(a, g)
                                      for a in range(len(self.elements))]
        return col

    @property
    def inverses(self) -> list:
        """Index of the inverse of each element, computed once."""
        if self._inverses is None:
            self._inverses = [self._lookup(lambda x: img.index(x + 1) + 1)
                              for img in self._images]
        return self._inverses

    def generated(self, gens: Sequence[int]) -> list:
        """Indices of the subgroup generated by ``gens``, breadth first from
        the identity."""
        reached = [self.identity]
        seen = {self.identity}
        for a in reached:
            for g in gens:
                b = self.product(a, g)
                if b not in seen:
                    seen.add(b)
                    reached.append(b)
        return reached

    def reduce(self, candidates: Iterable[int], order: Optional[int] = None) -> tuple:
        """Candidates kept in turn when they lie outside the subgroup
        generated by those kept before, until that subgroup has ``order``
        elements (the whole group by default)."""
        if order is None:
            order = len(self.elements)
        kept: list[int] = []
        have = {self.identity}
        for g in candidates:
            if len(have) == order:
                break
            if g not in have:
                kept.append(g)
                have = set(self.generated(kept))
        return tuple(kept)


class PermGroup:
    """Finitely generated subgroup of a symmetric group.

    The element set is materialized lazily by breadth-first products of the
    generators and cached in its ``ElementIndex``; enumeration order is
    deterministic.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation] = (),
                 limit: int = DEFAULT_CLOSURE_LIMIT):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = tuple(generators)
        self.limit = limit
        self._index: Optional[ElementIndex] = None

    def elements(self) -> tuple:
        return self.index().elements

    def index(self) -> "ElementIndex":
        """The element index of the generated group, built once and kept."""
        if self._index is None:
            self._index = ElementIndex(
                *_bfs_closure(self.degree, self.generators, self.limit))
        return self._index

    def element_set(self) -> frozenset:
        return frozenset(self.elements())

    def order(self) -> int:
        return len(self.elements())

    def __len__(self) -> int:
        return self.order()

    def __contains__(self, p: Permutation) -> bool:
        return p in self.element_set()

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={list(self.generators)!r})"

    def orbit(self, point: int) -> frozenset:
        seen = {point}
        frontier = [point]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def is_transitive(self) -> bool:
        return len(self.orbit(1)) == self.degree

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order() == self.degree

    def is_abelian(self) -> bool:
        return all(compose(a, b) == compose(b, a)
                   for a, b in itertools.combinations(self.generators, 2))

    def to_json(self) -> dict:
        return {"degree": self.degree, "generators": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, data: Mapping) -> "PermGroup":
        return cls(json_int(data["degree"]),
                   tuple(Permutation.from_json(g) for g in data["generators"]))


def _bfs_closure(degree: int, generators: Sequence[Permutation], limit: int):
    """Elements of the generated group, breadth first from the identity, with
    their positions and the right-multiplication column of each generator."""
    e = Permutation.identity(degree)
    elements = [e]
    position = {e: 0}
    columns = [[] for _ in generators]
    for g in elements:
        for h, col in zip(generators, columns):
            f = compose(g, h)
            k = position.get(f)
            if k is None:
                if len(elements) >= limit:
                    raise ClosureLimitError(
                        f"closure exceeds limit {limit} (degree {degree})")
                k = position[f] = len(elements)
                elements.append(f)
            col.append(k)
    return (tuple(elements), position,
            {position[h]: col for h, col in zip(generators, columns)})


def closure(generators: Sequence[Permutation], degree: Optional[int] = None,
            limit: int = DEFAULT_CLOSURE_LIMIT) -> PermGroup:
    """Group generated by ``generators``, with its element set materialized."""
    if degree is None:
        if not generators:
            raise ValueError("degree required for an empty generating set")
        degree = generators[0].degree
    g = PermGroup(degree, generators, limit=limit)
    g.elements()
    return g


def centralizer_in_sym(G: PermGroup) -> PermGroup:
    """All permutations of {1..n} commuting with every generator of a
    transitive G; an intransitive G raises ValueError.

    Candidates are determined by the image of point 1 and are extended
    equivariantly along a spanning tree, so only n candidates are tried. The
    result acts freely, so its index needs at most one base point.
    """
    n = G.degree
    gens = [g.images for g in G.generators]
    order, parent = _spanning_tree(n, gens)
    tree = [(x,) + parent[x] for x in order[1:]]
    found = []
    for b in range(1, n + 1):
        s = [0] * (n + 1)
        s[1] = b
        for x, prev, g in tree:
            s[x] = g[s[prev] - 1]
        images = s[1:]
        if len(set(images)) != n:
            continue
        # s commutes with g when s(g(x)) == g(s(x)) for every point x
        if all([s[v] for v in g] == [g[v - 1] for v in images] for g in gens):
            found.append(Permutation._unsafe(tuple(images)))
    group = PermGroup(n, tuple(found))
    # the centralizer is a group listed whole by its generators
    group._index = ElementIndex(tuple(found))
    return group


def _spanning_tree(n: int, generators: Sequence[tuple]):
    """BFS from point 1 along generator image tuples: the points in order and
    each point's (predecessor, generator images)."""
    order = [1]
    parent: dict = {1: None}
    for x in order:
        for g in generators:
            y = g[x - 1]
            if y not in parent:
                parent[y] = (x, g)
                order.append(y)
    if len(order) != n:
        raise ValueError("action is not transitive")
    return order, parent


class GroupHom:
    """Homomorphism between two finite permutation groups, stored elementwise.

    Construction checks multiplicativity on every edge of the source's
    Cayley graph for a generating set, which proves it over all pairs, so a
    GroupHom instance is always an actual homomorphism.
    """

    def __init__(self, source: PermGroup, target: PermGroup,
                 mapping: Mapping[Permutation, Permutation]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._check()

    def _check(self):
        """f(a·g) == f(a)·f(g) on every edge of the Cayley graph of a reduced
        generating set, walked from the identity over the whole source:
        |G|·r products prove a homomorphism (Holt, Eick and O'Brien, Handbook
        of Computational Group Theory, 2005). Products are lookups in the
        element index of each group."""
        source, f = self.source, self.mapping
        index = source.index()
        if set(f) != set(index.elements):
            raise ValueError("mapping does not cover the source group")
        target = self.target.index()
        for v in f.values():
            if v not in target.position:
                raise ValueError(f"image {v!r} is not in the target group")
        e = Permutation.identity(source.degree)
        if f.get(e) != Permutation.identity(self.target.degree):
            raise ValueError("the identity is not mapped to the identity")
        image = [target.position[f[a]] for a in index.elements]
        gens = index.reduce(index.position[g] for g in source.generators)
        edges = [(g, index.column(g), image[g]) for g in gens]
        reached, seen = [index.identity], {index.identity}
        for a in reached:
            fa = image[a]
            for g, col, fg in edges:
                b = col[a]
                if image[b] != target.product(fa, fg):
                    raise ValueError("not multiplicative at "
                                     f"{index.elements[a]!r}, {index.elements[g]!r}")
                if b not in seen:
                    seen.add(b)
                    reached.append(b)

    @classmethod
    def from_generator_images(cls, source: PermGroup, target: PermGroup,
                              images: Sequence[Permutation]) -> "GroupHom":
        """Extend generator images to the whole source, or raise ValueError."""
        if len(images) != len(source.generators):
            raise ValueError("one image per source generator required")
        mapping = _close_hom(source, target.degree, zip(source.generators, images))
        if mapping is None:
            raise ValueError("generator images do not extend to a homomorphism")
        return cls(source, target, mapping)

    def __call__(self, p: Permutation) -> Permutation:
        return self.mapping[p]

    def generator_images(self) -> tuple:
        return tuple(self.mapping[g] for g in self.source.generators)

    def image_elements(self) -> frozenset:
        return frozenset(self.mapping.values())

    def is_injective(self) -> bool:
        return len(self.image_elements()) == self.source.order()

    def is_surjective(self) -> bool:
        return self.image_elements() == self.target.element_set()

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def kernel_elements(self) -> tuple:
        e = Permutation.identity(self.target.degree)
        return tuple(p for p in self.source.elements() if self.mapping[p] == e)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "gen_images": [self.mapping[g].to_json() for g in self.source.generators],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "GroupHom":
        source = PermGroup.from_json(data["source"])
        target = PermGroup.from_json(data["target"])
        images = tuple(Permutation.from_json(p) for p in data["gen_images"])
        return cls.from_generator_images(source, target, images)


def _close_hom(source: PermGroup, target_degree: int, gen_pairs) -> Optional[dict]:
    """Close the graph of a candidate homomorphism; None if inconsistent."""
    pairs = list(gen_pairs)
    e_src = Permutation.identity(source.degree)
    mapping = {e_src: Permutation.identity(target_degree)}
    frontier = [e_src]
    for a in frontier:
        fa = mapping[a]
        for g, h in pairs:
            b = compose(a, g)
            fb = compose(fa, h)
            if b in mapping:
                if mapping[b] != fb:
                    return None
            else:
                mapping[b] = fb
                frontier.append(b)
    return mapping


def isomorphic_as_groups(G: PermGroup, H: PermGroup,
                         limit: int = DEFAULT_ISO_LIMIT) -> Optional[GroupHom]:
    """Search for a group isomorphism G -> H; None if the groups differ.

    Backtracks over generator images filtered by element order, closing the
    graph of each candidate to detect inconsistency early. Degrees of G and H
    may differ; only the abstract group structure is compared.
    """
    if G.order() > limit or H.order() > limit:
        raise ClosureLimitError(f"isomorphism search limited to order {limit}")
    if G.order() != H.order():
        return None
    g_orders = sorted(p.order() for p in G.elements())
    h_orders = sorted(p.order() for p in H.elements())
    if g_orders != h_orders:
        return None
    index = G.index()
    gens = tuple(index.elements[k] for k in
                 index.reduce(index.position[g] for g in G.generators))
    if not gens:
        e = Permutation.identity(H.degree)
        return GroupHom(G, H, {Permutation.identity(G.degree): e})
    by_order: dict[int, list] = {}
    for p in H.elements():
        by_order.setdefault(p.order(), []).append(p)
    candidates = [by_order.get(g.order(), []) for g in gens]
    for images in itertools.product(*candidates):
        mapping = _close_hom(G, H.degree, zip(gens, images))
        if mapping is None:
            continue
        if len(set(mapping.values())) == H.order():
            full = dict(mapping)
            return GroupHom(G, H, full)
    return None
