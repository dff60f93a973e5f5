"""Artin braid words, their symmetric-group projection, and geometric
realizations as motions of points in the plane.

The projection sends each generator to the adjacent transposition of its two
strands. Geometric realization moves points by half-turns about pair
midpoints, which keeps every configuration uniformly far from collisions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .permgroup import Permutation, compose
from .wpoly import min_gap

DEFAULT_CLEARANCE = 0.25


class ClearanceError(RuntimeError):
    """A configuration came closer to a collision than the allowed clearance."""


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid generators s1..s(n-1); letter -i means the inverse."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        for a in self.letters:
            if not isinstance(a, int) or a == 0 or abs(a) >= self.strands:
                raise ValueError(
                    f"letter {a} out of range for {self.strands} strands")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word not freely reduced: {self.letters!r}")

    @staticmethod
    def of(strands: int, letters: Sequence[int]) -> "BraidWord":
        out: list[int] = []
        for a in letters:
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
        return BraidWord(strands, tuple(out))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord.of(self.strands, self.letters + other.letters)

    def to_json(self) -> dict:
        return {"strands": self.strands, "letters": list(self.letters)}

    @classmethod
    def from_json(cls, data) -> "BraidWord":
        return cls.of(int(data["strands"]), [int(v) for v in data["letters"]])


def tau(word: BraidWord) -> Permutation:
    """Projection to the symmetric group: si maps to (i, i+1)."""
    p = Permutation.identity(word.strands)
    for a in word.letters:
        i = abs(a)
        t = Permutation.from_cycles(word.strands, [(i, i + 1)])
        p = compose(p, t)
    return p


def lift_permutation(p: Permutation) -> BraidWord:
    """Positive braid word projecting onto p, of length at most n(n-1)/2.

    Bubble-sorting the one-line notation records adjacent swaps whose
    left-to-right product is exactly p.
    """
    a = list(p.images)
    n = len(a)
    letters: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                letters.append(i + 1)
                changed = True
    return BraidWord(max(n, 1), tuple(letters))


@dataclass(frozen=True, eq=False)
class ConfigPath:
    """Sampled motion of n distinct points, closed as a multiset."""

    strands: int
    samples: tuple[tuple[complex, ...], ...]
    clearance: float = DEFAULT_CLEARANCE

    def __post_init__(self):
        if not self.samples:
            raise ValueError("a path needs at least one sample")
        for pts in self.samples:
            if len(pts) != self.strands:
                raise ValueError("sample size does not match strand count")
            if min_gap(pts) < self.clearance:
                raise ClearanceError(
                    f"points within clearance {self.clearance}: {pts!r}")
        start = sorted(self.samples[0], key=lambda z: (z.real, z.imag))
        end = sorted(self.samples[-1], key=lambda z: (z.real, z.imag))
        if any(abs(a - b) > 1e-9 for a, b in zip(start, end)):
            raise ValueError("path is not closed as a multiset")


def base_configuration(n: int) -> tuple[complex, ...]:
    return tuple(complex(k) for k in range(1, n + 1))


def braid_position(word: BraidWord, t: float) -> tuple[complex, ...]:
    """Positions of the strands at time t in [0,1], indexed by starting slot.

    Each letter takes equal time. Letter si half-turns the points occupying
    slots i and i+1 about their midpoint, counterclockwise for a positive
    letter, clockwise for a negative one; all other points rest at their
    slots. The final tuple is the start configuration reindexed by tau.
    """
    n = word.strands
    k = len(word.letters)
    # pos[strand] = current slot of the strand that started at slot strand+1
    pos = list(range(1, n + 1))
    if k == 0 or t <= 0:
        return tuple(complex(s) for s in pos)
    progress = min(t, 1.0) * k
    done = int(progress)
    for idx in range(min(done, k)):
        i = abs(word.letters[idx])
        a, b = pos.index(i), pos.index(i + 1)
        pos[a], pos[b] = i + 1, i
    points = [complex(s) for s in pos]
    if done < k:
        letter = word.letters[done]
        i, sign = abs(letter), (1 if letter > 0 else -1)
        u = progress - done
        mid = i + 0.5
        lower, upper = pos.index(i), pos.index(i + 1)
        points[lower] = mid + 0.5 * cmath.exp(1j * (cmath.pi + sign * cmath.pi * u))
        points[upper] = mid + 0.5 * cmath.exp(1j * (sign * cmath.pi * u))
    return tuple(points)


def braid_to_config_path(word: BraidWord, samples_per_letter: int = 8,
                         clearance: float = DEFAULT_CLEARANCE) -> ConfigPath:
    """Sample the half-turn motion of the braid word."""
    if samples_per_letter < 4:
        raise ValueError("samples_per_letter must be at least 4")
    k = len(word.letters)
    if k == 0:
        base = base_configuration(word.strands)
        return ConfigPath(word.strands, (base,), clearance)
    total = k * samples_per_letter
    samples = tuple(braid_position(word, j / total) for j in range(total + 1))
    return ConfigPath(word.strands, samples, clearance)


def roots_to_coeffs(points: Sequence[complex]) -> tuple[complex, ...]:
    """Coefficients (a0..a(n-1)) of the monic polynomial with the given roots."""
    poly = np.poly(np.asarray(points, dtype=complex))
    n = len(points)
    return tuple(complex(poly[n - j]) for j in range(n))


def config_to_coeffs(path: ConfigPath,
                     clearance: float = DEFAULT_CLEARANCE) -> list[tuple[complex, ...]]:
    """Vieta map sample by sample; rejects configurations within clearance."""
    out = []
    for pts in path.samples:
        if min_gap(pts) < clearance:
            raise ClearanceError(f"configuration within clearance: {pts!r}")
        out.append(roots_to_coeffs(pts))
    return out
