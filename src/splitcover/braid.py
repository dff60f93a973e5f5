"""Artin braid words, their symmetric-group projection, and positive lifts.

The projection sends each generator to the adjacent transposition of its two
strands; a lift bubble-sorts a permutation into a positive word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freecover import reduce_word
from .permgroup import Permutation, compose, json_int


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
        return BraidWord(strands, reduce_word(letters))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord.of(self.strands, self.letters + other.letters)

    def to_json(self) -> dict:
        return {"strands": self.strands, "letters": list(self.letters)}

    @classmethod
    def from_json(cls, data) -> "BraidWord":
        return cls.of(json_int(data["strands"]),
                      [json_int(v) for v in data["letters"]])


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
