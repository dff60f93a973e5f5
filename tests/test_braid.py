import random

import pytest

from splitcover.braid import BraidWord, lift_permutation, tau
from splitcover.permgroup import Permutation, compose


def perm(*cycles, n):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def test_braid_word_validation_and_reduction():
    assert BraidWord.of(3, [1, 2, -2, -1]).letters == ()
    assert BraidWord.of(3, [1, -2, 2, 1]).letters == (1, 1)
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(2, (1, -1))


def test_tau_trivial_and_generator():
    assert tau(BraidWord(3, ())).is_identity()
    assert tau(BraidWord(2, (1,))) == perm((1, 2), n=2)
    assert tau(BraidWord(2, (-1,))) == perm((1, 2), n=2)


def test_tau_word_example():
    assert tau(BraidWord(3, (1, 2, 1))) == perm((1, 3), n=3)


def test_tau_is_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        w = BraidWord.of(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                             for _ in range(rng.randint(0, 6))])
        v = BraidWord.of(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                             for _ in range(rng.randint(0, 6))])
        assert tau(w * v) == compose(tau(w), tau(v))


def test_lift_identity_and_transposition():
    assert lift_permutation(perm(n=3)).letters == ()
    assert lift_permutation(perm((1, 2), n=2)).letters == (1,)
    w = lift_permutation(perm((1, 3), n=3))
    assert tau(w) == perm((1, 3), n=3)
    assert len(w.letters) <= 3


def test_tau_lift_round_trip_exhaustive_small():
    import itertools
    for n in range(1, 6):
        for images in itertools.permutations(range(1, n + 1)):
            p = Permutation(images)
            w = lift_permutation(p)
            assert all(a > 0 for a in w.letters)
            assert len(w.letters) <= n * (n - 1) // 2
            assert tau(w) == p


def test_tau_lift_round_trip_random_large():
    rng = random.Random(99)
    for n in range(6, 9):
        for _ in range(100):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert tau(lift_permutation(p)) == p
