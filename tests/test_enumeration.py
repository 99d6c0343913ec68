from __future__ import annotations

import random

import pytest

from finwadge import is_monotone, is_retraction, poset_isomorphic
from finwadge.enumeration import (
    POSET_COUNTS,
    all_posets,
    canonical_key,
    random_monotone_map,
    random_poset,
    random_retraction,
)


@pytest.mark.parametrize("n,count", sorted(POSET_COUNTS.items()))
def test_unlabeled_counts(n, count):
    assert len(all_posets(n)) == count


def test_enumerated_types_are_pairwise_nonisomorphic():
    sample = all_posets(4)
    keys = {canonical_key(P) for P in sample}
    assert len(keys) == len(sample)
    for i, P in enumerate(sample):
        for Q in sample[i + 1 :]:
            assert poset_isomorphic(P, Q) is None


def test_canonical_key_is_invariant():
    rng = random.Random(17)
    for P in all_posets(4):
        perm = list(range(P.n))
        rng.shuffle(perm)
        labels = [f"v{i}" for i in range(P.n)]
        covers = [(labels[perm[i]], labels[perm[j]]) for i, j in P.hasse_edges()]
        from finwadge import build_poset

        Q = build_poset(labels, covers)
        assert canonical_key(P) == canonical_key(Q)


def test_random_poset_is_reproducible():
    a = random_poset(random.Random(5), 6)
    b = random_poset(random.Random(5), 6)
    assert a.leq == b.leq


def test_seeded_generators_are_pinned():
    # values of the seeded generators; a change to the order closure or the
    # draw order would silently change every seeded test input
    expected = {
        0: ((0, 2), (0, 3), (1, 2), (2, 4), (3, 5), (4, 6), (4, 7), (5, 6)),
        1: ((0, 3), (0, 4), (1, 2), (2, 7), (3, 5), (3, 7)),
        2: ((0, 1), (1, 2)),
    }
    for seed, edges in expected.items():
        assert random_poset(random.Random(seed), 8).hasse_edges() == edges
    P = random_poset(random.Random(1), 8)
    assert random_monotone_map(random.Random(7), P).image == (0, 3, 3, 0, 5, 5, 1, 3)


def test_random_monotone_maps_are_monotone():
    rng = random.Random(99)
    for _ in range(50):
        P = random_poset(rng, rng.randint(1, 7))
        f = random_monotone_map(rng, P)
        assert is_monotone(P, f)


def test_random_retractions_are_retractions():
    rng = random.Random(123)
    produced = 0
    for _ in range(100):
        P = random_poset(rng, rng.randint(1, 6))
        got = random_retraction(rng, P)
        if got is None:
            continue
        Y, r = got
        assert is_retraction(P, Y, r)
        produced += 1
    assert produced > 50
