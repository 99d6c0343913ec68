"""Exhaustive and randomized generation of small test instances.

Posets are enumerated up to isomorphism by repeatedly attaching a new
maximal element above each order ideal of a smaller poset; duplicates
are removed through a canonical form (minimal strict-order encoding over
all permutations, with elements pre-grouped by refinement colors).  The
known unlabeled counts 1, 2, 5, 16, 63 for sizes 1..5 serve as a
self-test.

The "random" generators take an explicit seeded Random so every consumer
is reproducible; the package never draws from global randomness.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Optional

from .poset import FinitePoset, SubsetMask, _members, _refined_colors, build_poset
from .wadge import KPartition, MonotoneMap, _search_map, is_monotone

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def canonical_key(P: FinitePoset) -> tuple[int, ...]:
    """Isomorphism-invariant encoding: minimal flattened strict order.

    Permutations are restricted to those sorting the refinement colors,
    which keeps the search tiny at the sizes this module targets.
    """
    n = P.n
    colors = _refined_colors(P)
    by_color = sorted(range(n), key=lambda i: (colors[i], i))
    sorted_colors = [colors[i] for i in by_color]
    best: Optional[tuple[int, ...]] = None
    for perm in permutations(range(n)):
        if [colors[p] for p in perm] != sorted_colors:
            continue
        flat = tuple(
            1 if (perm[i] != perm[j] and P.leq[perm[i]][perm[j]]) else 0
            for i in range(n)
            for j in range(n)
        )
        if best is None or flat < best:
            best = flat
    assert best is not None
    return best


def all_posets(n: int) -> list[FinitePoset]:
    """All posets on n >= 1 elements, one per isomorphism type."""
    if n < 1:
        raise ValueError("poset enumeration starts at one element")
    current = [FinitePoset(("e0",), ((True,),))]
    for size in range(2, n + 1):
        seen: dict[tuple[int, ...], FinitePoset] = {}
        for P in current:
            for ideal in _ideals(P):
                Q = _attach_maximal(P, ideal, size)
                key = canonical_key(Q)
                if key not in seen:
                    seen[key] = Q
        current = [seen[k] for k in sorted(seen)]
    return current


def _ideals(P: FinitePoset) -> list[int]:
    """Down-closed subsets as bitmasks: complements of the up-sets."""
    full = (1 << P.n) - 1
    return [full & ~O.as_int() for O in P.enumerate_opens()]


def _attach_maximal(P: FinitePoset, ideal: int, size: int) -> FinitePoset:
    n = P.n
    labels = tuple(f"e{i}" for i in range(size))
    leq = [[False] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            leq[i][j] = P.leq[i][j]
    leq[n][n] = True
    for i in range(n):
        if ideal >> i & 1:
            leq[i][n] = True
    return FinitePoset(labels, tuple(tuple(row) for row in leq))


def random_poset(rng: random.Random, n: int) -> FinitePoset:
    """Random order on n elements: closure of random index-increasing edges."""
    density = rng.choice((0.15, 0.25, 0.35, 0.5))
    labels = [f"e{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return build_poset(labels, edges)


def random_mask(rng: random.Random, X: FinitePoset) -> SubsetMask:
    return X.mask_from_bits([rng.random() < 0.5 for _ in range(X.n)])


def random_partition(rng: random.Random, X: FinitePoset, k: int) -> KPartition:
    return KPartition(X.space_id, k, tuple(rng.randrange(k) for _ in range(X.n)))


def random_monotone_map(rng: random.Random, X: FinitePoset) -> MonotoneMap:
    """Random order-preserving self-map, by assignment along a linear extension.

    Falls back to a constant map if a random assignment dead-ends too
    often (possible when upper bounds run out in wide posets).
    """
    for _ in range(32):
        image = [-1] * X.n
        ok = True
        for x in X.linext:
            allowed = (1 << X.n) - 1
            for p in X.strict_below(x):
                allowed &= X._up_int[image[p]]
            if not allowed:
                ok = False
                break
            image[x] = rng.choice(tuple(_members(allowed)))
        if ok:
            f = MonotoneMap(X.space_id, tuple(image))
            assert is_monotone(X, f)
            return f
    top = max(range(X.n), key=lambda i: sum(X.leq[i]))
    return MonotoneMap(X.space_id, (top,) * X.n)


def random_retraction(
    rng: random.Random, X: FinitePoset
) -> Optional[tuple[SubsetMask, MonotoneMap]]:
    """A random subset Y with a monotone map fixing it, if one exists."""
    size = rng.randint(1, X.n)
    Y = X.mask_from_indices(rng.sample(range(X.n), size))
    fixed = Y.as_int()
    image = _search_map(X, [1 << x if fixed >> x & 1 else fixed for x in range(X.n)])
    if image is None:
        return None
    return Y, MonotoneMap(X.space_id, image)
