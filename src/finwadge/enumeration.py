"""Exhaustive and randomized generation of small test instances.

Posets are enumerated up to isomorphism by repeatedly attaching a new
maximal element above each order ideal of a smaller poset; duplicates
are removed through a canonical form: the minimal strict-order encoding
over the relabellings that sort the refinement colours, which are the
products of the permutations of each colour class.  Candidates are keyed
on int rows, and a poset is built only for the first candidate of each
type.  The known unlabeled counts 1, 2, 5, 16, 63, 318, 2045 for sizes
1..7 serve as a self-test.

The "random" generators take an explicit seeded Random so every consumer
is reproducible; the package never draws from global randomness.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from typing import Optional, Sequence

from .poset import FinitePoset, SubsetMask, _members, _refine, _refined_colors, build_poset
from .wadge import KPartition, MonotoneMap, _search_map, is_monotone

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def canonical_key(P: FinitePoset) -> tuple[int, ...]:
    """Isomorphism-invariant encoding: minimal flattened strict order.

    The minimum is taken over the relabellings that sort the refinement
    colours, i.e. over the products of the permutations of each colour
    class, not over all n! permutations.
    """
    n = P.n
    key = _canonical_int(P._up_int, _refined_colors(P))
    return tuple(key >> bit & 1 for bit in range(n * n - 1, -1, -1))


def _canonical_int(up: Sequence[int], colors: Sequence[int]) -> int:
    """``canonical_key`` as an n²-bit int, from the order's int rows.

    Position k of a relabelling holds an element of the k-th smallest
    colour.  The flattened strict order is read row-major with position
    pair (0, 0) as the high bit, so int order is the tuple's lex order.
    """
    n = len(up)
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(colors[x], []).append(x)
    pos = [0] * n
    free = []  # (first position, members) of the classes with several members
    first = 0
    for c in sorted(classes):
        members = classes[c]
        if len(members) == 1:
            pos[members[0]] = first
        else:
            free.append((first, members))
        first += len(members)
    # product() materializes its factors, so the largest class is
    # permuted lazily in the inner loop
    free.sort(key=lambda block: len(block[1]))
    start, largest = free.pop() if free else (0, ())
    pairs = [(a, b) for a in range(n) for b in _members(up[a] & ~(1 << a))]
    top = n * n - 1
    best = None
    for choice in product(*(permutations(members) for _, members in free)):
        for (first, _), perm in zip(free, choice):
            for k, x in enumerate(perm, first):
                pos[x] = k
        for perm in permutations(largest):
            for k, x in enumerate(perm, start):
                pos[x] = k
            key = sum(1 << (top - n * pos[a] - pos[b]) for a, b in pairs)
            if best is None or key < best:
                best = key
    return best


def all_posets(n: int) -> list[FinitePoset]:
    """All posets on n >= 1 elements, one per isomorphism type.

    A candidate is judged on int rows before any poset is built: a
    ``FinitePoset`` is made only for the first candidate of each type.
    The posets of one size share their labels tuple.
    """
    if n < 1:
        raise ValueError("poset enumeration starts at one element")
    current = [FinitePoset(("e0",), (1,))]
    for size in range(2, n + 1):
        labels = tuple(f"e{i}" for i in range(size))
        new = size - 1
        top = 1 << new
        seen: dict[int, FinitePoset] = {}
        current.reverse()  # popped in order, so each parent is freed once used
        while current:
            P = current.pop()
            up_old, above_old, below_old = P._up_int, P._cover_above, P._cover_below
            for ideal in _ideals(P):
                up = [row | top if ideal >> i & 1 else row for i, row in enumerate(up_old)]
                up.append(top)
                # the new element covers the maximal elements of the ideal
                maxima = tuple(i for i in _members(ideal) if up_old[i] & ideal == 1 << i)
                above = list(above_old)
                for i in maxima:
                    above[i] += (new,)
                above.append(())
                key = _canonical_int(up, _refine(above, below_old + (maxima,)))
                if key not in seen:
                    seen[key] = FinitePoset(labels, tuple(up))
        current = [seen[k] for k in sorted(seen)]
    return current


def _ideals(P: FinitePoset) -> list[int]:
    """Down-closed subsets as bitmasks: complements of the up-sets."""
    full = (1 << P.n) - 1
    return [full & ~v for v in P._open_ints]


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

    f(x) is drawn above f(c) for each lower cover c, so above f(p) for all p < x.
    Falls back to a constant map if a random assignment dead-ends too
    often (possible when upper bounds run out in wide posets).
    """
    for _ in range(32):
        image = [-1] * X.n
        ok = True
        for x in X.linext:
            allowed = (1 << X.n) - 1
            for p in X._cover_below[x]:
                allowed &= X._up_int[image[p]]
            if not allowed:
                ok = False
                break
            image[x] = rng.choice(tuple(_members(allowed)))
        if ok:
            f = MonotoneMap(X.space_id, tuple(image))
            assert is_monotone(X, f)
            return f
    top = max(range(X.n), key=lambda i: X._up_int[i].bit_count())
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
