from __future__ import annotations

from itertools import product

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from finwadge import CycleError, FinitePoset, SubsetMask, build_poset

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@st.composite
def posets(draw, min_size: int = 1, max_size: int = 6) -> FinitePoset:
    n = draw(st.integers(min_size, max_size))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = draw(st.lists(pairs, max_size=2 * n))
    labels = [f"e{i}" for i in range(n)]
    return build_poset(labels, [(f"e{i}", f"e{j}") for i, j in edges])


@st.composite
def poset_with_mask(draw, min_size: int = 1, max_size: int = 6):
    P = draw(posets(min_size, max_size))
    bits = draw(st.lists(st.booleans(), min_size=P.n, max_size=P.n))
    return P, P.mask_from_bits(bits)


@st.composite
def poset_with_two_masks(draw, min_size: int = 1, max_size: int = 5):
    P = draw(posets(min_size, max_size))
    bits = st.lists(st.booleans(), min_size=P.n, max_size=P.n)
    return P, P.mask_from_bits(draw(bits)), P.mask_from_bits(draw(bits))


# --- independent brute-force oracles (kept free of the library's algorithms) ---


def brute_opens(P: FinitePoset) -> set[int]:
    """All up-sets of P, by direct filtering of the whole powerset."""
    out = set()
    for v in range(1 << P.n):
        if all(
            not (v >> i & 1) or not P.leq[i][j] or (v >> j & 1)
            for i in range(P.n)
            for j in range(P.n)
        ):
            out.add(v)
    return out


def brute_longest_alternating(P: FinitePoset, A: SubsetMask, starts_in: bool) -> int:
    """Maximum alternating-chain length by exhaustive chain extension."""
    best = 0

    def grow(last: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for nxt in range(P.n):
            if nxt != last and P.leq[last][nxt] and A.has(nxt) != A.has(last):
                grow(nxt, length + 1)

    for start in range(P.n):
        if A.has(start) == starts_in:
            grow(start, 1)
    return best


def all_monotone_maps(P: FinitePoset) -> list[tuple[int, ...]]:
    """Every order-preserving self-map, by filtering all |X|^|X| maps."""
    out = []
    for image in product(range(P.n), repeat=P.n):
        if all(
            P.leq[image[i]][image[j]]
            for i in range(P.n)
            for j in range(P.n)
            if P.leq[i][j]
        ):
            out.append(image)
    return out


def first_map(P: FinitePoset, allowed, monotone: bool):
    """First map with f(x) in allowed[x], lexicographic along P.linext.

    Enumerates all |P|^|P| maps, reading each as the targets of
    P.linext[0], P.linext[1], ...; returns the image indexed by element,
    or None.
    """
    order = P.linext
    for targets in product(range(P.n), repeat=P.n):
        image = [0] * P.n
        for x, t in zip(order, targets):
            image[x] = t
        if not all(image[x] in allowed[x] for x in range(P.n)):
            continue
        if monotone and not all(
            P.leq[image[i]][image[j]] for i in range(P.n) for j in range(P.n) if P.leq[i][j]
        ):
            continue
        return tuple(image)
    return None


def reference_order(labels, leq):
    """(cover, linext) of the order matrix leq, by the O(n^3) definitions.

    Validates like the FinitePoset constructor: the first bad pair (i, j) in
    row-major order raises, with antisymmetry checked before transitivity.
    """
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise ValueError("order must be reflexive")
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise CycleError(f"antisymmetry violated on {labels[i]!r}, {labels[j]!r}")
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise ValueError("order must be transitive")
    cover = tuple(
        tuple(
            i != j and bool(leq[i][j])
            and not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    remaining = set(range(n))
    linext = []
    while remaining:
        ready = sorted(
            i for i in remaining if all(j == i or j not in remaining for j in range(n) if leq[j][i])
        )
        linext.append(ready[0])
        remaining.remove(ready[0])
    return cover, tuple(linext)


def brute_reduces(P: FinitePoset, A: SubsetMask, B: SubsetMask, maps=None) -> bool:
    if maps is None:
        maps = all_monotone_maps(P)
    return any(all(B.bits[f[i]] == A.bits[i] for i in range(P.n)) for f in maps)


@pytest.fixture(scope="session")
def small_poset_zoo():
    """A fixed assortment of named posets reused across tests."""
    from finwadge import antichain, chain

    zoo = {
        "point": chain(1),
        "chain2": chain(2),
        "chain3": chain(3),
        "antichain2": antichain(2),
        "antichain3": antichain(3),
        "vee": build_poset(["b", "l", "r"], [("b", "l"), ("b", "r")]),
        "wedge": build_poset(["l", "r", "t"], [("l", "t"), ("r", "t")]),
        "diamond": build_poset(["b", "l", "r", "t"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]),
        "npose": build_poset(["e0", "e1", "e2", "e3"], [("e0", "e2"), ("e0", "e3"), ("e1", "e3")]),
        "twochains": build_poset(["x0", "x1", "y0", "y1"], [("x0", "x1"), ("y0", "y1")]),
    }
    return zoo
