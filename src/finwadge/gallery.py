"""Constructors for the concrete spaces and poset combinators used in tests.

The fan constructor builds finite truncations of an infinite space: it
keeps the first N+1 finger chains in full and evaluates the defining
unions of the named sets over the indices that exist in the truncation.
The incomparability phenomena of the infinite space need arbitrarily
long chains, so truncations are test fixtures only; nothing about the
infinite space should be inferred from them.
"""

from __future__ import annotations

from .documents import PosetDocument
from .poset import FinitePoset, _members, build_poset


def chain(n: int) -> FinitePoset:
    """Linear order on n elements labeled '0' < '1' < ... ; n = 0 is empty."""
    if n < 0:
        raise ValueError("chain length must be >= 0")
    labels = [str(i) for i in range(n)]
    covers = [(str(i), str(i + 1)) for i in range(n - 1)]
    return build_poset(labels, covers)


def antichain(n: int) -> FinitePoset:
    """Discrete order on n elements labeled 'a0', 'a1', ... ; n = 0 is empty."""
    if n < 0:
        raise ValueError("antichain size must be >= 0")
    return build_poset([f"a{i}" for i in range(n)], [])


def linear_sum(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    """P + Q: disjoint union with every element of P below every element of Q."""
    labels = [f"l.{x}" for x in P.labels] + [f"u.{x}" for x in Q.labels]
    upper = (1 << Q.n) - 1 << P.n  # the elements of Q
    up = [row | upper for row in P._up_int] + [row << P.n for row in Q._up_int]
    return FinitePoset(tuple(labels), tuple(up))


def lex_product(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    """P * Q on pairs: (p0,q0) < (p1,q1) iff q0 < q1, or q0 = q1 and p0 < p1."""
    m = P.n  # (p, q) is element q * m + p
    labels = [f"({p},{q})" for q in Q.labels for p in P.labels]
    block = (1 << m) - 1
    up = []
    for q, row in enumerate(Q._up_int):
        # every pair over a q1 > q, then the pairs over q above p
        higher = sum(block << q1 * m for q1 in _members(row & ~(1 << q)))
        up += [higher | p_row << q * m for p_row in P._up_int]
    return FinitePoset(tuple(labels), tuple(up))


def expected_structure(k: int) -> FinitePoset:
    """k stacked incomparable pairs with a four-element antichain on top."""
    if k < 0:
        raise ValueError("expected structure needs k >= 0")
    return linear_sum(lex_product(antichain(2), chain(k)), antichain(4))


def truncated_c_infinity(N: int) -> FinitePoset:
    """Elements 0..N-1 ordered by i <= j iff i >= j numerically (0 on top); N = 0 is empty."""
    if N < 0:
        raise ValueError("truncation length must be >= 0")
    labels = [str(i) for i in range(N)]
    covers = [(str(i + 1), str(i)) for i in range(N - 1)]
    return build_poset(labels, covers)


def fan(N: int) -> PosetDocument:
    """Finger chains C_0..C_N between a bottom and a top element.

    C_n is the chain c{n}_{n} < ... < c{n}_{0}; distinct chains are
    incomparable except through bot and top.  The named open sets grow by
    D_{i+1} = D_i + {x : some c{n}_{i+1} <= x with n > i}, and
    A = D_0 union of the blocks D_{2k+2} - D_{2k+1} that exist in the
    truncation; B = A - {top}.
    """
    if N < 0:
        raise ValueError("fan needs N >= 0")
    labels = ["bot", "top"]
    covers = []
    for n in range(N + 1):
        members = [f"c{n}_{k}" for k in range(n + 1)]
        labels.extend(members)
        covers.append(("bot", members[-1]))
        covers.append((members[0], "top"))
        for k in range(n):
            covers.append((members[k + 1], members[k]))
    X = build_poset(labels, covers)

    def above(n: int, k: int) -> int:
        return X._up_int[X.index(f"c{n}_{k}")]

    d_sets = [0]
    for n in range(N + 1):
        d_sets[0] |= above(n, 0)
    for i in range(N):
        grow = d_sets[i]
        for n in range(i + 1, N + 1):
            grow |= above(n, i + 1)
        d_sets.append(grow)
    a_set = d_sets[0]
    for k in range(N // 2):
        a_set |= d_sets[2 * k + 2] & ~d_sets[2 * k + 1]
    b_set = a_set & ~(1 << X.index("top"))
    named = {f"D{i}": X.mask_from_int(d) for i, d in enumerate(d_sets)}
    named["A"] = X.mask_from_int(a_set)
    named["B"] = X.mask_from_int(b_set)
    return PosetDocument(X, named)
