"""Finite levels of the difference hierarchy over open sets.

A subset of a finite T0 space sits at an exact finite level of the
Hausdorff difference hierarchy.  ``classify`` locates that level through
longest alternating chains; ``oracle_level`` recomputes it by exhausting
increasing open sequences straight from the definition, so the two
routes check each other.

Level calibration: "length" of a chain is its element count, and the
least n with A in the n-th sigma level equals the longest alternating
chain that starts inside A.  This pins the bottom levels exactly: the
0-th sigma level holds only the empty set, and level 1 holds exactly
the open sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceeded, FinWadgeError, NotIncreasing, NotOpen
from .poset import FinitePoset, SubsetMask

ORACLE_DEFAULT_CAP = 8


@dataclass(frozen=True)
class DiffLevel:
    """Exact position of a subset in the difference hierarchy.

    sigma_rank is the least n with A in the n-th sigma level (= longest
    alternating chain starting inside A); pi_rank is the same for the
    complement.  The two ranks never differ by more than one.
    """

    sigma_rank: int
    pi_rank: int

    @property
    def kind(self) -> str:
        if self.sigma_rank < self.pi_rank:
            return "sigma"
        if self.pi_rank < self.sigma_rank:
            return "pi"
        return "delta"

    @property
    def level(self) -> int:
        return min(self.sigma_rank, self.pi_rank)

    @property
    def label(self) -> str:
        return {
            "sigma": f"ProperSigma({self.level})",
            "pi": f"ProperPi({self.level})",
            "delta": f"ProperDelta({self.level})",
        }[self.kind]


def level_leq(a: DiffLevel, b: DiffLevel) -> bool:
    """Pointclass order: every class containing b also contains a.

    Difference levels are closed under continuous preimages, so this is a
    necessary condition for a continuous reduction of a's set to b's set.
    """
    return a.sigma_rank <= b.sigma_rank and a.pi_rank <= b.pi_rank


@dataclass(frozen=True)
class AlternatingChain:
    """Strictly increasing elements alternating in and out of a target set."""

    points: tuple[int, ...]
    starts_in: bool

    def __len__(self) -> int:
        return len(self.points)


def is_alternating(X: FinitePoset, A: SubsetMask, chain: AlternatingChain) -> bool:
    X.check_mask(A)
    pts = chain.points
    if not pts:
        return True
    if A.has(pts[0]) != chain.starts_in:
        return False
    for a, b in zip(pts, pts[1:]):
        if not (X.leq[a][b] and a != b):
            return False
        if A.has(a) == A.has(b):
            return False
    return True


def longest_alternating_chain(X: FinitePoset, A: SubsetMask, starts_in: bool) -> AlternatingChain:
    """A maximum-length alternating chain with the requested first point.

    Dynamic programming over a linear extension: best[x] is the longest
    admissible chain ending at x, extended from strictly smaller elements
    of the opposite membership.  Length 0 means no such chain exists
    (e.g. starts_in=True with an empty A).
    """
    X.check_mask(A)
    best, parent = _chain_table(X, A, starts_in)
    top = -1
    top_len = 0
    for x in range(X.n):
        if best[x] > top_len:
            top_len = best[x]
            top = x
    if top < 0:
        return AlternatingChain((), starts_in)
    points: list[int] = []
    while top >= 0:
        points.append(top)
        top = parent[top]
    return AlternatingChain(tuple(reversed(points)), starts_in)


def _chain_table(X: FinitePoset, A: SubsetMask, starts_in: bool) -> tuple[list[int], list[int]]:
    n = X.n
    best = [0] * n
    parent = [-1] * n
    a = A.as_int()
    preds = X._strict_below
    for x in X.linext:
        inside = a >> x & 1
        if inside == starts_in:
            best[x] = 1
        for y in preds[x]:
            if a >> y & 1 == inside or best[y] == 0:
                continue
            if best[y] + 1 > best[x]:
                best[x] = best[y] + 1
                parent[x] = y
    return best, parent


def classify(X: FinitePoset, A: SubsetMask) -> DiffLevel:
    """Exact difference-hierarchy level of A, via alternating chains.

    Approximability plays no role here: on a finite poset the up-set of
    every element is open, so every subset is approximable.
    """
    X.check_mask(A)
    sigma = max(_chain_table(X, A, True)[0], default=0)
    pi = max(_chain_table(X, A, False)[0], default=0)
    return DiffLevel(sigma, pi)


def d_n(X: FinitePoset, opens: Sequence[SubsetMask], n: int) -> SubsetMask:
    """Difference of an increasing open sequence.

    Keeps the blocks A_b minus (union of earlier opens) at the indices b
    whose parity differs from n's.  With n = 1 this is just A_0, and with
    n = 4 it is (A_1 - A_0) union (A_3 - A_2).
    """
    if len(opens) != n:
        raise ValueError(f"expected {n} open sets, got {len(opens)}")
    prev: Optional[SubsetMask] = None
    for k, O in enumerate(opens):
        X.check_mask(O)
        if not X.is_open(O):
            raise NotOpen(f"set #{k} in the sequence is not open")
        if prev is not None and not prev.is_subset(O):
            raise NotIncreasing(f"sequence decreases at position {k}")
        prev = O
    result = 0
    covered = 0
    for beta, O in enumerate(opens):
        block = O.as_int() & ~covered
        if beta % 2 != n % 2:
            result |= block
        covered |= O.as_int()
    return X.mask_from_int(result)


def find_difference_representation(
    X: FinitePoset,
    A: SubsetMask,
    n: int,
    opens: Optional[Sequence[SubsetMask]] = None,
) -> Optional[tuple[SubsetMask, ...]]:
    """Search for an increasing open sequence whose n-difference equals A.

    Depth-first over inclusion-increasing sequences.  A prefix fixes the
    membership of every point it covers (the block of a point is its first
    covering index), so any prefix that already disagrees with A is pruned.
    """
    X.check_mask(A)
    if opens is None:
        opens = list(X.enumerate_opens())
    target = A.as_int()
    if n == 0:
        return () if target == 0 else None
    ints = [O.as_int() for O in opens]
    m = len(ints)
    supersets = [[j for j in range(m) if ints[j] & ints[i] == ints[i]] for i in range(m)]
    include_parity = (n + 1) % 2

    def search(depth: int, last: int, covered: int, decided: int) -> Optional[list[int]]:
        if depth == n:
            return [] if decided == target else None
        include = depth % 2 == include_parity
        candidates = range(m) if depth == 0 else supersets[last]
        for j in candidates:
            fresh = ints[j] & ~covered
            if include:
                if fresh & ~target:
                    continue
                grown = decided | fresh
            else:
                if fresh & target:
                    continue
                grown = decided
            rest = search(depth + 1, j, covered | ints[j], grown)
            if rest is not None:
                return [j] + rest
        return None

    chosen = search(0, -1, 0, 0)
    if chosen is None:
        return None
    return tuple(opens[j] for j in chosen)


def oracle_level(
    X: FinitePoset,
    A: SubsetMask,
    n_max: Optional[int] = None,
    cap: Optional[int] = ORACLE_DEFAULT_CAP,
) -> DiffLevel:
    """Level of A by exhaustive search over increasing open sequences.

    Ground truth for ``classify``: membership of A and of its complement
    in each sigma level up to n_max is decided straight from the
    definition.  Alternating chains bound both ranks by the element
    count, so the default n_max = |X| always suffices.
    """
    X.check_mask(A)
    if cap is not None and X.n > cap:
        raise CapExceeded(f"|X| = {X.n} exceeds the oracle cap {cap}")
    if n_max is None:
        n_max = X.n
    opens = list(X.enumerate_opens())
    sigma = _least_level(X, A, n_max, opens)
    pi = _least_level(X, A.complement(), n_max, opens)
    if sigma is None or pi is None:
        raise FinWadgeError(f"no difference representation of length <= {n_max} found")
    return DiffLevel(sigma, pi)


def _least_level(
    X: FinitePoset, A: SubsetMask, n_max: int, opens: Sequence[SubsetMask]
) -> Optional[int]:
    for n in range(n_max + 1):
        if find_difference_representation(X, A, n, opens) is not None:
            return n
    return None
