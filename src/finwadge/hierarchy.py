"""Finite levels of the difference hierarchy over open sets.

A subset of a finite T0 space sits at an exact finite level of the
Hausdorff difference hierarchy.  ``classify`` locates that level through
longest alternating chains, found in one pass over a linear extension and
the cover edges that gives both ranks at once; ``longest_alternating_chain``
reuses that pass and rebuilds a witness along the chain only, and
``subset_levels`` runs it bit-sliced for all subsets at once.
``oracle_level`` recomputes the level by exhausting increasing open
sequences straight from the definition, so the two routes check each
other.

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
        sigma, pi = self.sigma_rank, self.pi_rank
        if sigma < pi:
            return f"ProperSigma({sigma})"
        if pi < sigma:
            return f"ProperPi({pi})"
        return f"ProperDelta({sigma})"

    def complement(self) -> "DiffLevel":
        """The level of the complement: the two ranks swapped."""
        return DiffLevel(self.pi_rank, self.sigma_rank)


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
        if a == b or not X._up_int[a] >> b & 1:
            return False
        if A.has(a) == A.has(b):
            return False
    return True


def longest_alternating_chain(X: FinitePoset, A: SubsetMask, starts_in: bool) -> AlternatingChain:
    """A maximum-length alternating chain with the requested first point.

    best[x] is the longest admissible chain ending at x.  Cutting the
    first point off an alternating chain leaves one, so every length up
    to length[x] (see ``_reach``) ends at x; a chain's length and the
    membership of its last point fix the membership of its first, so
    best[x] is length[x] or length[x] - 1.  The chain is then rebuilt
    along itself only: the top is the lowest index with the largest best,
    and each point's parent is the lowest-index element strictly below it
    whose best is one less (that length already fixes the opposite
    membership), found with one AND against a bitmask of the elements of
    that length.  Length 0 means no such chain exists (e.g.
    starts_in=True with an empty A).
    """
    X.check_mask(A)
    a = A.as_int()
    reach = _reach(X, a)
    wrong_side = 0 if starts_in else 1
    best = []
    for x in range(X.n):
        inside = a >> x & 1
        length = reach[inside ^ 1][x] + 1
        # (inside ^ length) & 1 is 0 iff a longest chain ending at x starts inside
        best.append(length - ((inside ^ length ^ wrong_side) & 1))
    top_len = max(best, default=0)
    if top_len == 0:
        return AlternatingChain((), starts_in)
    of_length = [0] * (top_len + 1)  # bit x of of_length[k] is set iff best[x] == k
    for x, k in enumerate(best):
        of_length[k] |= 1 << x
    down = X._down_int
    points: list[int] = []
    candidates = of_length[top_len]
    for k in range(top_len - 1, -1, -1):
        x = (candidates & -candidates).bit_length() - 1
        points.append(x)
        candidates = down[x] & of_length[k]
    return AlternatingChain(tuple(reversed(points)), starts_in)


def _reach(X: FinitePoset, a: int) -> tuple[list[int], list[int]]:
    """One pass over a linear extension and the cover edges.

    Let length[y] be the longest alternating chain ending at y.  reach[m][x]
    is the largest length[y] over y <= x with membership m (0 if there is
    none).  The down-set of x is x together with the down-sets of its lower
    covers, so the lower covers' entries give the maxima over everything
    strictly below x, and length[x] = reach[1 - m][x] + 1 for x of
    membership m.
    """
    n = X.n
    outside, inside = [0] * n, [0] * n
    below = X._cover_below
    for x in X.linext:
        same, other = (inside, outside) if a >> x & 1 else (outside, inside)
        covers = below[x]
        if not covers:
            same[x] = 1
            continue
        if len(covers) == 1:  # the common case, without the two max() calls
            (c,) = covers
            length, same_below = other[c] + 1, same[c]
        else:
            length = max(map(other.__getitem__, covers)) + 1
            same_below = max(map(same.__getitem__, covers))
        same[x] = length if length > same_below else same_below
        other[x] = length - 1
    return outside, inside


def classify(X: FinitePoset, A: SubsetMask) -> DiffLevel:
    """Exact difference-hierarchy level of A, via alternating chains.

    Both ranks come from the one pass of ``_reach``.  With L the longest
    alternating chain, each rank is L or L - 1 (cut the first point off a
    longest chain), and it is L iff some chain of length L ends at a point
    whose membership makes it start on that rank's side: inside A iff the
    last point's membership is L's parity.  Approximability plays no role
    here: on a finite poset the up-set of every element is open, so every
    subset is approximable.
    """
    X.check_mask(A)
    outside, inside = _reach(X, A.as_int())
    ends = (max(outside, default=0), max(inside, default=0))  # longest chain ending outside, inside A
    top = max(ends)
    sigma = top if ends[top & 1] == top else top - 1
    pi = top if ends[top & 1 ^ 1] == top else top - 1
    return DiffLevel(sigma, pi)


def subset_levels(X: FinitePoset) -> dict[DiffLevel, int]:
    """The level of every subset of X at once: the level census.

    Bit v of the returned int for a level is set iff the subset with mask
    value v has that level; levels no subset has are left out.  This is
    ``_reach`` run once for all 2^n subsets, bit-sliced (Knuth, TAOCP 4A
    §7.1.3): bit v of M_x is bit x of v, and bit v of in_x[t] (out_x[t])
    is set iff reach[1][x] (reach[0][x]) is at least t for subset v.
    Index 0 holds every subset, and a maximum over no covers is 0, so
    with the ORs over the lower covers c of x,

        in_x[t]  = OR_c in_c[t]  | ( M_x & OR_c out_c[t-1])
        out_x[t] = OR_c out_c[t] | (~M_x & OR_c in_c[t-1]).

    Reach never falls going up, so the ORs over the maximal elements give
    the thresholds of the longest chain ending inside and outside, and
    ``classify``'s rule turns them into one int per level.  Each element
    pushes its rows into its upper covers' ORs and is then dropped, so
    only the rows of elements with a pending upper cover stay alive.
    """
    n = X.n
    full = (1 << (1 << n)) - 1
    above = X._cover_above
    # pending[y] ORs the rows of y's lower covers done so far; key -1 ORs the maximal elements'
    pending: dict[int, tuple[list[int], list[int]]] = {}
    for x in X.linext:
        reach_in, reach_out = pending.pop(x, ([full], [full]))
        inside = _element_slice(x, n)
        outside = full ^ inside
        reach_in.append(0)
        reach_out.append(0)
        for t in range(len(reach_in) - 1, 0, -1):  # downwards, so index t - 1 is still the covers' OR
            reach_in[t] |= inside & reach_out[t - 1]
            reach_out[t] |= outside & reach_in[t - 1]
        for y in above[x] or (-1,):
            if y not in pending:
                pending[y] = (reach_in[:], reach_out[:])
                continue
            for rows, source in zip(pending[y], (reach_in, reach_out)):
                for t in range(1, min(len(rows), len(source))):
                    rows[t] |= source[t]
                rows.extend(source[len(rows):])
    ends_in, ends_out = pending.pop(-1, ([full], [full]))
    levels: dict[DiffLevel, int] = {}
    longer = 0  # subsets with a longer chain than top
    for top in range(len(ends_in) - 1, -1, -1):
        end_in, end_out = ends_in.pop(), ends_out.pop()
        exact = (end_in | end_out) & ~longer
        longer = end_in | end_out
        # a longest chain starts inside iff it ends inside and top is odd, or outside and even
        starts_in, starts_out = (end_in, end_out) if top & 1 else (end_out, end_in)
        sigma_top, pi_top = starts_in & exact, starts_out & exact
        for level, members in (
            (DiffLevel(top, top), sigma_top & pi_top),
            (DiffLevel(top - 1, top), pi_top & ~sigma_top),
            (DiffLevel(top, top - 1), sigma_top & ~pi_top),
        ):
            if members:
                levels[level] = members
    return levels


def _element_slice(x: int, n: int) -> int:
    """The 2^n-bit int M_x whose bit v is bit x of v."""
    width = 1 << x
    pattern, period = ((1 << width) - 1) << width, 2 * width
    while period < 1 << n:
        pattern |= pattern << period
        period *= 2
    return pattern


def _set_bits(value: int) -> list[int]:
    """Indices of the set bits of a census int, lowest first, in one scan of its digits."""
    digits = format(value, "b")[::-1]
    found = []
    i = digits.find("1")
    while i >= 0:
        found.append(i)
        i = digits.find("1", i + 1)
    return found


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


def find_difference_representation(X: FinitePoset, A: SubsetMask, n: int) -> Optional[tuple[SubsetMask, ...]]:
    """Search for an increasing open sequence whose n-difference equals A.

    Depth-first over inclusion-increasing sequences of the open sets in
    ``enumerate_opens`` order; the next set is any superset of the union
    so far, which is the last set chosen.  A prefix fixes the membership
    of every point it covers (the block of a point is its first covering
    index), so any prefix that already disagrees with A is pruned.
    """
    X.check_mask(A)
    target = A.as_int()
    if n == 0:
        return () if target == 0 else None
    opens = X._open_ints
    include_parity = (n + 1) % 2

    def search(depth: int, covered: int, decided: int) -> Optional[list[int]]:
        if depth == n:
            return [] if decided == target else None
        include = depth % 2 == include_parity
        for O in opens:
            if O & covered != covered:
                continue
            fresh = O & ~covered
            if include:
                if fresh & ~target:
                    continue
                grown = decided | fresh
            else:
                if fresh & target:
                    continue
                grown = decided
            rest = search(depth + 1, O, grown)
            if rest is not None:
                return [O] + rest
        return None

    chosen = search(0, 0, 0)
    if chosen is None:
        return None
    return tuple(map(X.mask_from_int, chosen))


def oracle_level(
    X: FinitePoset,
    A: SubsetMask,
    cap: Optional[int] = ORACLE_DEFAULT_CAP,
) -> DiffLevel:
    """Level of A by exhaustive search over increasing open sequences.

    Ground truth for ``classify``: membership of A and of its complement
    in each sigma level up to |X| is decided straight from the
    definition.  Alternating chains bound both ranks by the element
    count, so no longer sequence is needed.
    """
    X.check_mask(A)
    if cap is not None and X.n > cap:
        raise CapExceeded(f"|X| = {X.n} exceeds the oracle cap {cap}")
    sigma = _least_level(X, A)
    pi = _least_level(X, A.complement())
    if sigma is None or pi is None:
        raise FinWadgeError(f"no difference representation of length <= {X.n} found")
    return DiffLevel(sigma, pi)


def _least_level(X: FinitePoset, A: SubsetMask) -> Optional[int]:
    for n in range(X.n + 1):
        if find_difference_representation(X, A, n) is not None:
            return n
    return None
