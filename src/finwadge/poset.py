"""Finite posets viewed as T0 topological spaces.

A finite poset carries the Alexandrov topology: the open sets are exactly
the upward closed subsets, the minimal open neighborhood of ``x`` is the
up-set of ``x``, and closure is downward closure.  All operations here are
pure functions over immutable values, so instances can be shared freely
between workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CycleError,
    DuplicateLabelError,
    EmptySubspace,
    SpaceMismatch,
    UnknownElement,
)


@dataclass(frozen=True)
class SubsetMask:
    """Subset of one fixed space as an int bitmask: bit i is element i."""

    space_id: str
    size: int
    value: int

    @property
    def bits(self) -> tuple[bool, ...]:
        """Membership vector, derived from the bitmask."""
        return tuple(bool(self.value >> i & 1) for i in range(self.size))

    def as_int(self) -> int:
        return self.value

    def count(self) -> int:
        return self.value.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(_members(self.value))

    def has(self, index: int) -> bool:
        return bool(self.value >> index & 1)

    def is_empty(self) -> bool:
        return self.value == 0

    def is_full(self) -> bool:
        return self.value == (1 << self.size) - 1

    def _check(self, other: "SubsetMask") -> None:
        if self.space_id != other.space_id:
            raise SpaceMismatch(f"masks belong to different spaces: {self.space_id} vs {other.space_id}")

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.space_id, self.size, self.value ^ (1 << self.size) - 1)

    def union(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space_id, self.size, self.value | other.value)

    def intersection(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space_id, self.size, self.value & other.value)

    def difference(self, other: "SubsetMask") -> "SubsetMask":
        self._check(other)
        return SubsetMask(self.space_id, self.size, self.value & ~other.value)

    def is_subset(self, other: "SubsetMask") -> bool:
        self._check(other)
        return self.value & ~other.value == 0

    def bitstring(self) -> str:
        return "".join("1" if self.value >> i & 1 else "0" for i in range(self.size))


@dataclass(frozen=True)
class DerivativeTrace:
    """Iterated removal of isolated points plus per-element rank.

    ``stages[0]`` is the whole space and each following stage drops the
    points that are isolated (equivalently: maximal) in the previous one.
    On a finite poset the stages always reach the empty set, and
    ``stages[k]`` is exactly the set of elements of rank >= k, where
    rank(x) = sup{rank(y) + 1 : x < y} and maximal elements have rank 0.
    """

    stages: tuple[SubsetMask, ...]
    rank_of: tuple[int, ...]

    @property
    def scattered_rank(self) -> int:
        return len(self.stages) - 1


@dataclass(frozen=True)
class FinitePoset:
    """A finite poset together with its Alexandrov topology.

    The order is stored once, as the int rows ``_up_int``: bit j of row i
    is set iff i <= j.  The constructor also accepts the order as a bool
    matrix (entry [i][j] is i <= j) and converts it to int rows once.
    ``leq``, the bool matrix, and ``cover``, that of the transitive
    reduction, are views derived from the rows on first use; their bool
    rows come from a bounded cache, so posets of one size share them.
    The down rows, the cover rows, the linear extension ``linext`` and
    the ``space_id`` fingerprint are built at construction; the other
    index structures are derived on first use and then reused by all
    operations.  The fingerprint hashes the labels, then the int rows as
    bytes (not as decimals, which Python refuses past 4,300 digits).

    Construction makes one topological pass over the cover edges.  The
    cover rows C are read off the int rows U.  ``linext`` is Kahn's order
    of C, lowest ready index first: an element is placed once all its
    lower covers are, which in an order means once everything strictly
    below it is.  When no row holds a bit below its own index, the index
    order is a linear extension: C is then read off by lowest-bit picks
    (``_cover_rows_upward``) and ``linext`` is the index order, which is
    Kahn's order there, so no Kahn pass runs.  U is accepted iff that
    order exists and, for every x,

        U[x] = {x} | U[c1] | ... | U[ck],   where C[x] = {c1, ..., ck}.

    Proof that this holds iff U is a partial order.  If it holds, C is
    acyclic, and by induction from the top of ``linext`` each U[x] is the
    set of elements reachable from x along C.  So U is the
    reflexive-transitive closure of an acyclic graph: reflexive,
    transitive, and antisymmetric, since x <= y <= x with x != y would
    close a cycle.  Conversely, if U is a partial order, C is its Hasse
    diagram, which is acyclic, and every y > x lies above some upper
    cover of x, so the equation holds.  Only input that fails the check
    is scanned row by row, to raise on the first bad pair.  The down rows
    are pushed up along ``linext``.  On rows in a linear-extension index
    order, construction takes O(n + covers) big-int operations.  Other
    rows pay one OR per comparable pair to read off C (``_cover_rows``),
    since the picks need their lowest bit to be minimal.
    """

    labels: tuple[str, ...]
    _up_int: tuple[int, ...]
    linext: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise DuplicateLabelError("element labels must be distinct")
        rows = self._up_int
        if len(rows) != n:
            raise ValueError("leq matrix shape does not match label count")
        # bit j of up[i], and bit i of down[j], is set iff i <= j
        if n and all(type(row) is int for row in rows):
            up = tuple(rows)
            if any(row < 0 or row >> n for row in up):
                raise ValueError("leq matrix shape does not match label count")
        else:
            if any(len(row) != n for row in rows):
                raise ValueError("leq matrix shape does not match label count")
            up = tuple(map(_row_int, rows))
        upward = all(row >> x << x == row for x, row in enumerate(up))
        covers = _cover_rows_upward(up) if upward else _cover_rows(up)
        above = [tuple(_members(row)) for row in covers]
        # every cover then points to a higher index, so Kahn's order is the index order
        order = _index_order(n) if upward else _topological_order(above)
        if order is None or any(
            reduce(or_, map(up.__getitem__, above[x]), 1 << x) != up[x] for x in reversed(order)
        ):
            _reject_order(self.labels, up)
        down = [1 << x for x in range(n)]
        for x in order:
            for y in above[x]:
                down[y] |= down[x]
        # tuple() keeps _index_order's tuple, one per size, as all_posets makes many
        object.__setattr__(self, "linext", tuple(order))
        object.__setattr__(self, "_up_int", up)
        object.__setattr__(self, "_down_int", tuple(down))
        object.__setattr__(self, "_cover_int", covers)
        fingerprint = hashlib.sha256(repr(self.labels).encode())
        width = (n + 7) // 8
        for row in up:
            fingerprint.update(row.to_bytes(width, "little"))
        object.__setattr__(self, "space_id", fingerprint.hexdigest()[:16])

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, element: "str | int") -> int:
        if isinstance(element, int):
            if not 0 <= element < self.n:
                raise UnknownElement(f"index {element} out of range")
            return element
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None

    def le(self, x: "str | int", y: "str | int") -> bool:
        return bool(self._up_int[self.index(x)] >> self.index(y) & 1)

    def strict_below(self, i: int) -> tuple[int, ...]:
        return self._strict_below[i]

    # Index structures, built on first use (construction does not pay for
    # them) and shared by every later search on this poset.

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _strict_below(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_members(row & ~(1 << i))) for i, row in enumerate(self._down_int))

    @cached_property
    def _cover_above(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_members(row)) for row in self._cover_int)

    @cached_property
    def _cover_below(self) -> tuple[tuple[int, ...], ...]:
        below: list[list[int]] = [[] for _ in range(self.n)]
        for i, above in enumerate(self._cover_above):
            for j in above:
                below[j].append(i)
        return tuple(map(tuple, below))

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """The order matrix: entry [i][j] is i <= j."""
        return tuple(_bool_row(row, self.n) for row in self._up_int)

    @cached_property
    def cover(self) -> tuple[tuple[bool, ...], ...]:
        """The cover matrix: the transitive reduction of ``leq``."""
        return tuple(_bool_row(row, self.n) for row in self._cover_int)

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, upper), sorted by index."""
        return tuple((i, j) for i, above in enumerate(self._cover_above) for j in above)

    @cached_property
    def discrete(self) -> "FinitePoset":
        """The antichain on these labels, for which every self-map is monotone."""
        return FinitePoset(self.labels, tuple(1 << i for i in range(self.n)))

    # -- mask constructors -----------------------------------------------

    def empty_mask(self) -> SubsetMask:
        return SubsetMask(self.space_id, self.n, 0)

    def full_mask(self) -> SubsetMask:
        return SubsetMask(self.space_id, self.n, (1 << self.n) - 1)

    def mask_from_indices(self, indices: Iterable[int]) -> SubsetMask:
        value = 0
        for i in set(indices):
            if not 0 <= i < self.n:
                raise UnknownElement(f"index {i} out of range")
            value |= 1 << i
        return SubsetMask(self.space_id, self.n, value)

    def mask(self, names: Iterable[str]) -> SubsetMask:
        return self.mask_from_indices(self.index(name) for name in names)

    def mask_from_bits(self, bits: "str | Sequence[bool] | Sequence[int]") -> SubsetMask:
        if isinstance(bits, str):
            values = []
            for ch in bits:
                if ch not in "01":
                    raise ValueError(f"bad bit {ch!r} in bit string")
                values.append(ch == "1")
        else:
            values = [bool(b) for b in bits]
        if len(values) != self.n:
            raise ValueError(f"bit vector has length {len(values)}, expected {self.n}")
        return SubsetMask(self.space_id, self.n, sum(1 << i for i, b in enumerate(values) if b))

    def mask_from_int(self, value: int) -> SubsetMask:
        return SubsetMask(self.space_id, self.n, value & (1 << self.n) - 1)

    def members(self, A: SubsetMask) -> tuple[str, ...]:
        self.check_mask(A)
        return tuple(self.labels[i] for i in A.indices())

    def check_mask(self, A: SubsetMask) -> None:
        if A.space_id != self.space_id:
            raise SpaceMismatch("mask belongs to a different space")
        if A.size != self.n:
            raise SpaceMismatch("mask length does not match the space")

    # -- topology --------------------------------------------------------

    def up_set(self, element: "str | int") -> SubsetMask:
        """Minimal open neighborhood of an element."""
        i = self.index(element)
        return self.mask_from_int(self._up_int[i])

    def down_set(self, element: "str | int") -> SubsetMask:
        i = self.index(element)
        return self.mask_from_int(self._down_int[i])

    def is_open(self, A: SubsetMask) -> bool:
        """True iff A is upward closed."""
        self.check_mask(A)
        a = A.as_int()
        for i in A.indices():
            if self._up_int[i] & ~a:
                return False
        return True

    def closure(self, A: SubsetMask) -> SubsetMask:
        """Topological closure: downward closure of A."""
        self.check_mask(A)
        out = 0
        for i in A.indices():
            out |= self._down_int[i]
        return self.mask_from_int(out)

    def interior(self, A: SubsetMask) -> SubsetMask:
        """Largest up-set contained in A."""
        self.check_mask(A)
        a = A.as_int()
        out = 0
        for i in A.indices():
            if self._up_int[i] & ~a == 0:
                out |= 1 << i
        return self.mask_from_int(out)

    def boundary(self, A: SubsetMask) -> SubsetMask:
        """cl(A) minus int(A); for open A this is cl(A) minus A."""
        return self.closure(A).difference(self.interior(A))

    def enumerate_opens(self) -> Iterator[SubsetMask]:
        """Yield every up-set exactly once, by cardinality then bit order.

        The count grows like the number of antichains, i.e. exponentially
        in the worst case; callers that accept arbitrary spaces should cap
        the element count (the CLI defaults to 16).
        """
        return iter([SubsetMask(self.space_id, self.n, v) for v in self._open_ints])

    @cached_property
    def _open_ints(self) -> tuple[int, ...]:
        """The up-sets as bitmasks, in ``enumerate_opens`` order."""
        found = [0]
        for x in reversed(self.linext):  # successors decided first
            bit = 1 << x
            found += [v | bit for v in found if self._up_int[x] & ~v == bit]
        found.sort(key=_subset_order)  # cardinality, then sets containing earlier elements first
        return tuple(found)

    # -- derivatives and dimension ----------------------------------------

    def derivative_trace(self) -> DerivativeTrace:
        """Stages of isolated-point removal plus the element ranks.

        In a finite Alexandrov space a point is isolated within a subspace
        iff it is maximal there, so each stage drops the current maximal
        elements, and stage k is the set of elements of rank >= k.
        """
        ranks = [0] * self.n
        for i in reversed(self.linext):
            above = self._cover_above[i]
            ranks[i] = 1 + max(ranks[j] for j in above) if above else 0
        stages = [0] * (max(ranks) + 2 if ranks else 1)
        for i, r in enumerate(ranks):
            stages[r] |= 1 << i
        for k in range(len(stages) - 2, -1, -1):
            stages[k] |= stages[k + 1]
        return DerivativeTrace(tuple(map(self.mask_from_int, stages)), tuple(ranks))

    def dimension(self) -> int:
        """Inductive dimension, -1 for the empty space; it equals the height.

        The minimal open neighborhood of x is its up-set, so
        dim(X) = 1 + max_x dim(boundary of up(x)), and by induction on |X|
        this is the height h (elements in a longest chain, minus one).  A
        chain of h+1 elements in the boundary of up(x) would have its top
        below some z >= x, hence equal to z (a lower top gives a longer
        chain) and inside up(x); and a longest chain x0 < ... < xh puts
        x0 ... x(h-1) in the boundary of up(xh), so the bound is reached.
        """
        return self.derivative_trace().scattered_rank - 1

    # -- subspaces ---------------------------------------------------------

    def subspace(self, A: SubsetMask) -> "FinitePoset":
        """Induced poset on A; its Alexandrov topology is the relative one."""
        self.check_mask(A)
        keep = A.indices()
        if not keep:
            raise EmptySubspace("subspace of the empty set is not a space")
        labels = tuple(self.labels[i] for i in keep)
        position = {j: k for k, j in enumerate(keep)}
        a = A.as_int()
        up = tuple(sum(1 << position[j] for j in _members(self._up_int[i] & a)) for i in keep)
        return FinitePoset(labels, up)


def build_poset(labels: Sequence[str], covers: Sequence[tuple[str, str]]) -> FinitePoset:
    """Build the poset generated by cover pairs (lower, upper).

    The order is the reflexive-transitive closure of the pairs, closed on
    int rows, which the poset then stores as its order unconverted.  The
    rows are closed from the top of Kahn's order of the pairs: each row
    ORs in the closed rows of its direct successors, O(n + pairs) ORs in
    all.  Pairs with a cycle have no such order; their rows are closed by
    Warshall's pass instead, so that FinitePoset rejects the closure with
    CycleError on the same first bad pair.
    """
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError("element labels must be distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    succ = [0] * n
    for pair in covers:
        lo, hi = (str(pair[0]), str(pair[1]))
        if lo not in index:
            raise UnknownElement(f"cover pair refers to unknown element {lo!r}")
        if hi not in index:
            raise UnknownElement(f"cover pair refers to unknown element {hi!r}")
        if lo == hi:
            raise CycleError(f"cover pair ({lo!r}, {hi!r}) is a loop")
        succ[index[lo]] |= 1 << index[hi]
    above = [tuple(_members(row)) for row in succ]
    order = _topological_order(above)
    if order is None:
        return FinitePoset(labels, _warshall_closure(succ))
    up = [0] * n
    for x in reversed(order):
        up[x] = reduce(or_, map(up.__getitem__, above[x]), 1 << x)
    return FinitePoset(labels, tuple(up))


def _warshall_closure(succ: Sequence[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure of successor rows by Warshall's pass.

    Every row holding k takes in k's row.  It also closes graphs with
    cycles, which have no topological order.
    """
    up = [row | 1 << i for i, row in enumerate(succ)]
    for k in range(len(up)):
        bit, row = 1 << k, up[k]
        for i in compress(range(len(up)), map(bit.__and__, up)):
            up[i] |= row
    return tuple(up)


def poset_isomorphic(X: FinitePoset, Y: FinitePoset) -> Optional[tuple[int, ...]]:
    """First order-isomorphism from X onto Y in backtracking order, if any.

    Candidates are pruned by colour refinement, and elements are assigned
    in index order with target indices tried in increasing order, so the
    witness is deterministic.  The search runs on an explicit stack: depth
    i holds the position in i's candidate list to try next.
    """
    if X.n != Y.n:
        return None
    cx = _refined_colors(X)
    cy = _refined_colors(Y)
    if sorted(cx) != sorted(cy):
        return None
    n = X.n
    targets: dict[int, list[int]] = {}
    for t, c in enumerate(cy):
        targets.setdefault(c, []).append(t)
    options = [targets[c] for c in cx]
    x_up, x_down, y_up, y_down = X._up_int, X._down_int, Y._up_int, Y._down_int
    image: list[int] = []
    placed = 0  # bitmask of the images so far
    tried = [0] * n
    i = 0
    while 0 <= i < n:
        # i must relate to the elements placed so far as its target does to their images:
        # the placed bits of t's rows must be the images of i's rows below index i
        want_up = want_down = 0
        for j in _members(x_up[i] & ((1 << i) - 1)):
            want_up |= 1 << image[j]
        for j in _members(x_down[i] & ((1 << i) - 1)):
            want_down |= 1 << image[j]
        for k in range(tried[i], len(options[i])):
            t = options[i][k]
            if not placed >> t & 1 and y_up[t] & placed == want_up and y_down[t] & placed == want_down:
                tried[i] = k + 1
                image.append(t)
                placed |= 1 << t
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
            if i >= 0:
                placed ^= 1 << image.pop()
    return tuple(image) if i == n else None


def _refined_colors(P: FinitePoset) -> tuple[int, ...]:
    return _refine(P._cover_above, P._cover_below)


def _refine(above: Sequence[Sequence[int]], below: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Colour refinement of a cover graph, from one colour to a stable partition.

    A round recolours each element by its colour and the sorted colours
    of its upper and lower covers, numbered in sorted order, so on
    isomorphic posets every round produces identical colour multisets.
    From one colour, the first round's signatures are (0, zeros, zeros)
    and sort as the pairs of cover counts, so it numbers those pairs
    directly.  Rounds only split classes, and refinement stops at the
    first round that splits none, or at a discrete partition, which the
    next round would keep: the colours of a stable partition are a fixed
    point.
    """
    n = len(above)
    degrees = [(len(up), len(down)) for up, down in zip(above, below)]
    legend = {d: k for k, d in enumerate(sorted(set(degrees)))}
    colors = list(map(legend.__getitem__, degrees))
    classes = len(legend)
    while 1 < classes < n:
        get = colors.__getitem__
        sig = [
            (colors[i], tuple(sorted(map(get, above[i]))), tuple(sorted(map(get, below[i]))))
            for i in range(n)
        ]
        legend = {s: k for k, s in enumerate(sorted(set(sig)))}
        colors = list(map(legend.__getitem__, sig))
        if len(legend) == classes:
            break
        classes = len(legend)
    return tuple(colors)


def _row_int(row: Sequence[bool]) -> int:
    """Bitmask of the true entries of a matrix row: bit j is row[j]."""
    return int(bytes(map(bool, reversed(row))).translate(_BINARY_DIGITS) or b"0", 2)


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


@lru_cache(maxsize=16)
def _index_order(n: int) -> tuple[int, ...]:
    """One copy per size of the linear extension 0, 1, ..., n-1."""
    return tuple(range(n))


@lru_cache(maxsize=256)
def _bool_row(row: int, n: int) -> tuple[bool, ...]:
    """Matrix row of length n from a bitmask: entry j is bit j.

    One copy per recent (row, n), as the posets of one size share rows.
    """
    return tuple([bit == "1" for bit in format(row, f"0{n}b")[::-1]])


def _cover_rows(up: Sequence[int]) -> tuple[int, ...]:
    """Bitmask rows of the cover relation: the minimal strict successors of each element."""
    strict = [row & ~(1 << i) for i, row in enumerate(up)]
    return tuple([row & ~reduce(or_, compress(strict, _bit_flags(row)), 0) for row in strict])


def _cover_rows_upward(up: Sequence[int]) -> tuple[int, ...]:
    """``_cover_rows`` for rows whose index order is a linear extension.

    Every row holds only its own index and higher ones.  Start from x's
    strict up row, and repeatedly pick its lowest bit y left and drop y
    and everything above y.  Each y is an upper cover of x: an element
    strictly between has a lower index, so it was either left, and then
    picked first, or dropped with some element below it, which drops y
    too.  Every other element lies above some cover and is dropped.  That
    takes O(covers) big-int operations, where ``_cover_rows`` takes one OR
    per comparable pair.  y's own bit is dropped even where row y lacks
    it, so rows that are no order still end the loop, and then fail the
    check of ``FinitePoset``.
    """
    covers = []
    for x, row in enumerate(up):
        rest = row & ~(1 << x)
        cover = 0
        while rest:
            low = rest & -rest
            cover |= low
            rest &= ~(up[low.bit_length() - 1] | low)
        covers.append(cover)
    return tuple(covers)


def _bit_flags(value: int) -> bytes:
    """Byte j is 1 iff bit j of value is set: a selector for itertools.compress."""
    return bin(value)[:1:-1].encode().translate(_BIT_FLAGS)


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _topological_order(succ: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Kahn's order of the graph with successor lists succ, None if it has a cycle.

    succ[i] lists the j with an edge i -> j, each once.  Among the
    elements whose predecessors are all placed, the lowest index comes
    next.
    """
    n = len(succ)
    waiting = [0] * n  # predecessors not yet placed
    for row in succ:
        for y in row:
            waiting[y] += 1
    ready = [x for x in range(n) if not waiting[x]]
    heapify(ready)
    order: list[int] = []
    while ready:
        x = heappop(ready)
        order.append(x)
        for y in succ[x]:
            waiting[y] -= 1
            if not waiting[y]:
                heappush(ready, y)
    return order if len(order) == n else None


def _reject_order(labels: Sequence[str], up: Sequence[int]) -> None:
    """Raise for rows that are not a partial order, naming the first bad pair.

    Rows are checked in index order: row i must hold i, and then each
    pair (i, j) of row i, by increasing j, must have j not below i
    (antisymmetry) and row j inside row i (transitivity), in that order.
    Only input that failed the validation of ``FinitePoset`` comes here.
    """
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise ValueError("order must be reflexive")
        for j in _members(row ^ 1 << i):
            if up[j] >> i & 1:
                raise CycleError(f"antisymmetry violated on {labels[i]!r}, {labels[j]!r}")
            if up[j] & ~row:
                raise ValueError("order must be transitive")
    raise AssertionError("rows form a partial order")


def _subset_order(value: int) -> tuple:
    """Sort key of subsets as bitmasks: size, then the sorted members."""
    return value.bit_count(), tuple(_members(value))


def _members(value: int) -> Iterator[int]:
    """Indices of the set bits of value, lowest first."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low
