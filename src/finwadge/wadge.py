"""Continuous reducibility between subsets and k-partitions.

On a finite Alexandrov space the continuous self-maps are exactly the
monotone ones, so deciding whether A reduces to B is a finite search for
a monotone map with f(x) in B iff x in A.  The quotient of a family of
subsets (or partitions) under mutual reducibility is a finite poset of
degrees; this module builds it and reports its shape diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

from .errors import CapExceeded, ColorCountMismatch, SpaceMismatch
from .hierarchy import DiffLevel, _element_slice, _set_bits, classify, level_leq, subset_levels
from .poset import FinitePoset, SubsetMask, _members, _subset_order


class ReducibilityKind(Enum):
    """Reducing function class: monotone maps, or all self-maps.

    Every subset of a finite T0 space is Delta^0_2, so for beta >= 2 the
    Delta^0_beta reductions are all the self-maps.  These are the monotone
    maps of the discrete order, so ``order`` turns a kind into the order
    that the engine searches, and nothing below it takes a kind.
    """

    WADGE = "wadge"
    ALL_FUNCTIONS = "any"

    def order(self, X: FinitePoset) -> FinitePoset:
        """The order whose monotone maps are this kind's reductions on X."""
        return X if self is ReducibilityKind.WADGE else X.discrete


@dataclass(frozen=True)
class MonotoneMap:
    """Total self-map given by per-element target indices.

    Witnesses returned for the WADGE kind are monotone (continuity on
    finite Alexandrov spaces); ALL_FUNCTIONS witnesses need not be.
    """

    space_id: str
    image: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.image[i]

    def preimage(self, B: SubsetMask) -> SubsetMask:
        if B.space_id != self.space_id:
            raise SpaceMismatch("mask belongs to a different space")
        value = sum(1 << x for x, t in enumerate(self.image) if B.has(t))
        return SubsetMask(self.space_id, len(self.image), value)

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.space_id != self.space_id:
            raise SpaceMismatch("maps belong to different spaces")
        return MonotoneMap(self.space_id, tuple(self.image[t] for t in inner.image))


@dataclass(frozen=True)
class KPartition:
    """A naming of the space with k colors (a k-partition)."""

    space_id: str
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("a partition needs at least one color")
        if any(not 0 <= c < self.k for c in self.colors):
            raise ValueError("every color value must be below k")

    @classmethod
    def constant(cls, X: FinitePoset, k: int, color: int) -> "KPartition":
        return cls(X.space_id, k, (color,) * X.n)

    @classmethod
    def from_subset(cls, A: SubsetMask) -> "KPartition":
        """Characteristic 2-partition of a subset (color 1 on the set)."""
        return cls(A.space_id, 2, tuple(A.value >> i & 1 for i in range(A.size)))

    def color_class(self, color: int) -> SubsetMask:
        value = sum(1 << i for i, c in enumerate(self.colors) if c == color)
        return SubsetMask(self.space_id, len(self.colors), value)

    def colorstring(self) -> str:
        """One digit per element, so colors run from 0 to 9."""
        if any(c > 9 for c in self.colors):
            raise ValueError("a color string has one digit per color, so every color must be below 10")
        return "".join(map(str, self.colors))

    def compose_with(self, f: MonotoneMap) -> "KPartition":
        """self after f."""
        if f.space_id != self.space_id:
            raise SpaceMismatch("map belongs to a different space")
        return KPartition(self.space_id, self.k, tuple(self.colors[t] for t in f.image))


# not typing.Union: its process-wide cache would keep every re-imported copy
# of the package alive
Item = SubsetMask | KPartition


def is_monotone(X: FinitePoset, f: "MonotoneMap | Sequence[int]") -> bool:
    """Order preservation; this is the continuity test on finite posets."""
    image = f.image if isinstance(f, MonotoneMap) else tuple(f)
    if len(image) != X.n:
        raise SpaceMismatch("map length does not match the space")
    if not all(0 <= t < X.n for t in image):
        raise SpaceMismatch("map sends a point outside the space")
    up = X._up_int
    return all(up[image[i]] >> image[j] & 1 for i, j in X.hasse_edges())


def constant_partitions(X: FinitePoset, k: int) -> list[KPartition]:
    if k < 1:
        raise ValueError("a partition needs at least one color")
    return [KPartition.constant(X, k, i) for i in range(k)]


def wadge_reduces(
    X: FinitePoset,
    A: SubsetMask,
    B: SubsetMask,
    kind: ReducibilityKind = ReducibilityKind.WADGE,
) -> Optional[MonotoneMap]:
    """Witness f with f(x) in B iff x in A, or None if no witness exists.

    The witness is the first solution along the cached linear extension,
    with targets tried in increasing index order, so it is deterministic.
    The level signatures of A and B prefilter the search (``_reduction``).
    """
    X.check_mask(A)
    X.check_mask(B)
    Y = kind.order(X)
    sa, sb = _signatures(Y, (A, B))
    return _reduction(Y, A, B, sa, sb)


def partition_reduces(X: FinitePoset, mu: KPartition, nu: KPartition) -> Optional[MonotoneMap]:
    """Monotone f with mu(x) = nu(f(x)) for every x, or None.

    For k = 2 this agrees with wadge_reduces through characteristic
    functions.
    """
    return _partition_reduces(X, mu, nu, ReducibilityKind.WADGE)


def _partition_reduces(
    X: FinitePoset, mu: KPartition, nu: KPartition, kind: ReducibilityKind
) -> Optional[MonotoneMap]:
    _check_partitions(X, mu, nu)
    Y = kind.order(X)
    smu, snu = _signatures(Y, (mu, nu))
    return _reduction(Y, mu, nu, smu, snu)


def _check_partitions(X: FinitePoset, mu: KPartition, nu: KPartition) -> None:
    if mu.space_id != X.space_id or nu.space_id != X.space_id:
        raise SpaceMismatch("partition belongs to a different space")
    if len(mu.colors) != X.n or len(nu.colors) != X.n:
        raise SpaceMismatch("partition length does not match the space")
    if mu.k != nu.k:
        raise ColorCountMismatch(f"color counts differ: {mu.k} vs {nu.k}")


def _signatures(X: FinitePoset, items: Sequence[Item]) -> list[tuple[DiffLevel, ...]]:
    """The level signature of each item in the order X, the key of every prefilter.

    It is the difference level of a subset and the tuple of its color
    classes' levels for a partition, each set classified as a mask of X
    (``ReducibilityKind.order``).  The level of a complement is its set's
    level with the two ranks swapped, so ``classify`` runs on at most one
    set of each complement pair.
    """
    full = (1 << X.n) - 1
    levels: dict[int, DiffLevel] = {}
    sigs = []
    for item in items:
        sig = []
        values = (item.value,) if isinstance(item, SubsetMask) else [item.color_class(c).value for c in range(item.k)]
        for value in values:
            level = levels.get(value)
            if level is None:
                dual = levels.get(value ^ full)
                level = classify(X, X.mask_from_int(value)) if dual is None else dual.complement()
                levels[value] = level
            sig.append(level)
        sigs.append(tuple(sig))
    return sigs


def _reduction(X: FinitePoset, a: Item, b: Item, sa: tuple, sb: tuple) -> Optional[MonotoneMap]:
    """The kernel's witness that item a reduces to item b in the order X, or None.

    sa and sb are the items' level signatures (``_signatures``).  Levels
    are closed under continuous preimages, so a reduction needs every
    entry of sa at or below the same entry of sb, and the search runs
    only when they are.  The witness belongs to the items' space.
    """
    if not all(map(level_leq, sa, sb)):
        return None
    image = _search_map(X, _domains(X, a, b))
    return None if image is None else MonotoneMap(a.space_id, image)


def _domains(X: FinitePoset, a: Item, b: Item) -> list[int]:
    """Allowed targets of each x for a reduction of item a to item b."""
    if isinstance(a, SubsetMask):
        inside = b.value
        outside = inside ^ (1 << X.n) - 1
        return [inside if a.value >> x & 1 else outside for x in range(X.n)]
    classes = [0] * b.k
    for x, c in enumerate(b.colors):
        classes[c] |= 1 << x
    return [classes[c] for c in a.colors]


def _arc_consistent(X: FinitePoset, domains: Sequence[int]) -> Optional[list[int]]:
    """The greatest arc-consistent domains inside domains, or None if one is empty.

    The arcs are the cover edges: for each cover y < z, every t in dom[z]
    needs some s <= t in dom[y], and every s in dom[y] some t >= s in
    dom[z]; a value without support belongs to no monotone map.  Sweeps
    along X.linext alternate: the upward one narrows each dom[z] to the
    up-closures of its lower covers' domains, the downward one, in reverse
    order, each dom[y] to the down-closures of its upper covers' domains.
    A sweep leaves every arc of its direction consistent, since each
    cover it reads is final by then; so the first sweep after the first
    that changes nothing ends at the fixpoint.  Each closure is computed
    once per distinct domain value, and its union skips every value
    already inside it, since a union of up-sets (down-sets) is one.
    """
    dom = list(domains)
    if not all(dom):
        return None
    order = X.linext
    sweeps = (
        (order, X._cover_below, X._up_int, {}, True),
        (order[::-1], X._cover_above, X._down_int, {}, False),
    )
    first = True
    while True:
        for elements, covers, rows, closures, lowest_first in sweeps:
            changed = False
            for x in elements:
                d = old = dom[x]
                for c in covers[x]:
                    source = dom[c]
                    reach = closures.get(source)
                    if reach is None:
                        reach, rest = 0, source
                        while rest:
                            bit = (rest & -rest).bit_length() if lowest_first else rest.bit_length()
                            reach |= rows[bit - 1]
                            rest &= ~reach
                        closures[source] = reach
                    d &= reach
                if d != old:
                    if not d:
                        return None
                    dom[x] = d
                    changed = True
            if not (changed or first):
                return dom
            first = False


def _search_map(X: FinitePoset, domains: Sequence[int]) -> Optional[tuple[int, ...]]:
    """First monotone map with f(x) in the bitmask domains[x], or None.

    Monotonicity constrains only the covers y < z, so they are the whole
    constraint graph, and two prunings on it remove only values that
    belong to no solution:
    - at the root, arc consistency (``_arc_consistent``): f(z) needs a
      support in the up-closure of dom[y], f(y) one in the down-closure
      of dom[z];
    - forward checking along X.linext: setting f(x) = t narrows the
      domain of each upper cover of x to the up-set of t, and a trail of
      (element, old domain) pairs undoes that on backtracking.
    The search is depth-first along X.linext with an explicit stack, and
    the candidates at each depth are the current domain, tried lowest
    index first.  So the result is the first solution in linear-extension
    order, as without the prunings; the root pass ends at the unique
    greatest arc-consistent domains.  The candidates are dom[x] inside
    up[f(p)] for every p < x, as if every strict successor were narrowed:
    the assigned elements form a down-set on which f is monotone, and
    each p < x lies below some lower cover c of x, so up[f(c)] lies
    inside up[f(p)].  On a down-forest (at most one lower cover each) the
    search never backtracks: x's candidates are its arc-consistent domain
    inside up[f(c)], where f(c) has a support.  A search is then n
    assignments, O(n + covers) work (Freuder, J. ACM 1982).
    """
    n = X.n
    if n == 0:
        return ()
    dom = _arc_consistent(X, domains)
    if dom is None:
        return None
    up = X._up_int
    order = X.linext
    above = X._cover_above
    image = [0] * n
    untried = [0] * n
    marks = [0] * n  # trail length before the value at each depth was tried
    trail: list[tuple[int, int]] = []
    untried[0] = dom[order[0]]
    pos = 0
    while pos >= 0:
        mark = marks[pos]
        while len(trail) > mark:
            z, d = trail.pop()
            dom[z] = d
        candidates = untried[pos]
        if not candidates:
            pos -= 1
            continue
        low = candidates & -candidates
        untried[pos] = candidates ^ low
        x = order[pos]
        t = low.bit_length() - 1
        image[x] = t
        allowed = up[t]
        for z in above[x]:
            d = dom[z]
            if d & ~allowed:
                trail.append((z, d))
                d &= allowed
                dom[z] = d
                if not d:
                    break
        else:
            pos += 1
            if pos == n:
                return tuple(image)
            untried[pos] = dom[order[pos]]
            marks[pos] = len(trail)
    return None


@dataclass(frozen=True)
class Diagnostics:
    """Shape diagnostics for a finite degree structure.

    Every finite structure is trivially a well-quasi-order, so only the
    finite analogue of semi-well-ordering is reported: no SLO violations
    and no antichain beyond size two.  Asymptotic good/bad labels are not
    emitted; they are not observable at finite scale.
    """

    max_antichain: int
    slo_violations: tuple[tuple[int, int], ...]

    @property
    def finitely_very_good(self) -> bool:
        return not self.slo_violations and self.max_antichain <= 2

    @property
    def slo_violation_count(self) -> int:
        return len(self.slo_violations)


@dataclass(frozen=True)
class DegreeStructure:
    """Quotient of a family of items under mutual reducibility.

    ``classes`` partitions item indices into equivalence classes whose
    canonical representative is the first member in item order
    (``representatives``); ``strict_order`` and ``hasse`` relate class
    indices.  SLO violations are ordered class pairs (i, j) with neither
    rep(i) <= rep(j) nor complement(rep(j)) <= rep(i); they are only
    meaningful for subset items and stay empty for partitions.  ``class_reps`` and
    ``class_sizes`` are the shape that reports read, shared with
    ``SubsetQuotient``.
    """

    items: tuple[Item, ...]
    kind: ReducibilityKind
    classes: tuple[tuple[int, ...], ...]
    strict_order: tuple[tuple[int, int], ...]
    hasse: tuple[tuple[int, int], ...]
    diagnostics: Diagnostics

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def item_count(self) -> int:
        return len(self.items)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def class_reps(self) -> tuple[Item, ...]:
        return tuple(self.items[r] for r in self.representatives)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.classes))

    def minimal_classes(self) -> tuple[int, ...]:
        above = {j for _, j in self.strict_order}
        return tuple(i for i in range(self.class_count) if i not in above)


@dataclass(frozen=True)
class SubsetQuotient:
    """Quotient of all subsets of an order under its monotone maps, without the subsets.

    Per class: its representative, the first member in ``all_subsets``
    order; its size; and its difference level.  Classes are numbered in
    the order of their representatives, and ``strict_order``, ``hasse``
    and ``diagnostics`` relate them as in ``DegreeStructure``.
    """

    class_reps: tuple[SubsetMask, ...]
    class_sizes: tuple[int, ...]
    class_levels: tuple[DiffLevel, ...]
    strict_order: tuple[tuple[int, int], ...]
    hasse: tuple[tuple[int, int], ...]
    diagnostics: Diagnostics

    @property
    def item_count(self) -> int:
        return sum(self.class_sizes)


def all_subsets(X: FinitePoset, cap: Optional[int] = None) -> list[SubsetMask]:
    """Every subset of the space, by cardinality then earliest members."""
    _check_subset_cap(X, cap)
    return [
        SubsetMask(X.space_id, X.n, sum(1 << i for i in members))
        for k in range(X.n + 1)
        for members in combinations(range(X.n), k)
    ]


def _check_subset_cap(X: FinitePoset, cap: Optional[int]) -> None:
    if cap is not None and X.n > cap:
        raise CapExceeded(f"|X| = {X.n} exceeds the all-subsets cap {cap}")


def degree_structure(
    X: FinitePoset, items: Sequence[Item], kind: ReducibilityKind = ReducibilityKind.WADGE
) -> DegreeStructure:
    """Quotient order of the items under the chosen reducibility.

    The reductions are the monotone maps of ``kind.order(X)``.  Each
    item gets one level signature in that order (``_signatures``), and
    ``_quotient`` groups the items by it.

    Subsets need no search outside equal Delta levels: for
    subsets A, B of a finite poset, B reduces to A iff level_leq(B, A),
    unless both are ProperDelta(k) with the same k.  Proof: let b(x) be
    the longest B-alternating chain that ends at x and starts inside B.
    A chain ending at x < y extends by y or swaps x for y, so b is
    monotone; x is in B iff b(x) is odd; and max b = sigma_B.  If
    sigma_B < pi_A, let q_1 < ... < q_{pi_A} be a longest A-alternating
    chain starting outside A.  Then f(x) = q_{b(x)+1} is monotone, and
    f(x) is in A iff b(x) + 1 is even iff x is in B, so B = f^-1(A).  If
    pi_B < sigma_A, the dual map uses chains starting outside B and
    inside A.  Under level_leq(B, A), sigma_B >= pi_A and pi_B >= sigma_A
    give pi_A <= sigma_B <= sigma_A <= pi_B <= pi_A, so both conditions
    fail only when all four ranks are equal.

    Nor do ProperDelta(1) sets split: such a set A is clopen, nonempty
    and proper, and in an Alexandrov space a clopen set is a union of
    connected components.  For B also ProperDelta(1), send each
    component of A to one point of B and each other component to one
    point outside B.  The map is constant on each component, so it is
    monotone, and its preimage of B is A.  So the kernel runs only
    between two sets of one ProperDelta(k) level with k >= 2.
    """
    items = tuple(items)
    if items:
        first = type(items[0])
        if any(type(it) is not first for it in items):
            raise TypeError("items must be all subsets or all partitions")
    subsets = bool(items) and isinstance(items[0], SubsetMask)
    for item in items:
        if subsets:
            X.check_mask(item)
        else:
            _check_partitions(X, item, items[0])
    Y = kind.order(X)
    classes, strict, hasse, diagnostics = _quotient(Y, items, _signatures(Y, items))
    return DegreeStructure(items, kind, classes, strict, hasse, diagnostics)


CENSUS_MAX_SIZE = 24


def subset_quotient(X: FinitePoset, cap: Optional[int] = None) -> SubsetQuotient:
    """The quotient of all subsets of the order X, from the level census.

    It equals ``degree_structure(X, all_subsets(X))`` class by class, but
    only the members of ProperDelta(k) levels with k >= 2 are ever
    listed.  By the level theorem of ``degree_structure``, every other
    level of the census (``subset_levels``) is one class: its first
    member in ``all_subsets`` order, found with ANDs (``_first_members``),
    stands for the whole level, whose size is the popcount of its int.
    These items and the members of the levels that may split go in
    ``all_subsets`` order through ``_quotient``, as in
    ``degree_structure``.

    The census holds ints of 2^n bits, a few dozen at a time, so memory
    limits n to CENSUS_MAX_SIZE; a larger space raises CapExceeded, as
    does one beyond ``cap``, the cap of ``all_subsets``.  On ``X.discrete``
    every nonempty proper set is ProperDelta(1), so no search runs.
    """
    _check_subset_cap(X, cap)
    if X.n > CENSUS_MAX_SIZE:
        raise CapExceeded(f"|X| = {X.n} exceeds the level census limit {CENSUS_MAX_SIZE}")
    census = subset_levels(X)
    whole = [level for level in census if not _may_split(level)]
    found = [(first, level) for level, first in zip(whole, _first_members(X.n, [census[lv] for lv in whole]))]
    found += [(v, level) for level, members in census.items() if _may_split(level) for v in _set_bits(members)]
    found.sort(key=lambda pair: _subset_order(pair[0]))
    items = [X.mask_from_int(v) for v, _ in found]
    sigs = [(level,) for _, level in found]
    classes, strict, hasse, diagnostics = _quotient(X, items, sigs)
    levels = tuple(sigs[c[0]][0] for c in classes)
    sizes = tuple(len(c) if _may_split(lv) else census[lv].bit_count() for lv, c in zip(levels, classes))
    return SubsetQuotient(tuple(items[c[0]] for c in classes), sizes, levels, strict, hasse, diagnostics)


def _first_members(n: int, indicators: Sequence[int]) -> list[int]:
    """The first member in ``all_subsets`` order of each nonzero census int.

    ``all_subsets`` lists subsets by size, and those of one size in
    lexicographic order of their sorted members.  Bit-sliced counters
    (bit v of count[j] is bit j of |v|), summed from the element slices
    M_x, give the subsets of each size.  Among subsets of one size the
    first keeps the lowest elements: going up from element 0, keep only
    the subsets that contain x whenever some subset left does.
    """
    slices = [_element_slice(x, n) for x in range(n)]
    full = (1 << (1 << n)) - 1
    count: list[int] = []
    for inside in slices:  # ripple-carry addition of one bit per element
        carry = inside
        for j, c in enumerate(count):
            count[j], carry = c ^ carry, c & carry
        if carry:
            count.append(carry)
    count_bits = [(c, full ^ c) for c in count]
    firsts = [-1] * len(indicators)
    left = list(range(len(indicators)))
    for size in range(n + 1):
        of_size = full
        for j, (ones, zeros) in enumerate(count_bits):
            of_size &= ones if size >> j & 1 else zeros
        still = []
        for i in left:
            members = indicators[i] & of_size
            if not members:
                still.append(i)
                continue
            for inside in slices:
                kept = members & inside
                if kept:
                    members = kept
            firsts[i] = members.bit_length() - 1
        left = still
    return firsts


def _below(X: FinitePoset, a: Item, sa: tuple, b: Item, sb: tuple) -> bool:
    """Whether item a reduces to item b in the order X, given their level signatures.

    Between subsets the levels decide it unless both sets are
    ProperDelta(k) for one k >= 2 (the level theorem of
    ``degree_structure``); every other pair goes to ``_reduction``.
    """
    if isinstance(a, SubsetMask) and (sa != sb or not _may_split(sa[0])):
        return level_leq(sa[0], sb[0])
    return _reduction(X, a, b, sa, sb) is not None


def _may_split(level: DiffLevel) -> bool:
    """Whether a level may hold more than one degree: ProperDelta(k), k >= 2."""
    return level.sigma_rank == level.pi_rank >= 2


def _quotient(
    X: FinitePoset, items: Sequence[Item], sigs: Sequence[tuple]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], Diagnostics]:
    """Classes of mutual reducibility among the items, their order and its diagnostics.

    sigs[i] is the level signature of items[i] (``_signatures``).  Three
    passes run.  Grouping: mutual reducibility implies equal
    signatures, so an item looks for its home class only among classes
    with an equal one, and the first whose representative it is
    equivalent to takes it in.  Each class lists its item indices in item
    order, so its first member is its representative.  Ordering: once
    every class exists, bit j of rows[i] is set iff rep(i) reduces to
    rep(j), one decision per ordered pair of representatives.  No answer
    of the grouping is kept for reuse: on the 4-partitions of fan(2) the
    ordering repeats 3 % of the searches, and a lookup on every pair
    costs more time than those repeats.

    Judging: the rows must form a partial order on the class indices;
    they are validated and reduced as a ``FinitePoset``, whose int rows
    the strict order, the Hasse diagram (sorted by the representatives'
    keys), the SLO test and the width all read.  The SLO test asks
    whether the complement of rep(j), built once per class, reduces to
    rep(i); the complement's signature is rep(j)'s with the two ranks
    swapped.  Partitions have no complement and report no SLO violation.
    The largest antichain of the quotient is its width (``_width``).
    """
    classes: list[list[int]] = []
    by_signature: dict[tuple, list[int]] = {}
    for idx, (item, sig) in enumerate(zip(items, sigs)):
        peers = by_signature.setdefault(sig, [])
        for home in peers:
            peer = items[classes[home][0]]
            if _below(X, item, sig, peer, sig) and _below(X, peer, sig, item, sig):
                break
        else:
            home = len(classes)
            classes.append([])
            peers.append(home)
        classes[home].append(idx)
    reps = [(items[c[0]], sigs[c[0]]) for c in classes]  # (representative, its signature)
    rows = [
        sum(1 << j for j, (b, sb) in enumerate(reps) if j == i or _below(X, a, sa, b, sb))
        for i, (a, sa) in enumerate(reps)
    ]
    k = len(rows)
    # the relation must be a partial order; validation raises if it is not
    order = FinitePoset(tuple(map(str, range(k))), tuple(rows))
    up = order._up_int
    strict = tuple((i, j) for i, row in enumerate(up) for j in _members(row ^ 1 << i))
    keys = [_item_key(rep) for rep, _ in reps]
    hasse = tuple(sorted(order.hasse_edges(), key=lambda e: (keys[e[0]], keys[e[1]])))
    slo = ()
    if reps and isinstance(reps[0][0], SubsetMask):
        duals = [(rep.complement(), tuple(lv.complement() for lv in sig)) for rep, sig in reps]
        slo = tuple(
            (i, j)
            for i in range(k)
            for j, (comp, dual) in enumerate(duals)
            if not up[i] >> j & 1 and not _below(X, comp, dual, *reps[i])
        )
    diagnostics = Diagnostics(max_antichain=_width(up), slo_violations=slo)
    return tuple(map(tuple, classes)), strict, hasse, diagnostics


def _item_key(item: Item):
    if isinstance(item, SubsetMask):
        return item.bitstring()
    return item.colors


def _width(up: Sequence[int]) -> int:
    """The size of a largest antichain of a partial order given by int rows.

    Bit j of up[i] is set iff i <= j.  By Dilworth's theorem the width
    equals the fewest chains that cover the order, and k minus a maximum
    matching of the bipartite graph with an edge i -> j for each strict
    pair i < j is that number (Fulkerson): the matched edges link the
    elements into chains.  The matching grows along augmenting paths
    found depth-first from each element in turn (Kuhn), on an explicit
    stack: path holds the left ends and via the right ends taken so far,
    and each right end is entered at most once per search.  A free right
    end among the options ends the path at once.  The width is the count
    of right ends left unmatched.
    """
    k = len(up)
    above = [row ^ 1 << i for i, row in enumerate(up)]
    owner = [0] * k  # owner[j]: the left end matched to the right end j
    free = (1 << k) - 1  # right ends not yet matched
    for root in range(k):
        unseen = (1 << k) - 1
        path, via = [root], []
        while path:
            options = above[path[-1]] & unseen
            if not options:
                path.pop()
                if via:
                    via.pop()
                continue
            open_ends = options & free
            pick = open_ends or options
            low = pick & -pick
            unseen ^= low
            j = low.bit_length() - 1
            via.append(j)
            if open_ends:  # augment: each left end on the path takes its next right end
                for left, right in zip(path, via):
                    owner[right] = left
                free ^= low
                break
            path.append(owner[j])
    return free.bit_count()


def is_retraction(X: FinitePoset, Y: SubsetMask, r: MonotoneMap) -> bool:
    """True iff r is monotone, maps into Y, and fixes Y pointwise."""
    X.check_mask(Y)
    if r.space_id != X.space_id or len(r.image) != X.n:
        raise SpaceMismatch("map belongs to a different space")
    if not is_monotone(X, r):
        return False
    for i in range(X.n):
        if not Y.has(r.image[i]):
            return False
    return all(r.image[i] == i for i in Y.indices())


@dataclass(frozen=True)
class EmbeddingReport:
    retraction_valid: bool
    pairs_checked: int
    mismatches: tuple[tuple[SubsetMask, SubsetMask], ...]

    @property
    def exact(self) -> bool:
        return self.retraction_valid and not self.mismatches


def degree_embedding_check(
    X: FinitePoset, Y: SubsetMask, r: MonotoneMap, sample: Sequence[SubsetMask]
) -> EmbeddingReport:
    """Check that A -> preimage under r embeds Y's degrees into X's.

    A retraction turns every subset A of Y into the subset r^-1(A) of X,
    and this assignment must both preserve and reflect reducibility.  The
    check runs over all ordered pairs from the sample (masks over X that
    lie inside Y) and reports every counterexample pair.
    """
    X.check_mask(Y)
    if not is_retraction(X, Y, r):
        return EmbeddingReport(False, 0, ())
    sub = X.subspace(Y)
    carrier = Y.indices()

    def to_sub(A: SubsetMask) -> SubsetMask:
        if not A.is_subset(Y):
            raise SpaceMismatch("sample subset is not contained in the retract")
        return SubsetMask(sub.space_id, sub.n, sum(1 << k for k, i in enumerate(carrier) if A.has(i)))

    pairs = 0
    bad: list[tuple[SubsetMask, SubsetMask]] = []
    for A in sample:
        for B in sample:
            pairs += 1
            inner = wadge_reduces(sub, to_sub(A), to_sub(B)) is not None
            outer = wadge_reduces(X, r.preimage(A), r.preimage(B)) is not None
            if inner != outer:
                bad.append((A, B))
    return EmbeddingReport(True, pairs, tuple(bad))
