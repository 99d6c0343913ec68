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
from typing import Optional, Sequence

from .errors import CapExceeded, ColorCountMismatch, SpaceMismatch
from .hierarchy import DiffLevel, classify, level_leq
from .poset import FinitePoset, SubsetMask


class ReducibilityKind(Enum):
    """Reducing function class: monotone maps, or all self-maps.

    On finite T0 spaces every self-map belongs to the level-2 piecewise
    class, so ALL_FUNCTIONS is the only coarser reducibility that is
    distinguishable from the continuous one at this scale.
    """

    WADGE = "wadge"
    ALL_FUNCTIONS = "any"


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
        return "".join(str(c) for c in self.colors)

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
    for i, j in X.hasse_edges():
        if not X.leq[image[i]][image[j]]:
            return False
    return True


def constant_partitions(X: FinitePoset, k: int) -> list[KPartition]:
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
    A pre-filter rejects the search outright when the difference level of
    A exceeds that of B, which is sound because the levels are closed
    under continuous preimages.
    """
    X.check_mask(A)
    X.check_mask(B)
    if kind is ReducibilityKind.WADGE and not level_leq(classify(X, A), classify(X, B)):
        return None
    return _first_map(X, _domains(X, A, B), kind)


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
    if kind is ReducibilityKind.WADGE:
        for c in range(mu.k):
            if not level_leq(classify(X, mu.color_class(c)), classify(X, nu.color_class(c))):
                return None
    return _first_map(X, _domains(X, mu, nu), kind)


def _check_partitions(X: FinitePoset, mu: KPartition, nu: KPartition) -> None:
    if mu.space_id != X.space_id or nu.space_id != X.space_id:
        raise SpaceMismatch("partition belongs to a different space")
    if len(mu.colors) != X.n or len(nu.colors) != X.n:
        raise SpaceMismatch("partition length does not match the space")
    if mu.k != nu.k:
        raise ColorCountMismatch(f"color counts differ: {mu.k} vs {nu.k}")


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


def _first_map(
    X: FinitePoset, domains: Sequence[int], kind: ReducibilityKind
) -> Optional[MonotoneMap]:
    """First map with f(x) in domains[x], monotone for the WADGE kind.

    Without the order constraint the elements are independent, so the
    first solution sends each x to the lowest index in its domain.
    """
    if kind is ReducibilityKind.WADGE:
        image = _search_map(X, domains)
    elif all(domains):
        image = tuple((d & -d).bit_length() - 1 for d in domains)
    else:
        image = None
    return None if image is None else MonotoneMap(X.space_id, image)


def _search_map(X: FinitePoset, domains: Sequence[int]) -> Optional[tuple[int, ...]]:
    """First monotone map with f(x) in the bitmask domains[x], or None.

    Two prunings remove only values that belong to no solution:
    - at the root, arc consistency over the cover edges (Mackworth's
      AC-3): for each cover y < z, f(z) needs a support in the up-closure
      of dom[y] and f(y) one in the down-closure of dom[z];
    - forward checking along X.linext: setting f(x) = t narrows the
      domain of every strict successor of x to the up-set of t, and a
      trail of (element, old domain) pairs undoes that on backtracking.
    The search is depth-first along X.linext with an explicit stack, and
    the candidates at each depth are the current domain, tried lowest
    index first.  The result is therefore the first solution in
    linear-extension order, as without the prunings.
    """
    n = X.n
    if n == 0:
        return ()
    up, down = X._up_int, X._down_int
    cover_above, cover_below = X._cover_above, X._cover_below
    dom = list(domains)
    pending = (1 << n) - 1  # elements whose domain the revision has to propagate
    while pending:
        low = pending & -pending
        pending ^= low
        y = low.bit_length() - 1
        d = dom[y]
        if not d:
            return None
        reach_up = reach_down = 0
        while d:
            v = (d & -d).bit_length() - 1
            reach_up |= up[v]
            reach_down |= down[v]
            d &= d - 1
        for neighbours, reach in ((cover_above[y], reach_up), (cover_below[y], reach_down)):
            for z in neighbours:
                narrowed = dom[z] & reach
                if narrowed != dom[z]:
                    if not narrowed:
                        return None
                    dom[z] = narrowed
                    pending |= 1 << z
    order = X.linext
    above = X._strict_above
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
        wiped = False
        for z in above[x]:
            d = dom[z]
            if d & ~allowed:
                trail.append((z, d))
                d &= allowed
                dom[z] = d
                if not d:
                    wiped = True
                    break
        if wiped:
            continue
        pos += 1
        if pos == n:
            return tuple(image)
        untried[pos] = dom[order[pos]]
        marks[pos] = len(trail)
    return None


@dataclass(frozen=True)
class Diagnostics:
    max_antichain: int
    slo_violations: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DegreeStructure:
    """Quotient of a family of items under mutual reducibility.

    ``classes`` partitions item indices into equivalence classes whose
    canonical representative is the first member in item order;
    ``strict_order`` and ``hasse`` relate class indices.  SLO violations
    are ordered class pairs (i, j) with neither rep(i) <= rep(j) nor
    complement(rep(j)) <= rep(i); they are only meaningful for subset
    items and stay empty for partitions.
    """

    items: tuple[Item, ...]
    kind: ReducibilityKind
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    strict_order: tuple[tuple[int, int], ...]
    hasse: tuple[tuple[int, int], ...]
    diagnostics: Diagnostics

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def minimal_classes(self) -> tuple[int, ...]:
        above = {j for _, j in self.strict_order}
        return tuple(i for i in range(self.class_count) if i not in above)


@dataclass(frozen=True)
class StructureReport:
    """Shape diagnostics for a finite degree structure.

    Every finite structure is trivially a well-quasi-order, so only the
    finite analogue of semi-well-ordering is reported: no SLO violations
    and no antichain beyond size two.  Asymptotic good/bad labels are not
    emitted; they are not observable at finite scale.
    """

    finitely_very_good: bool
    max_antichain: int
    slo_violation_count: int


def all_subsets(X: FinitePoset, cap: Optional[int] = None) -> list[SubsetMask]:
    """Every subset of the space, by cardinality then earliest members."""
    if cap is not None and X.n > cap:
        raise CapExceeded(f"|X| = {X.n} exceeds the all-subsets cap {cap}")
    masks = [X.mask_from_int(v) for v in range(1 << X.n)]
    masks.sort(key=lambda m: (m.count(), m.indices()))
    return masks


def degree_structure(
    X: FinitePoset, items: Sequence[Item], kind: ReducibilityKind = ReducibilityKind.WADGE
) -> DegreeStructure:
    """Quotient order of the items under the chosen reducibility.

    Each item gets one level signature: its difference level for a
    subset, the tuple of its color classes' levels for a partition.
    Mutual WADGE reducibility implies equal signatures, so an item looks
    for its home class only among representatives with an equal one, and
    the first of them it is equivalent to takes it in.  Only an item that
    opens a new class is related to every representative, and the
    signatures pre-filter those searches as in ``wadge_reduces``.

    Subsets also use complement duality: A = f^-1(B) iff X - A =
    f^-1(X - B), with the same f.  So the complements of one class's
    members all lie in a single class, ``dual`` of it, and an item whose
    complement is already placed in a class with a known dual joins that
    dual without a search.  An SLO test of complement(rep j) <= rep i is
    the recorded relation between dual[j] and i, and the level of a
    complement is its set's level with the two ranks swapped, so
    ``classify`` runs on at most one set of each complement pair.  Items
    whose complements are absent, and partitions, take the same loop
    with lookups that miss.

    The order between classes is validated and reduced as a
    ``FinitePoset`` on the class indices; the strict order, Hasse diagram,
    SLO tests and antichain bound all read its rows.
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
    wadge = kind is ReducibilityKind.WADGE
    full = (1 << X.n) - 1
    levels: dict[int, DiffLevel] = {}

    def level(mask: SubsetMask) -> DiffLevel:
        if mask.value not in levels:
            dual_level = levels.get(mask.value ^ full)
            if dual_level is None:
                levels[mask.value] = classify(X, mask)
            else:  # a complement's level swaps the two ranks
                levels[mask.value] = DiffLevel(dual_level.pi_rank, dual_level.sigma_rank)
        return levels[mask.value]

    def signature(item: Item) -> tuple[DiffLevel, ...]:
        if not wadge:
            return ()
        if subsets:
            return (level(item),)
        return tuple(level(item.color_class(c)) for c in range(item.k))

    def search(a: Item, b: Item) -> bool:
        return _first_map(X, _domains(X, a, b), kind) is not None

    def below(a: Item, sa: tuple, b: Item, sb: tuple) -> bool:
        return all(map(level_leq, sa, sb)) and search(a, b)

    sigs = [signature(item) for item in items]
    reps: list[int] = []
    classes: list[list[int]] = []
    by_signature: dict[tuple, list[int]] = {}
    le: dict[tuple[int, int], bool] = {}
    class_of: dict[int, int] = {}  # subset value -> class of the items with that value
    dual: dict[int, int] = {}  # class -> the class holding its members' complements
    for idx, item in enumerate(items):
        mirror = class_of.get(item.value ^ full) if subsets else None
        home = None if mirror is None else dual.get(mirror)
        if home is None:
            peers = by_signature.setdefault(sigs[idx], [])
            home = next(
                (ci for ci in peers if search(item, items[reps[ci]]) and search(items[reps[ci]], item)),
                None,
            )
            if home is None:
                home = len(reps)
                for cj, rep in enumerate(reps):
                    le[(home, cj)] = below(item, sigs[idx], items[rep], sigs[rep])
                    le[(cj, home)] = below(items[rep], sigs[rep], item, sigs[idx])
                reps.append(idx)
                classes.append([])
                peers.append(home)
            if mirror is not None:
                dual[mirror], dual[home] = home, mirror
        classes[home].append(idx)
        if subsets:
            class_of[item.value] = home
    k = len(reps)
    # the searches must give a partial order; validation raises if they do not
    leq = tuple(tuple(i == j or le[(i, j)] for j in range(k)) for i in range(k))
    order = FinitePoset(tuple(map(str, range(k))), leq)
    up, down = order._up_int, order._down_int  # bit j of up[i] is set iff i <= j
    strict = [(i, j) for i, above in enumerate(order._strict_above) for j in above]
    rep_key = [_item_key(items[r]) for r in reps]
    hasse = sorted(order.hasse_edges(), key=lambda e: (rep_key[e[0]], rep_key[e[1]]))
    slo: list[tuple[int, int]] = []
    if subsets:
        for i in range(k):
            for j in range(k):
                if up[i] >> j & 1:
                    continue
                if j in dual:  # complement(rep j) lies in class dual[j]
                    reduced = up[dual[j]] >> i & 1
                else:
                    comp = items[reps[j]].complement()
                    reduced = below(comp, signature(comp), items[reps[i]], sigs[reps[i]])
                if not reduced:
                    slo.append((i, j))
    incomparable = [[not (up[i] | down[i]) >> j & 1 for j in range(k)] for i in range(k)]
    diag = Diagnostics(
        max_antichain=_max_clique(incomparable) if k else 0,
        slo_violations=tuple(slo),
    )
    return DegreeStructure(
        items=items,
        kind=kind,
        classes=tuple(tuple(c) for c in classes),
        representatives=tuple(reps),
        strict_order=tuple(strict),
        hasse=tuple(hasse),
        diagnostics=diag,
    )


def _item_key(item: Item):
    if isinstance(item, SubsetMask):
        return item.bits
    return item.colors


def _max_clique(adj: list[list[bool]]) -> int:
    """Maximum clique size by branch and bound (desk-scale graphs).

    Vertices are tried in order of decreasing degree.  The search runs on
    an explicit stack: stack[d] holds the untried candidates that extend
    the current clique of d vertices, and a frame is dropped once it
    cannot beat the best clique found.
    """
    order = sorted(range(len(adj)), key=lambda v: -sum(adj[v]))
    best = 0
    stack = [order]
    while stack:
        current = len(stack) - 1
        candidates = stack[-1]
        if current + len(candidates) <= best:
            stack.pop()
        elif not candidates:
            best = current
            stack.pop()
        else:
            v = candidates.pop(0)
            stack.append([u for u in candidates if adj[v][u]])
    return best


def structure_label(D: DegreeStructure) -> StructureReport:
    very_good = not D.diagnostics.slo_violations and D.diagnostics.max_antichain <= 2
    return StructureReport(
        finitely_very_good=very_good,
        max_antichain=D.diagnostics.max_antichain,
        slo_violation_count=len(D.diagnostics.slo_violations),
    )


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
