from __future__ import annotations

from itertools import permutations, product

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from finwadge import CycleError, FinitePoset, SubsetMask, build_poset, classify, level_leq
from finwadge.hierarchy import AlternatingChain
from finwadge.poset import _members
from finwadge.wadge import DegreeStructure, Diagnostics, MonotoneMap, ReducibilityKind, _item_key

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


def reference_longest_alternating_chain(X: FinitePoset, A: SubsetMask, starts_in: bool) -> AlternatingChain:
    """A maximum-length alternating chain with the requested first point.

    Dynamic programming over a linear extension: best[x] is the longest
    admissible chain ending at x, extended from strictly smaller elements
    of the opposite membership.  Length 0 means no such chain exists
    (e.g. starts_in=True with an empty A).

    The former library code, kept as the oracle of the cover-edge pass:
    it walks every comparable pair x < y, once per starting side.
    """
    X.check_mask(A)
    best, parent = _reference_chain_table(X, A, starts_in)
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


def _reference_chain_table(X: FinitePoset, A: SubsetMask, starts_in: bool) -> tuple[list[int], list[int]]:
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


def rank_map(P: FinitePoset, B: SubsetMask, A: SubsetMask):
    """The reduction of B to A built in the proof of the level theorem, or None.

    b(x) is the longest B-alternating chain that ends at x and starts
    inside B (0 if there is none), and q_1 < ... < q_m a longest
    A-alternating chain that starts outside A.  If max b < m, the map is
    f(x) = q_{b(x)+1}.  Otherwise the dual map tries the chains that start
    outside B and inside A.  None if neither fits, which under
    level_leq(B, A) happens only when B and A are ProperDelta(k) for one k.
    """
    for starts_in in (True, False):
        b, _ = _reference_chain_table(P, B, starts_in)
        q = reference_longest_alternating_chain(P, A, not starts_in).points
        if max(b, default=0) < len(q):
            return MonotoneMap(P.space_id, tuple(q[k] for k in b))
    return None


def reference_dimension(P: FinitePoset) -> int:
    """Inductive dimension by the boundary descent dim(X) = 1 + max_x dim(bd up(x)).

    Memoized over boundary subspaces on an explicit stack of frames
    [subspace, members not yet tried, best so far, maximal elements];
    it never reads the element ranks.
    """
    up, down = P._up_int, P._down_int
    memo: dict[int, int] = {0: -1}

    def frame(subset: int) -> list[int]:
        tops = 0
        for i in _members(subset):
            if up[i] & subset == 1 << i:
                tops |= 1 << i
        return [subset, subset, 0, tops]

    full = (1 << P.n) - 1
    stack = [frame(full)] if full else []
    while stack:
        top = stack[-1]
        subset, untried, best, tops = top
        pending = None
        while untried:
            low = untried & -untried
            x = low.bit_length() - 1
            opened = up[x] & subset
            # the closure of opened within subset: the down-sets of the
            # maximal elements of subset above x cover it
            cl = 0
            for m in _members(opened & tops):
                cl |= down[m]
            boundary = cl & subset & ~opened
            d = memo.get(boundary)
            if d is None:
                pending = boundary
                break
            best = max(best, d + 1)
            untried ^= low
        if pending is None:
            memo[subset] = best
            stack.pop()
        else:
            top[1], top[2] = untried, best
            stack.append(frame(pending))
    return memo[full]


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
    cover = tuple(tuple(bool(row >> j & 1) for j in range(n)) for row in reference_covers(leq))
    return cover, reference_linext(leq)


def reference_covers(leq) -> tuple[int, ...]:
    """Cover rows of a valid order matrix by the definition: bit y of row x is set
    iff x < y and no z lies strictly between them."""
    n = len(leq)
    rows = []
    for x in range(n):
        above = [y for y in range(n) if y != x and leq[x][y]]
        rows.append(sum(1 << y for y in above if not any(z != y and leq[z][y] for z in above)))
    return tuple(rows)


def reference_linext(leq) -> tuple[int, ...]:
    """Kahn's order of a valid order matrix, lowest ready index first.

    An element is ready once everything strictly below it is placed; the
    counts run over all comparable pairs, not over the covers.
    """
    n = len(leq)
    waiting = [sum(1 for j in range(n) if j != i and leq[j][i]) for i in range(n)]
    ready = [i for i in range(n) if not waiting[i]]
    linext = []
    while ready:
        x = min(ready)
        ready.remove(x)
        linext.append(x)
        for y in range(n):
            if y != x and leq[x][y]:
                waiting[y] -= 1
                if not waiting[y]:
                    ready.append(y)
    return tuple(linext)


def reference_build_poset(labels, pairs):
    """The order matrix that build_poset(labels, pairs) must produce.

    Closes the pairs by Warshall's triple loop on bool rows, then validates
    the closure like the FinitePoset constructor (reference_order), so a
    cyclic pair list raises on the same first bad pair.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in pairs:
        leq[index[lo]][index[hi]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    leq = tuple(map(tuple, leq))
    reference_order(labels, leq)
    return leq


def reference_search_map(P: FinitePoset, domains):
    """First monotone map with f(x) in domains[x], by unpruned backtracking.

    Depth-first along P.linext; the candidates at each depth are the
    domain intersected with the up-sets of the images of the strict
    predecessors, tried lowest index first.  Order data is read from
    P.leq, not from the poset's cached index structures.
    """
    n = P.n
    if n == 0:
        return ()
    order = P.linext
    up = [sum(1 << j for j in range(n) if P.leq[i][j]) for i in range(n)]
    preds = [[p for p in range(n) if p != x and P.leq[p][x]] for x in order]
    image = [0] * n
    untried = [0] * n
    untried[0] = domains[order[0]]
    pos = 0
    while pos >= 0:
        candidates = untried[pos]
        if not candidates:
            pos -= 1
            continue
        low = candidates & -candidates
        untried[pos] = candidates ^ low
        image[order[pos]] = low.bit_length() - 1
        pos += 1
        if pos == n:
            return tuple(image)
        candidates = domains[order[pos]]
        for p in preds[pos]:
            candidates &= up[image[p]]
        untried[pos] = candidates
    return None


def reference_arc_consistent(P: FinitePoset, domains):
    """Greatest arc-consistent domains over the cover edges, by a naive fixpoint.

    Every pass revises every cover pair y < z in both directions, with
    closures built value by value from P._up_int (no memo, no skipping),
    until a pass changes nothing; None as soon as a domain is empty.  The
    passes go over the pairs forwards and backwards in turn, which only
    makes long chains settle in fewer passes.
    """
    n = P.n
    up = P._up_int
    strict = [[z for z in range(n) if z != y and up[y] >> z & 1] for y in range(n)]
    covers = [(y, z) for y in range(n) for z in strict[y] if not any(up[w] >> z & 1 for w in strict[y] if w != z)]
    dom = list(domains)
    changed = True
    while changed:
        if not all(dom):
            return None
        changed = False
        covers.reverse()
        for y, z in covers:
            up_closure = down_closure = 0
            for v in range(n):
                if dom[y] >> v & 1:
                    up_closure |= up[v]  # every t >= v
                if up[v] & dom[z]:
                    down_closure |= 1 << v  # v <= some t in dom[z]
            narrowed = dom[z] & up_closure, dom[y] & down_closure
            if narrowed != (dom[z], dom[y]):
                dom[z], dom[y] = narrowed
                changed = True
    return dom


def reference_domains(P: FinitePoset, a, b):
    """Allowed targets of each x for a reduction of item a to item b."""
    if isinstance(a, SubsetMask):
        return [b.value if a.has(x) else b.complement().value for x in range(P.n)]
    return [b.color_class(c).value for c in a.colors]


def reference_reduces(P: FinitePoset, a, b, kind) -> bool:
    """One reduction test with its own classify pre-filter on every call."""
    domains = reference_domains(P, a, b)
    if kind is ReducibilityKind.ALL_FUNCTIONS:
        return all(domains)
    if isinstance(a, SubsetMask):
        pairs = [(a, b)]
    else:
        pairs = [(a.color_class(c), b.color_class(c)) for c in range(a.k)]
    if not all(level_leq(classify(P, x), classify(P, y)) for x, y in pairs):
        return False
    return reference_search_map(P, domains) is not None


def reference_max_clique(adj) -> int:
    """Maximum clique size by recursive branch and bound, one call per clique vertex."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: -sum(adj[v]))
    best = 0

    def expand(current: int, candidates: list[int]) -> None:
        nonlocal best
        if current + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, current)
            return
        while candidates:
            if current + len(candidates) <= best:
                return
            v = candidates.pop(0)
            expand(current + 1, [u for u in candidates if adj[v][u]])

    expand(0, order)
    return best


def reference_degree_structure(P: FinitePoset, items, kind=ReducibilityKind.WADGE) -> DegreeStructure:
    """Quotient by pairwise tests of each item against every representative.

    An item is compared in both directions with each representative in
    turn and joins the first one it is equivalent to; otherwise it opens
    a new class with the relations just computed.
    """
    items = tuple(items)
    reps: list[int] = []
    classes: list[list[int]] = []
    le: dict[tuple[int, int], bool] = {}
    for idx, item in enumerate(items):
        relations = []
        home = None
        for ci, rep in enumerate(reps):
            fwd = reference_reduces(P, item, items[rep], kind)
            bwd = reference_reduces(P, items[rep], item, kind)
            if fwd and bwd:
                home = ci
                break
            relations.append((ci, fwd, bwd))
        if home is not None:
            classes[home].append(idx)
            continue
        ci_new = len(reps)
        reps.append(idx)
        classes.append([idx])
        for cj, fwd, bwd in relations:
            le[(ci_new, cj)] = fwd
            le[(cj, ci_new)] = bwd
    k = len(reps)
    strict = sorted((i, j) for i in range(k) for j in range(k) if i != j and le.get((i, j), False))
    strict_set = set(strict)
    hasse = [
        (i, j)
        for (i, j) in strict
        if not any((i, m) in strict_set and (m, j) in strict_set for m in range(k))
    ]
    hasse.sort(key=lambda e: (_item_key(items[reps[e[0]]]), _item_key(items[reps[e[1]]])))
    slo = []
    if items and isinstance(items[0], SubsetMask):
        for i in range(k):
            for j in range(k):
                if i == j or (i, j) in strict_set:
                    continue
                if not reference_reduces(P, items[reps[j]].complement(), items[reps[i]], kind):
                    slo.append((i, j))
    incomparable = [
        [i != j and (i, j) not in strict_set and (j, i) not in strict_set for j in range(k)]
        for i in range(k)
    ]
    return DegreeStructure(
        items=items,
        kind=kind,
        classes=tuple(tuple(c) for c in classes),
        strict_order=tuple(strict),
        hasse=tuple(hasse),
        diagnostics=Diagnostics(
            max_antichain=reference_max_clique(incomparable) if k else 0,
            slo_violations=tuple(slo),
        ),
    )


def reference_fan_sets(X: FinitePoset, N: int) -> dict[str, SubsetMask]:
    """The named sets D0..DN, A, B of the fan truncation X, built as label sets."""

    def above(name: str) -> set[str]:
        i = X.index(name)
        return {X.labels[j] for j in X.up_set(i).indices()}

    d_sets: list[set[str]] = [set().union(*(above(f"c{n}_0") for n in range(N + 1)))]
    for i in range(N):
        grow = set(d_sets[i])
        for n in range(i + 1, N + 1):
            grow |= above(f"c{n}_{i + 1}")
        d_sets.append(grow)
    a_set = set(d_sets[0])
    k = 0
    while 2 * k + 2 <= N:
        a_set |= d_sets[2 * k + 2] - d_sets[2 * k + 1]
        k += 1
    named = {f"D{i}": X.mask(sorted(s)) for i, s in enumerate(d_sets)}
    named["A"] = X.mask(sorted(a_set))
    named["B"] = X.mask(sorted(a_set - {"top"}))
    return named


def reference_refined_colors(P: FinitePoset) -> tuple[int, ...]:
    """Colour refinement by n+1 full rounds over the cover matrix."""
    n = P.n
    colors = [0] * n
    for _ in range(n + 1):
        sig = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in range(n) if P.cover[i][j])),
                tuple(sorted(colors[j] for j in range(n) if P.cover[j][i])),
            )
            for i in range(n)
        ]
        legend = {s: k for k, s in enumerate(sorted(set(sig)))}
        colors = [legend[s] for s in sig]
    return tuple(colors)


def reference_canonical_key(P: FinitePoset) -> tuple[int, ...]:
    """Least flattened strict order over all n! permutations that sort the colours."""
    n = P.n
    colors = reference_refined_colors(P)
    sorted_colors = sorted(colors)
    best = None
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
    return best


def reference_all_posets(n: int) -> list[FinitePoset]:
    """One poset per type: each ideal of each smaller type gets a new maximal element.

    Every candidate is built as a FinitePoset and keyed by
    reference_canonical_key; the first candidate of a key is kept, and
    the result is sorted by key.
    """
    current = [FinitePoset(("e0",), ((True,),))]
    for size in range(2, n + 1):
        seen = {}
        for P in current:
            full = (1 << P.n) - 1
            for O in P.enumerate_opens():
                ideal = full & ~O.as_int()
                leq = [list(row) + [bool(ideal >> i & 1)] for i, row in enumerate(P.leq)]
                leq.append([False] * P.n + [True])
                Q = FinitePoset(tuple(f"e{i}" for i in range(size)), tuple(map(tuple, leq)))
                seen.setdefault(reference_canonical_key(Q), Q)
        current = [seen[k] for k in sorted(seen)]
    return current


def reference_poset_isomorphic(X: FinitePoset, Y: FinitePoset):
    """First isomorphism X -> Y by recursive backtracking in index order.

    Targets are tried in increasing order among those of equal
    reference colour.
    """
    if X.n != Y.n:
        return None
    cx = reference_refined_colors(X)
    cy = reference_refined_colors(Y)
    if sorted(cx) != sorted(cy):
        return None
    n = X.n
    image = [-1] * n
    used = [False] * n

    def assign(i: int) -> bool:
        if i == n:
            return True
        for t in range(n):
            if used[t] or cx[i] != cy[t]:
                continue
            if all(X.leq[i][j] == Y.leq[t][image[j]] and X.leq[j][i] == Y.leq[image[j]][t] for j in range(i)):
                image[i] = t
                used[t] = True
                if assign(i + 1):
                    return True
                used[t] = False
                image[i] = -1
        return False

    return tuple(image) if assign(0) else None


def relabelled(P: FinitePoset, rng) -> FinitePoset:
    """P under a seeded random permutation of its elements, with fresh labels."""
    perm = list(range(P.n))
    rng.shuffle(perm)
    leq = tuple(tuple(P.leq[perm[a]][perm[b]] for b in range(P.n)) for a in range(P.n))
    return FinitePoset(tuple(f"v{i}" for i in range(P.n)), leq)


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
