"""Seeded benchmark inputs and the independent checks of finwadge's outputs.

Everything here is the benchmark's own code and calls nothing in
finwadge.  Documents are JSON ``elements``/``covers`` lists, and the
reference checks recompute orders, difference levels, alternating
chains and reduction witnesses from the documents alone.
"""

from __future__ import annotations

import hashlib
import json
import random


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


class Space:
    """A poset document together with the order it generates, as bitmasks."""

    def __init__(self, name: str, elements: list[str], covers: list[tuple[str, str]]):
        self.name = name
        self.elements = list(elements)
        self.covers = list(covers)
        self.n = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        self.index = index
        self.edges = [(index[lo], index[hi]) for lo, hi in self.covers]
        self.topo = _topological_order(self.n, self.edges)
        succ = [[] for _ in range(self.n)]
        for lo, hi in self.edges:
            succ[lo].append(hi)
        up = [0] * self.n
        for x in reversed(self.topo):
            mask = 1 << x
            for y in succ[x]:
                mask |= up[y]
            up[x] = mask
        down = [0] * self.n
        for x in range(self.n):
            for y in _bits(up[x]):
                down[y] |= 1 << x
        self.up = up
        self.down = down

    def document(self) -> dict:
        return {"elements": self.elements, "covers": [list(pair) for pair in self.covers]}

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _topological_order(n: int, edges: list[tuple[int, int]]) -> list[int]:
    indegree = [0] * n
    succ = [[] for _ in range(n)]
    for lo, hi in edges:
        succ[lo].append(hi)
        indegree[hi] += 1
    ready = [x for x in range(n) if indegree[x] == 0]
    order = []
    while ready:
        x = ready.pop()
        order.append(x)
        for y in succ[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    if len(order) != n:
        raise ValueError("generated relation has a cycle")
    return order


def _covers_of(n: int, up: list[int]) -> list[tuple[int, int]]:
    """Transitive reduction of an order given as up-set bitmasks."""
    pairs = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        for j in _bits(strict):
            between = strict & ~(1 << j)
            if not any(up[k] >> j & 1 for k in _bits(between)):
                pairs.append((i, j))
    return pairs


# -- spaces ---------------------------------------------------------------


def chain_space(n: int) -> Space:
    labels = [str(i) for i in range(n)]
    return Space(f"chain{n}", labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def fan_space(N: int) -> Space:
    """Finger chains C_0..C_N between bot and top, labelled as finwadge's gallery."""
    labels = ["bot", "top"]
    covers = []
    for n in range(N + 1):
        members = [f"c{n}_{k}" for k in range(n + 1)]
        labels.extend(members)
        covers.append(("bot", members[-1]))
        covers.append((members[0], "top"))
        for k in range(n):
            covers.append((members[k + 1], members[k]))
    return Space(f"fan{N}", labels, covers)


def lex_antichain_chain(width: int, height: int) -> Space:
    """lex_product(antichain(width), chain(height)): layers of incomparable points."""
    labels = [f"(a{p},{q})" for q in range(height) for p in range(width)]
    covers = [
        (f"(a{p},{q})", f"(a{r},{q + 1})")
        for q in range(height - 1)
        for p in range(width)
        for r in range(width)
    ]
    return Space(f"lex{width}x{height}", labels, covers)


def small_space(name: str, n: int, pairs: list[tuple[int, int]]) -> Space:
    labels = [f"q{i}" for i in range(n)]
    return Space(name, labels, [(labels[a], labels[b]) for a, b in pairs])


def random_space(name: str, rng: random.Random, n: int) -> Space:
    """Random order on n points: closure of random index-increasing pairs."""
    density = rng.choice((0.15, 0.25, 0.35, 0.5))
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i] |= up[j]
    labels = [f"p{i}" for i in range(n)]
    return Space(name, labels, [(labels[a], labels[b]) for a, b in _covers_of(n, up)])


def random_mask(rng: random.Random, n: int) -> int:
    return rng.getrandbits(n) if n else 0


def bitstring(mask: int, n: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


# -- reference checks -----------------------------------------------------


def alternating_rank(space: Space, mask: int, starts_in: bool) -> int:
    """Longest chain alternating in and out of mask whose first point has membership starts_in."""
    best = [0] * space.n
    for x in space.topo:
        inside = mask >> x & 1
        length = 1 if bool(inside) == starts_in else 0
        opposite = space.down[x] & ~(1 << x) & (~mask if inside else mask)
        for y in _bits(opposite):
            if best[y] and best[y] + 1 > length:
                length = best[y] + 1
        best[x] = length
    return max(best, default=0)


def level_label(sigma: int, pi: int) -> str:
    level = min(sigma, pi)
    kind = "Sigma" if sigma < pi else "Pi" if pi < sigma else "Delta"
    return f"Proper{kind}({level})"


def chain_problem(space: Space, mask: int, points: list[int], starts_in: bool, want: int) -> str | None:
    if len(points) != want:
        return f"alternating chain has {len(points)} points, expected {want}"
    if points and bool(mask >> points[0] & 1) != starts_in:
        return "alternating chain starts on the wrong side"
    for a, b in zip(points, points[1:]):
        if a == b or not space.leq(a, b):
            return "alternating chain is not strictly increasing"
        if (mask >> a & 1) == (mask >> b & 1):
            return "alternating chain does not alternate"
    return None


class LevelReference:
    """Difference levels recomputed by the benchmark, cached per (space, subset)."""

    def __init__(self):
        self._cache: dict[tuple[str, int], tuple[int, int]] = {}

    def ranks(self, space: Space, mask: int) -> tuple[int, int]:
        key = (space.name, mask)
        if key not in self._cache:
            self._cache[key] = (
                alternating_rank(space, mask, True),
                alternating_rank(space, mask, False),
            )
        return self._cache[key]

    def check_level(self, space, mask, sigma, pi, chain_in, chain_out) -> str | None:
        want_sigma, want_pi = self.ranks(space, mask)
        if (sigma, pi) != (want_sigma, want_pi):
            return f"level ({sigma}, {pi}) differs from the reference ({want_sigma}, {want_pi})"
        return chain_problem(space, mask, chain_in, True, sigma) or chain_problem(
            space, mask, chain_out, False, pi
        )

    def check_classify_stdout(self, space: Space, mask: int, text: str) -> str | None:
        report = json.loads(text)
        sigma, pi = report["sigma_rank"], report["pi_rank"]
        if report["label"] != level_label(sigma, pi):
            return f"label {report['label']} does not match ranks ({sigma}, {pi})"
        chain_in = [space.index[x] for x in report["witness_chain_in"]]
        chain_out = [space.index[x] for x in report["witness_chain_out"]]
        return self.check_level(space, mask, sigma, pi, chain_in, chain_out)

    def check_reduction(self, space: Space, a: int, b: int, image: list[int] | None) -> str | None:
        """A witness must be monotone with f(x) in B iff x in A; NONE must fail the level order."""
        if image is None:
            sa, pa = self.ranks(space, a)
            sb, pb = self.ranks(space, b)
            if sa <= sb and pa <= pb:
                return "NONE although the difference levels allow a reduction"
            return None
        if len(image) != space.n:
            return "witness has the wrong length"
        for lo, hi in space.edges:
            if not space.leq(image[lo], image[hi]):
                return "witness is not monotone"
        for x in range(space.n):
            if bool(a >> x & 1) != bool(b >> image[x] & 1):
                return "witness preimage of B is not A"
        return None


def parse_reduce_stdout(space: Space, text: str) -> list[int] | None:
    if text == "NONE\n":
        return None
    image = [-1] * space.n
    for line in text.splitlines():
        src, dst = line.split(" -> ")
        image[space.index[src]] = space.index[dst]
    return image


def degrees_problem(text: str, items: int) -> str | None:
    """Structural check of a degrees/partitions report: a quotient order with its Hasse diagram."""
    report = json.loads(text)
    classes = report["classes"]
    k = len(classes)
    if report["items"] != items or sum(c["size"] for c in classes) != items:
        return "class sizes do not add up to the item count"
    strict = {tuple(p) for p in report["strict_order"]}
    above = [set() for _ in range(k)]
    below = [set() for _ in range(k)]
    for i, j in strict:
        if i == j or (j, i) in strict or not (0 <= i < k and 0 <= j < k):
            return "strict order is not irreflexive and antisymmetric"
        above[i].add(j)
        below[j].add(i)
    if any(not above[j] <= above[i] for i, j in strict):
        return "strict order is not transitive"
    hasse = {tuple(p) for p in report["hasse"]}
    reduction = {(i, j) for i, j in strict if not above[i] & below[j]}
    if hasse != reduction:
        return "hasse edges are not the transitive reduction of the strict order"
    if k and not 1 <= report["diagnostics"]["max_antichain"] <= k:
        return "max_antichain out of range"
    return None
