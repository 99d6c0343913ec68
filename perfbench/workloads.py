"""The three workloads as fixed, seeded lists of ops.

An op is one CLI command run in-process through ``finwadge.cli.main``
with stdout captured, or one library call where no command exists.
Each op has a time limit, fixed here before any measurement, and an
output check: an independent reference where one exists (known type
counts, the benchmark's own levels and witness verification, the
``classify-oracle`` suite), otherwise the digest of the output captured
at the commit that defined the benchmark (``goldens.json``).

Seeded inputs that need a golden output are drawn from fixed pools,
whose members all have one; the seed picks the members and the pool
member's stratum (see ``FAN_PAIR_PICKS``) keeps the mix of search kinds
the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Optional

from inputs import (
    LevelReference,
    Space,
    bitstring,
    chain_space,
    degrees_problem,
    digest,
    fan_space,
    lex_antichain_chain,
    parse_reduce_stdout,
    random_mask,
    random_space,
    small_space,
)

KNOWN_TYPE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}

# Op limits in seconds.  Every op that should finish runs far below the
# default; the named ops fail at theirs by design (see README.md).
DEFAULT_LIMIT_S = 20.0
FAN3_LIMIT_S = 2.0
ALL_POSETS_7_LIMIT_S = 3.0
FAN_PAIR_LIMIT_S = 1.0

# quotient: 7-element random posets drawn by the seed from a pool of
# QUOTIENT_POOL, plus fixed members of the 8- and 9-element pools.  A
# 9-element quotient takes 0.4 s to 10 s at the defining commit, so a
# seeded pick would let the seed move wall_s by more than any bound.
RANDOM_POSET_PICKS = {7: 24}
FIXED_RANDOM_POSETS = {8: tuple(range(8)), 9: (1,)}
QUOTIENT_POOL = 48
# Two fixed 5-element spaces for the 3-partition families: a 3-chain
# plus two points (37 classes) and a V beside a 2-chain (48 classes).
PARTITION_SPACES = {
    "chain3+2": (5, [(2, 3), (3, 4)]),
    "V+chain2": (5, [(0, 4), (1, 4), (2, 3)]),
}

# large-space
LARGE_SPACES = {"chain160": lambda: chain_space(160), "fan18": lambda: fan_space(18),
                "lex3x60": lambda: lex_antichain_chain(3, 60)}
CLASSIFY_COMMANDS = 2  # per document
REDUCE_COMMANDS = {"chain160": 2, "lex3x60": 2}
LIBRARY_SUBSETS = 8  # per document
FAN_PAIR_SIZES = range(8, 13)
FAN_PAIR_POOL = 24  # per fan size
# Per pass: one prefilter-rejected and one witnessed pair per fan size,
# and three pairs whose search ran past the capture limit.
FAN_PAIR_PICKS = {"reject": 1, "witness": 1}
FAN_PAIR_SLOW = 3


class OpError(Exception):
    """An op returned an error instead of an output."""


@dataclass
class Op:
    key: str
    call: Callable[[dict], str]
    check: Callable[[str, dict], Optional[str]]  # (output, pass state) -> problem
    limit_s: float = DEFAULT_LIMIT_S


class Context:
    """What ops share: the imported program, the work directory, goldens and references."""

    def __init__(self, fw, workdir: Path, goldens: dict):
        self.fw = fw
        self.workdir = workdir
        self.goldens = goldens
        self.reference = LevelReference()

    def write_document(self, space: Space) -> str:
        path = self.workdir / f"{space.name}.json"
        path.write_text(json.dumps(space.document()), encoding="utf-8")
        return str(path)

    def cli(self, argv: list[str]) -> Callable[[dict], str]:
        cli = self.fw.cli

        def call(state: dict) -> str:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise OpError(f"exit code {code}: {err.getvalue().strip()}")
            return out.getvalue()

        return call

    def golden_check(self, key: str, extra: Callable[[str], Optional[str]] = lambda text: None):
        want = self.goldens["outputs"].get(key)

        def check(text: str, state: dict) -> Optional[str]:
            problem = extra(text)
            if problem:
                return problem
            if want is None:
                return f"no golden output recorded for {key}"
            if digest(text) != want:
                return "output differs from the golden output"
            return None

        return check

    def library_space(self, space: Space):
        return self.fw.build_poset(space.elements, space.covers)


# -- quotient ---------------------------------------------------------------


def quotient_pool_space(n: int, j: int) -> Space:
    return random_space(f"random{n}-{j:02d}", random.Random(f"quotient-poset-{n}-{j}"), n)


def degrees_op(ctx: Context, key: str, space: Space, golden: bool = True, limit_s: float = DEFAULT_LIMIT_S) -> Op:
    path = ctx.write_document(space)
    items = 1 << space.n

    def structure(text: str) -> Optional[str]:
        return degrees_problem(text, items)

    check = ctx.golden_check(key, structure) if golden else lambda text, state: structure(text)
    return Op(key, ctx.cli(["degrees", path, "--all", "--cap", str(space.n)]), check, limit_s)


def partitions_op(ctx: Context, name: str) -> Op:
    n, pairs = PARTITION_SPACES[name]
    space = small_space(name, n, pairs)
    path = ctx.write_document(space)
    colorings = ["".join(map(str, c)) for c in product(range(3), repeat=n)]
    key = f"quotient/partitions/{name}"
    check = ctx.golden_check(key, lambda text: degrees_problem(text, len(colorings)))
    return Op(key, ctx.cli(["partitions", path, *colorings, "-k", "3"]), check)


def quotient(ctx: Context, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [degrees_op(ctx, "quotient/degrees/fan2", fan_space(2))]
    picks = [(n, j) for n, count in RANDOM_POSET_PICKS.items()
             for j in sorted(rng.sample(range(QUOTIENT_POOL), count))]
    picks += [(n, j) for n, chosen in FIXED_RANDOM_POSETS.items() for j in chosen]
    for n, j in picks:
        space = quotient_pool_space(n, j)
        ops.append(degrees_op(ctx, f"quotient/degrees/{space.name}", space))
    ops += [partitions_op(ctx, name) for name in PARTITION_SPACES]
    # The fan(3) quotient does not finish at this commit; it has no golden
    # output, so only its structure is checked once it does.
    ops.append(degrees_op(ctx, "quotient/degrees/fan3", fan_space(3), golden=False, limit_s=FAN3_LIMIT_S))
    rng.shuffle(ops)  # spread each group of similar ops over the pass; see README.md, Noise
    return ops


# -- census -----------------------------------------------------------------


def all_posets_op(ctx: Context, n: int) -> Op:
    enumeration = ctx.fw.enumeration

    def call(state: dict) -> str:
        types = enumeration.all_posets(n)
        state[n] = types
        return f"types={len(types)} order={digest(repr([P.leq for P in types]))}\n"

    def check(text: str, state: dict) -> Optional[str]:
        got = int(text.split()[0].removeprefix("types="))
        return None if got == KNOWN_TYPE_COUNTS[n] else f"{got} types, expected {KNOWN_TYPE_COUNTS[n]}"

    limit = ALL_POSETS_7_LIMIT_S if n == 7 else DEFAULT_LIMIT_S
    return Op(f"census/all_posets/{n}", call, check, limit)


def type_op(ctx: Context, index: int, relabel: list[int]) -> Op:
    """Invariants of one 6-element type, on a seeded relabelling of it."""
    fw = ctx.fw
    labels = tuple(f"x{i}" for i in range(6))

    def call(state: dict) -> str:
        P = state[6][index]
        leq = tuple(tuple(P.leq[relabel[a]][relabel[b]] for b in range(6)) for a in range(6))
        Q = fw.FinitePoset(labels, leq)
        opens = sum(1 for _ in Q.enumerate_opens())
        trace = Q.derivative_trace()
        levels = Counter(fw.classify(Q, A).label for A in fw.all_subsets(Q))
        return (
            f"opens={opens} dimension={Q.dimension()} scattered={trace.scattered_rank} "
            f"ranks={sorted(trace.rank_of)} levels={sorted(levels.items())}\n"
        )

    def check(text: str, state: dict) -> Optional[str]:
        # each 6-element type appears once per pass, in whatever order
        # all_posets returns them, so the outputs must use up the golden
        # multiset of per-type invariants
        remaining = state.setdefault("type6", Counter(ctx.goldens["type6"]))
        key = digest(text)
        if remaining[key] <= 0:
            return "invariants match no remaining 6-element type"
        remaining[key] -= 1
        return None

    return Op(f"census/type6/{index:03d}", call, check)


def census(ctx: Context, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [all_posets_op(ctx, n) for n in range(1, 8)]
    rest = [type_op(ctx, index, rng.sample(range(6), 6)) for index in range(KNOWN_TYPE_COUNTS[6])]
    key = "census/verify/classify-oracle"
    rest.append(Op(key, ctx.cli(["verify", "classify-oracle", "--max", "5"]), ctx.golden_check(key)))
    rest.append(ops.pop())  # all_posets(7)
    # the type ops need all_posets(6) before them; the rest is shuffled so
    # that the two long ops split the type ops into parts of the pass
    rng.shuffle(rest)
    return ops + rest


# -- large-space ------------------------------------------------------------


def fan_pair(N: int, j: int) -> tuple[int, int]:
    rng = random.Random(f"fan-pair-{N}-{j}")
    n = fan_space(N).n
    return random_mask(rng, n), random_mask(rng, n)


def fan_pair_op(ctx: Context, F, space: Space, N: int, j: int, slow: bool) -> Op:
    a, b = fan_pair(N, j)
    A, B = F.mask_from_int(a), F.mask_from_int(b)
    fw = ctx.fw

    def call(state: dict) -> str:
        f = fw.wadge_reduces(F, A, B)
        return "NONE\n" if f is None else " ".join(map(str, f.image)) + "\n"

    def check(text: str, state: dict) -> Optional[str]:
        image = None if text == "NONE\n" else [int(t) for t in text.split()]
        if image is None and slow:
            return None  # unknown at capture and not decidable by the reference
        return ctx.reference.check_reduction(space, a, b, image)

    return Op(f"large/fan-pair/{N}-{j:02d}", call, check, FAN_PAIR_LIMIT_S)


def library_level_op(ctx: Context, X, space: Space, mask: int, key: str) -> Op:
    A = X.mask_from_int(mask)
    fw = ctx.fw

    def call(state: dict) -> str:
        level = fw.classify(X, A)
        chain_in = fw.longest_alternating_chain(X, A, True)
        chain_out = fw.longest_alternating_chain(X, A, False)
        return json.dumps([level.sigma_rank, level.pi_rank, chain_in.points, chain_out.points]) + "\n"

    def check(text: str, state: dict) -> Optional[str]:
        sigma, pi, chain_in, chain_out = json.loads(text)
        return ctx.reference.check_level(space, mask, sigma, pi, chain_in, chain_out)

    return Op(key, call, check)


def large_space(ctx: Context, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for name, make in LARGE_SPACES.items():
        space = make()
        path = ctx.write_document(space)
        key = f"large/space/{name}"
        ops.append(Op(key, ctx.cli(["space", path]), ctx.golden_check(key)))
        for c in range(CLASSIFY_COMMANDS):
            mask = random_mask(rng, space.n)
            ops.append(Op(
                f"large/classify/{name}-{c}",
                ctx.cli(["classify", path, bitstring(mask, space.n)]),
                lambda text, state, s=space, m=mask: ctx.reference.check_classify_stdout(s, m, text),
            ))
        for r in range(REDUCE_COMMANDS.get(name, 0)):
            a, b = random_mask(rng, space.n), random_mask(rng, space.n)
            ops.append(Op(
                f"large/reduce/{name}-{r}",
                ctx.cli(["reduce", path, bitstring(a, space.n), bitstring(b, space.n)]),
                lambda text, state, s=space, a=a, b=b: ctx.reference.check_reduction(
                    s, a, b, parse_reduce_stdout(s, text)),
            ))
        X = ctx.library_space(space)
        for i in range(LIBRARY_SUBSETS):
            ops.append(library_level_op(ctx, X, space, random_mask(rng, space.n), f"large/level/{name}-{i}"))
    strata = ctx.goldens["fan_pairs"]
    slow_pool = [(N, j) for N in FAN_PAIR_SIZES for j in strata[str(N)]["slow"]]
    picks = [(N, j, False) for N in FAN_PAIR_SIZES for kind, count in FAN_PAIR_PICKS.items()
             for j in rng.sample(strata[str(N)][kind], count)]
    picks += [(N, j, True) for N, j in rng.sample(slow_pool, FAN_PAIR_SLOW)]
    fans = {}
    for N, j, slow in sorted(picks):
        if N not in fans:
            space = fan_space(N)
            fans[N] = (ctx.library_space(space), space)
        F, space = fans[N]
        ops.append(fan_pair_op(ctx, F, space, N, j, slow))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"quotient": quotient, "census": census, "large-space": large_space}
