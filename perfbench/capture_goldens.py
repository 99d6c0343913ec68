"""Record the golden outputs the benchmark checks against.

    python3 perfbench/capture_goldens.py

Runs every pool member and fixed op once, untraced, and writes
``perfbench/goldens.json``: output digests for the ops that have no
independent reference, the multiset of 6-element type invariants, and
the stratum of every fan(8)-fan(12) pair (prefilter reject, witness
found, or still searching at CAPTURE_LIMIT_S; pairs in between are left
out because whether they finish within the op limit would depend on
machine speed).  Run it only at the commit that defines the goldens.
"""

from __future__ import annotations

import json
import signal
import sys

import run
from inputs import digest, fan_space
from workloads import (
    FAN_PAIR_POOL,
    FAN_PAIR_SIZES,
    FIXED_RANDOM_POSETS,
    KNOWN_TYPE_COUNTS,
    LARGE_SPACES,
    PARTITION_SPACES,
    QUOTIENT_POOL,
    RANDOM_POSET_PICKS,
    Context,
    Op,
    all_posets_op,
    degrees_op,
    fan_pair_op,
    partitions_op,
    quotient_pool_space,
    type_op,
)

CAPTURE_LIMIT_S = 4.0
FAST_S = 0.2


def execute(op: Op, state: dict, limit: float | None = None):
    latency, output, limited, error = run.run_op(op, state, limit or op.limit_s)
    if error:
        raise SystemExit(f"{op.key}: {error}")
    return latency, output, limited


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = run.ROOT / ".perfbench-work" / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    goldens = {"outputs": {}, "type6": [], "fan_pairs": {}}
    ctx = Context(run.import_program(), workdir, goldens)

    fixed = [degrees_op(ctx, "quotient/degrees/fan2", fan_space(2))]
    fixed += [partitions_op(ctx, name) for name in PARTITION_SPACES]
    members = [(n, j) for n in RANDOM_POSET_PICKS for j in range(QUOTIENT_POOL)]
    members += [(n, j) for n, chosen in FIXED_RANDOM_POSETS.items() for j in chosen]
    for n, j in members:
        space = quotient_pool_space(n, j)
        fixed.append(degrees_op(ctx, f"quotient/degrees/{space.name}", space))
    for name, make in LARGE_SPACES.items():
        path = ctx.write_document(make())
        fixed.append(Op(f"large/space/{name}", ctx.cli(["space", path]), None))
    fixed.append(Op("census/verify/classify-oracle", ctx.cli(["verify", "classify-oracle", "--max", "5"]), None))
    for op in fixed:
        latency, output, limited = execute(op, {})
        if limited:
            raise SystemExit(f"{op.key} reached its limit")
        goldens["outputs"][op.key] = digest(output)
        classes = len(json.loads(output)["classes"]) if op.key.startswith("quotient") else ""
        print(f"{op.key} {latency:.3f}s {classes}", flush=True)

    state: dict = {}
    execute(all_posets_op(ctx, 6), state)
    for index in range(KNOWN_TYPE_COUNTS[6]):
        goldens["type6"].append(digest(execute(type_op(ctx, index, list(range(6))), state)[1]))
    goldens["type6"].sort()

    for N in FAN_PAIR_SIZES:
        space = fan_space(N)
        F = ctx.library_space(space)
        strata = {"reject": [], "witness": [], "slow": [], "between": []}
        for j in range(FAN_PAIR_POOL):
            op = fan_pair_op(ctx, F, space, N, j, slow=False)
            latency, output, limited = execute(op, {}, CAPTURE_LIMIT_S)
            if limited:
                kind = "slow"
            elif latency >= FAST_S:
                kind = "between"
            else:
                kind = "reject" if output == "NONE\n" else "witness"
            strata[kind].append(j)
            print(f"fan{N} pair {j}: {kind} {latency:.3f}s", flush=True)
        goldens["fan_pairs"][str(N)] = strata

    (run.HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
