"""Benchmark of finwadge: one workload, one seed, one run.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 30 --trace 0

The run imports finwadge from ``src/`` of the checkout this file sits
in.  It runs the workload's op list in passes, one op at a time in this
one process, until the next pass would end after ``--seconds`` (two
passes at least).  Before each pass it sets up twice, each time
importing finwadge afresh and generating the inputs, and ``setup_s`` is
the median of all set-ups.  Every op's output is checked, and every pass
must give the same outputs as the first.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` one untraced pass is followed by traced passes, whose
per-layer counts must repeat exactly, and the last line holds the
per-layer metrics.  Each op's latency in every pass, and in a traced
run the spans, are written to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import digest  # noqa: E402
from tracer import EXACT_METRICS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

SETUPS_PER_PASS = 2
MIN_PASSES = 2
# Ops still running when the run has lasted this long get no more time
# than is left, so that a run always ends within 180 s.
RUN_DEADLINE_S = 150.0
PROGRAM_MODULES = ("finwadge", "finwadge.cli", "finwadge.enumeration", "finwadge.verify", "finwadge.documents")


class OpLimit(BaseException):
    """Raised in the running op when its time limit is reached."""


def _on_alarm(signum, frame):
    raise OpLimit()


def import_program():
    """Import finwadge afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "finwadge" or m.startswith("finwadge.")]:
        del sys.modules[name]
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    fw = sys.modules["finwadge"]
    if Path(fw.__file__).resolve().parent != ROOT / "src" / "finwadge":
        raise ImportError(f"finwadge was imported from {fw.__file__}, not from this checkout")
    return fw


def set_up(workload: str, seed: int, workdir: Path, goldens: dict):
    fw = import_program()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return WORKLOADS[workload](Context(fw, workdir, goldens), seed)


def run_op(op, state: dict, limit: float):
    """(latency, output or None, reached limit, error or None) of one op."""
    saved = sys.stdout, sys.stderr
    output, limited, error = None, False, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            output = op.call(state)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpLimit:
        limited = True
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    sys.stdout, sys.stderr = saved
    return latency, output, limited, error


class Run:
    """Passes over a workload's ops; ``prepare`` sets up afresh and returns the next pass's ops."""

    def __init__(self, prepare):
        self.prepare = prepare
        self.started = time.perf_counter()
        self.tracer: Tracer | None = None  # set for traced passes
        self.problems: list[str] = []

    def run_pass(self, number: int) -> dict:
        gc.unfreeze()
        ops = self.prepare()
        # Freeze what the benchmark holds (modules, inputs, references, earlier
        # results) out of the cyclic collector, and collect before each op, so
        # that the collections inside an op depend on that op alone, as they
        # would in a one-shot CLI process.
        gc.collect()
        gc.freeze()
        if self.tracer:
            self.tracer.install()
        state: dict = {}
        latencies, outputs, limited_ids, limited_keys, tallies = [], {}, set(), set(), {}
        failed = 0
        first_span = len(self.tracer.spans) if self.tracer else 0
        for op in ops:
            op_id = f"{number}:{op.key}"
            gc.collect()
            left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
            if self.tracer:
                self.tracer.begin_op(op_id)
            latency, output, limited, error = run_op(op, state, max(0.001, min(op.limit_s, left)))
            if self.tracer:
                tallies[op_id] = self.tracer.end_op()
            latencies.append(latency)
            if limited:
                limited_ids.add(op_id)
                limited_keys.add(op.key)
                failed += 1
                continue
            if error is None:
                try:
                    error = op.check(output, state)
                except Exception as exc:  # malformed output
                    error = f"check raised {type(exc).__name__}: {exc}"
                outputs[op.key] = digest(output)
            if error:
                self.problems.append(f"{op.key}: {error}")
                failed += 1
        result = {"keys": [op.key for op in ops], "latencies": latencies, "outputs": outputs,
                  "failed": failed, "limited": limited_keys}
        if self.tracer:
            result["layers"] = self.tracer.pass_metrics(first_span, tallies, limited_ids)
        return result

    def run_passes(self, seconds: float, first_number: int = 0) -> list[dict]:
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(self.run_pass(first_number + len(passes)))
            elapsed = time.perf_counter() - begin
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes


def check_determinism(passes: list[dict], problems: list[str]) -> None:
    """Every pass must reproduce the first pass's outputs, and traced passes its counts."""
    first = passes[0]
    for later in passes[1:]:
        for key, value in later["outputs"].items():
            if key in first["outputs"] and first["outputs"][key] != value:
                problems.append(f"DETERMINISM: output of {key} changed between passes")
        if later["limited"] != first["limited"]:
            problems.append("DETERMINISM: a different set of ops reached the op limit")
    traced = [p for p in passes if "layers" in p]
    for later in traced[1:]:
        for name in EXACT_METRICS:
            if later["layers"][name] != traced[0]["layers"][name]:
                problems.append(f"DETERMINISM: per-layer count {name} changed between passes")


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Each op's latency is its shortest over the passes (see README.md, Noise)."""
    latencies = [min(repeats) for repeats in zip(*(p["latencies"] for p in passes))]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": (sum(latencies), "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(passes: list[dict], untraced: dict) -> dict:
    traced = [p for p in passes if "layers" in p]
    units = dict(LAYER_METRICS)
    metrics = {
        name: (statistics.median(p["layers"][name] for p in traced), units[name])
        for name in units if name != "trace.overhead_frac"
    }
    traced_wall = statistics.median(sum(p["latencies"]) for p in traced)
    metrics["trace.overhead_frac"] = (traced_wall / sum(untraced["latencies"]) - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finwadge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no finwadge sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench-work"
    workdir = work / f"{args.workload}-{args.seed}"
    signal.signal(signal.SIGALRM, _on_alarm)

    setups: list[float] = []

    def prepare():
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            ops = set_up(args.workload, args.seed, workdir, goldens)
            setups.append(time.perf_counter() - t0)
        return ops

    run = Run(prepare)
    try:
        if args.trace:
            untraced = run.run_pass(0)
            run.tracer = Tracer()
            passes = [untraced] + run.run_passes(args.seconds, first_number=1)
            metrics = per_layer(passes, untraced)
            run.tracer.write(work / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            passes = run.run_passes(args.seconds)
            metrics = end_to_end(passes, setups)
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import finwadge: {exc}\n")
        return 2
    shutil.rmtree(workdir, ignore_errors=True)
    with open(work / f"ops-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as out:
        json.dump([dict(zip(p["keys"], p["latencies"])) for p in passes], out, indent=0)

    check_determinism(passes, run.problems)
    for problem in dict.fromkeys(run.problems):  # once, however many passes repeat it
        sys.stderr.write(problem + "\n")
    result = {
        "correct": not run.problems,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
