"""Per-layer tracing of finwadge, installed from outside the package.

Each public function is replaced at every binding its callers use (the
defining module, each module that imported it, the package namespace),
and FinitePoset methods are replaced on the class, so no file of the
program changes.  A span records its name, start, end, parent span and
op id; spans are kept in memory and written out at the end of the run.
Hot calls (``strict_below`` and the reduction prefilter's
``level_leq``) are counted per op and not timed, because timing each
of their millions of calls would double the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  ``_partition_reduces`` is private, but
# it is the binding ``degree_structure`` reaches partition searches through.
SPANNED_FUNCTIONS = (
    ("finwadge.poset", "build_poset", "poset.build_poset"),
    ("finwadge.hierarchy", "classify", "hierarchy.classify"),
    ("finwadge.hierarchy", "oracle_level", "hierarchy.oracle_level"),
    ("finwadge.hierarchy", "find_difference_representation", "hierarchy.find_difference_representation"),
    ("finwadge.hierarchy", "longest_alternating_chain", "hierarchy.longest_alternating_chain"),
    ("finwadge.wadge", "wadge_reduces", "wadge.reduce"),
    ("finwadge.wadge", "_partition_reduces", "wadge.reduce"),
    ("finwadge.wadge", "degree_structure", "wadge.degree_structure"),
    ("finwadge.wadge", "all_subsets", "wadge.all_subsets"),
    ("finwadge.enumeration", "all_posets", "enumeration.all_posets"),
    ("finwadge.enumeration", "canonical_key", "enumeration.canonical_key"),
    ("finwadge.verify", "suite_finite_t0_very_good", "verify.suite"),
    ("finwadge.verify", "suite_classify_oracle", "verify.suite"),
    ("finwadge.verify", "suite_duality", "verify.suite"),
    ("finwadge.documents", "load_document", "documents.load"),
    ("finwadge.cli", "main", "cli.main"),
)
SPANNED_METHODS = (
    ("__post_init__", "poset.construct"),
    ("enumerate_opens", "poset.enumerate_opens"),
    ("dimension", "poset.dimension"),
    ("derivative_trace", "poset.derivative_trace"),
)

# name, unit; the order in which the traced run reports them
LAYER_METRICS = (
    ("poset.construct_calls", "count"),
    ("poset.construct_s", "s"),
    ("poset.build_poset_s", "s"),
    ("poset.strict_below_calls", "count"),
    ("poset.enumerate_opens_calls", "count"),
    ("poset.enumerate_opens_s", "s"),
    ("poset.dimension_s", "s"),
    ("hierarchy.classify_calls", "count"),
    ("hierarchy.classify_s", "s"),
    ("hierarchy.classify_repeat", "ratio"),
    ("hierarchy.oracle_level_s", "s"),
    ("hierarchy.find_difference_representation_calls", "count"),
    ("wadge.reduce_calls", "count"),
    ("wadge.reduce_s", "s"),
    ("wadge.witness_frac", "ratio"),
    ("wadge.prefilter_reject_frac", "ratio"),
    ("wadge.reduce_per_item", "ratio"),
    ("wadge.degree_structure_s", "s"),
    ("wadge.limit_hits", "count"),
    ("enumeration.all_posets_s", "s"),
    ("enumeration.canonical_key_calls", "count"),
    ("enumeration.canonical_key_s", "s"),
    ("enumeration.types_per_key", "ratio"),
    ("verify.suite_s", "s"),
    ("documents.load_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
# metrics that must repeat exactly from pass to pass
EXACT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit != "s" and name != "trace.overhead_frac")

NAME, PARENT, OP, START, END, ATTR = range(6)


def _span_attribute(name: str):
    """What a span keeps of its call: enough to derive the ratio metrics."""
    if name == "hierarchy.classify":
        return lambda args, result: (args[1].space_id, args[1].as_int())
    if name == "wadge.reduce":
        return lambda args, result: result is not None
    if name == "wadge.degree_structure":
        return lambda args, result: len(result.items)
    if name == "enumeration.all_posets":
        return lambda args, result: len(result)
    return lambda args, result: True


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.tally: Counter = Counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "finwadge" or name.startswith("finwadge.")]
        for module_name, attr, span_name in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._spanned(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        poset_class = sys.modules["finwadge.poset"].FinitePoset
        for attr, span_name in SPANNED_METHODS:
            setattr(poset_class, attr, self._spanned(getattr(poset_class, attr), span_name))
        poset_class.strict_below = self._counted(poset_class.strict_below, "poset.strict_below")
        wadge = sys.modules["finwadge.wadge"]
        wadge.level_leq = self._prefilter(wadge.level_leq)

    def _spanned(self, fn, name: str):
        spans, stack = self.spans, self.stack
        attribute = _span_attribute(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.op, clock(), 0.0, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                record[ATTR] = attribute(args, result)
                return result
            finally:
                record[END] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.tally[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _prefilter(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.tally["wadge.level_leq"] += 1
            if not result:
                self.tally["wadge.level_leq_false"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- op boundaries ---------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self.tally = Counter()

    def end_op(self) -> Counter:
        """Close spans an interrupted op left open and return the op's counts."""
        now = time.perf_counter()
        while self.stack:
            record = self.spans[self.stack.pop()]
            if not record[END]:
                record[END] = now
        self.op = None
        return self.tally

    # -- aggregation -----------------------------------------------------

    def pass_metrics(self, first_span: int, tallies: dict[str, Counter], excluded: set[str]) -> dict:
        """Per-layer metrics over one pass, leaving out ops that reached the op limit."""
        spans = self.spans
        chosen = [i for i in range(first_span, len(spans)) if spans[i][OP] not in excluded]
        child_time: Counter = Counter()
        for i in chosen:
            parent = spans[i][PARENT]
            if parent >= 0:
                child_time[parent] += spans[i][END] - spans[i][START]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        classify_keys = set()
        witnesses = reduce_in_structure = structure_items = 0
        types = keys_in_enumeration = 0
        for i in chosen:
            name, parent, _, start, end, attr = spans[i]
            duration = end - start
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child_time[i]
            if attr is None:  # the call raised, e.g. a cap the CLI reports
                continue
            if name == "hierarchy.classify":
                classify_keys.add(attr)
            elif name == "wadge.reduce":
                witnesses += attr
                reduce_in_structure += self._has_ancestor(i, "wadge.degree_structure")
            elif name == "wadge.degree_structure":
                structure_items += attr
            elif name == "enumeration.all_posets":
                types += attr
            elif name == "enumeration.canonical_key":
                keys_in_enumeration += self._has_ancestor(i, "enumeration.all_posets")
        counts: Counter = Counter()
        for op_id, tally in tallies.items():
            if op_id not in excluded:
                counts.update(tally)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "poset.construct_calls": calls["poset.construct"],
            "poset.construct_s": total["poset.construct"],
            "poset.build_poset_s": own["poset.build_poset"],
            "poset.strict_below_calls": counts["poset.strict_below"],
            "poset.enumerate_opens_calls": calls["poset.enumerate_opens"],
            "poset.enumerate_opens_s": total["poset.enumerate_opens"],
            "poset.dimension_s": total["poset.dimension"],
            "hierarchy.classify_calls": calls["hierarchy.classify"],
            "hierarchy.classify_s": own["hierarchy.classify"],
            "hierarchy.classify_repeat": ratio(calls["hierarchy.classify"], len(classify_keys)),
            "hierarchy.oracle_level_s": total["hierarchy.oracle_level"],
            "hierarchy.find_difference_representation_calls": calls["hierarchy.find_difference_representation"],
            "wadge.reduce_calls": calls["wadge.reduce"],
            "wadge.reduce_s": own["wadge.reduce"],
            "wadge.witness_frac": ratio(witnesses, calls["wadge.reduce"]),
            "wadge.prefilter_reject_frac": ratio(counts["wadge.level_leq_false"], counts["wadge.level_leq"]),
            "wadge.reduce_per_item": ratio(reduce_in_structure, structure_items),
            "wadge.degree_structure_s": own["wadge.degree_structure"],
            "wadge.limit_hits": len(excluded),
            "enumeration.all_posets_s": total["enumeration.all_posets"],
            "enumeration.canonical_key_calls": calls["enumeration.canonical_key"],
            "enumeration.canonical_key_s": total["enumeration.canonical_key"],
            "enumeration.types_per_key": ratio(types, keys_in_enumeration),
            "verify.suite_s": ratio(total["verify.suite"], calls["verify.suite"]),
            "documents.load_s": total["documents.load"],
            "cli.self_s": own["cli.main"],
        }

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path) -> None:
        """One JSON line per span: name, parent index, op id, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as out:
            for name, parent, op, start, end, _ in self.spans:
                out.write(json.dumps([name, parent, op, round(start, 7), round(end, 7)]) + "\n")
