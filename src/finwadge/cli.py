"""Command-line interface.

Every command is deterministic: identical inputs give byte-identical
outputs, and there is no randomness anywhere.  Exit codes: 0 success or
suite pass, 1 input error, 2 cap exceeded, 3 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import gallery
from .documents import (
    PosetDocument,
    degrees_to_dot,
    load_document,
    parse_partition,
    parse_subset,
    poset_to_dot,
    render_item,
    save_document,
)
from .errors import CapExceeded, FinWadgeError
from .hierarchy import ORACLE_DEFAULT_CAP, classify, longest_alternating_chain, oracle_level
from .verify import SUITES, run_suite
from .wadge import (
    ReducibilityKind,
    all_subsets,
    constant_partitions,
    degree_structure,
    structure_label,
    wadge_reduces,
)

SPACE_OPENS_CAP = 16
DEGREES_ALL_CAP = 6


def _emit(payload, out: "str | None") -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_dot(text: str, path: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _kind(name: str) -> ReducibilityKind:
    return ReducibilityKind.WADGE if name == "wadge" else ReducibilityKind.ALL_FUNCTIONS


def cmd_space(args) -> int:
    doc = load_document(args.document)
    X = doc.poset
    cap = args.cap if args.cap is not None else SPACE_OPENS_CAP
    rank = X.derivative_trace().scattered_rank
    report = {
        "elements": X.n,
        "dimension": rank - 1,  # FinitePoset.dimension: the height
        "scattered_rank": rank,
        "open_sets": sum(1 for _ in X.enumerate_opens()) if X.n <= cap else "capped",
    }
    _emit(report, args.out)
    if args.dot:
        _write_dot(poset_to_dot(X), args.dot)
    return 0


def cmd_classify(args) -> int:
    doc = load_document(args.document)
    X = doc.poset
    A = parse_subset(doc, args.subset)
    level = classify(X, A)
    chain_in = longest_alternating_chain(X, A, True)
    chain_out = longest_alternating_chain(X, A, False)
    report = {
        "sigma_rank": level.sigma_rank,
        "pi_rank": level.pi_rank,
        "label": level.label,
        "witness_chain_in": [X.labels[i] for i in chain_in.points],
        "witness_chain_out": [X.labels[i] for i in chain_out.points],
    }
    if args.oracle:
        cap = args.cap if args.cap is not None else ORACLE_DEFAULT_CAP
        other = oracle_level(X, A, cap=cap)
        report["oracle_label"] = other.label
        report["oracle_agrees"] = other == level
    _emit(report, args.out)
    return 0


def cmd_reduce(args) -> int:
    doc = load_document(args.document)
    X = doc.poset
    A = parse_subset(doc, args.source)
    B = parse_subset(doc, args.target)
    witness = wadge_reduces(X, A, B, _kind(args.kind))
    if witness is None:
        sys.stdout.write("NONE\n")
    else:
        for i in range(X.n):
            sys.stdout.write(f"{X.labels[i]} -> {X.labels[witness.image[i]]}\n")
    return 0


def _degrees_report(X, D):
    rep_members = [render_item(X, D.items[r]) for r in D.representatives]
    label = structure_label(D)
    # "has_infinite_descending" and "finite_wqo" are constants of a finite
    # structure, kept because perfbench/goldens.json pins this stdout
    return {
        "kind": D.kind.value,
        "items": len(D.items),
        "classes": [
            {"representative": rep_members[ci], "size": len(D.classes[ci])}
            for ci in range(D.class_count)
        ],
        "strict_order": [[i, j] for i, j in D.strict_order],
        "hasse": [[i, j] for i, j in D.hasse],
        "diagnostics": {
            "max_antichain": D.diagnostics.max_antichain,
            "slo_violations": [[i, j] for i, j in D.diagnostics.slo_violations],
            "has_infinite_descending": False,
        },
        "report": {
            "finitely_very_good": label.finitely_very_good,
            "max_antichain": label.max_antichain,
            "slo_violation_count": label.slo_violation_count,
            "finite_wqo": True,
        },
    }


def cmd_degrees(args) -> int:
    doc = load_document(args.document)
    X = doc.poset
    if args.all:
        cap = args.cap if args.cap is not None else DEGREES_ALL_CAP
        items = all_subsets(X, cap=cap)
    elif args.subsets:
        items = [parse_subset(doc, token) for token in args.subsets]
    else:
        raise FinWadgeError("give --all or at least one subset")
    D = degree_structure(X, items, _kind(args.kind))
    _emit(_degrees_report(X, D), args.out)
    if args.dot:
        _write_dot(degrees_to_dot(X, D), args.dot)
    return 0


def cmd_partitions(args) -> int:
    doc = load_document(args.document)
    X = doc.poset
    if args.constants:
        items = constant_partitions(X, args.k)
    elif args.partitions:
        items = [parse_partition(X, token, args.k) for token in args.partitions]
    else:
        raise FinWadgeError("give --constants or at least one partition")
    D = degree_structure(X, items, _kind(args.kind))
    _emit(_degrees_report(X, D), args.out)
    if args.dot:
        _write_dot(degrees_to_dot(X, D), args.dot)
    return 0


def cmd_gallery(args) -> int:
    name = args.name
    params = args.params
    builders = {
        "chain": (1, lambda p: PosetDocument(gallery.chain(p[0]))),
        "antichain": (1, lambda p: PosetDocument(gallery.antichain(p[0]))),
        "cinf": (1, lambda p: PosetDocument(gallery.truncated_c_infinity(p[0]))),
        "expected-structure": (1, lambda p: PosetDocument(gallery.expected_structure(p[0]))),
        "fan": (1, lambda p: _fan_document(p[0])),
    }
    if name not in builders:
        raise FinWadgeError(f"unknown gallery space {name!r}; choose from {', '.join(sorted(builders))}")
    arity, build = builders[name]
    if len(params) != arity:
        raise FinWadgeError(f"gallery {name} takes {arity} integer parameter(s)")
    doc = build(params)
    save_document(doc, args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def _fan_document(N: int) -> PosetDocument:
    built = gallery.fan(N)
    return PosetDocument(built.space, dict(built.sets))


def cmd_verify(args) -> int:
    result = run_suite(args.suite, args.max)
    for line in result.lines:
        sys.stdout.write(line + "\n")
    for finding in result.findings:
        sys.stdout.write("FINDING: " + finding + "\n")
    status = "pass" if result.passed else "FAIL"
    sys.stdout.write(f"{result.suite}: {status} ({result.checked} checks)\n")
    return 0 if result.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finwadge",
        description="Reducibility, difference-hierarchy levels, and degree structures on finite T0 spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="report element count, opens, dimension, scattered rank")
    p.add_argument("document")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("classify", help="difference-hierarchy level of a subset")
    p.add_argument("document")
    p.add_argument("subset")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="search for a continuous reduction between two subsets")
    p.add_argument("document")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--kind", choices=("wadge", "any"), default="wadge")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("degrees", help="quotient degree structure of subsets")
    p.add_argument("document")
    p.add_argument("subsets", nargs="*")
    p.add_argument("--all", action="store_true", help="use every subset of the space")
    p.add_argument("--kind", choices=("wadge", "any"), default="wadge")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--dot", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("partitions", help="degree structure of k-partitions")
    p.add_argument("document")
    p.add_argument("partitions", nargs="*", help="color strings in element-index order")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--constants", action="store_true", help="use the k constant partitions")
    p.add_argument("--kind", choices=("wadge", "any"), default="wadge")
    p.add_argument("--dot", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("gallery", help="build a named space document")
    gsub = p.add_subparsers(dest="gallery_command", required=True)
    g = gsub.add_parser("build")
    g.add_argument("name")
    g.add_argument("params", nargs="*", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gallery)

    p = sub.add_parser("verify", help="run a property suite over all small posets")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (FinWadgeError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
