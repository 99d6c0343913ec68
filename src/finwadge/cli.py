"""Command-line interface.

Every command is deterministic: identical inputs give byte-identical
outputs, and there is no randomness anywhere.  Exit codes: 0 success or
suite pass, 1 input error (a negative ``--cap`` too), 2 cap exceeded or a
command line that argparse rejected, with its usage message on stderr (an
unknown or missing command, a missing argument), 3 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
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
from .hierarchy import ORACLE_DEFAULT_CAP, DiffLevel, longest_alternating_chain, oracle_level
from .verify import SUITES, run_suite
from .wadge import (
    ReducibilityKind,
    constant_partitions,
    degree_structure,
    subset_quotient,
    wadge_reduces,
)

SPACE_OPENS_CAP = 16
DEGREES_ALL_CAP = 6
KIND_HELP = "reducing maps: wadge, the continuous (monotone) maps; any, all self-maps (default: wadge)"


def _emit(args, payload, dot=None) -> int:
    """Write the DOT file, then the JSON report to ``--out`` or stdout.

    ``dot`` renders the DOT text and is called only when ``--dot`` is
    given.  Every file is written before stdout, so a path that cannot be
    written leaves stdout empty.
    """
    if dot is not None and args.dot:
        Path(args.dot).write_text(dot(), encoding="utf-8")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_space(args) -> int:
    doc = load_document(args.document)
    X = doc.space
    rank = X.derivative_trace().scattered_rank
    report = {
        "elements": X.n,
        "dimension": rank - 1,  # FinitePoset.dimension: the height
        "scattered_rank": rank,
        "open_sets": sum(1 for _ in X.enumerate_opens()) if X.n <= args.cap else "capped",
    }
    return _emit(args, report, lambda: poset_to_dot(X))


def cmd_classify(args) -> int:
    doc = load_document(args.document)
    X = doc.space
    A = parse_subset(doc, args.subset)
    chain_in = longest_alternating_chain(X, A, True)
    chain_out = longest_alternating_chain(X, A, False)
    level = DiffLevel(len(chain_in), len(chain_out))  # the ranks are the chain lengths
    report = {
        "sigma_rank": level.sigma_rank,
        "pi_rank": level.pi_rank,
        "label": level.label,
        "witness_chain_in": [X.labels[i] for i in chain_in.points],
        "witness_chain_out": [X.labels[i] for i in chain_out.points],
    }
    if args.oracle:
        other = oracle_level(X, A, cap=args.cap)
        report["oracle_label"] = other.label
        report["oracle_agrees"] = other == level
    return _emit(args, report)


def cmd_reduce(args) -> int:
    doc = load_document(args.document)
    X = doc.space
    A = parse_subset(doc, args.source)
    B = parse_subset(doc, args.target)
    witness = wadge_reduces(X, A, B, ReducibilityKind(args.kind))
    if witness is None:
        sys.stdout.write("NONE\n")
    else:
        for i in range(X.n):
            sys.stdout.write(f"{X.labels[i]} -> {X.labels[witness.image[i]]}\n")
    return 0


def _degrees_report(X, D, kind):
    """The JSON report of a quotient under kind: a representative and a size per class."""
    diag = D.diagnostics
    # "has_infinite_descending" and "finite_wqo" are constants of a finite
    # structure, kept because perfbench/goldens.json pins this stdout
    return {
        "kind": kind.value,
        "items": D.item_count,
        "classes": [
            {"representative": render_item(X, rep), "size": size}
            for rep, size in zip(D.class_reps, D.class_sizes)
        ],
        "strict_order": [[i, j] for i, j in D.strict_order],
        "hasse": [[i, j] for i, j in D.hasse],
        "diagnostics": {
            "max_antichain": diag.max_antichain,
            "slo_violations": [[i, j] for i, j in diag.slo_violations],
            "has_infinite_descending": False,
        },
        "report": {
            "finitely_very_good": diag.finitely_very_good,
            "max_antichain": diag.max_antichain,
            "slo_violation_count": diag.slo_violation_count,
            "finite_wqo": True,
        },
    }


def cmd_degrees(args) -> int:
    doc = load_document(args.document)
    X = doc.space
    kind = ReducibilityKind(args.kind)
    if args.all:
        X = kind.order(X)  # same labels, so the report reads the same
        D = subset_quotient(X, cap=args.cap)  # the level census; no subset is built
    elif args.subsets:
        D = degree_structure(X, [parse_subset(doc, token) for token in args.subsets], kind)
    else:
        raise FinWadgeError("give --all or at least one subset")
    return _emit(args, _degrees_report(X, D, kind), lambda: degrees_to_dot(X, D))


def cmd_partitions(args) -> int:
    if args.k < 1:
        raise FinWadgeError("a partition needs at least one color")
    if args.k > 10:  # a color is one digit of a color string
        raise FinWadgeError(f"-k must be at most 10, one digit per color, got {args.k}")
    doc = load_document(args.document)
    X = doc.space
    if args.constants:
        items = constant_partitions(X, args.k)
    elif args.partitions:
        items = [parse_partition(X, token, args.k) for token in args.partitions]
    else:
        raise FinWadgeError("give --constants or at least one partition")
    kind = ReducibilityKind(args.kind)
    D = degree_structure(X, items, kind)
    return _emit(args, _degrees_report(X, D, kind), lambda: degrees_to_dot(X, D))


def cmd_gallery(args) -> int:
    name = args.name
    params = args.params
    builders = {
        "chain": gallery.chain,
        "antichain": gallery.antichain,
        "cinf": gallery.truncated_c_infinity,
        "expected-structure": gallery.expected_structure,
        "fan": gallery.fan,
    }
    if name not in builders:
        raise FinWadgeError(f"unknown gallery space {name!r}; choose from {', '.join(sorted(builders))}")
    if len(params) != 1:
        raise FinWadgeError(f"gallery {name} takes 1 integer parameter(s)")
    doc = builders[name](params[0])
    if not isinstance(doc, PosetDocument):
        doc = PosetDocument(doc)
    save_document(doc, args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


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
    p.add_argument("--cap", type=int, default=SPACE_OPENS_CAP)
    p.add_argument("--dot", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("classify", help="difference-hierarchy level of a subset")
    p.add_argument("document")
    p.add_argument("subset")
    p.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    p.add_argument("--cap", type=int, default=ORACLE_DEFAULT_CAP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="search for a continuous reduction between two subsets")
    p.add_argument("document")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--kind", choices=[k.value for k in ReducibilityKind], default="wadge", help=KIND_HELP)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("degrees", help="quotient degree structure of subsets")
    p.add_argument("document")
    p.add_argument("subsets", nargs="*")
    p.add_argument("--all", action="store_true", help="use every subset of the space")
    p.add_argument("--kind", choices=[k.value for k in ReducibilityKind], default="wadge", help=KIND_HELP)
    p.add_argument("--cap", type=int, default=DEGREES_ALL_CAP)
    p.add_argument("--dot", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("partitions", help="degree structure of k-partitions")
    p.add_argument("document")
    p.add_argument("partitions", nargs="*", help="color strings in element-index order")
    p.add_argument("-k", type=int, required=True, help="number of colors, 1 to 10")
    p.add_argument("--constants", action="store_true", help="use the k constant partitions")
    p.add_argument("--kind", choices=[k.value for k in ReducibilityKind], default="wadge", help=KIND_HELP)
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


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "cap", 0) < 0:  # every command that declares --cap
            raise FinWadgeError(f"--cap must be at least 0, got {args.cap}")
        return args.func(args)
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (FinWadgeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
