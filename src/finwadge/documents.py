"""Reading and writing poset documents, subsets, and DOT diagrams.

A poset document is JSON with fields ``elements`` (array of names) and
``covers`` (array of [lower, upper] pairs); an optional ``sets`` object
maps set names to arrays of element names.  Subsets given on the command
line are JSON arrays of names, 0/1 strings in element-index order, or
names from the document's ``sets``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DocumentError, DuplicateLabelError, FinWadgeError
from .poset import FinitePoset, SubsetMask, build_poset
from .wadge import DegreeStructure, KPartition, SubsetQuotient


@dataclass(frozen=True)
class PosetDocument:
    """A space with named subsets: what a document file holds."""

    space: FinitePoset
    sets: dict[str, SubsetMask] = field(default_factory=dict)


def document_from_dict(data: dict) -> PosetDocument:
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    if "elements" not in data:
        raise DocumentError("missing field 'elements'")
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise DocumentError("field 'elements' must be an array of names")
    covers_raw = data.get("covers", [])
    if not isinstance(covers_raw, list):
        raise DocumentError("field 'covers' must be an array of [lower, upper] pairs")
    covers = []
    for i, pair in enumerate(covers_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"covers[{i}]: expected a [lower, upper] pair")
        covers.append((pair[0], pair[1]))
    try:
        poset = build_poset(elements, covers)
    except DuplicateLabelError as exc:
        raise type(exc)(f"field 'elements': {exc}") from exc
    except FinWadgeError as exc:
        raise type(exc)(f"in document covers: {exc}") from exc
    sets: dict[str, SubsetMask] = {}
    raw_sets = data.get("sets", {})
    if not isinstance(raw_sets, dict):
        raise DocumentError("field 'sets' must be an object")
    for name in sorted(raw_sets):
        names = raw_sets[name]
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise DocumentError(f"sets[{name!r}] must be an array of element names")
        try:
            sets[name] = poset.mask(names)
        except FinWadgeError as exc:
            raise DocumentError(f"sets[{name!r}]: {exc}") from exc
    return PosetDocument(poset, sets)


def load_document(path: "str | Path") -> PosetDocument:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path}: nested too deeply") from exc
    return document_from_dict(data)


def document_to_dict(doc: PosetDocument) -> dict:
    X = doc.space
    out = {
        "elements": list(X.labels),
        "covers": [[X.labels[i], X.labels[j]] for i, j in X.hasse_edges()],
    }
    if doc.sets:
        out["sets"] = {name: list(X.members(mask)) for name, mask in sorted(doc.sets.items())}
    return out


def save_document(doc: PosetDocument, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_subset(doc: PosetDocument, token: str) -> SubsetMask:
    """Subset from a CLI token: JSON array, 0/1 string, or named set."""
    X = doc.space
    token = token.strip()
    if token in doc.sets:
        return doc.sets[token]
    if token.startswith("["):
        try:
            names = json.loads(token)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"bad subset array: {exc.msg}") from exc
        except RecursionError as exc:
            raise DocumentError("bad subset array: nested too deeply") from exc
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise DocumentError("subset array must contain element names")
        return X.mask(names)
    if token and all(ch in "01" for ch in token):
        if len(token) != X.n:
            raise DocumentError(f"bit string has length {len(token)}, expected {X.n}")
        return X.mask_from_bits(token)
    raise DocumentError(
        f"cannot parse subset {token!r}: expected a JSON array of names, "
        f"a 0/1 string of length {X.n}, or one of the named sets "
        f"{sorted(doc.sets) or '(none)'}"
    )


def parse_partition(X: FinitePoset, token: str, k: int) -> KPartition:
    token = token.strip()
    if len(token) != X.n or not all(ch.isdigit() for ch in token):
        raise DocumentError(f"partition must be {X.n} digits in element-index order")
    colors = tuple(int(ch) for ch in token)
    if any(c >= k for c in colors):
        raise DocumentError(f"partition uses a color >= k = {k}")
    return KPartition(X.space_id, k, colors)


def poset_to_dot(X: FinitePoset) -> str:
    """Hasse diagram; edges point from cover-lower to cover-upper."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for lab in X.labels:
        lines.append(f'  "{lab}";')
    for i, j in X.hasse_edges():
        lines.append(f'  "{X.labels[i]}" -> "{X.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def degrees_to_dot(X: FinitePoset, D: "DegreeStructure | SubsetQuotient") -> str:
    lines = ["digraph degrees {", "  rankdir=BT;"]
    for ci, (rep, size) in enumerate(zip(D.class_reps, D.class_sizes)):
        lines.append(f'  d{ci} [label="{render_item(X, rep)} (x{size})"];')
    for i, j in D.hasse:
        lines.append(f"  d{i} -> d{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_item(X: FinitePoset, item) -> str:
    if isinstance(item, SubsetMask):
        names = X.members(item)
        return "{" + ",".join(names) + "}"
    return item.colorstring()
