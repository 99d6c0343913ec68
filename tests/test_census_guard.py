"""Only ``hierarchy.py`` and ``wadge.py`` reach the level census's bit slices.

The census (``hierarchy.subset_levels``) holds each level's subsets as
one big int, bit v for subset v; ``_element_slice`` builds its inputs and
``_set_bits`` lists a level's members.  Every list of items gets its
prefilter keys from ``wadge._signatures``, so the census is read only
where all subsets are wanted without listing them (``subset_quotient``).
A second module that named the slice helpers could build a second key
table, so no module of the package other than these two may name them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import finwadge

CENSUS = {"_set_bits", "_element_slice"}
OWNERS = {"hierarchy.py", "wadge.py"}


def census_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name, attribute or import of a census slice helper."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in CENSUS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in CENSUS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.name) for a in node.names if a.name in CENSUS]
    return sorted(found)


def test_only_hierarchy_and_wadge_name_the_census_slices():
    found = {}
    for path in sorted(Path(finwadge.__file__).parent.glob("*.py")):
        if path.name not in OWNERS:
            uses = census_uses(ast.parse(path.read_text(encoding="utf-8")))
            if uses:
                found[path.name] = uses
    assert found == {}


def test_guard_sees_imports_names_and_attributes():
    source = (
        "from .hierarchy import _set_bits, subset_levels\n"
        "def table(P):\n"
        "    return [v for lv, m in subset_levels(P).items() for v in _set_bits(m)], hierarchy._element_slice\n"
    )
    assert census_uses(ast.parse(source)) == [
        (1, "_set_bits"), (3, "_element_slice"), (3, "_set_bits")
    ]
