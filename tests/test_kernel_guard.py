"""Only ``wadge.py`` reaches the search kernel's entry points.

Every pair decision goes through ``wadge._reduction`` (a level
prefilter, then ``_first_map`` on the pair's ``_domains``) or through
``wadge._below``, which calls it.  A second module that named the
kernel's entry points could fork that rule, so no module of the package
other than ``wadge.py`` may name them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import finwadge

KERNEL = {"_first_map", "_domains"}


def kernel_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name, attribute or import of a kernel entry point."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in KERNEL:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.name) for a in node.names if a.name in KERNEL]
    return sorted(found)


def test_only_the_wadge_module_names_the_kernel():
    found = {}
    for path in sorted(Path(finwadge.__file__).parent.glob("*.py")):
        if path.name != "wadge.py":
            uses = kernel_uses(ast.parse(path.read_text(encoding="utf-8")))
            if uses:
                found[path.name] = uses
    assert found == {}


def test_guard_sees_imports_names_and_attributes():
    source = (
        "from .wadge import _domains, _first_map, _reduction\n"
        "def f(P, A, B, kind):\n"
        "    return _first_map(P, wadge._domains(P, A, B), kind), _reduction, P._first\n"
    )
    assert kernel_uses(ast.parse(source)) == [
        (1, "_domains"), (1, "_first_map"), (3, "_domains"), (3, "_first_map")
    ]
