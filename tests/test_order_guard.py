"""Only ``poset.py`` reads the bool views: the library reads ints.

``FinitePoset`` stores its order once, as int rows, and derives the bool
matrices ``leq`` and ``cover`` from them on first use; ``SubsetMask`` is
an int, and ``bits`` is its derived bool membership vector.  Keeping
every other module on the ints keeps the choice of format inside one
module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import finwadge

VIEWS = {"leq", "cover", "bits"}  # attributes holding a derived bool matrix or vector
CONVERTERS = {"_bool_row"}  # helpers that build bool matrix rows


def order_matrix_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every read of a bool view and use of a converter."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS | CONVERTERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in CONVERTERS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in CONVERTERS]
    return sorted(found)


def test_only_the_poset_module_reads_bool_order_matrices():
    found = {}
    for path in sorted(Path(finwadge.__file__).parent.glob("*.py")):
        if path.name != "poset.py":
            uses = order_matrix_uses(ast.parse(path.read_text(encoding="utf-8")))
            if uses:
                found[path.name] = uses
    assert found == {}


def test_guard_sees_views_and_converters():
    source = (
        "from .poset import _bool_row, _members\n"
        "def f(P, Q):\n"
        "    return P.leq[0][1], Q.cover, level_leq(P, Q), P._up_int\n"
        "def g(row, A):\n"
        "    return _bool_row(row, 3), poset._bool_row, A.bits, A.bitstring()\n"
    )
    assert order_matrix_uses(ast.parse(source)) == [
        (1, "_bool_row"), (3, "cover"), (3, "leq"), (5, "_bool_row"), (5, "_bool_row"), (5, "bits")
    ]
