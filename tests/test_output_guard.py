"""Only ``cli._emit`` and ``documents.save_document`` write files.

Every report goes through ``_emit``, which writes the ``--dot`` and
``--out`` files before anything reaches stdout, so a path that cannot be
written leaves stdout empty.  A function that called ``write_text`` on
its own could print first and fail afterwards, so no other function of
the package may call it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import finwadge

WRITERS = {("cli.py", "_emit"), ("documents.py", "save_document")}


def write_calls(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, innermost enclosing function) of every ``write_text`` call outside the writers."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "write_text"
                and (module, func) not in WRITERS
            ):
                found.append((child.lineno, func))
            visit(child, inner)

    visit(tree, "<module>")
    return sorted(found)


def test_only_the_writers_call_write_text():
    found = {}
    for path in sorted(Path(finwadge.__file__).parent.glob("*.py")):
        calls = write_calls(ast.parse(path.read_text(encoding="utf-8")), path.name)
        if calls:
            found[path.name] = calls
    assert found == {}


def test_guard_sees_calls_outside_the_writers():
    source = (
        "def _emit(args, payload, dot=None):\n"
        "    Path(args.out).write_text(payload)\n"
        "def cmd_space(args):\n"
        "    Path(args.dot).write_text('digraph')\n"
        "    render = lambda p: p.write_text('x')\n"
        "Path('log').write_text('')\n"
    )
    tree = ast.parse(source)
    assert write_calls(tree, "cli.py") == [(4, "cmd_space"), (5, "cmd_space"), (6, "<module>")]
    assert write_calls(tree, "gallery.py") == [(2, "_emit"), (4, "cmd_space"), (5, "cmd_space"), (6, "<module>")]
