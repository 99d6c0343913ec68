"""No library function calls itself: deep inputs must not hit Python's recursion limit."""

from __future__ import annotations

import ast
from pathlib import Path

import finwadge

# qualified name -> why its recursion is allowed; an entry that no longer
# recurses fails the guard too, so the list cannot go stale
ALLOWED = {
    "hierarchy.find_difference_representation.search": (
        "the oracle_level oracle, capped at desk-scale spaces; its depth is the level"
    ),
}


def self_calls(tree: ast.Module, module: str) -> set[str]:
    """Qualified names of the functions that call themselves by name.

    A plain function counts when it calls its own name; a method counts
    when it calls its own name on its first parameter (self.f or cls.f).
    """
    found = set()

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                owner = child.args.args[0].arg if in_class and child.args.args else None
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if isinstance(f, ast.Name) and f.id == child.name and not in_class:
                        found.add(name)
                    elif (
                        isinstance(f, ast.Attribute)
                        and f.attr == child.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == owner
                    ):
                        found.add(name)
                visit(child, name, False)
            else:
                visit(child, prefix, in_class)

    visit(tree, module, False)
    return found


def test_no_library_function_calls_itself():
    found = set()
    for path in sorted(Path(finwadge.__file__).parent.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == ALLOWED.keys()


def test_guard_sees_nested_and_method_recursion():
    source = (
        "def outer():\n"
        "    def expand(k):\n"
        "        return expand(k - 1) if k else 0\n"
        "    return expand(3)\n"
        "class C:\n"
        "    def walk(self, k):\n"
        "        return self.walk(k - 1) if k else 0\n"
        "    def other(self, x):\n"
        "        return x.other(self)\n"
    )
    assert self_calls(ast.parse(source), "m") == {"m.outer.expand", "m.C.walk"}
