"""Single-owner rules: a guarded helper is used only where its rule allows.

Each row of ``RULES`` names its guarded names (matched as a name, an
attribute or an import alias), its attribute-only names, its owners and
its reason.  An owner is a module (``wadge.py``) or one function of a
module (``cli.py:_emit``).  One walker lists every use of a guarded name
with its line and innermost enclosing function, and a use outside the
owners fails the row.  A new helper that needs an owner is one more row.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

import finwadge


class Rule(NamedTuple):
    name: str
    names: set[str]  # matched as a name, an attribute or an import alias
    attributes: set[str]  # matched as an attribute only
    owners: set[str]  # "module.py" or "module.py:function"
    reason: str


RULES = [
    Rule("kernel", {"_domains"}, set(), {"wadge.py"},
         "every pair decision goes through wadge._reduction or wadge._below; a second caller could fork that rule"),
    Rule("census-slices", {"_set_bits", "_element_slice"}, set(), {"hierarchy.py", "wadge.py"},
         "every item's prefilter key comes from wadge._signatures; a second reader could build a second key table"),
    Rule("bool-views", {"_bool_row"}, {"leq", "cover", "bits"}, {"poset.py"},
         "the order is stored once as int rows and a subset is an int; the derived bool views stay inside one module"),
    Rule("writers", set(), {"write_text"}, {"cli.py:_emit", "documents.py:save_document"},
         "_emit writes every file before stdout; a function writing on its own could print first and fail afterwards"),
    Rule("search", {"_search_map"}, set(), {"wadge.py", "enumeration.py"},
         "one monotone-map search, run by wadge._reduction and enumeration.random_retraction; no third caller"),
    Rule("arc-consistency", {"_arc_consistent"}, set(), {"wadge.py"},
         "the root pruning of wadge._search_map; a caller outside the kernel could prune by a second rule"),
]



def uses(tree: ast.AST, rule: Rule) -> list[tuple[int, str, str]]:
    """(line, innermost enclosing function or ``<module>``, name) of every use under the rule."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in rule.names:
                found.append((child.lineno, func, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in rule.names | rule.attributes:
                found.append((child.lineno, func, child.attr))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend((child.lineno, func, a.name) for a in child.names if a.name in rule.names)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, "<module>")
    return sorted(found)


def outside_owners(tree: ast.AST, module: str, rule: Rule) -> list[tuple[int, str, str]]:
    return [use for use in uses(tree, rule) if not {module, f"{module}:{use[1]}"} & rule.owners]


@pytest.fixture(scope="module")
def package() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(finwadge.__file__).parent.glob("*.py"))
    }


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_only_the_owners_use_guarded_names(package, rule):
    outside = {module: found for module, tree in package.items() if (found := outside_owners(tree, module, rule))}
    assert outside == {}, f"rule {rule.name!r}: {rule.reason}"
    for owner in rule.owners:  # an owner that no longer uses the names is a stale row
        module, _, func = owner.partition(":")
        assert any(func in ("", f) for _, f, _ in uses(package[module], rule)), f"rule {rule.name!r}: {owner} is idle"


WRITES = (
    "def _emit(args, payload, dot=None):\n"
    "    Path(args.out).write_text(payload)\n"
    "def cmd_space(args):\n"
    "    Path(args.dot).write_text('digraph')\n"
    "    render = lambda p: p.write_text('x')\n"
    "Path('log').write_text('')\n"
)
M, W = "<module>", "write_text"
SYNTHETIC = [  # (rule, module, source, its uses outside the rule's owners)
    ("kernel", "verify.py",
     "from .wadge import _domains, _reduction\n"
     "def f(P, A, B):\n"
     "    return _domains(P, B, A), wadge._domains(P, A, B), _reduction, P._first\n",
     [(1, M, "_domains"), (3, "f", "_domains"), (3, "f", "_domains")]),
    ("census-slices", "cli.py",
     "from .hierarchy import _set_bits, subset_levels\n"
     "def table(P):\n"
     "    return [v for lv, m in subset_levels(P).items() for v in _set_bits(m)], hierarchy._element_slice\n",
     [(1, M, "_set_bits"), (3, "table", "_element_slice"), (3, "table", "_set_bits")]),
    ("bool-views", "wadge.py",
     "from .poset import _bool_row, _members\n"
     "def f(P, Q):\n"
     "    return P.leq[0][1], Q.cover, level_leq(P, Q), P._up_int\n"
     "def g(row, A, leq):\n"
     "    return _bool_row(row, 3), poset._bool_row, A.bits, A.bitstring(), leq\n",
     [(1, M, "_bool_row"), (3, "f", "cover"), (3, "f", "leq"),
      (5, "g", "_bool_row"), (5, "g", "_bool_row"), (5, "g", "bits")]),
    ("writers", "cli.py", WRITES, [(4, "cmd_space", W), (5, "cmd_space", W), (6, M, W)]),
    ("writers", "gallery.py", WRITES, [(2, "_emit", W), (4, "cmd_space", W), (5, "cmd_space", W), (6, M, W)]),
]


@pytest.mark.parametrize("name, module, source, expected", SYNTHETIC, ids=[f"{c[0]}-{c[1]}" for c in SYNTHETIC])
def test_guard_sees_the_synthetic_uses(name, module, source, expected):
    rule = next(rule for rule in RULES if rule.name == name)
    assert outside_owners(ast.parse(source), module, rule) == expected
