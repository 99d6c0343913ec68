"""The benchmark's tracer wraps finwadge by name; every name must exist.

``perfbench/tracer.py`` replaces functions and methods of the package
from outside it.  A name it wraps that the package no longer has would
break a traced run, so this test loads the tracer's tables (without
installing anything) and looks each name up.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

from finwadge import verify
from finwadge.poset import FinitePoset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """Run the tracer's source in a fresh module; nothing is written or installed."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_bindings_exist():
    tracer = _load_tracer()
    for module_name, attr, _ in tracer.SPANNED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
    for attr, _ in tracer.SPANNED_METHODS:
        assert callable(getattr(FinitePoset, attr, None)), attr
    assert callable(FinitePoset.strict_below)
    assert callable(importlib.import_module("finwadge.wadge").level_leq)


def test_run_suite_calls_the_module_binding(monkeypatch):
    """A wrapper installed on a suite's module attribute sees run_suite's call."""
    calls = []
    original = verify.suite_duality

    def wrapper(max_size):
        calls.append(max_size)
        return original(max_size)

    monkeypatch.setattr(verify, "suite_duality", wrapper)
    assert verify.run_suite("duality", 2).passed
    assert calls == [2]
