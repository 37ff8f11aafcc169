"""The benchmark tracer's hooks still resolve on the package.

``perfbench/tracing.py`` wraps functions by name and reads fields off their
results, so a rename or deletion in ``weakrig`` would otherwise break only a
traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from weakrig import weak_rigidity_matrix

from conftest import rhombus_framework

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py``, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_every_target_resolves(tracing):
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"weakrig.{module}"), attr)), (module, attr)
    assert callable(importlib.import_module("weakrig.core").Framework)


def test_weak_rigidity_matrix_result_has_matrix(tracing):
    result = weak_rigidity_matrix(rhombus_framework("c"))
    counts = Counter()
    tracing._result_counts("rigidity.weak_rigidity_matrix", result, counts)
    assert counts["rigidity.rw_entries"] == result.matrix.size == 5 * 8
