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

from weakrig import SimulationConfig, grow_random, simulate, weak_rigidity_matrix
from weakrig.fileio import trace_to_csv

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


def test_flow_and_growth_results_give_their_counts(tracing, bench_initial, bench_targets,
                                                   triangle_k3):
    trace = simulate(bench_initial, bench_targets, SimulationConfig(dt=0.01, t_max=0.05))
    csv = trace_to_csv(trace)
    grown = grow_random(triangle_k3, steps=2, rng_seed=3)
    counts = Counter()
    tracing._result_counts("formation.simulate", trace, counts)
    tracing._result_counts("fileio.trace_to_csv", csv, counts)
    tracing._result_counts("henneberg.grow_random", grown, counts)
    assert counts == {"formation.steps": 5, "fileio.csv_bytes": len(csv),
                      "henneberg.accepted_steps": 2}


def test_a_full_row_rank_minimality_check_runs_two_svds(tracing, triangle_k3):
    # One rank cut of the centred positions, one of R_W: both through numerical_rank.
    grown = grow_random(triangle_k3, steps=6, rng_seed=3).final
    recorder = tracing.Recorder()
    recorder.begin_pass()
    try:
        result = importlib.import_module("weakrig.rigidity").is_minimally_weakly_rigid(grown)
    finally:
        recorder.end_pass()
    assert result.minimal
    metrics = recorder.per_pass_metrics(0)
    assert metrics["rigidity.is_minimally_weakly_rigid.calls"] == 1
    assert metrics["rigidity.numerical_rank.calls"] == 2
    assert metrics["rigidity.svd_per_minimality_check"] == 2.0
