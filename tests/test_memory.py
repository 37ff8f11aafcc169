"""Memory gates, measured with tracemalloc: a recorded flow state and a trace CSV write.

A three-agent state costs 88 bytes in the flat buffer of ``_rk4``, its
``||e||`` included, and 16 more in the trace's ``V`` and ``det Z``; a trace
CSV is formatted and written one block of rows at a time.  Lists of Python
floats per state (about 570 bytes) or the whole CSV text held at once (about
640 bytes per row) fail these.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from weakrig import (
    Framework,
    SimulationConfig,
    SimulationTrace,
    canonical_targets,
    canonical_three_agent_graph,
    simulate,
)
from weakrig.fileio import write_trace_csv

from conftest import BENCH_INITIAL, BENCH_TARGETS


def traced_peak(fn):
    """``(fn(), peak bytes allocated while it ran above what was allocated before)``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_simulate_records_a_state_in_under_250_bytes():
    f0 = Framework(canonical_three_agent_graph(), 2, BENCH_INITIAL)
    targets = canonical_targets(*BENCH_TARGETS)
    simulate(f0, targets, SimulationConfig(t_max=0.01))  # fill the compile caches first
    trace, peak = traced_peak(lambda: simulate(f0, targets, SimulationConfig(t_max=3.0)))
    assert len(trace) == 3001 and trace.terminal_status == "max-time"
    assert peak / len(trace) < 250


def test_trace_csv_write_adds_under_2_mb(tmp_path):
    rows = 20_000
    rng = np.random.default_rng(20)
    trace = SimulationTrace(
        times=np.arange(rows) * 1e-3,
        positions=rng.normal(size=(rows, 3, 2)),
        errors=rng.normal(size=(rows, 3)),
        error_norm=rng.random(rows),
        lyapunov=rng.random(rows),
        det_z=rng.normal(size=rows),
        terminal_status="max-time",
    )
    path = tmp_path / "trace.csv"
    _, peak = traced_peak(lambda: write_trace_csv(trace, str(path)))
    assert path.read_bytes().count(b"\n") == rows + 1
    assert peak < 2_000_000
