"""The one RK4 loop and the table CSV writer against the code they replaced.

``loop_simulate_canonical`` is the scalar three-agent integrator that
``simulate`` used before the canonical and generic flows shared one loop,
its right-hand side ``loop_rhs_canonical`` written in the form the flow now
steps: E(p)'s three edge weights, not the cosine's gradient rows.
``array_rk4`` is that shared loop as it was when every state was a numpy
array, and ``field_trace_to_csv`` the per-field trace writer; all are kept
here as oracles only.  The loop must reproduce them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from weakrig import (
    Framework,
    SimulationConfig,
    SimulationTrace,
    TargetSpec,
    build_graph,
    canonical_targets,
    canonical_three_agent_graph,
    grow_random,
    realize_canonical_targets,
    simulate,
    weak_rigidity_function,
)
from weakrig import formation
from weakrig.core import collocated, collocation_tolerance, min_separation, vector_norm
from weakrig.fileio import CSV_BLOCK_ROWS, trace_to_csv, write_trace_csv
from weakrig.formation import _collocated_three, _collocation_gate, _rhs_generic, _rk4, _trace
from weakrig.rigidity import compile_graph

from conftest import BENCH_INITIAL, BENCH_TARGETS, TRIANGLE_POS, random_positions


# ---------------------------------------------------------------------------
# reference loop and writer


def loop_rhs_canonical(x, d1s, d2s, cs):
    x0, y0, x1, y1, x2, y2 = x
    ax = x0 - x1
    ay = y0 - y1
    bx = x0 - x2
    by = y0 - y2
    n1 = ax * ax + ay * ay
    n2 = bx * bx + by * by
    e1 = n1 - d1s
    e2 = n2 - d2s
    inv = 1.0 / math.sqrt(n1 * n2)
    c = (ax * bx + ay * by) * inv
    ec = (1.0 if c > 1.0 else -1.0 if c < -1.0 else c) - cs
    w1 = 2.0 * e1 - ec * c / n1  # E(p)'s edge weights
    w2 = 2.0 * e2 - ec * c / n2
    w3 = ec * inv
    u1 = (w1 * ax + w3 * bx, w1 * ay + w3 * by)
    u2 = (w2 * bx + w3 * ax, w2 * by + w3 * ay)
    u = (-(u1[0] + u2[0]), -(u1[1] + u2[1]), *u1, *u2)
    return u, e1, e2, ec, ax * by - ay * bx


def loop_simulate_canonical(x0, targets, cfg):
    """Returns ``(times, positions, errors, det_z, status)``."""
    d1s, d2s, cs = targets
    dt = cfg.dt
    eps = cfg.convergence_eps
    x = tuple(float(v) for v in x0)
    bound = max(abs(v) for v in x) + cfg.divergence_bound  # the start's max|x| plus the bound
    times = [0.0]
    states = [x]
    errs = []
    dets = []

    def record(x):
        u, e1, e2, ec, det = loop_rhs_canonical(x, d1s, d2s, cs)
        errs.append((e1, e2, ec))
        dets.append(det)
        return u, math.sqrt(e1 * e1 + e2 * e2 + ec * ec)

    def degenerate(x):
        x0_, y0_, x1_, y1_, x2_, y2_ = x
        tol = collocation_tolerance(np.array(x))
        d01 = math.hypot(x0_ - x1_, y0_ - y1_)
        d02 = math.hypot(x0_ - x2_, y0_ - y2_)
        d12 = math.hypot(x1_ - x2_, y1_ - y2_)
        return min(d01, d02, d12) < tol

    status = "max-time"
    k1, enorm = record(x)
    if degenerate(x):
        status = "degenerate"
    elif enorm < eps:
        status = "converged"
    else:
        k = 0
        sixth = dt / 6.0
        half = 0.5 * dt
        while k * dt < cfg.t_max - 1e-12:
            xa = tuple(x[i] + half * k1[i] for i in range(6))
            k2, *_ = loop_rhs_canonical(xa, d1s, d2s, cs)
            xb = tuple(x[i] + half * k2[i] for i in range(6))
            k3, *_ = loop_rhs_canonical(xb, d1s, d2s, cs)
            xc = tuple(x[i] + dt * k3[i] for i in range(6))
            k4, *_ = loop_rhs_canonical(xc, d1s, d2s, cs)
            x = tuple(x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(6))
            k += 1
            times.append(k * dt)
            states.append(x)
            if degenerate(x):
                record(x)
                status = "degenerate"
                break
            k1, enorm = record(x)
            if max(abs(v) for v in x) > bound:
                status = "diverged"
                break
            if enorm < eps:
                status = "converged"
                break
    positions = np.array(states).reshape(len(states), 3, 2)
    return np.array(times), positions, np.array(errs), np.array(dets), status


def array_rk4(p, rhs, degenerate, cfg):
    """The one RK4 loop with numpy arithmetic on every state; returns ``_rk4``'s tuple."""
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    k1, e = rhs(p)
    times, states, errs = [0.0], [p.tolist()], [e]
    bound = max(map(abs, p.tolist())) + cfg.divergence_bound
    if degenerate(p):
        return times, states, errs, "degenerate"
    if math.hypot(*e) < cfg.convergence_eps:
        return times, states, errs, "converged"
    k = 0
    status = "max-time"
    while k * dt < cfg.t_max - 1e-12:
        k2, _ = rhs(p + half * k1)
        k3, _ = rhs(p + half * k2)
        k4, _ = rhs(p + dt * k3)
        p = p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k += 1
        k1, e = rhs(p)
        x = p.tolist()
        times.append(k * dt)
        states.append(x)
        errs.append(e)
        if degenerate(p):
            status = "degenerate"
            break
        if max(map(abs, x)) > bound:
            status = "diverged"
            break
        if math.hypot(*e) < cfg.convergence_eps:
            status = "converged"
            break
    return times, states, errs, status


def array_simulate_generic(f0, t, cfg):
    """The kernel flow on ``array_rk4``; returns ``(times, positions, errors, status)``."""
    shape, tv, cg = f0.positions.shape, t.values(), compile_graph(f0.graph)

    def rhs(x):
        vel, e = _rhs_generic(x.reshape(shape), cg, tv)
        return vel.ravel(), e

    times, states, errs, status = array_rk4(
        f0.config(), rhs, lambda x: collocated(x.reshape(shape)), cfg)
    return np.array(times), np.array(states).reshape(len(states), *shape), np.array(errs), status


def field_trace_to_csv(trace: SimulationTrace) -> str:
    def fmt(x):
        return format(float(x), ".17g")

    n = trace.positions.shape[1]
    canonical = trace.det_z is not None and n == 3 and trace.errors.shape[1] == 3
    if canonical:
        lines = ["time,x1,y1,x2,y2,x3,y3,e12,e13,ecos,V,detZ"]
    else:
        coords = ",".join(f"x{i+1},y{i+1}" for i in range(n))
        errs = ",".join(f"e{k+1}" for k in range(trace.errors.shape[1]))
        lines = [f"time,{coords},{errs},V"]
    for s in range(len(trace)):
        fields = [fmt(trace.times[s])]
        fields.extend(fmt(c) for c in trace.positions[s].ravel())
        fields.extend(fmt(e) for e in trace.errors[s])
        fields.append(fmt(trace.lyapunov[s]))
        if canonical:
            fields.append(fmt(trace.det_z[s]))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cases


PAPER_TARGETS = canonical_targets(*BENCH_TARGETS)


def _near_target_start() -> np.ndarray:
    f = realize_canonical_targets(PAPER_TARGETS)
    return f.positions + 1e-3 * np.random.default_rng(5).normal(size=(3, 2))


CANONICAL_CASES = {
    "paper": (BENCH_INITIAL, SimulationConfig(t_max=5.0)),
    "collinear": (np.array([[0.0, 0.0], [2.5, 0.0], [-1.0, 0.0]]), SimulationConfig(t_max=5.0)),
    "converges-early": (_near_target_start(), SimulationConfig(t_max=100.0, convergence_eps=1e-4)),
    "diverges": (BENCH_INITIAL, SimulationConfig(dt=5.0, t_max=100.0)),
}
EXPECTED_STATUS = {"paper": "max-time", "collinear": "max-time",
                   "converges-early": "converged", "diverges": "diverged"}


def canonical_trace(name):
    start, cfg = CANONICAL_CASES[name]
    f0 = Framework(canonical_three_agent_graph(), 2, start)
    with np.errstate(over="ignore", invalid="ignore"):
        return f0, cfg, simulate(f0, PAPER_TARGETS, cfg)


def generic_cases():
    """``(start, targets, config)`` of the kernel flow: a triangle, grown n = 8 and n = 12,
    then grown n = 12 on constant targets at a step that ends it ``degenerate``.

    In the last run the second step takes max|p| to ~1e42, where the relative
    collocation tolerance swallows two agents (see ``GENERIC_STATUS``).
    """
    rng = np.random.default_rng(808)
    k3 = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
    triangle = Framework(k3, 2, random_positions(rng, 3))
    t = TargetSpec(sq_distances=(((0, 1), 4.0), ((0, 2), 4.0), ((1, 2), 4.0)))
    yield triangle, t, SimulationConfig(dt=1e-3, t_max=0.2)
    for n, seed in ((8, 3), (12, 5)):
        grown = grow_random(Framework(k3, 2, TRIANGLE_POS), steps=n - 3, rng_seed=seed).final
        g, tv = grown.graph, weak_rigidity_function(grown)
        t = TargetSpec(sq_distances=tuple(zip(g.edges, tv[:g.m])),
                       cosines=tuple(zip(g.angles, tv[g.m:])))
        start = grown.positions + 0.02 * rng.normal(size=grown.positions.shape)
        yield grown.with_positions(start), t, SimulationConfig(dt=1e-3, t_max=0.2)
    t = TargetSpec(sq_distances=tuple((e, 1.0) for e in g.edges),
                   cosines=tuple((a, 0.3) for a in g.angles))
    yield grown, t, SimulationConfig(dt=0.16, t_max=16.0)


GENERIC_STATUS = ["max-time", "max-time", "max-time", "degenerate"]


def generic_traces():
    return (simulate(*case) for case in generic_cases())


def synthetic_trace(rows: int, canonical: bool) -> SimulationTrace:
    """A trace of random states: three agents with det Z, or five agents and seven errors."""
    rng = np.random.default_rng(rows)
    n, errors = (3, 3) if canonical else (5, 7)
    errs = rng.normal(size=(rows, errors))
    return _trace(np.arange(rows) * 1e-3, rng.normal(size=(rows, 2 * n)), errs,
                  [vector_norm(e) for e in errs], "max-time", canonical)


def assert_same_text(got: str, want: str) -> None:
    # Not ``assert got == want``: pytest's diff of two long traces takes minutes.
    if got != want:
        lines = zip(got.splitlines(), want.splitlines())
        first = next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b), "line count")
        pytest.fail(f"texts differ, first at (line, got, want) = {first}")


# ---------------------------------------------------------------------------
# tests


class TestCanonicalAgainstScalarLoop:
    @pytest.mark.parametrize("name", list(CANONICAL_CASES))
    def test_trace_is_identical(self, name):
        f0, cfg, trace = canonical_trace(name)
        with np.errstate(over="ignore", invalid="ignore"):
            times, positions, errors, dets, status = loop_simulate_canonical(
                f0.config(), BENCH_TARGETS, cfg)
        assert trace.terminal_status == status == EXPECTED_STATUS[name]
        assert len(trace) == len(times)
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.positions, positions)
        assert np.array_equal(trace.errors, errors)
        assert np.array_equal(trace.det_z, dets)


class TestGenericAgainstArrayLoop:
    def test_trace_is_identical(self):
        cases = list(generic_cases())
        assert len(cases) == len(GENERIC_STATUS)
        for (f0, t, cfg), expected in zip(cases, GENERIC_STATUS):
            trace = simulate(f0, t, cfg)
            times, positions, errors, status = array_simulate_generic(f0, t, cfg)
            assert trace.terminal_status == status == expected
            assert np.array_equal(trace.times, times)
            assert np.array_equal(trace.positions, positions)
            assert np.array_equal(trace.errors, errors)


def run_rk4(velocity, cfg, errors=lambda x: ()):
    """The loop on a constant velocity from agents at (0, 0), (1, 0), (0, 5)."""
    x0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 5.0])

    def stage(p, a, k):
        return np.array(velocity), errors(p if k is None else p + a * k)

    def combine(p, s, k1, k2, k3, k4):
        return p + s * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    times, states, errs, _, _, status = _rk4(x0, stage, combine, _collocated_three, cfg)
    return times, states, errs, status


class TestReportedNorm:
    def test_status_agrees_with_the_reported_norm(self):
        runs = [canonical_trace(name)[1:] for name in CANONICAL_CASES]
        runs += [(cfg, simulate(f0, t, cfg)) for f0, t, cfg in generic_cases()]
        for cfg, trace in runs:
            converged = trace.terminal_status == "converged"
            assert converged == (trace.error_norm[-1] < cfg.convergence_eps)
            with np.errstate(over="ignore", invalid="ignore"):
                norms = [vector_norm(e) for e in trace.errors]
            assert np.array_equal(trace.error_norm, norms, equal_nan=True)

    def test_norm_at_the_threshold_is_below_it(self):
        # At step 7 ||e|| is 0.6195942189772734; a norm one bit high read eps itself.
        eps = 0.6195942189772735
        f0 = Framework(canonical_three_agent_graph(), 2, [[0.0, 0.0], [2.5, 0.3], [-1.0, 1.2]])
        cfg = SimulationConfig(dt=0.01, t_max=20.0, convergence_eps=eps)
        trace = simulate(f0, canonical_targets(4.0, 9.0, 0.3), cfg)
        assert trace.terminal_status == "converged" and len(trace) == 8
        assert trace.error_norm[-1] < eps


class TestTranslatedStart:
    @pytest.mark.parametrize("name", list(CANONICAL_CASES))
    def test_ends_alike(self, name):
        # A shift past divergence_bound (1e6) ended the run at its first step.
        f0, cfg, trace = canonical_trace(name)
        with np.errstate(over="ignore", invalid="ignore"):
            moved = simulate(f0.with_positions(f0.positions + [2e6, 0.0]), PAPER_TARGETS, cfg)
        assert moved.terminal_status == trace.terminal_status
        if name == "converges-early":  # the shift rounds coordinates to 2^-31, and ||e|| falls
            assert abs(len(moved) - len(trace)) <= 5  # through eps slowly: 9 377 steps, not 9 375
        else:
            assert len(moved) == len(trace)



class TestRk4Loop:
    def test_stops_on_collocation(self):
        cfg = SimulationConfig(dt=0.25, t_max=10.0, convergence_eps=0.0)
        times, states, _, status = run_rk4([0.0, 0.0, -1.0, 0.0, 0.0, 0.0], cfg)
        assert status == "degenerate" and times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert abs(states[-1][2]) < 1e-12

    def test_degenerate_is_tested_before_diverged(self):
        # One step puts agent 1 on agent 0 and agent 2 beyond the bound.
        cfg = SimulationConfig(dt=0.25, t_max=10.0, convergence_eps=0.0, divergence_bound=1e8)
        times, _, _, status = run_rk4([0.0, 0.0, -4.0, 0.0, 0.0, 1e9], cfg)
        assert status == "degenerate" and len(times) == 2

    def test_diverged_is_tested_before_converged(self):
        cfg = SimulationConfig(dt=0.25, t_max=10.0, convergence_eps=0.5, divergence_bound=1e8)
        times, _, errs, status = run_rk4([0.0] * 5 + [1e9], cfg, lambda x: (float(x[5] < 10.0),))
        assert status == "diverged" and errs.tolist() == [[1.0], [0.0]]

    def test_an_error_that_is_not_finite_ends_the_run_first(self):
        # A NaN behind the first coordinate leaves max|x| finite; the errors show it.
        cfg = SimulationConfig(dt=0.25, t_max=10.0, convergence_eps=0.0, divergence_bound=1e8)
        times, states, _, status = run_rk4([0.0, 0.0, math.nan, 0.0, 0.0, 0.0], cfg,
                                           lambda x: (x[2],))
        assert status == "diverged" and times.tolist() == [0.0, 0.25]
        assert math.isnan(states[1][2]) and not math.isnan(states[0][2])

    @pytest.mark.parametrize("error", [math.inf, math.nan])
    def test_an_initial_error_that_is_not_finite_ends_the_run(self, error):
        cfg = SimulationConfig(dt=0.25, t_max=10.0, convergence_eps=0.5)
        times, _, _, status = run_rk4([0.0] * 6, cfg, lambda x: (error,))
        assert status == "diverged" and times.tolist() == [0.0]

    def test_start_is_not_tested_for_divergence(self):
        cfg = SimulationConfig(dt=0.25, t_max=0.0, convergence_eps=0.5, divergence_bound=1.0)
        times, _, _, status = run_rk4([0.0] * 6, cfg, lambda x: (1.0,))
        assert status == "max-time" and times.tolist() == [0.0]

    def test_scalar_collocation_matches_core(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            p = rng.normal(size=(3, 2)) * 10.0 ** rng.uniform(-3, 4)
            tol = collocation_tolerance(p)
            p[1] = p[0] + rng.normal(size=2) * tol * rng.uniform(0.5, 1.5)
            assert _collocated_three(p.ravel(), float(np.abs(p).max())) == collocated(p)


class TestCollocationGate:
    def test_answers_as_the_full_test(self, monkeypatch):
        # Agents 0 and 1 close along a diagonal, each coordinate moving by
        # 1/(2 sqrt 2) of the gap's change, the fastest closing the gate's
        # bound allows.  The gap shrinks by a random factor per state, through
        # the tolerance; the last state but one is NaN.
        measured = []
        monkeypatch.setattr(formation, "min_separation",
                            lambda p: measured.append(1) or min_separation(p))
        rng = np.random.default_rng(31)
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-3, 3)
            x = random_positions(rng, 5) * scale
            centre, gap = x[0].copy(), scale
            gate = _collocation_gate(x)
            for step in range(60):
                x = x.copy()
                x[0], x[1] = centre - 0.5 * gap * u, centre + 0.5 * gap * u
                if step == 58:
                    x[3, 0] = math.nan
                assert gate(x, float(np.abs(x).max())) == collocated(x)
                gap *= rng.uniform(0.05, 0.95)
        assert len(measured) < 0.8 * 40 * 60

    def test_well_separated_run_measures_rarely(self, monkeypatch):
        calls = []
        monkeypatch.setattr(formation, "min_separation",
                            lambda p: calls.append(1) or min_separation(p))
        f0, t, _ = list(generic_cases())[1]
        trace = simulate(f0, t, SimulationConfig(dt=1e-3, t_max=0.02))
        assert trace.terminal_status == "max-time" and len(trace) == 21
        assert len(calls) < 21


class TestTraceCsv:
    @pytest.mark.parametrize("name", list(CANONICAL_CASES))
    def test_canonical_matches_field_writer(self, name):
        trace = canonical_trace(name)[2]
        assert_same_text(trace_to_csv(trace), field_trace_to_csv(trace))

    def test_generic_matches_field_writer(self):
        for trace in generic_traces():
            assert trace.det_z is None
            assert_same_text(trace_to_csv(trace), field_trace_to_csv(trace))

    def test_special_values_match_field_writer(self):
        row = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, 5e300]])
        trace = SimulationTrace(
            times=np.array([0.0, 1e-3]),
            positions=np.vstack([row[:, :6], row[:, 1:]]).reshape(2, 3, 2),
            errors=np.array([[np.nan, -0.0, 1.0 / 3.0], [np.inf, 2.0, -1e-17]]),
            error_norm=np.array([np.nan, np.inf]),
            lyapunov=np.array([np.nan, np.inf]),
            det_z=np.array([-0.0, np.nan]),
            terminal_status="diverged",
        )
        assert_same_text(trace_to_csv(trace), field_trace_to_csv(trace))

    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                      2 * CSV_BLOCK_ROWS + 1])
    def test_streamed_file_matches_writers(self, tmp_path, rows, canonical):
        # Rows around the block boundaries: the file written block by block,
        # the joined string and the per-field writer agree byte for byte.
        trace = synthetic_trace(rows, canonical)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        text = trace_to_csv(trace)
        assert path.read_bytes() == text.encode()
        assert_same_text(text, field_trace_to_csv(trace))
        assert text.count("\n") == rows + 1
