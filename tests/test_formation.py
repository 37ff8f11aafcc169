"""Error vector, gradient control law, three-agent analysis, simulation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from weakrig import (
    Framework,
    SimulationConfig,
    TargetMismatch,
    TargetSpec,
    WrongTopology,
    align_targets,
    build_graph,
    canonical_targets,
    canonical_three_agent_graph,
    classify_equilibrium,
    control_law,
    det_z,
    e_matrix_three_agent,
    error_vector,
    flow_jacobian,
    realize_canonical_targets,
    simulate,
)
from weakrig.formation import _det, _rhs_canonical, _rhs_generic, _trace
from weakrig.rigidity import compile_graph

from conftest import (
    BENCH_TARGETS,
    TRIANGLE_POS,
    random_positions,
    random_targets,
    random_three_agent_state,
)


class TestTargetSpec:
    def test_negative_squared_distance_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(sq_distances=(((0, 1), -1.0),))

    def test_cosine_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec(cosines=(((0, 1, 2), 1.5),))

    def test_align_reorders_by_graph(self):
        g = canonical_three_agent_graph()
        t = align_targets(g, {(0, 2): 9.0, (0, 1): 8.0}, {(0, 2, 1): 0.5})
        assert t.sq_distances == (((0, 1), 8.0), ((0, 2), 9.0))
        assert t.cosines == (((0, 1, 2), 0.5),)

    def test_align_rejects_bad_cover(self):
        g = canonical_three_agent_graph()
        with pytest.raises(TargetMismatch):
            align_targets(g, {(0, 1): 8.0}, {(0, 1, 2): 0.5})
        with pytest.raises(TargetMismatch):
            align_targets(g, {(0, 1): 8.0, (0, 2): 9.0, (1, 2): 4.0}, {(0, 1, 2): 0.5})


class TestErrorVector:
    def test_zero_at_realized_targets(self, bench_targets):
        f = realize_canonical_targets(bench_targets)
        assert error_vector(f, bench_targets).norm() < 1e-12

    def test_benchmark_initial_errors(self, bench_initial, bench_targets):
        e = error_vector(bench_initial, bench_targets).values
        assert e[0] == pytest.approx(17.0 - 8.0)
        assert e[1] == pytest.approx(13.0 - 9.0)
        u = np.array([4.0, 1.0])
        v = np.array([2.0, -3.0])
        expected_cos = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert e[2] == pytest.approx(expected_cos - math.cos(math.radians(40.0)), abs=1e-12)

    def test_swapped_target_order_rejected(self, bench_initial):
        t = TargetSpec(
            sq_distances=(((0, 2), 9.0), ((0, 1), 8.0)),
            cosines=(((0, 1, 2), 0.5),),
        )
        with pytest.raises(TargetMismatch):
            error_vector(bench_initial, t)


class TestControlLaw:
    def test_zero_at_realized_targets(self, bench_targets):
        f = realize_canonical_targets(bench_targets)
        assert np.max(np.abs(control_law(f, bench_targets))) < 1e-12

    def test_equals_coefficient_matrix_form(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            f = random_three_agent_state(rng)
            t = random_targets(rng)
            u = control_law(f, t)
            E = e_matrix_three_agent(f, t)
            rhs = -np.kron(E, np.eye(2)) @ f.config()
            assert np.max(np.abs(u - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(u)))

    def test_total_momentum_is_zero(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            f = random_three_agent_state(rng)
            t = random_targets(rng)
            u = control_law(f, t).reshape(3, 2)
            scale = max(1.0, np.max(np.abs(u)))
            assert np.max(np.abs(u.sum(axis=0))) < 1e-12 * scale


class TestEMatrix:
    def test_symmetric(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            E = e_matrix_three_agent(random_three_agent_state(rng), random_targets(rng))
            assert np.max(np.abs(E - E.T)) < 1e-12

    def test_zero_at_zero_error(self, bench_targets):
        f = realize_canonical_targets(bench_targets)
        assert np.max(np.abs(e_matrix_three_agent(f, bench_targets))) < 1e-12

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            E = e_matrix_three_agent(random_three_agent_state(rng), random_targets(rng))
            assert np.max(np.abs(E @ np.ones(3))) < 1e-9 * max(1.0, np.max(np.abs(E)))

    def test_wrong_topology(self, triangle_k3, bench_targets):
        with pytest.raises(WrongTopology):
            e_matrix_three_agent(triangle_k3, bench_targets)


class TestFlowJacobian:
    def test_symmetry(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            f = random_three_agent_state(rng)
            t = random_targets(rng)
            J = flow_jacobian(f, t, fd_step=1e-6)
            assert np.max(np.abs(J - J.T)) < 1e-5

    def test_spectrum_at_desired_equilibrium(self, bench_targets):
        f = realize_canonical_targets(bench_targets)
        J = flow_jacobian(f, bench_targets)
        eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
        assert np.sum(np.abs(eigs) < 1e-6) == 3  # the trivial motions
        assert np.all(eigs[np.abs(eigs) >= 1e-6] > 0.0)


def _collinear_start(rng):
    """Random distinct positions on the x-axis (det Z exactly zero)."""
    while True:
        xs = np.sort(rng.uniform(-4.0, 4.0, size=3))
        if np.min(np.diff(xs)) > 0.4:
            order = rng.permutation(3)
            pos = np.zeros((3, 2))
            pos[order, 0] = xs
            return Framework(canonical_three_agent_graph(), 2, pos)


class TestSimulate:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["dt", "t_max", "convergence_eps", "divergence_bound"])
    def test_config_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize("three_agent", [True, False], ids=["three-agent", "generic"])
    def test_rejects_3d(self, bench_targets, three_agent):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.1], [0.1, 1.0, 0.3]])
        if three_agent:
            f, t = Framework(canonical_three_agent_graph(), 3, pos), bench_targets
        else:
            f = Framework(build_graph(3, edges=[(0, 1), (1, 2)], angles=[(0, 1, 2)]), 3, pos)
            t = TargetSpec(sq_distances=(((0, 1), 1.0), ((1, 2), 1.0)), cosines=(((0, 1, 2), 0.5),))
        for run in (lambda: simulate(f, t, SimulationConfig(t_max=0.01)),
                    lambda: control_law(f, t),
                    lambda: flow_jacobian(f, t)):
            with pytest.raises(ValueError, match="^the gradient flow is defined for dim 2$"):
                run()

    def test_already_converged(self, bench_targets):
        f = realize_canonical_targets(bench_targets)
        trace = simulate(f, bench_targets)
        assert trace.terminal_status == "converged"
        assert len(trace) == 1
        assert trace.times[0] == 0.0

    def test_max_time_truncation(self, bench_initial, bench_targets):
        trace = simulate(bench_initial, bench_targets, SimulationConfig(dt=1e-3, t_max=2.0))
        assert trace.terminal_status == "max-time"
        assert len(trace) == 2001
        assert np.all(np.diff(trace.times) > 0)

    def test_lyapunov_non_increasing(self, bench_initial, bench_targets):
        trace = simulate(bench_initial, bench_targets, SimulationConfig(dt=1e-3, t_max=3.0))
        assert np.all(np.diff(trace.lyapunov) <= 1e-10)

    def test_converges_with_loose_threshold(self, bench_initial, bench_targets):
        cfg = SimulationConfig(dt=2e-3, t_max=40.0, convergence_eps=1e-2)
        trace = simulate(bench_initial, bench_targets, cfg)
        assert trace.terminal_status == "converged"
        assert trace.error_norm[-1] < 1e-2

    def test_collinear_invariance_and_incorrect_terminal(self, bench_targets):
        rng = np.random.default_rng(127)
        f0 = _collinear_start(rng)
        trace = simulate(f0, bench_targets, SimulationConfig(dt=2e-3, t_max=20.0))
        assert trace.terminal_status == "max-time"
        assert np.max(np.abs(trace.det_z)) < 1e-8
        assert trace.error_norm[-1] > 1e-3
        terminal = f0.with_positions(trace.final_positions())
        report = classify_equilibrium(terminal, bench_targets, tol=1e-6)
        assert report.kind == "incorrect"
        assert report.collinear
        assert report.min_jacobian_eig < 0.0

    def test_translation_equivariance(self, bench_initial, bench_targets):
        shift = np.array([2.5, -1.5])
        cfg = SimulationConfig(dt=1e-3, t_max=1.0)
        base = simulate(bench_initial, bench_targets, cfg)
        moved = simulate(bench_initial.with_positions(bench_initial.positions + shift),
                         bench_targets, cfg)
        assert np.max(np.abs(moved.positions - (base.positions + shift))) < 1e-9
        assert np.max(np.abs(moved.errors - base.errors)) < 1e-11

    def test_exponential_tail(self, bench_initial, bench_targets):
        cfg = SimulationConfig(dt=2e-3, t_max=200.0, convergence_eps=1e-6)
        trace = simulate(bench_initial, bench_targets, cfg)
        assert trace.terminal_status == "converged"
        log_e = np.log(trace.error_norm)
        tail = slice(len(trace) // 2, len(trace))
        slope, intercept = np.polyfit(trace.times[tail], log_e[tail], 1)
        fit = slope * trace.times[tail] + intercept
        resid = log_e[tail] - fit
        r_squared = 1.0 - np.sum(resid**2) / np.sum((log_e[tail] - log_e[tail].mean())**2)
        assert slope < 0.0
        assert r_squared > 0.99

    def test_divergence_guard(self, bench_initial, bench_targets):
        # A wildly unstable step size trips the coordinate bound.
        with np.errstate(over="ignore", invalid="ignore"):
            trace = simulate(bench_initial, bench_targets, SimulationConfig(dt=5.0, t_max=100.0))
        assert trace.terminal_status == "diverged"

    def test_trace_summaries_do_not_overflow(self):
        # A diverged run's last rows: ||e|| is finite although its square is not.
        states = [[0.0, 0.0, 1.0, 0.0, 0.0, 1.0], [-3e200, 0.0, 1e200, 2e200, 0.0, -4e200]]
        errs = [(1.0, 2.0, 2.0), (3e200, -4e200, 0.5)]
        with np.errstate(over="raise"):
            trace = _trace([0.0, 1.0], states, errs, "diverged", canonical=True)
        assert trace.error_norm[0] == 3.0 and trace.lyapunov[0] == 4.5
        assert trace.error_norm[1] == pytest.approx(5e200, rel=1e-15)
        assert trace.lyapunov[1] == math.inf and trace.det_z[1] == -math.inf
        assert trace.det_z[0] == 1.0

    @pytest.mark.parametrize("kind", ["canonical", "one-edge"])
    def test_a_state_out_of_the_float_range_ends_the_run(self, bench_initial, kind):
        # A target of 1e150 overflows the first step's velocity, and inf - inf
        # then makes the state NaN; the run stops there, without a warning.
        if kind == "canonical":
            f0, t = bench_initial, canonical_targets(1e150, 9.0, 0.5)
        else:
            g = build_graph(3, edges=[(0, 1)])
            f0 = Framework(g, 2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
            t = align_targets(g, {(0, 1): 1e150}, {})
        trace = simulate(f0, t, SimulationConfig(t_max=1.0))
        assert trace.terminal_status == "diverged" and len(trace) == 2
        assert np.isfinite(trace.positions[0]).all() and not np.isfinite(trace.positions[1]).all()

    def test_degenerate_guard(self, bench_targets):
        # The continuous flow cannot collocate agents in finite time, so the
        # guard is exercised directly on a sub-tolerance state.
        from weakrig.formation import _collocated_three, _rk4

        x0 = np.array([0.0, 0.0, 1e-12, 0.0, 1.0, 1.0])
        targets = tuple(v for _, v in bench_targets.sq_distances) + (bench_targets.cosines[0][1],)
        *_, status = _rk4(x0, lambda x: _rhs_canonical(x, *targets), _collocated_three,
                          SimulationConfig(dt=1e-3, t_max=1.0))
        assert status == "degenerate"

    def test_generic_topology_converges(self):
        # Distance-only triangle: the generic integrator path.
        rng = np.random.default_rng(131)
        g = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        f0 = Framework(g, 2, random_positions(rng, 3))
        t = TargetSpec(sq_distances=(((0, 1), 4.0), ((0, 2), 4.0), ((1, 2), 4.0)))
        trace = simulate(f0, t, SimulationConfig(dt=2e-3, t_max=40.0, convergence_eps=1e-8))
        assert trace.terminal_status == "converged"
        assert trace.det_z is None
        assert np.all(np.diff(trace.lyapunov) <= 1e-10)

    def test_generic_and_canonical_paths_agree(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            f = random_three_agent_state(rng)
            t = random_targets(rng)
            u_lib = control_law(f, t)
            u_fast, _ = _rhs_canonical(f.config(), *(v for _, v in t.sq_distances),
                                       t.cosines[0][1])
            u_gen, errs = _rhs_generic(f.positions, compile_graph(f.graph), t.values())
            assert np.max(np.abs(u_lib - np.array(u_fast))) < 1e-13
            assert np.max(np.abs(u_lib - u_gen.ravel())) < 1e-13
            assert np.max(np.abs(errs - error_vector(f, t).values)) < 1e-14


class TestDetZ:
    def test_zero_when_collinear(self, bench_targets):
        pos = np.array([[0.0, 0.0], [2.0, 0.0], [-1.5, 0.0]])
        f = Framework(canonical_three_agent_graph(), 2, pos)
        assert det_z(f, bench_targets).det == 0.0

    def test_triangle_value(self, bench_targets):
        f = Framework(canonical_three_agent_graph(), 2, TRIANGLE_POS)
        assert det_z(f, bench_targets).det == pytest.approx(-2.0 * 1.732)

    def test_wrong_topology(self, triangle_k3, bench_targets):
        with pytest.raises(WrongTopology):
            det_z(triangle_k3, bench_targets)

    def test_stacked_det_matches_scalar_expression(self):
        rng = np.random.default_rng(143)
        states = rng.normal(size=(200, 3, 2)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1, 1))
        for p, det in zip(states, _det(states)):
            z1, z2 = p[0] - p[1], p[0] - p[2]
            assert det == z1[0] * z2[1] - z1[1] * z2[0]
            assert _det(p) == det

    def test_decay_identity_along_trace(self, bench_targets):
        # Start near the target and skip the fast transient (modes decaying
        # at rates up to ~100/s) so the centered difference of the sampled
        # determinant resolves its true derivative well below 1e-6.
        f_star = realize_canonical_targets(bench_targets)
        rng = np.random.default_rng(139)
        f0 = f_star.with_positions(f_star.positions + 0.02 * rng.normal(size=(3, 2)))
        cfg = SimulationConfig(dt=1e-3, t_max=3.0)
        trace = simulate(f0, bench_targets, cfg)
        g = f0.graph
        checked = 0
        for s in range(700, len(trace) - 1, 25):
            fs = Framework(g, 2, trace.positions[s])
            dz = det_z(fs, bench_targets)
            ddet = (trace.det_z[s + 1] - trace.det_z[s - 1]) / (2.0 * cfg.dt)
            assert abs(ddet + dz.sigma * dz.det) < 1e-6
            checked += 1
        assert checked > 50

    def test_decay_identity_exact_directional_derivative(self, bench_targets):
        # Bilinearity gives the derivative of the determinant along the flow
        # without any finite-difference error; the identity holds at
        # arbitrary states.
        rng = np.random.default_rng(141)
        for _ in range(50):
            f = random_three_agent_state(rng)
            t = random_targets(rng)
            u = control_law(f, t).reshape(3, 2)
            p = f.positions
            z1, z2 = p[0] - p[1], p[0] - p[2]
            dz1, dz2 = u[0] - u[1], u[0] - u[2]
            ddet = (dz1[0] * z2[1] - dz1[1] * z2[0]) + (z1[0] * dz2[1] - z1[1] * dz2[0])
            dz = det_z(f, t)
            assert ddet == pytest.approx(-dz.sigma * dz.det, rel=1e-9, abs=1e-12)


class TestClassifyEquilibrium:
    def test_desired(self, bench_targets):
        f = realize_canonical_targets(bench_targets)
        report = classify_equilibrium(f, bench_targets, tol=1e-6)
        assert report.kind == "desired"
        assert not report.collinear

    def test_generic_state_is_not_equilibrium(self):
        rng = np.random.default_rng(149)
        for _ in range(10):
            f = random_three_agent_state(rng)
            t = random_targets(rng)
            report = classify_equilibrium(f, t, tol=1e-6)
            assert report.kind == "not-equilibrium"
            assert report.gradient_norm >= 1e-6

    def test_incorrect_equilibrium_from_collinear_flow(self, bench_targets):
        rng = np.random.default_rng(151)
        f0 = _collinear_start(rng)
        trace = simulate(f0, bench_targets, SimulationConfig(dt=2e-3, t_max=20.0))
        terminal = f0.with_positions(trace.final_positions())
        report = classify_equilibrium(terminal, bench_targets, tol=1e-6)
        assert report.kind == "incorrect"
        assert report.collinear
        assert report.min_jacobian_eig < 0.0


class TestRealize:
    def test_realization_matches_targets(self):
        rng = np.random.default_rng(157)
        for _ in range(20):
            t = random_targets(rng)
            f = realize_canonical_targets(t)
            assert error_vector(f, t).norm() < 1e-12
