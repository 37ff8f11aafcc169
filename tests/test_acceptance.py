"""Acceptance gates: one test per criterion, each prints a pass/fail line.

Gate 5 is known-red: with the exact gradient flow, the benchmark scenario's
error norm reaches 1e-6 only at t ~ 114.7 (the slow mode of R_W R_W^T at
the target shape has eigenvalue 0.10590, invariant under congruence), so
no run can satisfy "final ||e|| < 1e-6 within t_max = 50".  The assertion
is kept as stated rather than loosened; see the failure message.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from weakrig import (
    Framework,
    SimulationConfig,
    build_graph,
    canonical_targets,
    classify_equilibrium,
    classify_infinitesimal_weak_rigidity,
    classify_weak_rigidity_3d,
    cosine_edge_partials,
    e_matrix_three_agent,
    error_vector,
    finite_difference_weak_rigidity_matrix,
    flow_jacobian,
    grow_random,
    induced_distance_closure,
    is_minimally_weakly_rigid,
    numerical_rank,
    realize_canonical_targets,
    simulate,
    trivial_motion_basis,
    weak_rigidity_matrix,
)

from conftest import (
    BENCH_INITIAL,
    BENCH_TARGETS,
    TRIANGLE_POS,
    random_framework,
    random_positions,
    random_targets,
    random_three_agent_state,
    rhombus_framework,
)

RANK_TOL = 1e-9


def _report(num: int, detail: str) -> None:
    print(f"acceptance criterion {num}: PASS ({detail})")


def test_criterion_1_rhombus_suite():
    expected_rank = {"a": 5, "b": 5, "c": 5, "d": 5, "e": 5, "f": 4}
    start = time.perf_counter()
    for variant, rank in expected_rank.items():
        report = classify_infinitesimal_weak_rigidity(rhombus_framework(variant), rel_tol=RANK_TOL)
        assert report.rigid, f"variant {variant} must be rigid"
        assert report.rank == rank, f"variant {variant}: rank {report.rank} != {rank}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"six variants classified rigid with ranks 5,5,5,5,5,4 in {elapsed:.3f}s")


def test_criterion_2_cosine_contraction_identities():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        pos = random_positions(rng, 3)
        za = pos[1] - pos[0]
        zb = pos[2] - pos[0]
        zc = za - zb
        d_a, d_b, d_c = cosine_edge_partials(za, zb, zc)
        na, nb, nc = (float(v @ v) for v in (za, zb, zc))
        denom = 2.0 * math.sqrt(na * nb)
        for got, want in (
            (float(d_a @ za), (na - nb + nc) / denom),
            (float(d_b @ zb), (-na + nb + nc) / denom),
            (float(d_c @ zc), -2.0 * nc / denom),
        ):
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
            assert rel < 1e-10
    _report(2, f"three contraction identities on 100 triangles, worst rel err {worst:.2e}")


def test_criterion_3_null_space_suite():
    rng = np.random.default_rng(203)
    checked_scaling = 0
    for trial in range(100):
        f = random_framework(rng, allow_empty_edges=False)
        if trial % 3 == 0:
            # Angle-only framework: scaling joins the trivial motions.
            g = build_graph(f.graph.n, angles=f.graph.angles or [(0, 1, 2)])
            f = Framework(g, 2, f.positions)
        R = weak_rigidity_matrix(f).matrix
        bound = 1e-9 * max(1.0, float(np.max(np.abs(R))))
        basis = trivial_motion_basis(f)
        for col in basis.T:
            assert float(np.max(np.abs(R @ col))) < bound
        if basis.shape[1] == 4:
            checked_scaling += 1
        rank_cap = 2 * f.graph.n - (3 if f.graph.m else 4)
        assert numerical_rank(R, RANK_TOL) <= rank_cap
    assert checked_scaling >= 30
    _report(3, f"translations/rotation annihilated on 100 frameworks "
               f"({checked_scaling} angle-only incl. scaling), ranks within bounds")


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(204)
    worst = 0.0
    for _ in range(100):
        f = random_framework(rng)
        analytic = weak_rigidity_matrix(f).matrix
        fd = finite_difference_weak_rigidity_matrix(f, step=1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - fd))))
        assert worst < 1e-6
    _report(4, f"analytic vs central differences on 100 frameworks, worst dev {worst:.2e}")


def _bench_setup():
    g = build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])
    f0 = Framework(g, 2, BENCH_INITIAL)
    return f0, canonical_targets(*BENCH_TARGETS)


def test_criterion_5_benchmark_reproduction():
    f0, targets = _bench_setup()
    start = time.perf_counter()
    trace = simulate(f0, targets, SimulationConfig(dt=1e-3, t_max=50.0, convergence_eps=1e-6))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    assert np.all(np.diff(trace.lyapunov) <= 1e-10), "Lyapunov sequence must be non-increasing"
    tail = slice(len(trace) // 2, len(trace))
    log_e = np.log(trace.error_norm[tail])
    slope, intercept = np.polyfit(trace.times[tail], log_e, 1)
    resid = log_e - (slope * trace.times[tail] + intercept)
    r_squared = 1.0 - float(np.sum(resid**2) / np.sum((log_e - log_e.mean())**2))
    assert slope < 0.0 and r_squared > 0.99, f"tail fit slope={slope:.4f} R2={r_squared:.5f}"
    final_error = float(trace.error_norm[-1])
    if final_error < 1e-6:
        _report(5, f"converged to ||e||={final_error:.2e} in {elapsed:.2f}s, tail R2={r_squared:.4f}")
    else:
        print(f"acceptance criterion 5: FAIL (final ||e||={final_error:.2e} at t=50; "
              f"Lyapunov monotone and tail R2={r_squared:.4f} both hold)")
    assert final_error < 1e-6, (
        f"final ||e|| = {final_error:.3e} after t_max=50 with dt=1e-3. "
        "Unreachable for this flow: the slow mode of R_W R_W^T at the target shape "
        "(eigenvalue 0.10590, a congruence invariant) puts the 1e-6 crossing at "
        "t ~ 114.7; by t=50 the error is ~9.5e-4. The Lyapunov value 0.5*||e||^2 "
        "does cross 1e-6 near t ~ 47, which may be how the 50s horizon was chosen."
    )


def test_criterion_6_collinear_invariance_and_escape():
    rng = np.random.default_rng(206)
    f0_proto, targets = _bench_setup()
    locate_cfg = SimulationConfig(dt=2e-3, t_max=20.0, convergence_eps=1e-9)
    # Escape can be slow: the weakest unstable eigenvalue seen here is
    # -0.055, so growing a 1e-3 perturbation to O(1) alone takes ~125s of
    # simulated time before the terminal descent.
    escape_cfg = SimulationConfig(dt=5e-3, t_max=600.0, convergence_eps=1e-6)
    for run in range(10):
        while True:
            xs = np.sort(rng.uniform(-4.0, 4.0, size=3))
            if np.min(np.diff(xs)) > 0.4:
                break
        pos = np.zeros((3, 2))
        pos[rng.permutation(3), 0] = xs
        f0 = f0_proto.with_positions(pos)
        trace = simulate(f0, targets, locate_cfg)
        assert float(np.max(np.abs(trace.det_z))) < 1e-8, f"run {run}: det Z escaped"
        terminal = f0.with_positions(trace.final_positions())
        eq = classify_equilibrium(terminal, targets, tol=1e-6)
        assert eq.kind == "incorrect", f"run {run}: terminal is {eq.kind}"
        assert eq.collinear
        assert eq.min_jacobian_eig < 0.0, f"run {run}: no unstable direction"
        J = flow_jacobian(terminal, targets)
        eigvals, eigvecs = np.linalg.eigh(0.5 * (J + J.T))
        direction = eigvecs[:, 0]
        perturbed = terminal.with_positions(
            terminal.positions + 1e-3 * direction.reshape(3, 2)
        )
        escape = simulate(perturbed, targets, escape_cfg)
        assert escape.terminal_status == "converged", f"run {run}: escape did not converge"
        assert escape.error_norm[-1] < 1e-6
    _report(6, "10 collinear runs stayed on det Z = 0, ended at unstable incorrect "
               "equilibria, and all eigenvector perturbations reconverged")


def test_criterion_7_coefficient_matrix_identity():
    rng = np.random.default_rng(207)
    worst_id = 0.0
    worst_sym = 0.0
    for _ in range(100):
        f = random_three_agent_state(rng)
        t = random_targets(rng)
        e = error_vector(f, t).values
        R = weak_rigidity_matrix(f).matrix
        E = e_matrix_three_agent(f, t)
        lhs = R.T @ e
        rhs = np.kron(E, np.eye(2)) @ f.config()
        rel = float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs))))
        sym = float(np.max(np.abs(E - E.T)))
        worst_id = max(worst_id, rel)
        worst_sym = max(worst_sym, sym)
        assert rel < 1e-9
        assert sym < 1e-12
    _report(7, f"identity rel err {worst_id:.2e}, symmetry defect {worst_sym:.2e} on 100 states")


def test_criterion_8_growth_suite():
    rng = np.random.default_rng(208)
    seed_fw = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)
    produced = 0
    for seq in range(200):
        steps = int(rng.integers(1, 8))  # up to n = 10
        result = grow_random(seed_fw, steps=steps, rng_seed=int(rng.integers(2**31)))
        for f in result.frameworks:
            n = f.graph.n
            assert f.graph.constraint_count == 2 * n - 3
            assert classify_infinitesimal_weak_rigidity(f, rel_tol=RANK_TOL).rigid
            assert is_minimally_weakly_rigid(f, rel_tol=RANK_TOL).minimal
            produced += 1
    _report(8, f"200 growth sequences, {produced} frameworks all counted 2n-3, "
               "rank-rigid and single-removal minimal")


def test_criterion_9_three_dimensional_suite():
    g = build_graph(4, edges=[(0, 1), (0, 2), (0, 3)],
                    angles=[(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    f = Framework(g, 3, pos)
    closure = induced_distance_closure(g)
    assert set(closure.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    report = classify_weak_rigidity_3d(f, rel_tol=RANK_TOL)
    assert report.rigid and report.rank == 6

    rng = np.random.default_rng(209)
    path = build_graph(4, edges=[(0, 1), (1, 2), (2, 3)])
    path_report = classify_weak_rigidity_3d(
        Framework(path, 3, random_positions(rng, 4, dim=3)), rel_tol=RANK_TOL
    )
    assert not path_report.rigid and path_report.rank < 6
    _report(9, f"constrained tetrahedron closes to K4 with rank 6; "
               f"path graph reaches only rank {path_report.rank}")


def test_criterion_10_flow_jacobian():
    rng = np.random.default_rng(210)
    worst = 0.0
    for _ in range(100):
        f = random_three_agent_state(rng)
        t = random_targets(rng)
        J = flow_jacobian(f, t, fd_step=1e-6)
        worst = max(worst, float(np.max(np.abs(J - J.T))))
        assert worst < 1e-5
    targets = canonical_targets(*BENCH_TARGETS)
    f_star = realize_canonical_targets(targets)
    J = flow_jacobian(f_star, targets, fd_step=1e-6)
    eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
    zeros = np.abs(eigs) < 1e-6
    assert int(np.sum(zeros)) == 3
    assert np.all(eigs[~zeros] > 0.0)
    _report(10, f"symmetry defect {worst:.2e} on 100 states; desired equilibrium has "
                "exactly 3 zero eigenvalues, rest positive")
