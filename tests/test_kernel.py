"""The constraint kernel against per-row reference loops, and RK4 bookkeeping.

The reference loops below are the per-constraint implementations the
kernel replaced: one Python iteration per edge and per angle, and one
kernel call per stepped configuration for central differences.  They are
kept here as oracles only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from weakrig import (
    CollocatedPoints,
    Framework,
    Graph,
    SimulationConfig,
    TargetSpec,
    build_graph,
    canonical_three_agent_graph,
    control_law,
    finite_difference_weak_rigidity_matrix,
    flow_jacobian,
    grow_random,
    simulate,
    weak_rigidity_function,
    weak_rigidity_matrix,
)
from weakrig import formation, rigidity
from weakrig.core import collocated
from weakrig.formation import _rhs_generic
from weakrig.rigidity import compile_graph, constraint_kernel

from conftest import BENCH_TARGETS, TRIANGLE_POS, random_positions

REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# reference loops


def loop_values(positions, g: Graph) -> np.ndarray:
    vals = np.empty(g.m + g.q)
    for u, (i, j) in enumerate(g.edges):
        z = positions[i] - positions[j]
        vals[u] = float(z @ z)
    for h, (k, i, j) in enumerate(g.angles):
        a = positions[i] - positions[k]
        b = positions[j] - positions[k]
        c = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        vals[g.m + h] = max(-1.0, min(1.0, c))
    return vals


def loop_matrix(positions, g: Graph) -> np.ndarray:
    d = positions.shape[1]
    R = np.zeros((g.m + g.q, d * g.n))
    for u, (i, j) in enumerate(g.edges):
        z = positions[i] - positions[j]
        R[u, d * i:d * i + d] = 2.0 * z
        R[u, d * j:d * j + d] = -2.0 * z
    for h, (k, i, j) in enumerate(g.angles):
        za = positions[i] - positions[k]
        zb = positions[j] - positions[k]
        zc = positions[i] - positions[j]
        na = float(np.linalg.norm(za))
        nb = float(np.linalg.norm(zb))
        inv = 1.0 / (na * nb)
        cosv = (na * na + nb * nb - float(zc @ zc)) * 0.5 * inv
        d_a = za * inv - cosv * za / (na * na)
        d_b = zb * inv - cosv * zb / (nb * nb)
        d_c = -zc * inv
        row = g.m + h
        R[row, d * k:d * k + d] = -d_a - d_b
        R[row, d * i:d * i + d] = d_a + d_c
        R[row, d * j:d * j + d] = d_b - d_c
    return R


def loop_rhs(positions, g: Graph, target_values):
    vel = np.zeros((g.n, 2))
    errs = np.empty(g.m + g.q)
    for u, (i, j) in enumerate(g.edges):
        z = positions[i] - positions[j]
        e = float(z @ z) - target_values[u]
        errs[u] = e
        vel[i] -= 2.0 * e * z
        vel[j] += 2.0 * e * z
    for h, (k, i, j) in enumerate(g.angles):
        zu = positions[i] - positions[k]
        zv = positions[j] - positions[k]
        nu2 = float(zu @ zu)
        nv2 = float(zv @ zv)
        inv = 1.0 / math.sqrt(nu2 * nv2)
        c = float(zu @ zv) * inv
        e = max(-1.0, min(1.0, c)) - target_values[g.m + h]
        errs[g.m + h] = e
        gi = zv * inv - c * zu / nu2
        gj = zu * inv - c * zv / nv2
        vel[i] -= e * gi
        vel[j] -= e * gj
        vel[k] += e * (gi + gj)
    return vel, errs


def loop_simulate(positions, g: Graph, target_values, dt: float, steps: int):
    """Fixed-step RK4 on the reference right-hand side; positions and errors."""
    p = np.array(positions, float)
    states = [p]
    errs = [loop_rhs(p, g, target_values)[1]]
    for _ in range(steps):
        k1, _ = loop_rhs(p, g, target_values)
        k2, _ = loop_rhs(p + 0.5 * dt * k1, g, target_values)
        k3, _ = loop_rhs(p + 0.5 * dt * k2, g, target_values)
        k4, _ = loop_rhs(p + dt * k3, g, target_values)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(p)
        errs.append(loop_rhs(p, g, target_values)[1])
    return np.array(states), np.array(errs)


def loop_central_differences(func, positions, step: float) -> np.ndarray:
    """One gated ``func`` call per configuration stepped by ``+step``, then ``-step``."""
    def at(x):
        p = x.reshape(positions.shape)
        if collocated(p):
            raise CollocatedPoints("two vertex positions coincide")
        return func(p)

    x = positions.ravel()
    return np.column_stack([(at(x + h) - at(x - h)) / (2.0 * step) for h in np.eye(x.size) * step])


def reference_kernel(positions, cg, target_values=None, matrix=False):
    """The kernel body before its numpy calls were cut, to pin the new one's bits.

    Sums over the coordinate axis by ``np.add.reduce``, each ray's cosine
    gradient on its own, and the blocks joined by ``np.concatenate``; it
    reads one row index per block from ``cg.block_rows``.
    """
    m, q = cg.graph.m, cg.graph.q
    z = positions.take(cg.tails, axis=-2) - positions.take(cg.heads, axis=-2)
    sq = np.add.reduce(z * z, axis=-1)
    za, zb = z[..., m:m + q, :], z[..., m + q:, :]
    na2, nb2 = sq[..., m:m + q], sq[..., m + q:]
    inv = 1.0 / np.sqrt(na2 * nb2)
    cos = np.add.reduce(za * zb, axis=-1) * inv
    values = sq[..., :m + q].copy()
    np.minimum(np.maximum(cos, -1.0), 1.0, out=values[..., m:])
    if not matrix and target_values is None:
        return values, None, None
    inv, cos = inv[..., None], cos[..., None]
    g_i = zb * inv - za * cos / na2[..., None]
    g_j = za * inv - zb * cos / nb2[..., None]
    edge = 2.0 * z[..., :m, :]
    blocks = np.concatenate([edge, -edge, -(g_i + g_j), g_i, g_j], axis=-2)
    lead, size = positions.shape[:-2], positions.shape[-2] * positions.shape[-1]
    R = grad = None
    if matrix:
        R = np.zeros(lead + (m + q, size))
        R.reshape(lead + (-1,))[..., cg.block_entries] = blocks
    if target_values is not None:
        weights = blocks * (values - target_values).take(cg.block_rows[:, 0], axis=-1)[..., None]
        cols = cg.block_cols
        if lead:
            cols = cols + np.arange(0, positions.size, size).reshape(lead + (1, 1))
        grad = np.bincount(cols.ravel(), weights.ravel(), minlength=positions.size)
        grad = grad.reshape(positions.shape)
    return values, R, grad


# ---------------------------------------------------------------------------
# cases


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got - want)) <= REL_TOL * max(1.0, float(np.max(np.abs(want))))


def grown_frameworks():
    """Grown minimally rigid frameworks n = 4..30 from two growth runs."""
    seed = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)
    frameworks = []
    for rng_seed, mix in ((11, 0.5), (29, 0.2)):
        frameworks += grow_random(seed, steps=27, rng_seed=rng_seed, mix=mix).frameworks[1:]
    return frameworks


def split_frameworks(f: Framework):
    """``f`` itself plus its edge-only and angle-only parts (m = 0 or q = 0)."""
    g = f.graph
    parts = [f]
    if g.edges:
        parts.append(Framework(Graph(g.n, g.edges, ()), 2, f.positions))
    if g.angles:
        parts.append(Framework(Graph(g.n, (), g.angles), 2, f.positions))
    return parts


def off_target_values(f: Framework, rng) -> np.ndarray:
    """Targets near the framework's own values, cosines kept in [-1, 1]."""
    tv = weak_rigidity_function(f)
    tv[:f.graph.m] *= rng.uniform(0.8, 1.2, size=f.graph.m)
    tv[f.graph.m:] = np.clip(tv[f.graph.m:] + rng.uniform(-0.2, 0.2, size=f.graph.q), -1.0, 1.0)
    return tv


def target_spec(g: Graph, tv) -> TargetSpec:
    return TargetSpec(sq_distances=tuple(zip(g.edges, tv[:g.m])),
                      cosines=tuple(zip(g.angles, tv[g.m:])))


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(4242)
    out = []
    for f in grown_frameworks():
        for part in split_frameworks(f):
            out.append((part, off_target_values(part, rng)))
    return out


class TestKernelAgainstLoops:
    def test_case_mix(self, cases):
        ns = {f.graph.n for f, _ in cases}
        assert ns == set(range(4, 31))
        assert any(f.graph.m == 0 for f, _ in cases) and any(f.graph.q == 0 for f, _ in cases)

    def test_values(self, cases):
        for f, _ in cases:
            assert_close(weak_rigidity_function(f), loop_values(f.positions, f.graph))

    def test_weak_rigidity_matrix(self, cases):
        for f, _ in cases:
            R = weak_rigidity_matrix(f)
            assert_close(R.matrix, loop_matrix(f.positions, f.graph))
            assert R.row_labels == tuple(
                [("distance", e) for e in f.graph.edges] + [("cosine", a) for a in f.graph.angles])

    def test_gradient_flow(self, cases):
        for f, tv in cases:
            vel, errs = loop_rhs(f.positions, f.graph, tv)
            got_vel, got_errs = _rhs_generic(f.positions, compile_graph(f.graph), tv)
            assert_close(got_vel, vel)
            assert_close(got_errs, errs)
            assert_close(control_law(f, target_spec(f.graph, tv)), vel.ravel())
            R = loop_matrix(f.positions, f.graph)
            assert_close(got_vel.ravel(), -(R.T @ errs))

    def test_weak_rigidity_matrix_3d(self):
        rng = np.random.default_rng(4343)
        for f in grown_frameworks()[::3]:
            assert f.graph.m and f.graph.q
            pos = random_positions(rng, f.graph.n, dim=3)
            assert_close(weak_rigidity_matrix(Framework(f.graph, 3, pos)).matrix,
                         loop_matrix(pos, f.graph))

    def test_cosines_clamped(self):
        # Collinear rays whose unclamped cosine rounds to 1 + 2**-52, and its mirror.
        u = np.array([1.3040000451301372, 0.9470809631292422])
        s = 1.8590624786635572
        g = build_graph(4, angles=[(0, 1, 2), (0, 1, 3)])
        f = Framework(g, 2, np.array([[0.0, 0.0], u, s * u, -s * u]))
        assert list(weak_rigidity_function(f)) == [1.0, -1.0]
        assert list(_rhs_generic(f.positions, compile_graph(g), np.zeros(2))[1]) == [1.0, -1.0]

    def test_no_constraints(self):
        f = Framework(build_graph(3), 2, TRIANGLE_POS)
        assert weak_rigidity_function(f).shape == (0,)
        assert weak_rigidity_matrix(f).shape == (0, 6)

    def test_compiled_graph_is_cached(self):
        g = build_graph(4, edges=[(0, 1), (1, 2)], angles=[(3, 0, 2)])
        same = build_graph(4, edges=[(1, 0), (2, 1)], angles=[(3, 2, 0)])
        assert compile_graph(g) is compile_graph(same)


def perturbed_stack(positions, lead, rng):
    """``positions`` plus small independent perturbations, stacked over ``lead`` axes."""
    scale = 1e-2 * (1.0 + np.abs(positions).max())
    return positions + scale * rng.normal(size=lead + positions.shape)


class TestStackedKernel:
    """A stack of configurations gives, bit for bit, what each gives alone."""

    @staticmethod
    def assert_matches_single_calls(stack, cg, tv):
        lead = stack.shape[:-2]
        for matrix, targets in ((False, None), (True, None), (False, tv), (True, tv)):
            got = constraint_kernel(stack, cg, targets, matrix)
            for idx in np.ndindex(lead):
                want = constraint_kernel(np.array(stack[idx]), cg, targets, matrix)
                for part, single in zip(got, want):
                    if single is None:
                        assert part is None
                    else:
                        assert part.shape == lead + single.shape
                        assert np.array_equal(part[idx], single)

    @pytest.mark.parametrize("lead", [(1,), (5,), (3, 4)], ids=["B1", "B", "B1xB2"])
    def test_grown_2d(self, cases, lead):
        rng = np.random.default_rng(4545)
        for f, tv in cases[::5]:
            stack = perturbed_stack(f.positions, lead, rng)
            self.assert_matches_single_calls(stack, compile_graph(f.graph), tv)

    @pytest.mark.parametrize("lead", [(5,), (3, 4)], ids=["B", "B1xB2"])
    def test_3d(self, lead):
        rng = np.random.default_rng(4646)
        for f in grown_frameworks()[::4]:
            f3 = Framework(f.graph, 3, random_positions(rng, f.graph.n, dim=3))
            tv = off_target_values(f3, rng)
            stack = perturbed_stack(f3.positions, lead, rng)
            self.assert_matches_single_calls(stack, compile_graph(f.graph, 3), tv)

    def test_cosines_rounded_past_one_are_clamped(self):
        # The collinear rays of TestKernelAgainstLoops.test_cosines_clamped, in a stack.
        u = np.array([1.3040000451301372, 0.9470809631292422])
        s = 1.8590624786635572
        positions = np.array([[0.0, 0.0], u, s * u, -s * u])
        za, zb = u, s * u
        assert np.add.reduce(za * zb) / np.sqrt(np.add.reduce(za * za) * np.add.reduce(zb * zb)) > 1.0
        cg = compile_graph(build_graph(4, angles=[(0, 1, 2), (0, 1, 3)]))
        stack = np.stack([positions, 2.0 * positions, positions + 1.0])
        self.assert_matches_single_calls(stack, cg, np.zeros(2))
        values = constraint_kernel(stack, cg)[0]
        assert np.array_equal(values[0], [1.0, -1.0])
        assert np.abs(values).max() == 1.0

    def test_no_constraints(self):
        stack = np.stack([TRIANGLE_POS, TRIANGLE_POS + 1.0])
        values, R, grad = constraint_kernel(stack, compile_graph(build_graph(3)), np.zeros(0), True)
        assert values.shape == (2, 0) and R.shape == (2, 0, 6)
        assert np.array_equal(grad, np.zeros((2, 3, 2)))


class TestKernelBitsAgainstReference:
    """The kernel gives the reference kernel's bits, signed zeros included."""

    @staticmethod
    def assert_same_bits(positions, cg, tv):
        for matrix, targets in ((False, None), (True, tv)):
            got = constraint_kernel(positions, cg, targets, matrix)
            want = reference_kernel(positions, cg, targets, matrix)
            assert (got[1] is None) == (want[1] is None) and (got[2] is None) == (want[2] is None)
            for part, ref in zip(got, want):
                if ref is not None:
                    assert np.array_equal(part, ref)
                    assert np.array_equal(np.signbit(part), np.signbit(ref))

    @staticmethod
    def configurations(f, rng):
        """``f``'s positions and its 3D lift at three scales, offset, single and stacked."""
        lifted = np.column_stack([f.positions, rng.uniform(-1.0, 1.0, f.graph.n)])
        for p in (f.positions, lifted):
            for scale in (1e-3, 1.0, 1e4):
                moved = scale * (p + rng.normal(size=p.shape[-1]))
                yield moved
                for lead in ((5,), (3, 4)):
                    yield perturbed_stack(moved, lead, rng)

    def test_grown_frameworks_and_their_parts(self, cases):
        rng = np.random.default_rng(4848)
        for f, tv in cases:
            for p in self.configurations(f, rng):
                cg = compile_graph(f.graph, p.shape[-1])
                self.assert_same_bits(p, cg, tv * rng.uniform(0.5, 1.5))

    def test_signed_zeros(self):
        # Axis-aligned sides: the right angle at vertex 0 has the ray products
        # (-0.0, -0.0), and zero coordinates of both signs reach every block.
        # In the lift its ray tips' gradients have z = +0.0 and -0.0.
        g = build_graph(4, edges=[(0, 1), (2, 3)], angles=[(0, 1, 2), (1, 0, 3), (3, 1, 2)])
        p = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, -0.0], [-0.0, 0.0]])
        lifted = np.column_stack([p, [0.0, -0.0, 0.0, -0.0]])
        for positions in (p, -p, p[:, ::-1], np.stack([p, -p, p[:, ::-1]]),
                          lifted, np.stack([lifted, -lifted])):
            self.assert_same_bits(positions, compile_graph(g, positions.shape[-1]), np.zeros(5))
        R = constraint_kernel(lifted, compile_graph(g, 3), matrix=True)[1]
        assert np.signbit(R[R == 0.0]).any()


class TestCentralDifferencesAgainstLoop:
    def test_weak_rigidity_matrix(self, cases):
        for f, _ in cases[::3]:
            cg = compile_graph(f.graph)
            want = loop_central_differences(lambda p: constraint_kernel(p, cg)[0], f.positions, 1e-6)
            assert np.array_equal(finite_difference_weak_rigidity_matrix(f), want)

    def test_weak_rigidity_matrix_3d(self):
        rng = np.random.default_rng(4747)
        for f in grown_frameworks()[::4]:
            f3 = Framework(f.graph, 3, random_positions(rng, f.graph.n, dim=3))
            cg = compile_graph(f.graph, 3)
            want = loop_central_differences(lambda p: constraint_kernel(p, cg)[0], f3.positions, 1e-5)
            assert np.array_equal(finite_difference_weak_rigidity_matrix(f3, step=1e-5), want)

    def test_flow_jacobian(self, cases):
        for f, tv in cases[::3]:
            t = target_spec(f.graph, tv)
            cg, values = compile_graph(f.graph), t.values()
            want = loop_central_differences(
                lambda p: constraint_kernel(p, cg, values)[2].ravel(), f.positions, 1e-6)
            assert np.array_equal(flow_jacobian(f, t), want)


class TestOneKernelCallPerJacobian:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return constraint_kernel(*args, **kwargs)

        # flow_jacobian reaches the kernel through formation's name for it.
        monkeypatch.setattr(rigidity, "constraint_kernel", counted)
        monkeypatch.setattr(formation, "constraint_kernel", counted)
        return calls

    def test_finite_difference_weak_rigidity_matrix(self, cases, kernel_calls):
        f = next(f for f, _ in cases if f.graph.n == 12)
        finite_difference_weak_rigidity_matrix(f)
        assert kernel_calls == [(48, 12, 2)]

    def test_flow_jacobian(self, kernel_calls):
        f = Framework(canonical_three_agent_graph(), 2, TRIANGLE_POS)
        flow_jacobian(f, target_spec(f.graph, np.array(BENCH_TARGETS)))
        assert kernel_calls == [(12, 3, 2)]


class TestGenericTraceAgainstLoops:
    def test_traces_match(self, cases):
        rng = np.random.default_rng(4444)
        steps = 30
        for f, _ in cases[::7]:
            g = f.graph
            tv = weak_rigidity_function(f)
            sep = min(np.linalg.norm(f.positions[i] - f.positions[j])
                      for i in range(g.n) for j in range(i + 1, g.n))
            start = f.positions + 0.05 * sep * rng.normal(size=f.positions.shape)
            R = loop_matrix(start, g)
            dt = min(1e-2, 1.0 / float(np.linalg.norm(R, 2)) ** 2)
            cfg = SimulationConfig(dt=dt, t_max=steps * dt, convergence_eps=0.0)
            trace = simulate(f.with_positions(start), target_spec(g, tv), cfg)
            states, errs = loop_simulate(start, g, tv, dt, steps)
            assert trace.terminal_status == "max-time"
            assert_close(trace.positions, states)
            assert_close(trace.errors, errs)


class TestRhsCallsPerStep:
    @pytest.mark.parametrize("rhs_name, graph", [
        ("_rhs_canonical", canonical_three_agent_graph()),
        ("_rhs_generic", build_graph(3, edges=[(0, 1), (0, 2), (1, 2)], angles=[(0, 1, 2)])),
    ], ids=["canonical", "generic"])
    def test_four_calls_per_step(self, monkeypatch, rhs_name, graph):
        calls = []
        rhs = getattr(formation, rhs_name)
        monkeypatch.setattr(formation, rhs_name, lambda *args: calls.append(1) or rhs(*args))
        f0 = Framework(graph, 2, np.array([[-3.0, 0.0], [1.0, 1.0], [-1.0, -3.0]]))
        tv = np.array([8.0, 9.0, 10.0][:graph.m] + [BENCH_TARGETS[2]])
        trace = simulate(f0, target_spec(graph, tv), SimulationConfig(dt=1e-3, t_max=0.25))
        steps = len(trace) - 1
        assert trace.terminal_status == "max-time" and steps == 250
        assert len(calls) == 4 * steps + 1


class TestOneCompilePerRun:
    def test_generic_run_compiles_its_graph_once(self, monkeypatch):
        calls = []
        original = rigidity.compile_graph

        def counted(*args):
            calls.append(args)
            return original(*args)

        # The flow may reach the compiler through either module's name.
        monkeypatch.setattr(rigidity, "compile_graph", counted)
        monkeypatch.setattr(formation, "compile_graph", counted, raising=False)
        g = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)], angles=[(0, 1, 2)])
        f0 = Framework(g, 2, np.array([[-3.0, 0.0], [1.0, 1.0], [-1.0, -3.0]]))
        tv = np.array([8.0, 9.0, 10.0, BENCH_TARGETS[2]])
        trace = simulate(f0, target_spec(g, tv), SimulationConfig(dt=1e-3, t_max=0.01))
        assert trace.terminal_status == "max-time" and len(trace) - 1 == 10
        assert len(calls) == 1


class TestCollocationChecks:
    def test_coincident_angle(self):
        # A hand-built graph skips build_graph's repeated-vertex check, so the
        # angle's two ray tips coincide although the framework is valid.
        f = Framework(Graph(3, (), ((0, 1, 1),)), 2, TRIANGLE_POS)
        with pytest.raises(CollocatedPoints, match=r"angle \(0,1,1\)"):
            weak_rigidity_function(f)
        with pytest.raises(CollocatedPoints, match=r"angle \(0,1,1\)"):
            weak_rigidity_matrix(f)
        with pytest.raises(CollocatedPoints):
            finite_difference_weak_rigidity_matrix(f)

    def test_finite_difference_step_onto_a_neighbour(self):
        close = np.array([[0.0, 0.0], [1e-6, 0.0], [0.0, 1.0]])
        f = Framework(canonical_three_agent_graph(), 2, close)
        with pytest.raises(CollocatedPoints, match="coincide"):
            finite_difference_weak_rigidity_matrix(f, step=1e-6)
        t = target_spec(f.graph, np.array(BENCH_TARGETS))
        with pytest.raises(CollocatedPoints, match="coincide"):
            flow_jacobian(f, t, fd_step=1e-6)

    @pytest.fixture
    def gate_results(self, monkeypatch):
        results = []

        def recorded(p):
            results.append(collocated(p))
            return results[-1]

        monkeypatch.setattr(rigidity, "collocated", recorded)
        return results

    def test_well_separated_points_skip_the_per_step_test(self, gate_results):
        f = Framework(canonical_three_agent_graph(), 2, TRIANGLE_POS)
        finite_difference_weak_rigidity_matrix(f, step=1e-6)
        assert gate_results == []

    def test_close_points_are_tested_step_by_step(self, gate_results):
        # 1.5 steps apart: too close for the separation bound, yet no step
        # brings the two points within the collocation tolerance.
        close = np.array([[0.0, 0.0], [1.5e-6, 0.0], [0.0, 1.0]])
        f = Framework(canonical_three_agent_graph(), 2, close)
        cg = compile_graph(f.graph)
        want = loop_central_differences(lambda p: constraint_kernel(p, cg)[0], close, 1e-6)
        assert np.array_equal(finite_difference_weak_rigidity_matrix(f, step=1e-6), want)
        assert gate_results == [False] * 12

    def test_one_colliding_step_raises(self, gate_results):
        # Stepping vertex 2 down by 1e5 leaves it 9.5e-4 from vertex 1, under
        # that configuration's tolerance 1e-9 * (1 + 1e6).  The mirror step,
        # vertex 1 up, gives the same gap, but its largest coordinate is 9e5,
        # so its tolerance is 9.0e-4 and it is not collocated.  The colliding
        # step is the last of the twelve.
        pos = np.array([[1.0, 0.0], [0.0, -1e6], [0.0, -1e6 + 1e5 + 9.5e-4]])
        f = Framework(canonical_three_agent_graph(), 2, pos)
        with pytest.raises(CollocatedPoints, match="coincide"):
            finite_difference_weak_rigidity_matrix(f, step=1e5)
        assert gate_results == [False] * 11 + [True]
        with pytest.raises(CollocatedPoints, match="coincide"):
            loop_central_differences(lambda p: p, pos, 1e5)
