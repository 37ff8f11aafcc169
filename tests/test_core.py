"""Graph model, induced graphs, geometric primitives."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weakrig import (
    CollocatedPoints,
    DegenerateAngleTriple,
    DuplicateConstraint,
    Framework,
    Graph,
    IndexOutOfRange,
    SelfLoop,
    SimulationConfig,
    TargetSpec,
    build_graph,
    canonical_targets,
    canonical_three_agent_graph,
    error_vector,
    grow_random,
    induced_distance_closure,
    simulate,
    weak_rigidity_function,
    weak_rigidity_matrix,
    weakly_rigid_0_extension,
)
from weakrig.core import (COLLOCATION_REL_TOL, angle_key, collocation_tolerance,
                          collocation_tolerance_at, coordinate_dot, edge_key, min_separation,
                          vector_norm)
from weakrig.rigidity import compile_graph

from conftest import BENCH_TARGETS, TRIANGLE_POS, random_framework, random_positions


class TestBuildGraph:
    def test_k3(self):
        g = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        assert g.m == 3 and g.q == 0

    def test_two_edges_one_angle(self):
        g = build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])
        assert g.m == 2 and g.q == 1

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(3, edges=[(1, 1)])

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(DuplicateConstraint):
            build_graph(3, edges=[(0, 1), (1, 0)])

    def test_duplicate_angle_with_swapped_targets(self):
        with pytest.raises(DuplicateConstraint):
            build_graph(3, angles=[(0, 1, 2), (0, 2, 1)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(3, edges=[(0, 3)])
        with pytest.raises(IndexOutOfRange):
            build_graph(3, angles=[(0, 1, 5)])

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateAngleTriple):
            build_graph(3, angles=[(0, 0, 2)])

    def test_normalization(self):
        g = build_graph(4, edges=[(2, 0)], angles=[(1, 3, 0)])
        assert g.edges == ((0, 2),)
        assert g.angles == ((1, 0, 3),)

    def test_key_helpers(self):
        assert edge_key(2, 0) == edge_key(0, 2) == (0, 2)
        assert angle_key(1, 3, 0) == angle_key(1, 0, 3) == (1, 0, 3)
        with pytest.raises(TypeError):
            edge_key(0, 1, 2)
        with pytest.raises(TypeError):
            angle_key(0, 1)
        with pytest.raises(TypeError):  # an entry of the wrong length
            TargetSpec(sq_distances=(((0, 1, 2), 4.0),))
        with pytest.raises(TypeError):
            TargetSpec(cosines=(((0, 1), 0.5),))


class TestInducedGraphs:
    def test_angle_support_of_triangle_with_angle(self):
        g = build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])
        gbar = induced_distance_closure(g)
        assert gbar.edges == ((0, 1), (0, 2), (1, 2))
        assert gbar.angles == ()

    def test_angle_support_with_no_edges(self):
        g = build_graph(3, angles=[(0, 1, 2)])
        assert induced_distance_closure(g).edges == ((0, 1), (0, 2), (1, 2))

    def test_angle_support_no_angles_is_identity(self):
        g = build_graph(3, edges=[(1, 2), (0, 1), (0, 2)])
        assert induced_distance_closure(g) == g

    def test_angle_support_keeps_original_edge_order(self):
        g = build_graph(4, edges=[(2, 3), (0, 1)], angles=[(0, 2, 3)])
        gbar = induced_distance_closure(g)
        assert gbar.edges[:2] == ((2, 3), (0, 1))
        assert gbar.edges[2:] == ((0, 2), (0, 3))  # new edges sorted

    def test_angle_support_superset(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_framework(rng)
            gbar = induced_distance_closure(f.graph)
            assert set(gbar.edges) >= set(f.graph.edges)
            assert gbar.edges[:f.graph.m] == f.graph.edges

    def test_distance_closure_of_constrained_tetrahedron(self):
        g = build_graph(4, edges=[(0, 1), (0, 2), (0, 3)],
                        angles=[(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        gbar = induced_distance_closure(g)
        assert set(gbar.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert gbar.angles == ()

    def test_distance_closure_of_k3(self):
        g = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        assert induced_distance_closure(g).edges == g.edges

    def test_distance_closure_angle_only(self):
        g = build_graph(3, angles=[(0, 1, 2)])
        gbar = induced_distance_closure(g)
        assert set(gbar.edges) == {(0, 1), (0, 2), (1, 2)}
        assert gbar.angles == ()


def _cosine(positions, triple) -> float:
    """The kernel's cosine of one angle, on a graph with only that angle."""
    f = Framework(Graph(len(positions), (), (triple,)), 2, positions)
    return float(weak_rigidity_function(f)[0])


class TestCosine:
    def test_equilateral(self):
        assert _cosine(TRIANGLE_POS, (0, 1, 2)) == pytest.approx(0.5, abs=1e-4)

    def test_opposite_rays(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert _cosine(pos, (0, 1, 2)) == -1.0

    def test_aligned_rays(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert _cosine(pos, (0, 1, 2)) == 1.0

    def test_collocated(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(CollocatedPoints):
            _cosine(pos, (0, 1, 1))

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pos = random_positions(rng, 3)
            c0 = _cosine(pos, (0, 1, 2))
            theta = rng.uniform(0, 2 * np.pi)
            Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            scale = rng.uniform(0.2, 5.0)
            shift = rng.normal(size=2)
            assert _cosine(scale * pos @ Q.T + shift, (0, 1, 2)) == pytest.approx(c0, abs=1e-12)


class TestEdgeVectors:
    """Distance rows of R_W are twice the edge vectors ``z_u = p_i - p_j``, ``i < j``."""

    def test_orientation(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        f = Framework(build_graph(2, edges=[(0, 1)]), 2, pos)
        assert np.array_equal(weak_rigidity_matrix(f).matrix, [[-6.0, -8.0, 6.0, 8.0]])

    def test_matches_incidence_lift(self):
        # With the oriented incidence matrix H (-1 at the tail i, +1 at the
        # head j), the stacked edge vectors are -(H (x) I) p and the distance
        # rows are 2 diag(z_u^T) times that lift's negative.
        g = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        f = Framework(g, 2, TRIANGLE_POS)
        H = np.zeros((g.m, g.n))
        for u, (i, j) in enumerate(g.edges):
            H[u, i], H[u, j] = -1.0, 1.0
        lift = np.kron(H, np.eye(2))
        z = -(lift @ f.config()).reshape(g.m, 2)
        rows = np.stack([2.0 * z[u] @ -lift[2 * u:2 * u + 2] for u in range(g.m)])
        assert np.allclose(weak_rigidity_matrix(f).matrix, rows, atol=1e-15)

    def test_translation_invariance(self):
        g = build_graph(3, edges=[(0, 1), (1, 2)])
        f = Framework(g, 2, TRIANGLE_POS)
        shifted = Framework(g, 2, TRIANGLE_POS + np.array([5.0, -7.0]))
        assert np.allclose(weak_rigidity_matrix(f).matrix, weak_rigidity_matrix(shifted).matrix)


class TestFramework:
    def test_collocation_rejected(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(CollocatedPoints):
            Framework(build_graph(3), 2, pos)

    def test_positions_read_only(self):
        f = Framework(build_graph(3), 2, TRIANGLE_POS.copy())
        with pytest.raises(ValueError):
            f.positions[0, 0] = 9.9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Framework(build_graph(3), 2, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Framework(build_graph(3), 5, np.zeros((3, 5)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_positions_rejected(self, bad):
        k3 = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)
        with pytest.raises(ValueError, match="^positions must be finite$"):
            Framework(k3.graph, 2, [[bad, 0.0], [0.0, 1.0], [0.0, -1.0]])
        moved = TRIANGLE_POS.copy()
        moved[1, 1] = bad
        with pytest.raises(ValueError, match="^positions must be finite$"):
            k3.with_positions(moved)
        with pytest.raises(ValueError, match="^positions must be finite$"):
            weakly_rigid_0_extension(k3, 1, 2, (bad, 0.0))


class TestEquality:
    """``==`` answers on every record that holds an array, never numpy's "ambiguous" error."""

    def test_framework_compares_and_hashes_by_value(self):
        k3 = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        a, b = Framework(k3, 2, TRIANGLE_POS), Framework(k3, 2, TRIANGLE_POS.copy())
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.with_positions(TRIANGLE_POS + 0.5)
        assert a != Framework(build_graph(3, edges=[(0, 1), (1, 2), (0, 2)]), 2, TRIANGLE_POS)
        assert a != Framework(k3, 3, np.column_stack([TRIANGLE_POS, np.zeros(3)]))
        assert a != TRIANGLE_POS.tolist()
        # A growth result holds frameworks, so two equal growths compare equal.
        assert grow_random(a, steps=5, rng_seed=2) == grow_random(b, steps=5, rng_seed=2)

    def test_array_records_compare_by_identity(self):
        f = Framework(canonical_three_agent_graph(), 2, TRIANGLE_POS)
        t = canonical_targets(*BENCH_TARGETS)
        cfg = SimulationConfig(t_max=0.01)
        for make in (lambda: error_vector(f, t), lambda: weak_rigidity_matrix(f),
                     lambda: compile_graph.__wrapped__(f.graph), lambda: simulate(f, t, cfg)):
            one, other = make(), make()
            assert one == one and one != other


class TestMinSeparation:
    @staticmethod
    def pairwise_loop(pos):
        n = pos.shape[0]
        best = math.inf
        for i in range(n):
            for j in range(i + 1, n):
                best = min(best, float(np.linalg.norm(pos[i] - pos[j])))
        return best

    def test_single_point_is_infinitely_separated(self):
        assert min_separation(np.array([[1.0, 2.0]])) == math.inf

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            n = int(rng.integers(2, 25))
            pos = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, int(rng.integers(2, 4))))
            if trial % 3 == 0:
                pos[int(rng.integers(1, n))] = pos[0]
            expected = self.pairwise_loop(pos)
            got = min_separation(pos)
            if expected == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(expected, rel=4 * np.finfo(float).eps)


# signed zeros and small integers often enough that some dot products are all -0.0 terms
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e100, 1e100))


@st.composite
def _operands(draw):
    shape = draw(st.sampled_from([(), (3,), (2, 4)])) + (draw(st.sampled_from([2, 3])),)
    a = draw(arrays(np.float64, shape, elements=_ENTRIES))
    return a, a if draw(st.booleans()) else draw(arrays(np.float64, shape, elements=_ENTRIES))


class TestCoordinateDot:
    @settings(max_examples=300, deadline=None)
    @given(_operands())
    def test_bits_of_the_reduction(self, operands):
        a, b = operands
        got, want = coordinate_dot(a, b), np.add.reduce(a * b, axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCollocationTolerance:
    def test_method_form_matches_function_form(self):
        # collocation_tolerance reads max|p| as np.abs(p).max(initial=0.0), the
        # cheaper spelling of np.max(np.abs(p), initial=0.0); both must agree.
        rng = np.random.default_rng(41)
        cases = [rng.normal(scale=10.0 ** rng.uniform(-6, 6), size=(int(rng.integers(1, 30)), d))
                 for d in (2, 3) for _ in range(100)]
        cases += [np.zeros((0, 2)), np.zeros((0, 3)), np.array([[0.0, -0.0], [-0.0, 0.0]]),
                  np.array([[-0.0, -0.0, -0.0]]), np.array([[-0.0, 2.5], [-3.0, 0.0]])]
        for p in cases:
            want = COLLOCATION_REL_TOL * (1.0 + float(np.max(np.abs(p), initial=0.0)))
            assert float(np.abs(p).max(initial=0.0)) == float(np.max(np.abs(p), initial=0.0))
            assert collocation_tolerance(p) == want
            # the flow's loop computes max|p| over the state's Python floats
            assert collocation_tolerance_at(max(map(abs, p.ravel().tolist()), default=0.0)) == want


class TestVectorNorm:
    def test_within_one_ulp_of_a_300_bit_reference(self):
        rng = np.random.default_rng(43)
        with mpmath.workprec(300):
            for _ in range(2000):
                v = rng.normal(size=int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-150, 150)
                want = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in v.tolist()))
                got = vector_norm(v)
                assert abs(mpmath.mpf(got) - want) <= math.ulp(float(want))

    def test_overflow_free(self):
        got = vector_norm(np.array([6e168, -3e168, 0.75]))
        assert got == pytest.approx(1e168 * math.sqrt(45.0), rel=1e-15)
        assert vector_norm(np.array([[1e300, 1e300], [1e-300, 0.0]])) == pytest.approx(
            math.sqrt(2.0) * 1e300, rel=1e-15)

    def test_infinite_and_nan_entries_stay_non_finite(self):
        assert vector_norm(np.array([np.inf, 1.0])) == math.inf
        assert vector_norm(np.array([np.nan, np.inf])) == math.inf
        assert math.isnan(vector_norm(np.array([np.nan, 1e200])))

    def test_empty_vector_is_zero(self):
        assert vector_norm(np.zeros(0)) == 0.0 and vector_norm(()) == 0.0
