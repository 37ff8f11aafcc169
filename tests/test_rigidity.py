"""Weak rigidity matrix, rank classification in 2D and 3D, minimality."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakrig import (
    CollocatedPoints,
    DegenerateConfiguration,
    EmptyEdgeSet,
    Framework,
    Graph,
    MinimalityResult,
    RigidityReport,
    build_graph,
    classify_infinitesimal_weak_rigidity,
    classify_weak_rigidity_3d,
    cosine_edge_partials,
    finite_difference_weak_rigidity_matrix,
    grow_random,
    induced_distance_closure,
    is_minimally_weakly_rigid,
    numerical_rank,
    trivial_motion_basis,
    weak_rigidity_function,
    weak_rigidity_matrix,
)
from weakrig.rigidity import rigid_motions

from conftest import (
    RHOMBUS_POS,
    TRIANGLE_POS,
    exact_rank,
    full_svd_minimality,
    random_framework,
    random_positions,
    rhombus_framework,
    spare_edge_framework,
)


def lift(f: Framework, rng) -> Framework:
    """``f``'s graph at random 3D positions."""
    return Framework(f.graph, 3, random_positions(rng, f.graph.n, dim=3))


def cosine_row_blocks(positions, triple=(0, 1, 2)):
    """Apex and ray-tip blocks of the cosine row of ``R_W`` on a one-angle framework."""
    f = Framework(build_graph(len(positions), angles=[triple]), 2, positions)
    row = weak_rigidity_matrix(f).matrix[0].reshape(-1, 2)
    return tuple(row[list(triple)])


class TestWeakRigidityFunction:
    def test_triangle_two_edges_one_angle(self, triangle_two_edges_one_angle):
        vals = weak_rigidity_function(triangle_two_edges_one_angle)
        assert vals == pytest.approx([4.0, 4.0, 0.5], abs=2e-4)

    def test_angle_only(self):
        f = Framework(build_graph(3, angles=[(0, 1, 2)]), 2, TRIANGLE_POS)
        vals = weak_rigidity_function(f)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(0.5, abs=2e-4)

    def test_scaling_homogeneity(self, triangle_two_edges_one_angle):
        f = triangle_two_edges_one_angle
        doubled = f.with_positions(2.0 * f.positions)
        v1 = weak_rigidity_function(f)
        v2 = weak_rigidity_function(doubled)
        m = f.graph.m
        assert np.allclose(v2[:m], 4.0 * v1[:m], rtol=1e-12)
        assert np.allclose(v2[m:], v1[m:], rtol=1e-12)


class TestCosineGradients:
    def test_contraction_identities(self):
        # The three contractions of the cosine partials against their own
        # edge vectors have closed forms in the squared side lengths.
        rng = np.random.default_rng(17)
        for _ in range(100):
            pos = random_positions(rng, 3)
            za = pos[1] - pos[0]
            zb = pos[2] - pos[0]
            zc = za - zb
            d_a, d_b, d_c = cosine_edge_partials(za, zb, zc)
            na, nb, nc = (float(v @ v) for v in (za, zb, zc))
            denom = 2.0 * np.sqrt(na * nb)
            assert float(d_a @ za) == pytest.approx((na - nb + nc) / denom, rel=1e-10)
            assert float(d_b @ zb) == pytest.approx((-na + nb + nc) / denom, rel=1e-10)
            assert float(d_c @ zc) == pytest.approx(-nc / (denom / 2.0), rel=1e-10)

    def test_blocks_sum_to_zero(self):
        g_k, g_i, g_j = cosine_row_blocks(TRIANGLE_POS)
        assert np.allclose(g_k + g_i + g_j, 0.0, atol=1e-14)

    def test_rotation_and_scaling_annihilation(self):
        rng = np.random.default_rng(29)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        for _ in range(50):
            pos = random_positions(rng, 3)
            blocks = cosine_row_blocks(pos)
            rot = sum(float(b @ (J @ p)) for b, p in zip(blocks, pos))
            scale = sum(float(b @ p) for b, p in zip(blocks, pos))
            assert abs(rot) < 1e-12
            assert abs(scale) < 1e-12


class TestWeakRigidityMatrix:
    def test_three_agent_structure(self, bench_initial):
        f = bench_initial
        R = weak_rigidity_matrix(f)
        z01 = f.positions[0] - f.positions[1]
        z02 = f.positions[0] - f.positions[2]
        assert np.allclose(R.matrix[0], np.concatenate([2 * z01, -2 * z01, [0, 0]]))
        assert np.allclose(R.matrix[1], np.concatenate([2 * z02, [0, 0], -2 * z02]))
        g_k, g_i, g_j = cosine_row_blocks(f.positions)
        assert np.allclose(R.matrix[2], np.concatenate([g_k, g_i, g_j]))
        assert R.row_labels == (
            ("distance", (0, 1)), ("distance", (0, 2)), ("cosine", (0, 1, 2)),
        )

    def test_translations_in_null_space(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            f = random_framework(rng)
            R = weak_rigidity_matrix(f).matrix
            n = f.graph.n
            for t in (np.tile([1.0, 0.0], n), np.tile([0.0, 1.0], n)):
                assert np.max(np.abs(R @ t)) < 1e-9 * max(1.0, np.max(np.abs(R)))

    def test_cosine_rows_annihilate_configuration(self):
        # Scale invariance of cosines holds row-wise even when distance
        # edges are present.
        f = rhombus_framework("c")
        R = weak_rigidity_matrix(f)
        p = f.config()
        for row, (kind, _) in zip(R.matrix, R.row_labels):
            if kind == "cosine":
                assert abs(float(row @ p)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            f = random_framework(rng)
            analytic = weak_rigidity_matrix(f).matrix
            fd = finite_difference_weak_rigidity_matrix(f, step=1e-6)
            assert np.max(np.abs(analytic - fd)) < 1e-6

    def test_matches_finite_differences_3d(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            f = lift(random_framework(rng), rng)
            analytic = weak_rigidity_matrix(f).matrix
            assert analytic.shape == (f.graph.constraint_count, 3 * f.graph.n)
            fd = finite_difference_weak_rigidity_matrix(f, step=1e-6)
            assert np.max(np.abs(analytic - fd)) < 1e-6


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_proportional_rows(self):
        assert numerical_rank(np.array([[1.0, 0.0], [2.0, 0.0]])) == 1


class TestTrivialMotionBasis:
    def test_three_columns_with_edges(self, triangle_k3):
        basis = trivial_motion_basis(triangle_k3)
        assert basis.shape == (6, 3)  # no scaling column

    def test_four_columns_without_edges(self):
        f = rhombus_framework("f")
        basis = trivial_motion_basis(f)
        assert basis.shape == (8, 4)
        assert np.array_equal(basis[:, 3], f.config())
        assert numerical_rank(basis) == 4

    def test_rotation_column_is_perpendicular_field(self):
        pos = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, 0.5]])
        f = Framework(build_graph(3, edges=[(0, 1)]), 2, pos)
        rot = trivial_motion_basis(f)[:, 2]
        assert np.allclose(rot[0:2], [0.0, 1.0])  # J acting on (1, 0)
        assert np.allclose(rot, np.column_stack([-pos[:, 1], pos[:, 0]]).ravel())

    def test_degenerate_at_origin(self):
        f = Framework(build_graph(1), 2, np.zeros((1, 2)))
        with pytest.raises(DegenerateConfiguration):
            trivial_motion_basis(f)


class TestClassify2D:
    def test_rhombus_five_edges(self):
        report = classify_infinitesimal_weak_rigidity(rhombus_framework("a"))
        assert report.rigid and report.rank == 5 and report.required_rank == 5
        assert report.null_space_dim == 3
        assert report.trivial_motion_residual < 1e-9

    def test_rhombus_five_angles(self):
        report = classify_infinitesimal_weak_rigidity(rhombus_framework("f"))
        assert report.rigid and report.rank == 4 and report.required_rank == 4
        assert report.null_space_dim == 4

    def test_two_edge_path_is_flexible(self):
        rng = np.random.default_rng(5)
        f = Framework(build_graph(3, edges=[(0, 1), (1, 2)]), 2, random_positions(rng, 3))
        report = classify_infinitesimal_weak_rigidity(f)
        assert not report.rigid and report.rank == 2 and report.required_rank == 3

    def test_no_constraints_at_all(self):
        f = Framework(build_graph(4), 2, RHOMBUS_POS)
        for test in (classify_infinitesimal_weak_rigidity, is_minimally_weakly_rigid):
            with pytest.raises(EmptyEdgeSet, match="framework has no constraints at all"):
                test(f)

    def test_collinear_configuration_rejected(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        f = Framework(build_graph(3, edges=[(0, 1), (1, 2), (0, 2)]), 2, pos)
        for test in (classify_infinitesimal_weak_rigidity, is_minimally_weakly_rigid):
            with pytest.raises(DegenerateConfiguration, match="collinear"):
                test(f)

    def test_rank_invariant_under_rigid_motion(self):
        rng = np.random.default_rng(61)
        f = rhombus_framework("c")
        base_rank = numerical_rank(weak_rigidity_matrix(f).matrix)
        for _ in range(50):
            theta = rng.uniform(0.0, 2 * np.pi)
            Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            moved = f.with_positions(f.positions @ Q.T + rng.normal(size=2))
            assert numerical_rank(weak_rigidity_matrix(moved).matrix) == base_rank

    def test_rank_upper_bounds(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            f = random_framework(rng)
            rank = numerical_rank(weak_rigidity_matrix(f).matrix)
            bound = 2 * f.graph.n - (3 if f.graph.m else 4)
            assert rank <= bound


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TETRA_POS = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
TRIANGLE_3D_POS = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])


def classical_distance_rank(f: Framework) -> int:
    """Rank of the distance rigidity matrix, row ``z`` at ``i`` and ``-z`` at ``j`` per edge."""
    d = f.dim
    R = np.zeros((f.graph.m, d * f.graph.n))
    for u, (i, j) in enumerate(f.graph.edges):
        z = f.positions[i] - f.positions[j]
        R[u, d * i:d * i + d], R[u, d * j:d * j + d] = z, -z
    return numerical_rank(R)


class TestDistanceRigidity3D:
    def test_single_edge_row(self):
        g = build_graph(2, edges=[(0, 1)])
        f = Framework(g, 3, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        R = weak_rigidity_matrix(f).matrix
        assert np.array_equal(R, [[-2.0, 0.0, 0.0, 2.0, 0.0, 0.0]])

    def test_k4_tetrahedron_rank(self):
        f = Framework(build_graph(4, edges=K4_EDGES), 3, TETRA_POS)
        assert numerical_rank(weak_rigidity_matrix(f).matrix) == 6

    def test_translations_annihilated(self):
        rng = np.random.default_rng(71)
        g = build_graph(4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        f = Framework(g, 3, random_positions(rng, 4, dim=3))
        R = weak_rigidity_matrix(f).matrix
        for axis in range(3):
            t = np.zeros((4, 3))
            t[:, axis] = 1.0
            assert np.max(np.abs(R @ t.ravel())) < 1e-12


class TestClassify3D:
    def test_constrained_tetrahedron(self, tetra_mixed_3d):
        assert set(induced_distance_closure(tetra_mixed_3d.graph).edges) == set(K4_EDGES)
        report = classify_weak_rigidity_3d(tetra_mixed_3d)
        assert report.rigid and report.rank == 6 and report.required_rank == 6
        assert report.verdict == "infinitesimally weakly rigid"
        assert report == classify_infinitesimal_weak_rigidity(tetra_mixed_3d)

    def test_full_distance_k4(self):
        f = Framework(build_graph(4, edges=K4_EDGES), 3, TETRA_POS)
        assert classify_weak_rigidity_3d(f).rigid

    def test_path_graph_fails(self):
        rng = np.random.default_rng(73)
        g = build_graph(4, edges=[(0, 1), (1, 2), (2, 3)])
        report = classify_weak_rigidity_3d(Framework(g, 3, random_positions(rng, 4, dim=3)))
        assert not report.rigid and report.rank < 6
        assert report.verdict == "not infinitesimally weakly rigid"

    def test_reduces_to_plain_test_without_angles(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            edges = [K4_EDGES[t] for t in rng.choice(6, size=m, replace=False)]
            g = build_graph(4, edges=edges)
            f = Framework(g, 3, random_positions(rng, 4, dim=3))
            report = classify_weak_rigidity_3d(f)
            assert report.rank == classical_distance_rank(f)
            assert report.rigid == (report.rank == 3 * 4 - 6)

    def test_no_constraints_at_all(self):
        f = Framework(build_graph(3), 3, TRIANGLE_3D_POS)
        with pytest.raises(EmptyEdgeSet):
            classify_weak_rigidity_3d(f)

    def test_lone_angle_triangle_is_flexible(self):
        # A ray tip slides along its ray without changing the angle: rank 1 of
        # the 3n - 7 = 2 an edge-free framework needs.
        f = Framework(build_graph(3, angles=[(0, 1, 2)]), 3, TRIANGLE_3D_POS)
        report = classify_weak_rigidity_3d(f)
        assert (report.rank, report.required_rank, report.rigid) == (1, 2, False)

    def test_collinear_configuration_rejected(self):
        pos = np.array([[0.0, 0, 0], [1.0, 1, 1], [2.5, 2.5, 2.5]])
        f = Framework(build_graph(3, edges=[(0, 1), (1, 2), (0, 2)]), 3, pos)
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            classify_infinitesimal_weak_rigidity(f)

    def test_3d_name_rejects_a_2d_framework(self, triangle_k3):
        with pytest.raises(ValueError, match="needs dim 3"):
            classify_weak_rigidity_3d(triangle_k3)


def closure_rank_is_full(f: Framework) -> bool:
    """The former 3D test: rank ``3n - 6`` of the induced distance closure."""
    closure = Framework(induced_distance_closure(f.graph), 3, f.positions)
    return classical_distance_rank(closure) == 3 * f.graph.n - 6


class TestDistanceClosureOracle:
    def test_direct_rigid_implies_closure_rigid(self):
        # Each angle's three support edges fix it, so the closure is at least
        # as rigid as the framework; the lone-angle triangle shows the
        # converse fails.
        rng = np.random.default_rng(97)
        verdicts = []
        for _ in range(200):
            f = lift(random_framework(rng), rng)
            rigid = classify_infinitesimal_weak_rigidity(f).rigid
            verdicts.append(rigid)
            assert closure_rank_is_full(f) or not rigid
        assert 0 < sum(verdicts) < len(verdicts)
        lone = Framework(build_graph(3, angles=[(0, 1, 2)]), 3, TRIANGLE_3D_POS)
        assert closure_rank_is_full(lone) and not classify_infinitesimal_weak_rigidity(lone).rigid


def _reference_report(f: Framework, rel_tol: float = 1e-9) -> RigidityReport:
    """A classifier's report as built when the 2D and 3D tests had their own motions.

    2D: the two translations and the ``[-y, x]`` column; 3D: the three
    translations and the ``np.cross`` fields about the axes; in both, without
    edges, the scaling column ``p``.  The residual is the largest entry of
    ``R_W`` times the unit-normed motion columns.
    """
    n, p = f.graph.n, f.config()
    R = weak_rigidity_matrix(f).matrix
    if f.dim == 2:
        rot = np.empty(2 * n)
        rot[0::2], rot[1::2] = -p[1::2], p[0::2]
        cols = [np.tile([1.0, 0.0], n), np.tile([0.0, 1.0], n), rot]
    else:
        axes = np.eye(3)
        cols = [np.tile(a, n) for a in axes] + [np.cross(a, f.positions).ravel() for a in axes]
    cols += [p] if f.graph.m == 0 else []
    columns = np.column_stack(cols)
    residual = float(np.max(np.abs(R @ (columns / np.linalg.norm(columns, axis=0)))))
    rank = numerical_rank(R, rel_tol)
    required = R.shape[1] - columns.shape[1]
    rigid = rank == required
    return RigidityReport(
        rank=rank, required_rank=required, rigid=rigid,
        verdict="infinitesimally weakly rigid" if rigid else "not infinitesimally weakly rigid",
        null_space_dim=R.shape[1] - rank, trivial_motion_residual=residual, tolerance_used=rel_tol)


def _report_oracle_cases(seed: Framework):
    """Grown frameworks n = 8..30, one-constraint-dropped and angle-only copies
    of each, random 3D lifts of all three, and random small 3D frameworks."""
    rng = np.random.default_rng(808)
    planar = []
    for rng_seed, mix in ((8, 0.5), (30, 1.0)):
        for f in grow_random(seed, steps=27, rng_seed=rng_seed, mix=mix).frameworks[5:]:
            g = f.graph
            cut = int(rng.integers(g.constraint_count))
            dropped = Graph(g.n, tuple(e for t, e in enumerate(g.edges) if t != cut),
                            tuple(a for t, a in enumerate(g.angles) if g.m + t != cut))
            angle_only = Graph(g.n, (), g.angles)
            planar += [f] + [Framework(h, 2, f.positions) for h in (dropped, angle_only)]
    lifts = []
    for f in planar:
        rms = float(np.sqrt(np.mean(np.sum(f.positions ** 2, axis=1))))
        z = rng.uniform(-1.0, 1.0, f.graph.n) * rms
        lifts.append(Framework(f.graph, 3, np.column_stack([f.positions, z])))
    for _ in range(40):  # small dense graphs, so that some 3D verdicts are rigid
        g = random_framework(rng).graph
        lifts.append(Framework(g, 3, random_positions(rng, g.n, dim=3)))
    return planar, lifts


class TestReportOracle:
    def test_reports_equal_the_separate_constructions(self, triangle_k3):
        planar, lifts = _report_oracle_cases(triangle_k3)
        reports = [classify_infinitesimal_weak_rigidity(f) for f in planar]
        reports += [classify_weak_rigidity_3d(f) for f in lifts]
        for f, report in zip(planar + lifts, reports):
            assert report.to_dict() == _reference_report(f).to_dict()
        for batch in (reports[:len(planar)], reports[len(planar):]):
            assert {r.verdict for r in batch} == {
                "infinitesimally weakly rigid", "not infinitesimally weakly rigid"}


class TestMinimality:
    def test_zero_extension_framework_is_minimal(self):
        g = build_graph(4, edges=[(0, 1), (0, 2), (1, 2)], angles=[(1, 2, 3), (2, 1, 3)])
        f = Framework(g, 2, RHOMBUS_POS[[1, 0, 2, 3]])
        assert is_minimally_weakly_rigid(f).minimal

    def test_k3_is_minimal(self, triangle_k3):
        result = is_minimally_weakly_rigid(triangle_k3)
        assert result.minimal
        for u in range(3):
            edges = [e for t, e in enumerate(triangle_k3.graph.edges) if t != u]
            reduced = Framework(build_graph(3, edges=edges), 2, TRIANGLE_POS)
            assert not classify_infinitesimal_weak_rigidity(reduced).rigid

    def test_extra_angle_is_the_witness(self):
        edges = [(0, 1), (0, 3), (1, 2), (2, 3), (1, 3)]
        g = build_graph(4, edges=edges, angles=[(0, 1, 3)])
        f = Framework(g, 2, RHOMBUS_POS)
        result = is_minimally_weakly_rigid(f)
        assert not result.minimal
        assert result.witness == ("cosine", (0, 1, 3))

    def test_3d_k4_is_minimal_and_an_extra_angle_is_the_witness(self):
        k4 = build_graph(4, edges=K4_EDGES)
        assert is_minimally_weakly_rigid(Framework(k4, 3, TETRA_POS)).minimal
        extra = Framework(Graph(4, k4.edges, ((0, 1, 2),)), 3, TETRA_POS)
        result = is_minimally_weakly_rigid(extra)
        assert not result.minimal and result.witness == ("cosine", (0, 1, 2))

    def test_spare_rows_none_of_which_can_go_alone_are_not_minimal(self):
        # Five rows at rank 3, the required rank; at a cut of 0.037 each drop loses rank.
        g = Graph(3, ((0, 1), (0, 2)), ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
        f = Framework(g, 2, np.array([[-2.7, 2.9], [1.8, 1.5], [0.1, 2.7]]))
        R = weak_rigidity_matrix(f).matrix
        assert classify_infinitesimal_weak_rigidity(f, 0.037).rank == 3
        assert all(numerical_rank(np.delete(R, row, 0), 0.037) == 2 for row in range(5))
        assert _verdict(is_minimally_weakly_rigid(f, 0.037)) == (False, "removable constraint", None)

    def test_not_rigid_reason(self):
        rng = np.random.default_rng(83)
        f = Framework(build_graph(3, edges=[(0, 1), (1, 2)]), 2, random_positions(rng, 3))
        result = is_minimally_weakly_rigid(f)
        assert not result.minimal and result.reason == "not rigid"


def _rank_meets_requirement(f: Framework, rel_tol: float) -> bool:
    g = f.graph
    if g.constraint_count == 0:
        return False
    required = 2 * g.n - 3 if g.m > 0 else 2 * g.n - 4
    return numerical_rank(weak_rigidity_matrix(f).matrix, rel_tol) == required


def exhaustive_minimality(f: Framework, rel_tol: float = 1e-9) -> MinimalityResult:
    """Reference test: drop each constraint in turn and re-rank the rest.

    Angles are tried before edges, each in graph order; the first removable
    constraint is the witness.
    """
    if not classify_infinitesimal_weak_rigidity(f, rel_tol).rigid:
        return MinimalityResult(minimal=False, reason="not rigid")
    g = f.graph
    for h in range(g.q):
        reduced = Graph(n=g.n, edges=g.edges, angles=g.angles[:h] + g.angles[h + 1:])
        if _rank_meets_requirement(Framework(reduced, 2, f.positions), rel_tol):
            return MinimalityResult(False, "removable constraint", ("cosine", g.angles[h]))
    for u in range(g.m):
        reduced = Graph(n=g.n, edges=g.edges[:u] + g.edges[u + 1:], angles=g.angles)
        if _rank_meets_requirement(Framework(reduced, 2, f.positions), rel_tol):
            return MinimalityResult(False, "removable constraint", ("distance", g.edges[u]))
    return MinimalityResult(minimal=True, reason="rigid and no constraint removable")


def _verdict(result: MinimalityResult):
    return result.minimal, result.reason, result.witness


def _one_constraint_variants(f: Framework, rng):
    """``f`` with one edge added, one edge dropped and one angle dropped."""
    g, n = f.graph, f.graph.n
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in g.edges]
    extra = absent[int(rng.integers(len(absent)))]
    variants = [Graph(n, g.edges + (extra,), g.angles)]
    if g.m:
        u = int(rng.integers(g.m))
        variants.append(Graph(n, g.edges[:u] + g.edges[u + 1:], g.angles))
    h = int(rng.integers(g.q))
    variants.append(Graph(n, g.edges, g.angles[:h] + g.angles[h + 1:]))
    return [Framework(v, 2, f.positions) for v in variants]


class TestMinimalityAgainstExhaustiveOracle:
    def test_grown_frameworks_and_one_constraint_variants(self, triangle_k3):
        rng = np.random.default_rng(2024)
        cases = []
        for steps in range(1, 13):  # n = 4..15
            mix = float(rng.random())
            grown = grow_random(triangle_k3, steps=steps, rng_seed=int(rng.integers(2**31)), mix=mix)
            cases.append(grown.final)
            cases.extend(_one_constraint_variants(grown.final, rng))
        verdicts = [_verdict(exhaustive_minimality(f)) for f in cases]
        assert {v[1] for v in verdicts} == {
            "rigid and no constraint removable", "removable constraint", "not rigid"}
        for f, expected in zip(cases, verdicts):
            assert _verdict(is_minimally_weakly_rigid(f)) == expected

    def test_random_mixed_frameworks(self):
        rng = np.random.default_rng(515)
        for _ in range(300):
            f = random_framework(rng)
            assert _verdict(is_minimally_weakly_rigid(f)) == _verdict(exhaustive_minimality(f))

    def test_lone_edge_is_the_witness(self):
        f = rhombus_framework("e")  # one edge, four angles, rank 2n-3
        assert f.graph.m == 1 and classify_infinitesimal_weak_rigidity(f).rigid
        result = is_minimally_weakly_rigid(f)
        assert _verdict(result) == _verdict(exhaustive_minimality(f))
        assert result.witness == ("distance", (2, 3))
        # A spare row, but at a cut of 7e-3 no angle of this triangle can go without
        # losing rank: the lone edge, whose bar is one less, is the witness.
        tri = Framework(Graph(3, ((0, 1),), ((0, 1, 2), (1, 0, 2), (2, 0, 1))), 2,
                        np.array([[7.4, -5.1], [-0.6, -7.7], [1.4, -0.9]]))
        result = is_minimally_weakly_rigid(tri, 7e-3)
        assert _verdict(result) == _verdict(exhaustive_minimality(tri, 7e-3))
        assert result.witness == ("distance", (0, 1))

    def test_edge_free_frameworks_use_rank_2n_minus_4(self):
        five_angles = rhombus_framework("f")
        four_angles = Framework(
            Graph(4, (), five_angles.graph.angles[:4]), 2, five_angles.positions)
        assert classify_infinitesimal_weak_rigidity(four_angles).rank == 4
        assert is_minimally_weakly_rigid(four_angles).minimal
        for f in (five_angles, four_angles):
            assert _verdict(is_minimally_weakly_rigid(f)) == _verdict(exhaustive_minimality(f))
        assert is_minimally_weakly_rigid(five_angles).witness[0] == "cosine"

    def test_a_spare_constraint_at_the_required_rank_is_never_minimal(self, triangle_k3):
        # One constraint more than the rank, which is the required rank, exactly as well.
        grown = grow_random(triangle_k3, steps=27, rng_seed=1).final
        added = Framework(Graph(grown.n, grown.graph.edges + ((19, 29),), grown.graph.angles),
                          2, grown.positions)
        cases = ((added, ("cosine", (1, 2, 3))), (spare_edge_framework(), ("distance", (0, 1))))
        for f, witness in cases:
            report = classify_infinitesimal_weak_rigidity(f)
            assert report.rigid and f.graph.constraint_count == report.rank + 1
            assert exact_rank(f) == report.rank
            expected = (False, "removable constraint", witness)
            result = is_minimally_weakly_rigid(f)
            assert _verdict(result) == _verdict(exhaustive_minimality(f)) == expected


CORPUS_KINDS = ("grown", "dropped", "added", "random-position", "lifted", "lone-edge")


def _absent_angles(g: Graph):
    return [(k, i, j) for k in range(g.n) for i in range(g.n) for j in range(i + 1, g.n)
            if k not in (i, j) and (k, i, j) not in g.angles]


def corpus_framework(kind: str, seed: int) -> Framework:
    """One framework of ``kind``, built from a seeded growth run of 0..9 steps."""
    rng = np.random.default_rng(seed)
    k3 = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)
    grown = grow_random(k3, steps=int(rng.integers(10)), rng_seed=seed, mix=float(rng.random()))
    f = grown.final
    g, n = f.graph, f.graph.n
    if kind == "grown":
        return f
    if kind == "dropped":
        t = int(rng.integers(g.constraint_count))
        graph = (Graph(n, g.edges[:t] + g.edges[t + 1:], g.angles) if t < g.m else
                 Graph(n, g.edges, g.angles[:t - g.m] + g.angles[t - g.m + 1:]))
        return Framework(graph, 2, f.positions)
    if kind == "added":
        absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in g.edges]
        if absent and rng.random() < 0.5:
            graph = Graph(n, g.edges + (absent[int(rng.integers(len(absent)))],), g.angles)
        else:
            angles = _absent_angles(g)
            graph = Graph(n, g.edges, g.angles + (angles[int(rng.integers(len(angles)))],))
        return Framework(graph, 2, f.positions)
    if kind == "random-position":
        return Framework(g, 2, random_positions(rng, n))
    if kind == "lifted":
        return lift(f, rng)
    # lone-edge: one of the edges, and random angles in place of the others
    angles = _absent_angles(g)
    picked = rng.choice(len(angles), size=g.m - 1, replace=False)
    graph = Graph(n, (g.edges[int(rng.integers(g.m))],), g.angles + tuple(angles[t] for t in picked))
    return Framework(graph, 2, f.positions)


def _outcome(test, f: Framework):
    try:
        return _verdict(test(f))
    except (DegenerateConfiguration, EmptyEdgeSet) as exc:
        return type(exc)


class TestMinimalityAgainstFullSvd:
    """Ranking from the singular values alone answers as the full SVD did."""

    @settings(max_examples=250, deadline=None)
    @given(kind=st.sampled_from(CORPUS_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_same_verdict_and_witness(self, kind, seed):
        f = corpus_framework(kind, seed)
        outcome = _outcome(is_minimally_weakly_rigid, f)
        assert outcome == _outcome(full_svd_minimality, f)
        if isinstance(outcome, tuple) and outcome[0]:  # minimal: as many constraints as rank
            assert f.graph.constraint_count == classify_infinitesimal_weak_rigidity(f).required_rank

    def test_corpus_reaches_every_answer(self):
        answers = set()
        for kind in CORPUS_KINDS:
            for seed in range(12):
                _, reason, witness = _verdict(is_minimally_weakly_rigid(corpus_framework(kind, seed)))
                answers.add((reason, witness and witness[0]))
        assert answers == {("rigid and no constraint removable", None), ("not rigid", None),
                           ("removable constraint", "cosine"), ("removable constraint", "distance")}


def tiled_rigid_motions(positions: np.ndarray) -> np.ndarray:
    """The rigid motions built column by column with ``np.tile`` and
    ``np.column_stack``, one plane at a time, kept as an oracle."""
    n, d = positions.shape
    cols = [np.tile(e, n) for e in np.eye(d)]
    for a, b in reversed(list(itertools.combinations(range(d), 2))):
        spin = np.zeros((n, d))
        spin[:, a] = -positions[:, b]
        spin[:, b] = positions[:, a]
        cols.append(spin.ravel())
    return np.column_stack(cols)


def drawn_framework(dim, n, with_edges, seed, scale_log10, offset_log10, collinear=False):
    """Random positions in a unit ``10**scale_log10``, moved ``10**offset_log10``
    along a random direction; a path of edges (or none) and a path of angles.
    A draw that :class:`Framework` rejects is skipped."""
    rng = np.random.default_rng(seed)
    if collinear:
        direction = rng.normal(size=dim)
        pos = np.outer(rng.normal(size=n), direction / np.linalg.norm(direction))
    else:
        pos = rng.normal(size=(n, dim))
    direction = rng.normal(size=dim)
    shift = direction / np.linalg.norm(direction) * 10.0 ** offset_log10
    edges = [(i, i + 1) for i in range(n - 1)] if with_edges else []
    g = build_graph(n, edges=edges, angles=[(i, i + 1, i + 2) for i in range(n - 2)])
    try:
        return Framework(g, dim, pos * 10.0 ** scale_log10 + shift)
    except CollocatedPoints:
        assume(False)


class TestRigidMotionsAgainstTiles:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_the_column_oracle(self, dim, n, seed):
        pos = np.random.default_rng(seed).normal(size=(n, dim))
        pos[0, 0] = 0.0  # a zero whose negation is -0.0
        assert np.array_equal(rigid_motions(pos), tiled_rigid_motions(pos))
        assert rigid_motions(pos).tobytes() == tiled_rigid_motions(pos).tobytes()


class TestTrivialMotionsAreCounted:
    """The basis is returned unranked: off a line its columns are independent."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(3, 9), with_edges=st.booleans(),
           seed=st.integers(0, 2**32 - 1), scale_log10=st.floats(-3.0, 3.0),
           offset_log10=st.floats(-3.0, 6.0))
    def test_full_column_rank_off_a_line(self, dim, n, with_edges, seed, scale_log10,
                                         offset_log10):
        f = drawn_framework(dim, n, with_edges, seed, scale_log10, offset_log10)
        basis = trivial_motion_basis(f)
        assert basis.shape == (dim * n, dim * (dim + 1) // 2 + (not with_edges))
        # Far from the origin the rotations lean on the translations, so the
        # rank is read where it means something: centred, unit RMS radius.
        centred = f.positions - f.positions.mean(axis=0)
        unit = f.with_positions(centred / np.sqrt(np.mean(np.sum(centred ** 2, axis=1))))
        assert numerical_rank(trivial_motion_basis(unit)) == basis.shape[1]

    # Offsets stay within 1e3 of the line's unit: further out, rounding moves
    # the points off their line by more than the rank cut.
    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(1, 9), with_edges=st.booleans(),
           seed=st.integers(0, 2**32 - 1), scale_log10=st.floats(-3.0, 3.0),
           relative_offset_log10=st.floats(-3.0, 3.0))
    def test_collinear_draw_raises(self, dim, n, with_edges, seed, scale_log10,
                                   relative_offset_log10):
        f = drawn_framework(dim, n, with_edges, seed, scale_log10,
                            scale_log10 + relative_offset_log10, collinear=True)
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            trivial_motion_basis(f)

    def test_two_vertices_are_collinear(self):
        f = Framework(build_graph(2, edges=[(0, 1)]), 2, np.array([[0.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            trivial_motion_basis(f)

    def test_size_and_constraint_errors_come_first(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        for test in (classify_infinitesimal_weak_rigidity, is_minimally_weakly_rigid):
            with pytest.raises(ValueError, match="n >= 3"):
                test(Framework(build_graph(2, edges=[(0, 1)]), 2, line[:2]))
            with pytest.raises(EmptyEdgeSet):
                test(Framework(build_graph(3), 2, line))


class TestFarFromOrigin:
    """A rigid framework in a small unit far from the origin keeps its verdict:
    counting the trivial motions leaves no rank to lose there."""

    @pytest.mark.parametrize("rng_seed, scale, offset", [
        (0, 1e-2, 1e4), (1, 1e-2, 1e4), (2, 1e-2, 1e4), (0, 1e-3, 3e3)])
    def test_grown_copy_is_rigid_and_minimal(self, triangle_k3, rng_seed, scale, offset):
        f = grow_random(triangle_k3, steps=7, rng_seed=rng_seed).final
        far = f.with_positions(f.positions * scale + [0.0, offset])
        report = classify_infinitesimal_weak_rigidity(far)
        assert (report.rank, report.required_rank, report.rigid) == (17, 17, True)
        assert is_minimally_weakly_rigid(far).minimal
