"""0-/1-extensions and the random growth generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from weakrig import (
    BadAnchor,
    CollinearPlacement,
    CollocatedPoints,
    EdgeNotFound,
    Framework,
    Graph,
    SeedNotRigid,
    apply_extension,
    build_graph,
    classify_infinitesimal_weak_rigidity,
    grow_random,
    is_minimally_weakly_rigid,
    replay_growth,
    weak_rigidity_function,
    weakly_rigid_0_extension,
    weakly_rigid_1_extension,
)

from conftest import TRIANGLE_POS


NEW_POS = (1.732, 0.0)


class TestZeroExtension:
    def test_triangle_to_four_vertices(self, triangle_k3):
        f = weakly_rigid_0_extension(triangle_k3, 1, 2, NEW_POS)
        assert f.graph.n == 4
        assert f.graph.edges == triangle_k3.graph.edges
        assert f.graph.angles == ((1, 2, 3), (2, 1, 3))
        assert is_minimally_weakly_rigid(f).minimal

    def test_original_subframework_unchanged(self, triangle_k3):
        f = weakly_rigid_0_extension(triangle_k3, 0, 1, (2.5, 2.5))
        assert np.array_equal(f.positions[:3], triangle_k3.positions)
        assert f.graph.edges == triangle_k3.graph.edges
        assert f.graph.angles[: triangle_k3.graph.q] == triangle_k3.graph.angles

    def test_repeated_anchor(self, triangle_k3):
        with pytest.raises(BadAnchor):
            weakly_rigid_0_extension(triangle_k3, 1, 1, NEW_POS)

    def test_collinear_placement(self, triangle_k3):
        midpoint = 0.5 * (triangle_k3.positions[1] + triangle_k3.positions[2])
        with pytest.raises(CollinearPlacement):
            weakly_rigid_0_extension(triangle_k3, 1, 2, midpoint)

    def test_collocated_placement(self, triangle_k3):
        with pytest.raises(CollocatedPoints):
            weakly_rigid_0_extension(triangle_k3, 1, 2, triangle_k3.positions[0])


class TestOneExtension:
    def test_triangle_split(self, triangle_k3):
        f = weakly_rigid_1_extension(triangle_k3, 1, 2, 0, NEW_POS)
        assert f.graph.n == 4
        assert f.graph.edges == ((0, 1), (0, 2))
        assert f.graph.angles == ((1, 2, 3), (2, 1, 3), (0, 1, 2))
        assert is_minimally_weakly_rigid(f).minimal

    def test_missing_edge(self, triangle_two_edges_one_angle):
        with pytest.raises(EdgeNotFound):
            weakly_rigid_1_extension(triangle_two_edges_one_angle, 1, 2, 0, NEW_POS)

    def test_witness_must_differ(self, triangle_k3):
        with pytest.raises(BadAnchor):
            weakly_rigid_1_extension(triangle_k3, 1, 2, 2, NEW_POS)

    def test_law_of_sines_on_new_triangle(self, triangle_k3):
        # The two added angles plus the spanned side obey the law of sines,
        # so converting them back to distances reproduces the realized edge
        # lengths exactly.
        f = weakly_rigid_0_extension(triangle_k3, 1, 2, NEW_POS)
        pos = f.positions

        def angle(k, i, j):  # from the cosine of a graph with only this angle
            one = Framework(Graph(f.n, (), ((k, i, j),)), 2, pos)
            return math.acos(weak_rigidity_function(one)[0])

        d_12 = np.linalg.norm(pos[1] - pos[2])
        d_13 = np.linalg.norm(pos[1] - pos[3])
        d_23 = np.linalg.norm(pos[2] - pos[3])
        predicted_13 = d_12 * math.sin(angle(2, 1, 3)) / math.sin(angle(3, 1, 2))
        predicted_23 = d_12 * math.sin(angle(1, 2, 3)) / math.sin(angle(3, 1, 2))
        assert predicted_13 == pytest.approx(d_13, rel=1e-12)
        assert predicted_23 == pytest.approx(d_23, rel=1e-12)


class TestGrowRandom:
    def test_single_forced_zero_extension(self, triangle_k3):
        result = grow_random(triangle_k3, steps=1, rng_seed=7, mix=1.0)
        final = result.final
        assert final.graph.n == 4
        assert final.graph.m == 3 and final.graph.q == 2
        assert final.graph.constraint_count == 2 * 4 - 3
        assert result.steps[0].kind == "0-extension"

    def test_constraint_count_along_growth(self, triangle_k3):
        result = grow_random(triangle_k3, steps=7, rng_seed=42)
        assert result.final.graph.n == 10
        for f in result.frameworks:
            assert f.graph.constraint_count == 2 * f.graph.n - 3

    def test_all_intermediates_minimal(self, triangle_k3):
        result = grow_random(triangle_k3, steps=5, rng_seed=3)
        for f in result.frameworks:
            assert classify_infinitesimal_weak_rigidity(f).rigid
            assert is_minimally_weakly_rigid(f).minimal

    def test_deterministic(self, triangle_k3):
        a = grow_random(triangle_k3, steps=4, rng_seed=99)
        b = grow_random(triangle_k3, steps=4, rng_seed=99)
        assert a.steps == b.steps
        for fa, fb in zip(a.frameworks, b.frameworks):
            assert np.array_equal(fa.positions, fb.positions)
            assert fa.graph == fb.graph

    def test_seed_must_be_minimal(self):
        rng = np.random.default_rng(9)
        f = Framework(build_graph(3, edges=[(0, 1), (1, 2)]), 2, TRIANGLE_POS)
        with pytest.raises(SeedNotRigid):
            grow_random(f, steps=1, rng_seed=1)

    def test_one_extensions_appear_with_zero_mix(self, triangle_k3):
        result = grow_random(triangle_k3, steps=3, rng_seed=11, mix=0.0)
        kinds = [s.kind for s in result.steps]
        assert "1-extension" in kinds

    def test_edge_floor_forces_fallback(self, triangle_k3):
        # With mix=0 every step wants a 1-extension, but after the first one
        # only two edges remain and a further split would strand a single
        # edge, which is always removable; the generator must fall back to
        # 0-extensions from then on.
        result = grow_random(triangle_k3, steps=6, rng_seed=13, mix=0.0)
        kinds = [s.kind for s in result.steps]
        assert kinds[0] == "1-extension"
        assert all(k == "0-extension" for k in kinds[1:])
        for f in result.frameworks:
            assert f.graph.m >= 2

    def test_replay_reconstructs(self, triangle_k3):
        grown = grow_random(triangle_k3, steps=4, rng_seed=21)
        replayed = replay_growth(triangle_k3, grown.steps)
        assert np.array_equal(replayed.final.positions, grown.final.positions)
        assert replayed.final.graph == grown.final.graph

    def test_apply_extension_roundtrip(self, triangle_k3):
        grown = grow_random(triangle_k3, steps=1, rng_seed=33)
        again = apply_extension(triangle_k3, grown.steps[0])
        assert np.array_equal(again.positions, grown.final.positions)
        assert again.graph == grown.final.graph
