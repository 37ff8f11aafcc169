"""0-/1-extensions and the random growth generator."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from weakrig import (
    BadAnchor,
    CollinearPlacement,
    CollocatedPoints,
    DuplicateConstraint,
    EdgeNotFound,
    ExtensionStep,
    Framework,
    Graph,
    SeedNotRigid,
    apply_extension,
    build_graph,
    classify_infinitesimal_weak_rigidity,
    grow_random,
    is_minimally_weakly_rigid,
    weak_rigidity_function,
    weakly_rigid_0_extension,
    weakly_rigid_1_extension,
)

from weakrig.fileio import growth_log_to_text
from weakrig import henneberg
from weakrig.henneberg import (
    MAX_ABS_COSINE,
    MIN_SEPARATION_FRACTION,
    NOT_MINIMAL,
    SMALL_ANGLE,
    TOO_CLOSE,
    _box,
    _cosine,
    _propose,
    _rejection,
)
from weakrig.rigidity import compile_graph, constraint_kernel

from conftest import TRIANGLE_POS, framework_to_dict, full_svd_minimality, seven_edge_seed


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
        for v in (0, 1, 2):  # another vertex, or either anchor (also on their line)
            with pytest.raises(CollocatedPoints):
                weakly_rigid_0_extension(triangle_k3, 1, 2, triangle_k3.positions[v])


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
        f = triangle_k3
        for step, expected in zip(grown.steps, grown.frameworks[1:]):
            f = apply_extension(f, step)
            assert np.array_equal(f.positions, expected.positions)
            assert f.graph == expected.graph

    def test_apply_extension_roundtrip(self, triangle_k3):
        grown = grow_random(triangle_k3, steps=1, rng_seed=33)
        again = apply_extension(triangle_k3, grown.steps[0])
        assert np.array_equal(again.positions, grown.final.positions)
        assert again.graph == grown.final.graph

    def test_golden_one_extensions(self):
        # From this seven-edge seed five of the eight steps split an edge, so,
        # unlike from the triangle ``grow`` starts with (whose one split has a
        # single witness to pick), the edge and witness draws both count.  The
        # SHA-1 of the log and the final framework pins the draw order.
        g = build_graph(5, edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        seed = Framework(g, 2, np.array([[0.0, 0.0], [2.0, 0.3], [0.8, 1.7], [2.6, 2.1], [1.1, 3.4]]))
        result = grow_random(seed, steps=8, rng_seed=0, mix=0.25)
        assert sum(s.kind == "1-extension" for s in result.steps) == 5
        text = growth_log_to_text(result.steps) + json.dumps(framework_to_dict(result.final),
                                                             sort_keys=True)
        assert hashlib.sha1(text.encode()).hexdigest() == "463e2bfc76dcd274b6e9b4275a410f4fe0490663"

    def test_duplicate_witness_angle_is_rejected(self):
        # Splitting edge (0, 1) with witness 3 would add the seed's angle
        # (3, 0, 1) a second time; such a proposal is retried, not raised.
        seed = angle_seed()
        assert is_minimally_weakly_rigid(seed).minimal
        for rng_seed in range(40):  # seeds 1, 19, 20, 24, 29, ... draw that split
            result = grow_random(seed, steps=3, rng_seed=rng_seed, mix=0.0)
            for f in result.frameworks:
                assert is_minimally_weakly_rigid(f).minimal


def angle_seed() -> Framework:
    """Minimally rigid: a triangle plus a vertex held by one edge and the angle (3, 0, 1)."""
    g = build_graph(4, edges=[(0, 1), (0, 2), (1, 2), (2, 3)], angles=[(3, 0, 1)])
    return Framework(g, 2, np.array([[0.0, 0.0], [2.0, 0.0], [0.7, 1.6], [1.3, -1.4]]))


def zero_step(pos, anchors=(1, 2)):
    i, j = anchors
    return ExtensionStep("0-extension", 3, (i, j), pos)


class TestRejectionCauses:
    """Each cause on a hand-built step on the triangle (diameter ~2.65)."""

    def test_too_close(self, triangle_k3):
        # 0.14 from vertex 1, under a tenth of the diameter; angles and rank fine.
        step = zero_step((0.1, 0.9), anchors=(0, 2))
        candidate = apply_extension(triangle_k3, step)
        assert is_minimally_weakly_rigid(candidate).minimal
        assert _rejection(candidate, step, _box(triangle_k3.positions)[2]) == TOO_CLOSE

    def test_angle_under_five_degrees(self, triangle_k3):
        # Seen from vertex 1, the new vertex is 1.4 degrees off vertex 2.
        step = zero_step((0.1, -3.0))
        candidate = apply_extension(triangle_k3, step)
        assert math.degrees(math.acos(weak_rigidity_function(candidate)[-2])) < 5.0
        assert np.linalg.norm(candidate.positions[:3] - candidate.positions[3], axis=1).min() > 1.0
        assert is_minimally_weakly_rigid(candidate).minimal
        assert _rejection(candidate, step, _box(triangle_k3.positions)[2]) == SMALL_ANGLE

    def test_collinear(self, triangle_k3):
        with pytest.raises(CollinearPlacement):
            apply_extension(triangle_k3, zero_step((0.0, -3.0)))

    def test_acceptable_step(self, triangle_k3):
        step = zero_step(NEW_POS)
        diameter = _box(triangle_k3.positions)[2]
        assert _rejection(apply_extension(triangle_k3, step), step, diameter) is None

    def test_duplicate_witness_angle(self):
        step = ExtensionStep("1-extension", 4, (0, 1, 3), (1.0, 1.0))
        with pytest.raises(DuplicateConstraint, match=r"angle \(3, 0, 1\)"):
            apply_extension(angle_seed(), step)


def counted_minimality_checks(monkeypatch) -> list:
    """Record every minimality test growth makes, by the framework tested."""
    calls = []

    def counting(f, *args, **kwargs):
        calls.append(f)
        return is_minimally_weakly_rigid(f, *args, **kwargs)

    monkeypatch.setattr(henneberg, "is_minimally_weakly_rigid", counting)
    return calls


class TestTrustedZeroExtensions:
    """A 0-extension is accepted by the extension theorem, not by a rank test."""

    def test_attempts_add_up(self, triangle_k3):
        result = grow_random(triangle_k3, steps=27, rng_seed=5, mix=0.5)
        rejected = (result.unbuildable + result.too_close + result.small_angle
                    + result.not_minimal)
        assert len(result.attempts) == len(result.steps) == 27
        assert min(result.attempts) >= 1
        assert sum(result.attempts) == len(result.steps) + rejected
        assert rejected > 0

    @pytest.mark.parametrize("mix", [1.0, 0.0])
    def test_rank_tests_only_the_seed_and_one_extensions(self, triangle_k3, monkeypatch, mix):
        henneberg._seed_is_minimal.cache_clear()  # an equal seed grown before is not re-tested
        calls = counted_minimality_checks(monkeypatch)
        result = grow_random(triangle_k3, steps=20, rng_seed=8, mix=mix)
        ones = sum(s.kind == "1-extension" for s in result.steps)
        assert ones == (0 if mix == 1.0 else 1)
        # The seed, then each 1-extension that passed the placement bounds.
        assert len(calls) == 1 + ones + result.not_minimal
        assert calls[0] is triangle_k3
        assert all(f.n > 3 for f in calls[1:])

    def test_each_distinct_seed_is_rank_tested_once(self, monkeypatch):
        henneberg._seed_is_minimal.cache_clear()
        calls = counted_minimality_checks(monkeypatch)
        k3 = build_graph(3, edges=[(0, 1), (0, 2), (1, 2)])
        seeds = [Framework(k3, 2, TRIANGLE_POS.copy()) for _ in range(3)]
        for rng_seed, seed in enumerate(seeds):  # 0-extensions only: no rank test per step
            assert grow_random(seed, steps=4, rng_seed=rng_seed, mix=1.0).final.n == 7
        assert len(calls) == 1 and calls[0] is seeds[0]
        moved = seeds[0].with_positions(TRIANGLE_POS + 0.5)
        grow_random(moved, steps=4, rng_seed=0, mix=1.0)
        assert len(calls) == 2 and calls[1] is moved
        not_minimal = Framework(build_graph(3, edges=[(0, 1), (1, 2)]), 2, TRIANGLE_POS)
        for _ in range(3):
            with pytest.raises(SeedNotRigid):
                grow_random(not_minimal, steps=1, rng_seed=1)
        assert len(calls) == 3 and calls[2] is not_minimal

    # The triangle fixture is immutable, so sharing it across examples is safe.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        growth_seed=st.integers(0, 2**16),
        steps=st.integers(0, 6),
        anchors=st.tuples(st.integers(0, 99), st.integers(0, 98)),
        unit=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
    )
    def test_verdict_matches_the_rank_test(self, triangle_k3, growth_seed, steps, anchors, unit):
        parent = grow_random(triangle_k3, steps=steps, rng_seed=growth_seed).final
        n = parent.n
        i = anchors[0] % n
        j = [v for v in range(n) if v != i][anchors[1] % (n - 1)]
        lo, hi = parent.positions.min(axis=0), parent.positions.max(axis=0)
        pos = lo + np.asarray(unit) * (hi - lo)
        step = ExtensionStep("0-extension", n, (i, j), tuple(pos))
        diameter = float(np.linalg.norm(hi - lo))
        assume(np.linalg.norm(parent.positions - pos, axis=1).min()
               >= MIN_SEPARATION_FRACTION * diameter)
        try:
            candidate = apply_extension(parent, step)
        except CollinearPlacement:
            reject()
        assume(np.abs(weak_rigidity_function(candidate)[-2:]).max() < MAX_ABS_COSINE)
        oracle = is_minimally_weakly_rigid(candidate).minimal
        assert (_rejection(candidate, step, diameter) is None) == oracle
        assert oracle


def uncached_rejection(candidate: Framework, step: ExtensionStep,
                       minimal=full_svd_minimality) -> str | None:
    """``_rejection`` on the whole candidate: the parent's diameter measured from it,
    the new angles compiled per call and evaluated at every vertex by the
    kernel, and the minimality test from one full SVD.  Kept as an oracle."""
    parent, new = candidate.positions[:-1], candidate.positions[-1]
    diameter = float(np.linalg.norm(parent.max(axis=0) - parent.min(axis=0)))
    if np.linalg.norm(parent - new, axis=1).min() < MIN_SEPARATION_FRACTION * diameter:
        return TOO_CLOSE
    added = tuple(map(tuple, step.to_dict()["added_angles"]))
    rows = compile_graph.__wrapped__(Graph(candidate.n, angles=added))
    if np.abs(constraint_kernel(candidate.positions, rows)[0]).max() >= MAX_ABS_COSINE:
        return SMALL_ANGLE
    if step.kind == "1-extension" and not minimal(candidate):
        return NOT_MINIMAL
    return None


def in_unit(f: Framework, scale: float, offset) -> Framework:
    """``f`` scaled about the origin, then moved by ``offset``."""
    return f.with_positions(f.positions * scale + np.asarray(offset))


def step_in_unit(step: ExtensionStep, scale: float, offset) -> ExtensionStep:
    """``step`` with its new position scaled and moved as :func:`in_unit` moves its parent."""
    x, y = step.new_position
    return dataclasses.replace(step, new_position=(x * scale + offset[0], y * scale + offset[1]))


# seeds 0..19 x mix {0, 0.5, 1} x n {8, 12} from the triangle: logs, final
# positions, attempts and rejection counts, before the step-local rejection test
GROWTH_SWEEP_SHA1 = "aabf92c6fba314482a1ce15b01bc667487000d09"


class TestStepLocalRejection:
    """Each attempt pays only for the new vertex, and growth answers as before."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed_kind=st.sampled_from(["triangle", "seven-edge"]),
        growth_seed=st.integers(0, 2**16),
        steps=st.integers(0, 8),
        mix=st.floats(0.0, 1.0),
        proposal_seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 6.0),
        offset=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    )
    def test_same_cause_as_the_whole_candidate(self, seed_kind, growth_seed, steps, mix,
                                               proposal_seed, log_scale, offset):
        # Any unit: the parent grown at unit scale, then scaled by 10**log_scale
        # and moved by up to 1e6 of that unit, so the differences lose bits.
        seed = (Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)
                if seed_kind == "triangle" else seven_edge_seed())
        scale = 10.0 ** log_scale
        parent = in_unit(grow_random(seed, steps=steps, rng_seed=growth_seed, mix=mix).final,
                         scale, np.asarray(offset) * scale)
        box = _box(parent.positions)
        rng = np.random.default_rng(proposal_seed)
        for _ in range(15):
            step = _propose(parent, rng, mix, box)
            try:
                candidate = apply_extension(parent, step)
            except (CollinearPlacement, CollocatedPoints, DuplicateConstraint):
                continue
            assert _rejection(candidate, step, box[2]) == uncached_rejection(candidate, step)

    def test_scalar_cosine_has_the_kernel_bits(self):
        # Random triples at any unit, past the float range too (NaN stands for NaN), and
        # right angles on the axes, whose products are signed zeros: the kernel's sum
        # starts at +0.0.  The kernel clamps; _cosine does not, so the test clamps it.
        one_angle = compile_graph(Graph(3, angles=((0, 1, 2),)))
        rng = np.random.default_rng(29)
        cases = [rng.normal(size=(3, 2)) * 10.0 ** rng.uniform(-6, 6)
                 + rng.normal(size=2) * 10.0 ** rng.uniform(-6, 6) for _ in range(1500)]
        cases += [rng.normal(size=(3, 2)) * 10.0 ** rng.uniform(70, 300) for _ in range(500)]
        for sx, sy in itertools.product((1.0, -1.0), repeat=2):
            cases.append(np.array([[0.0, 0.0], [2.0 * sx, 0.0], [0.0, 3.0 * sy]]))
            cases.append(np.array([[1.0, -1.0], [1.0, -1.0 + sy], [1.0 + sx, -1.0]]))
        with np.errstate(over="ignore", invalid="ignore"):
            for p in cases:
                kernel = constraint_kernel(p, one_angle)[0]
                c = np.minimum(np.maximum(_cosine(*p.tolist()), -1.0), 1.0)
                assert c.tobytes() == kernel.tobytes() or (np.isnan(c) and np.isnan(kernel[0]))

    def test_products_past_the_float_range_decide_as_the_kernel(self, triangle_k3, monkeypatch):
        # Past ~1e77 the kernel's products overflow: a cosine is 0 or NaN there, and
        # numpy's max propagates a NaN where Python's does not.  The float bounds must
        # decide as the kernel does all the same.  The rank test is stubbed on both
        # sides, as its SVD takes no such input.
        parents = [grow_random(seed, steps=steps, rng_seed=steps, mix=0.5).final
                   for seed in (triangle_k3, seven_edge_seed()) for steps in (0, 3, 6)]
        monkeypatch.setattr(henneberg, "is_minimally_weakly_rigid", lambda f: True)
        rng = np.random.default_rng(77)
        causes, nan_cosines = collections.Counter(), 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(600):
                parent = parents[rng.integers(len(parents))]
                scale = 10.0 ** rng.uniform(60, 300)
                offset = rng.uniform(-1.0, 1.0, 2) * scale * 10.0 ** rng.uniform(0, 3)
                step = step_in_unit(_propose(parent, rng, 0.5, _box(parent.positions)),
                                    scale, offset)
                try:
                    candidate = apply_extension(in_unit(parent, scale, offset), step)
                except (CollinearPlacement, CollocatedPoints, DuplicateConstraint):
                    continue
                cause = uncached_rejection(candidate, step, minimal=lambda f: True)
                assert _rejection(candidate, step, _box(candidate.positions[:-1])[2]) == cause
                causes[cause] += 1
                nan_cosines += cause is None and np.isnan(weak_rigidity_function(candidate)).any()
        assert causes[TOO_CLOSE] and causes[SMALL_ANGLE] and causes[None] and nan_cosines

    def test_growth_sweep_is_unchanged(self, triangle_k3):
        digest = hashlib.sha1()
        for rng_seed in range(20):
            for mix in (0.0, 0.5, 1.0):
                for n in (8, 12):
                    r = grow_random(triangle_k3, steps=n - 3, rng_seed=rng_seed, mix=mix)
                    digest.update(growth_log_to_text(r.steps).encode())
                    digest.update(r.final.positions.tobytes())
                    digest.update(repr((r.attempts, r.unbuildable, r.too_close, r.small_angle,
                                        r.not_minimal)).encode())
        assert digest.hexdigest() == GROWTH_SWEEP_SHA1

    def test_no_graph_is_compiled_per_attempt(self, triangle_k3, monkeypatch):
        calls = []
        uncached = compile_graph.__wrapped__

        def counting(*args, **kwargs):
            calls.append(args)
            return uncached(*args, **kwargs)

        monkeypatch.setattr(compile_graph, "__wrapped__", counting)
        result = grow_random(triangle_k3, steps=20, rng_seed=8, mix=0.5)
        assert sum(result.attempts) > 20 and calls == []


COORDINATE = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


class TestProposalInFloats:
    """The proposal region and the position are Python floats with numpy's bits."""

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(COORDINATE, COORDINATE), min_size=1, max_size=8),
           mix=st.floats(0.0, 1.0), rng_seed=st.integers(0, 2**32 - 1))
    def test_position_has_the_numpy_bits(self, points, mix, rng_seed):
        positions = np.array(points, float)
        parent = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)
        step = _propose(parent, np.random.default_rng(rng_seed), mix, _box(positions))
        reference = np.random.default_rng(rng_seed)
        reference.random()  # the kind
        r = reference.random(2)
        lo, hi = positions.min(axis=0), positions.max(axis=0)
        d = float(np.linalg.norm(hi - lo))
        expected = lo - 0.5 * d + r * (hi - lo + d)
        assert all(type(c) is float for c in step.new_position)
        assert np.array(step.new_position).tobytes() == expected.tobytes()

    def test_anchor_pair_is_rng_choice(self):
        # The pair and the generator's state after it are rng.choice's, so a numpy
        # change to either draw fails here rather than in a golden digest.  Edgeless
        # parents: every proposal is a 0-extension.
        parents = [Framework(Graph(nu), 2, np.column_stack([np.arange(nu), np.zeros(nu)]))
                   for nu in range(3, 201)]
        for rng_seed in range(40):
            drawn, reference = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
            for parent in parents:
                step = _propose(parent, drawn, 0.5, ((0.0, 0.0), (1.0, 1.0), 1.0))
                reference.random()  # the kind
                reference.random(2)  # the position
                expected = reference.choice(parent.n, size=2, replace=False).tolist()
                assert step.anchors == tuple(expected)
                assert all(type(v) is int for v in step.anchors)
                assert drawn.random(3).tolist() == reference.random(3).tolist()
