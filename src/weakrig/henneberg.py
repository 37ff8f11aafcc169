"""Modified Henneberg construction for minimally weakly rigid frameworks.

A 0-extension adjoins a vertex and two new subtended angles anchored at an
existing vertex pair; a 1-extension removes one edge and adjoins a vertex
with three new angles (the third one, at a witness vertex, replaces the
removed edge).  Both operations add one vertex and a net of two
constraints, preserving the count ``|E| + |A| = 2n - 3``.  The random
generator verifies each step with the rank test instead of trusting the
construction unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Framework, build_graph, collocation_tolerance
from .errors import (
    BadAnchor,
    CollinearPlacement,
    CollocatedPoints,
    EdgeNotFound,
    PlacementExhausted,
    SeedNotRigid,
)
from .rigidity import is_minimally_weakly_rigid

MIN_ANGLE_DEG = 5.0
MIN_SEPARATION_FRACTION = 0.1
MAX_PLACEMENT_ATTEMPTS = 1000

KIND_0_EXTENSION = "0-extension"
KIND_1_EXTENSION = "1-extension"


@dataclass(frozen=True)
class ExtensionStep:
    """Replayable record of one construction step."""

    kind: str
    new_vertex: int
    anchors: tuple[int, ...]
    added_angles: tuple[tuple[int, int, int], ...]
    new_position: tuple[float, float]
    removed_edge: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "new_vertex": self.new_vertex,
            "anchors": list(self.anchors),
            "added_angles": [list(a) for a in self.added_angles],
            "new_position": list(self.new_position),
            "removed_edge": list(self.removed_edge) if self.removed_edge else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExtensionStep":
        return ExtensionStep(
            kind=d["kind"],
            new_vertex=int(d["new_vertex"]),
            anchors=tuple(int(v) for v in d["anchors"]),
            added_angles=tuple(tuple(int(v) for v in a) for a in d["added_angles"]),
            new_position=tuple(float(v) for v in d["new_position"]),
            removed_edge=tuple(int(v) for v in d["removed_edge"]) if d.get("removed_edge") else None,
        )


def _check_anchor_pair(f: Framework, i: int, j: int) -> None:
    n = f.graph.n
    if not (0 <= i < n and 0 <= j < n):
        raise BadAnchor(f"anchor ({i},{j}) out of range for n={n}")
    if i == j:
        raise BadAnchor(f"anchors must be distinct, got ({i},{j})")


def _check_placement(f: Framework, i: int, j: int, pos: np.ndarray) -> None:
    tol = collocation_tolerance(np.vstack([f.positions, pos]))
    for v in range(f.graph.n):
        if float(np.linalg.norm(f.positions[v] - pos)) < tol:
            raise CollocatedPoints(f"new position coincides with vertex {v}")
    a = f.positions[j] - f.positions[i]
    b = pos - f.positions[i]
    cross = abs(float(a[0] * b[1] - a[1] * b[0]))
    if cross < 1e-9 * float(np.linalg.norm(a)) * float(np.linalg.norm(b)):
        raise CollinearPlacement(f"new position lies on the line through vertices {i} and {j}")


def weakly_rigid_0_extension(f: Framework, i: int, j: int, pos) -> Framework:
    """Adjoin a vertex at ``pos`` plus the two angles at ``i`` and ``j`` toward it."""
    _check_anchor_pair(f, i, j)
    pos = np.asarray(pos, float)
    _check_placement(f, i, j, pos)
    nu = f.graph.n
    angles = list(f.graph.angles) + [(i, j, nu), (j, i, nu)]
    graph = build_graph(nu + 1, edges=f.graph.edges, angles=angles)
    return Framework(graph=graph, dim=2, positions=np.vstack([f.positions, pos]))


def weakly_rigid_1_extension(f: Framework, i: int, j: int, k: int, pos) -> Framework:
    """Split edge ``(i, j)``: remove it, adjoin a vertex and three angles.

    The added angles sit at ``i`` and ``j`` toward the new vertex and at the
    witness ``k`` toward ``i`` and ``j``.
    """
    _check_anchor_pair(f, i, j)
    edge = (i, j) if i < j else (j, i)
    if edge not in f.graph.edges:
        raise EdgeNotFound(f"edge {edge} is not in the graph")
    n = f.graph.n
    if not 0 <= k < n:
        raise BadAnchor(f"witness vertex {k} out of range for n={n}")
    if k in (i, j):
        raise BadAnchor(f"witness vertex {k} must differ from the split edge {edge}")
    pos = np.asarray(pos, float)
    _check_placement(f, i, j, pos)
    nu = n
    edges = [e for e in f.graph.edges if e != edge]
    angles = list(f.graph.angles) + [(i, j, nu), (j, i, nu), (k, i, j)]
    graph = build_graph(nu + 1, edges=edges, angles=angles)
    return Framework(graph=graph, dim=2, positions=np.vstack([f.positions, pos]))


def apply_extension(f: Framework, step: ExtensionStep) -> Framework:
    """Replay a recorded step on a framework."""
    if step.kind == KIND_0_EXTENSION:
        i, j = step.anchors
        return weakly_rigid_0_extension(f, i, j, step.new_position)
    if step.kind == KIND_1_EXTENSION:
        i, j, k = step.anchors
        return weakly_rigid_1_extension(f, i, j, k, step.new_position)
    raise ValueError(f"unknown extension kind {step.kind!r}")


@dataclass(frozen=True)
class GrowthResult:
    """Seed plus every intermediate framework, with the replayable steps."""

    frameworks: tuple[Framework, ...]
    steps: tuple[ExtensionStep, ...]

    @property
    def final(self) -> Framework:
        return self.frameworks[-1]


def _angle_deg(pk, pi, pj) -> float:
    u = pi - pk
    v = pj - pk
    c = float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def _placement_ok(f: Framework, pos: np.ndarray, new_angles, diameter: float) -> bool:
    if min(float(np.linalg.norm(f.positions[v] - pos)) for v in range(f.graph.n)) \
            < MIN_SEPARATION_FRACTION * diameter:
        return False
    stacked = np.vstack([f.positions, pos])
    for (k, i, j) in new_angles:
        deg = _angle_deg(stacked[k], stacked[i], stacked[j])
        if not MIN_ANGLE_DEG < deg < 180.0 - MIN_ANGLE_DEG:
            return False
    return True


def grow_random(seed_framework: Framework, steps: int, rng_seed: int, mix: float = 0.5) -> GrowthResult:
    """Grow a minimally weakly rigid framework by random verified extensions.

    ``mix`` is the probability of choosing a 0-extension; 1-extensions fall
    back to 0-extensions while fewer than three edges remain.  (Splitting
    an edge of a two-edge framework leaves a single edge, and a rigid
    framework with exactly one edge is never minimal: its angle rows alone
    must already reach rank 2n-4, so the surviving edge is removable.
    Splitting the last edge breaks the count balance outright.)  Every
    step is rejection-sampled until the extended framework passes the
    single-removal minimality test, which one SVD of ``R_W`` decides: the
    framework must be rigid, its constraint rows independent, and its edge
    count not exactly one.  A step that fails 1000 attempts raises
    PlacementExhausted.  Deterministic for a fixed ``rng_seed``.
    """
    if not is_minimally_weakly_rigid(seed_framework):
        raise SeedNotRigid("growth seed must be minimally (weakly) rigid")
    rng = np.random.default_rng(rng_seed)
    frameworks = [seed_framework]
    log: list[ExtensionStep] = []
    f = seed_framework
    for _ in range(steps):
        accepted = None
        for _attempt in range(MAX_PLACEMENT_ATTEMPTS):
            want_zero = rng.random() < mix or f.graph.m <= 2
            lo = f.positions.min(axis=0)
            hi = f.positions.max(axis=0)
            diameter = float(np.linalg.norm(hi - lo))
            pos = lo - 0.5 * diameter + rng.random(2) * (hi - lo + diameter)
            nu = f.graph.n
            if want_zero:
                i, j = (int(v) for v in rng.choice(nu, size=2, replace=False))
                new_angles = [(i, j, nu), (j, i, nu)]
                if not _placement_ok(f, pos, new_angles, diameter):
                    continue
                try:
                    candidate = weakly_rigid_0_extension(f, i, j, pos)
                except (CollinearPlacement, CollocatedPoints):
                    continue
                step = ExtensionStep(
                    kind=KIND_0_EXTENSION,
                    new_vertex=nu,
                    anchors=(i, j),
                    added_angles=((i, j, nu), (j, i, nu)),
                    new_position=(float(pos[0]), float(pos[1])),
                )
            else:
                i, j = f.graph.edges[int(rng.integers(f.graph.m))]
                others = [v for v in range(nu) if v not in (i, j)]
                k = int(others[int(rng.integers(len(others)))])
                new_angles = [(i, j, nu), (j, i, nu), (k, i, j)]
                if not _placement_ok(f, pos, new_angles, diameter):
                    continue
                try:
                    candidate = weakly_rigid_1_extension(f, i, j, k, pos)
                except (CollinearPlacement, CollocatedPoints):
                    continue
                step = ExtensionStep(
                    kind=KIND_1_EXTENSION,
                    new_vertex=nu,
                    anchors=(i, j, k),
                    added_angles=((i, j, nu), (j, i, nu), (k, i, j)),
                    new_position=(float(pos[0]), float(pos[1])),
                    removed_edge=(i, j),
                )
            if is_minimally_weakly_rigid(candidate):
                accepted = (candidate, step)
                break
        if accepted is None:
            raise PlacementExhausted(
                f"no acceptable extension after {MAX_PLACEMENT_ATTEMPTS} attempts at n={f.graph.n}"
            )
        f, step = accepted
        frameworks.append(f)
        log.append(step)
    return GrowthResult(frameworks=tuple(frameworks), steps=tuple(log))


def replay_growth(seed_framework: Framework, steps) -> GrowthResult:
    """Reconstruct a growth sequence from recorded steps."""
    frameworks = [seed_framework]
    for step in steps:
        frameworks.append(apply_extension(frameworks[-1], step))
    return GrowthResult(frameworks=tuple(frameworks), steps=tuple(steps))
