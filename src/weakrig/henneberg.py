"""Modified Henneberg construction for minimally weakly rigid frameworks in 2D.

A 0-extension adjoins a vertex and two new subtended angles anchored at an
existing vertex pair; a 1-extension removes one edge and adjoins a vertex
with three new angles (the third one, at a witness vertex, replaces the
removed edge).  Both add one vertex and a net of two constraints,
preserving the count ``|E| + |A| = 2n - 3``, and one checked builder
makes both.  Growth proposes :class:`ExtensionStep` records and keeps a
built step whose new vertex is placed well; a 0-extension of a minimal
framework is then minimal by the extension theorem, so only a
1-extension also has to pass the rank test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Framework, Graph, angle_key, edge_key
from .errors import (
    BadAnchor,
    CollinearPlacement,
    CollocatedPoints,
    DuplicateConstraint,
    EdgeNotFound,
    PlacementExhausted,
    SeedNotRigid,
)
from .rigidity import is_minimally_weakly_rigid

MIN_ANGLE_DEG = 5.0
DEFAULT_MIX = 0.5  # probability of a 0-extension per growth step
MAX_ABS_COSINE = math.cos(math.radians(MIN_ANGLE_DEG))
MIN_SEPARATION_FRACTION = 0.1
MAX_PLACEMENT_ATTEMPTS = 1000
# Growth places from a parent of diameter below this, ~4.8e76: a ray in its region is at most
# (1 + sqrt 2) diameters long, so the placement bounds' |a|^2 |b|^2 stays below the float maximum.
MAX_GROWTH_DIAMETER = math.sqrt(math.sqrt(np.finfo(float).max)) / (1.0 + math.sqrt(2.0))

KIND_0_EXTENSION = "0-extension"
KIND_1_EXTENSION = "1-extension"

# Why growth rejects a proposal; GrowthResult counts each under this name.
UNBUILDABLE = "unbuildable"
TOO_CLOSE = "too_close"
SMALL_ANGLE = "small_angle"
NOT_MINIMAL = "not_minimal"


def _added_angles(i: int, j: int, v: int, k: int | None = None) -> tuple[tuple[int, int, int], ...]:
    """The angles an extension adds for vertex ``v``, as stored: at ``i``, ``j``, then at ``k``."""
    new = (angle_key(i, j, v), angle_key(j, i, v))
    return new if k is None else (*new, angle_key(k, i, j))


@dataclass(frozen=True)
class ExtensionStep:
    """One construction step: a growth proposal, and once accepted a growth-log line.

    ``anchors`` are ``(i, j)``, or ``(i, j, k)`` (split edge, then witness);
    the log line adds the angles and removed edge they give, as stored.
    """

    kind: str
    new_vertex: int
    anchors: tuple[int, ...]
    new_position: tuple[float, float]

    def to_dict(self) -> dict:
        i, j, *k = self.anchors
        return {
            "kind": self.kind,
            "new_vertex": self.new_vertex,
            "anchors": list(self.anchors),
            "added_angles": [list(a) for a in _added_angles(i, j, self.new_vertex, *k)],
            "new_position": list(self.new_position),
            "removed_edge": list(edge_key(i, j)) if self.kind == KIND_1_EXTENSION else None,
        }


def _extend(f: Framework, i: int, j: int, pos, witness: int | None = None) -> Framework:
    """The one builder of both moves: ``f`` plus a vertex at ``pos`` seen from ``i`` and ``j``.

    A ``witness`` ``k`` makes it a 1-extension: edge ``(i, j)`` is removed
    and angle ``(k, i, j)`` added.  Bad input raises before anything is
    built; then :class:`Framework` checks the positions, and a point on the
    line through ``i`` and ``j`` raises CollinearPlacement.
    """
    if f.dim != 2:
        raise ValueError("an extension is defined for dim 2")
    pos = np.asarray(pos, float)
    if pos.shape != (2,):
        raise ValueError(f"new position must be 2 coordinates, got {pos.tolist()}")
    n = f.graph.n
    if not (0 <= i < n and 0 <= j < n):
        raise BadAnchor(f"anchor ({i},{j}) out of range for n={n}")
    if i == j:
        raise BadAnchor(f"anchors must be distinct, got ({i},{j})")
    edges, added = f.graph.edges, _added_angles(i, j, n, witness)
    if witness is not None:
        edge = edge_key(i, j)
        if edge not in edges:
            raise EdgeNotFound(f"edge {edge} is not in the graph")
        if not 0 <= witness < n:
            raise BadAnchor(f"witness vertex {witness} out of range for n={n}")
        if witness in (i, j):
            raise BadAnchor(f"witness vertex {witness} must differ from the split edge {edge}")
        if added[2] in f.graph.angles:
            raise DuplicateConstraint(f"angle {added[2]} appears more than once")
        edges = tuple(e for e in edges if e != edge)
    graph = Graph(n=n + 1, edges=edges, angles=f.graph.angles + added)
    extended = Framework(graph=graph, dim=2, positions=np.concatenate([f.positions, pos[None]]))
    a = f.positions[j] - f.positions[i]
    b = pos - f.positions[i]
    cross = abs(float(a[0] * b[1] - a[1] * b[0]))
    if cross < 1e-9 * float(np.linalg.norm(a)) * float(np.linalg.norm(b)):
        raise CollinearPlacement(f"new position lies on the line through vertices {i} and {j}")
    return extended


def weakly_rigid_0_extension(f: Framework, i: int, j: int, pos) -> Framework:
    """Adjoin a vertex at ``pos`` plus the two angles at ``i`` and ``j`` toward it."""
    return _extend(f, i, j, pos)


def weakly_rigid_1_extension(f: Framework, i: int, j: int, k: int, pos) -> Framework:
    """Split edge ``(i, j)``: remove it and adjoin a vertex at ``pos``.

    The new angles sit at ``i`` and ``j`` toward it, and at witness ``k`` toward ``i`` and ``j``.
    """
    return _extend(f, i, j, pos, witness=k)


def apply_extension(f: Framework, step: ExtensionStep) -> Framework:
    """Build the framework that ``step`` makes of ``f``, once the step fits ``f``."""
    if step.kind not in (KIND_0_EXTENSION, KIND_1_EXTENSION):
        raise ValueError(f"unknown extension kind {step.kind!r}")
    count = 2 if step.kind == KIND_0_EXTENSION else 3
    if len(step.anchors) != count:
        raise BadAnchor(f"a {step.kind} takes {count} anchors, got {len(step.anchors)}")
    if step.new_vertex != f.graph.n:
        raise BadAnchor(f"new vertex must be {f.graph.n}, got {step.new_vertex}")
    if step.kind == KIND_0_EXTENSION:
        return weakly_rigid_0_extension(f, *step.anchors, step.new_position)
    return weakly_rigid_1_extension(f, *step.anchors, step.new_position)


@dataclass(frozen=True)
class GrowthResult:
    """Seed plus every intermediate framework and the steps between them.

    ``apply_extension(frameworks[t], steps[t])`` gives ``frameworks[t + 1]``.
    ``attempts[t]`` proposals were drawn for step ``t``; every one but the
    last was rejected, and the other four fields count the rejections by
    cause (the keys :func:`_rejection` returns, plus UNBUILDABLE).
    """

    frameworks: tuple[Framework, ...]
    steps: tuple[ExtensionStep, ...]
    attempts: tuple[int, ...]
    unbuildable: int
    too_close: int
    small_angle: int
    not_minimal: int

    @property
    def final(self) -> Framework:
        return self.frameworks[-1]


def _box(positions: np.ndarray) -> tuple[tuple[float, float], tuple[float, float], float]:
    """The proposal region of a parent at ``positions``, in Python floats, and its diameter.

    The region is the bounding box ``[lo, hi]`` widened by half the
    diameter, its diagonal, on each side: its origin ``lo - 0.5 * diameter``
    and its span ``hi - lo + diameter``, each formed as the numpy
    expression forms it, so with the same bits.
    """
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    half = 0.5 * diameter
    (x0, y0), (x1, y1) = lo.tolist(), hi.tolist()
    return (x0 - half, y0 - half), (x1 - x0 + diameter, y1 - y0 + diameter), diameter


def _placement_box(positions: np.ndarray):
    """:func:`_box`, or ValueError past MAX_GROWTH_DIAMETER, where a cosine can read 0 unseen."""
    with np.errstate(over="ignore"):  # a diameter past the float range reads inf
        box = _box(positions)
    if not box[2] < MAX_GROWTH_DIAMETER:
        raise ValueError(f"growth's placement bounds overflow at diameter {box[2]:.6g}: "
                         f"it must be below {MAX_GROWTH_DIAMETER:.2g}")
    return box


def _propose(f: Framework, rng: np.random.Generator, mix: float, box) -> ExtensionStep:
    """Draw a random extension of ``f``; the draw order fixes every seed's output.

    The kind, the position (uniform in ``f``'s :func:`_box` region, as
    ``origin + r * span`` per coordinate, the bits of ``lo - 0.5 * diameter
    + r * (hi - lo + diameter)``), then the anchor pair, or the split edge
    and the witness.  The pair is ``rng.choice(nu, 2, replace=False)``'s, bit for bit.
    """
    zero = rng.random() < mix or f.graph.m <= 2
    (ox, oy), (sx, sy), _ = box
    rx, ry = rng.random(2).tolist()
    position = (ox + rx * sx, oy + ry * sy)
    nu = f.graph.n
    if zero:
        i, j = int(rng.integers(nu - 1)), int(rng.integers(nu))
        pair = (i, nu - 1 if j == i else j)  # numpy's Floyd draw, then its shuffle:
        pair = pair if rng.integers(2) else pair[::-1]  # a swap on a 0, at half the cost
        return ExtensionStep(KIND_0_EXTENSION, nu, pair, position)
    i, j = f.graph.edges[int(rng.integers(f.graph.m))]
    others = [v for v in range(nu) if v not in (i, j)]
    k = others[int(rng.integers(len(others)))]
    return ExtensionStep(KIND_1_EXTENSION, nu, (i, j, k), position)


def _cosine(apex, a, b) -> float:
    """The unclamped cosine at ``apex`` toward ``a`` and ``b``: :func:`constraint_kernel`'s bits."""
    (kx, ky), (ax, ay), (bx, by) = apex, a, b
    ax, ay, bx, by = ax - kx, ay - ky, bx - kx, by - ky
    inv = 1.0 / math.sqrt((ax * ax + ay * ay) * (bx * bx + by * by))
    return ((0.0 + ax * bx) + ay * by) * inv


def _rejection(candidate: Framework, step: ExtensionStep, diameter: float) -> str | None:
    """Why growth rejects a built candidate, or None to accept it.

    TOO_CLOSE: the new vertex is nearer than ``MIN_SEPARATION_FRACTION``
    of the parent's ``diameter`` (see :func:`_box`) to another vertex.
    SMALL_ANGLE: a new angle lies within ``MIN_ANGLE_DEG`` of 0 or 180
    degrees.  Both run in Python floats on the points the step touches,
    with :func:`constraint_kernel`'s bits; a NaN cosine (past the float
    range, where all are 0 or NaN) decides as numpy's ``max`` would.
    NOT_MINIMAL: a 1-extension fails :func:`is_minimally_weakly_rigid`.

    A 0-extension needs no rank test, by the extension theorem (Tay &
    Whiteley, "Generating isostatic frameworks", 1985):

    - The parent is minimal: :func:`grow_random` checks the seed, and every
      later parent is a step it accepted.  So the parent's ``R_W`` has full
      row rank, at its required rank.
    - The two new cosine rows are the only rows that touch the new vertex
      ``v``'s columns, so the new ``R_W`` is block lower-triangular.  It has
      full row rank iff the 2x2 block ``B`` of the new rows at ``v`` is
      nonsingular, and the required rank grows by exactly 2, with or
      without edges.  Full row rank at the required rank leaves no row
      removable; the edges are the parent's, so there is no lone edge.
    - ``B`` is singular iff ``v`` lies on the line through its anchors
      ``i`` and ``j``.  The 5 degree bound on the new cosine at ``i``
      already rules that out, so no further tolerance is needed.
    """
    *parent, v = candidate.positions.tolist()
    vx, vy = v
    nearest = min([(x - vx) * (x - vx) + (y - vy) * (y - vy) for x, y in parent])
    if math.sqrt(nearest) < MIN_SEPARATION_FRACTION * diameter:
        return TOO_CLOSE
    i, j, *k = (parent[a] for a in step.anchors)
    cosines = [_cosine(i, j, v), _cosine(j, i, v), *(_cosine(w, i, j) for w in k)]
    if max(map(abs, cosines)) >= MAX_ABS_COSINE:
        return SMALL_ANGLE
    if step.kind == KIND_1_EXTENSION and not is_minimally_weakly_rigid(candidate):
        return NOT_MINIMAL
    return None


@functools.lru_cache(maxsize=64)
def _seed_is_minimal(seed: Framework) -> bool:
    """:func:`is_minimally_weakly_rigid` of a seed; equal seeds (by value) share one verdict."""
    return bool(is_minimally_weakly_rigid(seed))


def grow_random(seed_framework: Framework, steps: int, rng_seed: int,
                mix: float = DEFAULT_MIX) -> GrowthResult:
    """Grow a minimally weakly rigid framework by random extensions.

    ``mix`` is the probability of choosing a 0-extension; 1-extensions fall
    back to 0-extensions while fewer than three edges remain.  (Splitting
    an edge of a two-edge framework leaves a single edge, and a rigid
    framework with exactly one edge is never minimal: its angle rows alone
    must already reach rank 2n-4, so the surviving edge is removable.
    Splitting the last edge breaks the count balance outright.)  Each
    attempt builds a proposed step and keeps it unless it cannot be built
    (collinear or collocated, or re-adding an angle the graph has) or
    :func:`_rejection` names a cause.  The parent's :func:`_placement_box`
    is measured once per step, for every proposal and its rejection test;
    an attempt otherwise pays only for what it adds.  A step that fails
    1000 attempts raises PlacementExhausted; a seed that is not 2D, or a
    parent too large for the placement bounds, ValueError; a seed that is
    not minimal, SeedNotRigid, tested once per process for equal seeds.
    Deterministic for a fixed ``rng_seed``.
    """
    if steps < 0:
        raise ValueError(f"growth steps must be >= 0, got {steps}")
    if not 0.0 <= mix <= 1.0:  # nan too
        raise ValueError(f"mix must be in [0, 1], got {mix}")
    if seed_framework.dim != 2:
        raise ValueError("growth is defined for dim 2")
    box = _placement_box(seed_framework.positions)  # first: past ~1e154 the rank test overflows
    if not _seed_is_minimal(seed_framework):
        raise SeedNotRigid("growth seed must be minimally (weakly) rigid")
    rng = np.random.default_rng(rng_seed)
    frameworks = [seed_framework]
    log: list[ExtensionStep] = []
    attempts: list[int] = []
    rejected = dict.fromkeys((UNBUILDABLE, TOO_CLOSE, SMALL_ANGLE, NOT_MINIMAL), 0)
    for _ in range(steps):
        f = frameworks[-1]
        if f is not seed_framework:  # the seed's box is measured
            box = _placement_box(f.positions)
        for attempt in range(1, MAX_PLACEMENT_ATTEMPTS + 1):
            step = _propose(f, rng, mix, box)
            try:
                candidate = apply_extension(f, step)
            except (CollinearPlacement, CollocatedPoints, DuplicateConstraint):
                rejected[UNBUILDABLE] += 1
                continue
            cause = _rejection(candidate, step, box[2])
            if cause is None:
                break
            rejected[cause] += 1
        else:
            raise PlacementExhausted(
                f"no acceptable extension after {MAX_PLACEMENT_ATTEMPTS} attempts at n={f.graph.n}"
            )
        frameworks.append(candidate)
        log.append(step)
        attempts.append(attempt)
    return GrowthResult(frameworks=tuple(frameworks), steps=tuple(log), attempts=tuple(attempts),
                        **rejected)
