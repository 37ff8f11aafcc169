"""Graph/framework data model and geometric primitives.

A constraint graph carries an undirected edge set (distance constraints)
and a set of ordered angle triples ``(k, i, j)``: the angle at apex ``k``
subtended by the rays toward ``i`` and ``j``.  A framework attaches a 2D
or 3D configuration to the graph.  Vertices are 0-based everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollocatedPoints,
    DegenerateAngleTriple,
    DuplicateConstraint,
    IndexOutOfRange,
    SelfLoop,
)

# Two points closer than this (relative to coordinate magnitude) count as one.
COLLOCATION_REL_TOL = 1e-9
_ZERO, _ONE, _MINUS_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)  # read-only ufunc operands

Edge = tuple[int, int]
AngleTriple = tuple[int, int, int]


@dataclass(frozen=True)
class Graph:
    """Constraint graph: ``n`` vertices, normalized edges and angle triples.

    Edges are stored in input order as :func:`edge_key` gives them, angle
    triples as :func:`angle_key` gives them.
    Use :func:`build_graph` to construct one with validation.
    """

    n: int
    edges: tuple[Edge, ...] = ()
    angles: tuple[AngleTriple, ...] = ()

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def q(self) -> int:
        return len(self.angles)

    @property
    def constraint_count(self) -> int:
        return len(self.edges) + len(self.angles)


def edge_key(i: int, j: int) -> Edge:
    """The stored form of edge ``(i, j)``: ``(min, max)``."""
    return (i, j) if i < j else (j, i)


def angle_key(k: int, i: int, j: int) -> AngleTriple:
    """The stored form of angle ``(k, i, j)``: the apex, then ``(min, max)``."""
    return (k, i, j) if i < j else (k, j, i)


def build_graph(n, edges=(), angles=()) -> Graph:
    """Validate and normalize a constraint graph, each entry once, edges first.

    Raises IndexOutOfRange, SelfLoop, DegenerateAngleTriple or
    DuplicateConstraint on malformed input, ValueError on an entry of the
    wrong arity.
    """
    if n < 1:
        raise IndexOutOfRange(f"vertex count must be positive, got {n}")
    seen: set[tuple] = set()
    kept = []
    for kind, key_rule, repeated, wording, entries in (  # the unpacking checks the arity
            ("edge", edge_key, SelfLoop, "is a self-loop", ((i, j) for i, j in edges)),
            ("angle", angle_key, DegenerateAngleTriple, "repeats a vertex",
             ((k, i, j) for k, i, j in angles))):
        keys = []
        for vs in entries:
            for v in vs:
                if not 0 <= v < n:
                    raise IndexOutOfRange(f"{kind} ({','.join(map(str, vs))}) refers to vertex "
                                          f"{v}, valid range is 0..{n - 1}")
            if len(set(vs)) < len(vs):
                raise repeated(f"{kind} ({','.join(map(str, vs))}) {wording}")
            key = key_rule(*vs)
            if key in seen:
                raise DuplicateConstraint(f"{kind} {key} appears more than once")
            seen.add(key)
            keys.append(key)
        kept.append(tuple(keys))
    return Graph(n, *kept)


def induced_distance_closure(g: Graph) -> Graph:
    """Convert every angle into its three support edges; drop all angles.

    Original edges come first in their input order; edges contributed by
    angles follow in sorted order.
    """
    added = {e for k, i, j in g.angles for e in (edge_key(i, j), edge_key(i, k), edge_key(j, k))}
    return Graph(n=g.n, edges=g.edges + tuple(sorted(added - set(g.edges))))


def collocation_tolerance_at(big: float) -> float:
    """Separation below which two points count as collocated, for points with ``max|p| = big``."""
    return COLLOCATION_REL_TOL * (1.0 + big)


def collocation_tolerance(positions: np.ndarray) -> float:
    """Separation below which two points count as collocated."""
    return collocation_tolerance_at(float(np.abs(positions).max(initial=0.0)))


@functools.lru_cache(maxsize=16)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every pair ``i < j`` of ``n`` points."""
    return np.triu_indices(n, 1)


def coordinate_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a * b, axis=-1)`` of 2 or 3 columns, bit for bit, as cheaper column adds."""
    ab = a * b  # the reduction adds to +0.0 first, so all -0.0 terms give +0.0; no square is -0.0
    s = (ab[..., 0] if a is b else _ZERO + ab[..., 0]) + ab[..., 1]
    if ab.shape[-1] == 3:
        s += ab[..., 2]
    return s


def min_separation(positions: np.ndarray) -> float:
    """Smallest pairwise distance between the given points (``inf`` for one point)."""
    positions = np.asarray(positions, float)
    n = positions.shape[0]
    if n < 2:
        return math.inf
    i, j = _pairs(n)
    diff = positions.take(i, axis=0) - positions.take(j, axis=0)
    return math.sqrt(coordinate_dot(diff, diff).min())


def vector_norm(v) -> float:
    """Euclidean norm of all entries of ``v``: ``math.hypot``, within 1 ulp, never over- or
    underflowing (an inf entry gives inf, else a NaN gives NaN; no entries give 0.0)."""
    return math.hypot(*np.ravel(v).tolist())


def collocated(positions: np.ndarray) -> bool:
    """Whether two of the points are closer than :func:`collocation_tolerance`."""
    return min_separation(positions) < collocation_tolerance(positions)


@dataclass(frozen=True, eq=False)
class Framework:
    """A graph together with a configuration in dimension 2 or 3, equal by value (``__eq__``)."""

    graph: Graph
    dim: int
    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))  # 3.0 would index as a float
        pos = np.asarray(self.positions, dtype=float)
        if pos.shape != (self.graph.n, self.dim):
            raise ValueError(
                f"positions must have shape ({self.graph.n}, {self.dim}), got {pos.shape}"
            )
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if collocated(pos):
            raise CollocatedPoints("two vertex positions coincide")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def __eq__(self, other):  # graph, dim and position bytes, as __hash__
        if not isinstance(other, Framework):
            return NotImplemented
        return ((self.graph, self.dim, self.positions.tobytes())
                == (other.graph, other.dim, other.positions.tobytes()))

    def __hash__(self):
        return hash((self.graph, self.dim, self.positions.tobytes()))

    @property
    def n(self) -> int:
        return self.graph.n

    def config(self) -> np.ndarray:
        """Stacked configuration vector (length ``dim * n``)."""
        return self.positions.ravel().copy()

    def with_positions(self, positions) -> "Framework":
        return Framework(graph=self.graph, dim=self.dim, positions=np.asarray(positions, float))
