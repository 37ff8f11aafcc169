"""Shared fixtures: reference frameworks and random-framework generators."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from weakrig import Framework, MinimalityResult, TargetSpec, build_graph, canonical_targets
from weakrig.rigidity import _rank_cut, _rank_test

# Triangle used throughout the construction examples (near-equilateral, side ~2).
TRIANGLE_POS = np.array([[-1.732, 0.0], [0.0, 1.0], [0.0, -1.0]])

# Four-point rhombus used by the rigidity examples.
RHOMBUS_POS = np.array([[0.0, 1.0], [-1.732, 0.0], [0.0, -1.0], [1.732, 0.0]])

# The six constraint characterizations of the same rhombus shape, from five
# distance edges down to five angles.
RHOMBUS_VARIANTS = {
    "a": (((0, 1), (0, 3), (1, 2), (2, 3), (1, 3)), ()),
    "b": (((0, 3), (1, 2), (2, 3), (1, 3)), ((0, 1, 3),)),
    "c": (((0, 3), (1, 2), (2, 3)), ((0, 1, 3), (2, 1, 3))),
    "d": (((0, 3), (2, 3)), ((0, 1, 3), (2, 1, 3), (3, 1, 2))),
    "e": (((2, 3),), ((0, 1, 3), (2, 1, 3), (3, 1, 2), (1, 0, 3))),
    "f": ((), ((0, 1, 3), (2, 1, 3), (3, 1, 2), (1, 0, 3), (1, 2, 3))),
}

# Three-agent benchmark scenario: two squared distances and one 40-degree angle.
BENCH_INITIAL = np.array([[-3.0, 0.0], [1.0, 1.0], [-1.0, -3.0]])
BENCH_TARGETS = (8.0, 9.0, math.cos(math.radians(40.0)))

# Files JSON cannot decode other than by a syntax error: (bytes, what the error says).
UNDECODABLE_JSON = {
    "not-utf8": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    "too-many-digits": (b'{"dim": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    "too-deep": (b"[" * 100_000, "maximum recursion depth exceeded"),
}


def framework_to_dict(f: Framework) -> dict:
    """The document a framework file holds: the reference ``fileio.framework_to_json`` encodes."""
    return {
        "dim": f.dim,
        "positions": [[float(c) for c in row] for row in f.positions],
        "edges": [list(e) for e in f.graph.edges],
        "angles": [list(a) for a in f.graph.angles],
    }


def rhombus_framework(variant: str) -> Framework:
    edges, angles = RHOMBUS_VARIANTS[variant]
    return Framework(build_graph(4, edges=edges, angles=angles), 2, RHOMBUS_POS)


@pytest.fixture
def triangle_k3() -> Framework:
    return Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)


@pytest.fixture
def triangle_two_edges_one_angle() -> Framework:
    return Framework(build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)]), 2, TRIANGLE_POS)


@pytest.fixture
def bench_initial() -> Framework:
    g = build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])
    return Framework(g, 2, BENCH_INITIAL)


@pytest.fixture
def bench_targets() -> TargetSpec:
    return canonical_targets(*BENCH_TARGETS)


@pytest.fixture
def tetra_mixed_3d() -> Framework:
    g = build_graph(4, edges=[(0, 1), (0, 2), (0, 3)], angles=[(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return Framework(g, 3, pos)


def seven_edge_seed() -> Framework:
    """Minimally rigid on five vertices with seven edges, so most steps can split one."""
    g = build_graph(5, edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    return Framework(g, 2, np.array([[0.0, 0.0], [2.0, 0.3], [0.8, 1.7], [2.6, 2.1], [1.1, 3.4]]))


def random_positions(rng, n, dim=2, min_sep=0.3):
    """Well-separated random points, rejection-sampled."""
    while True:
        pos = rng.normal(scale=2.0, size=(n, dim))
        ok = all(
            np.linalg.norm(pos[i] - pos[j]) > min_sep
            for i in range(n) for j in range(i + 1, n)
        )
        if ok:
            return pos


def random_framework(rng, n=None, allow_empty_edges=True, min_constraints=1):
    """Random 2D framework on 3..6 vertices with a mixed constraint set."""
    n = int(n or rng.integers(3, 7))
    pos = random_positions(rng, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    triples = [
        (k, i, j)
        for k in range(n) for i in range(n) for j in range(i + 1, n)
        if k != i and k != j
    ]
    while True:
        if allow_empty_edges and rng.random() < 0.3:
            edges = []
        else:
            m = int(rng.integers(0, len(pairs) + 1))
            edges = [pairs[t] for t in rng.choice(len(pairs), size=m, replace=False)]
        q = int(rng.integers(0, min(len(triples), 6) + 1))
        angles = [triples[t] for t in rng.choice(len(triples), size=q, replace=False)]
        if len(edges) + len(angles) >= min_constraints:
            return Framework(build_graph(n, edges=edges, angles=angles), 2, pos)


def random_three_agent_state(rng):
    g = build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])
    return Framework(g, 2, random_positions(rng, 3))


def random_targets(rng):
    return canonical_targets(
        float(rng.uniform(0.5, 12.0)),
        float(rng.uniform(0.5, 12.0)),
        float(rng.uniform(-0.95, 0.95)),
    )


def spare_edge_framework(tail_first: bool = False) -> Framework:
    """K4 with all six edges, plus vertex 4 on edges ``(0, 4)`` and ``(1, 4)``, nearly in
    line with 0 and 1: eight constraints at rank 7, the required rank, so one is spare.
    The tail's two edges come last, or first with ``tail_first``."""
    k4, tail = [(i, j) for i in range(4) for j in range(i + 1, 4)], [(0, 4), (1, 4)]
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 1.1], [1.3, 0.9], [2.0, 1e-8]])
    return Framework(build_graph(5, edges=tail + k4 if tail_first else k4 + tail), 2, pos)


def full_svd_minimality(f: Framework, rel_tol: float = 1e-9) -> MinimalityResult:
    """The single-removal minimality test ranked from one full SVD of ``R_W``.

    The implementation that ranking from the singular values alone
    replaced, kept as an oracle: it reads the left null space even at full
    row rank, where it is empty.  Its weight threshold can miss every row
    of a framework with a spare one and fall through to minimal, as on
    :func:`spare_edge_framework`.
    """
    R, _, required, _ = _rank_test(f, rel_tol)
    U, s, _ = np.linalg.svd(R.matrix)
    rank = _rank_cut(s, rel_tol)
    g = f.graph
    if rank != required:
        return MinimalityResult(minimal=False, reason="not rigid")
    weight = np.linalg.norm(U[:, rank:], axis=1)
    removable = weight * s[rank - 1] > rel_tol * s[0]
    for row in [*range(g.m, g.m + g.q), *range(g.m)]:
        if removable[row]:
            return MinimalityResult(False, "removable constraint", R.row_labels[row])
    if g.m == 1:
        return MinimalityResult(False, "removable constraint", R.row_labels[0])
    return MinimalityResult(minimal=True, reason="rigid and no constraint removable")


EXACT_RANK_PRIME = 2**61 - 1


def exact_rank(f: Framework) -> int:
    """The rank of ``R_W`` modulo ``2^61 - 1``, from integers and without a tolerance.

    Float coordinates are dyadic rationals, so one power of two scales them
    to integers.  A distance row stays ``2z``.  A cosine row with rays
    ``a``, ``b`` from its apex is multiplied by ``|a|^3 |b|^3``: its tips
    get ``|b|^2 (|a|^2 b - (a.b) a)`` and ``|a|^2 (|b|^2 a - (a.b) b)``,
    and the apex minus their sum.  Scaling keeps the rank, and the rank
    modulo a prime is never above the rank over Q, so the required rank
    here certifies ``f`` infinitesimally weakly rigid at exactly its
    positions.
    """
    exact = [[Fraction(c) for c in point] for point in f.positions.tolist()]
    scale = max(c.denominator for point in exact for c in point)
    pts = [[int(c * scale) for c in point] for point in exact]
    d = f.dim

    def row(*blocks):
        entries = [0] * (d * f.n)
        for v, block in blocks:
            entries[d * v:d * v + d] = block
        return entries

    rows = []
    for i, j in f.graph.edges:
        z = [x - y for x, y in zip(pts[i], pts[j])]
        rows.append(row((i, [2 * x for x in z]), (j, [-2 * x for x in z])))
    for k, i, j in f.graph.angles:
        a = [x - y for x, y in zip(pts[i], pts[k])]
        b = [x - y for x, y in zip(pts[j], pts[k])]
        aa, bb, ab = (sum(x * y for x, y in zip(u, w)) for u, w in ((a, a), (b, b), (a, b)))
        tip_i = [bb * (aa * y - ab * x) for x, y in zip(a, b)]
        tip_j = [aa * (bb * x - ab * y) for x, y in zip(a, b)]
        rows.append(row((i, tip_i), (j, tip_j), (k, [-x - y for x, y in zip(tip_i, tip_j)])))
    p, rank = EXACT_RANK_PRIME, 0
    rows = [[x % p for x in r] for r in rows]
    for col in range(d * f.n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        top = [x * inverse % p for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], top)]
        rank += 1
    return rank
