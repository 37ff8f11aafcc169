"""The exact rank oracle ``exact_rank`` against the float rank test.

Each framework in ``CERTIFIED`` is rigid at full row rank modulo
``2^61 - 1``, so its rank over Q is certified, and the float rank must
agree.  They include the frameworks behind every pinned growth output.
"""

from __future__ import annotations

import numpy as np
import pytest

from weakrig import Framework, Graph, build_graph, grow_random
from weakrig.cli import K3_SEED
from weakrig.rigidity import DEFAULT_RANK_TOL, _rank_test

from conftest import (
    RHOMBUS_VARIANTS,
    exact_rank,
    random_framework,
    rhombus_framework,
    seven_edge_seed,
)


def seven_edge_growth() -> Framework:
    """``test_golden_one_extensions``' growth: five of its eight steps split an edge."""
    return grow_random(seven_edge_seed(), steps=8, rng_seed=0, mix=0.25).final


def grown(n: int, seed: int, mix: float = 0.5) -> Framework:
    """What ``weakrig grow --n n --seed seed --mix mix`` writes."""
    return grow_random(K3_SEED, steps=n - 3, rng_seed=seed, mix=mix).final


CERTIFIED = {
    "triangle": lambda: K3_SEED,
    **{f"rhombus-{v}": (lambda v=v: rhombus_framework(v)) for v in RHOMBUS_VARIANTS},
    "grow-n12-seed42": lambda: grown(12, 42),
    "grow-n20-seed7": lambda: grown(20, 7),
    "grow-n16-seed3-mix0": lambda: grown(16, 3, mix=0.0),
    "seven-edge-splits": seven_edge_growth,
}


def ranks(f: Framework) -> tuple[int, int, int]:
    """The exact rank, the float rank and the required rank of ``f``."""
    _, rank, required, _ = _rank_test(f, DEFAULT_RANK_TOL)
    return exact_rank(f), rank, required


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_exact_rank_certifies_the_float_rank(name):
    exact, float_rank, required = ranks(CERTIFIED[name]())
    assert exact == float_rank == required


def test_exact_rank_in_3d(tetra_mixed_3d):
    exact, float_rank, required = ranks(tetra_mixed_3d)
    assert exact == float_rank == required == 6


def test_exact_rank_is_the_float_rank_on_random_frameworks():
    # Small, well-separated and mostly not rigid: the float rank is safe here.
    rng = np.random.default_rng(0)
    frameworks = [random_framework(rng) for _ in range(60)]
    assert [exact_rank(f) for f in frameworks] == [ranks(f)[1] for f in frameworks]


def test_dropping_any_constraint_loses_one_rank():
    f = grown(12, 42)
    g, full = f.graph, exact_rank(f)
    dropped = [Graph(g.n, g.edges[:e] + g.edges[e + 1:], g.angles) for e in range(g.m)]
    dropped += [Graph(g.n, g.edges, g.angles[:a] + g.angles[a + 1:]) for a in range(g.q)]
    assert full == g.constraint_count
    assert [exact_rank(Framework(h, 2, f.positions)) for h in dropped] == [full - 1] * len(dropped)


def test_square_without_a_diagonal_is_flexible():
    square = Framework(build_graph(4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)]), 2,
                       np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert exact_rank(square) == 4 < ranks(square)[2] == 5
