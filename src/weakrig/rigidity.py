"""Weak rigidity matrix, rank analysis, and rigidity classification.

The weak rigidity function of a framework in ``R^d`` (``d`` = 2 or 3)
stacks the squared edge lengths followed by the cosines of the
constrained angles; its Jacobian with respect to the configuration is the
weak rigidity matrix ``R_W``.  One rank test serves both dimensions: a
framework is infinitesimally weakly rigid iff ``R_W`` reaches rank
``d n - d(d+1)/2``, one less when there are no distance edges (uniform
scaling then also preserves every constraint), i.e. iff its only
infinitesimal motions are the trivial ones.  The verdict is that
infinitesimal property of the given configuration, in both directions; it
implies weak rigidity, and the converse holds at generic configurations
(Asimow & Roth, "The rigidity of graphs", 1978).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (_MINUS_ONE, _ONE, Framework, Graph, collocated, collocation_tolerance,
                   coordinate_dot, min_separation)
from .errors import CollocatedPoints, DegenerateConfiguration, EmptyEdgeSet

DEFAULT_RANK_TOL = 1e-9
DEFAULT_FD_STEP = 1e-6  # central-difference step of the finite-difference Jacobians

RowLabel = tuple[str, tuple]

# (rigid, flexible) verdicts of the rank test.
VERDICTS = ("infinitesimally weakly rigid", "not infinitesimally weakly rigid")


def cosine_edge_partials(za, zb, zc):
    """Partials of the cosine with respect to its three edge vectors.

    ``za`` and ``zb`` point from the apex toward the two far vertices and
    ``zc`` connects the far vertices, so the cosine is
    ``(|za|^2 + |zb|^2 - |zc|^2) / (2 |za| |zb|)``.  Returns the three row
    vectors ``(dA/dza, dA/dzb, dA/dzc)``.
    """
    za, zb, zc = (np.asarray(v, float) for v in (za, zb, zc))
    na = float(np.linalg.norm(za))
    nb = float(np.linalg.norm(zb))
    if na == 0.0 or nb == 0.0:
        raise CollocatedPoints("cosine partials need nonzero apex-adjacent edges")
    inv = 1.0 / (na * nb)
    cosv = (na * na + nb * nb - float(zc @ zc)) * 0.5 * inv
    d_a = za * inv - cosv * za / (na * na)
    d_b = zb * inv - cosv * zb / (nb * nb)
    d_c = -zc * inv
    return d_a, d_b, d_c


@dataclass(frozen=True, eq=False)
class CompiledGraph:
    """A constraint graph as index arrays for :func:`constraint_kernel`.

    Constraint vectors are ``p[tails] - p[heads]``, indexing the vertex
    axis: the edge vectors ``p_i - p_j``, then the rays ``p_i - p_k``, then
    the rays ``p_j - p_k`` of the angles ``(k, i, j)``.  The nonzero blocks
    of ``R_W`` sit in rows ``block_rows`` at flat columns ``block_cols`` of
    one configuration, i.e. at ``block_entries`` of the raveled ``R_W``:
    edge rows at ``i``, at ``j``, then angle rows at ``k``, at ``i``, at
    ``j``.  The index tuples after those are the row ranges the kernel slices.
    """

    graph: Graph
    m: int
    q: int
    tails: np.ndarray = field(repr=False)
    heads: np.ndarray = field(repr=False)
    block_rows: np.ndarray = field(repr=False)
    block_cols: np.ndarray = field(repr=False)
    block_entries: np.ndarray = field(repr=False)
    edge_rows: tuple = field(repr=False)    # (..., :m, :) of z and of the blocks
    mirror_rows: tuple = field(repr=False)  # (..., m:2m, :) of the blocks
    ray_rows: tuple = field(repr=False)     # (..., m:, :) of z
    ray_values: tuple = field(repr=False)   # (..., m:) of the squared lengths and of the values
    value_rows: tuple = field(repr=False)   # (..., :m+q) of the squared lengths
    apex_rows: tuple = field(repr=False)    # (..., 2m:2m+q, :) of the blocks
    tip_rows: tuple = field(repr=False)     # (..., 2m+q:, :) of the blocks


# picks that do not depend on the graph: a ray stack's halves and swap, the per-angle broadcast
_FIRST, _SECOND, _SWAP = np.s_[..., 0, :, :], np.s_[..., 1, :, :], np.s_[..., ::-1, :, :]
_FIRST_NORM, _SECOND_NORM = np.s_[..., 0, :], np.s_[..., 1, :]
_PER_ANGLE = np.s_[..., None, :, None]


@functools.lru_cache(maxsize=64)
def compile_graph(g: Graph, dim: int = 2) -> CompiledGraph:
    """Compile ``g`` for ``dim``-dimensional positions; equal graphs share one result.

    An angle that repeats a vertex, which only a hand-built ``Graph`` can
    hold, has a zero-length side at every configuration: CollocatedPoints.
    """
    for k, i, j in g.angles:
        if len({k, i, j}) != 3:
            raise CollocatedPoints(f"angle ({k},{i},{j}) involves collocated points")
    ei, ej = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    k, i, j = np.array(g.angles, dtype=np.intp).reshape(-1, 3).T
    m, q = g.m, g.q
    e_rows, a_rows = np.arange(m), np.arange(m, m + q)
    block_rows = np.concatenate([e_rows, e_rows, a_rows, a_rows, a_rows])[:, None].repeat(dim, 1)
    block_cols = np.concatenate([ei, ej, k, i, j])[:, None] * dim + np.arange(dim)
    return CompiledGraph(g, m, q, np.concatenate([ei, i, j]), np.concatenate([ej, k, k]),
                         block_rows, block_cols, block_rows * (g.n * dim) + block_cols,
                         np.s_[..., :m, :], np.s_[..., m:2 * m, :], np.s_[..., m:, :],
                         np.s_[..., m:], np.s_[..., :m + q], np.s_[..., 2 * m:2 * m + q, :],
                         np.s_[..., 2 * m + q:, :])


def constraint_kernel(positions, cg: CompiledGraph, target_values=None, matrix=False):
    """Constraint values at ``positions`` and, on request, ``R_W`` and ``R_W^T e``.

    ``positions`` is one ``(n, dim)`` configuration or a stack of them,
    ``(..., n, dim)``; every result then carries the same leading axes, and
    each configuration's entries equal, bit for bit, those of a call on it
    alone.  Returns ``(values, R, grad)``: squared edge lengths then cosines
    clamped to [-1, 1]; the dense Jacobian of the unclamped values if
    ``matrix``; ``R_W^T (values - target_values)`` shaped like
    ``positions``, summed per vertex in block order, if targets are given.
    Parts not asked for are None.  The positions are trusted: collocation
    is checked where a configuration is made (:class:`Framework`,
    :func:`central_differences`), and the flow tests each state it records.
    Each numpy call costs more than its arithmetic: no reduction over the
    coordinate axis, blocks written in place, every sum in its order, and
    no index built per call (``cg`` and the module hold every slice).
    """
    m, q, lead, (n, d) = cg.m, cg.q, positions.shape[:-2], positions.shape[-2:]
    z = positions.take(cg.tails, axis=-2) - positions.take(cg.heads, axis=-2)
    sq = coordinate_dot(z, z)
    rays, n2 = z[cg.ray_rows].reshape(lead + (2, q, d)), sq[cg.ray_values].reshape(lead + (2, q))
    inv = _ONE / np.sqrt(n2[_FIRST_NORM] * n2[_SECOND_NORM])
    cos = coordinate_dot(rays[_FIRST], rays[_SECOND]) * inv
    values = sq[cg.value_rows].copy()  # the edges' squared lengths, then room for the cosines
    np.minimum(np.maximum(cos, _MINUS_ONE), _ONE, out=values[cg.ray_values])  # np.clip, no dispatch
    if not matrix and target_values is None:
        return values, None, None
    blocks = np.empty(lead + (2 * m + 3 * q, d))
    edges, head = z[cg.edge_rows], blocks[cg.edge_rows]
    np.add(edges, edges, out=head)  # 2 z, exactly
    np.negative(head, out=blocks[cg.mirror_rows])
    tips = blocks[cg.tip_rows].reshape(lead + (2, q, d))  # gradients at tips i, j
    np.subtract(rays[_SWAP] * inv[_PER_ANGLE], rays * cos[_PER_ANGLE] / n2[..., None], out=tips)
    np.negative(tips[_FIRST] + tips[_SECOND], out=blocks[cg.apex_rows])
    R = grad = None
    if matrix:
        R = np.zeros(lead + (m + q, n * d))
        R.reshape(lead + (-1,))[..., cg.block_entries] = blocks
    if target_values is not None:
        weights = blocks * (values - target_values).take(cg.block_rows, axis=-1)
        cols = cg.block_cols
        if lead:  # one run of bins per configuration
            cols = cols + np.arange(0, positions.size, n * d).reshape(lead + (1, 1))
        grad = np.bincount(cols.ravel(), weights.ravel(), minlength=positions.size)
        grad = grad.reshape(positions.shape)
    return values, R, grad


def weak_rigidity_function(f: Framework) -> np.ndarray:
    """Squared edge lengths followed by the constrained cosines."""
    return constraint_kernel(f.positions, compile_graph(f.graph, f.dim))[0]


def _row_label(g: Graph, row: int) -> RowLabel:
    """``("distance", edge)`` for one of the first ``m`` rows, else ``("cosine", triple)``."""
    return ("distance", g.edges[row]) if row < g.m else ("cosine", g.angles[row - g.m])


@dataclass(frozen=True, eq=False)
class WeakRigidityMatrix:
    """Jacobian of the weak rigidity function and the graph that labels its rows."""

    matrix: np.ndarray = field(repr=False)
    graph: Graph = field(repr=False)

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def row_labels(self) -> tuple[RowLabel, ...]:  # built when asked for
        return tuple(_row_label(self.graph, row) for row in range(len(self.matrix)))


def weak_rigidity_matrix(f: Framework) -> WeakRigidityMatrix:
    """Build the weak rigidity matrix of a framework in any dimension.

    One :func:`constraint_kernel` call: a distance row is ``2 z`` at the
    edge's endpoints with opposite signs, a cosine row the cosine's
    gradient at the apex and the two ray tips.  Rows are labelled
    ``("distance", edge)`` then ``("cosine", triple)`` in graph order.
    """
    R = constraint_kernel(f.positions, compile_graph(f.graph, f.dim), matrix=True)[1]
    return WeakRigidityMatrix(matrix=R, graph=f.graph)


def central_differences(func, positions: np.ndarray, step: float) -> np.ndarray:
    """Jacobian of ``func`` by central differences in each stacked coordinate.

    ``func`` maps a ``(B, n, d)`` stack of configurations to one array of
    values per configuration.  It is called once, on the ``2 n d``
    configurations stepped by ``+step`` in one coordinate each, then by
    ``-step``.  A stepped configuration that merges two points raises
    CollocatedPoints, as a framework does.  A step moves every pairwise
    distance and ``max|p|`` by at most ``step``, so points more than twice
    ``step`` plus the largest tolerance a stepped configuration can have
    apart clear every step at once; only closer points are tested step by
    step.  The factor two leaves room for rounding.
    """
    size = positions.size
    steps = np.eye(size) * step
    x = positions.ravel()
    stack = np.concatenate([x + steps, x - steps]).reshape((2 * size,) + positions.shape)
    reach = step + collocation_tolerance(np.abs(positions) + step)
    if not min_separation(positions) > 2.0 * reach:
        for p in stack:
            if collocated(p):
                raise CollocatedPoints("two vertex positions coincide")
    rows = func(stack).reshape(2 * size, -1)
    return ((rows[:size] - rows[size:]) / (2.0 * step)).T


def finite_difference_weak_rigidity_matrix(f: Framework,
                                           step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central finite differences of the weak rigidity function.

    Independent cross-check for the analytic matrix; used by the gradient
    check and by the test suite.
    """
    cg = compile_graph(f.graph, f.dim)
    return central_differences(lambda p: constraint_kernel(p, cg)[0], f.positions, step)


def numerical_rank(M, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest one."""
    return _rank_cut(np.linalg.svd(np.asarray(M, float), compute_uv=False), rel_tol)


def _rank_cut(s: np.ndarray, rel_tol: float) -> int:
    if s.size == 0:
        raise ValueError("numerical rank of an empty matrix is undefined")
    return int(np.count_nonzero(s > rel_tol * s[0]))


def rigid_motions(positions: np.ndarray) -> np.ndarray:
    """Infinitesimal rigid motions of ``(n, d)`` positions, as stacked columns.

    The ``d`` translations, then one rotation per coordinate plane ``(a, b)``,
    ``a < b``, planes in reverse order: component ``a`` is ``-p_b`` and
    component ``b`` is ``p_a``.  In 2D that is ``[-y, x]``; in 3D, the
    rotations about x, y and z (the y one negated), the order ``np.cross``
    gives them in.  Column order changes how ``R @ basis`` rounds.
    """
    n, d = positions.shape
    planes = list(itertools.combinations(range(d), 2))[::-1]
    motions = np.zeros((n, d, d + len(planes)))
    motions[:, :, :d] = np.eye(d)
    for t, (a, b) in enumerate(planes, d):
        motions[:, a, t] = -positions[:, b]
        motions[:, b, t] = positions[:, a]
    return motions.reshape(n * d, -1)


def trivial_motion_basis(f: Framework) -> np.ndarray:
    """Columns spanning the trivial infinitesimal motions of a framework.

    The rigid motions of :func:`rigid_motions`; plus the configuration
    itself (uniform scaling) when the framework has no distance edges.
    Raises DegenerateConfiguration if all vertices are collinear (one or
    two always are): the centred ``n x d`` positions rank below 2.  Else
    the columns are independent, ``d(d+1)/2`` of them, one more with no
    edges.  Scaling ``c``, skew ``Omega`` and translation ``t``, with
    ``(c, Omega) != 0``, that vanish give ``(c I + Omega) p_i = -t``.  If
    ``c != 0`` or ``d = 2`` that matrix is invertible, so all points would
    be equal; else ``Omega p_i`` is constant, so they would lie on one line.
    """
    p = f.positions
    if numerical_rank(p - p.sum(axis=0) / len(p)) < 2:  # the bits of p.mean(axis=0)
        raise DegenerateConfiguration("all vertices are collinear")
    basis = rigid_motions(p)
    return basis if f.graph.m else np.column_stack([basis, f.config()])


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    required_rank: int
    rigid: bool
    verdict: str
    null_space_dim: int
    trivial_motion_residual: float
    tolerance_used: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def _rank_test(f: Framework, rel_tol: float) -> tuple[WeakRigidityMatrix, int, int, np.ndarray]:
    """``R_W``, its rank, the required rank and the trivial motions: both rank tests read these.

    The required rank is ``R_W``'s column count less the basis's:
    ``d n - d(d+1)/2``, one less with no edges.  One SVD of the ``n x d``
    positions, one of ``R_W``.
    """
    if not 0.0 < rel_tol < 1.0:  # else noise counts as rank, or nothing does
        raise ValueError(f"rank tolerance must be in (0, 1), got {rel_tol}")
    if f.graph.n < 3:
        raise ValueError("rigidity classification needs n >= 3")
    if not f.graph.constraint_count:
        raise EmptyEdgeSet("framework has no constraints at all")
    basis = trivial_motion_basis(f)
    R = weak_rigidity_matrix(f)
    return R, numerical_rank(R.matrix, rel_tol), R.shape[1] - basis.shape[1], basis


def classify_infinitesimal_weak_rigidity(
    f: Framework, rel_tol: float = DEFAULT_RANK_TOL
) -> RigidityReport:
    """Rank test for infinitesimal weak rigidity, in 2D and 3D.

    Requires ``n >= 3``; no constraints at all raise EmptyEdgeSet, and
    collinear vertices DegenerateConfiguration.  The report carries the
    largest entry of ``R_W`` times the unit-normed trivial motions as a
    residual.
    """
    R, rank, required, basis = _rank_test(f, rel_tol)
    rigid = rank == required
    norms = np.sqrt(np.add.reduce(basis * basis, axis=0))  # np.linalg.norm(axis=0) of real input
    residual = float(np.abs(R.matrix @ (basis / norms)).max())
    return RigidityReport(
        rank=rank, required_rank=required, rigid=rigid,
        verdict=VERDICTS[0] if rigid else VERDICTS[1], null_space_dim=R.shape[1] - rank,
        trivial_motion_residual=residual, tolerance_used=rel_tol)


def classify_weak_rigidity_3d(f: Framework, rel_tol: float = DEFAULT_RANK_TOL) -> RigidityReport:
    """:func:`classify_infinitesimal_weak_rigidity` of a framework that must be 3D."""
    if f.dim != 3:
        raise ValueError("3D classifier needs dim 3")
    return classify_infinitesimal_weak_rigidity(f, rel_tol)


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    reason: str
    witness: RowLabel | None = None

    def __bool__(self) -> bool:
        return self.minimal


def is_minimally_weakly_rigid(f: Framework, rel_tol: float = DEFAULT_RANK_TOL) -> MinimalityResult:
    """Single-removal minimality test: a count on :func:`_rank_test`'s rank.

    Minimal means the framework passes its rank condition and every
    framework obtained by dropping one constraint fails its own rank
    condition (which drops by one if the removal empties the edge set).
    So a rigid framework is minimal iff its rows are independent and it
    has not exactly one edge, which is always removable: the angle rows
    annihilate scaling.  With a spare row, the witness is the first
    constraint, angles before edges, whose row drops keeping the rank
    (one less for a lone edge), else None.  Raises the same errors as
    :func:`classify_infinitesimal_weak_rigidity`.
    """
    R, rank, required, _ = _rank_test(f, rel_tol)
    g = f.graph
    if rank != required:
        return MinimalityResult(minimal=False, reason="not rigid")
    if rank < R.shape[0]:  # a lone edge is row 0
        witness = next((_row_label(g, row) for row in [*range(g.m, g.m + g.q), *range(g.m)]
                        if numerical_rank(np.delete(R.matrix, row, 0), rel_tol)
                        == rank - (g.m == 1 and row == 0)), None)
        return MinimalityResult(False, "removable constraint", witness)
    if g.m == 1:
        return MinimalityResult(False, "removable constraint", _row_label(g, 0))
    return MinimalityResult(minimal=True, reason="rigid and no constraint removable")
