"""Weak rigidity matrix, rank analysis, and rigidity classification.

The weak rigidity function of a 2D framework stacks the squared edge
lengths followed by the cosines of the constrained angles; its Jacobian
with respect to the configuration is the weak rigidity matrix.  A
framework is infinitesimally weakly rigid iff that matrix reaches rank
``2n - 3`` (``2n - 4`` when there are no distance edges, since uniform
scaling then also preserves every constraint).  In 3D the test runs on
the distance rigidity matrix of the induced distance closure and the
threshold is ``3n - 6``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Framework,
    Graph,
    collocation_tolerance,
    cosine_of_angle,
    induced_distance_closure,
)
from .errors import CollocatedPoints, DegenerateConfiguration, EmptyEdgeSet

DEFAULT_RANK_TOL = 1e-9

RowLabel = tuple[str, tuple]

VERDICT_RIGID_2D = "infinitesimally weakly rigid"
VERDICT_FLEXIBLE_2D = "not infinitesimally weakly rigid"
VERDICT_RIGID_3D = "weakly rigid"
VERDICT_FLEXIBLE_3D = "not weakly rigid (generic)"


def cosine_edge_partials(za, zb, zc):
    """Partials of the cosine with respect to its three edge vectors.

    ``za`` and ``zb`` point from the apex toward the two far vertices and
    ``zc`` connects the far vertices, so the cosine is
    ``(|za|^2 + |zb|^2 - |zc|^2) / (2 |za| |zb|)``.  Returns the three row
    vectors ``(dA/dza, dA/dzb, dA/dzc)``.
    """
    za = np.asarray(za, float)
    zb = np.asarray(zb, float)
    zc = np.asarray(zc, float)
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


def cosine_gradient_blocks(f: Framework, triple):
    """Per-vertex gradient rows of a constrained cosine.

    For triple ``(k, i, j)`` returns ``(g_k, g_i, g_j)``: the derivative of
    ``cos`` of the angle at apex ``k`` with respect to the positions of
    ``k``, ``i`` and ``j``.  Assembled from the edge-vector partials by the
    chain rule; the blocks sum to zero (translation invariance) and
    annihilate both the rotation field and the configuration itself.
    """
    k, i, j = triple
    pos = f.positions
    tol = collocation_tolerance(pos)
    za = pos[i] - pos[k]
    zb = pos[j] - pos[k]
    zc = pos[i] - pos[j]
    if min(np.linalg.norm(za), np.linalg.norm(zb), np.linalg.norm(zc)) < tol:
        raise CollocatedPoints(f"angle ({k},{i},{j}) involves collocated points")
    d_a, d_b, d_c = cosine_edge_partials(za, zb, zc)
    g_i = d_a + d_c
    g_j = d_b - d_c
    g_k = -d_a - d_b
    return g_k, g_i, g_j


def weak_rigidity_function(f: Framework) -> np.ndarray:
    """Squared edge lengths followed by the constrained cosines."""
    if f.dim != 2:
        raise ValueError("weak rigidity function is defined for dim 2")
    g = f.graph
    vals = np.empty(g.m + g.q)
    for u, (i, j) in enumerate(g.edges):
        z = f.positions[i] - f.positions[j]
        vals[u] = float(z @ z)
    for h, triple in enumerate(g.angles):
        vals[g.m + h] = cosine_of_angle(f, triple)
    return vals


@dataclass(frozen=True)
class WeakRigidityMatrix:
    """Jacobian of the weak rigidity function plus row bookkeeping."""

    matrix: np.ndarray = field(repr=False)
    row_labels: tuple[RowLabel, ...]

    @property
    def shape(self):
        return self.matrix.shape


def weak_rigidity_matrix(f: Framework) -> WeakRigidityMatrix:
    """Build the weak rigidity matrix of a 2D framework.

    Distance rows are ``2 z`` placed at the edge endpoints with opposite
    signs; cosine rows come from :func:`cosine_gradient_blocks`.
    """
    if f.dim != 2:
        raise ValueError("weak rigidity matrix is defined for dim 2")
    g = f.graph
    n, d = g.n, 2
    R = np.zeros((g.m + g.q, d * n))
    labels: list[RowLabel] = []
    for u, (i, j) in enumerate(g.edges):
        z = f.positions[i] - f.positions[j]
        R[u, d * i:d * i + d] = 2.0 * z
        R[u, d * j:d * j + d] = -2.0 * z
        labels.append(("distance", (i, j)))
    for h, triple in enumerate(g.angles):
        k, i, j = triple
        g_k, g_i, g_j = cosine_gradient_blocks(f, triple)
        row = g.m + h
        R[row, d * k:d * k + d] = g_k
        R[row, d * i:d * i + d] = g_i
        R[row, d * j:d * j + d] = g_j
        labels.append(("cosine", triple))
    return WeakRigidityMatrix(matrix=R, row_labels=tuple(labels))


def finite_difference_weak_rigidity_matrix(f: Framework, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the weak rigidity function.

    Independent cross-check for the analytic matrix; used by the gradient
    check and by the test suite.
    """
    x = f.config()
    rows = f.graph.constraint_count
    FD = np.empty((rows, x.size))
    for c in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[c] += step
        xm[c] -= step
        fp = weak_rigidity_function(f.with_positions(xp.reshape(-1, 2)))
        fm = weak_rigidity_function(f.with_positions(xm.reshape(-1, 2)))
        FD[:, c] = (fp - fm) / (2.0 * step)
    return FD


def numerical_rank(M, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest one."""
    M = np.asarray(M, float)
    if M.size == 0:
        raise ValueError("numerical rank of an empty matrix is undefined")
    return _rank_cut(np.linalg.svd(M, compute_uv=False), rel_tol)


def _rank_cut(s: np.ndarray, rel_tol: float) -> int:
    return int(np.sum(s > rel_tol * s[0]))


@dataclass(frozen=True)
class TrivialMotionBasis:
    """Columns spanning the trivial infinitesimal motions of a 2D framework.

    Two translations and one rotation; plus the configuration itself
    (uniform scaling) when the framework has no distance edges.
    """

    columns: np.ndarray = field(repr=False)
    includes_scaling: bool


def trivial_motion_basis(f: Framework) -> TrivialMotionBasis:
    if f.dim != 2:
        raise ValueError("trivial motion basis is defined for dim 2")
    n = f.graph.n
    p = f.config()
    cols = [np.tile([1.0, 0.0], n), np.tile([0.0, 1.0], n)]
    rot = np.empty(2 * n)
    rot[0::2] = -p[1::2]
    rot[1::2] = p[0::2]
    cols.append(rot)
    scaling = f.graph.m == 0
    if scaling:
        cols.append(p)
    basis = np.column_stack(cols)
    if numerical_rank(basis) != basis.shape[1]:
        raise DegenerateConfiguration("trivial motions are linearly dependent (e.g. p = 0)")
    return TrivialMotionBasis(columns=basis, includes_scaling=scaling)


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    required_rank: int
    rigid: bool
    verdict: str
    null_space_dim: int
    trivial_motion_residual: float
    tolerance_used: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "required_rank": self.required_rank,
            "rigid": self.rigid,
            "verdict": self.verdict,
            "null_space_dim": self.null_space_dim,
            "trivial_motion_residual": self.trivial_motion_residual,
            "tolerance_used": self.tolerance_used,
            "note": self.note,
        }


def _max_residual(M: np.ndarray, columns: np.ndarray) -> float:
    best = 0.0
    for c in columns.T:
        v = c / np.linalg.norm(c)
        best = max(best, float(np.max(np.abs(M @ v))))
    return best


def _all_collinear(positions: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> bool:
    centered = positions - positions.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return bool(s[0] == 0.0 or s[1] <= rel_tol * s[0])


def _required_rank_2d(g: Graph) -> int:
    return 2 * g.n - 3 if g.m > 0 else 2 * g.n - 4


def _checked_weak_rigidity_matrix(f: Framework) -> tuple[TrivialMotionBasis, WeakRigidityMatrix]:
    """Weak rigidity matrix of a framework the 2D rank test applies to."""
    if f.dim != 2:
        raise ValueError("2D classifier needs dim 2")
    if f.graph.n < 3:
        raise ValueError("rigidity classification needs n >= 3")
    if _all_collinear(f.positions):
        raise DegenerateConfiguration("all vertices are collinear")
    return trivial_motion_basis(f), weak_rigidity_matrix(f)


def classify_infinitesimal_weak_rigidity(
    f: Framework, rel_tol: float = DEFAULT_RANK_TOL
) -> RigidityReport:
    """Rank test for infinitesimal weak rigidity in 2D.

    Requires ``n >= 3``.  Configurations that degrade the trivial-motion
    count (``p = 0`` or all vertices collinear) raise
    DegenerateConfiguration instead of returning a verdict.
    """
    basis, R = _checked_weak_rigidity_matrix(f)
    rank = numerical_rank(R.matrix, rel_tol)
    n = f.graph.n
    required = _required_rank_2d(f.graph)
    rigid = rank == required
    return RigidityReport(
        rank=rank,
        required_rank=required,
        rigid=rigid,
        verdict=VERDICT_RIGID_2D if rigid else VERDICT_FLEXIBLE_2D,
        null_space_dim=2 * n - rank,
        trivial_motion_residual=_max_residual(R.matrix, basis.columns),
        tolerance_used=rel_tol,
    )


def distance_rigidity_matrix(f: Framework) -> np.ndarray:
    """Distance rigidity matrix: row ``z`` at endpoint ``i``, ``-z`` at ``j``.

    This is half the Jacobian of the stacked squared edge lengths, in any
    dimension.
    """
    g = f.graph
    if not g.edges:
        raise EmptyEdgeSet("distance rigidity matrix needs at least one edge")
    d = f.dim
    R = np.zeros((g.m, d * g.n))
    for u, (i, j) in enumerate(g.edges):
        z = f.positions[i] - f.positions[j]
        R[u, d * i:d * i + d] = z
        R[u, d * j:d * j + d] = -z
    return R


def _rigid_motion_fields_3d(positions: np.ndarray) -> np.ndarray:
    n = positions.shape[0]
    cols = []
    for axis in range(3):
        t = np.zeros((n, 3))
        t[:, axis] = 1.0
        cols.append(t.ravel())
    for axis in range(3):
        omega = np.zeros(3)
        omega[axis] = 1.0
        cols.append(np.cross(np.broadcast_to(omega, (n, 3)), positions).ravel())
    return np.column_stack(cols)


def classify_weak_rigidity_3d(f: Framework, rel_tol: float = DEFAULT_RANK_TOL) -> RigidityReport:
    """Weak rigidity test in 3D via the induced distance closure.

    Rank ``3n - 6`` of the closure's distance rigidity matrix is sufficient
    for weak rigidity; below that the verdict is a generic-configuration
    negative (the converse needs genericity).
    """
    if f.dim != 3:
        raise ValueError("3D classifier needs dim 3")
    if f.graph.n < 3:
        raise ValueError("rigidity classification needs n >= 3")
    closure = induced_distance_closure(f.graph)
    if not closure.edges:
        raise EmptyEdgeSet("framework has no constraints at all")
    fc = Framework(graph=closure, dim=3, positions=f.positions)
    R = distance_rigidity_matrix(fc)
    rank = numerical_rank(R, rel_tol)
    n = f.graph.n
    required = 3 * n - 6
    rigid = rank == required
    note = "" if rigid else "negative verdict assumes a generic configuration"
    return RigidityReport(
        rank=rank,
        required_rank=required,
        rigid=rigid,
        verdict=VERDICT_RIGID_3D if rigid else VERDICT_FLEXIBLE_3D,
        null_space_dim=3 * n - rank,
        trivial_motion_residual=_max_residual(R, _rigid_motion_fields_3d(f.positions)),
        tolerance_used=rel_tol,
        note=note,
    )


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    reason: str
    witness: RowLabel | None = None

    def __bool__(self) -> bool:
        return self.minimal


def is_minimally_weakly_rigid(f: Framework, rel_tol: float = DEFAULT_RANK_TOL) -> MinimalityResult:
    """Single-removal minimality test in 2D, decided from one SVD of ``R_W``.

    Minimal means the framework passes its rank condition and every
    framework obtained by dropping one constraint fails its own rank
    condition (which flips to ``2n - 4`` if the removal empties the edge
    set).  A row can be dropped without losing rank iff it has weight in
    the left null space ``U[:, rank:]`` of ``R_W``; the weight counts when
    ``weight * s[rank-1]``, about the singular value the reduced matrix
    keeps, clears the rank cut ``rel_tol * s[0]``.  A lone edge is always
    removable: the angle rows annihilate scaling, so they reach at most
    ``2n - 4``, the edge-free requirement.  The first removable constraint,
    angles before edges, is the witness.  Raises the same errors as
    :func:`classify_infinitesimal_weak_rigidity`.
    """
    _, R = _checked_weak_rigidity_matrix(f)
    if R.matrix.size == 0:
        raise ValueError("numerical rank of an empty matrix is undefined")
    U, s, _ = np.linalg.svd(R.matrix)
    rank = _rank_cut(s, rel_tol)
    g = f.graph
    if rank != _required_rank_2d(g):
        return MinimalityResult(minimal=False, reason="not rigid")
    weight = np.linalg.norm(U[:, rank:], axis=1)
    removable = weight * s[rank - 1] > rel_tol * s[0]
    for row in [*range(g.m, g.m + g.q), *range(g.m)]:
        if removable[row]:
            return MinimalityResult(False, "removable constraint", R.row_labels[row])
    if g.m == 1:
        return MinimalityResult(False, "removable constraint", R.row_labels[0])
    return MinimalityResult(minimal=True, reason="rigid and no constraint removable")
