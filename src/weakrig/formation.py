"""Gradient formation control for constraint targets, three-agent analysis.

The control law is the negative gradient of the potential
``V = 0.5 ||e||^2`` where ``e`` stacks squared-distance errors and cosine
errors, i.e. ``u = -R_W^T e``.  Stability analysis (equilibrium
classification, flow Jacobian, collinearity determinant) targets the
canonical three-agent topology: agents 0, 1, 2 with distance constraints
(0,1), (0,2) and the angle at agent 0 toward agents 1 and 2.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import (Framework, Graph, angle_key, build_graph, collocation_tolerance_at, edge_key,
                   min_separation, stable_norm)
from .errors import TargetMismatch, WrongTopology
from .rigidity import (
    CompiledGraph,
    central_differences,
    compile_graph,
    constraint_kernel,
    weak_rigidity_function,
)

CANONICAL_EDGES = ((0, 1), (0, 2))
CANONICAL_ANGLES = ((0, 1, 2),)

# |det Z| below this (relative to the constrained squared lengths) counts
# as collinear.
COLLINEARITY_REL_TOL = 1e-8


def canonical_three_agent_graph() -> Graph:
    return build_graph(3, edges=CANONICAL_EDGES, angles=CANONICAL_ANGLES)


def is_three_agent_topology(g: Graph) -> bool:
    return g.n == 3 and g.edges == CANONICAL_EDGES and g.angles == CANONICAL_ANGLES


@dataclass(frozen=True)
class TargetSpec:
    """Desired squared distances per edge and desired cosines per angle.

    Entries are kept in the order given; :func:`error_vector` requires that
    order to match the framework's constraint order exactly.  Realizability
    is not required.
    """

    sq_distances: tuple[tuple[tuple[int, int], float], ...] = ()
    cosines: tuple[tuple[tuple[int, int, int], float], ...] = ()

    def __post_init__(self):
        sq = tuple((edge_key(*e), float(v)) for (e, v) in self.sq_distances)
        cs = tuple((angle_key(*t), float(v)) for (t, v) in self.cosines)
        for e, v in sq:
            if v < 0.0:
                raise ValueError(f"desired squared distance for {e} must be >= 0, got {v}")
        for t, v in cs:
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"desired cosine for {t} must lie in [-1, 1], got {v}")
        object.__setattr__(self, "sq_distances", sq)
        object.__setattr__(self, "cosines", cs)

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.sq_distances] + [v for _, v in self.cosines])


def align_targets(graph: Graph, sq_map, cos_map) -> TargetSpec:
    """Build a TargetSpec in graph constraint order from key/value mappings.

    Raises TargetMismatch if the mappings do not cover the graph's
    constraints exactly.
    """
    sq = {edge_key(*e): float(v) for e, v in dict(sq_map).items()}
    cs = {angle_key(*t): float(v) for t, v in dict(cos_map).items()}
    missing = [e for e in graph.edges if e not in sq] + [a for a in graph.angles if a not in cs]
    extra = [e for e in sq if e not in graph.edges] + [a for a in cs if a not in graph.angles]
    if missing or extra:
        raise TargetMismatch(f"targets do not cover constraints (missing {missing}, extra {extra})")
    return TargetSpec(
        sq_distances=tuple((e, sq[e]) for e in graph.edges),
        cosines=tuple((a, cs[a]) for a in graph.angles),
    )


def canonical_targets(d01_sq: float, d02_sq: float, cos_angle: float) -> TargetSpec:
    """TargetSpec for the canonical three-agent topology."""
    return TargetSpec(
        sq_distances=(((0, 1), d01_sq), ((0, 2), d02_sq)),
        cosines=(((0, 1, 2), cos_angle),),
    )


def _target_values(f: Framework, t: TargetSpec) -> np.ndarray:
    """``t.values()``, once checked to hold one target per constraint of ``f``, in graph order."""
    got = tuple(e for e, _ in t.sq_distances)
    if got != f.graph.edges:
        raise TargetMismatch(f"distance targets {got} do not match edges {f.graph.edges} in order")
    got = tuple(a for a, _ in t.cosines)
    if got != f.graph.angles:
        raise TargetMismatch(f"cosine targets {got} do not match angles {f.graph.angles} in order")
    return t.values()


@dataclass(frozen=True)
class ErrorVector:
    """Constraint errors, distance entries first then cosine entries."""

    values: np.ndarray = field(repr=False)
    m: int

    def norm(self) -> float:
        return float(stable_norm(self.values))


def error_vector(f: Framework, t: TargetSpec) -> ErrorVector:
    """Current constraint values minus targets, in rigidity-matrix row order."""
    tv = _target_values(f, t)
    return ErrorVector(values=weak_rigidity_function(f) - tv, m=f.graph.m)


def _compile_for_flow(f: Framework) -> CompiledGraph:
    """The compiled graph of a framework the flow can run on; ValueError unless 2D."""
    if f.dim != 2:
        raise ValueError("the gradient flow is defined for dim 2")
    return compile_graph(f.graph, f.dim)


def control_law(f: Framework, t: TargetSpec) -> np.ndarray:
    """Gradient-descent velocity ``-R_W^T e`` as a stacked ``2n`` vector."""
    tv = _target_values(f, t)
    return -constraint_kernel(f.positions, _compile_for_flow(f), tv)[2].ravel()


def _cosine_coefficients(p: np.ndarray):
    """Coefficients of p0, p1, p2 in the three cosine-gradient rows.

    The gradient of the apex-0 cosine with respect to each agent position
    expands uniquely in the position basis with coefficients summing to
    zero per row; these scalars populate the three-agent coefficient
    matrix.
    """
    u = p[1] - p[0]
    v = p[2] - p[0]
    nu2 = float(u @ u)
    nv2 = float(v @ v)
    inv = 1.0 / math.sqrt(nu2 * nv2)
    c = float(u @ v) * inv
    a_u = c / nu2
    a_v = c / nv2
    alpha = (2.0 * inv - a_u - a_v, a_u - inv, a_v - inv)
    beta = (a_u - inv, -a_u, inv)
    gamma = (a_v - inv, inv, -a_v)
    return alpha, beta, gamma


def e_matrix_three_agent(f: Framework, t: TargetSpec) -> np.ndarray:
    """Symmetric 3x3 coefficient matrix E with ``-R_W^T e = -(E (x) I_2) p``."""
    if not is_three_agent_topology(f.graph):
        raise WrongTopology("E(p) is defined for the canonical three-agent topology")
    ev = error_vector(f, t).values
    e01, e02, ec = float(ev[0]), float(ev[1]), float(ev[2])
    alpha, beta, gamma = _cosine_coefficients(f.positions)
    return np.array([
        [2 * e01 + 2 * e02 + alpha[0] * ec, -2 * e01 + alpha[1] * ec, -2 * e02 + alpha[2] * ec],
        [-2 * e01 + beta[0] * ec, 2 * e01 + beta[1] * ec, beta[2] * ec],
        [-2 * e02 + gamma[0] * ec, gamma[1] * ec, 2 * e02 + gamma[2] * ec],
    ])


def flow_jacobian(f: Framework, t: TargetSpec, fd_step: float = 1e-6) -> np.ndarray:
    """Negative Jacobian of the flow by central differences of the control law.

    Equals the Hessian of the potential, so it is symmetric up to the
    finite-difference error.
    """
    tv, cg = _target_values(f, t), _compile_for_flow(f)
    return central_differences(lambda p: constraint_kernel(p, cg, tv)[2], f.positions, fd_step)


def collinearity_tolerance(f: Framework) -> float:
    d01 = float(np.sum((f.positions[0] - f.positions[1]) ** 2))
    d02 = float(np.sum((f.positions[0] - f.positions[2]) ** 2))
    return COLLINEARITY_REL_TOL * (1.0 + max(d01, d02))


def _det(positions: np.ndarray) -> np.ndarray:
    """``det Z = det[p0 - p1, p0 - p2]`` of ``(..., 3, 2)`` positions, per leading index."""
    z1 = positions[..., 0, :] - positions[..., 1, :]
    z2 = positions[..., 0, :] - positions[..., 2, :]
    return z1[..., 0] * z2[..., 1] - z1[..., 1] * z2[..., 0]


@dataclass(frozen=True)
class DetZ:
    det: float
    sigma: float


def det_z(f: Framework, t: TargetSpec) -> DetZ:
    """Determinant of the two constrained edge vectors and its decay rate.

    Along the flow, ``d/dt det = -sigma * det``, so collinearity
    (``det = 0``) is invariant.  ``sigma`` is read off the coefficient
    matrix :func:`e_matrix_three_agent`.
    """
    if not is_three_agent_topology(f.graph):
        raise WrongTopology("det Z is defined for the canonical three-agent topology")
    # z_k' = sum_j (E_0j - E_kj) z_j and E's zero row sums give the rate
    E = e_matrix_three_agent(f, t)
    sigma = float(E[1, 1] + E[2, 2] - E[0, 1] - E[0, 2])
    return DetZ(det=float(_det(f.positions)), sigma=sigma)


@dataclass(frozen=True)
class EquilibriumReport:
    kind: str  # "desired" | "incorrect" | "not-equilibrium"
    min_jacobian_eig: float
    collinear: bool
    error_norm: float
    gradient_norm: float


def classify_equilibrium(f: Framework, t: TargetSpec, tol: float = 1e-6) -> EquilibriumReport:
    """Classify a three-agent state as desired / incorrect / not an equilibrium."""
    if not is_three_agent_topology(f.graph):
        raise WrongTopology("equilibrium classification needs the three-agent topology")
    tv = _target_values(f, t)
    values, _, grad = constraint_kernel(f.positions, _compile_for_flow(f), tv)
    enorm, gnorm = float(stable_norm(values - tv)), float(stable_norm(grad))
    if enorm < tol:
        kind = "desired"
    elif gnorm < tol:
        kind = "incorrect"
    else:
        kind = "not-equilibrium"
    J = flow_jacobian(f, t)
    min_eig = float(np.linalg.eigvalsh(0.5 * (J + J.T))[0])
    collinear = abs(float(_det(f.positions))) < collinearity_tolerance(f)
    return EquilibriumReport(
        kind=kind,
        min_jacobian_eig=min_eig,
        collinear=collinear,
        error_norm=enorm,
        gradient_norm=gnorm,
    )


def realize_canonical_targets(t: TargetSpec) -> Framework:
    """One planar realization of canonical three-agent targets.

    Places agent 0 at the origin, agent 1 on the x-axis, agent 2 at the
    target angle.  Needs strictly positive squared distances.
    """
    if len(t.sq_distances) != 2 or len(t.cosines) != 1:
        raise WrongTopology("realization needs canonical three-agent targets")
    d01 = math.sqrt(t.sq_distances[0][1])
    d02 = math.sqrt(t.sq_distances[1][1])
    if d01 == 0.0 or d02 == 0.0:
        raise ValueError("cannot realize zero target distances")
    theta = math.acos(t.cosines[0][1])
    positions = np.array([
        [0.0, 0.0],
        [d01, 0.0],
        [d02 * math.cos(theta), d02 * math.sin(theta)],
    ])
    return Framework(graph=canonical_three_agent_graph(), dim=2, positions=positions)


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 1e-3
    t_max: float = 50.0
    convergence_eps: float = 1e-8
    divergence_bound: float = 1e6

    def __post_init__(self):
        for name in ("dt", "t_max", "convergence_eps", "divergence_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_max < 0.0:
            raise ValueError("t_max must be >= 0")


@dataclass(frozen=True)
class SimulationTrace:
    """Dense record of a gradient-flow run, one sample per accepted step.

    ``times``, ``positions`` and ``errors`` of a simulated run are views of
    :func:`_rk4`'s flat float64 record, so a three-agent sample costs 80
    bytes there and 24 more in ``error_norm``, ``lyapunov`` and ``det_z``.
    """

    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)  # (T, n, 2)
    errors: np.ndarray = field(repr=False)     # (T, m+q)
    error_norm: np.ndarray = field(repr=False)
    lyapunov: np.ndarray = field(repr=False)
    det_z: np.ndarray | None = field(repr=False)
    terminal_status: str  # "converged" | "max-time" | "diverged" | "degenerate"

    def __len__(self) -> int:
        return len(self.times)

    def final_positions(self) -> np.ndarray:
        return self.positions[-1]


def _rhs_canonical(x, d1s, d2s, cs):
    """Scalar flow for the canonical topology: ``(-R_W^T e, e)`` at the stacked state ``x``.

    Python floats in and out (lists of six coordinates); at n = 3 it is about
    ten times cheaper than :func:`constraint_kernel`.
    """
    x0, y0, x1, y1, x2, y2 = x
    ax = x0 - x1
    ay = y0 - y1
    bx = x0 - x2
    by = y0 - y2
    n1 = ax * ax + ay * ay
    n2 = bx * bx + by * by
    e1 = n1 - d1s
    e2 = n2 - d2s
    inv = 1.0 / math.sqrt(n1 * n2)
    c = (ax * bx + ay * by) * inv
    ec = (1.0 if c > 1.0 else -1.0 if c < -1.0 else c) - cs
    # cosine gradient rows for agents 1 and 2; apex row is minus their sum
    bgx = -bx * inv + c * ax / n1
    bgy = -by * inv + c * ay / n1
    ggx = -ax * inv + c * bx / n2
    ggy = -ay * inv + c * by / n2
    dax, day = 2.0 * ax * e1, 2.0 * ay * e1  # distance-error velocity of agent 1
    dbx, dby = 2.0 * bx * e2, 2.0 * by * e2  # and of agent 2
    return [
        -(dax + dbx) + (bgx + ggx) * ec,
        -(day + dby) + (bgy + ggy) * ec,
        dax - bgx * ec,
        day - bgy * ec,
        dbx - ggx * ec,
        dby - ggy * ec,
    ], (e1, e2, ec)


def _collocated_three(x, big: float) -> bool:
    """:func:`core.collocated` for three agents, in scalar arithmetic on the six coordinates.

    ``big`` is ``max|x|``, which the RK4 loop has already computed.
    """
    x0, y0, x1, y1, x2, y2 = x
    return min(math.hypot(x0 - x1, y0 - y1), math.hypot(x0 - x2, y0 - y2),
               math.hypot(x1 - x2, y1 - y2)) < collocation_tolerance_at(big)


def _rhs_generic(positions, cg: CompiledGraph, target_values):
    """Gradient flow for any compiled constraint graph: ``(-R_W^T e, e)``, no validation.

    One :func:`constraint_kernel` call; the velocity is an ``(n, 2)`` array.
    """
    values, _, grad = constraint_kernel(positions, cg, target_values)
    return -grad, values - target_values


def _rk4(p, rhs, degenerate, cfg: SimulationConfig):
    """Classical fixed-step RK4 of ``p' = v`` with ``v, e = rhs(p)`` from the stacked state ``p``.

    ``p`` and ``v`` are lists of six floats (the three-agent flow) or numpy
    arrays (the kernel flow); the type picks ``axpy(x, a, y) = x + a*y``.
    Every accepted state is appended with its time and its errors ``e`` as
    one packed row of a flat ``array("d")`` buffer, 8 bytes per float; the
    velocity evaluated there is the next step's ``k1``, so a step costs four
    ``rhs`` calls.  A recorded state ends the run, tested in this order:
    diverged when an error is not finite (as any coordinate that is not);
    degenerate when ``degenerate(p, big)`` (agents collocated; ``big`` is
    the state's ``max|x|``, computed once per state); diverged when a
    coordinate exceeds ``divergence_bound`` (not on the initial state);
    converged when ``||e|| < convergence_eps``.  Otherwise the run stops at
    ``t_max``.
    Returns ``(times, states, errors, status)``: numpy views of the buffer's
    columns, shaped ``(T,)``, ``(T, len(p))`` and ``(T, len(e))``.
    """
    listed = isinstance(p, list)  # a list state is read as is, an array state via tolist()
    if listed:
        def axpy(x, a, y):  # unrolled: three times cheaper than a comprehension over zip
            x0, x1, x2, x3, x4, x5 = x
            y0, y1, y2, y3, y4, y5 = y
            return [x0 + a * y0, x1 + a * y1, x2 + a * y2, x3 + a * y3, x4 + a * y4, x5 + a * y5]
    else:
        def axpy(x, a, y):
            return x + a * y
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    k1, e = rhs(p)
    size, width = len(p), 1 + len(p) + len(e)
    pack = struct.Struct(f"{width}d").pack  # one row per state: t, x, e
    record = array("d")
    k = 0
    status = None
    while status is None:
        t = k * dt
        x = p if listed else p.tolist()
        record.frombytes(pack(t, *x, *e))
        big = max(map(abs, x))
        norm = math.hypot(*e)
        if not norm < math.inf:  # only constrained coordinates move, so a NaN in x shows in e
            status = "diverged"
        elif degenerate(p, big):
            status = "degenerate"
        elif k and big > cfg.divergence_bound:
            status = "diverged"
        elif norm < cfg.convergence_eps:
            status = "converged"
        elif not t < cfg.t_max - 1e-12:
            status = "max-time"
        else:
            k2, _ = rhs(axpy(p, half, k1))
            k3, _ = rhs(axpy(p, half, k2))
            k4, _ = rhs(axpy(p, dt, k3))
            # p + sixth*(k1 + 2k2 + 2k3 + k4), bit for bit: 1.0*k4 is exact
            p = axpy(p, sixth, axpy(axpy(axpy(k1, 2.0, k2), 2.0, k3), 1.0, k4))
            k += 1
            k1, e = rhs(p)
    table = np.frombuffer(record).reshape(-1, width)
    return table[:, 0], table[:, 1:1 + size], table[:, 1 + size:], status


def _trace(times, states, errs, status, canonical: bool) -> SimulationTrace:
    """The trace of :func:`_rk4`'s record; arrays are used as they are, lists converted."""
    positions = np.asarray(states).reshape(len(states), -1, 2)
    errors = np.asarray(errs)
    error_norm = stable_norm(errors, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run's V and det Z
        det = _det(positions) if canonical else None
        lyapunov = 0.5 * error_norm**2
    return SimulationTrace(
        times=np.asarray(times),
        positions=positions,
        errors=errors,
        error_norm=error_norm,
        lyapunov=lyapunov,
        det_z=det,
        terminal_status=status,
    )


def simulate(f0: Framework, t: TargetSpec, cfg: SimulationConfig | None = None) -> SimulationTrace:
    """Integrate the gradient flow with a classical 4th-order fixed step.

    Terminates on convergence (``||e|| < convergence_eps``), on reaching
    ``t_max``, on collocation (degenerate) or on coordinate blow-up
    (diverged).  The trace records every step, starting with the initial
    condition.  The canonical three-agent topology runs on the scalar
    :func:`_rhs_canonical` and its trace carries ``det Z``; any other graph
    runs on the constraint kernel (:func:`_rhs_generic`).  A framework
    that is not 2D raises ValueError.
    """
    cfg = cfg or SimulationConfig()
    cg = _compile_for_flow(f0)
    tv = _target_values(f0, t)
    canonical = is_three_agent_topology(f0.graph)
    if canonical:
        d1s, d2s, cs = tv.tolist()
        p0 = f0.config().tolist()

        def rhs(x):
            return _rhs_canonical(x, d1s, d2s, cs)

        degenerate = _collocated_three
    else:
        shape, p0 = f0.positions.shape, f0.config()

        def rhs(x):
            vel, e = _rhs_generic(x.reshape(shape), cg, tv)
            return vel.ravel(), e

        def degenerate(x, big):
            return min_separation(x.reshape(shape)) < collocation_tolerance_at(big)

    with np.errstate(over="ignore", invalid="ignore"):  # a step out of the float range ends the run
        return _trace(*_rk4(p0, rhs, degenerate, cfg), canonical)
