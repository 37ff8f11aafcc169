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
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .core import (Framework, Graph, angle_key, build_graph, collocation_tolerance_at, edge_key,
                   min_separation, vector_norm)
from .errors import TargetMismatch, WrongTopology
from .rigidity import (
    DEFAULT_FD_STEP,
    CompiledGraph,
    central_differences,
    compile_graph,
    constraint_kernel,
    weak_rigidity_function,
)

CANONICAL_EDGES = ((0, 1), (0, 2))
CANONICAL_ANGLES = ((0, 1, 2),)

# |det Z| below this times |z1| |z2|, the constrained lengths, counts as
# collinear: |sin| of the angle at agent 0 below it, in any unit.
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
            if not math.isfinite(v):  # nan < 0.0 is false
                raise ValueError(f"desired squared distance for {e} must be finite, got {v}")
            if v < 0.0:
                raise ValueError(f"desired squared distance for {e} must be >= 0, got {v}")
        for t, v in cs:
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"desired cosine for {t} must lie in [-1, 1], got {v}")
        object.__setattr__(self, "sq_distances", sq)
        object.__setattr__(self, "cosines", cs)

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.sq_distances] + [v for _, v in self.cosines])


def align_targets(graph: Graph, sq_targets, cos_targets) -> TargetSpec:
    """Build a TargetSpec in graph constraint order from edge and angle targets.

    Each is a mapping or ``(key, value)`` pairs, keyed as the graph keys its
    constraints.  Raises TargetMismatch if a constraint has two targets, or
    if the targets do not cover the graph's constraints exactly.
    """
    sq, cs = {}, {}
    for keyed, targets, key_rule, what in ((sq, sq_targets, edge_key, "distance target for edge"),
                                           (cs, cos_targets, angle_key, "cosine target for angle")):
        for key, value in targets.items() if isinstance(targets, Mapping) else targets:
            key = key_rule(*key)
            if key in keyed:
                raise TargetMismatch(f"duplicate {what} {key}")
            keyed[key] = float(value)
    missing = [e for e in graph.edges if e not in sq] + [a for a in graph.angles if a not in cs]
    edges, angles = set(graph.edges), set(graph.angles)
    extra = [e for e in sq if e not in edges] + [a for a in cs if a not in angles]
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


@dataclass(frozen=True, eq=False)
class ErrorVector:
    """Constraint errors, distance entries first then cosine entries."""

    values: np.ndarray = field(repr=False)

    def norm(self) -> float:
        return vector_norm(self.values)


def error_vector(f: Framework, t: TargetSpec) -> ErrorVector:
    """Current constraint values minus targets, in rigidity-matrix row order."""
    tv = _target_values(f, t)
    return ErrorVector(values=weak_rigidity_function(f) - tv)


def _compile_for_flow(f: Framework) -> CompiledGraph:
    """The compiled graph of a framework the flow can run on; ValueError unless 2D."""
    if f.dim != 2:
        raise ValueError("the gradient flow is defined for dim 2")
    return compile_graph(f.graph, f.dim)


def control_law(f: Framework, t: TargetSpec) -> np.ndarray:
    """Gradient-descent velocity ``-R_W^T e`` as a stacked ``2n`` vector."""
    tv = _target_values(f, t)
    return -constraint_kernel(f.positions, _compile_for_flow(f), tv)[2].ravel()


def _edge_weights(f: Framework, t: TargetSpec) -> tuple[float, float, float]:
    """The edge weights ``(w1, w2, w3)`` of :func:`e_matrix_three_agent`.

    With ``z1 = p1 - p0``, ``z2 = p2 - p0``, ``c`` the cosine at agent 0 and errors
    ``e01, e02, ec``: ``w1 = 2 e01 - ec c/|z1|^2``, ``w2 = 2 e02 - ec c/|z2|^2`` and
    ``w3 = ec/(|z1| |z2|)``; ``|z1|^2``, ``|z2|^2`` and ``c`` are :func:`weak_rigidity_function`'s
    values.  Agent 1 moves by ``-(w1 z1 + w3 z2)``, as edge 01's row gives ``2 e01 z1`` and the
    cosine's gradient there is ``z2/(|z1| |z2|) - c z1/|z1|^2``; agent 2 likewise by
    ``-(w2 z2 + w3 z1)``, and agent 0 by minus their sum.
    """
    if not is_three_agent_topology(f.graph):
        raise WrongTopology("E(p) and det Z are defined for the canonical three-agent topology")
    tv, values = _target_values(f, t), weak_rigidity_function(f)
    (n1, n2, c), (e01, e02, ec) = values.tolist(), (values - tv).tolist()
    inv = 1.0 / math.sqrt(n1 * n2)
    return 2.0 * e01 - ec * c / n1, 2.0 * e02 - ec * c / n2, ec * inv


def e_matrix_three_agent(f: Framework, t: TargetSpec) -> np.ndarray:
    """Symmetric 3x3 coefficient matrix E with ``-R_W^T e = -(E (x) I_2) p``.

    ``E = w1 L01 + w2 L02 + w3 (L01 + L02 - L12)`` (:func:`_edge_weights`, ``Lij`` the
    Laplacian of edge ``ij``): the Laplacian of the triangle with edge weights ``w1 + w3``,
    ``w2 + w3`` and ``-w3``, symmetric with zero row sums by construction.
    """
    w1, w2, w3 = _edge_weights(f, t)
    a, b, c = w1 + w3, w2 + w3, -w3  # the weights of edges 01, 02, 12
    return np.array([[a + b, -a, -b], [-a, a + c, -c], [-b, -c, b + c]])


def flow_jacobian(f: Framework, t: TargetSpec, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Negative Jacobian of the flow by central differences of the control law.

    Equals the Hessian of the potential, so it is symmetric up to the
    finite-difference error.
    """
    tv, cg = _target_values(f, t), _compile_for_flow(f)
    return central_differences(lambda p: constraint_kernel(p, cg, tv)[2], f.positions, fd_step)


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
    (``det = 0``) is invariant.  ``z_k' = sum_j (E_0j - E_kj) z_j`` and E's
    zero row sums give ``sigma = E11 + E22 - E01 - E02 = 2 (w1 + w2 + w3)``.
    """
    w1, w2, w3 = _edge_weights(f, t)
    return DetZ(det=float(_det(f.positions)), sigma=2.0 * (w1 + w2 + w3))


@dataclass(frozen=True)
class EquilibriumReport:
    kind: str  # "desired" | "incorrect" | "not-equilibrium"
    min_jacobian_eig: float
    collinear: bool
    error_norm: float
    gradient_norm: float


def classify_equilibrium(f: Framework, t: TargetSpec, tol: float = 1e-6) -> EquilibriumReport:
    """Classify a three-agent state as desired / incorrect / not an equilibrium.

    Collinear is ``|det Z| < COLLINEARITY_REL_TOL * sqrt(d01 * d02)``, i.e. the
    angle at agent 0 has ``|sin| < COLLINEARITY_REL_TOL``, the same verdict in
    any unit; the squared lengths are read off the kernel call.  The Jacobian
    is :func:`flow_jacobian`'s.
    """
    if not is_three_agent_topology(f.graph):
        raise WrongTopology("equilibrium classification needs the three-agent topology")
    tv, cg = _target_values(f, t), _compile_for_flow(f)
    values, _, grad = constraint_kernel(f.positions, cg, tv)
    enorm, gnorm = vector_norm(values - tv), vector_norm(grad)
    if enorm < tol:
        kind = "desired"
    elif gnorm < tol:
        kind = "incorrect"
    else:
        kind = "not-equilibrium"
    J = flow_jacobian(f, t)
    min_eig = float(np.linalg.eigvalsh(0.5 * (J + J.T))[0])
    d01, d02 = values[:2].tolist()
    collinear = abs(float(_det(f.positions))) < COLLINEARITY_REL_TOL * math.sqrt(d01 * d02)
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
    target angle.  Needs the targets keyed ``CANONICAL_EDGES`` then
    ``CANONICAL_ANGLES``, in that order, and strictly positive squared distances.
    """
    if (tuple(e for e, _ in t.sq_distances) != CANONICAL_EDGES
            or tuple(a for a, _ in t.cosines) != CANONICAL_ANGLES):
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
        if self.divergence_bound < 0.0:
            raise ValueError("divergence_bound must be >= 0")


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Dense record of a gradient-flow run, one sample per accepted step.

    ``times``, ``positions``, ``errors`` and ``error_norm`` (the ``||e||`` the loop tested)
    of a simulated run are views of :func:`_rk4`'s flat float64 record, so a three-agent
    sample costs 88 bytes there and 16 more in ``lyapunov`` and ``det_z``.
    ``final_velocity``, stacked ``2n``, is the RK4 loop's last ``k1``: ``-R_W^T e`` there.
    """

    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)  # (T, n, 2)
    errors: np.ndarray = field(repr=False)     # (T, m+q)
    error_norm: np.ndarray = field(repr=False)
    lyapunov: np.ndarray = field(repr=False)
    det_z: np.ndarray | None = field(repr=False)
    terminal_status: str  # "converged" | "max-time" | "diverged" | "degenerate"
    final_velocity: np.ndarray | None = field(default=None, repr=False)  # (2n,)

    def __len__(self) -> int:
        return len(self.times)

    def final_positions(self) -> np.ndarray:
        return self.positions[-1]


def _rhs_canonical(x, d1s, d2s, cs, a=0.0, k=None):
    """Scalar flow for the canonical topology: ``(-R_W^T e, e)`` at the stacked state ``x + a*k``.

    At ``x`` when ``k`` is None.  Steps ``-(E(p) (x) I_2) p`` with :func:`_edge_weights`'s weights
    inline, in Python floats (six coordinates): at n = 3 about ten times cheaper than the kernel.
    """
    x0, y0, x1, y1, x2, y2 = x
    if k is not None:  # the RK4 stage point
        u0, v0, u1, v1, u2, v2 = k
        x0, y0, x1, y1 = x0 + a * u0, y0 + a * v0, x1 + a * u1, y1 + a * v1
        x2, y2 = x2 + a * u2, y2 + a * v2
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
    w1 = 2.0 * e1 - ec * c / n1
    w2 = 2.0 * e2 - ec * c / n2
    w3 = ec * inv
    v1x, v1y = w1 * ax + w3 * bx, w1 * ay + w3 * by  # agent 1: w1 (p0 - p1) + w3 (p0 - p2)
    v2x, v2y = w2 * bx + w3 * ax, w2 * by + w3 * ay  # agent 2; agent 0 moves by minus their sum
    return [-(v1x + v2x), -(v1y + v2y), v1x, v1y, v2x, v2y], (e1, e2, ec)


def _collocated_three(x, big: float) -> bool:
    """:func:`core.collocated` for three agents, in scalar arithmetic on the six coordinates.

    ``big`` is ``max|x|``, which the RK4 loop has already computed.
    """
    x0, y0, x1, y1, x2, y2 = x
    return min(math.hypot(x0 - x1, y0 - y1), math.hypot(x0 - x2, y0 - y2),
               math.hypot(x1 - x2, y1 - y2)) < collocation_tolerance_at(big)


def _combine_canonical(p, s, k1, k2, k3, k4):
    """``p + s*(k1 + 2k2 + 2k3 + k4)`` on six floats, unrolled (twice as cheap as a zip)."""
    (p0, p1, p2, p3, p4, p5), (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5) = p, k1, k2
    (c0, c1, c2, c3, c4, c5), (d0, d1, d2, d3, d4, d5) = k3, k4
    return (p0 + s * (a0 + 2.0 * b0 + 2.0 * c0 + d0), p1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            p2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2), p3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            p4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4), p5 + s * (a5 + 2.0 * b5 + 2.0 * c5 + d5))


def _rhs_generic(positions, cg: CompiledGraph, target_values, a=0.0, k=None):
    """Gradient flow for any compiled constraint graph: ``(-R_W^T e, e)`` at ``positions + a*k``.

    At ``positions`` when ``k`` is None.  At a stage point ``e`` is None, as
    :func:`_rk4` records only a state's errors.  No validation; one
    :func:`constraint_kernel` call; the velocity is an ``(n, 2)`` array.
    """
    if k is None:
        values, _, grad = constraint_kernel(positions, cg, target_values)
        return -grad, values - target_values
    return -constraint_kernel(positions + a * k, cg, target_values)[2], None


def _collocation_gate(p):
    """``degenerate(x, big)`` for the kernel flow: :func:`core.collocated`, measured when needed.

    Skips the pairwise test while ``s - 3*max|x - ref| > 2*tol``, ``s`` the
    ``min_separation`` of the last measured state ``ref``: a 2D vertex moves
    at most ``sqrt(2)*max|x - ref|`` and 3 > 2*sqrt(2), and the factor 2
    covers rounding, so every answer is the full test's; NaN or inf falls
    through to it.  States are never mutated in place, so holding ``ref`` is safe.
    """
    ref, sep = p, -math.inf  # nothing measured yet

    def degenerate(x, big):
        nonlocal ref, sep
        tol = collocation_tolerance_at(big)
        if sep - 3.0 * float(np.abs(x - ref).max()) > 2.0 * tol:
            return False
        ref, sep = x, min_separation(x)
        return sep < tol

    return degenerate


def _rk4(p, stage, combine, degenerate, cfg: SimulationConfig):
    """Classical fixed-step RK4 of ``p' = v`` from the state ``p``.

    ``stage(p, a, k)`` returns the velocity and errors ``(v, e)`` at ``p + a*k`` (at ``p``
    when ``k`` is None), and ``combine(p, s, k1, k2, k3, k4)`` returns the next state
    ``p + s*(k1 + 2k2 + 2k3 + k4)``, never changing ``p`` in place.  A state is a tuple of
    six floats (the three-agent flow) or a numpy array (the kernel flow).  Every accepted
    state is appended with its time, its errors and ``||e||`` (``math.hypot``, as
    :func:`core.vector_norm`) as one packed row of a flat ``array("d")`` buffer, 8 bytes per
    float; the velocity there is the next step's ``k1``, so a step costs four ``stage``
    calls and one ``combine``.  A recorded state ends the run, tested in this order:
    diverged when an error is not finite (as any coordinate that is not); degenerate when
    ``degenerate(p, big)`` (agents collocated; ``big`` is the state's ``max|x|``, computed
    once per state); diverged when ``big`` exceeds the initial state's ``max|x|`` plus
    ``divergence_bound``, so a translated start runs alike (not on the initial state);
    converged when ``||e|| < convergence_eps``.  Otherwise the run stops at ``t_max``.
    Returns ``(times, states, errors, norms, velocity, status)``: numpy views of the
    buffer's columns, shaped ``(T,)``, ``(T, size of p)``, ``(T, len(e))`` and ``(T,)``,
    then the velocity ``k1`` at the last recorded state.
    """
    dt = cfg.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    k1, e = stage(p, 0.0, None)
    size, width = np.size(p), 2 + np.size(p) + len(e)
    pack = struct.Struct(f"{width}d").pack  # one row per state: t, x, e, ||e||
    bound = float(np.abs(p).max()) + cfg.divergence_bound
    record = array("d")
    k = 0
    status = None
    while status is None:
        t = k * dt
        x = p if isinstance(p, tuple) else p.ravel().tolist()
        errs = e if isinstance(e, tuple) else e.tolist()
        norm = math.hypot(*errs)
        record.frombytes(pack(t, *x, *errs, norm))
        big = max(map(abs, x))
        if not norm < math.inf:  # only constrained coordinates move, so a NaN in x shows in e
            status = "diverged"
        elif degenerate(p, big):
            status = "degenerate"
        elif k and big > bound:
            status = "diverged"
        elif norm < cfg.convergence_eps:
            status = "converged"
        elif not t < cfg.t_max - 1e-12:
            status = "max-time"
        else:
            k2, _ = stage(p, half, k1)
            k3, _ = stage(p, half, k2)
            k4, _ = stage(p, dt, k3)
            p = combine(p, sixth, k1, k2, k3, k4)
            k += 1
            k1, e = stage(p, 0.0, None)
    table = np.frombuffer(record).reshape(-1, width)
    return table[:, 0], table[:, 1:1 + size], table[:, 1 + size:-1], table[:, -1], k1, status


def _trace(times, states, errs, norms, status, canonical: bool, velocity=None) -> SimulationTrace:
    """The trace of :func:`_rk4`'s record; arrays are used as they are, lists converted."""
    positions = np.asarray(states).reshape(len(states), -1, 2)
    errors, error_norm = np.asarray(errs), np.asarray(norms)
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
        final_velocity=None if velocity is None else np.ravel(velocity),
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
        p0, combine, degenerate = tuple(f0.config().tolist()), _combine_canonical, _collocated_three

        def stage(x, a, k):
            return _rhs_canonical(x, d1s, d2s, cs, a, k)
    else:
        p0, degenerate = f0.positions, _collocation_gate(f0.positions)

        def stage(x, a, k):
            return _rhs_generic(x, cg, tv, a, k)

        def combine(x, s, k1, k2, k3, k4):  # a new array; the gate holds on to old ones
            return x + s * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    with np.errstate(over="ignore", invalid="ignore"):  # a step out of the float range ends the run
        times, states, errs, norms, velocity, status = _rk4(p0, stage, combine, degenerate, cfg)
        return _trace(times, states, errs, norms, status, canonical, velocity)
