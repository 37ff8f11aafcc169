"""weakrig command line: analyze, simulate, grow, check-gradient.

Exit codes form a stable contract: 0 success/rigid, 1 error (a usage
error too), 2 not rigid (or failed gradient check), 3 timeout, 4
converged to an incorrect equilibrium.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import fileio
from .core import Framework, build_graph, coordinate_dot, min_separation, vector_norm
from .errors import WeakRigError
from .formation import (
    SimulationConfig,
    classify_equilibrium,
    is_three_agent_topology,
    simulate,
)
from .henneberg import DEFAULT_MIX, MIN_ANGLE_DEG, grow_random
from .rigidity import (
    DEFAULT_FD_STEP,
    DEFAULT_RANK_TOL,
    classify_infinitesimal_weak_rigidity,
    finite_difference_weak_rigidity_matrix,
    weak_rigidity_matrix,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_RIGID = 2
EXIT_TIMEOUT = 3
EXIT_INCORRECT_EQ = 4

GRADIENT_CHECK_THRESHOLD = 1e-6

# Default triangle seed for growth (near-equilateral, side ~2), built once:
# a Framework is frozen and its positions read-only, so every request shares it.
K3_SEED_POSITIONS = [[-1.732, 0.0], [0.0, 1.0], [0.0, -1.0]]
K3_SEED = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2,
                    np.array(K3_SEED_POSITIONS))


def _number(name, ok, requirement, convert=float):
    """An argparse type: a finite ``convert(text)`` for which ``ok`` holds."""
    def parse(text):
        try:
            value = convert(text)
            valid = -math.inf < value < math.inf and ok(value)  # an int of any size is finite
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"{name} must be {requirement}, got {text}")
        return value
    return parse


def _positive(name):
    return _number(name, lambda v: v > 0.0, "finite and positive")


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


@functools.cache  # one parser per process: parsing leaves it unchanged
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser, which the full one delegates to."""
    parser = argparse.ArgumentParser(prog="weakrig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="rank-test a framework file for weak rigidity")
    p.add_argument("framework", help="framework JSON file")
    p.add_argument("--tol", type=_number("--tol", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
                   default=DEFAULT_RANK_TOL,
                   help="relative singular-value tolerance (default %(default)g)")
    p.add_argument("--mode", choices=["auto", "2d", "3d"], default="auto",
                   help="2d or 3d must match the file's dim (default: the test for the file's dim)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("simulate", help="integrate the gradient formation flow")
    p.add_argument("framework", help="framework JSON file (initial condition)")
    p.add_argument("--targets", required=True, help="target JSON file")
    p.add_argument("--dt", type=_positive("--dt"), default=SimulationConfig.dt,
                   help="RK4 time step (default %(default)g)")
    p.add_argument("--t-max", type=_number("--t-max", lambda v: v >= 0.0, "finite and >= 0"),
                   default=SimulationConfig.t_max, help="time horizon (default %(default)g)")
    p.add_argument("--eps", type=_positive("--eps"), default=SimulationConfig.convergence_eps,
                   help="convergence threshold on ||e|| (default %(default)g)")
    p.add_argument("--out", help="write the trace as CSV to this path")
    p.add_argument("--json", action="store_true", help="emit the summary as JSON")

    p = sub.add_parser("grow", help="grow a minimally weakly rigid framework")
    p.add_argument("--n", type=int, required=True, help="target vertex count (>= 3)")
    p.add_argument("--seed", required=True, help="RNG seed (>= 0)",
                   type=_number("--seed", lambda v: v >= 0, "a non-negative integer", int))
    p.add_argument("--mix", type=_number("--mix", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
                   default=DEFAULT_MIX,
                   help="probability of a 0-extension per step (default %(default)g); from the K3 "
                        "seed at most one 1-extension happens, so this only moves when it does")
    p.add_argument("--out", help="write the final framework JSON here")
    p.add_argument("--log", help="write the growth log (one JSON step per line) here")

    p = sub.add_parser("check-gradient", help="compare the analytic matrix to finite differences",
                       description="Compare R_W to central differences on the framework centred "
                                   "on its centroid, in a unit of sqrt(RMS radius x closest-pair "
                                   "distance); passes when max |analytic - finite difference| "
                                   "< 1e-6 in that unit.")
    p.add_argument("framework", help="framework JSON file")
    p.add_argument("--fd-step", type=_positive("--fd-step"), default=DEFAULT_FD_STEP,
                   help="finite-difference step, in the unit above (default %(default)g)")

    return parser, sub.choices


def cmd_analyze(args) -> int:
    f = fileio.load_framework(args.framework)
    if args.mode != "auto" and int(args.mode[0]) != f.dim:
        print(f"error: file has dim {f.dim} but --mode {args.mode} was requested", file=sys.stderr)
        return EXIT_ERROR
    report = classify_infinitesimal_weak_rigidity(f, rel_tol=args.tol)
    if args.json:
        print(fileio.report_to_json(report))
    else:
        print(f"rank {report.rank}/{report.required_rank} - {report.verdict}")
        print(f"null space dimension: {report.null_space_dim}")
        print(f"trivial motion residual: {report.trivial_motion_residual:.3e}")
        print(f"rank tolerance: {report.tolerance_used:g}")
    return EXIT_OK if report.rigid else EXIT_NOT_RIGID


def cmd_simulate(args) -> int:
    f0 = fileio.load_framework(args.framework)
    targets = fileio.load_targets(args.targets, f0.graph)
    cfg = SimulationConfig(dt=args.dt, t_max=args.t_max, convergence_eps=args.eps)
    trace = simulate(f0, targets, cfg)
    canonical = is_three_agent_topology(f0.graph)
    if not canonical:
        print("warning: not the canonical three-agent topology; no stability claims apply",
              file=sys.stderr)
    if args.out:
        fileio.write_trace_csv(trace, args.out)
    final = trace.final_positions()
    summary = {
        "status": trace.terminal_status,
        "steps": len(trace) - 1,
        "t_final": float(trace.times[-1]),
        "final_error_norm": float(trace.error_norm[-1]),
        "final_gradient_norm": math.nan,  # kept for a state out of the float range
    }
    code = {"converged": EXIT_OK, "max-time": EXIT_TIMEOUT}.get(trace.terminal_status, EXIT_ERROR)
    if canonical and trace.terminal_status == "max-time":  # a diverged state is no equilibrium
        eq = classify_equilibrium(f0.with_positions(final), targets, tol=args.eps)
        summary["final_gradient_norm"] = eq.gradient_norm
        summary["terminal_kind"] = eq.kind
        summary["collinear"] = eq.collinear
        summary["min_jacobian_eig"] = eq.min_jacobian_eig
        if eq.kind == "incorrect":
            code = EXIT_INCORRECT_EQ
    elif np.isfinite(final).all():  # the flow's velocity at the final state: -R_W^T e
        summary["final_gradient_norm"] = vector_norm(trace.final_velocity)
    if args.json:  # JSON has no NaN or Infinity: a norm that is not finite is null
        print(json.dumps({key: None if isinstance(v, float) and not math.isfinite(v) else v
                          for key, v in summary.items()}, sort_keys=True))
    else:
        print(f"status: {summary['status']}")
        print(f"steps taken: {summary['steps']} (t = {summary['t_final']:g})")
        print(f"final ||e|| = {summary['final_error_norm']:.6e}")
        print(f"final ||grad|| = {summary['final_gradient_norm']:.6e}")
        if summary.get("terminal_kind") == "incorrect":
            print(f"terminal state is an incorrect equilibrium "
                  f"(collinear={summary['collinear']}, "
                  f"min Jacobian eigenvalue {summary['min_jacobian_eig']:.6g} < 0: unstable)")
    return code


def cmd_grow(args) -> int:
    if args.n < 3:
        print("error: --n must be at least 3", file=sys.stderr)
        return EXIT_ERROR
    if args.out and args.log and os.path.realpath(args.out) == os.path.realpath(args.log):
        print(f"error: --out and --log name the same file {args.out}", file=sys.stderr)
        return EXIT_ERROR
    result = grow_random(K3_SEED, steps=args.n - 3, rng_seed=args.seed, mix=args.mix)
    final = result.final
    with fileio.AtomicWrites() as batch:  # a path is replaced only once both files are written
        if args.out:
            fileio.dump_framework(final, args.out, batch)
        if args.log:
            fileio.write_growth_log(result.steps, args.log, batch)
    if not args.out:
        print(fileio.framework_to_json(final))
    g = final.graph
    print(f"grew to n={g.n} with {g.m} edges + {g.q} angles "
          f"= {g.constraint_count} constraints (2n-3 = {2 * g.n - 3}); "
          f"{sum(result.attempts)} attempts, rejected {result.unbuildable} unbuildable, "
          f"{result.too_close} too close, {result.small_angle} under {MIN_ANGLE_DEG:g} deg, "
          f"{result.not_minimal} not minimal", file=sys.stderr)
    return EXIT_OK


def cmd_check_gradient(args) -> int:
    f = fileio.load_framework(args.framework)
    # A fixed step and threshold mean the same in every unit and frame only on
    # a normalized copy.  Rounding in the distance rows grows like
    # (length / unit)^2 and truncation in the cosine rows like (unit / ray)^3,
    # so the unit is the geometric mean of the spread and the closest pair.
    # A power of two first brings max|p| under 1, exactly, so the squares
    # below stay finite past 1e154 and every later step scales exactly.
    p = f.positions - f.positions.mean(axis=0)
    if f.n > 1:
        p = np.ldexp(p, -math.frexp(float(np.abs(p).max()))[1])
        radius = math.sqrt(float(np.mean(coordinate_dot(p, p))))
        p = p / math.sqrt(radius * min_separation(p))
    f = f.with_positions(p)
    analytic = weak_rigidity_matrix(f).matrix
    fd = finite_difference_weak_rigidity_matrix(f, step=args.fd_step)
    deviation = float(np.max(np.abs(analytic - fd))) if analytic.size else 0.0
    print(f"max |analytic - finite difference| = {deviation:.6e}")
    return EXIT_OK if deviation < GRADIENT_CHECK_THRESHOLD else EXIT_NOT_RIGID


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    try:
        if argv and argv[0] in commands:  # what the full parser would do, minus its own pass
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            args.command = argv[0]
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:  # no command, --help, an unknown command or a leading option
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is 2, which here means "not rigid"
        return EXIT_ERROR if exc.code else EXIT_OK  # --help exits 0
    handlers = {
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "grow": cmd_grow,
        "check-gradient": cmd_check_gradient,
    }
    try:
        return handlers[args.command](args)
    except (WeakRigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
