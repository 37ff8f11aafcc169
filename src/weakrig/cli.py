"""weakrig command line: analyze, simulate, grow, check-gradient.

Exit codes form a stable contract: 0 success/rigid, 1 error, 2 not rigid
(or failed gradient check), 3 timeout, 4 converged to an incorrect
equilibrium.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fileio
from .core import Framework, build_graph, min_separation, stable_norm
from .errors import WeakRigError
from .formation import (
    SimulationConfig,
    classify_equilibrium,
    control_law,
    is_three_agent_topology,
    simulate,
)
from .henneberg import MIN_ANGLE_DEG, grow_random
from .rigidity import (
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

# Default triangle seed for growth (near-equilateral, side ~2).
K3_SEED_POSITIONS = [[-1.732, 0.0], [0.0, 1.0], [0.0, -1.0]]


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


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weakrig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="rank-test a framework file for weak rigidity")
    p.add_argument("framework", help="framework JSON file")
    p.add_argument("--tol", type=_number("--tol", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
                   default=1e-9, help="relative singular-value tolerance (default 1e-9)")
    p.add_argument("--mode", choices=["auto", "2d", "3d"], default="auto",
                   help="2d or 3d must match the file's dim (default: the test for the file's dim)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("simulate", help="integrate the gradient formation flow")
    p.add_argument("framework", help="framework JSON file (initial condition)")
    p.add_argument("--targets", required=True, help="target JSON file")
    p.add_argument("--dt", type=_positive("--dt"), default=1e-3)
    p.add_argument("--t-max", type=_number("--t-max", lambda v: v >= 0.0, "finite and >= 0"),
                   default=50.0)
    p.add_argument("--eps", type=_positive("--eps"), default=1e-8,
                   help="convergence threshold on ||e||")
    p.add_argument("--out", help="write the trace as CSV to this path")
    p.add_argument("--json", action="store_true", help="emit the summary as JSON")

    p = sub.add_parser("grow", help="grow a minimally weakly rigid framework")
    p.add_argument("--n", type=int, required=True, help="target vertex count (>= 3)")
    p.add_argument("--seed", required=True, help="RNG seed (>= 0)",
                   type=_number("--seed", lambda v: v >= 0, "a non-negative integer", int))
    p.add_argument("--mix", type=_number("--mix", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
                   default=0.5,
                   help="probability of a 0-extension per step (default 0.5); from the K3 "
                        "seed at most one 1-extension happens, so this only moves when it does")
    p.add_argument("--out", help="write the final framework JSON here")
    p.add_argument("--log", help="write the growth log (one JSON step per line) here")

    p = sub.add_parser("check-gradient", help="compare the analytic matrix to finite differences",
                       description="Compare R_W to central differences on the framework centred "
                                   "on its centroid, in a unit of sqrt(RMS radius x closest-pair "
                                   "distance); passes when max |analytic - finite difference| "
                                   "< 1e-6 in that unit.")
    p.add_argument("framework", help="framework JSON file")
    p.add_argument("--fd-step", type=_positive("--fd-step"), default=1e-6,
                   help="finite-difference step, in the unit above (default 1e-6)")

    return parser


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
    elif np.isfinite(final).all():
        with np.errstate(all="ignore"):  # a diverged state's separations and cosines overflow
            grad = control_law(f0.with_positions(final), targets)
        summary["final_gradient_norm"] = float(stable_norm(grad))
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
    seed_fw = Framework(
        graph=build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]),
        dim=2,
        positions=np.array(K3_SEED_POSITIONS),
    )
    result = grow_random(seed_fw, steps=args.n - 3, rng_seed=args.seed, mix=args.mix)
    final = result.final
    if args.out:
        fileio.dump_framework(final, args.out)
    else:
        print(json.dumps(fileio.framework_to_dict(final), indent=2, sort_keys=True))
    if args.log:
        fileio.write_growth_log(result.steps, args.log)
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
    p = f.positions - f.positions.mean(axis=0)
    if f.n > 1:
        radius = math.sqrt(float(np.mean(np.add.reduce(p * p, axis=1))))
        p = p / math.sqrt(radius * min_separation(p))
    f = f.with_positions(p)
    analytic = weak_rigidity_matrix(f).matrix
    fd = finite_difference_weak_rigidity_matrix(f, step=args.fd_step)
    deviation = float(np.max(np.abs(analytic - fd))) if analytic.size else 0.0
    print(f"max |analytic - finite difference| = {deviation:.6e}")
    return EXIT_OK if deviation < GRADIENT_CHECK_THRESHOLD else EXIT_NOT_RIGID


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
