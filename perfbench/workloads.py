"""The three workloads: seeded input files, request lists and expected answers.

Every expectation comes from how the input was built (a grown framework is
minimal and rigid, one constraint fewer is not rigid, a collinear start ends
at an incorrect equilibrium) or from the small numpy evaluation below, never
from a program call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from harness import Request, call, expect_code

# Same seed triangle as ``weakrig grow``.
K3_POSITIONS = [[-1.732, 0.0], [0.0, 1.0], [0.0, -1.0]]

# certify: grown sizes, and the unit/frame changes applied to each grown file.
# A call of ~0.1 s or less has a repeatable best time on a shared host, a
# 1-2 s call does not, so the larger sizes run once per run, after timing.
CERTIFY_N = (8, 9, 10, 11, 12)
CERTIFY_N_ONCE = (15, 18, 24, 30)
UNIT_COPIES = 6
SCALE_LOG10 = (-2.0, 3.0)  # scale 1e-2 .. 1e3, one stratum per copy
OFFSET_LOG10_MAX = 4.0  # offsets up to 1e4

# flow-canonical: the paper's run plus seeded starts on the same targets.
PAPER_START = [[-3.0, 0.0], [1.0, 1.0], [-1.0, -3.0]]
PAPER_TARGETS = {"sq_distances": [[0, 1, 8.0], [0, 2, 9.0]], "cosines_deg": [[0, 1, 2, 40.0]]}
PAPER_T_MAX = 50.0
PAPER_FINAL_ERROR = 9.478e-4
SEEDED_T_MAX = 1.0
NONCOLLINEAR_STARTS = 2
COLLINEAR_STARTS = 2
CANONICAL_DT = 1e-3
CANONICAL_EDGES, CANONICAL_ANGLES = [(0, 1), (0, 2)], [(0, 1, 2)]
CANONICAL_HEADER = "time,x1,y1,x2,y2,x3,y3,e12,e13,ecos,V,detZ"

# flow-generic: grown frameworks scaled to unit RMS radius, started off target
# by a fraction of their closest pair's distance, run for a fixed step count
# at a step RK4 is stable at (see ``stable_dt``).
GENERIC_N = (8, 10, 12, 14, 16, 18, 20)
GENERIC_DT_MAX = 1e-2
GENERIC_STEPS = 20
PERTURBATION = 0.05

GRADIENT_THRESHOLD = 1e-6


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def framework_dict(positions, edges, angles) -> dict:
    positions = np.asarray(positions, float)
    return {
        "dim": int(positions.shape[1]),
        "positions": positions.tolist(),
        "edges": [list(map(int, e)) for e in edges],
        "angles": [list(map(int, a)) for a in angles],
    }


def constraint_values(positions, edges, angles) -> np.ndarray:
    """Squared edge lengths, then angle cosines (the benchmark's own evaluation)."""
    p = np.asarray(positions, float)
    e = np.asarray(edges, int).reshape(-1, 2)
    a = np.asarray(angles, int).reshape(-1, 3)
    z = p[e[:, 0]] - p[e[:, 1]]
    u = p[a[:, 1]] - p[a[:, 0]]
    v = p[a[:, 2]] - p[a[:, 0]]
    cos = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    return np.concatenate([np.einsum("ij,ij->i", z, z), cos])


def min_separation(positions) -> float:
    p = np.asarray(positions, float)
    d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
    return float(d[np.triu_indices(len(p), 1)].min())


def stable_dt(positions, edges, angles) -> float:
    """Step, at most GENERIC_DT_MAX, at which RK4 is stable on the flow.

    Near the target the flow's Jacobian is about -J^T J, J the constraint
    Jacobian (central differences of ``constraint_values``).  RK4 is stable
    on the negative real axis up to |dt * lambda| = 2.78; this keeps
    dt * lambda_max <= 1.  Cosine rows grow like 1/length, so a grown
    framework with a short ray needs a far smaller step than 1e-2: there a
    fixed step diverges within a few steps.
    """
    p = np.asarray(positions, float)
    h = 1e-6 * min_separation(p)
    cols = []
    for c in range(p.size):
        step = np.zeros(p.size)
        step[c] = h
        step = step.reshape(p.shape)
        cols.append((constraint_values(p + step, edges, angles)
                     - constraint_values(p - step, edges, angles)) / (2 * h))
    lam = np.linalg.norm(np.column_stack(cols), 2) ** 2
    return min(GENERIC_DT_MAX, 1.0 / float(lam))


def rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_3d(gaussian: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(gaussian)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def offset(direction: np.ndarray, log10_magnitude: float) -> np.ndarray:
    return direction / np.linalg.norm(direction) * 10.0**log10_magnitude


def csv_line_check(path: Path, steps: int):
    """Trace CSV: canonical header and one row per state (steps + 1)."""
    data = path.read_bytes()
    header = data[:data.index(b"\n")].decode()
    if header != CANONICAL_HEADER:
        return f"trace header {header[:40]!r}"
    rows = data.count(b"\n") - 1
    if rows != steps + 1:
        return f"trace has {rows} rows for {steps} steps"
    return None


class Workload:
    name = ""
    query_kind = ""  # the request kind behind request_p50_ms
    work_kind = ""  # the request kind whose work feeds work_per_s

    def __init__(self, program, workdir: Path, seed: int):
        self.program = program
        self.cli = program.cli
        self.dir = workdir
        self.seed = seed
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def warm_up(self, argvs) -> None:
        """One untimed call per command, so lazy set-up is paid before timing."""
        for argv in argvs:
            call(self.cli, argv)

    def setup(self) -> None:
        raise NotImplementedError

    def requests(self) -> list:
        """The pass: repeated for the timed part of the run."""
        raise NotImplementedError

    def once_requests(self) -> list:
        """Graded requests too long to repeat; run once, after the timed part."""
        return []

    def known_defect_requests(self) -> list:
        """Requests that fail at a known defect; run once, reported, not graded."""
        return []


class Certify(Workload):
    """grow, then analyze the grown file and copies of it, then check-gradient."""

    name = "certify"
    query_kind = "analyze"
    work_kind = "grow"

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.plans = {}
        for n in CERTIFY_N + CERTIFY_N_ONCE:
            lo, hi = SCALE_LOG10
            width = (hi - lo) / UNIT_COPIES
            self.plans[n] = {
                "grow_seed": int(rng.integers(2**31)),
                "scale_log10": [lo + (k + rng.random()) * width for k in range(UNIT_COPIES)],
                "theta": rng.uniform(0.0, 2.0 * math.pi, UNIT_COPIES),
                "offset_dir": rng.normal(size=(UNIT_COPIES, 2)),
                "offset_log10": rng.uniform(0.0, OFFSET_LOG10_MAX, UNIT_COPIES),
                "drop": rng.random(),
                "add_kind": rng.random(),
                "add_pick": rng.random(),
                "lift_z": rng.uniform(-1.0, 1.0, n),
                "lift_rotation": rng.normal(size=(3, 3)),
                "lift_offset_dir": rng.normal(size=3),
                "lift_offset_log10": rng.uniform(0.0, OFFSET_LOG10_MAX),
            }
        self.grown_bytes = {}
        self.lift_answer = {}
        self.derived = set()
        warm = self.path("warm.json")
        self.warm_up([
            ["grow", "--n", "5", "--seed", "0", "--out", warm],
            ["analyze", warm, "--json"],
            ["check-gradient", warm],
        ])

    def derive(self, n: int) -> None:
        """Write the copies of grown framework ``n`` that the analyze requests read."""
        if n in self.derived:
            return
        self.derived.add(n)
        plan = self.plans[n]
        grown = json.loads(Path(self.path(f"g{n}.json")).read_text())
        p = np.array(grown["positions"], float)
        edges = [tuple(e) for e in grown["edges"]]
        angles = [tuple(a) for a in grown["angles"]]
        for k in range(UNIT_COPIES):
            moved = 10.0 ** plan["scale_log10"][k] * p @ rotation_2d(plan["theta"][k]).T
            moved = moved + offset(plan["offset_dir"][k], plan["offset_log10"][k])
            write_json(self.dir / f"unit{n}_{k}.json", framework_dict(moved, edges, angles))

        constraints = [("e", e) for e in edges] + [("a", a) for a in angles]
        kind, dropped = constraints[int(plan["drop"] * len(constraints))]
        write_json(self.dir / f"drop{n}.json", framework_dict(
            p, [e for e in edges if (kind, e) != ("e", dropped)],
            [a for a in angles if (kind, a) != ("a", dropped)]))

        present_edges, present_angles = set(edges), set(angles)
        missing_edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if (i, j) not in present_edges]
        if plan["add_kind"] < 0.5 and missing_edges:
            added = missing_edges[int(plan["add_pick"] * len(missing_edges))]
            write_json(self.dir / f"add{n}.json", framework_dict(p, edges + [added], angles))
        else:
            missing_angles = [(k, i, j) for k in range(n) for i in range(n) for j in range(i + 1, n)
                              if k not in (i, j) and (k, i, j) not in present_angles]
            added = missing_angles[int(plan["add_pick"] * len(missing_angles))]
            write_json(self.dir / f"add{n}.json", framework_dict(p, edges, angles + [added]))

        centred = p - p.mean(axis=0)
        rms = math.sqrt(float(np.mean(np.sum(centred**2, axis=1))))
        lifted = np.column_stack([p, plan["lift_z"] * rms])
        write_json(self.dir / f"lift{n}.json", framework_dict(lifted, edges, angles))
        moved = lifted @ rotation_3d(plan["lift_rotation"]).T
        moved = moved + offset(plan["lift_offset_dir"], plan["lift_offset_log10"])
        write_json(self.dir / f"moved{n}.json", framework_dict(moved, edges, angles))

    def requests(self):
        return [req for n in CERTIFY_N for req in self.size_requests(n)]

    def once_requests(self):
        return [req for n in CERTIFY_N_ONCE for req in self.size_requests(n)]

    def size_requests(self, n):
        plan = self.plans[n]
        grown, log = self.path(f"g{n}.json"), self.path(f"g{n}.log")
        reqs = [Request(
            "grow", "grown",
            ["grow", "--n", str(n), "--seed", str(plan["grow_seed"]),
             "--out", grown, "--log", log],
            check=lambda out: self.check_grow(out, n),
            work=lambda out: n - 3,
            after=lambda out: self.derive(n))]
        reqs.append(self.analyze("grown", grown, lambda out: self.check_rigid(out, n)))
        reqs.append(self.analyze("drop", self.path(f"drop{n}.json"), self.check_not_rigid))
        reqs.append(self.analyze("lift-3d", self.path(f"lift{n}.json"),
                                 lambda out: self.check_lift(out, n), mode="3d"))
        reqs.append(self.analyze("moved-3d", self.path(f"moved{n}.json"),
                                 lambda out: self.check_moved(out, n), mode="3d"))
        reqs.append(Request("check-gradient", "grown", ["check-gradient", grown],
                            check=self.check_gradient))
        return reqs

    def known_defect_requests(self):
        """``analyze`` on the unit/frame copies and the one-added copy: rigid.

        A change of units or frame cannot change the verdict, and one more
        constraint cannot lower the rank.  At the commit that introduced the
        benchmark both can, because the rank cut is relative to the largest
        singular value while distance rows scale like a length and cosine
        rows like its inverse (ROADMAP item 4): a long added edge raises the
        cut above the smallest true singular value.  So these run once after
        the timed passes and their failures are reported apart from the
        graded ones.
        """
        reqs = []
        for n in CERTIFY_N + CERTIFY_N_ONCE:
            copies = [("unit-copy", f"unit{n}_{k}.json") for k in range(UNIT_COPIES)]
            reqs += [self.analyze(label, self.path(name), lambda out, n=n: self.check_rigid(out, n))
                     for label, name in copies + [("add", f"add{n}.json")]]
        return reqs

    @staticmethod
    def analyze(label, path, check, mode=None):
        argv = ["analyze", path, "--json"] + (["--mode", mode] if mode else [])
        return Request("analyze", label, argv, check=check)

    def check_grow(self, out, n):
        bad = expect_code(out, 0)
        if bad:
            return bad
        data = Path(self.path(f"g{n}.json")).read_bytes()
        grown = json.loads(data)
        if len(grown["positions"]) != n or len(grown["edges"]) + len(grown["angles"]) != 2 * n - 3:
            return (f"grew {len(grown['positions'])} vertices, "
                    f"{len(grown['edges']) + len(grown['angles'])} constraints")
        steps = Path(self.path(f"g{n}.log")).read_text().count("\n")
        if steps != n - 3:
            return f"growth log has {steps} steps, expected {n - 3}"
        if self.grown_bytes.setdefault(n, data) != data:
            return "same seed grew a different framework"
        return None

    @staticmethod
    def check_rigid(out, n):
        bad = expect_code(out, 0)
        if bad:
            return bad
        report = out.json()
        if not report["rigid"] or report["rank"] != 2 * n - 3:
            return f"rank {report['rank']}/{2 * n - 3}"
        return None

    @staticmethod
    def check_not_rigid(out):
        bad = expect_code(out, 2)
        if bad:
            return bad
        return "reported rigid" if out.json()["rigid"] else None

    def check_lift(self, out, n):
        self.lift_answer[n] = None
        bad = expect_code(out, 0, 2)
        if bad:
            return bad
        self.lift_answer[n] = (out.code, out.json()["rank"])
        return None

    def check_moved(self, out, n):
        bad = expect_code(out, 0, 2)
        if bad:
            return bad
        answer = (out.code, out.json()["rank"])
        if answer != self.lift_answer.get(n):
            return f"verdict {answer} differs from unmoved lift {self.lift_answer.get(n)}"
        return None

    @staticmethod
    def check_gradient(out):
        bad = expect_code(out, 0)
        if bad:
            return bad
        deviation = float(out.stdout.rsplit("=", 1)[1])
        return None if deviation < GRADIENT_THRESHOLD else f"deviation {deviation:.3e}"


def simulate_summary_check(out, codes, initial_error, steps_at_horizon):
    bad = expect_code(out, *codes)
    if bad:
        return bad, None
    summary = out.json()
    if not summary["final_error_norm"] < initial_error:
        return (f"||e|| {summary['final_error_norm']:.3e} not below initial "
                f"{initial_error:.3e}", summary)
    if out.code != 0 and summary["steps"] != steps_at_horizon:
        return f"{summary['steps']} steps, expected {steps_at_horizon}", summary
    return None, summary


def simulate_steps(out) -> float:
    return out.json()["steps"]


class FlowCanonical(Workload):
    """Three-agent simulate --out --json: the paper's run and seeded starts."""

    name = "flow-canonical"
    query_kind = "simulate"
    work_kind = "simulate"

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        write_json(self.dir / "paper.json",
                   framework_dict(PAPER_START, CANONICAL_EDGES, CANONICAL_ANGLES))
        write_json(self.dir / "targets.json", PAPER_TARGETS)
        self.targets = np.array([8.0, 9.0, math.cos(math.radians(40.0))])
        self.starts = []
        for k in range(NONCOLLINEAR_STARTS):
            while True:
                p = rng.uniform(-3.0, 3.0, (3, 2))
                z1, z2 = p[1] - p[0], p[2] - p[0]
                sides = [np.linalg.norm(z1), np.linalg.norm(z2), np.linalg.norm(p[2] - p[1])]
                cross = abs(z1[0] * z2[1] - z1[1] * z2[0])
                if min(sides) > 0.5 and cross > 0.1 * sides[0] * sides[1]:
                    break
            self.starts.append(("noncollinear", f"nc{k}", p))
        for k in range(COLLINEAR_STARTS):
            while True:
                t = rng.uniform(-3.0, 3.0, 3)
                if min(abs(t[0] - t[1]), abs(t[0] - t[2]), abs(t[1] - t[2])) > 0.5:
                    break
            # On a line at a random angle the points are collinear only to
            # rounding, and the collinear equilibrium is unstable, so the
            # flow can leave the line.  A horizontal or vertical line keeps
            # one coordinate exactly equal, and the flow keeps it so.
            axis = int(rng.integers(2))
            p = np.empty((3, 2))
            p[:, axis] = t + rng.uniform(-2.0, 2.0)
            p[:, 1 - axis] = rng.uniform(-2.0, 2.0)
            self.starts.append(("collinear", f"col{k}", p))
        for _, name, p in self.starts:
            write_json(self.dir / f"{name}.json",
                       framework_dict(p, CANONICAL_EDGES, CANONICAL_ANGLES))
        self.warm_up([["simulate", self.path("paper.json"), "--targets", self.path("targets.json"),
                       "--t-max", "0.05", "--out", self.path("warm.csv"), "--json"]])

    def simulate(self, label, name, t_max, check):
        argv = ["simulate", self.path(f"{name}.json"), "--targets", self.path("targets.json"),
                "--dt", repr(CANONICAL_DT), "--t-max", repr(t_max),
                "--out", self.path(f"{name}.csv"), "--json"]
        return Request("simulate", label, argv, check=check, work=simulate_steps)

    def once_requests(self):
        return [self.simulate("paper", "paper", PAPER_T_MAX, self.check_paper)]

    def requests(self):
        reqs = []
        seeded_steps = round(SEEDED_T_MAX / CANONICAL_DT)
        for label, name, p in self.starts:
            initial = float(np.linalg.norm(
                constraint_values(p, CANONICAL_EDGES, CANONICAL_ANGLES) - self.targets))
            check = self.check_noncollinear if label == "noncollinear" else self.check_collinear
            reqs.append(self.simulate(
                label, name, SEEDED_T_MAX,
                lambda out, c=check, name=name, e0=initial: c(out, name, e0, seeded_steps)))
        return reqs

    def check_paper(self, out):
        steps = round(PAPER_T_MAX / CANONICAL_DT)
        bad, summary = simulate_summary_check(out, (3,), math.inf, steps)
        if bad:
            return bad
        if abs(summary["final_error_norm"] / PAPER_FINAL_ERROR - 1.0) > 1e-3:
            return (f"final ||e|| {summary['final_error_norm']:.6e}, "
                    f"expected {PAPER_FINAL_ERROR:.4e}")
        return csv_line_check(self.dir / "paper.csv", summary["steps"])

    def check_noncollinear(self, out, name, initial, steps):
        bad, summary = simulate_summary_check(out, (0, 3), initial, steps)
        return bad or csv_line_check(self.dir / f"{name}.csv", summary["steps"])

    def check_collinear(self, out, name, initial, steps):
        bad, summary = simulate_summary_check(out, (4,), initial, steps)
        if bad:
            return bad
        if summary.get("collinear") is not True or not summary.get("min_jacobian_eig", 0.0) < 0.0:
            return f"collinear={summary.get('collinear')} min eig {summary.get('min_jacobian_eig')}"
        return csv_line_check(self.dir / f"{name}.csv", summary["steps"])


class FlowGeneric(Workload):
    """simulate --json (no --out) on grown frameworks, targets their own shape."""

    name = "flow-generic"
    query_kind = "simulate"
    work_kind = "simulate"

    def setup(self):
        wr = self.program
        rng = np.random.default_rng([self.seed, 3])
        k3 = wr.Framework(wr.build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2,
                          np.array(K3_POSITIONS))
        self.initial, self.dt = {}, {}
        for n in GENERIC_N:
            grown = wr.grow_random(k3, n - 3, rng_seed=int(rng.integers(2**31))).final
            edges, angles = list(grown.graph.edges), list(grown.graph.angles)
            shape = grown.positions - grown.positions.mean(axis=0)
            shape = shape / math.sqrt(float(np.mean(np.sum(shape**2, axis=1))))
            target = constraint_values(shape, edges, angles)
            start = shape + rng.normal(scale=PERTURBATION * min_separation(shape),
                                       size=shape.shape)
            self.dt[n] = stable_dt(start, edges, angles)
            self.initial[n] = float(np.linalg.norm(
                constraint_values(start, edges, angles) - target))
            m = len(edges)
            write_json(self.dir / f"start{n}.json", framework_dict(start, edges, angles))
            write_json(self.dir / f"targets{n}.json", {
                "sq_distances": [[i, j, float(v)] for (i, j), v in zip(edges, target[:m])],
                "cosines": [[k, i, j, float(v)] for (k, i, j), v in zip(angles, target[m:])],
            })
        self.warm_up([self.argv(GENERIC_N[0], 2)])

    def argv(self, n, steps):
        dt = self.dt[n]
        return ["simulate", self.path(f"start{n}.json"), "--targets",
                self.path(f"targets{n}.json"), "--dt", repr(dt), "--t-max", repr(steps * dt),
                "--json"]

    def requests(self):
        return [Request("simulate", "grown-start", self.argv(n, GENERIC_STEPS),
                        check=lambda out, e0=self.initial[n]:
                            simulate_summary_check(out, (0, 3), e0, GENERIC_STEPS)[0],
                        work=simulate_steps)
                for n in GENERIC_N]


WORKLOADS = {w.name: w for w in (Certify, FlowCanonical, FlowGeneric)}
