"""Traced run: spans around the calls into weakrig's public functions.

The wrappers are installed from the benchmark's files, not inside ``src/``.
Each wrapped function is replaced in every ``weakrig`` module namespace that
holds a reference to it, because ``from .rigidity import ...`` copies the
reference.  ``Framework`` is traced through its ``__init__`` (which runs the
collocation check).  Private helpers are not wrapped, so their cost lands in
the enclosing public span: ``_rhs_canonical``/``_rhs_generic`` in
``formation.simulate``, ``_atomic_write`` in ``fileio.write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The public writers share one span name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("core", "build_graph", "core.build_graph"),
    ("core", "min_separation", "core.min_separation"),
    ("rigidity", "weak_rigidity_matrix", "rigidity.weak_rigidity_matrix"),
    ("rigidity", "weak_rigidity_function", "rigidity.weak_rigidity_function"),
    ("rigidity", "numerical_rank", "rigidity.numerical_rank"),
    ("rigidity", "is_minimally_weakly_rigid", "rigidity.is_minimally_weakly_rigid"),
    ("rigidity", "finite_difference_weak_rigidity_matrix",
     "rigidity.finite_difference_weak_rigidity_matrix"),
    ("rigidity", "classify_infinitesimal_weak_rigidity",
     "rigidity.classify_infinitesimal_weak_rigidity"),
    ("rigidity", "classify_weak_rigidity_3d", "rigidity.classify_weak_rigidity_3d"),
    ("formation", "simulate", "formation.simulate"),
    ("formation", "classify_equilibrium", "formation.classify_equilibrium"),
    ("formation", "flow_jacobian", "formation.flow_jacobian"),
    ("formation", "control_law", "formation.control_law"),
    ("henneberg", "grow_random", "henneberg.grow_random"),
    ("henneberg", "weakly_rigid_0_extension", "henneberg.weakly_rigid_0_extension"),
    ("henneberg", "weakly_rigid_1_extension", "henneberg.weakly_rigid_1_extension"),
    ("fileio", "trace_to_csv", "fileio.trace_to_csv"),
    ("fileio", "load_framework", "fileio.load_framework"),
    ("fileio", "load_targets", "fileio.load_targets"),
    ("fileio", "dump_framework", "fileio.write"),
    ("fileio", "write_trace_csv", "fileio.write"),
    ("fileio", "write_growth_log", "fileio.write"),
    ("fileio", "write_matrix_csv", "fileio.write"),
)
FRAMEWORK_SPAN = "core.Framework"
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in TARGETS] + [FRAMEWORK_SPAN]))

# Self time goes into the last-line per-layer metrics only for layers that run
# on every workload; on a workload that bypasses a layer its time reads 0.
SELF_TIME_EVERYWHERE = (
    "cli.main", "core.Framework", "core.build_graph", "core.min_separation",
    "rigidity.weak_rigidity_matrix", "rigidity.weak_rigidity_function",
    "fileio.load_framework",
)
MODULES_EVERYWHERE = ("core", "rigidity", "fileio")
MODULES = ("cli", "core", "rigidity", "formation", "henneberg", "fileio")

# (outer, inner) span pairs counted when inner runs anywhere inside outer.
SVD_IN_MINIMALITY = ("rigidity.is_minimally_weakly_rigid", "rigidity.numerical_rank")
MINIMALITY_IN_GROWTH = ("henneberg.grow_random", "rigidity.is_minimally_weakly_rigid")


def _result_counts(name, result, counts):
    """Work counted from a call's result, where the work happens."""
    if name == "rigidity.weak_rigidity_matrix":
        rows, cols = result.matrix.shape
        counts["rigidity.rw_entries"] += rows * cols
    elif name == "formation.simulate":
        counts["formation.steps"] += len(result) - 1
    elif name == "henneberg.grow_random":
        counts["henneberg.accepted_steps"] += len(result.steps)
    elif name == "fileio.trace_to_csv":
        counts["fileio.csv_bytes"] += len(result)


class Recorder:
    """Spans kept in memory as (name, start, end, parent, request, pass)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.requests = 0
        self.pass_index = -1
        self.counts = Counter()
        self.pass_counts = []
        self.pass_starts = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.requests += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.requests, self.pass_index)
            _result_counts(name, result, counts)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "weakrig" or key.startswith("weakrig.")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[f"weakrig.{mod_name}"], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))
        framework = sys.modules["weakrig.core"].Framework
        self._patched.append((framework, "__init__", framework.__init__))
        framework.__init__ = self._wrap(FRAMEWORK_SPAN, framework.__init__)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.pass_starts.append(len(self.spans))
        self.counts.clear()
        self.install()

    def end_pass(self) -> None:
        self.uninstall()
        self.pass_counts.append(dict(self.counts))

    def rollup(self, k: int) -> dict:
        """calls, self_s and inclusive seconds per span name for traced pass ``k``."""
        start = self.pass_starts[k]
        end = self.pass_starts[k + 1] if k + 1 < len(self.pass_starts) else len(self.spans)
        calls, self_s, incl = Counter(), defaultdict(float), defaultdict(float)
        inside = Counter()  # (ancestor, descendant) pairs needed by the ratios
        for sid in range(start, end):
            name, t0, t1, parent, _, _ = self.spans[sid]
            calls[name] += 1
            self_s[name] += t1 - t0
            incl[name] += t1 - t0
            if parent >= 0:
                self_s[self.spans[parent][0]] -= t1 - t0
            ancestor = parent
            while ancestor >= 0:
                outer = self.spans[ancestor][0]
                if (outer, name) in (SVD_IN_MINIMALITY, MINIMALITY_IN_GROWTH):
                    inside[(outer, name)] += 1
                    break
                ancestor = self.spans[ancestor][3]
        return {"calls": calls, "self_s": self_s, "incl": incl, "inside": inside,
                "counts": self.pass_counts[k]}

    def per_pass_metrics(self, k: int) -> dict:
        """Every per-layer figure of traced pass ``k`` (last-line metrics and the rest)."""
        r = self.rollup(k)
        calls, self_s, counts = r["calls"], r["self_s"], r["counts"]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(v for key, v in self_s.items()
                                          if key.startswith(module + "."))
        minimality = calls["rigidity.is_minimally_weakly_rigid"]
        extensions = (calls["henneberg.weakly_rigid_0_extension"]
                      + calls["henneberg.weakly_rigid_1_extension"])
        steps = counts.get("formation.steps", 0)
        csv_bytes = counts.get("fileio.csv_bytes", 0)
        accepted = counts.get("henneberg.accepted_steps", 0)
        out.update({
            "rigidity.rw_entries": counts.get("rigidity.rw_entries", 0),
            "rigidity.svd_per_minimality_check":
                r["inside"][SVD_IN_MINIMALITY] / minimality if minimality else 0.0,
            "formation.steps": steps,
            "formation.us_per_step":
                1e6 * r["incl"]["formation.simulate"] / steps if steps else 0.0,
            "henneberg.extension.calls": extensions,
            "henneberg.accepted_steps": accepted,
            "henneberg.accept_ratio": accepted / extensions if extensions else 0.0,
            "henneberg.minimality_checks": r["inside"][MINIMALITY_IN_GROWTH],
            "fileio.csv_bytes": csv_bytes,
            "fileio.csv_mb_per_s":
                csv_bytes / 1e6 / r["incl"]["fileio.trace_to_csv"] if csv_bytes else 0.0,
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, request, pass_index) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": request, "pass": pass_index})
                         + "\n")


def layer_unit(metric: str) -> str:
    """Unit of a per-layer figure, from its name."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(("_ratio", "_check")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_per_s"):
        return "MB/s"
    if metric.endswith("us_per_step"):
        return "us"
    return "count"


def last_line_metric_names() -> list:
    """The per-layer metrics the last output line carries, in BENCHMARK.json order."""
    names = [f"{name}.calls" for name in SPAN_NAMES]
    names += [f"{name}.self_s" for name in SELF_TIME_EVERYWHERE]
    names += [f"{module}.self_s" for module in MODULES_EVERYWHERE]
    names += ["rigidity.rw_entries", "rigidity.svd_per_minimality_check", "formation.steps",
              "henneberg.extension.calls", "henneberg.accepted_steps", "henneberg.accept_ratio",
              "henneberg.minimality_checks", "fileio.csv_bytes"]
    return names
