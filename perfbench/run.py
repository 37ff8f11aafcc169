#!/usr/bin/env python3
"""Benchmark for weakrig: three CLI workloads, checked answers, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One client in one process sends requests through ``weakrig.cli.main`` one at
a time (closed loop).  The workload's fixed request list (a "pass") is built
from ``--seed`` and repeated until ``--seconds`` would be exceeded.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate untraced/traced and it carries the per-layer
metrics.  Full results, the environment record and the span file go to
``perfbench/.out/``.  ``--workload all`` runs each workload in its own fresh
process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from harness import Tally
from tracing import Recorder, last_line_metric_names, layer_unit

# Pin BLAS before numpy loads: OpenBLAS starts one thread per core otherwise,
# and the benchmark measures one client on one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / ".out"
WORKLOAD_NAMES = ("certify", "flow-canonical", "flow-generic")
SETUP_SAMPLES = 7  # set-ups per run (one here, the rest in fresh processes)
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int, workdir: Path):
    """Import the program, write the seeded inputs and warm each command up."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (its import time belongs to set-up)
    import weakrig
    import weakrig.cli
    import workloads

    workload = workloads.WORKLOADS[name](weakrig, workdir, seed)
    workload.setup()
    return time.perf_counter() - t0, workload


def setup_in_fresh_process(name: str, seed: int, k: int) -> float:
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}-setup{k}"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-only", str(workdir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads_in_use(np):
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(np),
    }


def measure(workload, seconds: float, recorder=None):
    """Repeat the pass until the next one would overrun ``seconds``.

    Returns the tallies of untraced and traced passes.  With a recorder,
    passes alternate untraced/traced, at least one of each.
    """
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    done = 0
    while True:
        tracing = recorder is not None and done % 2 == 1
        if tracing:
            recorder.begin_pass()
        try:
            (traced if tracing else plain).run_pass(workload.cli, workload.requests())
        finally:
            if tracing:
                recorder.end_pass()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= (1 if recorder is None else 2) and elapsed * (done + 1) / done > seconds:
            return plain, traced


# Last-line metrics of --trace 0, with their units; every workload has each.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "request_p50_ms": "ms", "work_per_s": "1/s"}


def end_to_end(workload, tally, once, setup_s):
    """Last-line metrics, and the same figures under per-command names.

    Last-line metrics take each request's best time over passes; the named
    percentiles are over every sample, with the sample count.  ``once`` holds
    the requests run a single time after the passes.
    """
    query, work = workload.query_kind, tally.work_rate(workload.work_kind)
    bounded = {
        "setup_s": setup_s,
        "wall_s": tally.wall(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "request_p50_ms": 1e3 * median(tally.best(query)),
        "work_per_s": work,
    }
    samples = tally.samples(query)
    named = {}
    if workload.name == "certify":
        gradient = tally.samples("check-gradient")
        named["analyze_p50_ms"] = (1e3 * median(samples), "ms", len(samples))
        named["analyze_p90_ms"] = (1e3 * quantiles(samples, n=10)[-1], "ms", len(samples))
        named["check_gradient_p50_ms"] = (1e3 * median(gradient), "ms", len(gradient))
        named["grow_vertices_per_s"] = (work, "1/s", len(tally.samples("grow")))
        named["grow_vertices_per_s_n15_30"] = (once.work_rate("grow"), "1/s",
                                               len(once.samples("grow")))
    elif workload.name == "flow-canonical":
        named["simulate_p50_s"] = (median(samples), "s", len(samples))
        named["rk4_steps_per_s"] = (work, "1/s", len(samples))
        named["paper_simulate_s"] = (once.wall(), "s", once.passes)
    else:
        named["simulate_p50_s"] = (median(samples), "s", len(samples))
        named["rk4_steps_per_s"] = (work, "1/s", len(samples))
    return bounded, named


def run_one(args) -> int:
    name, seed = args.workload, args.seed
    setups = [setup_in_fresh_process(name, seed, k) for k in range(SETUP_SAMPLES - 1)]
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    try:
        seconds, workload = setup(name, seed, workdir)
        setups.append(seconds)
        env = environment()
        recorder = Recorder() if args.trace else None
        plain, traced = measure(workload, args.seconds, recorder)
        once, defect = Tally(), Tally()
        once.run_pass(workload.cli, workload.once_requests())
        defect.run_pass(workload.cli, workload.known_defect_requests())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bounded, named = end_to_end(workload, plain, once, median(setups))
    attempted = plain.attempted + traced.attempted + once.attempted
    failed = plain.failed + traced.failed + once.failed
    named["failure_rate"] = (failed / attempted, "ratio", attempted)
    reasons = plain.reasons + traced.reasons + once.reasons
    result = {
        "workload": name, "seed": seed, "seconds": args.seconds, "environment": env,
        "setup_samples_s": setups, "requests_per_pass": len(plain.kinds),
        "untraced_passes": plain.passes, "traced_passes": traced.passes,
        "attempted": attempted, "failed": failed, "failures": dict(reasons.most_common()),
        "known_defect": {"attempted": defect.attempted, "failed": defect.failed,
                         "failures": dict(defect.reasons.most_common())},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in bounded.items()},
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
    }

    print(f"perfbench {name} seed={seed} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"load: closed loop, 1 client, {len(plain.kinds)} requests per pass, "
          f"{plain.passes} untraced passes, then {once.attempted} requests once; "
          f"set-ups: {len(setups)}")
    for key, value in bounded.items():
        print(f"{key} = {value:.6g} {END_TO_END_UNITS[key]}")
    for key, (value, unit, samples) in named.items():
        print(f"{key} = {value:.6g} {unit} (samples {samples})")
    print(f"failed {failed} of {attempted} requests")
    for reason, count in reasons.most_common(8):
        print(f"  {count} x {reason}")
    if defect.attempted:
        print(f"known defect, not graded (ROADMAP item 4): failed {defect.failed} of "
              f"{defect.attempted} requests")
        for reason, count in defect.reasons.most_common(8):
            print(f"  {count} x {reason}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{args.trace}"
    if recorder is None:
        metrics = result["end_to_end"]
    else:
        metrics = traced_metrics(recorder, traced.wall() - plain.wall(), stem, result)
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(recorder, overhead_s, stem, result) -> dict:
    per_pass = [recorder.per_pass_metrics(k) for k in range(len(recorder.pass_starts))]
    layers = {key: median([p[key] for p in per_pass]) for key in per_pass[0]}
    print(f"traced passes: {len(per_pass)} (per-layer figures are per pass, median over passes)")
    for key, value in layers.items():
        if value:
            print(f"  {key} = {value:.6g} {layer_unit(key)}")
    print(f"trace_overhead_s = {overhead_s:.6g} s (traced wall_s - untraced wall_s)")
    recorder.write_spans(stem.with_suffix(".spans.jsonl"))
    result["per_layer"] = layers
    result["trace_overhead_s"] = overhead_s
    return {key: {"value": layers[key], "unit": layer_unit(key)} for key in last_line_metric_names()}


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    lines = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(lines))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weakrig" / "__init__.py").is_file():
        print(f"error: no weakrig sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed, Path(args.setup_only))
        print(seconds)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
