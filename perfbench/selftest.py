#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The same seed regenerates byte-identical input files for every workload
   (for certify this includes the copies derived from the grown files), and
   another seed does not.
2. A deliberately wrong expectation, and a request that raises, are counted
   as failures while the run goes on.
3. The metric names and units the benchmark prints match BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

from harness import Request, Tally, expect_code
from tracing import last_line_metric_names, layer_unit


def input_files(name: str, seed: int, workdir: Path) -> dict:
    _, workload = run.setup(name, seed, workdir)
    if name == "certify":  # its analyze inputs are derived from the grow answers
        Tally().run_pass(workload.cli, workload.requests() + workload.once_requests())
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_inputs_are_deterministic(tmp: Path) -> None:
    for name in run.WORKLOAD_NAMES:
        first = input_files(name, 7, tmp / f"{name}-a")
        again = input_files(name, 7, tmp / f"{name}-b")
        other = input_files(name, 8, tmp / f"{name}-c")
        assert first and first.keys() == again.keys(), name
        differ = [f for f in first if first[f] != again[f]]
        assert not differ, f"{name}: seed 7 wrote different bytes to {differ}"
        assert first != other, f"{name}: seeds 7 and 8 gave the same inputs"
        print(f"ok {name}: {len(first)} files byte-identical for one seed")


def test_failures_are_counted(tmp: Path) -> None:
    _, workload = run.setup("certify", 7, tmp / "count")
    cli = workload.cli
    rigid = workload.path("warm.json")  # grown in set-up, so minimal and rigid
    broken = tmp / "count" / "broken.json"
    broken.write_text('{"dim": 2, "positions": [[0, 0], [1, 0], [0, 1]], "edges": [[0, 1.5]]}\n')
    tally = Tally()
    tally.run(cli, Request("analyze", "wrong-expectation", ["analyze", rigid, "--json"],
                           check=lambda out: expect_code(out, 2)))
    tally.run(cli, Request("analyze", "malformed", ["analyze", str(broken), "--json"],
                           check=lambda out: expect_code(out, 0)))
    tally.run(cli, Request("analyze", "right-expectation", ["analyze", rigid, "--json"],
                           check=lambda out: expect_code(out, 0)))
    assert (tally.attempted, tally.failed) == (3, 2), (tally.attempted, tally.failed, tally.reasons)
    labels = {reason.split(":")[0] for reason in tally.reasons}
    assert labels == {"analyze wrong-expectation", "analyze malformed"}, tally.reasons
    print("ok failures counted: " + "; ".join(tally.reasons))


def test_metrics_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS, spec
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, layer_unit(name)) for name in last_line_metric_names()], spec["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES), spec["workloads"]
    print("ok metric names and units match BENCHMARK.json")


def main() -> int:
    tmp = run.WORK_DIR / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        test_metrics_match_benchmark_json()
        test_inputs_are_deterministic(tmp)
        test_failures_are_counted(tmp)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
