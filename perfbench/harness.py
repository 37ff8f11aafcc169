"""Closed-loop client: one in-process caller sends CLI requests one at a time.

Each request goes through ``weakrig.cli.main(argv)`` with stdout and stderr
captured, and waits for the previous one to finish.  The answer is checked
against an expectation fixed when the input was built; every failure is
counted and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    error: str = ""  # set when cli.main raised instead of returning a code

    def json(self) -> dict:
        """The last stdout line parsed as JSON (the ``--json`` report)."""
        return json.loads(self.stdout.strip().splitlines()[-1])


@dataclass
class Request:
    kind: str  # "grow" | "analyze" | "check-gradient" | "simulate"
    label: str  # how the input was built: "grown", "unit-copy", "drop", ...
    argv: list
    check: Callable[[Outcome], Optional[str]]  # failure reason, or None
    work: Optional[Callable[[Outcome], float]] = None  # vertices grown, RK4 steps
    after: Optional[Callable[[Outcome], None]] = None  # untimed, after a passed check


def call(cli, argv) -> Outcome:
    """Run one CLI request in-process and time it."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback a user would see; count it, keep going
            code = None
            error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, error)


def expect_code(out: Outcome, *codes) -> Optional[str]:
    if out.error:
        return f"raised {out.error}"
    if out.code not in codes:
        tail = out.stderr.strip().splitlines()[-1:]
        why = f" ({tail[0][:80]})" if tail else ""
        return f"exit {out.code}, expected {'/'.join(map(str, codes))}{why}"
    return None


@dataclass
class Tally:
    """Attempted/failed counts, and per position in the pass its latencies.

    On a shared machine the same call runs up to ~1.9x slower for stretches
    of seconds to minutes, in wall and CPU time alike, while the fastest of
    many repeats of a short call moves far less; so figures are built from
    each position's best time over passes.
    """

    attempted: int = 0
    failed: int = 0
    kinds: list = field(default_factory=list)  # request kind per position
    seconds: list = field(default_factory=list)  # latency samples per position
    work: list = field(default_factory=list)  # work per pass per position
    reasons: Counter = field(default_factory=Counter)

    def run(self, cli, req: Request) -> tuple:
        """Send one request and check it; return (latency s, work done)."""
        out = call(cli, req.argv)
        self.attempted += 1
        work = 0.0
        try:
            reason = req.check(out)
            if reason is None and req.work is not None:
                work = req.work(out)
        except Exception as exc:  # a malformed answer is a failure, not a crash
            reason = f"unreadable answer ({type(exc).__name__}: {exc})"
        if reason is None:
            if req.after is not None:
                req.after(out)
        else:
            self.failed += 1
            self.reasons[f"{req.kind} {req.label}: {reason}"] += 1
        return out.seconds, work

    def run_pass(self, cli, requests) -> None:
        if not self.kinds:
            self.kinds = [req.kind for req in requests]
            self.seconds = [[] for _ in requests]
            self.work = [0.0] * len(requests)
        for i, req in enumerate(requests):
            seconds, self.work[i] = self.run(cli, req)
            self.seconds[i].append(seconds)

    @property
    def passes(self) -> int:
        return len(self.seconds[0]) if self.seconds else 0

    def best(self, kind=None) -> list:
        """Fastest latency of each position (of one request kind) over passes."""
        return [min(s) for k, s in zip(self.kinds, self.seconds) if kind in (None, k)]

    def samples(self, kind) -> list:
        return [x for k, s in zip(self.kinds, self.seconds) if k == kind for x in s]

    def wall(self) -> float:
        """Time of one pass, each request at its best."""
        return sum(self.best())

    def work_rate(self, kind) -> float:
        """Work of one pass per second of its ``kind`` requests, at their best."""
        return sum(w for k, w in zip(self.kinds, self.work) if k == kind) / sum(self.best(kind))
