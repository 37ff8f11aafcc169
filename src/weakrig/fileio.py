"""File formats: framework/target JSON, report JSON, trace CSV, growth logs.

All writers are atomic (write to a temporary file, then rename) and use
locale-independent formatting with 17 significant digits for CSV floats.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections.abc import Iterable, Iterator

import numpy as np

from .core import Framework, angle_key, build_graph, edge_key
from .errors import ParseError, TargetMismatch, WeakRigError, WriteError
from .formation import SimulationTrace, TargetSpec, align_targets
from .rigidity import RigidityReport


def _create_temporary(directory: str) -> tuple[int, str]:
    """Open a new ``.tmp-...~`` file in ``directory`` for writing.

    Created ``0o666`` less the umask, as ``open()`` creates a file: the
    kernel applies the umask, so the process's umask is never touched.
    """
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def _atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of strings, to ``path`` atomically.

    An iterable is written piece by piece, so only one piece is held at a
    time.  If anything raises, the temporary file is removed and ``path``
    is left as it was; an OSError becomes a WriteError.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = _create_temporary(directory)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _is_number(v) -> bool:
    # Exact types first: the ABC check is the slow path, and bool is an int.
    return type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _value(v, where: str) -> float:
    """A target value: a finite JSON number (not a bool or a string)."""
    if not _is_number(v):
        raise ParseError(f"{where} value must be a number, got {type(v).__name__}")
    if not _is_finite(v):
        raise ParseError(f"{where} has a non-finite value")
    return float(v)


def _entries(data: dict, key: str, where: str) -> list:
    """The list of entries under ``key``; an absent key means none."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{where}: {key} must be a list")
    return entries


def _indices(entry, arity: int, where: str, shape: str, values: int = 0) -> tuple[int, ...]:
    """The integer vertex indices that open a list of ``arity + values`` items; 1.0 counts as 1."""
    if not isinstance(entry, list) or len(entry) != arity + values:
        raise ParseError(f"{where} must be {shape}")
    for v in entry[:arity]:
        if type(v) is int:
            continue
        if not _is_number(v) or not (isinstance(v, numbers.Integral) or float(v).is_integer()):
            raise ParseError(f"{where} has a non-integer vertex index {v!r}")
    return tuple(map(int, entry[:arity]))


# ---------------------------------------------------------------------------
# framework files


FRAMEWORK_KEYS = {"dim", "positions", "edges", "angles"}


def framework_to_dict(f: Framework) -> dict:
    return {
        "dim": f.dim,
        "positions": [[float(c) for c in row] for row in f.positions],
        "edges": [list(e) for e in f.graph.edges],
        "angles": [list(a) for a in f.graph.angles],
    }


def framework_from_dict(data: dict, where: str = "<framework>") -> Framework:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object at top level")
    unknown = set(data) - FRAMEWORK_KEYS
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    for key in ("dim", "positions"):
        if key not in data:
            raise ParseError(f"{where}: missing required key {key!r}")
    dim = data["dim"]
    if dim not in (2, 3):
        raise ParseError(f"{where}: dim must be 2 or 3, got {dim!r}")
    positions = data["positions"]
    if not isinstance(positions, list) or not positions:
        raise ParseError(f"{where}: positions must be a non-empty list of points")
    for idx, row in enumerate(positions):
        if not isinstance(row, list) or len(row) != dim or not all(map(_is_number, row)):
            raise ParseError(f"{where}: positions[{idx}] must be a list of {dim} numbers")
        if not all(map(_is_finite, row)):
            raise ParseError(f"{where}: positions[{idx}] has a non-finite coordinate")
    edges, angles = _entries(data, "edges", where), _entries(data, "angles", where)
    edges = [_indices(e, 2, f"{where}: edges[{idx}]", "a pair [i, j]")
             for idx, e in enumerate(edges)]
    angles = [_indices(a, 3, f"{where}: angles[{idx}]", "a triple [k, i, j]")
              for idx, a in enumerate(angles)]
    try:
        graph = build_graph(len(positions), edges=edges, angles=angles)
        return Framework(graph=graph, dim=dim, positions=np.array(positions, float))
    except (WeakRigError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_framework(path: str) -> Framework:
    return framework_from_dict(_load_json(path), where=path)


def dump_framework(f: Framework, path: str) -> None:
    _atomic_write(path, json.dumps(framework_to_dict(f), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# target files


# field: (vertex names, key rule, the target a repeated key duplicates, value conversion)
TARGET_FIELDS = {
    "sq_distances": (("i", "j"), edge_key, "distance target for edge", float),
    "cosines": (("k", "i", "j"), angle_key, "cosine target for angle", float),
    "cosines_deg": (("k", "i", "j"), angle_key, "cosine target for angle",
                    lambda d: float(np.cos(np.deg2rad(d)))),
}


def targets_from_dict(data: dict, graph, where: str = "<targets>") -> TargetSpec:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object at top level")
    unknown = set(data) - set(TARGET_FIELDS)
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    targets: dict = {edge_key: {}, angle_key: {}}  # per key rule
    for field, (names, key_rule, what, convert) in TARGET_FIELDS.items():
        arity, shape = len(names), f"[{', '.join(names)}, value]"
        found = targets[key_rule]
        for idx, entry in enumerate(_entries(data, field, where)):
            at = f"{where}: {field}[{idx}]"
            key = key_rule(*_indices(entry, arity, at, shape, 1))
            value = convert(_value(entry[arity], at))
            if key in found:
                raise ParseError(f"{where}: duplicate {what} {key}")
            found[key] = value
    try:
        return align_targets(graph, targets[edge_key], targets[angle_key])
    except (ValueError, TargetMismatch) as exc:  # a value out of range, or not one per constraint
        raise ParseError(f"{where}: {exc}") from exc


def load_targets(path: str, graph) -> TargetSpec:
    return targets_from_dict(_load_json(path), graph, where=path)


# ---------------------------------------------------------------------------
# reports and traces


# A CSV float: 17 significant digits read back as the same float64.
FLOAT_CELL = "%.17g"


def report_to_json(report: RigidityReport) -> str:
    """Canonical JSON encoding; parsing and re-serializing is byte-stable."""
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def format_row_label(label) -> str:
    kind, key = label
    if kind == "distance":
        return f"d_{key[0]}_{key[1]}"
    if kind == "cosine":
        return f"cos_{key[0]}_{key[1]}_{key[2]}"
    return "_".join([kind, *map(str, key)])


def matrix_to_csv(matrix, row_labels=None) -> str:
    """Numeric matrix as CSV, optionally with a leading row-label column."""
    matrix = np.asarray(matrix, float)
    header = [f"c{c}" for c in range(matrix.shape[1])]
    cells = [FLOAT_CELL] * matrix.shape[1]
    rows = [tuple(row) for row in matrix.tolist()]
    if row_labels is not None:
        header, cells = ["row", *header], ["%s", *cells]
        rows = [(format_row_label(row_labels[r]), *row) for r, row in enumerate(rows)]
    line = ",".join(cells)
    return "\n".join([",".join(header), *(line % row for row in rows)]) + "\n"


def write_matrix_csv(matrix, path: str, row_labels=None) -> None:
    _atomic_write(path, matrix_to_csv(matrix, row_labels=row_labels))


# Trace CSV rows formatted at a time: the text of one block is all a write holds.
CSV_BLOCK_ROWS = 1024


def _trace_csv_chunks(trace: SimulationTrace) -> Iterator[str]:
    """The header line, then the rows in blocks of :data:`CSV_BLOCK_ROWS`, one string each."""
    samples, n = trace.positions.shape[:2]
    columns = [trace.times[:, None], trace.positions.reshape(samples, -1), trace.errors,
               trace.lyapunov[:, None]]
    if trace.det_z is not None:  # only the three-agent topology's trace has det Z
        yield "time,x1,y1,x2,y2,x3,y3,e12,e13,ecos,V,detZ\n"
        columns.append(trace.det_z[:, None])
    else:
        coords = ",".join(f"x{i+1},y{i+1}" for i in range(n))
        errs = ",".join(f"e{k+1}" for k in range(trace.errors.shape[1]))
        yield f"time,{coords},{errs},V\n"
    line = ",".join([FLOAT_CELL] * sum(c.shape[1] for c in columns)) + "\n"
    for start in range(0, samples, CSV_BLOCK_ROWS):
        block = np.hstack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
        yield (line * len(block)) % tuple(block.ravel().tolist())


def trace_to_csv(trace: SimulationTrace) -> str:
    """One row per sample: time, coordinates, errors, V and (canonical) det Z."""
    return "".join(_trace_csv_chunks(trace))


def write_trace_csv(trace: SimulationTrace, path: str) -> None:
    """:func:`trace_to_csv` written to ``path`` one block of rows at a time."""
    _atomic_write(path, _trace_csv_chunks(trace))


# ---------------------------------------------------------------------------
# growth logs (JSON lines, one step per line)


def growth_log_to_text(steps) -> str:
    return "".join(json.dumps(s.to_dict(), sort_keys=True) + "\n" for s in steps)


def write_growth_log(steps, path: str) -> None:
    _atomic_write(path, growth_log_to_text(steps))
