"""Every module-level function and class in ``src/weakrig`` is used by ``src/`` itself.

A definition is used when module-level code of a module names it (a
constant, ``cli``'s ``__main__`` block), or when a used definition's body
names it; a name counts when it is read, as a bare name or as an attribute
of a ``weakrig`` module (``fileio.x``).  An attribute of anything else
(``trace.det_z``) does not count, nor does a stored name such as an
annotated class field (``det_z: float``).  Imports do not count, nor does
``__init__.py``, which only re-exports, nor a docstring.  Code that only
the tests reach belongs in ``tests/``.

Two kinds of name are exempt, each on its own: an exempt name is not
reported, but it makes nothing that it names used.  The benchmark's
tracer wraps the functions in ``perfbench/tracing.py``'s ``TARGETS`` by
name, so they stay while it does.  :data:`ALLOWED` lists the rest, each
with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weakrig"
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = {path.stem for path in SRC.glob("*.py")}

# name: why it stays although nothing in src/ uses it
ALLOWED = {
    "build_parser": "the command line's parser, for tools that read or extend it",
    "canonical_targets": "a paper object: the three-agent targets",
    "canonical_three_agent_graph": "a paper object: the three-agent topology",
    "e_matrix_three_agent": "a paper object: the three-agent coefficient matrix E(p)",
    "error_vector": "a paper object: the error vector e of the potential V = ||e||^2 / 2",
    "ErrorVector": "the value error_vector returns",
    "realize_canonical_targets": "a paper object: a realization of the three-agent targets",
    "cosine_edge_partials": "acceptance gate 2 contracts the cosine's edge partials",
    "induced_distance_closure": "acceptance gate 9 builds its 3D frameworks with it",
    "matrix_to_csv": "the text write_matrix_csv writes, which the tracer wraps",
    "det_z": "a paper object: det Z and its rate sigma, from the instability argument",
    "DetZ": "the value det_z returns: det Z and its rate sigma",
    "_edge_weights": "the weights of E(p) and of det Z's rate sigma",
}


def tracer_targets() -> set[str]:
    """The attribute names in ``TARGETS``, read from the tracer's source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return {attr for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError(f"no TARGETS in {TRACING}")


def names_in(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, bare or as an attribute of a ``weakrig`` module."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in MODULES}


def unused_definitions() -> list[str]:
    """``module.name`` of each module-level definition in ``SRC`` that nothing there uses."""
    bodies: dict[tuple[str, str], set[str]] = {}  # definition: the names its body holds
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies[path.stem, node.name] = names_in(node) - {node.name}
            else:
                used |= names_in(node)
    grown = True
    while grown:
        before = len(used)
        for (_, name), names in bodies.items():
            if name in used:
                used |= names
        grown = len(used) > before
    return sorted(f"{module}.{name}" for module, name in bodies if name not in used)


def test_every_definition_in_src_is_used_there():
    exempt = tracer_targets() | set(ALLOWED)
    assert [name for name in unused_definitions() if name.split(".")[1] not in exempt] == []


def test_walker_counts_reads_of_the_definition_only():
    """A field and another object's attribute of the same name are not uses of it."""
    field_and_attribute = "class Trace:\n    det_z: float\n\ndef csv(trace):\n    trace.det_z\n"
    assert "det_z" not in names_in(ast.parse(field_and_attribute))
    assert "det_z" in names_in(ast.parse("det_z(f, t)"))
    assert "det_z" in names_in(ast.parse("formation.det_z"))


def test_every_allowed_name_is_otherwise_unused():
    """An entry that src/ has come to use, or no longer defines, leaves the list."""
    assert set(ALLOWED) <= {name.split(".")[1] for name in unused_definitions()}
