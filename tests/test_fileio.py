"""Serialization round trips and parse diagnostics."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakrig import (
    Framework,
    ParseError,
    WeakRigError,
    WriteError,
    build_graph,
    classify_weak_rigidity_3d,
    weak_rigidity_matrix,
)
from weakrig.fileio import (
    _atomic_write,
    dump_framework,
    framework_from_dict,
    framework_to_dict,
    load_framework,
    load_targets,
    targets_from_dict,
)
from weakrig.rigidity import compile_graph

from conftest import TRIANGLE_POS


@pytest.fixture
def mixed_framework():
    g = build_graph(3, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])
    return Framework(g, 2, TRIANGLE_POS)


class TestFrameworkFiles:
    def test_round_trip(self, tmp_path, mixed_framework):
        path = tmp_path / "fw.json"
        dump_framework(mixed_framework, str(path))
        loaded = load_framework(str(path))
        assert loaded.graph == mixed_framework.graph
        assert np.array_equal(loaded.positions, mixed_framework.positions)
        assert loaded.dim == 2

    def test_unknown_keys_rejected(self):
        data = {"dim": 2, "positions": [[0, 0], [1, 0]], "extra": 1}
        with pytest.raises(ParseError, match="unknown keys"):
            framework_from_dict(data)

    def test_missing_dim(self):
        with pytest.raises(ParseError, match="missing required key"):
            framework_from_dict({"positions": [[0, 0], [1, 0]]})

    def test_bad_edge_shape(self):
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            framework_from_dict({"dim": 2, "positions": [[0, 0], [1, 0]], "edges": [[0, 1, 2]]})

    def test_graph_violations_become_parse_errors(self):
        with pytest.raises(ParseError, match="self-loop"):
            framework_from_dict({"dim": 2, "positions": [[0, 0], [1, 0]], "edges": [[1, 1]]})
        with pytest.raises(ParseError, match="coincide"):
            framework_from_dict({"dim": 2, "positions": [[0, 0], [0, 0]]})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_coordinate_names_the_row(self, value):
        data = {"dim": 2, "positions": [[0, 0], [1, 0], [0.5, value]]}
        with pytest.raises(ParseError, match=r"positions\[2\] has a non-finite coordinate"):
            framework_from_dict(data)

    @pytest.mark.parametrize("key, entry", [("edges", [0, 1.5]), ("angles", [0, 1, 2.5]),
                                            ("edges", [0, "1"]), ("edges", [0, True])])
    def test_non_integer_index_rejected(self, key, entry):
        data = {"dim": 2, "positions": [[0, 0], [1, 0], [0, 1]], key: [entry]}
        with pytest.raises(ParseError, match=rf"{key}\[0\] has a non-integer vertex index"):
            framework_from_dict(data)

    def test_huge_integer_index_is_out_of_range(self):
        data = {"dim": 2, "positions": [[0, 0], [1, 0], [0, 1]], "edges": [[0, 10**400]]}
        with pytest.raises(ParseError, match="valid range is 0..2"):
            framework_from_dict(data)

    def test_integral_float_index_accepted(self):
        f = framework_from_dict({"dim": 2, "positions": [[0, 0], [1, 0], [0, 1]],
                                 "edges": [[0, 1.0]], "angles": [[2.0, 0, 1]]})
        assert f.graph.edges == ((0, 1),) and f.graph.angles == ((2, 0, 1),)
        assert all(type(v) is int for v in f.graph.edges[0] + f.graph.angles[0])

    def test_numpy_scalars_accepted_and_bools_rejected(self):
        # Plain ints and floats take a fast path; numpy scalars still pass.
        f = framework_from_dict({"dim": 2, "positions": [[np.float64(0), np.int64(0)], [1, 0], [0, 1]],
                                 "edges": [[np.int64(0), np.float64(1.0)]], "angles": [[2, 0, 1.0]]})
        assert f.graph.edges == ((0, 1),) and f.graph.angles == ((2, 0, 1),)
        with pytest.raises(ParseError, match=r"positions\[1\] must be a list of 2 numbers"):
            framework_from_dict({"dim": 2, "positions": [[0, 0], [True, 0], [0, 1]]})
        with pytest.raises(ParseError, match=r"angles\[0\] has a non-integer vertex index"):
            framework_from_dict({"dim": 2, "positions": [[0, 0], [1, 0], [0, 1]],
                                 "angles": [[True, 0, 2]]})

    @pytest.mark.parametrize("key", ["edges", "angles"])
    @pytest.mark.parametrize("value", [3, None, "01", {}], ids=["int", "null", "string", "object"])
    def test_non_list_field_names_the_key(self, key, value):
        data = {"dim": 2, "positions": [list(p) for p in TRIANGLE_POS], key: value}
        with pytest.raises(ParseError, match=f"<framework>: {key} must be a list$"):
            framework_from_dict(data)

    def test_integral_float_dim_stored_as_int(self, tmp_path):
        # A float dim once gave float column indices to the compiled graph,
        # whose cache entry then served an equal graph compiled with dim 3.
        compile_graph.cache_clear()
        path = tmp_path / "k4.json"
        path.write_text(json.dumps({
            "dim": 3.0,
            "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)],
        }))
        f = load_framework(str(path))
        assert weak_rigidity_matrix(f).shape == (6, 12)
        assert classify_weak_rigidity_3d(f).rigid
        dim = framework_to_dict(f)["dim"]
        assert dim == 3 and type(dim) is int

    def test_json_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dim": 2\n  "positions": []\n}')
        with pytest.raises(ParseError, match="broken.json:3"):
            load_framework(str(path))


class TestTargetFiles:
    def test_degrees_converted(self, mixed_framework):
        t = targets_from_dict(
            {"sq_distances": [[0, 1, 4.0], [0, 2, 4.0]], "cosines_deg": [[0, 1, 2, 60.0]]},
            mixed_framework.graph,
        )
        assert t.cosines[0][1] == pytest.approx(0.5)

    def test_duplicate_targets_rejected(self, mixed_framework):
        with pytest.raises(ParseError, match="duplicate"):
            targets_from_dict(
                {"sq_distances": [[0, 1, 4.0], [1, 0, 5.0], [0, 2, 4.0]],
                 "cosines": [[0, 1, 2, 0.5]]},
                mixed_framework.graph,
            )

    @pytest.mark.parametrize("data, where", [
        ({"sq_distances": [[0, 1.5, 8.0]]}, r"sq_distances\[0\]"),
        ({"cosines": [[0, 1, 2.5, 0.5]]}, r"cosines\[0\]"),
        ({"cosines_deg": [["0", 1, 2, 40.0]]}, r"cosines_deg\[0\]"),
    ])
    def test_non_integer_index_rejected(self, mixed_framework, data, where):
        with pytest.raises(ParseError, match=where + " has a non-integer vertex index"):
            targets_from_dict(data, mixed_framework.graph)

    @pytest.mark.parametrize("data, where, why", [
        ({"sq_distances": [[0, 1, [8.0]]]}, r"sq_distances\[0\]", "must be a number, got list"),
        ({"cosines_deg": [[0, 1, 2, "40"]]}, r"cosines_deg\[0\]", "must be a number, got str"),
        ({"cosines": [[0, 1, 2, True]]}, r"cosines\[0\]", "must be a number, got bool"),
        ({"sq_distances": [[0, 1, 4.0], [0, 2, 10**400]]}, r"sq_distances\[1\]", "non-finite"),
        ({"sq_distances": [[0, 1, float("nan")]]}, r"sq_distances\[0\]", "non-finite"),
        ({"cosines_deg": [[0, 1, 2, float("inf")]]}, r"cosines_deg\[0\]", "non-finite"),
        ({"sq_distances": [[0, 1, 8], [0, 2, 9]], "cosines": [[0, 1, 2, 2.0]]}, "<targets>: ",
         r"desired cosine for \(0, 1, 2\) must lie in \[-1, 1\], got 2.0"),
        ({"sq_distances": [[0, 1, -8.0], [0, 2, 9]], "cosines": [[0, 1, 2, 0.5]]}, "<targets>: ",
         r"desired squared distance for \(0, 1\) must be >= 0, got -8.0"),
    ], ids=["list", "string", "bool", "overflow", "nan", "infinity", "cosine-range",
            "negative-distance"])
    def test_bad_value_names_the_entry(self, mixed_framework, data, where, why):
        with pytest.raises(ParseError, match=where + ".*" + why):
            targets_from_dict(data, mixed_framework.graph)

    @pytest.mark.parametrize("key", ["sq_distances", "cosines", "cosines_deg"])
    @pytest.mark.parametrize("value", [5, None, "8", {}], ids=["int", "null", "string", "object"])
    def test_non_list_field_names_the_key(self, mixed_framework, key, value):
        with pytest.raises(ParseError, match=f"<targets>: {key} must be a list$"):
            targets_from_dict({key: value}, mixed_framework.graph)

    def test_nan_literal_in_file_rejected(self, tmp_path, mixed_framework):
        path = tmp_path / "targets.json"
        path.write_text('{"sq_distances": [[0, 1, NaN], [0, 2, 4.0]], "cosines": [[0, 1, 2, 0.5]]}')
        with pytest.raises(ParseError, match=r"sq_distances\[0\] has a non-finite value"):
            load_targets(str(path), mixed_framework.graph)

    def test_file_order_does_not_matter(self, tmp_path, mixed_framework):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({
            "cosines": [[0, 2, 1, 0.5]],
            "sq_distances": [[0, 2, 5.0], [0, 1, 4.0]],
        }))
        t = load_targets(str(path), mixed_framework.graph)
        assert t.sq_distances == (((0, 1), 4.0), ((0, 2), 5.0))


class TestMatrixCsv:
    def test_labeled_export(self, mixed_framework):
        from weakrig import weak_rigidity_matrix
        from weakrig.fileio import matrix_to_csv

        R = weak_rigidity_matrix(mixed_framework)
        text = matrix_to_csv(R.matrix, row_labels=R.row_labels)
        lines = text.splitlines()
        assert lines[0] == "row,c0,c1,c2,c3,c4,c5"
        assert lines[1].startswith("d_0_1,")
        assert lines[3].startswith("cos_0_1_2,")
        values = [float(v) for v in lines[1].split(",")[1:]]
        assert values == pytest.approx(list(R.matrix[0]))


class TestWrittenFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_umask(self, tmp_path, mixed_framework, umask):
        previous = os.umask(umask)
        try:
            path = tmp_path / "fw.json"
            dump_framework(mixed_framework, str(path))
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_writes_without_touching_the_umask(self, tmp_path, mixed_framework, monkeypatch):
        # Setting the umask to read it would strip it from files other threads create meanwhile.
        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        path = tmp_path / "fw.json"
        dump_framework(mixed_framework, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["fw.json"]
        assert np.array_equal(load_framework(str(path)).positions, mixed_framework.positions)


class TestUnwritablePath:
    def test_missing_directory_names_the_path(self, tmp_path, mixed_framework):
        path = tmp_path / "missing" / "fw.json"
        with pytest.raises(WriteError, match=re.escape(str(path))):
            dump_framework(mixed_framework, str(path))

    def test_directory_target_leaves_no_temporary_file(self, tmp_path, mixed_framework):
        (tmp_path / "fw.json").mkdir()
        with pytest.raises(WriteError, match="fw.json"):
            dump_framework(mixed_framework, str(tmp_path / "fw.json"))
        assert [p.name for p in tmp_path.iterdir()] == ["fw.json"]


class TestStreamedWrite:
    def test_failing_block_leaves_the_old_file(self, tmp_path):
        # The first block is large enough to reach the temporary file on disk.
        path = tmp_path / "trace.csv"
        path.write_bytes(b"old contents\n")

        def blocks():
            yield "0.5,1.5\n" * 4096
            raise RuntimeError("second block")

        with pytest.raises(RuntimeError, match="second block"):
            _atomic_write(str(path), blocks())
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


# ---------------------------------------------------------------------------
# parse fuzzing: whatever JSON value comes in, only a WeakRigError goes out


TEXT = st.text("dim0é", max_size=3)  # a fixed alphabet needs no Unicode table on disk
NUMBERS = st.integers(-1, 4) | st.floats() | st.sampled_from([10**400, -(2**70), True, False])
JSON_VALUES = st.recursive(
    st.none() | NUMBERS | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)
REMOVE = object()  # an edit that deletes the part instead of replacing it

# Valid documents over FUZZ_GRAPH; the fuzz edits parts of them.
FUZZ_GRAPH = build_graph(4, edges=[(0, 1), (1, 2)], angles=[(0, 1, 2), (3, 1, 2)])
FRAMEWORK_DOCUMENT = {"dim": 2, "positions": [[0, 0], [2, 0], [0, 2], [2.5, 2]],
                      "edges": [[0, 1], [1, 2]], "angles": [[0, 1, 2], [3, 1, 2]]}
TARGET_DOCUMENT = {"sq_distances": [[0, 1, 4], [1, 2, 8.0]], "cosines": [[0, 1, 2, 0.5]],
                   "cosines_deg": [[3, 1, 2, 45]]}


def paths(value, path=()):
    """The path of ``value`` and of every part of it, as tuples of keys and indices."""
    yield path
    parts = value.items() if isinstance(value, dict) else enumerate(
        value if isinstance(value, list) else ())
    for key, part in parts:
        yield from paths(part, (*path, key))


def edited(document, edits):
    """``document`` with each ``(path, value)`` edit applied in turn; a stale path is skipped."""
    for path, value in edits:
        if not path:
            document = document if value is REMOVE else value
            continue
        parent = document
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is REMOVE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return document


def edits_of(document):
    """``document`` (a fresh copy) with up to three parts replaced by any JSON value or removed."""
    edit = st.tuples(st.sampled_from(list(paths(document))), JSON_VALUES | st.just(REMOVE))
    return st.lists(edit, max_size=3).map(lambda e: edited(json.loads(json.dumps(document)), e))


FUZZ_SETTINGS = settings(max_examples=150, deadline=None, database=None)


class TestParseFuzz:
    def test_unedited_documents_parse(self):
        assert framework_from_dict(FRAMEWORK_DOCUMENT).graph == FUZZ_GRAPH
        targets_from_dict(TARGET_DOCUMENT, FUZZ_GRAPH)

    @FUZZ_SETTINGS
    @given(edits_of(FRAMEWORK_DOCUMENT))
    def test_framework_parse_raises_only_weakrig_errors(self, data):
        try:
            framework_from_dict(data)
        except WeakRigError:
            pass

    @FUZZ_SETTINGS
    @given(edits_of(TARGET_DOCUMENT))
    def test_target_parse_raises_only_weakrig_errors(self, data):
        try:
            targets_from_dict(data, FUZZ_GRAPH)
        except WeakRigError:
            pass


# One fault per input: the error each entry point raises for it, type and full message.
FAULT_POSITIONS = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
FAULT_GRAPH = build_graph(4, edges=[(0, 1), (0, 2)], angles=[(0, 1, 2)])


def framework_fault(**fields):
    return lambda: framework_from_dict({"dim": 2, "positions": FAULT_POSITIONS, **fields})


def target_fault(**fields):
    document = {"sq_distances": [[0, 1, 1.0], [0, 2, 1.0]], "cosines": [[0, 1, 2, 0.0]]}
    return lambda: targets_from_dict({**document, **fields}, FAULT_GRAPH)


SINGLE_FAULTS = {
    "edge-arity": (framework_fault(edges=[[0, 1, 2]]), ParseError,
                   "<framework>: edges[0] must be a pair [i, j]"),
    "angle-arity": (framework_fault(angles=[[0, 1]]), ParseError,
                    "<framework>: angles[0] must be a triple [k, i, j]"),
    "edge-not-a-list": (framework_fault(edges=[5]), ParseError,
                        "<framework>: edges[0] must be a pair [i, j]"),
    "angle-not-a-list": (framework_fault(angles=["012"]), ParseError,
                         "<framework>: angles[0] must be a triple [k, i, j]"),
    "edge-non-integer": (framework_fault(edges=[[0, 1.5]]), ParseError,
                         "<framework>: edges[0] has a non-integer vertex index 1.5"),
    "angle-non-integer": (framework_fault(angles=[[0, 1, "2"]]), ParseError,
                          "<framework>: angles[0] has a non-integer vertex index '2'"),
    "edge-out-of-range": (framework_fault(edges=[[0, 4]]), ParseError,
                          "<framework>: edge (0,4) refers to vertex 4, valid range is 0..3"),
    "angle-out-of-range": (framework_fault(angles=[[-1, 1, 2]]), ParseError,
                           "<framework>: angle (-1,1,2) refers to vertex -1, valid range is 0..3"),
    "self-loop": (framework_fault(edges=[[2, 2]]), ParseError,
                  "<framework>: edge (2,2) is a self-loop"),
    "angle-repeats-a-vertex": (framework_fault(angles=[[1, 2, 1]]), ParseError,
                               "<framework>: angle (1,2,1) repeats a vertex"),
    "duplicate-edge": (framework_fault(edges=[[0, 1], [1, 0]]), ParseError,
                       "<framework>: edge (0, 1) appears more than once"),
    "duplicate-angle": (framework_fault(angles=[[0, 1, 2], [0, 2, 1]]), ParseError,
                        "<framework>: angle (0, 1, 2) appears more than once"),
    "target-arity": (target_fault(sq_distances=[[0, 1]]), ParseError,
                     "<targets>: sq_distances[0] must be [i, j, value]"),
    "target-not-a-list": (target_fault(cosines=[None]), ParseError,
                          "<targets>: cosines[0] must be [k, i, j, value]"),
    "target-non-integer": (target_fault(cosines=[[0.5, 1, 2, 0.0]]), ParseError,
                           "<targets>: cosines[0] has a non-integer vertex index 0.5"),
    "target-out-of-range": (target_fault(sq_distances=[[0, 1, 1.0], [0, 7, 1.0]]), ParseError,
                            "<targets>: targets do not cover constraints "
                            "(missing [(0, 2)], extra [(0, 7)])"),
    "target-self-loop": (target_fault(sq_distances=[[0, 1, 1.0], [0, 0, 1.0]]), ParseError,
                         "<targets>: targets do not cover constraints "
                         "(missing [(0, 2)], extra [(0, 0)])"),
    "target-angle-repeats-a-vertex": (target_fault(cosines=[[0, 1, 1, 0.0]]), ParseError,
                                      "<targets>: targets do not cover constraints "
                                      "(missing [(0, 1, 2)], extra [(0, 1, 1)])"),
    "target-duplicate-edge": (target_fault(sq_distances=[[0, 1, 1.0], [1, 0, 2.0]]), ParseError,
                              "<targets>: duplicate distance target for edge (0, 1)"),
    "target-duplicate-angle": (target_fault(cosines=[[0, 1, 2, 0.0], [0, 2, 1, 0.5]]), ParseError,
                               "<targets>: duplicate cosine target for angle (0, 1, 2)"),
    "target-duplicate-across-fields": (target_fault(cosines_deg=[[0, 2, 1, 90.0]]), ParseError,
                                       "<targets>: duplicate cosine target for angle (0, 1, 2)"),
    # Python's own unpacking messages: build_graph unpacks each entry by its arity.
    "build-graph-edge-arity": (lambda: build_graph(3, edges=[(0, 1, 2)]), ValueError,
                               "too many values to unpack (expected 2)"),
    "build-graph-short-edge": (lambda: build_graph(3, edges=[(0,)]), ValueError,
                               "not enough values to unpack (expected 2, got 1)"),
    "build-graph-angle-arity": (lambda: build_graph(3, angles=[(0, 1)]), ValueError,
                                "not enough values to unpack (expected 3, got 2)"),
}


@pytest.mark.parametrize("parse, error, message", SINGLE_FAULTS.values(), ids=list(SINGLE_FAULTS))
def test_single_fault_gives_its_error_and_message(parse, error, message):
    with pytest.raises(error) as caught:
        parse()
    assert type(caught.value) is error and str(caught.value) == message
