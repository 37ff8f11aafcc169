"""Error paths that no other test reaches: each ``raise`` runs once, with its type and message."""

from __future__ import annotations

import os

import numpy as np
import pytest

from weakrig import (
    BadAnchor,
    CollocatedPoints,
    ExtensionStep,
    Framework,
    IndexOutOfRange,
    ParseError,
    PlacementExhausted,
    SimulationConfig,
    TargetMismatch,
    TargetSpec,
    WrongTopology,
    apply_extension,
    build_graph,
    canonical_targets,
    classify_equilibrium,
    error_vector,
    grow_random,
    numerical_rank,
    realize_canonical_targets,
    weakly_rigid_0_extension,
    weakly_rigid_1_extension,
)
from weakrig import fileio, henneberg
from weakrig.fileio import (
    _atomic_write,
    load_framework,
    matrix_to_csv,
    targets_from_dict,
    write_matrix_csv,
)
from weakrig.rigidity import cosine_edge_partials, weak_rigidity_matrix

from conftest import BENCH_TARGETS, TRIANGLE_POS


def k3() -> Framework:
    return Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2, TRIANGLE_POS)


def k4_3d() -> Framework:
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return Framework(build_graph(4, edges=edges), 3, np.vstack([np.zeros(3), np.eye(3)]))


def two_angles() -> Framework:
    g = build_graph(4, edges=[(0, 1)], angles=[(0, 1, 2), (3, 1, 2)])
    return Framework(g, 2, np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.5, 2.0]]))


def swapped_cosines() -> None:
    """Cosine targets in the reverse of the graph's angle order."""
    t = TargetSpec(sq_distances=(((0, 1), 4.0),), cosines=(((3, 1, 2), 0.5), ((0, 1, 2), 0.0)))
    error_vector(two_angles(), t)


def grow_scaled_k3(scale: float, steps: int = 12, rng_seed: int = 0):
    """Grow ``k3()`` scaled by ``scale``.  Building a seed past ~1e154 overflows numpy's
    squared distances in :class:`Framework`'s own check, so that warning is silenced."""
    with np.errstate(over="ignore"):
        seed = Framework(k3().graph, 2, TRIANGLE_POS * scale)
    return grow_random(seed, steps=steps, rng_seed=rng_seed)


def k3_step(kind: str, new_vertex: int = 3) -> ExtensionStep:
    return ExtensionStep(kind=kind, new_vertex=new_vertex, anchors=(0, 1), new_position=(0.5, 2.0))


RAISES = {
    "empty-graph": (lambda: build_graph(0), IndexOutOfRange,
                    "vertex count must be positive, got 0"),
    "unknown-target-keys": (lambda: targets_from_dict({"sq": []}, k3().graph), ParseError,
                            "<targets>: unknown keys ['sq']"),
    "cosine-target-order": (swapped_cosines, TargetMismatch,
                            "cosine targets ((3, 1, 2), (0, 1, 2)) do not match angles "
                            "((0, 1, 2), (3, 1, 2)) in order"),
    "equilibrium-topology": (lambda: classify_equilibrium(k3(), canonical_targets(*BENCH_TARGETS)),
                             WrongTopology,
                             "equilibrium classification needs the three-agent topology"),
    "realize-topology": (lambda: realize_canonical_targets(
        TargetSpec(sq_distances=(((0, 1), 1.0),), cosines=(((0, 1, 2), 0.5),))),
        WrongTopology, "realization needs canonical three-agent targets"),
    "realize-zero-distance": (lambda: realize_canonical_targets(canonical_targets(0.0, 1.0, 0.5)),
                              ValueError, "cannot realize zero target distances"),
    "zero-dt": (lambda: SimulationConfig(dt=0.0), ValueError, "dt must be positive"),
    "negative-t-max": (lambda: SimulationConfig(t_max=-1.0), ValueError, "t_max must be >= 0"),
    "negative-divergence-bound": (lambda: SimulationConfig(divergence_bound=-1.0), ValueError,
                                  "divergence_bound must be >= 0"),
    "anchor-range": (lambda: weakly_rigid_0_extension(k3(), 0, 5, (0.5, 2.0)), BadAnchor,
                     "anchor (0,5) out of range for n=3"),
    "witness-range": (lambda: weakly_rigid_1_extension(k3(), 0, 1, 7, (0.5, 2.0)), BadAnchor,
                      "witness vertex 7 out of range for n=3"),
    "extension-dim": (lambda: weakly_rigid_0_extension(k4_3d(), 0, 1, (0.5, 2.0)), ValueError,
                      "an extension is defined for dim 2"),
    "growth-dim": (lambda: grow_random(k4_3d(), 1, 0), ValueError, "growth is defined for dim 2"),
    # Past a diameter of ~4.8e76 the placement bounds' |a|^2 |b|^2 can overflow, and a
    # cosine that reads 0 passes the 5 degree bound; past ~1e154 the diameter reads inf.
    "growth-diameter": (lambda: grow_scaled_k3(1e80), ValueError,
                        "growth's placement bounds overflow at diameter 2.64572e+80: "
                        "it must be below 4.8e+76"),
    "growth-diameter-inf": (lambda: grow_scaled_k3(1e160), ValueError,
                            "growth's placement bounds overflow at diameter inf: "
                            "it must be below 4.8e+76"),
    "extension-kind": (lambda: apply_extension(k3(), k3_step("2-extension")), ValueError,
                       "unknown extension kind '2-extension'"),
    "step-anchor-count": (lambda: apply_extension(k3(), k3_step("1-extension")), BadAnchor,
                          "a 1-extension takes 3 anchors, got 2"),
    "step-new-vertex": (lambda: apply_extension(k3(), k3_step("0-extension", new_vertex=7)),
                        BadAnchor, "new vertex must be 3, got 7"),
    "position-3-coordinates": (lambda: weakly_rigid_0_extension(k3(), 0, 1, (0.5, 2.0, 1.0)),
                               ValueError,
                               "new position must be 2 coordinates, got [0.5, 2.0, 1.0]"),
    "position-1-coordinate": (lambda: weakly_rigid_0_extension(k3(), 0, 1, (0.5,)), ValueError,
                              "new position must be 2 coordinates, got [0.5]"),
    "zero-ray": (lambda: cosine_edge_partials([0.0, 0.0], [1.0, 0.0], [1.0, 0.0]),
                 CollocatedPoints, "cosine partials need nonzero apex-adjacent edges"),
    "empty-rank": (lambda: numerical_rank(np.zeros((0, 3))), ValueError,
                   "numerical rank of an empty matrix is undefined"),
}


@pytest.mark.parametrize("name", list(RAISES))
def test_raise_gives_its_error_and_message(name):
    call, error, message = RAISES[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_missing_input_file_names_it(tmp_path):
    path = str(tmp_path / "absent.json")
    with pytest.raises(ParseError) as exc:
        load_framework(path)
    assert str(exc.value).startswith(f"{path}: [Errno 2] No such file")


def test_placement_exhausted(monkeypatch):
    # Every proposal rejected: the step gives up after the attempt budget.
    monkeypatch.setattr(henneberg, "MAX_PLACEMENT_ATTEMPTS", 3)
    monkeypatch.setattr(henneberg, "_rejection", lambda *args: henneberg.TOO_CLOSE)
    with pytest.raises(PlacementExhausted) as exc:
        grow_random(k3(), steps=1, rng_seed=0)
    assert str(exc.value) == "no acceptable extension after 3 attempts at n=3"


def test_growth_at_1e76_grows_while_its_diameter_is_below_the_limit():
    # The seed's diameter is 2.6e76 and steps widen it; the bounds still reject small angles.
    result = grow_scaled_k3(1e76, steps=3, rng_seed=3)
    assert result.final.n == 6 and result.small_angle == 2
    with pytest.raises(ValueError, match=r"at diameter 5\.37346e\+76: "):
        grow_scaled_k3(1e76, steps=4, rng_seed=3)  # the fourth step's parent is past the limit


def test_temporary_name_collision_draws_again(tmp_path, monkeypatch):
    names = iter([b"\0" * 8, b"\0" * 8, b"\1" * 8])
    monkeypatch.setattr(fileio.os, "urandom", lambda size: next(names))
    taken = tmp_path / f".tmp-{'00' * 8}~"
    _atomic_write(str(tmp_path / "first.txt"), "one\n")  # takes the all-zero name
    taken.write_text("held\n")
    _atomic_write(str(tmp_path / "second.txt"), "two\n")  # collides once, then draws 01...
    assert (tmp_path / "second.txt").read_text() == "two\n" and taken.read_text() == "held\n"
    assert sorted(os.listdir(tmp_path)) == [taken.name, "first.txt", "second.txt"]


def test_write_matrix_csv_writes_the_csv_text(tmp_path):
    R = weak_rigidity_matrix(k3())
    path = tmp_path / "rw.csv"
    write_matrix_csv(R.matrix, str(path), row_labels=R.row_labels)
    assert path.read_text() == matrix_to_csv(R.matrix, row_labels=R.row_labels)
