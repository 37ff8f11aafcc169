"""Command-line surface: exit codes, outputs, file handling."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from weakrig import (
    ExtensionStep,
    Framework,
    SimulationConfig,
    apply_extension,
    build_graph,
    canonical_targets,
    canonical_three_agent_graph,
    control_law,
    grow_random,
    is_minimally_weakly_rigid,
    simulate,
)
from weakrig import cli
from weakrig.cli import K3_SEED_POSITIONS, build_parser, main
from weakrig.fileio import dump_framework, load_framework, report_to_json
from weakrig.rigidity import classify_infinitesimal_weak_rigidity

from conftest import BENCH_INITIAL, BENCH_TARGETS, RHOMBUS_POS, RHOMBUS_VARIANTS


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def rhombus_file(tmp_path, variant):
    edges, angles = RHOMBUS_VARIANTS[variant]
    return write_json(tmp_path / f"fig_{variant}.json", {
        "dim": 2,
        "positions": [list(p) for p in RHOMBUS_POS],
        "edges": [list(e) for e in edges],
        "angles": [list(a) for a in angles],
    })


def bench_framework_file(tmp_path, positions=BENCH_INITIAL):
    return write_json(tmp_path / "three_agents.json", {
        "dim": 2,
        "positions": [list(map(float, p)) for p in positions],
        "edges": [[0, 1], [0, 2]],
        "angles": [[0, 1, 2]],
    })


def bench_target_file(tmp_path, use_degrees=False):
    payload = {"sq_distances": [[0, 1, 8.0], [0, 2, 9.0]]}
    if use_degrees:
        payload["cosines_deg"] = [[0, 1, 2, 40.0]]
    else:
        payload["cosines"] = [[0, 1, 2, BENCH_TARGETS[2]]]
    return write_json(tmp_path / "targets.json", payload)


class TestAnalyze:
    def test_rigid_five_edges(self, tmp_path, capsys):
        code = main(["analyze", rhombus_file(tmp_path, "a")])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank 5/5" in out
        assert "infinitesimally weakly rigid" in out

    def test_rigid_five_angles(self, tmp_path, capsys):
        code = main(["analyze", rhombus_file(tmp_path, "f")])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank 4/4" in out

    def test_flexible_path(self, tmp_path, capsys):
        path = write_json(tmp_path / "path.json", {
            "dim": 2,
            "positions": [[0.0, 0.0], [1.0, 0.3], [2.0, 0.0]],
            "edges": [[0, 1], [1, 2]],
        })
        assert main(["analyze", path]) == 2

    def test_3d_dispatch(self, tmp_path, capsys):
        tetra = write_json(tmp_path / "tetra.json", {
            "dim": 3,
            "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "edges": [[0, 1], [0, 2], [0, 3]],
            "angles": [[0, 1, 2], [0, 1, 3], [0, 2, 3]],
        })
        code = main(["analyze", tetra])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank 6/6" in out and "weakly rigid" in out

    def test_no_constraints_gives_one_error_line(self, tmp_path, capsys):
        path = write_json(tmp_path / "bare.json", {"dim": 2, "positions": RHOMBUS_POS.tolist()})
        assert main(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: framework has no constraints at all\n"
        assert captured.out == ""

    def test_tol_must_lie_in_the_unit_interval(self, capsys):
        for tol in ("1", "5"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["analyze", "fw.json", "--tol", tol])
            assert exc.value.code == 2
            assert f"--tol must be in (0, 1), got {tol}" in capsys.readouterr().err
        assert build_parser().parse_args(["analyze", "fw.json", "--tol", "0.5"]).tol == 0.5

    def test_mode_mismatch(self, tmp_path, capsys):
        assert main(["analyze", rhombus_file(tmp_path, "a"), "--mode", "3d"]) == 1

    def test_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2,\n "positions": [[0, 0],,]}')
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err  # line diagnostic

    @pytest.mark.parametrize("payload", [
        {"edges": [[0, 1.5]]},
        {"angles": [[0, 1, 2.5]]},
        {"positions": [[0.0, 1.0], [-1.732, 0.0], [0.0, -1.0], [float("nan"), 0.0]]},
        {"positions": [[0.0, 1.0], [-1.732, 0.0], [float("inf"), -1.0], [1.732, 0.0]]},
    ])
    def test_malformed_values_give_one_error_line(self, tmp_path, capsys, payload):
        data = {"dim": 2, "positions": [list(p) for p in RHOMBUS_POS], "edges": [[0, 1]]}
        data.update(payload)
        assert main(["analyze", write_json(tmp_path / "bad.json", data)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "non-integer vertex index" in lines[0] or "non-finite coordinate" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [("edges", 3), ("edges", None), ("angles", 2.5)])
    def test_non_list_field_gives_one_error_line(self, tmp_path, capsys, key, value):
        data = {"dim": 2, "positions": [list(p) for p in RHOMBUS_POS], "edges": [[0, 1]], key: value}
        assert main(["analyze", write_json(tmp_path / "bad.json", data)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{key} must be a list" in lines[0]
        assert captured.out == ""

    def test_degenerate_collinear(self, tmp_path):
        collinear = write_json(tmp_path / "collinear.json", {
            "dim": 2,
            "positions": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            "edges": [[0, 1], [1, 2], [0, 2]],
        })
        assert main(["analyze", collinear]) == 1

    def test_json_report_round_trips(self, tmp_path, capsys):
        main(["analyze", rhombus_file(tmp_path, "a"), "--json"])
        out = capsys.readouterr().out.strip()
        assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) == out
        report = classify_infinitesimal_weak_rigidity(load_framework(rhombus_file(tmp_path, "a")))
        assert out == report_to_json(report)


def k3_seed() -> Framework:
    return Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2,
                     np.array(K3_SEED_POSITIONS))


def pinned_corpus():
    """Grown frameworks n = 8..30, each with one constraint dropped and one
    added, plus a random 3D lift of each and that lift rigidly moved by a few
    radii.  Copies far from the origin in their own unit are left out."""
    rng = np.random.default_rng(1717)
    corpus = []
    for rng_seed, mix in ((17, 0.5), (71, 1.0)):
        for f in grow_random(k3_seed(), steps=27, rng_seed=rng_seed, mix=mix).frameworks[5:]:
            g, n, p = f.graph, f.graph.n, f.positions
            cut = int(rng.integers(g.constraint_count))
            dropped = build_graph(n, [e for t, e in enumerate(g.edges) if t != cut],
                                  [a for t, a in enumerate(g.angles) if g.m + t != cut])
            absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in g.edges]
            if rng.random() < 0.5:
                added = build_graph(n, g.edges + (absent[int(rng.integers(len(absent)))],), g.angles)
            else:
                while True:
                    k, i, j = (int(v) for v in rng.choice(n, size=3, replace=False))
                    angle = (k, min(i, j), max(i, j))
                    if angle not in g.angles:
                        break
                added = build_graph(n, g.edges, g.angles + (angle,))
            rms = float(np.sqrt(np.mean(np.sum(p ** 2, axis=1))))
            lifted = np.column_stack([p, rng.uniform(-1.0, 1.0, n) * rms])
            turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            moved = lifted @ turn.T + rng.normal(size=3) * rms
            corpus += [f, Framework(dropped, 2, p), Framework(added, 2, p),
                       Framework(g, 3, lifted), Framework(g, 3, moved)]
    return corpus


class TestRankTestOutputsPinned:
    """SHA-1 of ``analyze --json`` stdout and exit code, and of the minimality
    answers, over a seeded corpus: counting the trivial motions instead of
    ranking them changes no byte of either."""

    def test_corpus_digest(self, tmp_path, capsys):
        digest, codes, minimal = hashlib.sha1(), set(), set()
        for t, f in enumerate(pinned_corpus()):
            path = str(tmp_path / f"f{t}.json")
            dump_framework(f, path)
            code = main(["analyze", path, "--json"])
            result = is_minimally_weakly_rigid(f)
            digest.update(capsys.readouterr().out.encode() + f"{code}\n".encode())
            digest.update(repr((result.minimal, result.reason, result.witness)).encode())
            codes.add(code)
            minimal.add(result.minimal)
        assert codes == {0, 2} and minimal == {True, False}
        assert digest.hexdigest() == "039703806483b42f03c49f02c8a7b5564a9c10c1"


class TestFarFromOrigin:
    def test_small_grown_copy_far_out_is_rigid(self, tmp_path, capsys):
        f = grow_random(k3_seed(), steps=7, rng_seed=0).final
        path = str(tmp_path / "far.json")
        dump_framework(f.with_positions(f.positions * 0.01 + [0.0, 1e4]), path)
        code = main(["analyze", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (report["rank"], report["required_rank"], report["rigid"]) == (17, 17, True)


class TestSimulate:
    def test_zero_horizon_times_out(self, tmp_path, capsys):
        fw = bench_framework_file(tmp_path)
        tg = bench_target_file(tmp_path)
        code = main(["simulate", fw, "--targets", tg, "--t-max", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "max-time" in out

    def test_converged_run_writes_trace(self, tmp_path, capsys):
        # Unit-scale targets have no slow spectral tail, so a perturbed start
        # converges tightly within a few seconds of simulated time.
        near = np.array([
            [0.03, -0.04],
            [1.02, 0.01],
            [0.52, 0.90],
        ])
        fw = bench_framework_file(tmp_path, positions=near)
        tg = write_json(tmp_path / "unit_targets.json", {
            "sq_distances": [[0, 1, 1.0], [0, 2, 1.0]],
            "cosines": [[0, 1, 2, 0.5]],
        })
        trace_path = tmp_path / "trace.csv"
        code = main(["simulate", fw, "--targets", tg, "--eps", "1e-6",
                     "--t-max", "30", "--out", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "time,x1,y1,x2,y2,x3,y3,e12,e13,ecos,V,detZ"
        assert len(lines) >= 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 12

    def test_benchmark_converges_with_long_horizon(self, tmp_path, capsys):
        # The benchmark scenario needs ~115 time units to push ||e|| below
        # 1e-6 (slow spectral mode of the target shape); given that much
        # horizon the CLI reports convergence.
        fw = bench_framework_file(tmp_path)
        tg = bench_target_file(tmp_path)
        code = main(["simulate", fw, "--targets", tg, "--dt", "2e-3",
                     "--t-max", "160", "--eps", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out

    def test_diverging_run_prints_finite_json_norms(self, tmp_path, capsys):
        # One dt = 5 step from the paper start puts the errors near 6e168 and
        # the gradient near 5e253; their plain norms square past the float range.
        def no_constant(name):
            raise AssertionError(f"stdout holds the non-JSON constant {name}")

        fw = bench_framework_file(tmp_path)
        tg = bench_target_file(tmp_path)
        with np.errstate(over="ignore"):  # the kernel's own cosine overflow
            code = main(["simulate", fw, "--targets", tg, "--dt", "5", "--json"])
            summary = json.loads(capsys.readouterr().out, parse_constant=no_constant)
            f0 = Framework(canonical_three_agent_graph(), 2, BENCH_INITIAL)
            targets = canonical_targets(*BENCH_TARGETS)
            trace = simulate(f0, targets, SimulationConfig(dt=5.0))
            grad = control_law(f0.with_positions(trace.final_positions()), targets)
        assert code == 1 and summary["status"] == "diverged" and summary["steps"] == 1

        def scaled_norm(v):
            s = np.abs(v).max()
            return float(s * np.sqrt(np.sum((v / s) ** 2)))

        assert summary["final_error_norm"] == pytest.approx(scaled_norm(trace.errors[-1]), rel=1e-14)
        assert summary["final_gradient_norm"] == pytest.approx(scaled_norm(grad), rel=1e-14)
        assert 1e168 < summary["final_error_norm"] < 1e169
        assert 1e253 < summary["final_gradient_norm"] < 1e254

    @pytest.mark.parametrize("targets, argv, error_norm, gradient_norm", [
        (None, ["--dt", "20"], 1.489061072822853e+217, None),  # the gradient overflows
        (None, ["--dt", "1000"], None, None),  # the cosine is NaN, and so the gradient
        ({"sq_distances": [[0, 1, 1e150], [0, 2, 9.0]], "cosines": [[0, 1, 2, 0.5]]},
         ["--t-max", "1"], None, None),  # the state itself turns NaN
    ])
    def test_run_out_of_the_float_range_prints_strict_json(self, tmp_path, capsys, targets, argv,
                                                            error_norm, gradient_norm):
        def no_constant(name):
            raise AssertionError(f"stdout holds the non-JSON constant {name}")

        fw = bench_framework_file(tmp_path)
        tg = bench_target_file(tmp_path) if targets is None else write_json(
            tmp_path / "targets.json", targets)
        code = main(["simulate", fw, "--targets", tg, *argv, "--json"])
        captured = capsys.readouterr()
        summary = json.loads(captured.out, parse_constant=no_constant)
        assert code == 1 and captured.err == ""
        assert summary["status"] == "diverged" and summary["steps"] == 1
        assert summary["final_error_norm"] == error_norm
        assert summary["final_gradient_norm"] == gradient_norm

    def test_diverged_run_is_not_classified(self, tmp_path, capsys):
        # A state near 1e84 is no equilibrium: no Jacobian is read off it, and
        # the gradient norm is taken without an overflow warning.
        fw = bench_framework_file(tmp_path)
        tg = bench_target_file(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", fw, "--targets", tg, "--dt", "5", "--json"])
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert code == 1 and summary["status"] == "diverged"
        assert [str(w.message) for w in caught] == [] and captured.err == ""
        assert set(summary) == {"status", "steps", "t_final", "final_error_norm",
                                "final_gradient_norm"}

    def test_degrees_targets_accepted(self, tmp_path):
        fw = bench_framework_file(tmp_path)
        tg = bench_target_file(tmp_path, use_degrees=True)
        assert main(["simulate", fw, "--targets", tg, "--t-max", "0.5"]) == 3

    def test_collinear_start_reports_incorrect_equilibrium(self, tmp_path, capsys):
        fw = bench_framework_file(tmp_path, positions=[[0.0, 0.0], [2.0, 0.0], [-1.5, 0.0]])
        tg = bench_target_file(tmp_path)
        code = main(["simulate", fw, "--targets", tg, "--t-max", "20",
                     "--dt", "2e-3", "--eps", "1e-6"])
        out = capsys.readouterr().out
        assert code == 4
        assert "incorrect equilibrium" in out
        assert "unstable" in out

    def test_non_integer_target_index(self, tmp_path, capsys):
        fw = bench_framework_file(tmp_path)
        tg = write_json(tmp_path / "targets.json", {
            "sq_distances": [[0, 1.5, 8.0], [0, 2, 9.0]], "cosines": [[0, 1, 2, 0.5]]})
        assert main(["simulate", fw, "--targets", tg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "sq_distances[0] has a non-integer vertex index 1.5" in lines[0]

    @pytest.mark.parametrize("text, where", [
        ('{"sq_distances": [[0, 1, [8.0]], [0, 2, 9.0]], "cosines": [[0, 1, 2, 0.5]]}',
         "sq_distances[0] value must be a number"),
        ('{"sq_distances": [[0, 1, 8.0], [0, 2, 9.0]], "cosines_deg": [[0, 1, 2, "40"]]}',
         "cosines_deg[0] value must be a number"),
        ('{"sq_distances": [[0, 1, 8.0], [0, 2, 1%s]], "cosines": [[0, 1, 2, 0.5]]}' % ("0" * 400),
         "sq_distances[1] has a non-finite value"),
        ('{"sq_distances": [[0, 1, NaN], [0, 2, 9.0]], "cosines": [[0, 1, 2, 0.5]]}',
         "sq_distances[0] has a non-finite value"),
    ], ids=["list", "string", "overflow", "nan"])
    def test_bad_target_value_gives_one_error_line(self, tmp_path, capsys, text, where):
        fw = bench_framework_file(tmp_path)
        tg = tmp_path / "targets.json"
        tg.write_text(text)
        assert main(["simulate", fw, "--targets", str(tg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert where in lines[0]

    @pytest.mark.parametrize("text, key", [
        ('{"sq_distances": 5}', "sq_distances"),
        ('{"sq_distances": [[0, 1, 8.0], [0, 2, 9.0]], "cosines": null}', "cosines"),
        ('{"sq_distances": [[0, 1, 8.0], [0, 2, 9.0]], "cosines_deg": 40}', "cosines_deg"),
    ], ids=["int", "null", "degrees-int"])
    def test_non_list_target_field_gives_one_error_line(self, tmp_path, capsys, text, key):
        fw = bench_framework_file(tmp_path)
        tg = tmp_path / "targets.json"
        tg.write_text(text)
        assert main(["simulate", fw, "--targets", str(tg)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{key} must be a list" in lines[0]
        assert captured.out == ""

    def test_target_mismatch(self, tmp_path, capsys):
        fw = bench_framework_file(tmp_path)
        tg = write_json(tmp_path / "badtargets.json", {
            "sq_distances": [[0, 1, 8.0], [1, 2, 9.0]],
            "cosines": [[0, 1, 2, 0.5]],
        })
        assert main(["simulate", fw, "--targets", tg]) == 1

    def test_uncovered_targets_name_the_file(self, tmp_path, capsys):
        fw = bench_framework_file(tmp_path)
        tg = write_json(tmp_path / "partial.json", {
            "sq_distances": [[0, 1, 8.0]],
            "cosines": [[0, 1, 2, 0.5]],
        })
        assert main(["simulate", fw, "--targets", tg]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {tg}: targets do not cover")
        assert captured.out == ""

    def test_non_canonical_topology_warns(self, tmp_path, capsys):
        fw = write_json(tmp_path / "k3.json", {
            "dim": 2,
            "positions": [[0.0, 0.0], [2.1, 0.0], [1.0, 1.9]],
            "edges": [[0, 1], [0, 2], [1, 2]],
        })
        tg = write_json(tmp_path / "k3t.json", {
            "sq_distances": [[0, 1, 4.0], [0, 2, 4.0], [1, 2, 4.0]],
        })
        code = main(["simulate", fw, "--targets", tg, "--t-max", "40", "--eps", "1e-6"])
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert code == 0


class TestGrow:
    def test_n3_returns_seed(self, tmp_path, capsys):
        out_path = tmp_path / "k3.json"
        assert main(["grow", "--n", "3", "--seed", "5", "--out", str(out_path)]) == 0
        f = load_framework(str(out_path))
        assert f.graph.n == 3 and f.graph.m == 3 and f.graph.q == 0

    def test_grown_framework_is_rigid(self, tmp_path, capsys):
        out_path = tmp_path / "g10.json"
        log_path = tmp_path / "g10.log"
        code = main(["grow", "--n", "10", "--seed", "42",
                     "--out", str(out_path), "--log", str(log_path)])
        assert code == 0
        f = load_framework(str(out_path))
        assert f.graph.constraint_count == 17
        assert main(["analyze", str(out_path)]) == 0
        assert len(log_path.read_text().splitlines()) == 7

    def test_deterministic_outputs(self, tmp_path, capsys):
        a_out, a_log = tmp_path / "a.json", tmp_path / "a.log"
        b_out, b_log = tmp_path / "b.json", tmp_path / "b.log"
        main(["grow", "--n", "7", "--seed", "9", "--out", str(a_out), "--log", str(a_log)])
        main(["grow", "--n", "7", "--seed", "9", "--out", str(b_out), "--log", str(b_log)])
        assert a_out.read_bytes() == b_out.read_bytes()
        assert a_log.read_bytes() == b_log.read_bytes()

    def test_n_too_small(self, capsys):
        assert main(["grow", "--n", "2", "--seed", "1"]) == 1

    def test_log_round_trip(self, tmp_path, capsys):
        # Each log line is one step's dict; folding the steps rebuilt from
        # those dicts over the seed gives the --out framework.
        out_path, log_path = tmp_path / "g12.json", tmp_path / "g12.log"
        assert main(["grow", "--n", "12", "--seed", "42",
                     "--out", str(out_path), "--log", str(log_path)]) == 0
        seed = Framework(build_graph(3, edges=[(0, 1), (0, 2), (1, 2)]), 2,
                         np.array(K3_SEED_POSITIONS))
        steps = grow_random(seed, steps=9, rng_seed=42).steps
        lines = log_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [s.to_dict() for s in steps]
        f = seed
        for line in lines:
            d = json.loads(line)
            f = apply_extension(f, ExtensionStep(
                kind=d["kind"],
                new_vertex=d["new_vertex"],
                anchors=tuple(d["anchors"]),
                added_angles=tuple(map(tuple, d["added_angles"])),
                new_position=tuple(d["new_position"]),
                removed_edge=tuple(d["removed_edge"]) if d["removed_edge"] else None,
            ))
        grown = load_framework(str(out_path))
        assert np.array_equal(f.positions, grown.positions)
        assert f.graph == grown.graph

    # SHA-1s of the --out and --log bytes; they pin the order of the random
    # draws, so a refactor of the generator must reproduce them exactly.
    @pytest.mark.parametrize("n, seed, mix, out_sha, log_sha", [
        (12, 42, "0.5", "9bad46a5db358c08d363dedaafe301e54cb30a6c",
         "2bc467b5f22f360b2873757bb792fa09c8e9beaf"),
        (20, 7, "0.5", "bf4f2faf078c6d80ac306568387102d7c52115d9",
         "788f731444e9705cc15dd2c4e2340aa2dbd49874"),
        (16, 3, "0.0", "a68b3b122add48baedf67ae5b5f27b7eea23d191",
         "41c4af8cf4d0d9ec49829848008fa7a6ba6cfb31"),
    ])
    def test_golden_output(self, tmp_path, capsys, n, seed, mix, out_sha, log_sha):
        out_path, log_path = tmp_path / "out.json", tmp_path / "out.log"
        assert main(["grow", "--n", str(n), "--seed", str(seed), "--mix", mix,
                     "--out", str(out_path), "--log", str(log_path)]) == 0
        assert hashlib.sha1(out_path.read_bytes()).hexdigest() == out_sha
        assert hashlib.sha1(log_path.read_bytes()).hexdigest() == log_sha


class TestNonFiniteOptions:
    @pytest.mark.parametrize("argv", [
        ["simulate", "fw.json", "--targets", "t.json", "--dt", "nan"],
        ["simulate", "fw.json", "--targets", "t.json", "--dt", "inf"],
        ["simulate", "fw.json", "--targets", "t.json", "--eps", "nan"],
        ["simulate", "fw.json", "--targets", "t.json", "--t-max", "inf"],
        ["simulate", "fw.json", "--targets", "t.json", "--t-max", "nan"],
        ["analyze", "fw.json", "--tol", "nan"],
        ["analyze", "fw.json", "--tol", "inf"],
        ["check-gradient", "fw.json", "--fd-step=-inf"],
        ["grow", "--n", "5", "--seed", "1", "--mix", "nan"],
        ["grow", "--n", "5", "--seed", "1.5"],
    ])
    def test_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "fw.json", "--tol", "abc"],
        ["simulate", "fw.json", "--targets", "t.json", "--dt", "abc"],
        ["simulate", "fw.json", "--targets", "t.json", "--t-max", "abc"],
        ["simulate", "fw.json", "--targets", "t.json", "--eps", "abc"],
        ["grow", "--n", "5", "--mix", "abc"],
        ["check-gradient", "fw.json", "--fd-step", "abc"],
        ["grow", "--n", "5", "--seed", "abc"],
    ], ids=lambda argv: argv[-2])
    def test_non_numeric_value_names_the_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-2]} must be " in err and err.rstrip().endswith("got abc")
        assert "_seed" not in err and "parse" not in err

    def test_negative_seed_names_the_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["grow", "--n", "5", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_a_seed_past_the_float_range_is_taken_as_given(self):
        seed = "9" * 400  # too large for a float, finite as an integer
        assert build_parser().parse_args(["grow", "--n", "5", "--seed", seed]).seed == int(seed)


class TestUnwritableOutput:
    """A path in a missing directory gives one error line that names it, no traceback."""

    def assert_one_error_line(self, capsys, path):
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(path) in line

    @pytest.mark.parametrize("option", ["--out", "--log"])
    def test_grow(self, tmp_path, capsys, option):
        path = tmp_path / "missing" / "x.json"
        assert main(["grow", "--n", "5", "--seed", "1", option, str(path)]) == 1
        self.assert_one_error_line(capsys, path)

    def test_simulate(self, tmp_path, capsys):
        path = tmp_path / "missing" / "trace.csv"
        argv = ["simulate", bench_framework_file(tmp_path), "--targets",
                bench_target_file(tmp_path), "--t-max", "0.01", "--out", str(path)]
        assert main(argv) == 1
        self.assert_one_error_line(capsys, path)


class TestParserBuiltOnce:
    def test_later_calls_construct_no_parser(self, tmp_path, capsys, monkeypatch):
        path = rhombus_file(tmp_path, "c")
        assert main(["analyze", path]) == 0
        built = []
        construct = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            construct(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["analyze", path, "--json"]) == 0
        assert main(["check-gradient", path]) == 0
        assert built == []


class TestCheckGradient:
    def test_mixed_framework_passes(self, tmp_path, capsys):
        assert main(["check-gradient", rhombus_file(tmp_path, "c")]) == 0
        assert "max |analytic - finite difference|" in capsys.readouterr().out

    def test_two_edges_one_angle_passes(self, tmp_path, capsys):
        fw = write_json(tmp_path / "fig1b.json", {
            "dim": 2,
            "positions": [[-1.732, 0.0], [0.0, 1.0], [0.0, -1.0]],
            "edges": [[0, 1], [0, 2]],
            "angles": [[0, 1, 2]],
        })
        assert main(["check-gradient", fw]) == 0

    def test_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["check-gradient", str(bad)]) == 1


class TestCheckGradientUnits:
    """The check runs on a normalized copy, so a change of unit or frame keeps its verdict."""

    @staticmethod
    def grown_copy(tmp_path, n, scale, offset):
        grown = tmp_path / "grown.json"
        assert main(["grow", "--n", str(n), "--seed", "7", "--out", str(grown)]) == 0
        data = json.loads(grown.read_text())
        data["positions"] = (np.array(data["positions"]) * scale + offset).tolist()
        return write_json(tmp_path / "copy.json", data)

    # Before the normalization, n = 12 read 3.5e-6 at x100, 3.5e-4 at x1e-3 and 5.0 at x1e5.
    @pytest.mark.parametrize("scale, offset", [
        (1.0, 0.0), (100.0, 0.0), (1e-3, 0.0), (1e5, 0.0), (1e-3, 1e3), (1e5, 1e6)])
    @pytest.mark.parametrize("n", [12, 30])
    def test_rescaled_grown_copies_pass(self, tmp_path, capsys, n, scale, offset):
        copy = self.grown_copy(tmp_path, n, scale, offset)
        capsys.readouterr()
        assert main(["check-gradient", copy]) == 0
        assert float(capsys.readouterr().out.rsplit("=", 1)[1]) < 1e-8

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_a_perturbed_row_fails(self, tmp_path, capsys, monkeypatch, scale):
        exact = cli.weak_rigidity_matrix

        def perturbed(f):
            R = exact(f)
            matrix = R.matrix.copy()
            matrix[1] += 1e-3
            return dataclasses.replace(R, matrix=matrix)

        copy = self.grown_copy(tmp_path, 12, scale, 0.0)
        monkeypatch.setattr(cli, "weak_rigidity_matrix", perturbed)
        capsys.readouterr()
        assert main(["check-gradient", copy]) == 2
        assert float(capsys.readouterr().out.rsplit("=", 1)[1]) > 9e-4


K4_EDGES = [[i, j] for i in range(4) for j in range(i + 1, 4)]


def k4_3d_file(tmp_path):
    return write_json(tmp_path / "k4.json", {
        "dim": 3,
        "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "edges": K4_EDGES,
    })


class TestSingleDimGate:
    @pytest.mark.parametrize("command, what", [("simulate", "the gradient flow")])
    def test_3d_file_gives_one_error_line(self, tmp_path, capsys, command, what):
        # K4 is not the three-agent topology, yet no warning precedes the error.
        fw = k4_3d_file(tmp_path)
        tg = write_json(tmp_path / "k4t.json", {"sq_distances": [[i, j, 1.0] for i, j in K4_EDGES]})
        assert main([command, fw, "--targets", tg]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {what} is defined for dim 2\n"
        assert captured.out == ""

    def test_3d_check_gradient_passes(self, tmp_path, capsys):
        assert main(["check-gradient", k4_3d_file(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("max |analytic - finite difference| = ")
        assert captured.err == ""
