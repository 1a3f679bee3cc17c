"""End-to-end tests of the command line: every subcommand, the three exit
codes, byte-identical reruns, and the file side-cars."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import corpus
import drisk.oracle
from drisk.cli import main
from drisk.generators import (
    bucket_model,
    complete_graph,
    cycle_graph,
    gnm_random,
    grid_graph,
    path_graph,
    star_graph,
)
from drisk.graphio import read_edge_list, read_vertex_set, write_edge_list, write_vertex_set
from drisk.oracle import lp_domination, lp_packing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


def count_simplex_solves(monkeypatch):
    """Count every simplex solve the oracles start (solve_min calls
    solve_max inside the simplex module, which is not counted twice)."""
    calls = []
    for name in ("solve_min", "solve_max"):
        solver = getattr(drisk.oracle, name)

        def counted(*args, solver=solver):
            calls.append(solver.__name__)
            return solver(*args)

        monkeypatch.setattr(drisk.oracle, name, counted)
    return calls


def two_solve_lp(g, r):
    """The lp report's outputs as given by separate cover and packing solves."""
    cover = lp_domination(g, range(g.n), r).value
    packing = lp_packing(g, range(g.n), r).value
    return cover, packing


@pytest.fixture
def path10(tmp_path, capsys):
    target = tmp_path / "p10.gr"
    assert main(["gen", "path", "--n", "10", "--out", str(target)]) == 0
    capsys.readouterr()
    return str(target)


@pytest.fixture
def twin(tmp_path):
    g = corpus.twin_stars(5, 7)
    graph_path = tmp_path / "twin.gr"
    a_path = tmp_path / "twin.a"
    write_edge_list(g, str(graph_path))
    write_vertex_set(corpus.twin_star_leaves(5), str(a_path))
    return str(graph_path), str(a_path)


class TestGen:
    def test_path_report_and_file(self, tmp_path, capsys):
        out = tmp_path / "p.gr"
        code, rep = run_json(
            capsys, "gen", "path", "--n", "6", "--out", str(out)
        )
        assert code == 0
        assert rep["schema"] == 1
        assert rep["command"] == "gen"
        assert rep["outputs"]["n"] == 6 and rep["outputs"]["m"] == 5
        assert len(rep["outputs"]["out_digest"]) == 64
        g = read_edge_list(str(out))
        assert g.n == 6 and g.m == 5

    def test_gnm_is_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.gr"
        b = tmp_path / "b.gr"
        c = tmp_path / "c.gr"
        for target, seed in ((a, "5"), (b, "5"), (c, "6")):
            code, _ = run(
                capsys, "gen", "gnm", "--n", "12", "--m", "18",
                "--seed", seed, "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_bucket(self, tmp_path, capsys):
        out = tmp_path / "bk.gr"
        code, rep = run_json(
            capsys, "gen", "bucket", "--n", "20", "--d", "3",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        g = read_edge_list(str(out))
        assert g.n == 20
        assert all(g.degree(v) <= 3 for v in range(20))

    def test_pendant_writes_special_sidecar(self, tmp_path, capsys):
        base = tmp_path / "base.gr"
        run(capsys, "gen", "path", "--n", "3", "--out", str(base))
        out = tmp_path / "pend.gr"
        code, rep = run_json(
            capsys, "gen", "pendant", "--input", str(base), "--r", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "input" in rep["input_digest"]
        special = dict()
        for key, value in [
            line.split() for line in (tmp_path / "pend.special").read_text().splitlines()
        ]:
            special[key] = int(value)
        assert set(special) == {"x", "y"}
        g = read_edge_list(str(out))
        assert special["y"] == g.n - 1

    def test_hardness_sidecar_counts_base_vertices(self, tmp_path, capsys):
        base = tmp_path / "base.gr"
        run(capsys, "gen", "cycle", "--n", "4", "--out", str(base))
        out = tmp_path / "hard.gr"
        code, _ = run_json(
            capsys, "gen", "hardness", "--input", str(base), "--r", "2",
            "--out", str(out),
        )
        assert code == 0
        text = (tmp_path / "hard.special").read_text()
        assert "o_count 4" in text

    def test_subdivision(self, tmp_path, capsys):
        base = tmp_path / "base.gr"
        run(capsys, "gen", "cycle", "--n", "3", "--out", str(base))
        out = tmp_path / "sub.gr"
        code, rep = run_json(
            capsys, "gen", "subdivision", "--input", str(base), "--r", "3",
            "--out", str(out),
        )
        assert code == 0
        assert rep["outputs"]["n"] == 9

    @pytest.mark.parametrize("kind,need", [
        ("path", "--n"),
        ("cycle", "--n"),
        ("grid", "--rows and --cols"),
        ("star", "--leaves"),
        ("complete", "--n"),
        ("gnm", "--n and --m"),
        ("bucket", "--n and --d"),
    ])
    def test_family_without_parameters_names_them(self, kind, need, tmp_path, capsys):
        out = tmp_path / "x.gr"
        assert main(["gen", kind, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"input error: gen {kind} needs {need}\n"
        assert not out.exists()

    def test_missing_parameters_exit_input_error(self, tmp_path, capsys):
        code = main(["gen", "gnm", "--n", "5", "--out", str(tmp_path / "x.gr")])
        assert code == 3
        code = main(["gen", "pendant", "--out", str(tmp_path / "y.gr")])
        assert code == 3


class TestSolve:
    def test_alpha(self, path10, capsys):
        code, rep = run_json(
            capsys, "solve", "alpha", "--input", path10, "--r", "2"
        )
        assert code == 0
        assert rep["outputs"]["value"] == 4
        assert len(rep["outputs"]["witness"]) == 4

    def test_gamma_with_member_file(self, tmp_path, capsys):
        g_path = tmp_path / "star.gr"
        a_path = tmp_path / "star.a"
        run(capsys, "gen", "star", "--leaves", "6", "--out", str(g_path))
        write_vertex_set(range(1, 7), str(a_path))
        code, rep = run_json(
            capsys, "solve", "gamma", "--input", str(g_path),
            "--a-file", str(a_path), "--r", "1",
        )
        assert code == 0
        assert rep["outputs"]["value"] == 1
        assert rep["outputs"]["witness"] == [0]
        assert "a_file" in rep["input_digest"]

    def test_lp(self, tmp_path, capsys):
        g_path = tmp_path / "c4.gr"
        run(capsys, "gen", "cycle", "--n", "4", "--out", str(g_path))
        code, rep = run_json(
            capsys, "solve", "lp", "--input", str(g_path), "--r", "1"
        )
        assert code == 0
        assert rep["outputs"]["cover_optimum"] == "4/3"
        assert rep["outputs"]["packing_optimum"] == "4/3"
        assert rep["outputs"]["duality_gap_zero"] is True

    def test_lp_is_one_solve_matching_two_solves_on_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        graphs = corpus.small_corpus()
        expected = {(name, r): two_solve_lp(g, r) for name, g in graphs for r in (1, 2)}
        calls = count_simplex_solves(monkeypatch)
        for name, g in graphs:
            g_path = tmp_path / f"{name}.gr"
            write_edge_list(g, str(g_path))
            for r in (1, 2):
                del calls[:]
                code, rep = run_json(
                    capsys, "solve", "lp", "--input", str(g_path), "--r", str(r)
                )
                assert code == 0
                assert calls == ["solve_min"], (name, r)
                cover, packing = expected[name, r]
                assert rep["outputs"] == {
                    "cover_optimum": f"{cover.numerator}/{cover.denominator}",
                    "packing_optimum": f"{packing.numerator}/{packing.denominator}",
                    "duality_gap_zero": cover == packing,
                }, (name, r)

    def test_vc2(self, path10, capsys):
        code, rep = run_json(
            capsys, "solve", "vc2", "--input", path10, "--r", "1"
        )
        assert code == 0
        assert rep["outputs"]["dimension"] == 2
        witness = rep["outputs"]["witness"]
        assert len(witness["members"]) == 2
        assert all(len(entry) == 3 for entry in witness["pair_witnesses"])

    def test_minor(self, tmp_path, capsys):
        c6 = tmp_path / "c6.gr"
        run(capsys, "gen", "cycle", "--n", "6", "--out", str(c6))
        code, rep = run_json(
            capsys, "solve", "minor", "--input", str(c6), "--t", "3", "--r", "1"
        )
        assert code == 0
        assert rep["outputs"]["found"] is True
        assert len(rep["outputs"]["branch_sets"]) == 3

        p6 = tmp_path / "p6.gr"
        run(capsys, "gen", "path", "--n", "6", "--out", str(p6))
        code, rep = run_json(
            capsys, "solve", "minor", "--input", str(p6), "--t", "3", "--r", "1"
        )
        assert rep["outputs"]["found"] is False
        assert main(["solve", "minor", "--input", str(p6)]) == 3  # no --t

    def test_duality_and_no_lp(self, path10, capsys):
        code, rep = run_json(
            capsys, "solve", "duality", "--input", path10, "--r", "1"
        )
        assert code == 0
        out = rep["outputs"]
        assert out["lp_value"] is not None
        assert out["wcol_value"] >= 1
        assert sorted(out["order"]) == list(range(10))
        code, rep = run_json(
            capsys, "solve", "duality", "--input", path10, "--r", "1", "--no-lp"
        )
        assert rep["outputs"]["lp_value"] is None

    def test_uqw(self, tmp_path, capsys):
        g_path = tmp_path / "star.gr"
        run(capsys, "gen", "star", "--leaves", "8", "--out", str(g_path))
        a_path = tmp_path / "star.a"
        write_vertex_set(range(1, 9), str(a_path))
        code, rep = run_json(
            capsys, "solve", "uqw", "--input", str(g_path),
            "--a-file", str(a_path), "--r", "2", "--m", "8", "--s-max", "1",
        )
        assert code == 0
        assert rep["outputs"] == {"found": True, "s": [0], "b": list(range(1, 9))}
        assert main(["solve", "uqw", "--input", str(g_path)]) == 3  # no --m

    def test_reruns_are_byte_identical(self, path10, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code = main([
                "solve", "alpha", "--input", path10, "--r", "2",
                "--out", str(target),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"wall_time_s" not in a.read_bytes()

    def test_timing_flag_adds_wall_time(self, path10, capsys):
        code, rep = run_json(
            capsys, "solve", "alpha", "--input", path10, "--r", "2", "--timing"
        )
        assert code == 0
        assert rep["wall_time_s"] >= 0

    def test_alpha_on_long_path_needs_no_deep_recursion(self, tmp_path, capsys):
        # alpha = 1200 needs a search 1200 levels deep, past the default
        # recursion limit of 1000
        g_path = tmp_path / "p2400.gr"
        run(capsys, "gen", "path", "--n", "2400", "--out", str(g_path))
        code, rep = run_json(
            capsys, "solve", "alpha", "--input", str(g_path), "--r", "1",
            "--limit", "2400",
        )
        assert code == 0
        assert rep["outputs"]["value"] == 1200

    def test_oracle_refusal_exits_two(self, tmp_path, capsys):
        big = tmp_path / "p50.gr"
        run(capsys, "gen", "path", "--n", "50", "--out", str(big))
        assert main(["solve", "alpha", "--input", str(big)]) == 2
        assert main([
            "solve", "alpha", "--input", str(big), "--limit", "50"
        ]) == 0

    def test_bad_inputs_exit_three(self, tmp_path, path10):
        assert main(["solve", "alpha", "--input", str(tmp_path / "no.gr")]) == 3
        assert main(["solve", "wrong-problem", "--input", path10]) == 3
        assert main(["solve", "alpha", "--input", path10, "--r", "zero"]) == 3


class TestKernel:
    def test_yes_outcome(self, path10, capsys):
        code, rep = run_json(
            capsys, "kernel", "--input", path10, "--r", "2", "--k", "2"
        )
        assert code == 0
        assert rep["outputs"]["tag"] == "YES"
        assert rep["outputs"]["witness"] == [0, 4, 8]

    def test_kernel_outcome_with_sidecars(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        prefix = str(tmp_path / "twin-kernel")
        code, rep = run_json(
            capsys, "kernel", "--input", graph_path, "--a-file", a_path,
            "--r", "2", "--k", "3", "--out-prefix", prefix,
        )
        assert code == 0
        out = rep["outputs"]
        assert out["tag"] == "KERNEL"
        assert out["b"] == [4, 5, 9, 10, 11]
        assert out["y"] == [0, 4, 5, 6, 9, 10, 11]
        assert len(out["removal_log"]) == 5
        assert read_vertex_set(f"{prefix}.y") == (0, 4, 5, 6, 9, 10, 11)
        assert read_vertex_set(f"{prefix}.b") == (4, 5, 9, 10, 11)
        log = json.loads(open(f"{prefix}.log.json").read())
        assert log["schema"] == 1
        assert log["r"] == 2 and log["k"] == 3
        assert len(log["entries"]) == 5

    def test_log_sidecar_replays_clean(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        prefix = str(tmp_path / "kk")
        run(
            capsys, "kernel", "--input", graph_path, "--a-file", a_path,
            "--r", "2", "--k", "3", "--out-prefix", prefix,
        )
        code, rep = run_json(
            capsys, "verify-cert", "--input", graph_path, "--a-file", a_path,
            "--log", f"{prefix}.log.json",
        )
        assert code == 0
        assert rep["outputs"]["valid"] is True
        assert rep["outputs"]["checked"] == 5
        assert rep["outputs"]["final_members"] == [4, 5, 9, 10, 11]

    def test_reruns_are_byte_identical(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code = main([
                "kernel", "--input", graph_path, "--a-file", a_path,
                "--r", "2", "--k", "3", "--out", str(target),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_policy_flags_are_recorded(self, twin, capsys):
        graph_path, a_path = twin
        code, rep = run_json(
            capsys, "kernel", "--input", graph_path, "--a-file", a_path,
            "--r", "2", "--k", "3", "--max-rounds", "2", "--target", "2",
        )
        assert code == 0
        assert rep["parameters"]["max_rounds"] == 2
        assert rep["parameters"]["target"] == 2
        assert len(rep["outputs"]["removal_log"]) <= 2

    def test_missing_required_flags_exit_three(self, path10):
        assert main(["kernel", "--input", path10, "--r", "2"]) == 3

    @pytest.mark.parametrize(
        "edges", ["e 0 0\ne 0 1\n", "e 0 1\ne 1 0\n"], ids=["loop", "parallel"]
    )
    def test_loop_or_parallel_edge_in_graph_file_exits_three(
        self, edges, tmp_path, capsys
    ):
        graph_path = tmp_path / "multi.gr"
        graph_path.write_text("p 3 2\n" + edges)
        code = main(["kernel", "--input", str(graph_path), "--r", "1", "--k", "1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("command", [
        ["solve", "alpha", "--input", "g.gr", "--format", "json"],
        ["kernel", "--input", "g.gr", "--r", "1", "--k", "1", "--format", "json"],
        ["bench", "--manifest", "m.json", "--format", "csv"],
    ], ids=["solve", "kernel", "bench"])
    def test_format_flag_is_refused(self, command):
        assert main(command) == 3


class TestVerifyCert:
    def test_single_certificate(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        cert = {"z": [0, 6], "s": [0], "l_prime": [1, 2, 3, 4, 5], "r": 2, "d": 1}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, rep = run_json(
            capsys, "verify-cert", "--input", graph_path, "--a-file", a_path,
            "--cert", str(cert_path),
        )
        assert code == 0
        assert rep["outputs"] == {"valid": True, "failing": None}

    def test_single_certificate_failure_names_condition(
        self, twin, tmp_path, capsys
    ):
        graph_path, a_path = twin
        cert = {"z": [0, 6], "s": [], "l_prime": [1, 2, 3, 4, 5], "r": 2, "d": 1}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, rep = run_json(
            capsys, "verify-cert", "--input", graph_path, "--a-file", a_path,
            "--cert", str(cert_path),
        )
        assert code == 0
        assert rep["outputs"] == {"valid": False, "failing": "far"}

    def test_tampered_log_is_rejected(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        prefix = str(tmp_path / "kk")
        run(
            capsys, "kernel", "--input", graph_path, "--a-file", a_path,
            "--r", "2", "--k", "3", "--out-prefix", prefix,
        )
        log = json.loads(open(f"{prefix}.log.json").read())
        log["entries"][0]["removed"] = 11  # outside the certified class
        bad = tmp_path / "bad.log.json"
        bad.write_text(json.dumps(log))
        code, rep = run_json(
            capsys, "verify-cert", "--input", graph_path, "--a-file", a_path,
            "--log", str(bad),
        )
        assert code == 0
        assert rep["outputs"]["valid"] is False
        assert rep["outputs"]["failures"][0]["reason"] == (
            "removed vertex outside the certified class"
        )

    def test_malformed_certificate_exits_three(self, twin, tmp_path):
        graph_path, a_path = twin
        cert_path = tmp_path / "broken.json"
        cert_path.write_text(json.dumps({"z": [0]}))
        assert main([
            "verify-cert", "--input", graph_path, "--cert", str(cert_path)
        ]) == 3

    @pytest.mark.parametrize("log", [[[1, 2]], 5], ids=["list-entry", "number"])
    def test_malformed_log_exits_three(self, log, twin, tmp_path, capsys):
        graph_path, a_path = twin
        log_path = tmp_path / "bad.log.json"
        log_path.write_text(json.dumps(log))
        code = main([
            "verify-cert", "--input", graph_path, "--a-file", a_path,
            "--log", str(log_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_cert_and_log_are_mutually_exclusive(self, twin, tmp_path):
        graph_path, _ = twin
        dummy = tmp_path / "d.json"
        dummy.write_text("{}")
        assert main([
            "verify-cert", "--input", graph_path,
            "--cert", str(dummy), "--log", str(dummy),
        ]) == 3


class TestBench:
    def test_manifest_to_csv(self, tmp_path, capsys):
        manifest = {
            "rows": [
                {"name": "p12", "family": {"kind": "path", "n": 12},
                 "task": "kernel", "r": 2, "k": 2},
                {"name": "dual-c8", "family": {"kind": "cycle", "n": 8},
                 "task": "duality", "r": 1},
                {"name": "lp-g", "family": {"kind": "gnm", "n": 6, "m": 7,
                                            "seed": 1}, "task": "lp", "r": 1},
                {"name": "boom", "family": {"kind": "mystery"}, "task": "lp"},
            ]
        }
        man_path = tmp_path / "manifest.json"
        man_path.write_text(json.dumps(manifest))
        code, out = run(capsys, "bench", "--manifest", str(man_path))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["name"] for row in rows] == ["p12", "dual-c8", "lp-g", "boom"]
        assert rows[0]["outcome"] == "YES"
        assert rows[1]["task"] == "duality" and rows[1]["lp_value"]
        assert rows[2]["outcome"] == "equal"
        assert rows[3]["error"].startswith("GraphError")
        assert all(float(row["seconds"]) >= 0 for row in rows)

    def test_family_rows_for_every_kind(self, tmp_path, capsys):
        families = [
            ({"kind": "path", "n": 7}, path_graph(7)),
            ({"kind": "cycle", "n": 6}, cycle_graph(6)),
            ({"kind": "grid", "rows": 3, "cols": 4}, grid_graph(3, 4)),
            ({"kind": "star", "leaves": 5}, star_graph(5)),
            ({"kind": "complete", "n": 4}, complete_graph(4)),
            ({"kind": "gnm", "n": 9, "m": 11, "seed": 2}, gnm_random(9, 11, 2)),
            ({"kind": "bucket", "n": 20, "d": 3, "seed": 5}, bucket_model(20, 3, 5).g),
        ]
        rows = [{"name": fam["kind"], "family": fam, "task": "duality", "r": 1}
                for fam, _ in families]
        rows.append({"name": "cube", "family": {"kind": "hypercube", "n": 3},
                     "task": "duality"})
        rows.append({"name": "listed", "family": {"kind": ["path"], "n": 3},
                     "task": "duality"})
        rows.append({"name": "half-grid", "family": {"kind": "grid", "rows": 3},
                     "task": "duality"})
        man_path = tmp_path / "manifest.json"
        man_path.write_text(json.dumps(rows))
        code, out = run(capsys, "bench", "--manifest", str(man_path))
        assert code == 0
        got = list(csv.DictReader(io.StringIO(out)))
        assert [row["name"] for row in got] == [row["name"] for row in rows]
        for row, (_, g) in zip(got, families):
            assert (row["n"], row["m"], row["error"]) == (str(g.n), str(g.m), "")
            assert row["outcome"] == "ok"
        assert got[-3]["error"] == "GraphError: unknown family kind 'hypercube'"
        assert got[-2]["error"] == "GraphError: unknown family kind ['path']"
        assert got[-1]["error"] == "KeyError: 'cols'"

    def test_lp_rows_are_one_solve_matching_two_solves_on_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        graphs = corpus.small_corpus()
        rows, expected = [], {}
        for name, g in graphs:
            g_path = tmp_path / f"{name}.gr"
            write_edge_list(g, str(g_path))
            for r in (1, 2):
                rows.append({"name": f"{name}-r{r}", "input": str(g_path),
                             "task": "lp", "r": r})
                expected[f"{name}-r{r}"] = two_solve_lp(g, r)
        man_path = tmp_path / "manifest.json"
        man_path.write_text(json.dumps(rows))
        calls = count_simplex_solves(monkeypatch)
        code, out = run(capsys, "bench", "--manifest", str(man_path))
        assert code == 0
        assert calls == ["solve_min"] * len(rows)
        got = list(csv.DictReader(io.StringIO(out)))
        assert [row["name"] for row in got] == [row["name"] for row in rows]
        for row in got:
            cover, packing = expected[row["name"]]
            assert row["outcome"] == ("equal" if cover == packing else "gap")
            assert row["lp_value"] == f"{cover.numerator}/{cover.denominator}"
            assert row["error"] == ""

    def test_graph_rows_can_point_at_files(self, path10, tmp_path, capsys):
        manifest = [{"name": "file-row", "input": path10, "task": "kernel",
                     "r": 2, "k": 2}]
        man_path = tmp_path / "m.json"
        man_path.write_text(json.dumps(manifest))
        out_path = tmp_path / "bench.csv"
        code = main(["bench", "--manifest", str(man_path), "--out", str(out_path)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert rows[0]["outcome"] == "YES"

    def test_missing_manifest_exits_three(self, tmp_path):
        assert main(["bench", "--manifest", str(tmp_path / "no.json")]) == 3

    def test_manifest_that_is_not_a_list_exits_three(self, tmp_path, capsys):
        man_path = tmp_path / "m.json"
        man_path.write_text("7")
        assert main(["bench", "--manifest", str(man_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_row_that_is_not_an_object_is_an_error_row(self, tmp_path, capsys):
        manifest = [5, {"name": "p4", "family": {"kind": "path", "n": 4},
                        "task": "lp"}]
        man_path = tmp_path / "m.json"
        man_path.write_text(json.dumps(manifest))
        code, out = run(capsys, "bench", "--manifest", str(man_path))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["name"] for row in rows] == ["", "p4"]
        assert rows[0]["error"] == "GraphError: bench row 5 is not an object"
        assert rows[1]["outcome"] == "equal" and rows[1]["error"] == ""


def child_env():
    """Environment for a `python -m drisk.cli` child process that imports
    the same drisk as this test run, however the run found it."""
    src = os.path.dirname(os.path.dirname(drisk.oracle.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "p.gr"
        proc = subprocess.run(
            [sys.executable, "-m", "drisk.cli", "gen", "path", "--n", "4",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["outputs"]["n"] == 4

    def test_module_invocation_bad_input_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "drisk.cli", "solve", "alpha",
             "--input", "/nonexistent/g.gr"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 3
