"""End-to-end tests of the command line: every subcommand, the three exit
codes, byte-identical reruns, and the file side-cars."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce
import corpus
import drisk.ballvc
import drisk.cli
import drisk.graph
import drisk.kernel
import drisk.oracle
import drisk.simplex
import drisk.uqw
import drisk.wcol
from drisk.cli import main
from drisk.generators import (
    FAMILIES,
    bucket_model,
    complete_graph,
    cycle_graph,
    gnm_random,
    grid_graph,
    path_graph,
    star_graph,
)
from drisk.ballvc import TwoShatterWitness
from drisk.graphio import (
    MAX_VERTICES,
    read_edge_list,
    read_vertex_set,
    write_edge_list,
    write_vertex_set,
)
from drisk.kernel import IrrelevanceCertificate
from drisk.oracle import lp_domination


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


def internal_error(capsys, *argv):
    """Run a command whose self-check must fail: exit 1, no report, one
    `internal error:` line.  Returns that line's message."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    (line,) = captured.err.splitlines()
    assert line.startswith("internal error: ")
    return line.removeprefix("internal error: ")


def count_simplex_solves(monkeypatch):
    """Record the rhs of every simplex solve the oracles start:
    drisk.oracle reaches the simplex only through solve_max."""
    assert not hasattr(drisk.oracle, "solve_min")
    calls = []
    solver = drisk.oracle.solve_max

    def counted(c, rows, rhs):
        calls.append(list(rhs))
        return solver(c, rows, rhs)

    monkeypatch.setattr(drisk.oracle, "solve_max", counted)
    return calls


def two_solve_lp(g, r):
    """The lp report's outputs as given by separate cover and packing solves."""
    cover = bruteforce.lp_cover(g, range(g.n), r).value
    packing = bruteforce.lp_packing(g, range(g.n), r).value
    return cover, packing


def reference_dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.fixture(autouse=True)
def reports_match_reference_dump(monkeypatch):
    """Every report a test here has the command line write, to stdout or
    to a file, must be the bytes json.dumps gives for it."""
    writer = drisk.cli._dump

    def checked(report):
        text = writer(report)
        assert text == reference_dump(report)
        return text

    monkeypatch.setattr(drisk.cli, "_dump", checked)


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

    # sha256 of gen bucket's edge-list files: the short-cycle trim must
    # keep choosing the same cycle and the same edge, so the bytes are fixed
    BUCKET_DIGESTS = {
        (500, 3, 1): "403dea3c0203729e7f02355a121809b578450d3891713ed95774e7d8d8611c30",
        (500, 5, 1): "facfc9c71ed868c6eef099e2be039d9230c1de40f2c4265837ba84284769475d",
        (500, 6, 1): "455d8a398b82309ffcb75f82a14cce3b480468c4ca359541b14ba5ade50526a6",
        (600, 8, 1): "4d134d60cf74c48d70b38efc3100a648e630b69c9112acc47be6194b871d9443",
        (850, 6, 1): "4d10a19bb06717dc2d57b233e57c32ad63f4950c6a3f2684754532515a05a9b3",
        (1000, 7, 1): "9ee603ee2efa8234376b63189d6ecdfcb946405c7ff48c625a411f9dd4d285ae",
        (2000, 3, 1): "1174724d3465816ad0ffb7ccdc2dbad5e04122469c697ed386c567edfaa561ad",
    }

    @pytest.mark.parametrize("n,d,seed", sorted(BUCKET_DIGESTS))
    def test_bucket_bytes_are_pinned(self, n, d, seed, tmp_path, capsys):
        out = tmp_path / "bk.gr"
        code, rep = run_json(
            capsys, "gen", "bucket", "--n", str(n), "--d", str(d),
            "--seed", str(seed), "--out", str(out),
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == rep["outputs"]["out_digest"]
        assert digest == self.BUCKET_DIGESTS[n, d, seed]

    # the options of each family's gen call and its builder's graph
    FAMILY_GRAPHS = {
        "path": (["--n", "7"], lambda: path_graph(7)),
        "cycle": (["--n", "6"], lambda: cycle_graph(6)),
        "grid": (["--rows", "3", "--cols", "4"], lambda: grid_graph(3, 4)),
        "star": (["--leaves", "5"], lambda: star_graph(5)),
        "complete": (["--n", "4"], lambda: complete_graph(4)),
        "gnm": (["--n", "9", "--m", "11", "--seed", "2"], lambda: gnm_random(9, 11, 2)),
        "bucket": (["--n", "20", "--d", "3", "--seed", "5"], lambda: bucket_model(20, 3, 5).g),
    }

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_every_family_writes_its_builders_graph(self, kind, tmp_path, capsys):
        options, build = self.FAMILY_GRAPHS[kind]
        out = tmp_path / "f.gr"
        code, rep = run_json(capsys, "gen", kind, *options, "--out", str(out))
        assert code == 0
        expected = build()
        g = read_edge_list(str(out))
        assert (g.n, g.m, g.edges) == (expected.n, expected.m, expected.edges)
        assert (rep["outputs"]["n"], rep["outputs"]["m"]) == (expected.n, expected.m)

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

    @pytest.mark.parametrize("kind,given,option", [
        ("path", ["--n", "5"], "--rows"),
        ("cycle", ["--n", "5"], "--d"),
        ("grid", ["--rows", "2", "--cols", "3"], "--n"),
        ("star", ["--leaves", "3"], "--input"),
        ("complete", ["--n", "3"], "--m"),
        ("gnm", ["--n", "5", "--m", "4"], "--r"),
        ("bucket", ["--n", "6", "--d", "3"], "--leaves"),
        ("subdivision", ["--input", "BASE", "--r", "2"], "--n"),
        ("pendant", ["--input", "BASE", "--r", "2"], "--cols"),
        ("hardness", ["--input", "BASE", "--r", "2"], "--d"),
    ])
    def test_options_the_kind_never_reads_are_refused(self, kind, given, option,
                                                      tmp_path, capsys):
        base = tmp_path / "base.gr"
        write_edge_list(path_graph(3), str(base))
        given = [str(base) if a == "BASE" else a for a in given]
        out = tmp_path / "x.gr"
        code = main(["gen", kind, *given, option, str(base) if option == "--input" else "9",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"input error: gen {kind} takes no {option}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,given", [
        ("path", ["--n", "5"]),
        ("cycle", ["--n", "5"]),
        ("grid", ["--rows", "2", "--cols", "3"]),
        ("star", ["--leaves", "3"]),
        ("complete", ["--n", "3"]),
        ("subdivision", ["--input", "BASE", "--r", "2"]),
        ("pendant", ["--input", "BASE", "--r", "2"]),
        ("hardness", ["--input", "BASE", "--r", "2"]),
    ])
    def test_seed_is_refused_where_no_seed_is_read(self, kind, given, tmp_path, capsys):
        base = tmp_path / "base.gr"
        write_edge_list(path_graph(3), str(base))
        given = [str(base) if a == "BASE" else a for a in given]
        out = tmp_path / "x.gr"
        assert main(["gen", kind, *given, "--seed", "9", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: gen {kind} takes no --seed\n"
        assert not out.exists()
        # without --seed the report records seed 0, as it always has
        code, rep = run_json(capsys, "gen", kind, *given, "--out", str(out))
        assert code == 0
        assert rep["seed"] == 0 and rep["parameters"]["seed"] == 0

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
                assert calls == [[1] * g.n], (name, r)
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

    def test_vc2_member_file_searches_from_members_only(self, tmp_path, capsys, monkeypatch):
        # one table search per member, then one ball() per witness pair;
        # no ball is built around the other vertices of the grid
        g_path, a_path = tmp_path / "g6.gr", tmp_path / "g6.a"
        write_edge_list(grid_graph(6, 6), str(g_path))
        members = [0, 2, 4, 7, 9, 14, 16, 21, 23, 28, 30, 35]
        write_vertex_set(members, str(a_path))
        sources = []
        search = drisk.graph.multi_source_distances

        def counted(g, srcs, *args):
            sources.append(tuple(srcs))
            return search(g, srcs, *args)

        monkeypatch.setattr(drisk.graph, "multi_source_distances", counted)
        code, rep = run_json(
            capsys, "solve", "vc2", "--input", str(g_path), "--a-file", str(a_path), "--r", "2"
        )
        assert code == 0
        witness = rep["outputs"]["witness"]
        assert witness["members"] == [0, 2, 14]
        assert sources == [(u,) for u in members] + [(v,) for _, _, v in witness["pair_witnesses"]]

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

    @pytest.mark.parametrize("problem,line", [
        (["alpha"], "independence oracle limited to |A| <= 40, got 41"),
        (["gamma"], "domination oracle limited to |A| <= 40, got 41"),
        (["vc2"], "pair-shattering search limited to 24 elements, got 41"),
        (["minor", "--t", "2"], "clique-minor search limited to 16 vertices, got 41"),
    ], ids=["alpha", "gamma", "vc2", "minor"])
    def test_default_limits_are_the_oracles(self, problem, line, tmp_path, capsys):
        p41 = tmp_path / "p41.gr"
        run(capsys, "gen", "path", "--n", "41", "--out", str(p41))
        code = main(["solve", *problem, "--input", str(p41)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"oracle limit: {line}\n"

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

    @pytest.mark.parametrize("problem", [
        ["alpha"], ["gamma"], ["lp"], ["vc2"], ["minor", "--t", "2"],
        ["duality"], ["uqw", "--m", "2"],
    ], ids=lambda problem: problem[0])
    def test_negative_radius_exits_three(self, problem, path10, capsys):
        # every problem refuses in the same words
        code = main(["solve", *problem, "--input", path10, "--r", "-1"])
        assert code == 3
        assert capsys.readouterr().err == "input error: radius must be >= 0\n"

    @pytest.mark.parametrize("problem", [
        ["alpha"], ["gamma"], ["vc2"], ["minor", "--t", "2"],
    ], ids=lambda problem: problem[0])
    def test_negative_limit_exits_three(self, problem, path10, capsys):
        code = main(["solve", *problem, "--input", path10, "--limit", "-1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("input error:")
        # a zero limit is well formed: the oracle refuses the instance
        assert main(["solve", *problem, "--input", path10, "--limit", "0"]) == 2

    @pytest.mark.parametrize("problem,option", [
        pytest.param(["lp"], ["--limit", "1"], id="lp-limit"),
        pytest.param(["duality"], ["--limit", "4", "--t", "3"], id="duality-limit"),
        pytest.param(["duality"], ["--t", "3"], id="duality-t"),
        pytest.param(["uqw", "--m", "2"], ["--limit", "3"], id="uqw-limit"),
        pytest.param(["alpha"], ["--t", "5", "--m", "7"], id="alpha-t"),
        pytest.param(["gamma"], ["--m", "7"], id="gamma-m"),
        pytest.param(["vc2"], ["--t", "2"], id="vc2-t"),
        pytest.param(["minor", "--t", "2"], ["--m", "2"], id="minor-m"),
        pytest.param(["uqw", "--m", "2"], ["--t", "2"], id="uqw-t"),
        pytest.param(["alpha"], ["--s-max", "9"], id="alpha-s-max"),
        pytest.param(["gamma"], ["--s-max", "0"], id="gamma-s-max"),
        pytest.param(["lp"], ["--no-lp"], id="lp-no-lp"),
        pytest.param(["uqw", "--m", "2"], ["--no-lp"], id="uqw-no-lp"),
        pytest.param(["minor", "--t", "2"], ["--a-file", "{members}"], id="minor-a-file"),
    ])
    def test_options_the_problem_never_reads_exit_three(
        self, problem, option, path10, tmp_path, capsys
    ):
        # a well-formed member set, so only the option itself is wrong
        a_path = tmp_path / "a.txt"
        write_vertex_set((0, 3), str(a_path))
        code = main(["solve", *problem, "--input", path10,
                     *(o.format(members=a_path) for o in option)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"input error: solve {problem[0]} takes no {option[0]}\n"

    def test_options_the_problem_reads_are_recorded(self, path10, capsys):
        code, rep = run_json(
            capsys, "solve", "minor", "--input", path10, "--t", "2", "--limit", "16"
        )
        assert code == 0
        assert rep["parameters"] == {"problem": "minor", "r": 1, "t": 2, "limit": 16}
        code, rep = run_json(capsys, "solve", "uqw", "--input", path10, "--m", "2")
        assert code == 0
        assert rep["parameters"] == {"problem": "uqw", "r": 1, "m": 2, "s_max": 3}
        code, rep = run_json(
            capsys, "solve", "uqw", "--input", path10, "--m", "2", "--s-max", "1"
        )
        assert code == 0
        assert rep["parameters"] == {"problem": "uqw", "r": 1, "m": 2, "s_max": 1}
        code, rep = run_json(capsys, "solve", "duality", "--input", path10, "--no-lp")
        assert code == 0
        assert rep["parameters"] == {"problem": "duality", "r": 1}
        assert rep["outputs"]["lp_value"] is None

    def test_vc2_witness_is_rechecked(self, path10, capsys, monkeypatch):
        # the 1-ball of vertex 5 misses both 0 and 2, so it traces no pair
        bad = TwoShatterWitness((0, 2), {(0, 2): 5})
        monkeypatch.setattr(drisk.ballvc, "_two_shattered", lambda members, masks: (2, bad))
        code = main(["solve", "vc2", "--input", path10, "--r", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("internal error: invalid pair-shattering witness")

    def test_failed_self_check_exits_one_with_one_line(self, path10, capsys, monkeypatch):
        # in MCQ order the clique on bits 0 and 2 is the adjacent pair
        # (0, 1), which is not a 1-independent witness
        monkeypatch.setattr(drisk.oracle, "_max_clique", lambda n, adj: (2, 0b101))
        code = main(["solve", "alpha", "--input", path10, "--r", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "internal error: invalid independence witness\n"
        assert "Traceback" not in captured.err

    @pytest.fixture
    def grid44(self, tmp_path):
        path = tmp_path / "g44.gr"
        write_edge_list(grid_graph(4, 4), str(path))
        return str(path)

    def test_minor_model_is_rechecked(self, grid44, capsys, monkeypatch):
        # the two sets the search sees pass its radius filter, but the
        # corners 0 and 15 are not connected
        monkeypatch.setattr(
            drisk.oracle, "_connected_sets_bounded", lambda adjm, cap: [1 | 1 << 15, 1 << 1]
        )
        monkeypatch.setattr(drisk.oracle, "_radius_at_most", lambda adjm, mask, r: True)
        assert internal_error(
            capsys, "solve", "minor", "--input", grid44, "--t", "2", "--r", "1"
        ) == "invalid clique-minor model: branch set not connected within the radius bound"

    def test_uqw_result_is_rechecked(self, grid44, capsys, monkeypatch):
        # 0 and 1 are adjacent, so the rung's set is not scattered
        monkeypatch.setattr(
            drisk.uqw, "scattered_ladder", lambda g, a, r, s_max: iter([((), (0, 1))])
        )
        assert internal_error(
            capsys, "solve", "uqw", "--input", grid44, "--m", "2", "--r", "1"
        ) == "invalid scattered set: set is not scattered after the deletion"

    def test_exhausted_pivot_budget_exits_one(self, grid44, capsys, monkeypatch):
        monkeypatch.setattr(drisk.simplex, "_MAX_PIVOTS", 1)
        assert internal_error(capsys, "solve", "lp", "--input", grid44, "--r", "1") \
            == "pivot budget exhausted"

    def test_gamma_witness_is_rechecked(self, path10, capsys, monkeypatch):
        # a ball table in which vertex 0 covers every member
        monkeypatch.setattr(
            drisk.oracle, "_member_traces",
            lambda g, a, r, *_: (tuple(a), [(1 << len(a)) - 1] + [0] * (g.n - 1)),
        )
        assert internal_error(capsys, "solve", "gamma", "--input", path10, "--r", "1") \
            == "invalid domination witness"

    def test_duality_cover_is_checked_by_the_greedy_cover(
        self, path10, capsys, monkeypatch
    ):
        # a ball table in which vertex 0 covers every member
        class OneCenter(drisk.graph.BallTraces):
            def __init__(self, g, members, r, blocked=None):
                super().__init__(g, members, r, blocked)
                self.masks = [self.bits(members)] + [0] * (g.n - 1)

        monkeypatch.setattr(drisk.wcol, "BallTraces", OneCenter)
        assert internal_error(capsys, "solve", "duality", "--input", path10, "--r", "1") \
            == "greedy cover failed to dominate"

    @pytest.mark.parametrize("scan, error", [
        # every member joins the witness
        (lambda g, members, r, order: (members, set(members)), "witness is not spread far enough"),
    ], ids=["witness"])
    def test_duality_answer_is_checked_by_the_reach_scan(
        self, scan, error, path10, capsys, monkeypatch
    ):
        monkeypatch.setattr(drisk.wcol, "_reach_scan", scan)
        assert internal_error(capsys, "solve", "duality", "--input", path10, "--r", "1") == error

    def test_header_above_the_vertex_cap_exits_three(self, tmp_path, capsys):
        huge = tmp_path / "huge.gr"
        huge.write_text(f"p {MAX_VERTICES + 1} 0\n")
        code = main(["solve", "lp", "--input", str(huge)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("input error:")


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
        assert [batch["removed"] for batch in out["removal_log"]] == [[1, 2, 3], [7, 8]]
        assert read_vertex_set(f"{prefix}.y") == (0, 4, 5, 6, 9, 10, 11)
        assert read_vertex_set(f"{prefix}.b") == (4, 5, 9, 10, 11)
        log = json.loads(open(f"{prefix}.log.json").read())
        assert log["schema"] == 2
        assert log["r"] == 2 and log["k"] == 3
        assert log["batches"] == out["removal_log"]
        assert "entries" not in log

    def test_unwritable_prefix_exits_three_without_a_report(
        self, path10, tmp_path, capsys
    ):
        prefix = str(tmp_path / "no" / "such" / "run")
        code, out = run(
            capsys, "kernel", "--input", path10, "--r", "2", "--k", "2",
            "--out-prefix", prefix,
        )
        assert code == 3
        assert out == ""

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
        # the cap counts removals: it stops the first batch after two
        removed = [v for batch in rep["outputs"]["removal_log"] for v in batch["removed"]]
        assert removed == [1, 2]

    def test_bad_yes_witness_exits_one_without_files(
        self, path10, tmp_path, capsys, monkeypatch
    ):
        # an adjacent pair is not 2-independent
        monkeypatch.setattr(drisk.kernel, "_reach_scan", lambda g, a, r, order: ((0, 1), set()))
        assert internal_error(
            capsys, "kernel", "--input", path10, "--r", "2", "--k", "2",
            "--out-prefix", str(tmp_path / "run"),
        ) == "YES witness is not r-independent"
        assert sorted(os.listdir(tmp_path)) == ["p10.gr"]

    def test_bad_certificate_exits_one_without_files(
        self, twin, tmp_path, capsys, monkeypatch
    ):
        # with no deletion set every leaf is one step from z; one round
        # is enough to apply it
        bad = IrrelevanceCertificate((0, 6), (), (1, 2, 3, 4, 5), 2, 1)
        monkeypatch.setattr(
            drisk.kernel, "_find_removable_class", lambda g, members, closed, r, policy: bad
        )
        graph_path, a_path = twin
        assert internal_error(
            capsys, "kernel", "--input", graph_path, "--a-file", a_path, "--r", "2",
            "--k", "3", "--max-rounds", "1", "--out-prefix", str(tmp_path / "run"),
        ) == "pipeline emitted a bad certificate (far)"
        assert sorted(os.listdir(tmp_path)) == ["twin.a", "twin.gr"]

    def test_members_outside_y_exit_one_without_files(
        self, twin, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(drisk.kernel, "path_closure", lambda g, b, r: ())
        graph_path, a_path = twin
        assert internal_error(
            capsys, "kernel", "--input", graph_path, "--a-file", a_path,
            "--r", "2", "--k", "3", "--out-prefix", str(tmp_path / "run"),
        ) == "kernel members not inside Y"
        assert sorted(os.listdir(tmp_path)) == ["twin.a", "twin.gr"]

    def test_missing_required_flags_exit_three(self, path10):
        assert main(["kernel", "--input", path10, "--r", "2"]) == 3

    @pytest.mark.parametrize("flag", [
        ["--s-max", "-1"], ["--target", "0"], ["--max-rounds", "-1"],
    ], ids=lambda flag: flag[0])
    def test_bad_policy_exits_three_on_a_yes_instance(self, flag, path10, capsys):
        # the path answers YES before any removal round would use the policy
        assert main(["kernel", "--input", path10, "--r", "2", "--k", "2"]) == 0
        capsys.readouterr()
        code = main(["kernel", "--input", path10, "--r", "2", "--k", "2", *flag])
        assert code == 3
        assert capsys.readouterr().err.startswith("input error:")

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
    ], ids=["solve", "kernel"])
    def test_format_flag_is_refused(self, command):
        assert main(command) == 3

    def test_bench_is_refused_as_an_invalid_choice(self, capsys):
        assert main(["bench", "--manifest", "m.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("input error: ")
        assert "invalid choice: 'bench'" in line

    @pytest.mark.parametrize("flag", [["--uqw-m", "2"], ["--closure-cap", "0"]],
                             ids=lambda flag: flag[0])
    def test_removed_policy_flags_are_refused(self, flag, twin):
        graph_path, a_path = twin
        assert main(["kernel", "--input", graph_path, "--a-file", a_path,
                     "--r", "2", "--k", "3", *flag]) == 3


# a valid certificate for the twin fixture, whose log entry removes 1
TWIN_CERT = {"z": [0, 6], "s": [0], "l_prime": [1, 2, 3, 4, 5], "r": 2, "d": 1}

# the schema-1 removal log of the twin fixture at r = 2, k = 3, as
# (removed, s, l_prime) with z = [0, 6]: one certificate per removal,
# alternating between the stars
TWIN_ENTRIES = [
    (1, [0], [1, 2, 3, 4, 5]),
    (7, [0, 6], [7, 8, 9, 10, 11]),
    (2, [0], [2, 3, 4, 5]),
    (8, [0, 6], [8, 9, 10, 11]),
    (3, [0], [3, 4, 5]),
]


def schema1_log(twin, tmp_path) -> str:
    """Write the twin fixture's schema-1 removal log, header included,
    and return its path."""
    graph_path, a_path = twin
    log = {
        "schema": 1,
        "graph_digest": hashlib.sha256(open(graph_path, "rb").read()).hexdigest(),
        "a": list(read_vertex_set(a_path)),
        "r": 2,
        "k": 3,
        "entries": [
            {"removed": v, "certificate": {**TWIN_CERT, "s": s, "l_prime": lp}}
            for v, s, lp in TWIN_ENTRIES
        ],
    }
    path = tmp_path / "schema1.log.json"
    path.write_text(json.dumps(log))
    return str(path)


def kernel_log(twin, tmp_path, capsys) -> str:
    """Run kernel on the twin fixture at r = 2, k = 3 and return the path
    of the schema-2 removal log it writes."""
    graph_path, a_path = twin
    prefix = str(tmp_path / "kk")
    run(
        capsys, "kernel", "--input", graph_path, "--a-file", a_path,
        "--r", "2", "--k", "3", "--out-prefix", prefix,
    )
    return f"{prefix}.log.json"


def replay(capsys, twin, log_path):
    """Run verify-cert on the twin fixture and the log at log_path."""
    graph_path, a_path = twin
    return run_json(
        capsys, "verify-cert", "--input", graph_path, "--a-file", a_path, "--log", log_path,
    )


class TestVerifyCert:
    def test_single_certificate(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(TWIN_CERT))
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

    def test_schema1_log_replays_clean(self, twin, tmp_path, capsys):
        code, rep = replay(capsys, twin, schema1_log(twin, tmp_path))
        assert code == 0
        assert rep["outputs"] == {
            "valid": True, "checked": 5, "failures": [],
            "final_members": [4, 5, 9, 10, 11],
        }

    def test_tampered_log_is_rejected(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        log = json.loads(open(schema1_log(twin, tmp_path)).read())
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

    def test_log_of_another_graph_is_refused(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        # same vertex count and members, another graph
        other = tmp_path / "path.gr"
        write_edge_list(path_graph(read_edge_list(graph_path).n), str(other))
        for log_path in (schema1_log(twin, tmp_path), kernel_log(twin, tmp_path, capsys)):
            code = main([
                "verify-cert", "--input", str(other), "--a-file", a_path,
                "--log", log_path,
            ])
            assert (code, capsys.readouterr()) == (3, (
                "", "input error: removal log graph_digest does not match the loaded input\n"
            ))

    def test_log_of_other_members_is_refused(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        log_path = schema1_log(twin, tmp_path)
        fewer = tmp_path / "fewer.a"
        write_vertex_set(read_vertex_set(a_path)[1:], str(fewer))
        for path in (log_path, kernel_log(twin, tmp_path, capsys)):
            code = main([
                "verify-cert", "--input", graph_path, "--a-file", str(fewer),
                "--log", path,
            ])
            assert (code, capsys.readouterr()) == (3, (
                "", "input error: removal log a does not match the loaded input\n"
            ))
        # a bare list of entries has no header to check
        bare = tmp_path / "bare.log.json"
        bare.write_text(json.dumps(json.loads(open(log_path).read())["entries"]))
        code, rep = run_json(
            capsys, "verify-cert", "--input", graph_path, "--a-file", str(fewer),
            "--log", str(bare),
        )
        assert code == 0 and rep["outputs"]["failures"]

    def test_malformed_certificate_exits_three(self, twin, tmp_path, capsys):
        graph_path, a_path = twin
        cert_path = tmp_path / "broken.json"
        # each of the last four reads as TWIN_CERT under int(), which is valid
        for cert in (
            {"z": [0]},
            {**TWIN_CERT, "s": 0},
            {**TWIN_CERT, "r": 2.75, "d": True},
            {**TWIN_CERT, "s": "0", "l_prime": ["1", "2", "3", "4", "5"]},
            {**TWIN_CERT, "z": [0, 6.5]},
            {**TWIN_CERT, "d": "1"},
        ):
            cert_path.write_text(json.dumps(cert))
            assert main([
                "verify-cert", "--input", graph_path, "--a-file", a_path,
                "--cert", str(cert_path),
            ]) == 3, cert
            err = capsys.readouterr().err
            assert err.startswith("input error: malformed certificate")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("log", [
        [[1, 2]],
        5,
        [{"removed": "1", "certificate": TWIN_CERT}],
        [{"removed": 1.5, "certificate": TWIN_CERT}],
        [{"removed": True, "certificate": TWIN_CERT}],
        [{"removed": 1, "certificate": {**TWIN_CERT, "s": "0"}}],
    ], ids=["list-entry", "number", "string-removed", "float-removed",
            "bool-removed", "string-ids"])
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

    @pytest.mark.parametrize("log,line", [
        ([{"certificate": TWIN_CERT}], "malformed removal log entry 0: 'removed'"),
        ([{"removed": 1}], "malformed removal log entry 0: 'certificate'"),
        ({"schema": 1}, "malformed removal log: expected a list of entries"),
    ], ids=["no-removed", "no-certificate", "no-entries"])
    def test_missing_log_keys_are_malformed(self, log, line, twin, tmp_path, capsys):
        graph_path, a_path = twin
        log_path = tmp_path / "bad.log.json"
        log_path.write_text(json.dumps(log))
        code = main([
            "verify-cert", "--input", graph_path, "--a-file", a_path,
            "--log", str(log_path),
        ])
        assert (code, capsys.readouterr().err) == (3, f"input error: {line}\n")

    @pytest.mark.parametrize("flag,what", [
        ("--cert", "certificate"), ("--log", "removal log"),
    ], ids=["cert", "log"])
    def test_too_deeply_nested_json_is_malformed(
        self, flag, what, twin, tmp_path, capsys
    ):
        # raw text: json.dumps cannot write a value this deep
        graph_path, a_path = twin
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        code = main([
            "verify-cert", "--input", graph_path, "--a-file", a_path, flag, str(path),
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        (line,) = captured.err.splitlines()
        assert line.startswith(f"input error: malformed {what}: maximum recursion depth")

    def test_cert_and_log_are_mutually_exclusive(self, twin, tmp_path):
        graph_path, _ = twin
        dummy = tmp_path / "d.json"
        dummy.write_text("{}")
        assert main([
            "verify-cert", "--input", graph_path,
            "--cert", str(dummy), "--log", str(dummy),
        ]) == 3



def refused(capsys, twin, log_path):
    """Exit code and (stdout, stderr) of verify-cert on the twin fixture
    and the log at log_path."""
    graph_path, a_path = twin
    code = main(["verify-cert", "--input", graph_path, "--a-file", a_path, "--log", log_path])
    return code, tuple(capsys.readouterr())


def edited_kernel_log(twin, tmp_path, capsys, edit) -> str:
    """The twin fixture's schema-2 kernel log after edit(log), written
    beside it; returns its path."""
    log = json.loads(open(kernel_log(twin, tmp_path, capsys)).read())
    edit(log)
    path = tmp_path / "edited.log.json"
    path.write_text(json.dumps(log))
    return str(path)


class TestBatchLog:
    """Schema-2 logs: the twin fixture's kernel log has two batches,
    [1, 2, 3] under s = [0] and [7, 8] under s = [0, 6]."""

    def test_kernel_log_replays_clean(self, twin, tmp_path, capsys):
        code, rep = replay(capsys, twin, kernel_log(twin, tmp_path, capsys))
        assert code == 0
        assert rep["outputs"] == {
            "valid": True, "checked": 5, "failures": [],
            "final_members": [4, 5, 9, 10, 11],
        }

    @pytest.mark.parametrize("edit,failure", [
        # 11 is a member, but of the other star's class
        (lambda log: log["batches"][0]["removed"].__setitem__(1, 11),
         {"index": 1, "reason": "removed vertex outside the certified class"}),
        # 4 would leave one class member, not |s| + 1 = 2
        (lambda log: log["batches"][0]["removed"].append(4),
         {"index": 3, "reason": "size"}),
        (lambda log: log["batches"][0]["removed"].insert(1, 1),
         {"index": 1, "reason": "removed vertex outside the certified class"}),
        (lambda log: log["batches"][1]["removed"].insert(0, 2),
         {"index": 3, "reason": "removed vertex outside the certified class"}),
        # z = [0] leaves the second star's leaves undominated
        (lambda log: log["batches"][1]["certificate"].__setitem__("z", [0]),
         {"index": 3, "reason": "dominates"}),
        # without a deletion set each leaf is next to its center in z
        (lambda log: log["batches"][1]["certificate"].__setitem__("s", []),
         {"index": 3, "reason": "far"}),
    ], ids=["outside-class", "one-too-long", "listed-twice", "removed-earlier",
            "z-changed", "s-changed"])
    def test_tampered_batch_is_rejected(self, edit, failure, twin, tmp_path, capsys):
        code, rep = replay(capsys, twin, edited_kernel_log(twin, tmp_path, capsys, edit))
        assert code == 0
        out = rep["outputs"]
        assert out["valid"] is False
        assert out["failures"] == [failure]
        assert out["checked"] == failure["index"]

    @pytest.mark.parametrize("batch,line", [
        ({"certificate": TWIN_CERT}, "malformed removal log batch 0: 'removed'"),
        ({"removed": [1]}, "malformed removal log batch 0: 'certificate'"),
        ({"removed": [], "certificate": TWIN_CERT},
         "malformed removal log batch 0: removed must not be empty"),
        ({"removed": 1, "certificate": TWIN_CERT},
         "malformed removal log batch 0: removed must be a list of integers, got 1"),
        ({"removed": ["1"], "certificate": TWIN_CERT},
         'malformed removal log batch 0: removed must be a list of integers, got ["1"]'),
        ({"removed": [1.0], "certificate": TWIN_CERT},
         "malformed removal log batch 0: removed must be a list of integers, got [1.0]"),
        ({"removed": [True], "certificate": TWIN_CERT},
         "malformed removal log batch 0: removed must be a list of integers, got [true]"),
        ([1, 2], "malformed removal log batch 0: expected an object, got [1, 2]"),
        ({"removed": [1], "certificate": {**TWIN_CERT, "s": "0"}},
         'malformed certificate: s must be a list of integers, got "0"'),
    ], ids=["no-removed", "no-certificate", "empty-removed", "int-removed",
            "string-id", "float-id", "bool-id", "not-an-object", "string-ids"])
    def test_malformed_batch_exits_three(self, batch, line, twin, tmp_path, capsys):
        def edit(log):
            log["batches"][0] = batch

        path = edited_kernel_log(twin, tmp_path, capsys, edit)
        assert refused(capsys, twin, path) == (3, ("", f"input error: {line}\n"))

    def test_missing_batches_are_malformed(self, twin, tmp_path, capsys):
        path = edited_kernel_log(twin, tmp_path, capsys, lambda log: log.pop("batches"))
        assert refused(capsys, twin, path) == (
            3, ("", "input error: malformed removal log: expected a list of batches\n")
        )

    @pytest.mark.parametrize("schema,shown", [
        (7, "7"), (0, "0"), ("2", '"2"'), (True, "true"), (None, "null"), (2.0, "2.0"),
    ], ids=["seven", "zero", "string", "bool", "null", "float"])
    def test_unknown_schema_is_refused(self, schema, shown, twin, tmp_path, capsys):
        def edit(log):
            log["schema"] = schema

        path = edited_kernel_log(twin, tmp_path, capsys, edit)
        assert refused(capsys, twin, path) == (
            3, ("", f"input error: removal log schema {shown} is not supported\n")
        )

    def test_one_full_check_per_certificate(self, tmp_path, capsys, monkeypatch):
        # twin stars with 256 leaves a side: 508 removals in two batches,
        # each certificate checked once by kernel and once by the replay
        calls = []
        for module in (drisk.kernel, drisk.cli):
            real = module.check_certificate

            def counted(g, a, cert, module=module, real=real):
                calls.append(module.__name__)
                return real(g, a, cert)

            monkeypatch.setattr(module, "check_certificate", counted)
        g_path, a_path = str(tmp_path / "t.gr"), str(tmp_path / "t.a")
        write_edge_list(corpus.twin_stars(256, 9), g_path)
        write_vertex_set(corpus.twin_star_leaves(256), a_path)
        prefix = str(tmp_path / "t")
        code, rep = run_json(
            capsys, "kernel", "--input", g_path, "--a-file", a_path,
            "--r", "2", "--k", "3", "--out-prefix", prefix,
        )
        assert code == 0 and len(rep["outputs"]["b"]) == 4
        assert calls == ["drisk.kernel", "drisk.kernel"]
        code, rep = run_json(
            capsys, "verify-cert", "--input", g_path, "--a-file", a_path,
            "--log", f"{prefix}.log.json",
        )
        assert code == 0 and rep["outputs"]["valid"] is True
        assert rep["outputs"]["checked"] == 508
        assert calls == ["drisk.kernel"] * 2 + ["drisk.cli"] * 2

TRICKY_TEXT = st.sampled_from(['', '"', "\n", 'a "b"\nc\\', "é", "\u2028", "\U0001d11e", "\x00\x1f"])
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10 ** 40), 10 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | TRICKY_TEXT
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.lists(st.integers(), max_size=6).map(tuple)
    | st.dictionaries(st.text(max_size=4) | TRICKY_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=24,
)


class TestReportWriter:
    """_dump writes the bytes of json.dumps(indent=2, sort_keys=True)
    plus a line break; every report the other tests here write is checked
    by reports_match_reference_dump."""

    @settings(max_examples=200)
    @given(JSON_VALUES)
    @example({
        "b": [1, True, None, 2.5, (3, 4), [], {}],
        "a": {"z": (), "y": {2: "two", 10: "ten"}, "x": [-(10 ** 30)]},
        "é\n": [float("inf"), float("-inf"), float("nan"), -0.0],
    })
    def test_matches_json_dumps(self, value):
        assert drisk.cli._dump(value) == reference_dump(value)


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

    def test_repeated_calls_in_one_process_match_single_calls(self, tmp_path, capsys):
        # the parser is built once per process, so a call must not see
        # what an earlier one parsed, even one that failed mid-parse
        graph = str(tmp_path / "p.gr")
        good = [
            ["gen", "path", "--n", "10", "--out", graph],
            ["solve", "alpha", "--input", graph, "--r", "2"],
            ["kernel", "--input", graph, "--r", "2", "--k", "2"],
        ]
        bad = [
            ["solve", "alpha", "--input", graph, "--r", "zero"],
            ["gen", "no-such-kind", "--n", "3"],
        ]
        single = []
        for argv in good:
            proc = subprocess.run(
                [sys.executable, "-m", "drisk.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            single.append(proc.stdout)
        for _ in range(2):
            for argv, want in zip(good, single):
                assert main(bad[0]) == 3
                assert main(argv) == 0
                assert capsys.readouterr().out == want
                assert main(bad[1]) == 3
