"""Unit tests for the plain-text graph and vertex-set exchange formats."""

import pytest

import corpus
from drisk.graph import Graph, GraphError
from drisk.graphio import (
    read_edge_list,
    read_pairs,
    read_vertex_set,
    sidecar_path,
    write_edge_list,
    write_pairs,
    write_vertex_set,
)


class TestEdgeListRoundTrip:
    def test_corpus_round_trips(self, tmp_path):
        for name, g in corpus.small_corpus():
            p = tmp_path / f"{name}.gr"
            write_edge_list(g, str(p))
            back = read_edge_list(str(p))
            assert back.n == g.n and back.edges == g.edges, name

    def test_comments_are_written_and_skipped(self, tmp_path):
        g = Graph(3, [(0, 1)])
        p = tmp_path / "g.gr"
        write_edge_list(g, str(p), comments=["hello", "world"])
        text = p.read_text()
        assert text.startswith("c hello\nc world\np 3 1\n")
        assert read_edge_list(str(p)).edges == ((0, 1),)

    def test_loops_and_parallel_edges_are_refused(self, tmp_path):
        p = tmp_path / "mg.gr"
        for edges in ("e 0 0\ne 0 1\n", "e 0 1\ne 1 0\n"):
            p.write_text("p 3 2\n" + edges)
            with pytest.raises(GraphError):
                read_edge_list(str(p))

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("\np 2 1\n\ne 0 1\n\n")
        assert read_edge_list(str(p)).edges == ((0, 1),)


class TestEdgeListErrors:
    @pytest.mark.parametrize(
        "body, message_part",
        [
            ("e 0 1\np 2 1\n", "edge before header"),
            ("p 2 1\np 2 1\ne 0 1\n", "duplicate header"),
            ("p 2\ne 0 1\n", "malformed header"),
            ("p 2 1\ne 0\n", "malformed edge line"),
            ("p 2 1\nx 0 1\n", "unknown record"),
            ("p 2 2\ne 0 1\n", "promises 2 edges"),
            ("c nothing else\n", "missing p header"),
        ],
    )
    def test_malformed_inputs_report_reason(self, tmp_path, body, message_part):
        p = tmp_path / "bad.gr"
        p.write_text(body)
        with pytest.raises(GraphError, match=message_part):
            read_edge_list(str(p))

    def test_error_messages_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("c one\np 2 1\ne 0\n")
        with pytest.raises(GraphError, match=r":3:"):
            read_edge_list(str(p))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_edge_list(str(tmp_path / "absent.gr"))


class TestVertexSets:
    def test_round_trip_sorts_and_dedups(self, tmp_path):
        p = tmp_path / "a.set"
        write_vertex_set([5, 1, 5, 3], str(p))
        assert p.read_text() == "1\n3\n5\n"
        assert read_vertex_set(str(p)) == (1, 3, 5)

    def test_read_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "a.set"
        p.write_text("c note\n\n2\n0\n2\n")
        assert read_vertex_set(str(p)) == (0, 2)

    def test_non_integer_line_raises_value_error(self, tmp_path):
        p = tmp_path / "a.set"
        p.write_text("7\nnope\n")
        with pytest.raises(ValueError):
            read_vertex_set(str(p))


class TestPairsAndSidecars:
    def test_dict_and_tuple_inputs_round_trip(self, tmp_path):
        p = tmp_path / "g.special"
        write_pairs({"x": 4, "y": 9}, str(p))
        assert read_pairs(str(p)) == [("x", 4), ("y", 9)]
        write_pairs([(0, 3), (1, 5)], str(p))
        assert read_pairs(str(p)) == [("0", 3), ("1", 5)]

    def test_sidecar_path_swaps_extension(self):
        assert sidecar_path("/tmp/run/g.gr", "origin") == "/tmp/run/g.origin"
        assert sidecar_path("plain", "special") == "plain.special"
