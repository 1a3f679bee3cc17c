"""Unit tests for the plain-text graph and vertex-set exchange formats."""

import random
import re

import pytest

import corpus
from drisk.graph import Graph, GraphError
from drisk import graphio
from drisk.generators import grid_graph
from drisk.graphio import (
    _read_edge_lines,
    read_edge_list,
    read_pairs,
    read_vertex_set,
    sidecar_path,
    write_edge_list,
    write_pairs,
    write_vertex_set,
)


def _outcome(read, path):
    """What read makes of the file: (n, edges), or the error's type and
    message."""
    try:
        g = read(str(path))
    except ValueError as exc:
        return type(exc), str(exc)
    return g.n, g.edges


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

    @pytest.mark.parametrize(
        "body",
        [
            b"c x\r\np 3 2\r\ne 0 1\r\ne 1 2\r\n",  # CRLF
            b"p 3 2\ne\t0\t1\ne 1\t2\n",  # tabs
            b"  p 3 2\n e 0 1\ne 1 2\n",  # leading spaces
            b" c note\np 3 2\ne 0 1\ne 1 2\n",  # an indented comment
            b"p 3 2\ne 0 1\ne 1 2",  # no final line break
            b"p 3 2\ne 0 1\nc between\ne 1 2\nc after\n",  # comments among the edges
            b"p 3 2\ne 01 2\ne 0 1\n",  # a leading zero
            b"p 3 2\ne +0 1\ne 1 2\n",  # a sign
            b"c one\nc two\np 3 2\ne 0 1\ne 2 1\n",  # canonical, one pair reversed
        ],
    )
    def test_layouts_read_as_the_same_graph(self, tmp_path, body):
        p = tmp_path / "g.gr"
        p.write_bytes(body)
        g = read_edge_list(str(p))
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))

    def test_header_alone_is_an_edgeless_graph(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("c empty\np 4 0\n")
        g = read_edge_list(str(p))
        assert (g.n, g.edges) == (4, ())


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
            # one above the documented cap, refused before any allocation
            ("p 10000001 0\n", "more than 10000000 vertices"),
            # the same refusal, on its line, with edges after the header
            ("c big\np 10000001 0\ne 0 1\ne 1 2\n", r":2: more than 10000000 vertices"),
            ("p 3 2\ne 0 1 2\ne 0 1\n", r":2: malformed edge line"),
            ("p 3 2\ne 0 1\ne 1 0\n", "parallel edges are not allowed"),
            ("p 3 2\ne 0 1\ne 1 3\n", r"edge \(1,3\) out of range for n=3"),
            ("p 3 2\ne -1 1\ne 1 2\n", r"edge \(-1,1\) out of range for n=3"),
            ("p 3 3\ne 0 1\ne 1 2\n", "promises 3 edges, found 2"),
            ("p 3 1\ne 0 1\n\np 3 1\n", r":4: duplicate header"),
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

    def test_non_integer_endpoint_raises_value_error(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("p 3 1\ne 0 x\n")
        with pytest.raises(ValueError, match="invalid literal for int"):
            read_edge_list(str(p))

    @pytest.mark.parametrize("seed", range(3))
    def test_mutated_files_read_as_the_line_reader_reads_them(self, tmp_path, seed):
        # a canonical file with a few characters inserted, deleted or
        # replaced reads as the line-by-line reader reads it: the same
        # graph, or the same error with the same line number; one file
        # in five is longer than the bulk reader's block
        rng = random.Random(seed)
        p = tmp_path / "m.gr"
        alphabet = "cep 0123456789\t\r\n+x"
        for _ in range(300):
            n = rng.randint(400, 900) if rng.random() < 0.2 else rng.randint(1, 12)
            pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)} if n > 1 else set()
            text = "c drawn\n" * rng.randint(0, 2) + f"p {n} {len(pairs)}\n"
            text += "".join(f"e {u} {v}\n" for u, v in sorted(pairs))
            chars = list(text)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(chars) + 1)
                edit = rng.randrange(3)
                if edit == 0:
                    chars.insert(i, rng.choice(alphabet))
                elif i < len(chars):
                    if edit == 1:
                        del chars[i]
                    else:
                        chars[i] = rng.choice(alphabet)
            p.write_bytes("".join(chars).encode())
            assert _outcome(read_edge_list, p) == _outcome(_read_edge_lines, p), "".join(chars)

    @pytest.mark.parametrize(
        "edit, message_part",
        [
            (lambda lines: lines, None),
            (lambda lines: lines[:-1] + [lines[-1].rstrip("\n")], None),
            (lambda lines: lines[:1500] + ["c late\n"] + lines[1500:], None),
            (lambda lines: lines[:1500] + ["e 0 1 2\n"] + lines[1501:], r":1501: malformed edge line"),
            (lambda lines: lines[:1500] + ["e 0  1\n"] + lines[1501:], "parallel edges"),
            (lambda lines: lines[:1500] + ["e 0 900\n"] + lines[1501:], r"edge \(0,900\) out of range"),
            (lambda lines: lines[:-1], "promises 1740 edges, found 1739"),
        ],
    )
    def test_faults_past_the_first_block(self, tmp_path, edit, message_part):
        # a 30 x 30 grid's file spans several of the bulk reader's blocks
        g = grid_graph(30, 30)
        p = tmp_path / "g.gr"
        write_edge_list(g, str(p))
        assert p.stat().st_size > 3 * graphio._BLOCK
        p.write_text("".join(edit(p.read_text().splitlines(keepends=True))))
        got = _outcome(read_edge_list, p)
        assert got == _outcome(_read_edge_lines, p)
        if message_part is None:
            assert got == (g.n, g.edges)
        else:
            assert re.search(message_part, got[1]), got

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
    def test_pairs_round_trip_in_order(self, tmp_path):
        p = tmp_path / "g.special"
        write_pairs([("y", 9), ("x", 4)], str(p))
        assert read_pairs(str(p)) == [("y", 9), ("x", 4)]

    def test_sidecar_path_swaps_extension(self):
        assert sidecar_path("/tmp/run/g.gr", "origin") == "/tmp/run/g.origin"
        assert sidecar_path("plain", "special") == "plain.special"
