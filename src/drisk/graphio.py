"""Plain-text exchange formats.

Graphs travel as edge lists: `c` comment lines, one `p <n> <m>` header,
then `e <u> <v>` lines with 0-based endpoints.  Vertex sets are one id per
line.  Generator metadata (the special vertices) goes into a side-car
file next to the graph, `<name>.special`, one `key value` pair per line.

A header may declare at most MAX_VERTICES vertices; a larger `n` is
refused before anything is allocated for it.
"""

from __future__ import annotations

import os
import re
from typing import Iterable, List, Optional, Tuple

from .graph import Graph, GraphError

MAX_VERTICES = 10_000_000


def write_edge_list(g: Graph, path: str, comments: Iterable[str] = ()) -> None:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {g.n} {g.m}")
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# the header and edge lines as write_edge_list writes them
_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)\n")
_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
# characters of edge lines matched and split at a time: the match keeps
# state per line and the split a string per field, so memory stays bounded
_BLOCK = 4096


def read_edge_list(path: str) -> Graph:
    """Read an edge list into a Graph.

    A file laid out as write_edge_list writes it (`c` lines, a
    `p <n> <m>` line, then only `e <u> <v>` lines, one space between
    fields and a line break after each) is read in bulk.  Every other
    file is read line by line, which names the line of each fault; both
    ways give the same Graph or raise the same error.
    """
    g = _read_canonical(path)
    return _read_edge_lines(path) if g is None else g


def _read_canonical(path: str) -> Optional[Graph]:
    """The Graph of a file laid out as write_edge_list writes it; None
    for any other file, and for one whose n exceeds MAX_VERTICES or whose
    edge count is not m, so that the line reader raises its errors."""
    try:
        with open(path) as fh:
            raw = ""
            for raw in fh:
                if raw[:1] != "c":
                    break
            header = _HEADER.fullmatch(raw)
            if header is None or int(header[1]) > MAX_VERTICES:
                return None
            body = fh.read()
    except UnicodeDecodeError:
        return None  # the line reader raises it where it did before
    ends: List[int] = []
    start = 0
    while start < len(body):
        stop = body.find("\n", start + _BLOCK) + 1 or len(body)  # whole lines
        if _EDGES.fullmatch(body, start, stop) is None:
            return None
        tokens = body[start:stop].split()
        del tokens[::3]  # the "e"s
        ends += map(int, tokens)
        start = stop
    if len(ends) != 2 * int(header[2]):
        return None
    pairs = iter(ends)
    return Graph(int(header[1]), zip(pairs, pairs))


def _read_edge_lines(path: str) -> Graph:
    """read_edge_list's line-by-line reader, for files of any layout."""
    n = None
    m = None
    edges: List[Tuple[int, int]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise GraphError(f"{path}:{lineno}: duplicate header")
                if len(parts) != 3:
                    raise GraphError(f"{path}:{lineno}: malformed header")
                n, m = int(parts[1]), int(parts[2])
                if n > MAX_VERTICES:
                    raise GraphError(f"{path}:{lineno}: more than {MAX_VERTICES} vertices")
            elif parts[0] == "e":
                if n is None:
                    raise GraphError(f"{path}:{lineno}: edge before header")
                if len(parts) != 3:
                    raise GraphError(f"{path}:{lineno}: malformed edge line")
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise GraphError(f"{path}:{lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError(f"{path}: missing p header")
    if m != len(edges):
        raise GraphError(f"{path}: header promises {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_vertex_set(ids: Iterable[int], path: str) -> None:
    with open(path, "w") as fh:
        for v in sorted(set(ids)):
            fh.write(f"{v}\n")


def read_vertex_set(path: str) -> Tuple[int, ...]:
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            out.append(int(line))
    return tuple(sorted(set(out)))


def write_pairs(pairs: Iterable[Tuple[str, int]], path: str) -> None:
    """Write `key value` lines; used for .special side-cars."""
    with open(path, "w") as fh:
        for k, v in pairs:
            fh.write(f"{k} {v}\n")


def read_pairs(path: str) -> List[Tuple[str, int]]:
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            k, v = line.split()
            out.append((k, int(v)))
    return out


def sidecar_path(graph_path: str, kind: str) -> str:
    base, _ = os.path.splitext(graph_path)
    return f"{base}.{kind}"
