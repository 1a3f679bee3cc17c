"""Plain-text exchange formats.

Graphs travel as edge lists: `c` comment lines, one `p <n> <m>` header,
then `e <u> <v>` lines with 0-based endpoints.  Vertex sets are one id per
line.  Generator metadata (origin maps, special vertices) goes into
side-car files next to the graph: `<name>.origin` and `<name>.special`,
one `key value` pair per line.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple

from .graph import Graph, GraphError


def write_edge_list(g: Graph, path: str, comments: Iterable[str] = ()) -> None:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {g.n} {g.m}")
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> Graph:
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


def write_pairs(pairs: Dict[int, int] | Iterable[Tuple[int, int]], path: str) -> None:
    """Write `key value` lines; used for .origin and .special side-cars."""
    items = pairs.items() if isinstance(pairs, dict) else pairs
    with open(path, "w") as fh:
        for k, v in items:
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
