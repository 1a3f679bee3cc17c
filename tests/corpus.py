"""Shared instance corpora for the test suite.

small_corpus  - n <= 14, exercised against the brute-force references
tiny_connected - connected graphs with n <= 7 for the gadget identities
mid_corpus    - n <= 24 for the LP duality sweep
kernel_corpus - (graph, members, name) triples with n <= 50
member_corpus - (name, graph, members) triples: small_corpus and twin stars
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from drisk import (
    Graph,
    complete_graph,
    cycle_graph,
    exact_subdivision,
    gnm_random,
    grid_graph,
    path_graph,
    star_graph,
)

from bruteforce import bfs_dists, simple_adj


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(bfs_dists(simple_adj(g), 0)) == g.n


def twin_stars(p: int, bridge: int) -> Graph:
    """Two K_{1,p} stars whose centers are joined by a path with
    `bridge` edges; center ids 0 and p+1, leaves around them."""
    edges = [(0, i) for i in range(1, p + 1)]
    c2 = p + 1
    edges += [(c2, i) for i in range(p + 2, 2 * p + 2)]
    prev = 0
    nxt = 2 * p + 2
    for _ in range(bridge - 1):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    edges.append((prev, c2))
    return Graph(nxt, edges)


def twin_star_leaves(p: int) -> Tuple[int, ...]:
    return tuple(range(1, p + 1)) + tuple(range(p + 2, 2 * p + 2))


def star_chain(c: int, p: int, bridge: int) -> Tuple[Graph, Tuple[int, ...]]:
    """c K_{1,p} stars whose consecutive centers are joined by paths with
    `bridge` edges, and their leaves.  Each center has the smallest id
    in its star, so every star's leaves take a certificate of their own."""
    edges: List[Tuple[int, int]] = []
    centers = [i * (p + 1) for i in range(c)]
    for center in centers:
        edges += [(center, center + i) for i in range(1, p + 1)]
    nxt = c * (p + 1)
    for left, right in zip(centers, centers[1:]):
        prev = left
        for _ in range(bridge - 1):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, right))
    leaves = tuple(v for center in centers for v in range(center + 1, center + p + 1))
    return Graph(nxt, edges), leaves


def small_corpus() -> List[Tuple[str, Graph]]:
    out: List[Tuple[str, Graph]] = []
    for n in range(1, 9):
        out.append((f"path{n}", path_graph(n)))
    for n in range(3, 9):
        out.append((f"cycle{n}", cycle_graph(n)))
    for rows, cols in ((2, 2), (2, 3), (3, 3), (2, 4)):
        out.append((f"grid{rows}x{cols}", grid_graph(rows, cols)))
    for leaves in (3, 4, 6):
        out.append((f"star{leaves}", star_graph(leaves)))
    for n in (2, 3, 4, 5):
        out.append((f"complete{n}", complete_graph(n)))
    for n, m, seed in ((8, 10, 1), (10, 12, 2), (12, 14, 3), (14, 18, 4)):
        out.append((f"gnm{n}_{m}_{seed}", gnm_random(n, m, seed)))
    sub = exact_subdivision(gnm_random(6, 8, 5), 2)
    out.append(("subdiv6_8", sub))
    return out


def tiny_connected() -> List[Tuple[str, Graph]]:
    out = []
    for name, g in small_corpus():
        if 2 <= g.n <= 7 and is_connected(g):
            out.append((name, g))
    for n, m, seed in ((6, 7, 11), (7, 8, 12), (7, 9, 13)):
        g = gnm_random(n, m, seed)
        if is_connected(g):
            out.append((f"gnm{n}_{m}_{seed}", g))
    return out


def mid_corpus() -> List[Tuple[str, Graph]]:
    """At least 100 instances, all with n <= 24, drawn from paths, cycles,
    grids, and subdivided random graphs (plus a few extras)."""
    out: List[Tuple[str, Graph]] = []
    for n in range(2, 25):
        out.append((f"path{n}", path_graph(n)))
    for n in range(3, 25):
        out.append((f"cycle{n}", cycle_graph(n)))
    for rows, cols in (
        (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (2, 11), (2, 12),
        (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 4), (4, 5), (4, 6),
    ):
        out.append((f"grid{rows}x{cols}", grid_graph(rows, cols)))
    for seed in range(16):
        base = gnm_random(8, 10 + (seed % 3), 50 + seed)
        sub = exact_subdivision(base, 2)
        out.append((f"subdiv8_{seed}", sub))
    for seed in range(16):
        base = gnm_random(6, 7 + (seed % 2), 70 + seed)
        sub = exact_subdivision(base, 3)
        out.append((f"subdiv6_{seed}", sub))
    for seed in range(8):
        base = gnm_random(10, 11 + (seed % 3), 90 + seed)
        sub = exact_subdivision(base, 2)
        out.append((f"subdiv10_{seed}", sub))
    for seed in range(8):
        n = 16 + (seed % 5) * 2
        m = n + 4 + seed
        out.append((f"gnm{n}_{m}_{seed}", gnm_random(n, m, seed)))
    for leaves in range(3, 16, 2):
        out.append((f"star{leaves}", star_graph(leaves)))
    for n in (5, 6):
        out.append((f"complete{n}", complete_graph(n)))
    return out


def kernel_corpus() -> List[Tuple[str, Graph, Tuple[int, ...]]]:
    """Graphs up to n = 50 with member sets, for the kernel sweep."""
    out: List[Tuple[str, Graph, Tuple[int, ...]]] = []
    for n in (20, 35, 50):
        g = path_graph(n)
        out.append((f"path{n}", g, tuple(range(n))))
    for n in (24, 40):
        g = cycle_graph(n)
        out.append((f"cycle{n}", g, tuple(range(n))))
    for rows, cols in ((4, 6), (5, 7), (5, 10)):
        g = grid_graph(rows, cols)
        out.append((f"grid{rows}x{cols}", g, tuple(range(g.n))))
    for p, bridge in ((5, 7), (6, 9), (4, 12)):
        g = twin_stars(p, bridge)
        out.append((f"twins{p}_{bridge}", g, twin_star_leaves(p)))
    for seed in range(4):
        base = gnm_random(10 + seed, 13 + seed, 20 + seed)
        sub = exact_subdivision(base, 3)
        members = tuple(range(10 + seed))
        out.append((f"subgnm{seed}", sub, members))
    for seed in range(3):
        g = gnm_random(30, 45, 30 + seed)
        out.append((f"gnm30_{seed}", g, tuple(range(0, 30, 2))))
    return out


def member_corpus() -> List[Tuple[str, Graph, Tuple[int, ...]]]:
    """small_corpus with every vertex and with every other one as
    members, and twin stars with 2 to 16 leaves a side on their leaves."""
    out: List[Tuple[str, Graph, Tuple[int, ...]]] = []
    for name, g in small_corpus():
        out.append((name, g, tuple(range(g.n))))
        out.append((name + "/even", g, tuple(range(0, g.n, 2))))
    for p in range(2, 17):
        out.append((f"twins{p}", twin_stars(p, 9), twin_star_leaves(p)))
    return out
